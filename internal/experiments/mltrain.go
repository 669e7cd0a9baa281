package experiments

import (
	"fmt"

	"cmpi/internal/core"
	"cmpi/internal/mltrain"
	"cmpi/internal/mpi"
)

// MLTrainExtension exercises the collective algorithm selector against ML
// training traffic: for each placement (fully co-resident vs spread over
// hosts, power-of-two and not) and gradient size, a data-parallel training
// step runs once with the selector (auto) and once with each algorithm
// forced, plus a parameter-server push/pull reference. The "chosen" column
// reports which algorithm the selector actually ran (from the profiler's
// byte-weighted per-algorithm counters), so the table shows the selection
// policy in action: ring wins large gradients on the co-resident 12-rank
// placement (non-power-of-two, fits one socket, every hop on CMA),
// Rabenseifner on the co-resident 16-rank one (power of two, so no fold),
// and the choice flips back to ring when the same 16 ranks spread over
// hosts — and what it costs when an algorithm is forced wrong.
func MLTrainExtension(sc Scale) (*Table, error) {
	type placement struct {
		name  string
		hosts int
		cont  int // containers per host
		procs int
	}
	placements := []placement{
		// 12 ranks in 4 containers on one host: every pair co-resident, the
		// block placement fits socket 0, and the world is not a power of two.
		{name: "co-res-12", hosts: 1, cont: 4, procs: 12},
		// All 16 ranks in 4 containers on one host: every pair co-resident.
		{name: "co-res-16", hosts: 1, cont: 4, procs: 16},
		// 4 ranks per host across 4 hosts: most pairs cross the fabric.
		{name: "spread-16", hosts: 4, cont: 4, procs: 16},
	}
	sizes := []int{1 << 10, 64 << 10, 1 << 20}
	steps, warmup := 2, 1
	if sc == Full {
		sizes = []int{1 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20}
		steps, warmup = 4, 1
	}
	algos := []core.AllreduceAlgo{
		core.AllreduceAuto,
		core.AllreduceRecursiveDoubling,
		core.AllreduceRabenseifner,
		core.AllreduceRing,
		core.AllreduceTree,
	}
	perPoint := len(algos) + 1 // + parameter-server reference

	t := &Table{
		ID:      "Extension: mltrain",
		Title:   "Data-parallel training step vs allreduce algorithm",
		Columns: []string{"placement", "ranks", "bytes", "chosen", "auto (us)", "rd (us)", "rab (us)", "ring (us)", "tree (us)", "ps (us)"},
		Notes: "Extension beyond the paper: per-call collective algorithm selection. " +
			"auto tracks the best forced column (equal at most points, within a few " +
			"percent at 1 KiB): ring wins large gradients on the " +
			"co-resident 12-rank placement (non-power-of-two world — Rabenseifner " +
			"pays a whole-buffer fold — and every ring hop stays on single-socket " +
			"CMA), Rabenseifner wins the co-resident power-of-two 16-rank one, and " +
			"ring wins again when those 16 ranks spread over hosts (each step moves " +
			"only size/P bytes per link). ps is the parameter-server push/pull " +
			"reference (rank 0 serving the others).",
	}

	type point struct {
		micros float64
		chosen string
	}
	res, err := mapPoints(len(placements)*len(sizes)*perPoint, func(i int) (point, error) {
		pl := placements[i/(len(sizes)*perPoint)]
		rest := i % (len(sizes) * perPoint)
		sz := sizes[rest/perPoint]
		ai := rest % perPoint

		d, err := clusterDeploy(pl.hosts, pl.cont, pl.procs, false)
		if err != nil {
			return point{}, err
		}
		opts := mpi.DefaultOptions()
		opts.Mode = core.ModeLocalityAware
		cfg := mltrain.DefaultConfig(sz)
		cfg.Steps, cfg.Warmup = steps, warmup

		if ai == len(algos) {
			// Parameter-server reference (algorithm-independent).
			w, err := mpi.NewWorld(d, opts)
			if err != nil {
				return point{}, err
			}
			rep, err := mltrain.ParameterServer(w, cfg)
			if err != nil {
				return point{}, fmt.Errorf("%s/%dB ps: %w", pl.name, sz, err)
			}
			return point{micros: rep.StepMicros}, nil
		}

		opts.Tunables.AllreduceAlgo = algos[ai]
		opts.Profile = algos[ai] == core.AllreduceAuto
		w, err := mpi.NewWorld(d, opts)
		if err != nil {
			return point{}, err
		}
		rep, err := mltrain.DataParallel(w, cfg)
		if err != nil {
			return point{}, fmt.Errorf("%s/%dB %v: %w", pl.name, sz, algos[ai], err)
		}
		p := point{micros: rep.StepMicros}
		if opts.Profile {
			if algo, ok := w.Prof.TotalCollAlgos().Dominant(); ok {
				p.chosen = algo.String()
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}

	for pi, pl := range placements {
		for si, sz := range sizes {
			base := (pi*len(sizes) + si) * perPoint
			row := []string{pl.name, fmt.Sprintf("%d", pl.procs), fmt.Sprintf("%d", sz), res[base].chosen}
			for ai := 0; ai < perPoint; ai++ {
				row = append(row, fmtF(res[base+ai].micros))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}
