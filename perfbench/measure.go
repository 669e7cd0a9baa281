package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/mpi"
	"cmpi/internal/profile"
	"cmpi/internal/sim"
	"cmpi/internal/trace"
)

// worldRun is what one simulated world reports.
type worldRun struct {
	job *job
	// Host time spent in each layer call.
	build, newWorld, run time.Duration
	// virtual is World.MaxBodyTime; bodies are the per-rank body times.
	virtual sim.Time
	bodies  []sim.Time
	eng     sim.Stats
	// bufPool and objPool are the world's recycling pools (World.SimStats).
	bufPool, objPool core.PoolCounters
	// prof and replay are set on traced runs only.
	prof   *profile.Profile
	replay *trace.Summary
	err    error
}

// digest is the world's simulated outcome: everything that must not depend
// on tracing, dispatch width or host timing. BarrierStalls is left out
// because it counts groups queued behind the worker pool, which depends on
// the width by design.
func (r *worldRun) digest() string {
	es := r.eng
	es.BarrierStalls = 0
	return fmt.Sprintf("%s virtual=%d bodies=%v stats=%+v", r.job.name, r.virtual, r.bodies, es)
}

// runWorld builds one world of job j and runs it. traced turns on the
// profiler and the trace recorder and replays the trace afterwards.
func runWorld(j *job, sp *spans, parent int, traced bool) worldRun {
	out := worldRun{job: j}
	wid := sp.newWorld()
	root := sp.start("world."+j.name, parent, wid)
	defer sp.stop(root)

	id := sp.start("cluster.build", root, wid)
	c, err := cluster.New(cluster.Spec{Hosts: j.hosts, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	var d *cluster.Deployment
	if err == nil {
		d, err = cluster.Containers(c, j.containers, j.ranks, cluster.PaperScenarioOpts())
	}
	out.build = sp.stop(id)
	if err != nil {
		out.err = fmt.Errorf("%s: deploy: %w", j.name, err)
		return out
	}

	opts := mpi.DefaultOptions()
	opts.Topology = j.topo
	opts.FootprintDecay = mpi.DefaultFootprintDecay
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(nil)
		opts.Profile = true
		opts.Record = rec
	}
	id = sp.start("mpi.newworld", root, wid)
	w, err := mpi.NewWorld(d, opts)
	out.newWorld = sp.stop(id)
	if err != nil {
		out.err = fmt.Errorf("%s: new world: %w", j.name, err)
		return out
	}
	w.Eng.SetWorkers(j.width)
	w.Eng.SetFlat(j.flat)

	id = sp.start("run", root, wid)
	check, err := j.run(w)
	out.run = sp.stop(id)

	id = sp.start("verify", root, wid)
	if err == nil {
		err = check()
	}
	sp.stop(id)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", j.name, err)
	}

	out.virtual = w.MaxBodyTime()
	out.bodies = make([]sim.Time, w.Size())
	for i := range out.bodies {
		out.bodies[i] = w.BodyTime(i)
	}
	out.eng = w.Eng.Stats()
	ss := w.SimStats()
	out.bufPool, out.objPool = ss.BufPool, ss.ObjPool
	if traced {
		out.prof = w.Prof
		id = sp.start("trace.replay", root, wid)
		out.replay = trace.Replay(rec.Trace())
		sp.stop(id)
		if err := rec.Err(); err != nil && out.err == nil {
			out.err = fmt.Errorf("%s: trace recorder: %w", j.name, err)
		}
	}
	return out
}

// iteration is one pass over every world of a workload.
type iteration struct {
	worlds     []worldRun
	setup, run time.Duration
	allocMiB   float64
	gcCycles   uint32
}

func (it *iteration) virtual() sim.Time {
	var v sim.Time
	for _, w := range it.worlds {
		v += w.virtual
	}
	return v
}

func (it *iteration) digest() string {
	s := ""
	for i := range it.worlds {
		s += it.worlds[i].digest() + "\n"
	}
	return s
}

// runIteration runs every job once, after a collection so that garbage left
// by the previous pass is not charged to this one.
func runIteration(jobs []job, sp *spans, traced bool) iteration {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	name := "iteration"
	if traced {
		name = "iteration.traced"
	}
	root := sp.start(name, 0, 0)
	var it iteration
	for i := range jobs {
		w := runWorld(&jobs[i], sp, root, traced)
		it.setup += w.build + w.newWorld
		it.run += w.run
		it.worlds = append(it.worlds, w)
	}
	sp.stop(root)
	runtime.ReadMemStats(&after)
	it.allocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	it.gcCycles = after.NumGC - before.NumGC
	return it
}

// tally counts operations: every world built and run is one attempt, and a
// world that errs or fails verification is one failure. problems collects
// the reasons the run is not correct.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) world(w *worldRun) {
	t.attempted++
	if w.err != nil {
		t.failed++
		t.problem("%v", w.err)
	}
}

func (t *tally) iteration(it *iteration) {
	for i := range it.worlds {
		t.world(&it.worlds[i])
	}
}

func (t *tally) problem(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// sameOutcome checks that every iteration simulated exactly what the first
// did: the same seed must give the same simulated result, traced or not.
func (t *tally) sameOutcome(first *iteration, its []iteration, what string) {
	want := first.digest()
	for i := range its {
		if got := its[i].digest(); got != want {
			t.problem("%s iteration %d simulated a different outcome:\n got %s\nwant %s", what, i, got, want)
			return
		}
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median over iterations of f.
func medianOf(its []iteration, f func(*iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i := range its {
		xs[i] = f(&its[i])
	}
	return median(xs)
}

func runSeconds(it *iteration) float64   { return it.run.Seconds() }
func setupSeconds(it *iteration) float64 { return it.setup.Seconds() }
