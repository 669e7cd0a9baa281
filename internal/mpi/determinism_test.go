package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/trace"
)

// A simulated result depends only on the deployment, the Options and the
// workload. Every world — with or without a fault plan — runs the engine's
// one sequential (t, seq) loop, so attaching an empty fault plan, or running
// the same job twice, must reproduce every byte.

// mixedWorkload drives every channel in one job: SHM/CMA eager and
// rendezvous inside containers, HCA eager and rendezvous across hosts,
// world collectives, and a communicator split followed by subcommunicator
// traffic.
func mixedWorkload(r *Rank) error {
	n := r.Size()
	me := r.Rank()

	// Eager ring exchange.
	small := make([]byte, 64)
	for i := range small {
		small[i] = byte(me + i)
	}
	in := make([]byte, 64)
	r.Sendrecv((me+1)%n, 1, small, (me-1+n)%n, 1, in)
	if in[0] != byte((me-1+n)%n) {
		return fmt.Errorf("ring: got %d", in[0])
	}

	// Rendezvous to the rank two over (crosses container and host borders).
	big := make([]byte, 256<<10)
	for i := range big {
		big[i] = byte(me * (i + 1))
	}
	rq := r.Irecv(AnySource, 2, make([]byte, 256<<10))
	r.Send((me+2)%n, 2, big)
	r.Wait(rq)

	// World collectives.
	sum := EncodeInt64s([]int64{int64(me)})
	r.Allreduce(sum, SumInt64)
	if got := DecodeInt64s(sum)[0]; got != int64(n*(n-1)/2) {
		return fmt.Errorf("allreduce: got %d", got)
	}

	// Split + subcommunicator traffic.
	sub := r.CommWorld().Split(me%2, me)
	mine := []byte{byte(me)}
	var all []byte
	if sub.Rank() == 0 {
		all = make([]byte, sub.Size())
	}
	sub.Gather(0, mine, all)
	back := make([]byte, 1)
	sub.Scatter(0, all, back)
	if back[0] != byte(me) {
		return fmt.Errorf("scatter: got %d", back[0])
	}
	r.Barrier()
	return nil
}

// runDeterminismJob runs the mixed workload with plan attached (nil for
// none) and returns (application transcript, scheduler transcript). The
// legacy tracer rides in the application transcript, so every comparison
// below also pins trace byte-identity.
func runDeterminismJob(t *testing.T, plan *fault.Plan) (string, string) {
	t.Helper()
	var tr strings.Builder
	opts := DefaultOptions()
	opts.Profile = true
	opts.FaultPlan = plan
	opts.Trace = &tr
	w := testWorld(t, "2host4cont", 16, opts)
	if err := w.Run(mixedWorkload); err != nil {
		t.Fatal(err)
	}

	var app strings.Builder
	for _, rp := range w.Prof.Ranks {
		fmt.Fprintf(&app, "rank%d mpi=%v app=%v", rp.Rank, rp.TotalMPI, rp.AppTime)
		for _, call := range w.Prof.TopCalls() {
			if d, ok := rp.MPITime[call]; ok {
				fmt.Fprintf(&app, " %s=%v", call, d)
			}
		}
		fmt.Fprintf(&app, " ops=%v bytes=%v\n", rp.Channels.Ops, rp.Channels.Bytes)
	}
	fmt.Fprintf(&app, "faults=%d\n", w.Prof.TotalFaults().Total())
	fmt.Fprintf(&app, "trace:\n%s", tr.String())

	st := w.SimStats()
	sched := fmt.Sprintf("dispatched=%d stale=%d coalesced=%d heap=%d",
		st.Dispatched, st.StaleWakes, st.CoalescedWakes, st.MaxHeapDepth)
	return app.String(), sched
}

// TestFaultWorldsStaySequential checks that fault-injected worlds run the
// same loop as every other world: the mixed job with an empty plan attached
// reproduces the plain job's results, profiles, trace and scheduler counters
// byte for byte, and a job with a real (straggler) plan repeats exactly run
// to run.
func TestFaultWorldsStaySequential(t *testing.T) {
	baseApp, baseSched := runDeterminismJob(t, nil)
	app, sched := runDeterminismJob(t, &fault.Plan{})
	if app != baseApp {
		t.Errorf("empty fault plan changed the transcript:\n--- no plan ---\n%s--- empty plan ---\n%s", baseApp, app)
	}
	if sched != baseSched {
		t.Errorf("empty fault plan changed the scheduler counters:\n%s\nvs\n%s", baseSched, sched)
	}
	straggler := func() *fault.Plan { return fault.NewPlan().Straggler(3, 0, 0, 2.5) }
	first, _ := runDeterminismJob(t, straggler())
	if first == baseApp {
		t.Error("straggler plan left the transcript unchanged; the plan never applied")
	}
	if again, _ := runDeterminismJob(t, straggler()); again != first {
		t.Errorf("straggler transcript differs run to run:\n--- first ---\n%s--- second ---\n%s", first, again)
	}
}

// diffProgram is a small message program decoded from fuzz input: a CMA
// switch and a list of steps, each a ring offset and a payload size class.
type diffProgram struct {
	useCMA bool
	steps  []diffStep
}

type diffStep struct {
	offset int // each rank sends to me+offset and receives from me-offset
	size   int
}

// diffSizes span the path thresholds at default tunables: SHM eager (below
// 8 KiB), SHM rendezvous and HCA eager (8 KiB up to 17 KiB), and rendezvous
// on every channel (256 KiB).
var diffSizes = [4]int{0, 64, 12 << 10, 256 << 10}

// diffRanks is the fuzz world: two hosts, two containers a host, two ranks
// a container — so ring offsets reach same-container, cross-container and
// cross-host peers.
const diffRanks = 8

func decodeDiffProgram(in []byte) diffProgram {
	var p diffProgram
	if len(in) > 0 {
		p.useCMA = in[0]%2 == 0
		in = in[1:]
	}
	for len(in) > 0 && len(p.steps) < 12 {
		b := in[0]
		in = in[1:]
		p.steps = append(p.steps, diffStep{
			offset: 1 + int(b>>2)%(diffRanks-1),
			size:   diffSizes[b%4],
		})
	}
	return p
}

// runDiffProgram records the program's structured trace with plan attached
// (nil for none).
func runDiffProgram(t *testing.T, p diffProgram, plan *fault.Plan) []byte {
	t.Helper()
	var stream bytes.Buffer
	opts := DefaultOptions()
	opts.Tunables.UseCMA = p.useCMA
	opts.FaultPlan = plan
	opts.Record = trace.NewRecorder(&stream)
	w := testWorld(t, "2host4cont", diffRanks, opts)
	err := w.Run(func(r *Rank) error {
		me := r.Rank()
		for i, s := range p.steps {
			out := make([]byte, s.size)
			for k := range out {
				out[k] = byte(me + i + k)
			}
			in := make([]byte, s.size)
			src := (me - s.offset + diffRanks) % diffRanks
			r.Sendrecv((me+s.offset)%diffRanks, i, out, src, i, in)
			if len(in) > 0 && in[0] != byte(src+i) {
				return fmt.Errorf("step %d: got %d from rank %d, want %d", i, in[0], src, byte(src+i))
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := opts.Record.Err(); err != nil {
		t.Fatalf("recorder: %v", err)
	}
	return stream.Bytes()
}

// diffSeeds are the seed programs. Together they take all five message
// paths (TestDiffSeedsCoverAllPaths checks that).
var diffSeeds = [][]byte{
	{0, 0x01, 0x06, 0x0b, 0x03, 0x12},
	{1, 0x03, 0x07, 0x02, 0x0f},
	{0, 0x1b, 0x17, 0x0e, 0x05, 0x00, 0x13},
	{1, 0x01, 0x1a, 0x0b},
}

// FuzzEmptyPlanDifferential runs a decoded message program with and without
// an empty fault plan attached and requires byte-identical traces.
func FuzzEmptyPlanDifferential(f *testing.F) {
	for _, s := range diffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		p := decodeDiffProgram(in)
		plain := runDiffProgram(t, p, nil)
		planned := runDiffProgram(t, p, &fault.Plan{})
		if !bytes.Equal(plain, planned) {
			a, err1 := trace.Read(bytes.NewReader(plain))
			b, err2 := trace.Read(bytes.NewReader(planned))
			detail := "(unparseable)"
			if err1 == nil && err2 == nil {
				detail = trace.Diff(a, b)
			}
			t.Fatalf("empty fault plan changed the trace of %+v:\n%s", p, detail)
		}
	})
}

// TestDiffSeedsCoverAllPaths checks that the differential seeds exercise
// every message path, so the fuzz target's seed run is a real differential
// over all five channels.
func TestDiffSeedsCoverAllPaths(t *testing.T) {
	var seen [5]uint64
	for _, s := range diffSeeds {
		tr, err := trace.Read(bytes.NewReader(runDiffProgram(t, decodeDiffProgram(s), nil)))
		if err != nil {
			t.Fatal(err)
		}
		sum := trace.Replay(tr)
		for p := range seen {
			seen[p] += sum.PerPath[trace.PathOf(core.Path(p))].Msgs
		}
	}
	for p, n := range seen {
		if n == 0 {
			t.Errorf("no seed program takes path %v", core.Path(p))
		}
	}
}
