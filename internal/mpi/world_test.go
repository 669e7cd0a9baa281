package mpi

import (
	"strings"
	"sync"
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/sim"
)

func TestUnprivilegedContainersCannotFormMultiHostJobs(t *testing.T) {
	spec := cluster.Spec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	c := cluster.MustNew(spec)
	// Containers without --privileged: no HCA access.
	opts := cluster.ScenarioOpts{ShareHostIPC: true, ShareHostPID: true}
	d, err := cluster.Containers(c, 1, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "device") {
		t.Fatalf("err = %v, want device-access failure", err)
	}
}

func TestUnprivilegedSingleHostAwareJobWorks(t *testing.T) {
	// With every peer local and detectable, the HCA is never needed, so an
	// unprivileged single-host job must initialize and run.
	spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	c := cluster.MustNew(spec)
	opts := cluster.ScenarioOpts{ShareHostIPC: true, ShareHostPID: true}
	d, err := cluster.Containers(c, 2, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnprivilegedSingleHostDefaultModeFails(t *testing.T) {
	// Same deployment under the default library: co-resident containers
	// look remote, the HCA is required, and init must fail. This is the
	// paper's point expressed as an error path.
	spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	c := cluster.MustNew(spec)
	opts := cluster.ScenarioOpts{ShareHostIPC: true, ShareHostPID: true}
	d, err := cluster.Containers(c, 2, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(d, StockOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(r *Rank) error { return nil }); err == nil {
		t.Fatal("default mode should need the HCA across containers")
	}
}

func TestOptionsValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Tunables.SMPEagerSize = 0
	d, _ := cluster.Native(cluster.MustNew(cluster.Spec{Hosts: 1, SocketsPerHost: 1, CoresPerSocket: 4, HCAsPerHost: 1}), 2)
	if _, err := NewWorld(d, opts); err == nil {
		t.Fatal("invalid tunables accepted")
	}
	var zero Options
	zero.Tunables = core.DefaultTunables()
	if _, err := NewWorld(d, zero); err == nil {
		t.Fatal("zero perf params accepted")
	}
}

func TestProfileBreakdown(t *testing.T) {
	opts := DefaultOptions()
	opts.Profile = true
	w := testWorld(t, "2cont", 2, opts)
	err := w.Run(func(r *Rank) error {
		r.Compute(10000) // 80us of compute
		msg := make([]byte, 8)
		if r.Rank() == 0 {
			r.Send(1, 0, msg)
		} else {
			r.Recv(0, 0, msg)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rp := w.Prof.Ranks[1]
	if rp.AppTime <= 0 {
		t.Fatal("AppTime not recorded")
	}
	if rp.ComputeTime() < 70*sim.Microsecond {
		t.Errorf("compute time %v, want ~80us", rp.ComputeTime())
	}
	if rp.TotalMPI <= 0 {
		t.Error("MPI time not recorded")
	}
	if rp.MPITime["Recv"] == 0 || rp.MPITime["Barrier"] == 0 {
		t.Errorf("per-call times missing: %v", rp.MPITime)
	}
	frac := w.Prof.CommFraction()
	if frac <= 0 || frac >= 1 {
		t.Errorf("comm fraction = %v", frac)
	}
	calls := w.Prof.TopCalls()
	if len(calls) == 0 {
		t.Error("no top calls")
	}
}

func TestMaxBodyTimeReflectsSlowestRank(t *testing.T) {
	w := testWorld(t, "native", 4, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		r.Compute(float64(r.Rank()) * 1000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := w.Opts.Params.Compute(3000)
	if got := w.MaxBodyTime(); got != want {
		t.Errorf("MaxBodyTime = %v, want %v", got, want)
	}
	if w.BodyTime(0) != 0 {
		t.Errorf("rank 0 body time = %v, want 0", w.BodyTime(0))
	}
}

func TestLocalRanksMatchesModeView(t *testing.T) {
	// 4 ranks, 2 containers on one host: default mode sees only the
	// same-container peer; aware mode sees everyone.
	check := func(mode core.Mode, wantLocal int) {
		opts := DefaultOptions()
		opts.Mode = mode
		w := testWorld(t, "2cont", 4, opts)
		err := w.Run(func(r *Rank) error {
			if got := len(r.LocalRanks()); got != wantLocal {
				t.Errorf("mode %v: rank %d sees %d local ranks, want %d", mode, r.Rank(), got, wantLocal)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	check(core.ModeDefault, 2)
	check(core.ModeLocalityAware, 4)
}

// TestPairCreatedOnceUnderConcurrentFirstUse pins the lazily filled pair
// table: concurrent first callers, asking with either rank order, must all
// get the one entry, keyed (lo, hi).
func TestPairCreatedOnceUnderConcurrentFirstUse(t *testing.T) {
	w := testWorld(t, "2cont", 8, DefaultOptions())
	const callers = 4
	got := make([][]*pairShared, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					if a != b {
						if c%2 == 0 {
							got[c] = append(got[c], w.pair(a, b))
						} else {
							got[c] = append(got[c], w.pair(b, a))
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	i := 0
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if a == b {
				continue
			}
			ps := got[0][i]
			lo, hi := min(a, b), max(a, b)
			if ps.lo != lo || ps.hi != hi {
				t.Fatalf("pair(%d, %d) keyed (%d, %d)", a, b, ps.lo, ps.hi)
			}
			for c := 1; c < callers; c++ {
				if got[c][i] != ps {
					t.Fatalf("pair(%d, %d): caller %d got a different entry", a, b, c)
				}
			}
			i++
		}
	}
}
