package mpi

import (
	"testing"

	"cmpi/internal/core"
)

// pingpongAllocs measures total host allocations for one world that bounces
// msgs round trips of the given size between ranks 0 and 1. Round trips (not
// a one-way stream) keep the in-flight window bounded so pools can recycle.
func pingpongAllocs(t *testing.T, scenario string, mode core.Mode, size, msgs int) float64 {
	t.Helper()
	var failure error
	allocs := testing.AllocsPerRun(3, func() {
		opts := DefaultOptions()
		opts.Mode = mode
		w := testWorld(t, scenario, 2, opts)
		err := w.Run(func(r *Rank) error {
			buf := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if r.Rank() == 0 {
					r.Send(1, 0, buf)
					r.Recv(1, 1, buf)
				} else {
					r.Recv(0, 0, buf)
					r.Send(0, 1, buf)
				}
			}
			return nil
		})
		if err != nil {
			failure = err
		}
	})
	if failure != nil {
		t.Fatal(failure)
	}
	return allocs
}

// perMessageAllocs cancels the fixed world-construction and pool-warmup cost
// by differencing two message counts: steady-state allocations per message.
func perMessageAllocs(t *testing.T, scenario string, mode core.Mode, size int) float64 {
	t.Helper()
	const small, big = 64, 320
	a := pingpongAllocs(t, scenario, mode, size, small)
	b := pingpongAllocs(t, scenario, mode, size, big)
	return (b - a) / float64(big-small) / 2 // two messages per round trip
}

// TestShmEagerSteadyStateAllocs locks in the pooled SHM eager path: packets,
// envelopes, requests, send ops, and staging buffers all recycle, so the
// steady state is (amortized) allocation-free.
func TestShmEagerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	per := perMessageAllocs(t, "1cont", core.ModeLocalityAware, 512)
	t.Logf("SHM eager: %.3f allocs/message", per)
	if per > 0.5 {
		t.Errorf("SHM eager send/recv allocates %.3f/message in steady state; want ~0", per)
	}
}

// TestHCAEagerSteadyStateAllocs locks in the pooled HCA eager path: wire
// buffers and SRQ bounce buffers recycle through the device pools, and the
// deferred-delivery events (arrival + transmit completion) come from the
// device's sendEvt free list instead of per-message closures.
func TestHCAEagerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	per := perMessageAllocs(t, "2cont", core.ModeDefault, 512)
	t.Logf("HCA eager: %.3f allocs/message", per)
	if per > 0.5 {
		t.Errorf("HCA eager send allocates %.3f/message in steady state; want ~0", per)
	}
}

// TestShmRingSegmentHoldsNoBytes pins that an SHM eager ring's segment is
// sized like the paper's per-pair buffer but never backed by memory — its
// packets travel as Go values — while the locality detector's container
// list stays one byte array shared by every co-resident rank.
func TestShmRingSegmentHoldsNoBytes(t *testing.T) {
	w := testWorld(t, "2cont", 2, DefaultOptions())
	err := w.Run(func(r *Rank) error {
		buf := make([]byte, 512)
		for i := 0; i < 8; i++ {
			if r.Rank() == 0 {
				r.Send(1, 0, buf)
				r.Recv(1, 1, buf)
			} else {
				r.Recv(0, 0, buf)
				r.Send(0, 1, buf)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := w.pair(0, 1).ring
	if ring == nil {
		t.Fatal("ping-pong between co-resident containers created no SHM ring")
	}
	if want := 2 * w.Opts.Tunables.SMPLengthQueue; ring.seg.Size != want {
		t.Errorf("ring segment Size = %d, want 2*SMPLengthQueue = %d", ring.seg.Size, want)
	}
	if n := ring.seg.Resident(); n != 0 {
		t.Errorf("ring segment holds %d bytes, want 0", n)
	}
	name := core.LocalitySegmentPrefix + w.jobID
	s0, err := w.shm.Attach(w.ranks[0].env, name)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := w.shm.Attach(w.ranks[1].env, name)
	if err != nil {
		t.Fatal(err)
	}
	if s0 != s1 {
		t.Fatal("co-resident containers attached different detector segments")
	}
	if s0.Resident() != s0.Size {
		t.Errorf("detector segment holds %d of %d bytes", s0.Resident(), s0.Size)
	}
	if list := s0.Bytes(); list[0] != 1 || list[1] != 1 {
		t.Errorf("detector list = %v, want both ranks published", list[:2])
	}
}
