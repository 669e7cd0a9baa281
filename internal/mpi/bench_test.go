package mpi

import (
	"testing"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
)

// benchWorld builds a 2-rank world for the host-time channel benchmarks.
func benchWorld(b *testing.B, containers int, mode core.Mode) *World {
	b.Helper()
	spec := cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), containers, 2, cluster.PaperScenarioOpts())
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Mode = mode
	w, err := NewWorld(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// benchPingPong bounces b.N round trips between ranks 0 and 1 and reports
// host time and allocations per round trip. The reply bounds the in-flight
// window so the pools reach steady state.
func benchPingPong(b *testing.B, w *World, size int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(r *Rank) error {
		buf := make([]byte, size)
		for i := 0; i < b.N; i++ {
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
		b.Fatal(err)
	}
}

// BenchmarkShmEagerPingPong is the pooled SHM eager hot path (one container,
// locality-aware: ring push + staged copy).
func BenchmarkShmEagerPingPong(b *testing.B) {
	benchPingPong(b, benchWorld(b, 1, core.ModeLocalityAware), 512)
}

// BenchmarkHCAEagerPingPong is the pooled HCA loopback hot path (two
// containers, default mode: wire header + bounce buffer per message).
func BenchmarkHCAEagerPingPong(b *testing.B) {
	benchPingPong(b, benchWorld(b, 2, core.ModeDefault), 512)
}

// BenchmarkShmRendezvousPingPong exercises the CMA rendezvous path with
// 64 KiB payloads (RTS/CTS control packets plus single-copy transfer).
func BenchmarkShmRendezvousPingPong(b *testing.B) {
	benchPingPong(b, benchWorld(b, 1, core.ModeLocalityAware), 64<<10)
}

// BenchmarkPairwiseSendrecv runs b.N pairwise exchange rounds (rank <->
// rank^1, same container) in a 16-rank, 2-host world: eight disjoint pairs of
// 4 KiB SHM sendrecvs through the one dispatch loop.
func BenchmarkPairwiseSendrecv(b *testing.B) {
	spec := cluster.Spec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1}
	d, err := cluster.Containers(cluster.MustNew(spec), 2, 16, cluster.PaperScenarioOpts())
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorld(d, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	err = w.Run(func(r *Rank) error {
		partner := r.Rank() ^ 1
		out := make([]byte, 4<<10)
		in := make([]byte, 4<<10)
		for i := 0; i < b.N; i++ {
			r.Sendrecv(partner, 0, out, partner, 0, in)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
