package main

import (
	"bytes"
	"fmt"
	"time"

	"cmpi/internal/cluster"
	"cmpi/internal/core"
	"cmpi/internal/mpi"
	"cmpi/internal/sim"
)

// probeSizes sets how much work each layer probe times. Each probe runs a
// fixed amount of work, so its cost per unit compares across commits.
type probeSizes struct {
	simSteps              int // per proc, machine or callback chain
	eagerTrips, rndvTrips int // ping-pong round trips
	rmaOps                int
	allreduceCalls        int
	pairs                 pairGeometry
	widthRounds           int // runs of the pairwise exchange at each width
}

var (
	fullProbes = probeSizes{
		simSteps: 20000, eagerTrips: 4000, rndvTrips: 1000, rmaOps: 2000, allreduceCalls: 8,
		pairs:       pairGeometry{hosts: 4, ranks: 64, phases: 64, rounds: 3, large: 64 << 10},
		widthRounds: 3,
	}
	tinyProbes = probeSizes{
		simSteps: 200, eagerTrips: 20, rndvTrips: 10, rmaOps: 20, allreduceCalls: 1,
		pairs:       pairGeometry{hosts: 2, ranks: 16, phases: 4, rounds: 2, large: 64 << 10},
		widthRounds: 1,
	}
)

// simProbeProcs is how many procs, machines or callback chains a sim probe
// interleaves, so the event heap holds more than one entry.
const simProbeProcs = 8

// probeSize is the payload of the eager probes (below both eager
// thresholds) and rndvSize that of the rendezvous probes and of the forced
// allreduce: 64 KiB divides into 8-byte elements and into 64 ranks' segments,
// so no forced algorithm falls back.
const (
	probeSize = 1 << 10
	rndvSize  = 64 << 10
)

// probe is one layer probe: run executes it and returns its value in the
// metric's unit, host time per unit of work (for sim.width2_speedup, a ratio
// of host times).
type probe struct {
	metric, unit string
	run          func(p probeSizes) (float64, error)
}

var probes = []probe{
	{"sim.switch_ns", "ns", probeSwitch},
	{"sim.machine_step_ns", "ns", probeMachineStep},
	{"sim.callback_ns", "ns", probeCallback},
	{"sim.width2_speedup", "ratio", probeWidth},
	{"mpi.shm-eager.host_ns", "ns", pingPong(1, core.ChannelSHM, probeSize)},
	{"mpi.cma-rndv.host_ns", "ns", pingPong(1, core.ChannelCMA, rndvSize)},
	{"mpi.hca-eager.host_ns", "ns", pingPong(2, core.ChannelHCA, probeSize)},
	{"mpi.hca-rndv.host_ns", "ns", pingPong(2, core.ChannelHCA, rndvSize)},
	{"mpi.rma-put.host_ns", "ns", rmaProbe(true)},
	{"mpi.rma-get.host_ns", "ns", rmaProbe(false)},
	{"mpi.allreduce.rd.host_us", "us", allreduceProbe(core.AllreduceRecursiveDoubling)},
	{"mpi.allreduce.rab.host_us", "us", allreduceProbe(core.AllreduceRabenseifner)},
	{"mpi.allreduce.ring.host_us", "us", allreduceProbe(core.AllreduceRing)},
	{"mpi.allreduce.tree.host_us", "us", allreduceProbe(core.AllreduceTree)},
}

// runProbes runs every probe under its own span and sets its metric. A
// probe that fails counts as one failed operation.
func runProbes(p probeSizes, sp *spans, m metrics, t *tally) {
	for _, pr := range probes {
		id := sp.start("probe."+pr.metric, 0, sp.newWorld())
		v, err := pr.run(p)
		sp.stop(id)
		t.attempted++
		if err != nil {
			t.failed++
			t.problem("probe %s: %v", pr.metric, err)
		}
		m.set(pr.metric, pr.unit, v)
	}
}

// nsPer is host nanoseconds per unit of work.
func nsPer(d time.Duration, units int) float64 {
	return float64(d.Nanoseconds()) / float64(units)
}

// probeSwitch times a goroutine proc round trip: Engine.Go procs that each
// Sleep in a loop hand control to the scheduler and back on every step.
func probeSwitch(p probeSizes) (float64, error) {
	e := sim.NewEngine()
	e.SetWorkers(1)
	steps := make([]int, simProbeProcs)
	for i := range steps {
		e.Go(fmt.Sprintf("p%d", i), func(pr *sim.Proc) {
			for k := 0; k < p.simSteps; k++ {
				pr.Sleep(sim.Nanosecond)
				steps[i]++
			}
		})
	}
	start := time.Now()
	err := e.Run()
	d := time.Since(start)
	return nsPer(d, simProbeProcs*p.simSteps), checkSteps(err, steps, p.simSteps)
}

// sleeper is a flat machine that sleeps one nanosecond a step.
type sleeper struct{ left, done int }

func (m *sleeper) Step(p *sim.Proc) sim.Flow {
	if m.left == 0 {
		return sim.Done
	}
	m.left--
	m.done++
	p.Sleep(sim.Nanosecond)
	return sim.More
}

// probeMachineStep times a flat machine step through Engine.GoMachine.
func probeMachineStep(p probeSizes) (float64, error) {
	e := sim.NewEngine()
	e.SetWorkers(1)
	e.SetFlat(true)
	ms := make([]*sleeper, simProbeProcs)
	for i := range ms {
		ms[i] = &sleeper{left: p.simSteps}
		e.GoMachine(fmt.Sprintf("m%d", i), ms[i])
	}
	start := time.Now()
	err := e.Run()
	d := time.Since(start)
	steps := make([]int, len(ms))
	for i, m := range ms {
		steps[i] = m.done
	}
	return nsPer(d, simProbeProcs*p.simSteps), checkSteps(err, steps, p.simSteps)
}

// probeCallback times Engine.At callbacks, each scheduling the next of its
// chain one nanosecond later.
func probeCallback(p probeSizes) (float64, error) {
	e := sim.NewEngine()
	e.SetWorkers(1)
	steps := make([]int, simProbeProcs)
	for i := range steps {
		var next func()
		next = func() {
			steps[i]++
			if steps[i] < p.simSteps {
				e.At(e.Now()+sim.Nanosecond, next)
			}
		}
		e.At(0, next)
	}
	start := time.Now()
	err := e.Run()
	d := time.Since(start)
	return nsPer(d, simProbeProcs*p.simSteps), checkSteps(err, steps, p.simSteps)
}

func checkSteps(err error, steps []int, want int) error {
	if err != nil {
		return err
	}
	for i, n := range steps {
		if n != want {
			return fmt.Errorf("chain %d ran %d of %d steps", i, n, want)
		}
	}
	return nil
}

// pairWorld deploys two ranks in two containers: on one host (hosts 1) or
// one a host (hosts 2), with the profiler on so a probe can check which
// channel its messages took.
func pairWorld(hosts int) (*mpi.World, error) {
	c, err := cluster.New(cluster.Spec{Hosts: hosts, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	if err != nil {
		return nil, err
	}
	d, err := cluster.Containers(c, 2/hosts, 2, cluster.PaperScenarioOpts())
	if err != nil {
		return nil, err
	}
	opts := mpi.DefaultOptions()
	opts.Profile = true
	w, err := mpi.NewWorld(d, opts)
	if err != nil {
		return nil, err
	}
	w.Eng.SetWorkers(1)
	return w, nil
}

// pingPong times a 2-rank ping-pong of size-byte messages and returns host
// ns per message. It fails unless every message went over channel ch and
// came back intact.
func pingPong(hosts int, ch core.Channel, size int) func(p probeSizes) (float64, error) {
	return func(p probeSizes) (float64, error) {
		trips := p.eagerTrips
		if size > probeSize {
			trips = p.rndvTrips
		}
		w, err := pairWorld(hosts)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		err = w.Run(func(r *mpi.Rank) error {
			out := make([]byte, size)
			for i := range out {
				out[i] = byte(i * 7)
			}
			in := make([]byte, size)
			for i := 0; i < trips; i++ {
				if r.Rank() == 0 {
					r.Send(1, 0, out)
					r.Recv(1, 1, in)
				} else {
					r.Recv(0, 0, in)
					r.Send(0, 1, in)
				}
			}
			if r.Rank() == 0 && !bytes.Equal(in, out) {
				return fmt.Errorf("ping-pong payload came back changed")
			}
			return nil
		})
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if ops := w.Prof.TotalChannels().Ops[ch]; ops < uint64(2*trips) {
			return 0, fmt.Errorf("%d-byte messages: %d %v operations for %d messages", size, ops, ch, 2*trips)
		}
		return nsPer(d, 2*trips), nil
	}
}

// rmaProbe times one-sided puts (or gets) of probeSize bytes from rank 0
// into rank 1's window across hosts, each followed by a flush, and returns
// host ns per operation.
func rmaProbe(put bool) func(p probeSizes) (float64, error) {
	return func(p probeSizes) (float64, error) {
		w, err := pairWorld(2)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		err = w.Run(func(r *mpi.Rank) error {
			win := make([]byte, probeSize)
			for i := range win {
				win[i] = byte(i*5 + r.Rank())
			}
			data := make([]byte, probeSize)
			wn := r.WinCreate(win)
			if r.Rank() == 0 {
				for i := 0; i < p.rmaOps; i++ {
					if put {
						data[0] = byte(i)
						wn.Put(1, 0, data)
					} else {
						wn.Get(1, 0, data)
					}
					wn.Flush()
				}
			}
			wn.Free()
			switch {
			case put && r.Rank() == 1 && win[0] != byte(p.rmaOps-1):
				return fmt.Errorf("window holds put %d, want %d", win[0], byte(p.rmaOps-1))
			case !put && r.Rank() == 0 && data[1] != byte(5+1):
				return fmt.Errorf("get returned %d, want %d", data[1], byte(5+1))
			}
			return nil
		})
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		return nsPer(d, p.rmaOps), nil
	}
}

// allreduceProbe times a 64-rank allreduce of rndvSize bytes forced onto
// one algorithm (4 hosts, 2 containers a host, width 1) and returns host µs
// per call. It fails if any call fell back to another algorithm or reduced
// to a wrong sum.
func allreduceProbe(algo core.AllreduceAlgo) func(p probeSizes) (float64, error) {
	return func(p probeSizes) (float64, error) {
		c, err := cluster.New(cluster.Spec{Hosts: 4, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
		if err != nil {
			return 0, err
		}
		dep, err := cluster.Containers(c, 2, 64, cluster.PaperScenarioOpts())
		if err != nil {
			return 0, err
		}
		opts := mpi.DefaultOptions()
		opts.Profile = true
		opts.Tunables.AllreduceAlgo = algo
		w, err := mpi.NewWorld(dep, opts)
		if err != nil {
			return 0, err
		}
		w.Eng.SetWorkers(1)
		start := time.Now()
		err = w.Run(func(r *mpi.Rank) error {
			buf := make([]byte, rndvSize)
			for i := 0; i < p.allreduceCalls; i++ {
				for k := 0; k < len(buf); k += 8 {
					buf[k] = 1
				}
				r.Allreduce(buf, mpi.SumInt64)
				if buf[0] != byte(r.Size()) || buf[len(buf)-8] != byte(r.Size()) {
					return fmt.Errorf("%v allreduce summed to %d, want %d", algo, buf[0], r.Size())
				}
			}
			return nil
		})
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		want := uint64(p.allreduceCalls * w.Size())
		if got := w.Prof.TotalCollAlgos().Calls[algo]; got != want {
			return 0, fmt.Errorf("%v ran %d of %d rank-calls (fell back)", algo, got, want)
		}
		return nsPer(d, p.allreduceCalls) / 1e3, nil
	}
}
