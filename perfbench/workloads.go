package main

import (
	"fmt"
	"math/rand"

	"cmpi/internal/graph500"
	"cmpi/internal/ib"
	"cmpi/internal/mpi"
	"cmpi/internal/npb"
	"cmpi/internal/sim"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"apps-32", "allreduce-1024-flat"}

// job is one simulated world of a workload: where it is deployed, how the
// engine dispatches it, and what runs on it.
type job struct {
	name string
	// hosts, containers (per host) and ranks shape the deployment.
	hosts, containers, ranks int
	// topo is the fabric; the zero value is the paper's single crossbar.
	topo ib.Topology
	// flat runs machine-native rank bodies on the flat engine.
	flat bool
	// width is the epoch dispatch width.
	width int
	// run drives the world to completion. The returned check verifies the
	// world's answer once the run has returned.
	run func(w *mpi.World) (check func() error, err error)
}

// geometry sizes the workloads. full is what the benchmark runs; tiny keeps
// every code path of a workload at a size the package tests can afford.
type geometry struct {
	appHosts, appRanks, graphScale int
	arHosts, arRanks, arIters      int
}

var (
	full = geometry{
		appHosts: 4, appRanks: 32, graphScale: 13,
		arHosts: 64, arRanks: 1024, arIters: 2,
	}
	tiny = geometry{
		appHosts: 2, appRanks: 8, graphScale: 9,
		arHosts: 16, arRanks: 64, arIters: 2,
	}
)

// scaleTopo is the 2-stage fat tree of the repository's scale points:
// 8 hosts a rack, 4 spines a stage, 150 ns a hop.
var scaleTopo = ib.Topology{RackSize: 8, SpineStages: 2, SpinesPerStage: 4, HopLatency: 150 * sim.Nanosecond}

// workloadJobs builds the worlds of one workload from the seed.
func workloadJobs(name string, seed int64, g geometry) ([]job, error) {
	switch name {
	case "apps-32":
		return appJobs(seed, g), nil
	case "allreduce-1024-flat":
		return []job{allreduceJob(seed, g)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// appJobs is the Fig. 12 application mix at the Quick geometry: Graph500,
// then NAS CG, FT, IS and MG class S, each in a fresh world of 4 containers
// a host, with blocking bodies at width 1.
func appJobs(seed int64, g geometry) []job {
	base := job{hosts: g.appHosts, containers: 4, ranks: g.appRanks, width: 1}
	gp := graph500.DefaultParams(g.graphScale)
	gp.Roots = 2
	gp.Seed = seed
	gp.Validate = true
	j := base
	j.name = "graph500"
	j.run = func(w *mpi.World) (func() error, error) {
		res, err := graph500.Run(w, gp)
		return func() error {
			if !res.Validated {
				return fmt.Errorf("graph500 scale %d seed %d: BFS trees failed validation", gp.Scale, gp.Seed)
			}
			return nil
		}, err
	}
	jobs := []job{j}
	for _, k := range []string{"CG", "FT", "IS", "MG"} {
		kernel := npb.Kernels()[k]
		j := base
		j.name = "npb." + k
		j.run = func(w *mpi.World) (func() error, error) {
			res, err := kernel(w, npb.ClassS)
			return func() error {
				if !res.Verified {
					return fmt.Errorf("NAS %s.S failed verification", res.Kernel)
				}
				return nil
			}, err
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// allreduceSize is the allreduce payload: 1 KiB moved by up to two 8-byte
// elements either way by the seed, so the simulated time is a function of
// the input while every size stays in the recursive-doubling eager regime.
func allreduceSize(seed int64) int {
	return 1024 + 8*(int(rand.New(rand.NewSource(seed)).Int63n(5))-2)
}

// allreduceJob is the full-fidelity allreduce: machine-native bodies on the
// flat engine over the fat tree, 2 containers a host, width 1. The program
// checks every element of every round and aborts the job on a wrong one.
func allreduceJob(seed int64, g geometry) job {
	size := allreduceSize(seed)
	return job{
		name: "allreduce", hosts: g.arHosts, containers: 2, ranks: g.arRanks,
		topo: scaleTopo, flat: true, width: 1,
		run: func(w *mpi.World) (func() error, error) {
			err := w.RunMachine(mpi.AllreduceProgram(g.arIters, size))
			return func() error { return nil }, err
		},
	}
}
