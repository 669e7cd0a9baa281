package main

import (
	"math"

	"cmpi/internal/core"
	"cmpi/internal/profile"
	"cmpi/internal/trace"
)

// metric is one printed number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// paths are the protocol paths the trace replay reports, by core.Path.
var paths = []core.Path{core.PathSHMEager, core.PathCMARndv, core.PathSHMRndv, core.PathHCAEager, core.PathHCARndv}

// allreduceAlgos are the algorithms whose calls are counted.
var allreduceAlgos = []core.AllreduceAlgo{core.AllreduceRecursiveDoubling, core.AllreduceRabenseifner, core.AllreduceRing, core.AllreduceTree}

// vtimeCalls are the MPI calls whose virtual time is reported by name: the
// ones the workloads make. Time in any other call is reported as "other".
var vtimeCalls = []string{"Allgather", "Allreduce", "Alltoall", "Barrier", "Bcast", "Irecv", "Isend", "Probe", "Recv", "Send", "Sendrecv", "Waitall"}

// layerMetrics sets the per-layer metrics of a traced run. u holds the
// untraced iterations and t the traced ones; every iteration simulated the
// same outcome (checked by the caller), so counts come from t[0] and host
// times are medians.
func layerMetrics(m metrics, u, t []iteration) {
	m.set("cluster.build_s", "s", medianOf(t, func(it *iteration) float64 {
		var s float64
		for _, w := range it.worlds {
			s += w.build.Seconds()
		}
		return s
	}))
	m.set("mpi.newworld_s", "s", medianOf(t, func(it *iteration) float64 {
		var s float64
		for _, w := range it.worlds {
			s += w.newWorld.Seconds()
		}
		return s
	}))

	var events, resumes, callbacks, stale, coalesced, epochs, yields, narrowed, peakProc uint64
	var heap, batch int
	var buf, obj core.PoolCounters
	var ch profile.ChannelStats
	msgs, byts, latN := make([]uint64, len(paths)), make([]uint64, len(paths)), make([]uint64, len(paths))
	latSum := make([]float64, len(paths))
	var rndv, records uint64
	var algoCalls [core.NumAllreduceAlgos]uint64
	var mpiTime, appTime float64
	vtime := make(map[string]float64)
	for i := range t[0].worlds {
		w := &t[0].worlds[i]
		es := w.eng
		events += es.Dispatched
		resumes += es.Resumes
		callbacks += es.Callbacks
		stale += es.StaleWakes
		coalesced += es.CoalescedWakes
		epochs += es.ParallelBatches
		yields += es.RegroupYields
		narrowed += es.NarrowedPairs
		heap = max(heap, es.MaxHeapDepth)
		batch = max(batch, es.MaxBatchWidth)
		peakProc = max(peakProc, es.PeakProcBytes)
		buf.Gets += w.bufPool.Gets
		buf.Hits += w.bufPool.Hits
		obj.Gets += w.objPool.Gets
		obj.Hits += w.objPool.Hits
		if w.prof == nil || w.replay == nil {
			continue // the world failed before it ran
		}
		tot := w.prof.TotalChannels()
		ch.Merge(&tot)
		for _, rp := range w.prof.Ranks {
			mpiTime += rp.TotalMPI.Millis()
			appTime += rp.AppTime.Millis()
			for call, d := range rp.MPITime {
				vtime[callKey(call)] += d.Millis()
			}
		}
		for k, p := range paths {
			ps := w.replay.PerPath[trace.PathOf(p)]
			msgs[k] += ps.Msgs
			byts[k] += ps.Bytes
			latN[k] += ps.LatCount
			latSum[k] += ps.LatTotal.Micros()
		}
		rndv += w.replay.Rendezvous
		records += uint64(w.replay.Records)
		for a := range algoCalls {
			algoCalls[a] += w.replay.CollAlgoCalls[a]
		}
	}
	runU := medianOf(u, runSeconds)
	m.set("sim.events", "count", float64(events))
	m.set("sim.resumes", "count", float64(resumes))
	m.set("sim.callbacks", "count", float64(callbacks))
	m.set("sim.useful_event_ratio", "ratio", 1-ratio(stale, events))
	m.set("sim.coalesced_wakes", "count", float64(coalesced))
	m.set("sim.max_heap_depth", "count", float64(heap))
	m.set("sim.host_ns_per_event", "ns", runU*1e9/math.Max(1, float64(events)))
	m.set("sim.epochs", "count", float64(epochs))
	m.set("sim.max_batch_width", "count", float64(batch))
	m.set("sim.regroup_yields", "count", float64(yields))
	m.set("sim.narrowed_pairs", "count", float64(narrowed))
	m.set("sim.peak_proc_kib", "KiB", float64(peakProc)/1024)
	m.set("go.alloc_mib", "MiB", medianOf(u, func(it *iteration) float64 { return it.allocMiB }))
	m.set("go.gc_cycles", "count", medianOf(u, func(it *iteration) float64 { return float64(it.gcCycles) }))
	m.set("core.bufpool_hit_ratio", "ratio", ratio(buf.Hits, buf.Gets))
	m.set("core.objpool_hit_ratio", "ratio", ratio(obj.Hits, obj.Gets))
	for _, c := range []struct {
		layer string
		ch    core.Channel
	}{{"shmem", core.ChannelSHM}, {"cma", core.ChannelCMA}, {"ib", core.ChannelHCA}} {
		m.set(c.layer+".ops", "count", float64(ch.Ops[c.ch]))
		m.set(c.layer+".bytes", "B", float64(ch.Bytes[c.ch]))
	}
	for k, p := range paths {
		m.set("mpi."+p.String()+".msgs", "count", float64(msgs[k]))
		m.set("mpi."+p.String()+".bytes", "B", float64(byts[k]))
		m.set("mpi."+p.String()+".vlat_us", "us", latSum[k]/math.Max(1, float64(latN[k])))
	}
	m.set("mpi.rendezvous", "count", float64(rndv))
	m.set("mpi.comm_frac", "ratio", mpiTime/math.Max(1e-12, appTime))
	for _, call := range append(vtimeCalls, "other") {
		m.set("mpi.vtime_ms."+call, "ms", vtime[call])
	}
	for _, a := range allreduceAlgos {
		m.set("mpi.allreduce."+a.String()+".calls", "count", float64(algoCalls[a]))
	}
	m.set("trace.records", "count", float64(records))
	m.set("trace.overhead", "ratio", medianOf(t, runSeconds)/math.Max(1e-12, runU))
}

// callKey maps an MPI call name to its vtime metric suffix.
func callKey(call string) string {
	for _, c := range vtimeCalls {
		if c == call {
			return c
		}
	}
	return "other"
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkTraced checks that tracing did not change what was simulated and
// that the two independent channel accounts of the traced run agree: the
// live profiler's and the one trace.Replay rebuilds from the records.
func checkTraced(tl *tally, untraced *iteration, t []iteration) {
	tl.sameOutcome(untraced, t, "traced")
	for i := range t[0].worlds {
		w := &t[0].worlds[i]
		if w.prof == nil || w.replay == nil {
			continue
		}
		if got, want := w.replay.Total(), w.prof.TotalChannels(); got != want {
			tl.problem("%s: replayed channel counts %+v differ from the profiler's %+v", w.job.name, got, want)
		}
		if got, want := w.replay.CollAlgoCalls, w.prof.TotalCollAlgos().Calls; got != want {
			tl.problem("%s: replayed allreduce algorithms %v differ from the profiler's %v", w.job.name, got, want)
		}
		if w.replay.Anomalies != 0 || w.replay.UnmatchedSends != 0 {
			tl.problem("%s: trace has %d anomalies and %d unmatched sends", w.job.name, w.replay.Anomalies, w.replay.UnmatchedSends)
		}
	}
}
