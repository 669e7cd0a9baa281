package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"cmpi/internal/mpi"
)

// tinyConfig runs one warm-up pass and one measured pass (two with a trace)
// of the workload at the tiny geometry.
func tinyConfig(workload string, traced bool) config {
	return config{workload: workload, seed: 7, window: 0, traced: traced, geom: tiny, probes: tinyProbes}
}

func mustMeasure(t *testing.T, cfg config) result {
	t.Helper()
	res, problems, err := measure(cfg, newSpans())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", cfg.workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// hostMeasured reports whether a metric is a host time or depends on the
// allocator, and so may differ between two runs of the same inputs.
func hostMeasured(name string) bool {
	return strings.HasSuffix(name, "_s") || strings.HasSuffix(name, "_ns") || strings.Contains(name, "host_") ||
		strings.HasSuffix(name, "_speedup") || strings.HasPrefix(name, "go.") || strings.HasSuffix(name, "_mib") ||
		name == "trace.overhead"
}

type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkNamed fails unless the printed metrics are exactly the declared ones,
// each with its declared unit.
func checkNamed(t *testing.T, what string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	declared := make(map[string]string, len(want))
	for _, m := range want {
		declared[m.Name] = m.Unit
		if _, ok := got[m.Name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, which the program does not print", what, m.Name)
		}
	}
	for name, m := range got {
		unit, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("%s: the program prints %s, which BENCHMARK.json does not declare", what, name)
		case unit != m.Unit:
			t.Errorf("%s: %s printed in %q, declared in %q", what, name, m.Unit, unit)
		}
	}
}

// TestWorkloads runs every workload at the tiny size, untraced and traced:
// every world verifies, the printed metrics are the ones BENCHMARK.json
// declares, and a second traced run gives identical simulated numbers.
func TestWorkloads(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program workloads %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			u := mustMeasure(t, tinyConfig(name, false))
			checkNamed(t, "untraced", u.Metrics, bf.EndToEnd)
			first := mustMeasure(t, tinyConfig(name, true))
			checkNamed(t, "traced", first.Metrics, bf.PerLayer)
			again := mustMeasure(t, tinyConfig(name, true))
			for k, m := range first.Metrics {
				if !hostMeasured(k) && again.Metrics[k] != m {
					t.Errorf("%s: %v, then %v on the same inputs", k, m.Value, again.Metrics[k].Value)
				}
			}
			if v := mustMeasure(t, tinyConfig(name, false)).Metrics["virtual_ms"]; v != u.Metrics["virtual_ms"] {
				t.Errorf("virtual_ms: %v, then %v on the same inputs", u.Metrics["virtual_ms"].Value, v.Value)
			}
		})
	}
}

// TestWidthProbe checks that dispatch width is only a host-time knob: the
// pairwise exchange simulates the same outcome at widths 1 and 2.
func TestWidthProbe(t *testing.T) {
	if _, err := probeWidth(tinyProbes); err != nil {
		t.Fatal(err)
	}
}

// TestFailedWorldsCount checks that a world whose run errs or whose answer
// fails verification counts as a failed operation.
func TestFailedWorldsCount(t *testing.T) {
	ok := appJobs(1, tiny)[4] // NAS MG
	bad := ok
	bad.run = func(w *mpi.World) (func() error, error) {
		check, err := ok.run(w)
		if err != nil {
			return nil, err
		}
		return func() error { return errors.Join(check(), errors.New("wrong answer")) }, nil
	}
	it := runIteration([]job{ok, bad}, newSpans(), false)
	var tl tally
	tl.iteration(&it)
	if tl.attempted != 2 || tl.failed != 1 || len(tl.problems) != 1 {
		t.Fatalf("attempted=%d failed=%d problems=%v, want 2, 1 and one problem", tl.attempted, tl.failed, tl.problems)
	}
}
