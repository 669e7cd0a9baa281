// Command perfbench is the repository's benchmark. It builds simulated MPI
// worlds through the public APIs of internal/cluster and internal/mpi, runs
// one named workload for a fixed host-time window, checks every world's
// answer, and prints its metrics as one JSON object on the last line of
// standard output: the end-to-end metrics with -trace 0, the per-layer
// metrics (from a separate traced run plus layer probes) with -trace 1.
//
//	go run . -workload apps-32 -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	geom     geometry
	probes   probeSizes
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// stamp records the host and inputs a run was measured with.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func newStamp(cfg config) stamp {
	return stamp{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// measure runs the workload for cfg.window and returns the result plus the
// reasons it is not correct, if any. With cfg.traced it runs the layer
// probes, then alternates untraced and traced passes; otherwise it runs
// untraced passes only. A first untraced pass warms up and is not measured.
func measure(cfg config, sp *spans) (result, []string, error) {
	jobs, err := workloadJobs(cfg.workload, cfg.seed, cfg.geom)
	if err != nil {
		return result{}, nil, err
	}
	m := metrics{}
	var tl tally
	if cfg.traced {
		runProbes(cfg.probes, sp, m, &tl)
	}
	warm := runIteration(jobs, sp, false)
	tl.iteration(&warm)

	var u, t []iteration
	deadline := time.Now().Add(cfg.window)
	for len(u) == 0 || len(t) == 0 && cfg.traced || time.Now().Before(deadline) {
		u = append(u, runIteration(jobs, sp, false))
		tl.iteration(&u[len(u)-1])
		if cfg.traced {
			t = append(t, runIteration(jobs, sp, true))
			tl.iteration(&t[len(t)-1])
		}
	}
	tl.sameOutcome(&warm, u, "untraced")
	if cfg.traced {
		checkTraced(&tl, &warm, t)
		layerMetrics(m, u, t)
	} else {
		m.set("run_s", "s", medianOf(u, runSeconds))
		m.set("setup_s", "s", medianOf(u, setupSeconds))
		m.set("virtual_ms", "ms", u[0].virtual().Millis())
		rss, err := peakRSSMiB()
		if err != nil {
			return result{}, nil, err
		}
		m.set("peak_rss_mib", "MiB", rss)
	}
	res := result{
		Correct:   tl.failed == 0 && len(tl.problems) == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   m,
	}
	return res, tl.problems, nil
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run and layer probes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1, got %d and %d", *seconds, *traceFlag)
	}
	cfg := config{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, geom: full, probes: fullProbes,
	}
	st := newStamp(cfg)
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)

	sp := newSpans()
	res, problems, err := measure(cfg, sp)
	if err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if cfg.traced {
		path := fmt.Sprintf(".bench_out/spans-%s-seed%d.json", cfg.workload, cfg.seed)
		if err := sp.write(path, st); err != nil {
			return err
		}
		sp.printSelf(stderr)
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
