package experiments

import (
	"bytes"
	"os"
	"testing"

	"cmpi/internal/core"
	"cmpi/internal/fault"
	"cmpi/internal/trace"
)

// TestGoldenTraceMatchesFixture regenerates the canonical trace job and
// compares it record-for-record against the committed fixture. A mismatch
// means the library's message schedule changed; if that change is intended,
// regenerate the fixture with `go run ./cmd/repro -trace-out
// internal/experiments/testdata/golden.trace` and explain the behavior
// change in the commit message.
func TestGoldenTraceMatchesFixture(t *testing.T) {
	var buf bytes.Buffer
	if err := GoldenTrace(&buf); err != nil {
		t.Fatalf("GoldenTrace: %v", err)
	}
	got, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("regenerated trace unreadable: %v", err)
	}
	fixture, err := os.ReadFile("testdata/golden.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	want, err := trace.Read(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("committed fixture unreadable: %v", err)
	}
	if d := trace.Diff(want, got); d != "" {
		t.Errorf("regenerated trace diverges from testdata/golden.trace:\n%s", d)
	}
	// The fixture is stored in canonical encoding, so semantic equality must
	// coincide with byte equality.
	if !bytes.Equal(buf.Bytes(), fixture) {
		t.Error("trace bytes differ from fixture despite equal records; fixture is not canonical")
	}
}

// TestGoldenTraceReplays sanity-checks that the fixture replays cleanly:
// every send matched, no counter anomalies, all three channels exercised.
func TestGoldenTraceReplays(t *testing.T) {
	fixture, err := os.ReadFile("testdata/golden.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	tr, err := trace.Read(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	s := trace.Replay(tr)
	if s.Anomalies != 0 || s.UnmatchedSends != 0 {
		t.Fatalf("fixture replay: %d anomalies, %d unmatched sends", s.Anomalies, s.UnmatchedSends)
	}
	total := s.Total()
	for ch, ops := range total.Ops {
		if ops == 0 {
			t.Errorf("channel %d carries no traffic in the golden job", ch)
		}
	}
	if s.Rendezvous == 0 {
		t.Error("golden job produced no rendezvous handshakes")
	}
}

// TestGoldenTraceFatTreeMatchesFixture regenerates the non-trivial-topology
// golden job — the 32-rank fat-tree point whose cross-rack records carry
// spine hop latency and spine contention — and requires byte-identity with
// the committed fixture under both engine settings. Regenerate with
// `go run ./cmd/repro -trace-out internal/experiments/testdata/golden-fattree.trace
// -trace-job fattree` when the schedule intentionally changes.
func TestGoldenTraceFatTreeMatchesFixture(t *testing.T) {
	fixture, err := os.ReadFile("testdata/golden-fattree.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	for _, engine := range []string{"goroutine", "flat"} {
		t.Setenv("CMPI_SIM_ENGINE", engine)
		var buf bytes.Buffer
		if err := GoldenTraceFatTree(&buf); err != nil {
			t.Fatalf("%s engine: GoldenTraceFatTree: %v", engine, err)
		}
		if !bytes.Equal(buf.Bytes(), fixture) {
			t.Errorf("%s engine: trace bytes diverge from testdata/golden-fattree.trace", engine)
		}
	}
}

// TestGoldenTraceFatTreeReplays sanity-checks the fat-tree fixture: clean
// replay and cross-rack HCA traffic actually present.
func TestGoldenTraceFatTreeReplays(t *testing.T) {
	fixture, err := os.ReadFile("testdata/golden-fattree.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	tr, err := trace.Read(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	s := trace.Replay(tr)
	if s.Anomalies != 0 || s.UnmatchedSends != 0 {
		t.Fatalf("fixture replay: %d anomalies, %d unmatched sends", s.Anomalies, s.UnmatchedSends)
	}
	if total := s.Total(); total.Ops[core.ChannelHCA] == 0 {
		t.Error("fat-tree golden job carries no HCA traffic")
	}
}

// TestGoldenTraceEmptyPlanDifferential records both golden jobs with and
// without an empty fault plan attached. A simulated result may not depend on
// whether a plan is attached, so the bytes must match; and since every world
// runs one sequential (t, seq) loop, record timestamps never decrease.
func TestGoldenTraceEmptyPlanDifferential(t *testing.T) {
	for _, job := range goldenJobs {
		t.Run(job.name, func(t *testing.T) {
			var plain, planned bytes.Buffer
			if err := recordGoldenJob(&plain, job, nil); err != nil {
				t.Fatal(err)
			}
			if err := recordGoldenJob(&planned, job, &fault.Plan{}); err != nil {
				t.Fatalf("empty plan: %v", err)
			}
			a, err := trace.Read(bytes.NewReader(plain.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			b, err := trace.Read(bytes.NewReader(planned.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if d := trace.Diff(a, b); d != "" {
				t.Errorf("empty fault plan changed the trace:\n%s", d)
			}
			for i := 1; i < len(a.Records); i++ {
				if prev, cur := a.Records[i-1].T, a.Records[i].T; cur < prev {
					t.Fatalf("record %d at %v precedes record %d at %v", i, cur, i-1, prev)
				}
			}
		})
	}
}
