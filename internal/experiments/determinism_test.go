package experiments

import (
	"bytes"
	"testing"
)

// renderBoth produces the text and CSV renderings of one experiment run.
func renderBoth(t *testing.T, id string) (string, string) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	tbl, err := e.Run(Quick)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var txt, csv bytes.Buffer
	tbl.Render(&txt)
	tbl.RenderCSV(&csv)
	return txt.String(), csv.String()
}

// TestParallelSweepIsDeterministic locks in the tentpole invariant: running
// the sweep on one worker and on several must render byte-identical tables.
// Under -race this also shakes out cross-world data races in the worker pool.
func TestParallelSweepIsDeterministic(t *testing.T) {
	for _, id := range []string{"fig3bc", "fig11", "ext-faults"} {
		id := id
		t.Run(id, func(t *testing.T) {
			SetWorkers(1)
			seqTxt, seqCSV := renderBoth(t, id)
			SetWorkers(4)
			defer SetWorkers(0)
			parTxt, parCSV := renderBoth(t, id)
			if seqTxt != parTxt {
				t.Errorf("text rendering differs between 1 and 4 workers:\n--- seq ---\n%s\n--- par ---\n%s", seqTxt, parTxt)
			}
			if seqCSV != parCSV {
				t.Errorf("CSV rendering differs between 1 and 4 workers:\n--- seq ---\n%s\n--- par ---\n%s", seqCSV, parCSV)
			}
		})
	}
}

// TestWorkersOverride checks the explicit override wins and resets cleanly.
func TestWorkersOverride(t *testing.T) {
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d after reset; want >= 1", got)
	}
	t.Setenv("CMPI_SWEEP_WORKERS", "2")
	if got := Workers(); got != 2 {
		t.Fatalf("Workers() = %d with CMPI_SWEEP_WORKERS=2", got)
	}
}
