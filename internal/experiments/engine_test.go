package experiments

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenTraceFlatEngineAcrossWidths re-records the canonical trace job
// with CMPI_SIM_ENGINE=flat and requires byte-identity with the committed
// fixture. Rank bodies are blocking Go functions, so the facade guarantee
// applies: the engine-mode switch may not perturb a single byte of the
// message schedule. (The dispatch widths of the name are gone: every world
// runs one sequential loop.)
func TestGoldenTraceFlatEngineAcrossWidths(t *testing.T) {
	fixture, err := os.ReadFile("testdata/golden.trace")
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	t.Setenv("CMPI_SIM_ENGINE", "flat")
	var buf bytes.Buffer
	if err := GoldenTrace(&buf); err != nil {
		t.Fatalf("flat engine: GoldenTrace: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), fixture) {
		t.Error("flat engine: trace bytes diverge from the committed fixture")
	}
}

// TestRecoveryFlatEngineAcrossWidths renders ext-recovery — the experiment
// with the most engine-state churn (crash, checkpoint restore, respawn) —
// under CMPI_SIM_ENGINE=flat and diffs against the goroutine-engine
// rendering. (The dispatch widths of the name are gone: every world runs one
// sequential loop.)
func TestRecoveryFlatEngineAcrossWidths(t *testing.T) {
	t.Setenv("CMPI_SIM_ENGINE", "goroutine")
	baseTxt, baseCSV := renderBoth(t, "ext-recovery")
	t.Setenv("CMPI_SIM_ENGINE", "flat")
	txt, csv := renderBoth(t, "ext-recovery")
	if txt != baseTxt {
		t.Errorf("flat engine: text rendering diverged:\n--- goroutine ---\n%s\n--- flat ---\n%s", baseTxt, txt)
	}
	if csv != baseCSV {
		t.Error("flat engine: CSV rendering diverged")
	}
}

// TestAllExperimentsEngineInvariant is the property test over the registry:
// experiment tables must render byte-identically under both engine settings.
// The default run covers a representative subset (pt2pt, collectives,
// applications, and the machine-rank scale proxy — the one registry entry
// whose substrate the env var actually switches); CMPI_ENGINE_INVARIANCE=all
// sweeps the full registry twice and is exercised by its own CI step, since
// two extra full sweeps do not fit the default per-package test budget on
// small hosts. Skipped in -short mode.
func TestAllExperimentsEngineInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	if raceEnabled {
		t.Skip("sweeps cost ~10x under the race detector and rendering identity adds no race coverage; the CI property step runs uninstrumented")
	}
	ids := []string{"fig1", "fig3bc", "fig8", "tableI", "ext-scale", "ext-mltrain"}
	if os.Getenv("CMPI_ENGINE_INVARIANCE") == "all" {
		ids = ids[:0]
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Setenv("CMPI_SIM_ENGINE", "goroutine")
			gTxt, gCSV := renderBoth(t, id)
			t.Setenv("CMPI_SIM_ENGINE", "flat")
			fTxt, fCSV := renderBoth(t, id)
			if gTxt != fTxt {
				t.Errorf("text rendering diverged between engines:\n--- goroutine ---\n%s\n--- flat ---\n%s", gTxt, fTxt)
			}
			if gCSV != fCSV {
				t.Errorf("CSV rendering diverged between engines")
			}
		})
	}
}
