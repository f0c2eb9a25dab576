package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func baselineFile() BenchFile {
	return BenchFile{
		Schema:    benchSchema,
		Date:      "2026-01-01",
		Mode:      "quick",
		Seed:      1,
		GoVersion: "go1.x",
		Experiments: []BenchExperiment{
			{ID: "fig5", Iters: 3, NsPerOp: 1_000_000, AllocsPerOp: 5000, Events: 42000, EventsPerSec: 42e6, PeakQueue: 96,
				Summary: map[string]float64{"p99_ms": 12.5}},
			{ID: "table3", Iters: 3, NsPerOp: 2_000_000, AllocsPerOp: 8000, Events: 90000, EventsPerSec: 45e6, PeakQueue: 210,
				Summary: map[string]float64{"speedup": 3.1}},
		},
	}
}

// withNs returns a copy of bf with experiment id's NsPerOp scaled.
func withNs(bf BenchFile, id string, scale float64) BenchFile {
	out := bf
	out.Experiments = append([]BenchExperiment(nil), bf.Experiments...)
	for i := range out.Experiments {
		if out.Experiments[i].ID == id {
			out.Experiments[i].NsPerOp = int64(float64(out.Experiments[i].NsPerOp) * scale)
			out.Experiments[i].EventsPerSec = float64(out.Experiments[i].Events) / (float64(out.Experiments[i].NsPerOp) / 1e9)
		}
	}
	return out
}

func TestCompareDetectsInjectedSlowdown(t *testing.T) {
	old := baselineFile()
	// 15% slowdown on fig5 must trip the default 10% gate.
	fresh := withNs(old, "fig5", 1.15)
	regs, _ := compareBench(old, fresh, 0.10)
	if len(regs) != 1 {
		t.Fatalf("want exactly 1 regression, got %d: %v", len(regs), regs)
	}
	if !strings.Contains(regs[0], "fig5") || !strings.Contains(regs[0], "ns/op") {
		t.Fatalf("regression should name fig5 ns/op, got %q", regs[0])
	}
}

func TestCompareWithinToleranceOK(t *testing.T) {
	old := baselineFile()
	// 8% slowdown stays under the 10% gate; speedups never flag.
	fresh := withNs(withNs(old, "fig5", 1.08), "table3", 0.5)
	if regs, _ := compareBench(old, fresh, 0.10); len(regs) != 0 {
		t.Fatalf("want no regressions, got %v", regs)
	}
}

func TestCompareDetectsAllocRegression(t *testing.T) {
	old := baselineFile()
	fresh := baselineFile()
	fresh.Experiments[1].AllocsPerOp *= 2
	regs, _ := compareBench(old, fresh, 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
}

func TestCompareDetectsDeterminismDrift(t *testing.T) {
	old := baselineFile()
	fresh := baselineFile()
	fresh.Experiments[0].Events++
	fresh.Experiments[1].Summary["speedup"] = 3.2
	regs, _ := compareBench(old, fresh, 0.10)
	if len(regs) != 2 {
		t.Fatalf("want 2 drift regressions, got %v", regs)
	}
	for _, r := range regs {
		if !strings.Contains(r, "determinism drift") {
			t.Fatalf("expected determinism drift message, got %q", r)
		}
	}
}

func TestCompareDifferentSeedSkipsDriftCheck(t *testing.T) {
	old := baselineFile()
	fresh := baselineFile()
	fresh.Seed = 2
	fresh.Experiments[0].Summary["p99_ms"] = 99
	if regs, _ := compareBench(old, fresh, 0.10); len(regs) != 0 {
		t.Fatalf("different seeds must not drift-check, got %v", regs)
	}
}

func TestCompareModeMismatchSkips(t *testing.T) {
	old := baselineFile()
	fresh := baselineFile()
	fresh.Mode = "full"
	fresh.Experiments[0].NsPerOp *= 10
	regs, notes := compareBench(old, fresh, 0.10)
	if len(regs) != 0 {
		t.Fatalf("mode mismatch must not produce regressions, got %v", regs)
	}
	if len(notes) == 0 || !strings.Contains(notes[0], "mode") {
		t.Fatalf("want a mode-mismatch note, got %v", notes)
	}
}

func TestCompareMissingBaselineIDFails(t *testing.T) {
	old := baselineFile()
	fresh := baselineFile()
	fresh.Experiments[0].ID = "fig99"
	regs, notes := compareBench(old, fresh, 0.10)
	// A baseline id the run no longer measures is a regression (silent
	// coverage loss), while a brand-new id is only worth a note.
	if joined := strings.Join(regs, "\n"); !strings.Contains(joined, "fig5") || !strings.Contains(joined, "not measured") {
		t.Fatalf("missing baseline id must be a regression, got %v", regs)
	}
	if joined := strings.Join(notes, "\n"); !strings.Contains(joined, "fig99") {
		t.Fatalf("want a note for the new id, got %v", notes)
	}
}

func TestReadBenchFileSchemaCheck(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	data, err := json.Marshal(baselineFile())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBenchFile(good); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}

	bad := filepath.Join(dir, "bad.json")
	bf := baselineFile()
	bf.Schema = "something-else/v9"
	data, _ = json.Marshal(bf)
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBenchFile(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func TestFiniteSummaryDropsNonFinite(t *testing.T) {
	in := map[string]float64{"ok": 1.5, "nan": nan(), "inf": inf()}
	out := finiteSummary(in)
	if len(out) != 1 || out["ok"] != 1.5 {
		t.Fatalf("want only finite keys, got %v", out)
	}
	if finiteSummary(nil) != nil {
		t.Fatal("empty input should stay nil")
	}
}

func nan() float64 { return 0 / zero }
func inf() float64 { return 1 / zero }

var zero float64

func TestCompareReportsEveryRegressedID(t *testing.T) {
	old := baselineFile()
	// Slow down BOTH experiments: the gate must surface both, not stop at
	// the first, and the consolidated id list must name each exactly once.
	fresh := withNs(withNs(old, "fig5", 1.5), "table3", 1.5)
	regs, _ := compareBench(old, fresh, 0.10)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions (one per slowed experiment), got %d: %v", len(regs), regs)
	}
	ids := regressedIDs(regs)
	if len(ids) != 2 || ids[0] != "fig5" || ids[1] != "table3" {
		t.Fatalf("consolidated ids = %v, want [fig5 table3]", ids)
	}
}

func TestRegressedIDsDedupsAndSorts(t *testing.T) {
	ids := regressedIDs([]string{
		"zeta: ns/op 1 -> 2 (+100.0%)",
		"alpha: allocs/op 3 -> 9 (+200.0%)",
		"zeta: determinism drift: events fired 1 -> 2 at fixed seed",
	})
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "zeta" {
		t.Fatalf("ids = %v, want [alpha zeta]", ids)
	}
}
