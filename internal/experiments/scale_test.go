package experiments

import (
	"testing"

	"plasma/internal/sim"
)

// Quick-mode scale sweep: every cell must actually balance load into the
// spare servers, with multi-seed trials running on the parallel runner.
func TestScaleQuickBalances(t *testing.T) {
	res := Scale(Config{Seed: 1})
	for _, key := range []string{"migrations_1000_1gem", "migrations_4000_4gem"} {
		if res.Summary[key] <= 0 {
			t.Fatalf("%s = %v, want > 0", key, res.Summary[key])
		}
	}
	if res.Summary["spare_filled_4000_1gem"] <= 0 {
		t.Fatal("no spare server received an actor in the 4000-actor sweep")
	}
}

// The parallel multi-seed runner must not perturb results: running the same
// config twice renders identically (the trials' goroutine interleaving can
// differ; the per-seed kernels and the index-ordered aggregation cannot).
func TestScaleParallelRunsDeterministic(t *testing.T) {
	a := Scale(Config{Seed: 5}).Render()
	b := Scale(Config{Seed: 5}).Render()
	if a != b {
		t.Fatalf("same-seed scale runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// 100k-actor smoke test for the scale family: one seeded fleet through the
// full EMR loop, plus the -full snapshot workload. Skipped under -short.
func TestScale100kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-actor smoke test skipped in -short mode")
	}
	tr := scaleFleet(sim.New(1), 100_000, 2, Config{})
	if tr.stats.ExecutedMigrations == 0 {
		t.Fatal("100k-actor fleet executed no migrations")
	}
	if tr.spareFilled == 0 {
		t.Fatal("100k-actor fleet never filled a spare server")
	}

	res := ScaleSnap(Config{Full: true})
	if got := res.Summary["actors"]; got != 100_000 {
		t.Fatalf("full scale_snap actors = %v, want 100000", got)
	}
	if res.Summary["call_records"] <= 0 {
		t.Fatal("full scale_snap recorded no call stats")
	}
}
