package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"plasma/internal/sim"
	"plasma/internal/trace"
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		vals := map[string]float64{}
		for i, m := range defs {
			if !metricName.MatchString(m.name) {
				t.Errorf("metric name %q does not match %v", m.name, metricName)
			}
			if !metricUnit.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q does not match %v", m.name, m.unit, metricUnit)
			}
			if seen[m.name] {
				t.Errorf("metric %s defined twice", m.name)
			}
			seen[m.name] = true
			vals[m.name] = float64(i) + 0.5
		}
		res := &result{Correct: true, Attempted: 1}
		res.set(defs, vals)
		var buf bytes.Buffer
		res.print(&buf)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		for _, m := range defs {
			found := false
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) == 3 && f[0] == m.name && f[2] == m.unit {
					found = true
				}
			}
			if !found {
				t.Errorf("metric %s is not printed with its unit %s", m.name, m.unit)
			}
		}
		var out struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]value
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatalf("last line is not the JSON result: %v", err)
		}
		for _, m := range defs {
			if got := out.Metrics[m.name]; got.Unit != m.unit || got.Value != vals[m.name] {
				t.Errorf("JSON %s = %+v, want %v %s", m.name, got, vals[m.name], m.unit)
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, which the driver
// reads, in step with the metrics and workloads the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the program %s %s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestClassifyStep(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name    string
		seen    kindSet
		actions bool
		times   stepTimes
		want    layerSeconds
	}{
		{"gem-eval", kinds(trace.KindGemEval, trace.KindRuleEval, trace.KindPropose), false,
			stepTimes{start: ms(10), end: ms(13)}, layerSeconds{gem: 0.003}},
		{"tick", kinds(trace.KindTick, trace.KindRuleEval, trace.KindReport), false,
			stepTimes{start: ms(10), tick: ms(11), onTick: ms(15), end: ms(17)}, layerSeconds{snapshot: 0.004, lem: 0.003}},
		{"resolve", 0, true,
			stepTimes{start: ms(10), end: ms(12)}, layerSeconds{resolve: 0.002}},
		{"admission", kinds(trace.KindAdmit, trace.KindTransfer), false,
			stepTimes{start: ms(10), end: ms(11)}, layerSeconds{resolve: 0.001}},
		{"report-ack", kinds(trace.KindReportAck), false,
			stepTimes{start: ms(10), end: ms(11)}, layerSeconds{lem: 0.001}},
		{"no EMR record", kinds(trace.KindCommit), false,
			stepTimes{start: ms(10), end: ms(12)}, layerSeconds{event: 0.002, eventSteps: 1}},
		{"no record", 0, false,
			stepTimes{start: ms(10), end: ms(11)}, layerSeconds{event: 0.001, eventSteps: 1}},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	for _, c := range cases {
		var got layerSeconds
		got.charge(classify(c.seen, c.actions), c.times)
		w := c.want
		if !near(got.snapshot, w.snapshot) || !near(got.lem, w.lem) || !near(got.gem, w.gem) ||
			!near(got.resolve, w.resolve) || !near(got.event, w.event) || got.eventSteps != w.eventSteps {
			t.Errorf("%s: charged %+v, want %+v", c.name, got, w)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, err := percentile(sorted(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if got, err := percentile(sorted(1000), 0.99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", got, err)
	}
	if _, err := percentile(sorted(20), 0.5); err != nil {
		t.Errorf("p50 of 20 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestInputSeedsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(-2); seed <= 20; seed++ {
		for i := 0; i < 16; i++ {
			s := inputSeed(seed, i)
			if seen[s] {
				t.Fatalf("inputSeed(%d, %d) = %d repeats an earlier input seed", seed, i, s)
			}
			seen[s] = true
		}
	}
}

func TestScaledLayersSplitCPUTime(t *testing.T) {
	wall := layerSeconds{snapshot: 1, lem: 0.5, gem: 0.25, resolve: 0.25, event: 2, eventSteps: 7}
	got := wall.scaled(2)
	if math.Abs(got.total()-2) > 1e-12 || got.event != 1 || got.snapshot != 0.5 || got.eventSteps != 7 {
		t.Errorf("scaled(2) = %+v, want each layer halved, summing to 2", got)
	}
	if z := (layerSeconds{}).scaled(1); z.total() != 0 {
		t.Errorf("scaling an empty run gave %+v", z)
	}
}

func TestFleetCyclesDue(t *testing.T) {
	w := &fleetWorker{first: sim.Time(2 * sim.Second)}
	cases := []struct {
		t    sim.Time
		want int64
	}{
		{0, 0},
		{w.first, 0},
		{w.first + 1, 1},
		{w.first + sim.Time(fleetCycle), 1},
		{w.first + sim.Time(fleetCycle) + 1, 2},
		{fleetHorizon, 4}, // due at 2, 7, 12 and 17 s
	}
	for _, c := range cases {
		if got := w.dueBefore(c.t); got != c.want {
			t.Errorf("cycles due before %v = %d, want %d", c.t, got, c.want)
		}
	}
}
