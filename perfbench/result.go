package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strings"

	"plasma/internal/trace"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported from the
// untraced repetitions (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"sim_p50_ms", "ms"},
	{"sim_p99_ms", "ms"},
	{"servers_mean", "servers"},
}

// perLayer are the metrics of single layers, reported from the traced
// repetitions (--trace 1).
var perLayer = []metricDef{
	{"graph.gen_s", "s"},
	{"graph.partition_s", "s"},
	{"graph.partition_mb", "MiB"},
	{"graph.edges", "count"},
	{"graph.edge_cut", "count"},
	{"sim.events", "count"},
	{"sim.peak_queue", "count"},
	{"sim.event_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"actor.migrations", "count"},
	{"actor.migrations_failed", "count"},
	{"actor.moved_mb", "MiB"},
	{"actor.shed", "count"},
	{"profile.snapshot_s", "s"},
	{"profile.snapshot_rows", "count"},
	{"profile.messages", "count"},
	{"epl.compile_s", "s"},
	{"epl.rule_evals", "count"},
	{"epl.rule_fires", "count"},
	{"emr.ticks", "count"},
	{"emr.lem_s", "s"},
	{"emr.gem_s", "s"},
	{"emr.resolve_s", "s"},
	{"emr.planned_actions", "count"},
	{"emr.denied_admissions", "count"},
	{"emr.resolved_conflicts", "count"},
	{"emr.scale_outs", "count"},
	{"emr.scale_ins", "count"},
	{"cluster.provisions", "count"},
	{"cluster.up_max", "servers"},
	{"apps.build_s", "s"},
	{"trace.records", "count"},
	{"trace.overhead", "ratio"},
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output. Its JSON form is the last line the
// command prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	header string
	defs   []metricDef
}

func (res *result) set(defs []metricDef, vals map[string]float64) {
	res.defs = defs
	res.Metrics = make(map[string]value, len(defs))
	for _, m := range defs {
		res.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
}

// newResult summarises an untraced run.
//
// Host times are put on the calibrated scale by refNominalS over the mean
// of refs, the run's reference loop times (see referenceSeconds). The host
// cost of simulation is the mean CPU time per kernel event over all
// repetitions, so calibrated, times the mean event count of the run's
// instances: the per-event cost does not depend on which instances a
// repetition happened to run. setup_s is the mean of setupS, calibrated.
//
// Simulated outcomes are medians over the run's instances of each
// instance's figure, so they are exact for a given --seed and one instance
// stuck in an unlucky regime does not move them.
func newResult(w workloadDef, plain []*rep, setupS, refs []float64) *result {
	res := &result{Correct: true}
	for _, r := range plain {
		res.Attempted += r.fp.Attempted
		res.Failed += r.fp.Failed
	}
	inst := plain[:w.inputs]
	ref := mean(refs)
	res.header = fmt.Sprintf("workload %s: %d untraced repetitions over %d instances, %d latency samples in instance 0, reference loop %.3f s (mean)",
		w.name, len(plain), w.inputs, inst[0].fp.Samples, ref)
	cal := refNominalS / ref
	perEvent := cal * meanOf(plain, func(r *rep) float64 { return r.simS / float64(r.fp.Events) })
	res.set(endToEnd, map[string]float64{
		"setup_s":      cal * mean(setupS),
		"sim_s":        perEvent * meanOf(inst, func(r *rep) float64 { return float64(r.fp.Events) }),
		"events_per_s": 1 / perEvent,
		"peak_rss_mb":  peakRSSMB(),
		"alloc_mb":     meanOf(inst, func(r *rep) float64 { return r.allocMB }),
		"sim_p50_ms":   medianOf(inst, func(r *rep) float64 { return r.fp.P50 }),
		"sim_p99_ms":   medianOf(inst, func(r *rep) float64 { return r.fp.P99 }),
		"servers_mean": medianOf(inst, func(r *rep) float64 { return r.fp.ServersMean }),
	})
	return res
}

// newTracedResult reports per-layer metrics from traced repetitions of
// one instance: counters are exact, host timings are medians.
func newTracedResult(w workloadDef, plain, traced []*rep) *result {
	res := &result{Correct: true}
	for _, r := range traced {
		res.Attempted += r.fp.Attempted
		res.Failed += r.fp.Failed
	}
	of := func(f func(r *rep) float64) float64 { return medianOf(traced, f) }
	layer := func(f func(l layerSeconds) float64) float64 {
		return of(func(r *rep) float64 { return f(r.obs.layers.scaled(r.simS)) })
	}
	fp, obs := traced[0].fp, traced[0].obs
	res.header = fmt.Sprintf("workload %s: %d traced repetitions of one instance, %d latency samples each",
		w.name, len(traced), fp.Samples)
	res.set(perLayer, map[string]float64{
		"graph.gen_s":        of(func(r *rep) float64 { return r.setup.graphGenS }),
		"graph.partition_s":  of(func(r *rep) float64 { return r.setup.graphPartS }),
		"graph.partition_mb": of(func(r *rep) float64 { return r.setup.graphPartMB }),
		"graph.edges":        float64(fp.Edges),
		"graph.edge_cut":     float64(fp.EdgeCut),
		"sim.events":         float64(fp.Events),
		"sim.peak_queue":     float64(fp.PeakQueue),
		"sim.event_s":        layer(func(l layerSeconds) float64 { return l.event }),
		"sim.ns_per_event": layer(func(l layerSeconds) float64 {
			if l.eventSteps == 0 {
				return 0
			}
			return l.event * 1e9 / float64(l.eventSteps)
		}),
		"actor.migrations":        float64(fp.Migrations),
		"actor.migrations_failed": float64(fp.MigFailed),
		"actor.moved_mb":          obs.movedBytes / (1 << 20),
		"actor.shed":              float64(fp.Shed),
		"profile.snapshot_s":      layer(func(l layerSeconds) float64 { return l.snapshot }),
		"profile.snapshot_rows":   float64(obs.snapshotRows),
		"profile.messages":        float64(fp.Messages),
		"epl.compile_s":           of(func(r *rep) float64 { return r.setup.eplCompileS }),
		"epl.rule_evals":          float64(obs.perKind[trace.KindRuleEval]),
		"epl.rule_fires":          float64(obs.perKind[trace.KindRuleFire]),
		"emr.ticks":               float64(fp.EMR.Ticks),
		"emr.lem_s":               layer(func(l layerSeconds) float64 { return l.lem }),
		"emr.gem_s":               layer(func(l layerSeconds) float64 { return l.gem }),
		"emr.resolve_s":           layer(func(l layerSeconds) float64 { return l.resolve }),
		"emr.planned_actions":     float64(fp.EMR.PlannedActions),
		"emr.denied_admissions":   float64(fp.EMR.DeniedAdmissions),
		"emr.resolved_conflicts":  float64(fp.EMR.ResolvedConflicts),
		"emr.scale_outs":          float64(fp.EMR.ScaleOuts),
		"emr.scale_ins":           float64(fp.EMR.ScaleIns),
		"cluster.provisions":      float64(fp.Provisions),
		"cluster.up_max":          float64(fp.UpMax),
		"apps.build_s":            of(func(r *rep) float64 { return r.setup.appsBuildS }),
		"trace.records":           float64(obs.records),
		"trace.overhead":          of(func(r *rep) float64 { return r.simS })/medianOf(plain, func(r *rep) float64 { return r.simS }) - 1,
	})
	return res
}

func meanOf(reps []*rep, f func(*rep) float64) float64 {
	return mean(values(reps, f))
}

func medianOf(reps []*rep, f func(*rep) float64) float64 {
	return median(values(reps, f))
}

func values(reps []*rep, f func(*rep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// print writes one line per metric, then the JSON result as the last line.
func (res *result) print(w io.Writer) {
	fmt.Fprintln(w, res.header)
	for _, m := range res.defs {
		fmt.Fprintf(w, "  %-24s %16.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result of plain numbers and strings always marshals
	}
	fmt.Fprintln(w, strings.TrimSpace(string(out)))
}
