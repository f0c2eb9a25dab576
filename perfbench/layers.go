package main

import (
	"time"

	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// stepClass is the layer a kernel step's host time is charged to in the
// traced run.
type stepClass int

const (
	classEvent   stepClass = iota // sim.event_s: no EMR phase ran in the step
	classTick                     // profile.snapshot_s + emr.lem_s
	classLEM                      // emr.lem_s: REPORT traffic
	classGEM                      // emr.gem_s
	classResolve                  // emr.resolve_s: resolution and admission
)

// kindSet is the set of trace kinds emitted during one step.
type kindSet uint64

func (s kindSet) has(k trace.Kind) bool { return s&(1<<k) != 0 }

func kinds(ks ...trace.Kind) kindSet {
	var s kindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

var (
	gemKinds     = kinds(trace.KindGemEval, trace.KindScaleOut, trace.KindScaleIn, trace.KindPlanBatch)
	resolveKinds = kinds(trace.KindPropose, trace.KindResolveDrop, trace.KindQuery, trace.KindAdmit, trace.KindDeny)
	lemKinds     = kinds(trace.KindReport, trace.KindReportAck, trace.KindStaleReport, trace.KindRuleEval, trace.KindRuleFire)
)

// classify names the layer of one step from the trace kinds it emitted and
// whether the EMR's OnActions hook ran in it. A period's tick is the most
// specific marker, then the GEM evaluation, then conflict resolution.
func classify(seen kindSet, actions bool) stepClass {
	switch {
	case seen.has(trace.KindTick):
		return classTick
	case seen&gemKinds != 0:
		return classGEM
	case actions || seen&resolveKinds != 0:
		return classResolve
	case seen&lemKinds != 0:
		return classLEM
	}
	return classEvent
}

// stepTimes are the host-clock stamps of one step, as offsets from the
// observer's base.
type stepTimes struct {
	start, end time.Duration
	// tick and onTick bracket the snapshot in a tick step: the KindTick
	// record is emitted just before profile.Snapshot, and OnTick runs just
	// after it. Zero when the step had no tick.
	tick, onTick time.Duration
}

// layerSeconds accumulates host seconds per layer.
type layerSeconds struct {
	snapshot, lem, gem, resolve, event float64
	eventSteps                         int64
}

func (l layerSeconds) total() float64 {
	return l.snapshot + l.lem + l.gem + l.resolve + l.event
}

// scaled converts wall-clock layer seconds to CPU seconds: each layer keeps
// its share of the stamped steps, and the shares split cpuS, the CPU time
// of the whole traced run. Per-step CPU clocks would cost a system call per
// stamp; scaling keeps the layers on the CPU clock sim_s is measured on
// before calibration, so time other guests steal from a shared machine
// does not inflate them.
func (l layerSeconds) scaled(cpuS float64) layerSeconds {
	tot := l.total()
	if tot == 0 {
		return layerSeconds{}
	}
	f := cpuS / tot
	return layerSeconds{snapshot: l.snapshot * f, lem: l.lem * f, gem: l.gem * f,
		resolve: l.resolve * f, event: l.event * f, eventSteps: l.eventSteps}
}

// charge adds one classified step to the totals.
func (l *layerSeconds) charge(c stepClass, t stepTimes) {
	total := (t.end - t.start).Seconds()
	switch c {
	case classTick:
		snap := 0.0
		if t.onTick > t.tick {
			snap = (t.onTick - t.tick).Seconds()
		}
		l.snapshot += snap
		l.lem += total - snap
	case classLEM:
		l.lem += total
	case classGEM:
		l.gem += total
	case classResolve:
		l.resolve += total
	default:
		l.event += total
		l.eventSteps++
	}
}

// observer instruments the traced run from outside the program: it is the
// trace.Sink the EMR, actor runtime and cluster emit into, it takes the
// EMR's OnTick and OnActions hooks, and it drives the kernel's Step loop,
// stamping the host clock around every step.
type observer struct {
	base time.Time

	// State of the step in progress.
	cur     stepTimes
	seen    kindSet
	actions bool

	layers       layerSeconds
	records      uint64
	perKind      [64]uint64
	movedBytes   float64
	snapshotRows int64
}

func newObserver() *observer {
	//lint:ignore DET001 the traced run measures host time per layer by design
	return &observer{base: time.Now()}
}

func (o *observer) now() time.Duration {
	return time.Since(o.base)
}

// Emit implements trace.Sink.
func (o *observer) Emit(r trace.Record) {
	o.records++
	o.perKind[r.Kind]++
	o.seen |= 1 << r.Kind
	switch r.Kind {
	case trace.KindTick:
		o.cur.tick = o.now()
	case trace.KindTransfer:
		o.movedBytes += r.Value
	}
}

// attach installs the observer on a deployment's EMR before it starts.
func (o *observer) attach(d *deployment) {
	tr := trace.New(o)
	tr.SetClock(d.k.Now)
	d.mgr.SetTracer(tr)
	d.mgr.OnTick = func(_ int, snap *epl.Snapshot) {
		o.cur.onTick = o.now()
		o.snapshotRows += int64(len(snap.Actors) + len(snap.Servers))
	}
	d.mgr.OnActions = func([]emr.Action) { o.actions = true }
}

// run steps the kernel to its end, charging each step to a layer.
func (o *observer) run(k *sim.Kernel) {
	for {
		o.cur = stepTimes{start: o.now()}
		o.seen, o.actions = 0, false
		if !k.Step() {
			return
		}
		o.cur.end = o.now()
		o.layers.charge(classify(o.seen, o.actions), o.cur)
	}
}
