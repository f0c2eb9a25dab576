package actor

import (
	"testing"

	"plasma/internal/cluster"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// cpuClock records the instant of every OnCPU hook, i.e. when a handler's
// Exec completes on its core.
type cpuClock struct {
	k  *sim.Kernel
	at []sim.Time
}

func (p *cpuClock) OnMessage(cluster.MachineID, string, Ref, Ref, string, string, int64) {}
func (p *cpuClock) OnCPU(cluster.MachineID, Ref, string, sim.Duration) {
	p.at = append(p.at, p.k.Now())
}
func (p *cpuClock) OnNet(cluster.MachineID, Ref, string, int64) {}

// A migration requested while the actor is busy starts in the event that
// completes the busy handler, and each later step runs in the event that
// completes the step before it: no extra zero-delay events sit between
// handler completion, serialize, transfer, deserialize and commit.
func TestMigrationOfBusyActorRunsStepsInline(t *testing.T) {
	k, c, rt := testEnv(t, 2)
	ring := trace.NewRing(64)
	tr := trace.New(ring)
	tr.SetClock(k.Now)
	rt.SetTracer(tr)
	clock := &cpuClock{k: k}
	rt.SetProfiler(clock)
	rt.ProfilingCost = 0

	const state = 10 << 20
	ref := rt.SpawnOn("A", BehaviorFunc(func(ctx *Context, msg Message) {
		if msg.Method == "init" {
			ctx.SetMemSize(state)
			return
		}
		ctx.Use(40 * sim.Millisecond)
	}), 0)
	cl := NewClient(rt, 0)
	cl.Send(ref, "init", nil, 1)
	k.RunUntilIdle()
	cl.Send(ref, "work", nil, 1)
	k.Run(k.Now() + sim.Time(sim.Millisecond)) // "work" is on a core

	var committedAt sim.Time
	rt.Migrate(ref, 1, func(ok bool) {
		if !ok {
			t.Error("migration failed")
		}
		committedAt = k.Now()
	})
	if rt.Migrating(ref) {
		t.Fatal("migration began while the actor was busy")
	}
	k.RunUntilIdle()

	if len(clock.at) != 2 {
		t.Fatalf("handler completions = %d, want 2 (init, work)", len(clock.at))
	}
	workDone := clock.at[1]
	var xfer *trace.Record
	for _, r := range ring.Records() {
		if r.Kind == trace.KindTransfer {
			r := r
			xfer = &r
		}
	}
	if xfer == nil {
		t.Fatal("no transfer record")
	}
	if xfer.At != workDone {
		t.Fatalf("transfer record at %v, want the handler's completion at %v", xfer.At, workDone)
	}

	serCost := sim.Duration(float64(state) / (1 << 20) * float64(rt.SerializePerMB))
	wire := c.TransferLatency(0, 1, state)
	if want := xfer.At + sim.Time(serCost+wire+serCost); committedAt != want {
		t.Fatalf("commit at %v, want %v (serialize %v + transfer %v + deserialize %v after %v)",
			committedAt, want, serCost, wire, serCost, xfer.At)
	}
	if rt.ServerOf(ref) != 1 || rt.Migrations() != 1 {
		t.Fatalf("actor on %d after %d migrations, want 1 and 1", rt.ServerOf(ref), rt.Migrations())
	}

	// Every event the run fired: init delivery and completion, work
	// delivery and completion, serialize completion, transfer arrival and
	// deserialize completion. Escalating a step through a separate
	// zero-delay event would add one per step.
	if got := k.Stats().Fired; got != 7 {
		t.Fatalf("kernel fired %d events, want 7", got)
	}
}
