package experiments

import (
	"fmt"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

// This file is the beyond-the-paper scalability family: Fig. 11c asked how
// GEM count affects balancing on 64 servers; these experiments ask the same
// question at fleet sizes the AWS testbed could not reach (10k, 100k and 1M
// actors in -full), plus an EPR-only measurement that isolates the snapshot
// construction hot path the million-actor fleet leans on.

// scaleCycle is the synthetic workers' self-message period; scalePeriod the
// elasticity period (short so a quick run still spans several decisions).
const (
	scaleCycle  = 500 * sim.Millisecond
	scalePeriod = sim.Second
)

// scalePolicy is a plain CPU band: hot servers shed Workers, idle spares
// receive them.
const scalePolicy = `server.cpu.perc > 70 or server.cpu.perc < 30 => balance({Worker}, cpu);`

// scaleTrial is one seeded run's outcome.
type scaleTrial struct {
	stats       emr.Stats
	spareFilled int // spare servers that received at least one Worker
}

// scaleFleet builds a size-actor synthetic fleet: ~128 Workers per server
// placed round-robin on the used servers, the last eighth of the cluster
// left as idle spares, and the first eighth's residents running double duty
// so their servers breach the upper band. Every Worker self-messages once
// per cycle with its start staggered across the cycle, so load is spread
// and the event queue never sees the whole fleet at one instant.
func scaleFleet(k *sim.Kernel, size, gems int, cfg Config) scaleTrial {
	servers := size / 128
	if servers < 8 {
		servers = 8
	}
	spares := servers / 8
	if spares < 1 {
		spares = 1
	}
	used := servers - spares
	hot := spares

	c := cluster.New(k, servers, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)

	mkWorker := func(cost sim.Duration) actor.Behavior {
		return actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			ctx.Use(cost)
			ctx.SendAfter(scaleCycle-cost, ctx.Self(), "work", nil, 16)
		})
	}
	// ~0.3% duty per cold Worker: 128/server lands mid-band (~38%); the hot
	// servers' double-duty residents push theirs past the 70% upper bound.
	coldB := mkWorker(1500 * sim.Microsecond)
	hotB := mkWorker(3 * sim.Millisecond)

	cl := actor.NewClient(rt, 0)
	for i := 0; i < size; i++ {
		srv := cluster.MachineID(i % used)
		b := coldB
		if int(srv) < hot {
			b = hotB
		}
		ref := rt.SpawnOn("Worker", b, srv)
		kick := sim.Duration(i%int(scaleCycle/sim.Millisecond)+1) * sim.Millisecond
		k.At(sim.Time(kick), func() { cl.Send(ref, "work", nil, 16) })
	}

	m := emr.New(k, c, rt, prof, epl.MustParse(scalePolicy),
		emr.Config{Period: scalePeriod, NumGEMs: gems, MinResidence: scalePeriod})
	cfg.wireTrace(m)
	m.Start()

	k.Run(sim.Time(4*scalePeriod) + sim.Time(scalePeriod/2))
	m.Stop()

	filled := map[cluster.MachineID]bool{}
	rt.ForEachActor(func(info actor.Info) {
		if int(info.Server) >= used {
			filled[info.Server] = true
		}
	})
	return scaleTrial{stats: m.Stats, spareFilled: len(filled)}
}

// Scale sweeps GEM count across fleet sizes: 1k and 4k actors quick; 10k,
// 100k and 1M actors in -full. Each (size, gems) cell averages several
// seeded trials; trials run in parallel on a goroutine pool (each owns an
// independent kernel), except the million-actor cells, which run one seed
// at a time to bound peak memory.
func Scale(cfg Config) *Result {
	r := newResult("scale", "GEM scalability on synthetic million-actor fleets (beyond Fig. 11c)")
	r.Header = []string{"Actors", "GEMs", "Seeds", "Migrations", "Denied", "Spares filled"}

	sizes := []int{1000, 4000}
	if cfg.Full {
		sizes = []int{10_000, 100_000, 1_000_000}
	}
	for _, size := range sizes {
		for _, gems := range []int{1, 2, 4} {
			seeds := 3
			if size >= 1_000_000 {
				seeds = 1 // one resident million-actor kernel at a time
			}
			trials := runSeeds(cfg, seeds, func(idx int, seed int64) scaleTrial {
				return scaleFleet(cfg.kernelSeeded(seed), size, gems, cfg)
			})
			var mig, den, spare float64
			for _, t := range trials {
				mig += float64(t.stats.ExecutedMigrations)
				den += float64(t.stats.DeniedAdmissions)
				spare += float64(t.spareFilled)
			}
			n := float64(len(trials))
			mig, den, spare = mig/n, den/n, spare/n
			r.addRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", gems), fmt.Sprintf("%d", seeds),
				fmt.Sprintf("%.1f", mig), fmt.Sprintf("%.1f", den), fmt.Sprintf("%.1f", spare))
			key := fmt.Sprintf("%d_%dgem", size, gems)
			r.Summary["migrations_"+key] = mig
			r.Summary["denied_"+key] = den
			r.Summary["spare_filled_"+key] = spare
		}
	}
	r.notef("paper: GEM count has small impact at 64 servers; the sweep checks the claim holds as the fleet grows 4 orders of magnitude")
	return r
}

// ScaleSnap isolates the EPR snapshot hot path: a 10k-actor fleet (100k in
// -full) where only 1% of actors exchange messages each period, so nearly
// all per-period work is Snapshot building ActorInfos for the whole fleet
// and Reset clearing the window. plasma-bench's allocs/op for this id is
// the snapshot-arena regression gate.
func ScaleSnap(cfg Config) *Result {
	r := newResult("scale_snap", "EPR snapshot construction at fleet scale")
	r.Header = []string{"Actors", "Servers", "Periods", "Call records", "Prop actors"}

	size, periods := 10_000, 40
	if cfg.Full {
		size = 100_000
	}
	servers := size / 128
	period := 250 * sim.Millisecond

	k := cfg.kernel()
	c := cluster.New(k, servers, cluster.M1Small)
	rt := actor.NewRuntime(k, c)
	prof := profile.New(k, c, rt)

	ping := actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		ctx.Use(100 * sim.Microsecond)
	})
	refs := make([]actor.Ref, size)
	for i := range refs {
		refs[i] = rt.SpawnOn("Worker", ping, cluster.MachineID(i%servers))
		if i%100 == 0 { // 1% of the fleet exposes a property (lazy Props path)
			rt.SetProp(refs[i], "peer", []actor.Ref{refs[0]})
		}
	}

	cl := actor.NewClient(rt, 0)
	contacted := size / 100
	var callRecs, propActors, actorsSeen int
	for t := 0; t < periods; t++ {
		for i := 0; i < contacted; i++ {
			cl.Send(refs[i], "ping", nil, 256)
		}
		k.Run(sim.Time(t+1) * sim.Time(period))
		snap := prof.Snapshot(nil)
		actorsSeen = len(snap.Actors)
		callRecs, propActors = 0, 0
		for _, a := range snap.Actors {
			callRecs += len(a.Calls)
			if a.Props != nil {
				propActors++
			}
		}
		prof.Reset()
	}

	r.addRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", servers), fmt.Sprintf("%d", periods),
		fmt.Sprintf("%d", callRecs), fmt.Sprintf("%d", propActors))
	r.Summary["actors"] = float64(actorsSeen)
	r.Summary["snapshots"] = float64(periods)
	r.Summary["call_records"] = float64(callRecs)
	r.Summary["prop_actors"] = float64(propActors)
	r.Summary["messages"] = float64(prof.Messages())
	r.notef("per-period cost is dominated by building %d ActorInfos; the pooled arena makes that allocation-free after warmup", actorsSeen)
	return r
}
