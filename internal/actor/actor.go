// Package actor implements the actor runtime PLASMA manages: typed actors
// with mailboxes, asynchronous messaging with request/reply, reference
// properties (the `ref(a.prop)` feature of the EPL), live migration, and
// hooks for the elasticity profiling runtime and for rule-driven placement
// of new actors.
//
// The runtime executes on the discrete-event simulator: application handlers
// run real Go code and declare virtual CPU cost via Context.Use; the hosting
// machine's cores are occupied for that long, producing the CPU, memory, and
// network signals the paper's elasticity rules react to.
//
// # Execution model
//
// Everything runs on the kernel's one sequential event loop. Messages are
// scheduled through the sending machine's sim.Env and CPU completions
// through the hosting machine's, so same-instant events keep their
// per-machine slot in the kernel's event order. Migration steps, tracing
// and counters update runtime state directly from the event that reaches
// them.
package actor

import (
	"fmt"
	"sort"
	"strconv"

	"plasma/internal/cluster"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// ID uniquely identifies an actor within a Runtime. The zero ID is invalid.
type ID uint64

// Ref is a location-transparent handle to an actor.
type Ref struct{ ID ID }

// Zero reports whether the ref is the invalid zero reference.
func (r Ref) Zero() bool { return r.ID == 0 }

func (r Ref) String() string { return fmt.Sprintf("actor#%d", r.ID) }

// ClientCaller is the caller type the EPL's `client` keyword matches.
const ClientCaller = "client"

// Message is one delivered actor message.
type Message struct {
	Method     string
	Arg        interface{}
	Size       int64  // payload bytes, for network and profiling accounting
	Sender     Ref    // zero when sent by a client
	SenderType string // actor type name, or ClientCaller

	reply *replyPath
}

// replyPath routes a reply back to the original requester across any number
// of Forward hops.
type replyPath struct {
	originSrv cluster.MachineID
	deliver   func(arg interface{}, size int64)
}

// Behavior is application logic for one actor. Receive runs when a message
// is dispatched; it should declare its CPU cost via ctx.Use. Outgoing
// effects (sends, replies, spawns) buffered during Receive take effect when
// the declared cost has elapsed on the hosting machine.
type Behavior interface {
	Receive(ctx *Context, msg Message)
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(ctx *Context, msg Message)

// Receive calls f.
func (f BehaviorFunc) Receive(ctx *Context, msg Message) { f(ctx, msg) }

// ProfilerHook observes runtime events for the elasticity profiling runtime.
type ProfilerHook interface {
	// OnMessage fires when a message is dispatched to an actor. caller is
	// the sending actor (zero for client senders).
	OnMessage(srv cluster.MachineID, callerType string, caller Ref, callee Ref, calleeType, method string, size int64)
	// OnCPU fires when an actor finishes consuming CPU for one message.
	OnCPU(srv cluster.MachineID, a Ref, typ string, cost sim.Duration)
	// OnNet fires when an actor sends size bytes off-machine.
	OnNet(srv cluster.MachineID, a Ref, typ string, size int64)
}

// PlacementHook decides where newly created actors go (§4.2 "New actor
// creation"). Returning a negative machine ID falls back to random placement.
type PlacementHook interface {
	Place(typ string, creator Ref, creatorSrv cluster.MachineID) cluster.MachineID
}

type delivery struct {
	msg Message
}

type instance struct {
	id       ID
	typ      string
	behavior Behavior
	srv      cluster.MachineID

	mailbox   []delivery
	busy      bool // currently processing a message
	migrating bool

	props    map[string][]Ref
	memSize  int64
	pinned   bool
	lastMove sim.Time

	pendingDst cluster.MachineID // -1 when no migration requested
	pendingFn  func(ok bool)
	pendingTr  uint64 // trace parent for the pending migration
	dead       bool

	// migEpoch invalidates in-flight migration steps when the actor is
	// re-homed (crash recovery) or a newer migration supersedes them.
	migEpoch uint64
}

// Runtime hosts actors across a cluster.
type Runtime struct {
	K *sim.Kernel
	C *cluster.Cluster

	// BaseMsgCost is charged per dispatched message to model runtime
	// dispatch overhead.
	BaseMsgCost sim.Duration
	// ProfilingCost is the additional per-message CPU charge when a
	// profiler hook is attached (Table 3 measures this overhead).
	ProfilingCost sim.Duration
	// SerializeCost converts actor state bytes to CPU time for migration
	// (cost = SerializeCost per MB, on each side).
	SerializePerMB sim.Duration

	profiler  ProfilerHook
	placement PlacementHook

	nextID     ID
	actors     map[ID]*instance
	migrations int

	// order lists live actor ids in spawn (= ascending id) order, so bulk
	// iteration needs no per-call sort. Stopped actors leave stale entries
	// behind (skipped on iteration) until a compaction sweep removes them.
	order     []ID
	orderDead int // stale entries in order (actors since stopped)

	// inflight tracks live migrations so machine crashes can abort or roll
	// them back; failedMigs counts migrations that did not complete.
	inflight   map[ID]*migration
	failedMigs int

	// MailboxCap, when positive, bounds every actor's mailbox: a delivery
	// arriving at a full mailbox is shed (dropped; a request's reply
	// callback simply never fires) instead of growing the queue without
	// limit — overload degrades gracefully rather than melting down. Zero
	// keeps the legacy unbounded mailboxes.
	MailboxCap int

	// XferPipeline routes migration state transfers through a per-NIC
	// scheduler: a destination's inbound NIC ingests one state stream at a
	// time at the existing per-byte cost, so batched transfers into the
	// same server queue behind each other while transfers to distinct
	// destinations overlap. The batch planner (emr Config.Planner =
	// "batch") turns it on; off by default, migrations keep the legacy
	// contention-free latency model, byte-identical to pinned runs.
	XferPipeline bool
	// nicBusy is when each destination's inbound NIC next frees.
	nicBusy map[cluster.MachineID]sim.Time
	shed    int64 // deliveries dropped at full bounded mailboxes

	tr *trace.Tracer // nil = migration lifecycle untraced
}

// migration is one in-flight live migration.
type migration struct {
	inst    *instance
	src     cluster.MachineID
	dst     cluster.MachineID
	epoch   uint64
	onDone  func(ok bool)
	traceID uint64 // id of the KindTransfer record, parent of commit/rollback
}

// NewRuntime creates a runtime over the given cluster.
func NewRuntime(k *sim.Kernel, c *cluster.Cluster) *Runtime {
	rt := &Runtime{
		K:              k,
		C:              c,
		BaseMsgCost:    20 * sim.Microsecond,
		ProfilingCost:  2 * sim.Microsecond,
		SerializePerMB: 5 * sim.Millisecond,
		actors:         make(map[ID]*instance),
		inflight:       make(map[ID]*migration),
	}
	c.OnFail(rt.onMachineFail)
	return rt
}

// envOf returns the scheduling context of the machine hosting srv; message
// traffic is scheduled through the sending machine's context.
func (rt *Runtime) envOf(srv cluster.MachineID) *sim.Env { return rt.C.Machine(srv).Env() }

// SetProfiler attaches (or detaches, with nil) the profiling hook.
func (rt *Runtime) SetProfiler(p ProfilerHook) { rt.profiler = p }

// SetPlacement attaches (or detaches, with nil) the placement hook.
func (rt *Runtime) SetPlacement(p PlacementHook) { rt.placement = p }

// SetTracer installs (or removes, with nil) the decision tracer; the
// migration lifecycle (transfer, commit, rollback) is recorded through it.
func (rt *Runtime) SetTracer(t *trace.Tracer) { rt.tr = t }

// Migrations reports the total number of completed migrations.
func (rt *Runtime) Migrations() int { return rt.migrations }

// FailedMigrations reports migrations that started but did not complete
// (rolled back or aborted by a machine crash).
func (rt *Runtime) FailedMigrations() int { return rt.failedMigs }

// InFlightMigrations reports migrations currently in progress; a quiesced
// runtime must report zero (no actor may be stuck mid-move).
func (rt *Runtime) InFlightMigrations() int { return len(rt.inflight) }

// Migrating reports whether the actor is currently mid-migration.
func (rt *Runtime) Migrating(ref Ref) bool {
	inst := rt.actors[ref.ID]
	return inst != nil && inst.migrating
}

// onMachineFail aborts or rolls back every in-flight migration touching the
// crashed machine. A destination crash rolls the actor back onto its source
// (state never left it authoritatively; buffered mail redelivers there). A
// source crash loses the actor with the machine: the migration is aborted
// and the actor awaits RecoverMachine like any other resident.
func (rt *Runtime) onMachineFail(id cluster.MachineID) {
	ids := make([]ID, 0, len(rt.inflight))
	for aid := range rt.inflight {
		ids = append(ids, aid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, aid := range ids {
		mig := rt.inflight[aid]
		switch id {
		case mig.dst:
			rt.abortMigration(mig, true, "dst-crash")
		case mig.src:
			rt.abortMigration(mig, false, "src-crash")
		}
	}
	// Queued (not yet begun) migrations toward the dead machine fail fast so
	// the initiating LEM can replan instead of waiting forever.
	for _, ref := range rt.Actors() {
		inst := rt.actors[ref.ID]
		if inst.pendingDst == id && !inst.migrating {
			fn := inst.pendingFn
			inst.pendingDst = -1
			inst.pendingFn = nil
			if fn != nil {
				fn(false)
			}
		}
	}
}

// abortMigration ends an in-flight migration without committing it. With
// resume, the actor stays live on its source and message processing restarts
// there (destination failure); without, the actor stays frozen on its dead
// source until RecoverMachine re-homes it (source failure).
func (rt *Runtime) abortMigration(mig *migration, resume bool, reason string) {
	inst := mig.inst
	if rt.inflight[inst.id] != mig {
		return
	}
	delete(rt.inflight, inst.id)
	inst.migEpoch++ // invalidate the migration's still-scheduled steps
	inst.migrating = false
	rt.failedMigs++
	rt.tr.Emit(trace.Record{Kind: trace.KindRollback, Parent: mig.traceID,
		Server: int32(mig.src), Target: int32(mig.dst), Actor: uint64(inst.id), Rule: -1, Detail: reason})
	if mig.onDone != nil {
		mig.onDone(false)
	}
	if resume {
		rt.pump(inst)
	}
}

// Spawn creates an actor of the given type, placed via the placement hook
// when one is attached, otherwise on a random up machine.
func (rt *Runtime) Spawn(typ string, b Behavior, creator Ref) Ref {
	srv := cluster.MachineID(-1)
	if rt.placement != nil {
		creatorSrv := cluster.MachineID(-1)
		if inst := rt.actors[creator.ID]; inst != nil {
			creatorSrv = inst.srv
		}
		srv = rt.placement.Place(typ, creator, creatorSrv)
	}
	if srv < 0 {
		up := rt.C.UpMachines()
		if len(up) == 0 {
			panic("actor: no machines up")
		}
		srv = up[rt.K.Rand().Intn(len(up))].ID
	}
	return rt.SpawnOn(typ, b, srv)
}

// SpawnOn creates an actor on a specific machine.
func (rt *Runtime) SpawnOn(typ string, b Behavior, srv cluster.MachineID) Ref {
	m := rt.C.Machine(srv)
	if m == nil || !m.Up() {
		panic(fmt.Sprintf("actor: spawn on bad machine %d", srv))
	}
	rt.nextID++
	inst := &instance{
		id:         rt.nextID,
		typ:        typ,
		behavior:   b,
		srv:        srv,
		lastMove:   rt.K.Now(),
		pendingDst: -1,
	}
	rt.actors[inst.id] = inst
	rt.order = append(rt.order, inst.id)
	return Ref{ID: inst.id}
}

// RecoverMachine re-homes every actor of a crashed machine onto surviving
// machines, modeling the fault-tolerance mechanism PLASMA inherits from the
// underlying actor runtime (§2.2): actor state is restored from the
// runtime's replication/checkpointing, in-flight processing is lost, and
// queued messages are re-delivered at the new home. Returns the number of
// recovered actors.
func (rt *Runtime) RecoverMachine(srv cluster.MachineID) int {
	up := rt.C.UpMachines()
	if len(up) == 0 {
		return 0
	}
	n := 0
	for _, ref := range rt.ActorsOn(srv) {
		inst := rt.actors[ref.ID]
		if mig := rt.inflight[inst.id]; mig != nil {
			// The machine's crash hook normally aborts these; clean up here
			// too so recovery is safe even if invoked on its own.
			delete(rt.inflight, inst.id)
			rt.failedMigs++
			rt.tr.Emit(trace.Record{Kind: trace.KindRollback, Parent: mig.traceID,
				Server: int32(mig.src), Target: int32(mig.dst), Actor: uint64(inst.id), Rule: -1, Detail: "src-recovered"})
			if mig.onDone != nil {
				mig.onDone(false)
			}
		}
		dst := up[rt.K.Rand().Intn(len(up))]
		inst.srv = dst.ID
		inst.lastMove = rt.K.Now()
		inst.busy = false // in-flight processing died with the machine
		inst.migrating = false
		inst.migEpoch++ // strand any step of a migration begun before the crash
		fn := inst.pendingFn
		inst.pendingDst = -1
		inst.pendingFn = nil
		if fn != nil {
			fn(false)
		}
		dst.AddMem(inst.memSize)
		n++
		rt.pump(inst)
	}
	return n
}

// Stop removes an actor permanently. Queued messages are dropped; an
// in-flight migration is aborted (its initiator is told it failed).
func (rt *Runtime) Stop(ref Ref) {
	inst := rt.actors[ref.ID]
	if inst == nil {
		return
	}
	inst.dead = true
	if mig := rt.inflight[inst.id]; mig != nil {
		delete(rt.inflight, inst.id)
		inst.migEpoch++
		rt.failedMigs++
		rt.tr.Emit(trace.Record{Kind: trace.KindRollback, Parent: mig.traceID,
			Server: int32(mig.src), Target: int32(mig.dst), Actor: uint64(inst.id), Rule: -1, Detail: "actor-stopped"})
		if mig.onDone != nil {
			mig.onDone(false)
		}
	}
	if fn := inst.pendingFn; fn != nil {
		inst.pendingDst = -1
		inst.pendingFn = nil
		fn(false)
	}
	rt.C.Machine(inst.srv).AddMem(-inst.memSize)
	delete(rt.actors, ref.ID)
	rt.orderDead++
	if rt.orderDead*2 > len(rt.order) {
		rt.compactOrder()
	}
}

// compactOrder drops stale (stopped) ids from the spawn-order list.
func (rt *Runtime) compactOrder() {
	live := rt.order[:0]
	for _, id := range rt.order {
		if rt.actors[id] != nil {
			live = append(live, id)
		}
	}
	rt.order = live
	rt.orderDead = 0
}

// Exists reports whether the actor is alive.
func (rt *Runtime) Exists(ref Ref) bool { return rt.actors[ref.ID] != nil }

// TypeOf reports an actor's type name ("" if dead).
func (rt *Runtime) TypeOf(ref Ref) string {
	if inst := rt.actors[ref.ID]; inst != nil {
		return inst.typ
	}
	return ""
}

// ServerOf reports the machine currently hosting the actor (-1 if dead).
func (rt *Runtime) ServerOf(ref Ref) cluster.MachineID {
	if inst := rt.actors[ref.ID]; inst != nil {
		return inst.srv
	}
	return -1
}

// Props returns an actor's reference property (nil if absent).
func (rt *Runtime) Props(ref Ref, name string) []Ref {
	if inst := rt.actors[ref.ID]; inst != nil {
		return inst.props[name]
	}
	return nil
}

// SetProp sets a reference property from outside a message handler (for
// spawn-time initialization by application facades).
func (rt *Runtime) SetProp(ref Ref, name string, refs []Ref) {
	if inst := rt.actors[ref.ID]; inst != nil {
		inst.setProp(name, append([]Ref(nil), refs...))
	}
}

// setProp stores a property, allocating the map on first use (most actors
// expose no properties, so instances carry a nil map until one appears).
func (inst *instance) setProp(name string, refs []Ref) {
	if inst.props == nil {
		inst.props = make(map[string][]Ref)
	}
	inst.props[name] = refs
}

// PropNames lists the actor's reference property names in sorted order.
func (rt *Runtime) PropNames(ref Ref) []string {
	inst := rt.actors[ref.ID]
	if inst == nil {
		return nil
	}
	names := make([]string, 0, len(inst.props))
	for n := range inst.props {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MemSize reports the actor's declared state size in bytes.
func (rt *Runtime) MemSize(ref Ref) int64 {
	if inst := rt.actors[ref.ID]; inst != nil {
		return inst.memSize
	}
	return 0
}

// Pin marks the actor as unmovable; Unpin reverses it.
func (rt *Runtime) Pin(ref Ref) {
	if inst := rt.actors[ref.ID]; inst != nil {
		inst.pinned = true
	}
}

// Unpin clears the pinned flag.
func (rt *Runtime) Unpin(ref Ref) {
	if inst := rt.actors[ref.ID]; inst != nil {
		inst.pinned = false
	}
}

// Pinned reports whether the actor is pinned.
func (rt *Runtime) Pinned(ref Ref) bool {
	inst := rt.actors[ref.ID]
	return inst != nil && inst.pinned
}

// LastMoved reports when the actor last changed servers (spawn counts).
func (rt *Runtime) LastMoved(ref Ref) sim.Time {
	if inst := rt.actors[ref.ID]; inst != nil {
		return inst.lastMove
	}
	return 0
}

// Actors returns all live actor refs in id order (deterministic).
func (rt *Runtime) Actors() []Ref {
	refs := make([]Ref, 0, len(rt.actors))
	for _, id := range rt.order {
		if rt.actors[id] != nil {
			refs = append(refs, Ref{ID: id})
		}
	}
	return refs
}

// ActorsOn returns the live actors hosted on srv, in id order.
func (rt *Runtime) ActorsOn(srv cluster.MachineID) []Ref {
	var refs []Ref
	for _, id := range rt.order {
		if inst := rt.actors[id]; inst != nil && inst.srv == srv {
			refs = append(refs, Ref{ID: id})
		}
	}
	return refs
}

// Info is one live actor's metadata as seen by ForEachActor: everything the
// elasticity profiling runtime needs per actor per period, delivered in a
// single visit instead of one map lookup per field.
type Info struct {
	Ref       Ref
	Type      string
	Server    cluster.MachineID
	MemBytes  int64
	Pinned    bool
	LastMoved sim.Time
	NumProps  int // number of reference properties the actor exposes
}

// ForEachActor visits every live actor in id order without allocating. It
// is the bulk-iteration fast path under the profiler's per-period snapshot;
// fn must not spawn or stop actors.
func (rt *Runtime) ForEachActor(fn func(Info)) {
	for _, id := range rt.order {
		inst := rt.actors[id]
		if inst == nil {
			continue
		}
		fn(Info{
			Ref:       Ref{ID: id},
			Type:      inst.typ,
			Server:    inst.srv,
			MemBytes:  inst.memSize,
			Pinned:    inst.pinned,
			LastMoved: inst.lastMove,
			NumProps:  len(inst.props),
		})
	}
}

// NumActors reports the number of live actors.
func (rt *Runtime) NumActors() int { return len(rt.actors) }

// MigratingTo reports the destination of the actor's in-flight or pending
// migration, or -1 when no move is underway. The EMR's reservation ledger
// uses it to keep a dedicated server held while its owner is still being
// transferred there.
func (rt *Runtime) MigratingTo(ref Ref) cluster.MachineID {
	if mig := rt.inflight[ref.ID]; mig != nil {
		return mig.dst
	}
	if inst := rt.actors[ref.ID]; inst != nil && inst.pendingDst >= 0 {
		return inst.pendingDst
	}
	return -1
}

// send routes a message to an actor, resolving its location at delivery
// time; messages chase migrated actors with an extra forwarding hop. The
// receive side of the network accounting happens at delivery.
func (rt *Runtime) send(fromSrv cluster.MachineID, msg Message, to Ref) {
	inst := rt.actors[to.ID]
	if inst == nil {
		return // dead letter
	}
	dstSrv := inst.srv
	lat := rt.C.TransferLatency(fromSrv, dstSrv, msg.Size)
	if fromSrv != dstSrv {
		rt.C.Machine(fromSrv).AddNetBytes(msg.Size)
	}
	rt.envOf(fromSrv).Schedule(lat, func() {
		if fromSrv != dstSrv {
			rt.C.Machine(dstSrv).AddNetBytes(msg.Size)
		}
		cur := rt.actors[to.ID]
		if cur == nil {
			return
		}
		if cur.srv != dstSrv {
			// Actor moved while the message was in flight: forward.
			rt.send(dstSrv, msg, to)
			return
		}
		rt.deliver(cur, msg)
	})
}

// deliver enqueues msg in inst's mailbox, or sheds it when the bounded
// mailbox is full.
func (rt *Runtime) deliver(inst *instance, msg Message) {
	if rt.MailboxCap > 0 && len(inst.mailbox) >= rt.MailboxCap {
		rt.shed++
		rt.tr.Emit(trace.Record{Kind: trace.KindShed, Server: int32(inst.srv), Target: -1,
			Actor: uint64(inst.id), Rule: -1, Value: float64(rt.MailboxCap), Detail: msg.Method})
		return
	}
	inst.mailbox = append(inst.mailbox, delivery{msg: msg})
	rt.pump(inst)
}

// ShedRequests reports deliveries dropped at full bounded mailboxes.
func (rt *Runtime) ShedRequests() int64 { return rt.shed }

// pump dispatches the next mailbox message if the actor is free and its
// machine is in service (a crashed machine processes nothing; queued mail
// drains after recovery). A migration requested while the actor was busy
// begins here, before any further mail is dispatched.
func (rt *Runtime) pump(inst *instance) {
	if inst.busy || inst.migrating || inst.dead {
		return
	}
	if m := rt.C.Machine(inst.srv); m == nil || !m.Up() {
		return
	}
	if inst.pendingDst >= 0 {
		rt.beginMigration(inst)
		return
	}
	if len(inst.mailbox) == 0 {
		return
	}
	d := inst.mailbox[0]
	inst.mailbox = inst.mailbox[1:]
	inst.busy = true

	cost := rt.BaseMsgCost
	if rt.profiler != nil {
		cost += rt.ProfilingCost
		rt.profiler.OnMessage(inst.srv, d.msg.SenderType, d.msg.Sender, Ref{ID: inst.id}, inst.typ, d.msg.Method, d.msg.Size)
	}

	ctx := &Context{rt: rt, inst: inst, msg: d.msg}
	inst.behavior.Receive(ctx, d.msg)
	cost += ctx.cpu

	srv := inst.srv
	machine := rt.C.Machine(srv)
	machine.Exec(cost, func() {
		if rt.profiler != nil {
			// Attribute the actual core-occupancy time, so per-actor CPU
			// shares are comparable with server utilization.
			rt.profiler.OnCPU(srv, Ref{ID: inst.id}, inst.typ, machine.ScaledCost(cost))
		}
		ctx.commit(srv)
		inst.busy = false
		rt.pump(inst)
	})
}

// Migrate asks the runtime to move an actor to dst. The move happens after
// the actor finishes its current message; onDone (optional) reports whether
// the migration was carried out. Pinned and dead actors refuse.
func (rt *Runtime) Migrate(ref Ref, dst cluster.MachineID, onDone func(ok bool)) {
	rt.MigrateTraced(ref, dst, 0, onDone)
}

// MigrateTraced is Migrate with a causal trace parent: the migration's
// KindTransfer record is parented to it (the EMR passes the admission
// record's id, so a trace links propose → admit → transfer → commit).
func (rt *Runtime) MigrateTraced(ref Ref, dst cluster.MachineID, parent uint64, onDone func(ok bool)) {
	inst := rt.actors[ref.ID]
	fail := func() {
		if onDone != nil {
			onDone(false)
		}
	}
	if inst == nil || inst.pinned || inst.migrating || inst.pendingDst >= 0 {
		fail()
		return
	}
	m := rt.C.Machine(dst)
	if m == nil || !m.Up() || dst == inst.srv {
		fail()
		return
	}
	inst.pendingDst = dst
	inst.pendingFn = onDone
	inst.pendingTr = parent
	if !inst.busy {
		rt.beginMigration(inst)
	}
}

// beginMigration starts a pending migration, directly from MigrateTraced
// when the actor is idle or from pump once its current message completes.
//
// Serialize on the source, transfer, deserialize on the destination, then
// resume message processing there. Every asynchronous step revalidates the
// migration: a crash of either endpoint (or a Stop, or a crash-recovery
// re-home) aborts it via the epoch guard, and the actor either resumes on
// its source with its buffered mail intact or awaits RecoverMachine —
// never a permanently stuck `migrating` flag. The serialize and
// deserialize Execs occupy the source and destination cores; each
// completion runs the next step in the same event.
func (rt *Runtime) beginMigration(inst *instance) {
	dst := inst.pendingDst
	onDone := inst.pendingFn
	parent := inst.pendingTr
	inst.pendingDst = -1
	inst.pendingFn = nil
	inst.pendingTr = 0
	dstM := rt.C.Machine(dst)
	if dstM == nil || !dstM.Up() || inst.dead {
		if onDone != nil {
			onDone(false)
		}
		rt.pump(inst)
		return
	}
	inst.migrating = true
	inst.migEpoch++
	mig := &migration{inst: inst, src: inst.srv, dst: dst, epoch: inst.migEpoch, onDone: onDone}
	rt.inflight[inst.id] = mig
	src := inst.srv
	mig.traceID = rt.tr.Emit(trace.Record{Kind: trace.KindTransfer, Parent: parent,
		Server: int32(src), Target: int32(dst), Actor: uint64(inst.id), Rule: -1, Value: float64(inst.memSize)})
	stateMB := float64(inst.memSize) / (1 << 20)
	serCost := sim.Duration(stateMB * float64(rt.SerializePerMB))

	rt.C.Machine(src).Exec(serCost, func() { rt.migTransfer(mig, serCost) })
}

// migTransfer is the post-serialize step: charge the state transfer to
// both NICs and schedule the arrival.
//
// With XferPipeline set, the transfer first waits for earlier state
// streams into the same destination NIC to drain: the wire time itself is
// unchanged (the same per-byte TransferLatency pricing), but concurrent
// arrivals at one server serialize instead of magically sharing infinite
// ingest bandwidth, while transfers to distinct destinations overlap. Each
// pipelined transfer emits a KindXferPipeline record carrying its wire
// time and how long it queued.
func (rt *Runtime) migTransfer(mig *migration, serCost sim.Duration) {
	if !rt.migValid(mig) {
		return
	}
	inst, src, dst := mig.inst, mig.src, mig.dst
	lat := rt.C.TransferLatency(src, dst, inst.memSize)
	rt.C.Machine(src).AddNetBytes(inst.memSize)
	rt.C.Machine(dst).AddNetBytes(inst.memSize)
	if rt.XferPipeline {
		if rt.nicBusy == nil {
			rt.nicBusy = make(map[cluster.MachineID]sim.Time)
		}
		now := rt.K.Now()
		start := now
		if busy := rt.nicBusy[dst]; busy > start {
			start = busy
		}
		wait := sim.Duration(start - now)
		rt.nicBusy[dst] = start + sim.Time(lat)
		rt.tr.Emit(trace.Record{Kind: trace.KindXferPipeline, Parent: mig.traceID,
			Server: int32(src), Target: int32(dst), Actor: uint64(inst.id), Rule: -1,
			Value: float64(lat), Detail: "wait=" + strconv.FormatInt(int64(wait), 10) + "us"})
		lat += wait
	}
	rt.K.After(lat, func() {
		if !rt.migValid(mig) {
			return
		}
		if !rt.C.Machine(dst).Up() {
			// Destination lost mid-transfer (e.g. decommissioned; crashes
			// are caught by the failure hook): roll back to the source.
			rt.abortMigration(mig, true, "dst-down")
			return
		}
		rt.C.Machine(dst).Exec(serCost, func() { rt.migCommit(mig) })
	})
}

// migCommit is the post-deserialize step: re-home the actor and resume it
// on the destination.
func (rt *Runtime) migCommit(mig *migration) {
	if !rt.migValid(mig) {
		return
	}
	inst, src, dst := mig.inst, mig.src, mig.dst
	if !rt.C.Machine(dst).Up() {
		rt.abortMigration(mig, true, "dst-down")
		return
	}
	delete(rt.inflight, inst.id)
	rt.C.Machine(src).AddMem(-inst.memSize)
	rt.C.Machine(dst).AddMem(inst.memSize)
	inst.srv = dst
	inst.lastMove = rt.K.Now()
	inst.migrating = false
	rt.migrations++
	rt.tr.Emit(trace.Record{Kind: trace.KindCommit, Parent: mig.traceID,
		Server: int32(src), Target: int32(dst), Actor: uint64(inst.id), Rule: -1})
	if mig.onDone != nil {
		mig.onDone(true)
	}
	rt.pump(inst)
}

// migValid reports whether an in-flight migration is still the actor's
// current one (not aborted, superseded, or orphaned by death/recovery).
func (rt *Runtime) migValid(mig *migration) bool {
	return rt.inflight[mig.inst.id] == mig && mig.inst.migEpoch == mig.epoch && !mig.inst.dead
}

// Context carries per-message runtime operations for Behavior.Receive.
// Outgoing effects are buffered and committed once the declared CPU cost
// has elapsed.
type Context struct {
	rt   *Runtime
	inst *instance
	msg  Message

	cpu     sim.Duration
	effects []func(srv cluster.MachineID)
}

// Self returns the receiving actor's ref.
func (c *Context) Self() Ref { return Ref{ID: c.inst.id} }

// Now returns the current virtual time.
func (c *Context) Now() sim.Time { return c.rt.K.Now() }

// Runtime exposes the hosting runtime (for spawning from handlers).
func (c *Context) Runtime() *Runtime { return c.rt }

// Use declares cpu cost for processing the current message; multiple calls
// accumulate.
func (c *Context) Use(cpu sim.Duration) {
	if cpu > 0 {
		c.cpu += cpu
	}
}

// Send asynchronously delivers a new message (no reply path).
func (c *Context) Send(to Ref, method string, arg interface{}, size int64) {
	out := Message{Method: method, Arg: arg, Size: size, Sender: c.Self(), SenderType: c.inst.typ}
	c.effects = append(c.effects, func(srv cluster.MachineID) {
		c.rt.send(srv, out, to)
	})
}

// SendAfter delivers a new message after an extra delay beyond the current
// message's completion (for periodic/self-paced workloads).
func (c *Context) SendAfter(d sim.Duration, to Ref, method string, arg interface{}, size int64) {
	out := Message{Method: method, Arg: arg, Size: size, Sender: c.Self(), SenderType: c.inst.typ}
	c.effects = append(c.effects, func(srv cluster.MachineID) {
		// The delay elapses on the sending machine, then the send routes
		// normally.
		c.rt.envOf(srv).Schedule(d, func() { c.rt.send(srv, out, to) })
	})
}

// Forward passes the current message's reply path along to another actor,
// so a downstream actor can Reply to the original requester.
func (c *Context) Forward(to Ref, method string, arg interface{}, size int64) {
	out := Message{Method: method, Arg: arg, Size: size, Sender: c.Self(), SenderType: c.inst.typ, reply: c.msg.reply}
	c.effects = append(c.effects, func(srv cluster.MachineID) {
		c.rt.send(srv, out, to)
	})
}

// Reply answers the current message's requester, if it expects a reply.
func (c *Context) Reply(arg interface{}, size int64) {
	rp := c.msg.reply
	if rp == nil {
		return
	}
	c.effects = append(c.effects, func(srv cluster.MachineID) {
		lat := c.rt.C.TransferLatency(srv, rp.originSrv, size)
		if srv != rp.originSrv {
			c.rt.C.Machine(srv).AddNetBytes(size)
		}
		c.rt.envOf(srv).Schedule(lat, func() {
			if srv != rp.originSrv {
				c.rt.C.Machine(rp.originSrv).AddNetBytes(size)
			}
			rp.deliver(arg, size)
		})
	})
	if c.rt.profiler != nil {
		c.rt.profiler.OnNet(c.inst.srv, c.Self(), c.inst.typ, size)
	}
}

// SetProp publishes a reference property visible to EPL `ref(...)`
// conditions. The update is immediate (metadata, not messaging).
func (c *Context) SetProp(name string, refs []Ref) {
	c.inst.setProp(name, append([]Ref(nil), refs...))
}

// AddPropRef appends one ref to a property.
func (c *Context) AddPropRef(name string, r Ref) {
	c.inst.setProp(name, append(c.inst.props[name], r))
}

// SetMemSize declares the actor's state size in bytes (drives machine
// memory accounting and migration cost).
func (c *Context) SetMemSize(bytes int64) {
	delta := bytes - c.inst.memSize
	c.inst.memSize = bytes
	c.rt.C.Machine(c.inst.srv).AddMem(delta)
}

// commit applies buffered effects from the server the message was processed
// on.
func (c *Context) commit(srv cluster.MachineID) {
	for _, eff := range c.effects {
		eff(srv)
	}
	c.effects = nil
}

// Client issues latency-tracked requests into the actor system from a
// client machine, mirroring the paper's client driver instances.
type Client struct {
	rt   *Runtime
	Site cluster.MachineID // machine the client runs on
}

// NewClient creates a client homed on the given machine.
func NewClient(rt *Runtime, site cluster.MachineID) *Client {
	return &Client{rt: rt, Site: site}
}

// Request sends a message and invokes done with the end-to-end latency when
// the (possibly multi-hop) reply arrives.
func (cl *Client) Request(to Ref, method string, arg interface{}, size int64, done func(lat sim.Duration, reply interface{})) {
	start := cl.rt.K.Now()
	msg := Message{
		Method: method, Arg: arg, Size: size, SenderType: ClientCaller,
		reply: &replyPath{
			originSrv: cl.Site,
			deliver: func(replyArg interface{}, _ int64) {
				if done != nil {
					done(sim.Duration(cl.rt.K.Now()-start), replyArg)
				}
			},
		},
	}
	cl.rt.send(cl.Site, msg, to)
}

// Send delivers a one-way client message (no reply expected).
func (cl *Client) Send(to Ref, method string, arg interface{}, size int64) {
	msg := Message{Method: method, Arg: arg, Size: size, SenderType: ClientCaller}
	cl.rt.send(cl.Site, msg, to)
}
