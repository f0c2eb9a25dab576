// Package profile implements PLASMA's elasticity profiling runtime (EPR):
// it tracks the behavior of actors (CPU time, memory, network) and their
// interactions (message rates and sizes per caller and function), plus
// per-server resource utilization, within each elasticity period window.
//
// The EPR is the data source for rule evaluation: every period, the EMR
// takes a Snapshot and resets the window.
//
// The hot path is built for million-actor fleets: actor ids are assigned
// sequentially and never reused, so all per-actor window accumulators are
// dense slices indexed by id rather than maps, and snapshots are built
// into a double-buffered arena of pooled ActorInfo storage instead of
// allocating one ActorInfo (plus a Props map) per actor per period.
package profile

import (
	"sort"

	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// callerKey identifies one (caller, method) aggregation bucket within a
// callee's per-window call list.
type callerKey struct {
	callerType string
	caller     actor.Ref
	method     string
}

// promoteAt is the per-callee call-list length past which the linear-scan
// lookup in OnMessage is promoted to a map index. Most callees see a
// handful of (caller, method) pairs per window; hot fan-in actors get the
// map.
const promoteAt = 16

// calleeCalls accumulates the call stats received by one callee within the
// current window. recs is kept unsorted during accumulation and sorted
// once at snapshot time.
type calleeCalls struct {
	recs []epl.CallStat
	idx  map[callerKey]int // non-nil once len(recs) exceeded promoteAt
}

func (cc *calleeCalls) buildIdx() {
	if cc.idx == nil {
		cc.idx = make(map[callerKey]int, 2*len(cc.recs))
	} else {
		clear(cc.idx)
	}
	for i := range cc.recs {
		r := &cc.recs[i]
		cc.idx[callerKey{callerType: r.CallerType, caller: r.Caller, method: r.Method}] = i
	}
}

// arena is one buffer of the double-buffered snapshot storage: the
// Snapshot handed out plus the pooled backing arrays its ActorInfos and
// CallStats live in. ServerInfo is deliberately NOT pooled — the GEM's
// bounded-staleness report cache retains *ServerInfo across periods.
type arena struct {
	snap    epl.Snapshot
	infos   []epl.ActorInfo
	callBuf []epl.CallStat
}

// Profiler collects per-window runtime information. It implements
// actor.ProfilerHook. A single Profiler serves all servers; snapshots can be
// scoped to a server subset, which is how per-LEM and per-GEM views are
// produced.
//
// Lifetime contract: the *epl.Snapshot returned by Snapshot remains valid
// until the next-but-one call to Snapshot (the two arena buffers
// alternate). Callers take one snapshot per elasticity period, so a
// snapshot stays readable for two full periods; nothing may retain an
// *ActorInfo beyond that.
type Profiler struct {
	k  *sim.Kernel
	c  *cluster.Cluster
	rt *actor.Runtime

	windowStart sim.Time

	// Dense per-actor window accumulators, indexed by actor id. The three
	// slices are grown in lockstep; Reset clears them in place.
	actorCPU []sim.Duration
	actorNet []int64
	calls    []calleeCalls

	callRecs int   // total CallStat records across all callees this window
	messages int64 // total messages observed (all time), for overhead tests

	arenas [2]arena
	cur    int
	scope  map[cluster.MachineID]bool // reused scratch for Snapshot scoping

	// noReuse makes every Snapshot build into a brand-new arena (the naive
	// reference path differential tests compare the pooled path against).
	noReuse bool
}

// New creates a profiler and attaches it to the runtime.
func New(k *sim.Kernel, c *cluster.Cluster, rt *actor.Runtime) *Profiler {
	p := &Profiler{k: k, c: c, rt: rt}
	rt.SetProfiler(p)
	return p
}

// NoReuse switches the profiler to naive fresh-allocation snapshots: every
// Snapshot call builds into a brand-new arena instead of the pooled
// double-buffered one. Differential tests use this as the reference
// implementation; its results must be identical to the pooled path.
func (p *Profiler) NoReuse() { p.noReuse = true }

// ensure grows the dense per-actor accumulators to cover id.
func (p *Profiler) ensure(id actor.ID) {
	n := int(id) + 1
	if n <= len(p.actorCPU) {
		return
	}
	if n < 2*len(p.actorCPU) {
		n = 2 * len(p.actorCPU)
	}
	cpu := make([]sim.Duration, n)
	copy(cpu, p.actorCPU)
	p.actorCPU = cpu
	net := make([]int64, n)
	copy(net, p.actorNet)
	p.actorNet = net
	calls := make([]calleeCalls, n)
	copy(calls, p.calls)
	p.calls = calls
}

// OnMessage implements actor.ProfilerHook.
func (p *Profiler) OnMessage(srv cluster.MachineID, callerType string, caller actor.Ref, callee actor.Ref, calleeType, method string, size int64) {
	p.ensure(callee.ID)
	cc := &p.calls[callee.ID]
	if cc.idx != nil {
		key := callerKey{callerType: callerType, caller: caller, method: method}
		if i, ok := cc.idx[key]; ok {
			cc.recs[i].Count++
			cc.recs[i].Bytes += size
		} else {
			cc.idx[key] = len(cc.recs)
			cc.recs = append(cc.recs, epl.CallStat{CallerType: callerType, Caller: caller, Method: method, Count: 1, Bytes: size})
			p.callRecs++
		}
	} else {
		hit := false
		for i := range cc.recs {
			r := &cc.recs[i]
			if r.Method == method && r.CallerType == callerType && r.Caller == caller {
				r.Count++
				r.Bytes += size
				hit = true
				break
			}
		}
		if !hit {
			cc.recs = append(cc.recs, epl.CallStat{CallerType: callerType, Caller: caller, Method: method, Count: 1, Bytes: size})
			p.callRecs++
			if len(cc.recs) > promoteAt {
				cc.buildIdx()
			}
		}
	}
	p.actorNet[callee.ID] += size
	p.messages++
}

// OnCPU implements actor.ProfilerHook.
func (p *Profiler) OnCPU(srv cluster.MachineID, a actor.Ref, typ string, cost sim.Duration) {
	p.ensure(a.ID)
	p.actorCPU[a.ID] += cost
}

// OnNet implements actor.ProfilerHook.
func (p *Profiler) OnNet(srv cluster.MachineID, a actor.Ref, typ string, size int64) {
	p.ensure(a.ID)
	p.actorNet[a.ID] += size
}

// Messages reports the total number of profiled messages.
func (p *Profiler) Messages() int64 { return p.messages }

// Window reports the current window's span so far.
func (p *Profiler) Window() sim.Duration { return sim.Duration(p.k.Now() - p.windowStart) }

// Reset closes the window: per-actor accumulators are cleared in place
// (no reallocation) and every up machine's utilization window restarts.
func (p *Profiler) Reset() {
	p.windowStart = p.k.Now()
	clear(p.actorCPU)
	clear(p.actorNet)
	for i := range p.calls {
		cc := &p.calls[i]
		if len(cc.recs) > 0 {
			cc.recs = cc.recs[:0]
		}
		if cc.idx != nil {
			clear(cc.idx)
		}
	}
	p.callRecs = 0
	for _, m := range p.c.Machines() {
		m.ResetWindow()
	}
}

// Snapshot builds the rule-evaluation view for the given server scope (nil
// means all up servers). Actor metadata (type, placement, properties, pins)
// is included for every live actor so reference conditions resolve across
// servers; usage statistics are attributed per actor from this window.
func (p *Profiler) Snapshot(scope []cluster.MachineID) *epl.Snapshot {
	a := &p.arenas[p.cur]
	p.cur ^= 1
	if p.noReuse {
		a = &arena{}
	}
	window := p.Window()
	snap := &a.snap
	snap.At = p.k.Now()
	snap.Window = window

	// Scope set: the servers whose actors get usage statistics attributed.
	if p.scope == nil {
		p.scope = make(map[cluster.MachineID]bool, len(p.c.Machines()))
	} else {
		clear(p.scope)
	}
	if scope == nil {
		for _, m := range p.c.Machines() {
			if m.Up() {
				p.scope[m.ID] = true
			}
		}
	} else {
		for _, id := range scope {
			p.scope[id] = true
		}
	}

	// Server list: in-scope up machines in id order. ServerInfo is freshly
	// allocated on purpose (see arena doc).
	snap.Servers = snap.Servers[:0]
	for _, m := range p.c.Machines() {
		if !p.scope[m.ID] || !m.Up() {
			continue
		}
		snap.Servers = append(snap.Servers, &epl.ServerInfo{
			ID:      m.ID,
			CPUPerc: m.CPUPercent(),
			MemPerc: m.MemPercent(),
			NetPerc: m.NetPercent(),
			VCPUs:   m.Type.VCPUs,
			MemMB:   m.Type.MemMB,
			NetMbps: m.Type.NetMbps,
			Up:      true,
		})
	}

	// Reserve arena capacity up front: pointers into infos/callBuf are
	// carved out as we go, so the backing arrays must not grow mid-build.
	n := p.rt.NumActors()
	if cap(a.infos) < n {
		a.infos = make([]epl.ActorInfo, 0, n+n/4+16)
	}
	a.infos = a.infos[:0]
	if cap(snap.Actors) < n {
		snap.Actors = make([]*epl.ActorInfo, 0, n+n/4+16)
	}
	snap.Actors = snap.Actors[:0]
	if cap(a.callBuf) < p.callRecs {
		a.callBuf = make([]epl.CallStat, 0, p.callRecs+p.callRecs/4+16)
	}
	a.callBuf = a.callBuf[:0]

	p.rt.ForEachActor(func(info actor.Info) {
		m := p.c.Machine(info.Server)
		if m == nil {
			return
		}
		a.infos = append(a.infos, epl.ActorInfo{
			Ref:       info.Ref,
			Type:      info.Type,
			Server:    info.Server,
			MemBytes:  info.MemBytes,
			Pinned:    info.Pinned,
			LastMoved: info.LastMoved,
		})
		ai := &a.infos[len(a.infos)-1]
		if info.NumProps > 0 {
			ai.Props = make(map[string][]actor.Ref, info.NumProps)
			for _, name := range p.rt.PropNames(info.Ref) {
				ai.Props[name] = p.rt.Props(info.Ref, name)
			}
		}
		if m.Type.MemMB > 0 {
			ai.MemPerc = float64(ai.MemBytes) / float64(m.Type.MemMB*1024*1024) * 100
		}
		id := int(info.Ref.ID)
		if p.scope[info.Server] && window > 0 {
			var cpu sim.Duration
			var net int64
			if id < len(p.actorCPU) {
				cpu = p.actorCPU[id]
				net = p.actorNet[id]
			}
			ai.CPUTime = cpu
			ai.CPUPerc = float64(cpu) / (float64(window) * float64(m.Type.VCPUs)) * 100
			ai.NetBytes = net
			ai.NetPerc = float64(net) * 8 / 1e6 / window.Seconds() / m.Type.NetMbps * 100
		}
		// Call stats: sort this callee's list once (method, callerType,
		// caller) — the same order the former global callKey sort yielded
		// per callee — then copy into the arena so the snapshot does not
		// alias live accumulation state.
		if id < len(p.calls) && len(p.calls[id].recs) > 0 {
			cc := &p.calls[id]
			sortCalls(cc.recs)
			if cc.idx != nil {
				cc.buildIdx() // sorting invalidated the indices
			}
			start := len(a.callBuf)
			a.callBuf = append(a.callBuf, cc.recs...)
			ai.Calls = a.callBuf[start:len(a.callBuf):len(a.callBuf)]
		}
		snap.Actors = append(snap.Actors, ai)
	})
	return snap.Index()
}

func sortCalls(recs []epl.CallStat) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.CallerType != b.CallerType {
			return a.CallerType < b.CallerType
		}
		return a.Caller.ID < b.Caller.ID
	})
}
