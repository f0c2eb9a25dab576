// Package sim provides a deterministic discrete-event simulation kernel.
//
// All of PLASMA's experiments run on virtual time. One sequential event
// loop fires events in the order of a total key (at, depth, home, cnt) —
// firing time, same-instant causal depth, scheduling home, per-home
// scheduling counter — so two events scheduled for the same instant fire
// in a single well-defined order and every run is reproducible
// bit-for-bit from a single seed. The same-instant contract is:
//
//   - an event scheduled at its parent's instant (from inside an event
//     callback, for the same virtual time) fires after every event of
//     the parent's own causal depth — children never overtake their
//     parent's cohort;
//   - at equal depth, global events (plain After/At/AfterFunc, home =
//     GlobalHome) fire before homed events (Env.Schedule);
//   - among homed events of equal depth, lower home ids fire first;
//   - within one home at equal depth, events fire in scheduling order;
//   - Timer.Reset is a fresh scheduling: resetting a pending timer to the
//     current instant moves it after previously queued same-instant
//     events, exactly as if it had been stopped and re-scheduled.
//
// A home is one cluster machine; its Env stamps events from the home's
// own counter. The per-home counters are part of the pinned event order:
// stamping homed events from the single global counter instead reorders
// same-instant events across machines and moves experiment summaries.
//
// The event queue is a value-typed 4-ary indexed heap (see queue.go):
// scheduling an event is an inline slice append, not a boxed allocation,
// and periodic work can hold a reusable Timer (AfterFunc/Reset) so tick
// loops run allocation-free.
package sim

import (
	"fmt"

	//lint:ignore DET002 the kernel owns the seeded RNG every component draws from
	"math/rand"
)

// Time is an instant in virtual time, in microseconds since simulation start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations, mirroring time.Duration conventions.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Millis builds a Duration from a (possibly fractional) millisecond count.
func Millis(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// Micros builds a Duration from a microsecond count.
func Micros(us float64) Duration { return Duration(us) }

// Seconds reports d as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds reports t as a float64 number of seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// Kernel is a discrete-event simulator. The zero value is not usable; create
// one with New.
type Kernel struct {
	now Time
	q   eventQueue
	rng *rand.Rand

	// homeCnt[h+1] is the scheduling counter for home h; homeCnt[0] is
	// the global counter (home = GlobalHome).
	homeCnt []uint64

	// Executing-event context for same-instant depth stamping: while an
	// event runs, children scheduled at the same instant get curDepth + 1.
	executing bool
	curAt     Time
	curDepth  int32

	// Stopped is set by Stop; Run returns once it is observed.
	stopped bool

	fired uint64 // events fired since creation
	peak  int    // maximum queue depth observed
}

// GlobalHome is the pseudo-home of events scheduled through the kernel's
// own After/At/AfterFunc APIs. It sorts before every real home at the
// same instant.
const GlobalHome = int32(-1)

// New returns a kernel whose random stream is derived from seed.
func New(seed int64) *Kernel {
	return &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
		homeCnt: make([]uint64, 1),
	}
}

// childDepth reports the causal depth of an event scheduled for time at
// from the current context: one deeper than the executing event when it
// targets the same instant, zero otherwise.
func (k *Kernel) childDepth(at Time) int32 {
	if k.executing && at == k.curAt {
		return k.curDepth + 1
	}
	return 0
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// After schedules fn to run d from now. Negative delays fire immediately.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+Time(d), fn)
}

// At schedules fn at absolute virtual time t (clamped to now). The event
// is global: it fires before any same-instant homed event of equal depth.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.push(t, GlobalHome, noTimer, fn)
}

// push queues one event stamped from home's scheduling counter.
func (k *Kernel) push(at Time, home, tid int32, fn func()) {
	k.homeCnt[home+1]++
	k.q.push(event{at: at, depth: k.childDepth(at), home: home, cnt: k.homeCnt[home+1], tid: tid, fn: fn})
	if n := k.q.len(); n > k.peak {
		k.peak = n
	}
}

// Timer is a reusable scheduled callback created by AfterFunc. Unlike a
// plain After event, a Timer occupies one slot in the kernel for its whole
// life: Reset re-queues the same slot and Stop cancels it. A timer that
// fires without being re-armed by Reset — from inside its own callback —
// releases its slot automatically; after that, Stop and Reset on the stale
// handle are no-ops returning false. Timers are global events.
type Timer struct {
	k   *Kernel
	id  int32
	gen uint32
}

// AfterFunc schedules fn to run d from now and returns a Timer that can
// reschedule (Reset) or cancel (Stop) it. Tick loops that re-arm the timer
// from inside fn schedule each subsequent fire without any allocation,
// which is how Every and the cluster/EMR tick loops run.
func (k *Kernel) AfterFunc(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	id := k.q.allocSlot(fn)
	t := &Timer{k: k, id: id, gen: k.q.slots[id].gen}
	k.scheduleTimer(id, k.now+Time(d))
	return t
}

func (k *Kernel) scheduleTimer(id int32, at Time) {
	if at < k.now {
		at = k.now
	}
	k.push(at, GlobalHome, id, nil)
}

func (t *Timer) live() bool {
	return t != nil && t.k != nil && t.k.q.slots[t.id].gen == t.gen
}

// Stop cancels the timer and releases its slot. It reports whether a
// pending fire was dequeued; false means the timer already fired (and was
// not re-armed) or was already stopped.
func (t *Timer) Stop() bool {
	if !t.live() {
		return false
	}
	s := &t.k.q.slots[t.id]
	pending := s.pos != noTimer
	if pending {
		t.k.q.remove(int(s.pos))
	}
	t.k.q.freeSlot(t.id)
	return pending
}

// Reset reschedules the timer to fire d from now (negative d fires
// immediately). While the timer is pending its queued event is moved in
// place; from inside the callback it re-arms the slot for another fire.
// Reset reports false on a released timer (already fired without re-arm,
// or stopped).
//
// Reset is a fresh scheduling with respect to same-instant ordering: the
// moved event takes a fresh counter value, so a Reset to the current
// instant fires after events that were already queued for that instant —
// exactly as if the timer had been stopped and scheduled anew; the
// differential tests in sim_test.go pin it.
func (t *Timer) Reset(d Duration) bool {
	if !t.live() {
		return false
	}
	if d < 0 {
		d = 0
	}
	k := t.k
	s := &k.q.slots[t.id]
	at := k.now + Time(d)
	if s.pos != noTimer {
		i := int(s.pos)
		k.homeCnt[0]++
		k.q.heap[i].at = at
		k.q.heap[i].depth = k.childDepth(at)
		k.q.heap[i].cnt = k.homeCnt[0]
		k.q.fix(i)
		return true
	}
	k.scheduleTimer(t.id, at)
	return true
}

// Every schedules fn at now+d, then every d thereafter, until fn returns
// false or the simulation stops. The loop holds a single reusable timer
// slot, so each tick costs one heap push and no allocation.
//
// A non-positive period is floored to one Microsecond: period 0 used to
// reschedule at the same instant forever, livelocking RunUntilIdle.
func (k *Kernel) Every(d Duration, fn func() bool) {
	if d < Microsecond {
		d = Microsecond
	}
	var t *Timer
	t = k.AfterFunc(d, func() {
		if fn() {
			t.Reset(d)
		}
	})
}

// Step fires the next pending event, advancing the clock. It reports whether
// an event was fired.
func (k *Kernel) Step() bool {
	if k.q.len() == 0 || k.stopped {
		return false
	}
	e := k.q.pop()
	k.fire(&e)
	return true
}

// fire runs one popped event with the executing-event context set, so
// same-instant children stamp the right causal depth.
func (k *Kernel) fire(e *event) {
	k.now = e.at
	k.fired++
	prevEx, prevAt, prevD := k.executing, k.curAt, k.curDepth
	k.executing, k.curAt, k.curDepth = true, e.at, e.depth
	if e.tid != noTimer {
		k.fireTimer(e.tid)
	} else {
		e.fn()
	}
	k.executing, k.curAt, k.curDepth = prevEx, prevAt, prevD
}

// fireTimer runs a timer slot's callback and recycles the slot unless the
// callback re-armed it with Reset (or released it itself with Stop).
func (k *Kernel) fireTimer(id int32) {
	gen := k.q.slots[id].gen
	fn := k.q.slots[id].fn
	fn()
	// Re-index: fn may have created timers and grown the slot table.
	s := &k.q.slots[id]
	if s.gen != gen {
		return // the callback stopped its own timer; slot already released
	}
	if s.pos == noTimer {
		k.q.freeSlot(id)
	}
}

// Run fires events until the queue drains, the clock passes until, or Stop
// is called. The clock does not advance beyond the last fired event; in
// particular a run halted by Stop leaves the clock at the event that
// stopped it rather than jumping ahead to the deadline.
func (k *Kernel) Run(until Time) {
	for k.q.len() > 0 && !k.stopped {
		if k.q.heap[0].at > until {
			k.now = until
			return
		}
		k.Step()
	}
	if !k.stopped && k.now < until {
		k.now = until
	}
}

// RunUntilIdle fires all pending events (including ones they schedule).
func (k *Kernel) RunUntilIdle() {
	for k.Step() {
	}
}

// Stop halts Run/RunUntilIdle after the current event.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.q.len() }

// Stats summarizes the kernel's lifetime effort, used by the benchmark
// harness to report event throughput and queue pressure per experiment.
type Stats struct {
	Fired     uint64 // events fired since creation
	PeakQueue int    // maximum queue depth ever observed
}

// Stats returns the kernel's counters.
func (k *Kernel) Stats() Stats { return Stats{Fired: k.fired, PeakQueue: k.peak} }

// Env is a scheduling context bound to one home (a cluster machine).
// Events it schedules are stamped from the home's own counter, which
// places them in the home's slot of the same-instant order.
type Env struct {
	k    *Kernel
	home int32
}

// Env returns the scheduling context for home (>= 0).
func (k *Kernel) Env(home int32) *Env {
	if home < 0 {
		panic("sim: Env home must be >= 0")
	}
	for int(home)+1 >= len(k.homeCnt) {
		k.homeCnt = append(k.homeCnt, 0)
	}
	return &Env{k: k, home: home}
}

// Schedule queues fn to run d from now (negative delays fire
// immediately), keyed as an event of this Env's home.
func (e *Env) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.k.push(e.k.now+Time(d), e.home, noTimer, fn)
}
