package sim

// This file implements the kernel's event queue: a value-typed 4-ary
// min-heap ordered by the (at, depth, home, cnt) key. Events are stored inline in the heap
// slice, so scheduling allocates nothing beyond amortized slice growth —
// the previous implementation boxed one *event per schedule through
// container/heap's interface{} API, which made the allocator the hot
// path at scale (one pointer alloc plus GC pressure per event).
//
// The heap is "indexed": events owned by a Timer carry the id of a slot
// in the slot table, and every move updates the slot's heap position, so
// Timer.Stop and Timer.Reset are O(log n) removals/fixes instead of
// tombstone scans. Plain After/At events skip all slot bookkeeping.
//
// A 4-ary layout (children of i at 4i+1..4i+4) halves tree height vs a
// binary heap; the extra comparisons per level stay inside one cache
// line of []event, which profiles faster for the short-payload events
// the kernel stores.

// event is one scheduled callback. Timer events leave fn nil and carry
// the owning slot id in tid; the slot holds the callback so it survives
// the fire and can be re-armed by Reset.
type event struct {
	at    Time
	depth int32 // same-instant causal depth: parent's depth + 1 when at == parent's at
	home  int32 // scheduling home that stamped cnt, GlobalHome for kernel APIs
	cnt   uint64
	tid   int32 // owning timer slot, or noTimer
	fn    func()
}

const noTimer = int32(-1)

// before is the queue's strict total order and the kernel's same-instant
// ordering contract: fire time, then same-instant causal depth, then
// scheduling home (global events first, then homes in ascending id
// order), then per-home scheduling order. The (home, cnt) pair is unique
// per kernel, so ties cannot exist and any correct heap pops events in
// exactly one order.
//
// depth makes the order causal: an event scheduled at its parent's
// instant carries the parent's depth + 1, so every child's key exceeds
// its parent's and a heap's pop sequence is monotone in the key. For
// workloads driven purely through the kernel's global APIs this refines
// nothing — among same-instant events, scheduling order (the old global
// seq tiebreak) already agrees with (depth, cnt) order, because a deeper
// event can only be scheduled after its shallower producer ran — so the
// kernel's semantics are unchanged.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.depth != o.depth {
		return e.depth < o.depth
	}
	if e.home != o.home {
		return e.home < o.home
	}
	return e.cnt < o.cnt
}

// timerSlot is the persistent half of a Timer: the callback plus the
// current heap position of its pending event (noTimer when not queued).
// gen guards stale Timer handles after a slot is recycled.
type timerSlot struct {
	fn  func()
	pos int32
	gen uint32
}

type eventQueue struct {
	heap  []event
	slots []timerSlot
	free  []int32 // recycled slot ids
}

func (q *eventQueue) len() int { return len(q.heap) }

// setPos records heap[i]'s location in its owning slot, if any.
func (q *eventQueue) setPos(i int) {
	if t := q.heap[i].tid; t != noTimer {
		q.slots[t].pos = int32(i)
	}
}

func (q *eventQueue) push(e event) {
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event {
	e := q.heap[0]
	if e.tid != noTimer {
		q.slots[e.tid].pos = noTimer
	}
	last := len(q.heap) - 1
	if last > 0 {
		q.heap[0] = q.heap[last]
	}
	q.heap[last] = event{} // drop the fn reference for the GC
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return e
}

// remove deletes the event at heap index i (Timer.Stop).
func (q *eventQueue) remove(i int) {
	if t := q.heap[i].tid; t != noTimer {
		q.slots[t].pos = noTimer
	}
	last := len(q.heap) - 1
	if i != last {
		q.heap[i] = q.heap[last]
	}
	q.heap[last] = event{}
	q.heap = q.heap[:last]
	if i != last {
		q.fix(i)
	}
}

// fix restores heap order around index i after its event changed
// (Timer.Reset) or was replaced (remove).
func (q *eventQueue) fix(i int) {
	if !q.siftDown(i) {
		q.siftUp(i)
	}
}

// siftUp moves heap[i] toward the root; reports whether it moved.
func (q *eventQueue) siftUp(i int) bool {
	e := q.heap[i]
	start := i
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&q.heap[p]) {
			break
		}
		q.heap[i] = q.heap[p]
		q.setPos(i)
		i = p
	}
	q.heap[i] = e
	q.setPos(i)
	return i != start
}

// siftDown moves heap[i] toward the leaves; reports whether it moved.
func (q *eventQueue) siftDown(i int) bool {
	n := len(q.heap)
	e := q.heap[i]
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.heap[c].before(&q.heap[best]) {
				best = c
			}
		}
		if !q.heap[best].before(&e) {
			break
		}
		q.heap[i] = q.heap[best]
		q.setPos(i)
		i = best
	}
	q.heap[i] = e
	q.setPos(i)
	return i != start
}

// allocSlot takes a slot off the free list (or grows the table) and
// installs fn.
func (q *eventQueue) allocSlot(fn func()) int32 {
	if n := len(q.free); n > 0 {
		id := q.free[n-1]
		q.free = q.free[:n-1]
		s := &q.slots[id]
		s.fn, s.pos = fn, noTimer
		return id
	}
	q.slots = append(q.slots, timerSlot{fn: fn, pos: noTimer})
	return int32(len(q.slots) - 1)
}

// freeSlot recycles a slot; the generation bump invalidates outstanding
// Timer handles.
func (q *eventQueue) freeSlot(id int32) {
	s := &q.slots[id]
	s.fn = nil
	s.pos = noTimer
	s.gen++
	q.free = append(q.free, id)
}
