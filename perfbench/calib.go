package main

import (
	"container/heap"
	"runtime"
)

// refNominalS is the CPU time the reference loop is taken to need on the
// calibrated scale; the loop takes about that long on a quiet 2-vCPU Xeon
// virtual machine.
const refNominalS = 0.4

// referenceSeconds runs the reference loop once and returns its CPU time.
//
// The loop is the benchmark's own, fixed code shaped like the simulator's
// hot path: a priority queue of a few hundred pending events, a small
// allocation per event and a map update. On a machine shared with other
// guests the CPU time of such work swings by up to 2× over tens of
// seconds, as caches and memory bandwidth are shared; the simulator's per
// event cost swings with it, and the loop's mean time over a run, run
// before the first repetition and after each one, tracks that swing. Host
// times reported on the calibrated scale are CPU seconds times refNominalS
// over that mean.
func referenceSeconds() float64 {
	runtime.GC() // start from an empty heap, whatever the repetition left
	t := startCPU()
	referenceLoop()
	return t.seconds()
}

type refEvent struct {
	at  uint64
	buf []byte
}

type refQueue []*refEvent

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refSink keeps the loop's results live so the compiler cannot drop it.
var refSink int

func referenceLoop() {
	x := uint64(88172645463325252) // xorshift64 state: the loop is fixed
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	q := &refQueue{}
	for range 300 {
		heap.Push(q, &refEvent{at: next(1000)})
	}
	m := make(map[uint64]int, 1<<16)
	for range 800000 {
		e := heap.Pop(q).(*refEvent)
		m[next(1<<17)]++
		refSink += len(e.buf)
		heap.Push(q, &refEvent{at: e.at + next(1000), buf: make([]byte, 64+next(200))})
	}
	refSink += len(m)
}
