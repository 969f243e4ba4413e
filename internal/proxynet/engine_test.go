package proxynet

import (
	"container/heap"
	"testing"
	"time"
)

// The virtual-time event loop the campaign ran on before MeasureDoH
// became a straight-line sum (it was netsim.Engine). Nothing in
// production schedules events any more; it lives on here because
// measureDoHEventTimeline, the reference MeasureDoH is held to, is
// written against it, and the four tests below are what that
// reference's determinism rests on.

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // tie-break: FIFO among same-time events
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// engine is a single-threaded virtual-time event loop. It is not safe
// for concurrent use; all callbacks run on the caller's goroutine
// inside Run.
type engine struct {
	now  time.Duration
	heap eventHeap
	seq  uint64
}

// newEngine returns an engine at virtual time zero.
func newEngine() *engine { return &engine{} }

// Now returns the current virtual time.
func (e *engine) Now() time.Duration { return e.now }

// At schedules fn to run delay after the current virtual time.
// Negative delays are clamped to zero (run "now", in FIFO order).
func (e *engine) At(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.heap, event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Run executes events until none remain, advancing virtual time.
func (e *engine) Run() {
	for len(e.heap) > 0 {
		ev := heap.Pop(&e.heap).(event)
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.fn()
	}
}

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := newEngine()
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineFIFOForTies(t *testing.T) {
	e := newEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := newEngine()
	var times []time.Duration
	e.At(10*time.Millisecond, func() {
		times = append(times, e.Now())
		e.At(5*time.Millisecond, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 10*time.Millisecond || times[1] != 15*time.Millisecond {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := newEngine()
	ran := false
	e.At(-5*time.Millisecond, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Errorf("ran=%v now=%v", ran, e.Now())
	}
}
