// Package sim implements a small deterministic discrete-event simulation
// engine. It is the time substrate for every experiment in this
// repository: simulated GPUs, network links and schedulers all advance a
// shared virtual clock measured in seconds.
//
// The engine is callback based. Model code schedules closures at absolute
// or relative virtual times with At and After; Run drains the event queue
// in timestamp order. Ties are broken by scheduling order, which makes
// every simulation fully deterministic: two runs of the same model produce
// identical traces.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a scheduled callback. Events are ordered by time, then by
// insertion sequence so that simultaneous events fire in the order they
// were scheduled.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// An Engine is not safe for concurrent use; all model code runs on the
// single goroutine that calls Run.
type Engine struct {
	pq      eventHeap
	now     float64
	seq     uint64
	stopped bool
}

// New returns a fresh Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it always indicates a model bug, and silently clamping
// would corrupt causality.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	e.seq++
	heap.Push(&e.pq, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Immediately schedules fn at the current time, after all events already
// queued for this instant.
func (e *Engine) Immediately(fn func()) { e.At(e.now, fn) }

// Stop makes Run return after the currently executing event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue is empty or Stop is
// called. It returns the final virtual time.
func (e *Engine) Run() float64 {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped {
		ev := heap.Pop(&e.pq).(*event)
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline and then advances
// the clock to deadline. Events scheduled beyond the deadline remain
// queued.
func (e *Engine) RunUntil(deadline float64) float64 {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped && e.pq[0].at <= deadline {
		ev := heap.Pop(&e.pq).(*event)
		e.now = ev.at
		ev.fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }
