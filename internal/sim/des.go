// Package sim provides the discrete-event simulator and the evaluation
// scenarios of §6.3: device pairs with asymmetric batteries transferring
// data until one side dies, compared against the Bluetooth and
// best-single-mode baselines (Figs. 15–18).
//
// The package has two layers. The scenario layer (scenario.go) answers
// the figures' questions with the chunked braid engine — fast enough for
// the full 10×10 device matrices. The event layer (this file and
// traffic.go) is a small discrete-event kernel used to drive packet-level
// mac.Sessions under realistic traffic in the examples and integration
// tests.
package sim

import (
	"container/heap"
	"fmt"

	"braidio/internal/units"
)

// Event is a scheduled callback.
type Event struct {
	// Time is the absolute simulation time the event fires at.
	Time units.Second
	// Fire runs the event. It may schedule further events.
	Fire func()

	index int // heap bookkeeping
	seq   int // FIFO tiebreak for simultaneous events
}

// eventQueue implements heap.Interface ordered by (Time, seq).
type eventQueue []*Event

// Len implements heap.Interface.
func (q eventQueue) Len() int { return len(q) }

// Less implements heap.Interface.
func (q eventQueue) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}

// Swap implements heap.Interface.
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}

// Push implements heap.Interface.
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

// Pop implements heap.Interface.
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation kernel.
type Engine struct {
	now   units.Second
	queue eventQueue
	seq   int
	fired int
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() units.Second { return e.now }

// Fired returns how many events have run.
func (e *Engine) Fired() int { return e.fired }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn at an absolute time, which must not be in the past.
func (e *Engine) At(t units.Second, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", float64(t), float64(e.now)))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := &Event{Time: t, Fire: fn, seq: e.seq}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn after a non-negative delay.
func (e *Engine) After(d units.Second, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", float64(d)))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event; canceling an already-fired or
// already-canceled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 || ev.index >= len(e.queue) || e.queue[ev.index] != ev {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
}

// Step fires the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	ev.index = -1
	e.now = ev.Time
	e.fired++
	ev.Fire()
	return true
}

// RunUntil fires events until the queue drains or the next event is
// after the deadline; the clock advances to at most the deadline.
func (e *Engine) RunUntil(deadline units.Second) {
	for len(e.queue) > 0 && e.queue[0].Time <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run fires events until the queue is empty or maxEvents have fired
// (guarding against runaway self-scheduling); it returns the number of
// events fired in this call.
func (e *Engine) Run(maxEvents int) int {
	fired := 0
	for fired < maxEvents && e.Step() {
		fired++
	}
	return fired
}
