// Package sim implements the discrete-event engine on which all experiments
// run.
//
// The engine maintains a virtual clock and a binary heap of pending events.
// Events scheduled for the same instant fire in scheduling order (a stable
// sequence number breaks timestamp ties), which keeps runs deterministic.
// Virtual time is represented as time.Duration since the start of the run.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel pending events (e.g. retransmission timers).
type Event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	index int // heap index; -1 once fired or cancelled
}

// Cancelled reports whether the event was cancelled or has already fired.
func (e *Event) Cancelled() bool { return e.index < 0 }

// Loop is a single-threaded discrete-event loop.
type Loop struct {
	now    time.Duration
	seq    uint64
	events eventHeap
}

// NewLoop returns an empty event loop at virtual time zero.
func NewLoop() *Loop {
	return &Loop{}
}

// Now returns the current virtual time.
func (l *Loop) Now() time.Duration { return l.now }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it always indicates a logic error in a discrete-event model.
func (l *Loop) At(t time.Duration, fn func()) *Event {
	if t < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, l.now))
	}
	e := &Event{at: t, seq: l.seq, fn: fn}
	l.seq++
	heap.Push(&l.events, e)
	return e
}

// After schedules fn to run d after the current virtual time.
func (l *Loop) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return l.At(l.now+d, fn)
}

// Cancel removes a pending event. Cancelling a fired or already-cancelled
// event is a no-op.
func (l *Loop) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&l.events, e.index)
	e.index = -1
	e.fn = nil
}

// step fires the next pending event. It returns false if no events remain.
func (l *Loop) step() bool {
	if len(l.events) == 0 {
		return false
	}
	e := heap.Pop(&l.events).(*Event)
	e.index = -1
	l.now = e.at
	fn := e.fn
	e.fn = nil
	fn()
	return true
}

// Run fires events until the queue empties or virtual time would pass until.
// The clock is left at min(until, time of last fired event); events scheduled
// after until remain pending.
func (l *Loop) Run(until time.Duration) {
	for len(l.events) > 0 {
		if l.events[0].at > until {
			break
		}
		l.step()
	}
	if l.now < until {
		l.now = until
	}
}

// RunAll fires events until none remain. Use only in workloads that are
// guaranteed to quiesce.
func (l *Loop) RunAll() {
	for l.step() {
	}
}

// eventHeap orders events by (timestamp, sequence).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
