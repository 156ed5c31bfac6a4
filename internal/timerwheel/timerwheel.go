// Package timerwheel implements a hashed timing wheel (Varghese & Lauck,
// SOSP '87), the data structure the paper notes is used to schedule shaper
// dequeue calls efficiently at scale (§2.1).
//
// Timers hash into a fixed ring of slots by expiry tick; each slot holds an
// unordered list with a rounds counter for expiries beyond one wheel
// revolution. Scheduling and cancelling are O(1); advancing does O(1)
// amortized work per elapsed tick plus O(1) per fired timer.
package timerwheel

import (
	"fmt"
	"time"
)

// Timer is a handle to a scheduled callback.
type Timer struct {
	due    time.Duration
	rounds int
	fn     func()
	slot   int
	index  int // position within slot; -1 when fired/cancelled
}

// Wheel is a single-level hashed timing wheel over virtual time.
type Wheel struct {
	tick    time.Duration
	slots   [][]*Timer
	cursor  int           // slot whose timers fire next
	horizon time.Duration // virtual time already processed
	pending int
}

// New returns a wheel with the given tick granularity and slot count.
func New(tick time.Duration, numSlots int) (*Wheel, error) {
	if tick <= 0 {
		return nil, fmt.Errorf("timerwheel: non-positive tick %v", tick)
	}
	if numSlots < 2 {
		return nil, fmt.Errorf("timerwheel: need at least 2 slots, got %d", numSlots)
	}
	return &Wheel{
		tick:  tick,
		slots: make([][]*Timer, numSlots),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(tick time.Duration, numSlots int) *Wheel {
	w, err := New(tick, numSlots)
	if err != nil {
		panic(err)
	}
	return w
}

// Schedule registers fn to fire when Advance passes virtual time at. Times
// earlier than the processed horizon fire on the next Advance.
func (w *Wheel) Schedule(at time.Duration, fn func()) *Timer {
	if at < w.horizon {
		at = w.horizon
	}
	// Round up to the next tick boundary (minimum one tick ahead) so a
	// timer never lands in the slot currently being processed, which
	// would delay it a full wheel revolution.
	ticksAhead := int((at - w.horizon + w.tick - 1) / w.tick)
	if ticksAhead < 1 {
		ticksAhead = 1
	}
	n := len(w.slots)
	t := &Timer{
		due:    at,
		rounds: ticksAhead / n,
		fn:     fn,
		slot:   (w.cursor + ticksAhead) % n,
	}
	t.index = len(w.slots[t.slot])
	w.slots[t.slot] = append(w.slots[t.slot], t)
	w.pending++
	return t
}

// cancel removes a pending timer; cancelling a fired timer is a no-op.
func (w *Wheel) cancel(t *Timer) {
	if t == nil || t.index < 0 {
		return
	}
	slot := w.slots[t.slot]
	last := len(slot) - 1
	slot[t.index] = slot[last]
	slot[t.index].index = t.index
	w.slots[t.slot] = slot[:last]
	t.index = -1
	t.fn = nil
	w.pending--
}

// Advance processes all ticks up to virtual time now, firing due timers.
// A timer fires on the first tick boundary at or after its due time (never
// early, less than one tick late). Within a tick, firing order is NOT
// guaranteed (slots are unordered); callers needing sub-tick ordering
// should use a finer tick.
func (w *Wheel) Advance(now time.Duration) {
	for w.horizon+w.tick <= now {
		w.horizon += w.tick
		w.cursor = (w.cursor + 1) % len(w.slots)
		w.fireSlot()
	}
}

// fireSlot fires round-zero timers in the cursor slot and decrements the
// rest.
func (w *Wheel) fireSlot() {
	slot := w.slots[w.cursor]
	keep := slot[:0]
	var fire []*Timer
	for _, t := range slot {
		if t.rounds > 0 {
			t.rounds--
			keep = append(keep, t)
			continue
		}
		fire = append(fire, t)
	}
	for i := range keep {
		keep[i].index = i
	}
	w.slots[w.cursor] = keep
	for _, t := range fire {
		t.index = -1
		fn := t.fn
		t.fn = nil
		w.pending--
		fn()
	}
}
