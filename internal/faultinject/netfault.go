// Network fault injection: deterministic, seeded fault injectors for
// message-passing components (the cluster budget-exchange protocol, or any
// future wire protocol). A NetLink wraps one DIRECTIONAL delivery function
// with the five fault classes a distributed protocol must survive:
//
//   - message loss (the frame silently disappears),
//   - duplication (the frame is delivered twice),
//   - reordering (the frame is held back and delivered after later ones),
//   - delay (the frame is held until virtual time advances past its due
//     time), and
//   - one-way partition (Cut: every frame in this direction is swallowed
//     until Heal — the asymmetric failure mode that breaks protocols which
//     conflate "I hear you" with "you hear me").
//
// Fault draws are deterministic in (seed, call sequence): the same seed over
// the same Send sequence injects the same faults, so chaos tests reproduce
// exactly. Every injected fault is counted, letting tests reconcile
// protocol-side counters against ground truth.
//
// Delay is virtual-time based: delayed frames are parked and released by
// Advance(now), never by wall-clock timers, so a chaos test driving a
// virtual clock stays deterministic. Frames are copied on ingestion — the
// caller may reuse its buffer immediately, exactly like a real socket send.
package faultinject

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bcpqp/internal/rng"
)

// NetPlan configures which faults a NetLink injects and how often. All
// probabilities are per Send call, drawn independently in a fixed order:
// drop, duplicate, delay, reorder.
type NetPlan struct {
	// Seed selects the deterministic fault stream.
	Seed uint64

	// Drop is the per-send probability of losing the frame.
	Drop float64
	// Duplicate is the per-send probability of delivering the frame twice.
	Duplicate float64
	// Delay is the per-send probability of parking the frame until virtual
	// time advances past now+DelayBy (released by Advance).
	Delay float64
	// DelayBy is the injected delay (default 10ms when Delay > 0).
	DelayBy time.Duration
	// Reorder is the per-send probability of holding the frame back and
	// delivering it after the next undelayed frame on the link.
	Reorder float64
}

// delayedFrame is one parked frame awaiting Advance past its due time.
type delayedFrame struct {
	due   time.Duration
	seq   int64 // arrival order, for a stable release order at equal due
	frame []byte
}

// NetLink injects faults on one directional message link. Send and Advance
// are safe for concurrent use; deliveries run on the calling goroutine.
type NetLink struct {
	deliver func([]byte)
	plan    NetPlan

	mu      sync.Mutex
	src     *rng.Source
	cut     bool
	held    [][]byte // reorder buffer, delivered after the next clean send
	delayed []delayedFrame
	seq     int64

	// Injected-fault ground truth, readable from any goroutine.
	Dropped    atomic.Int64 // frames lost to the Drop draw
	Duplicated atomic.Int64 // extra deliveries from the Duplicate draw
	Delayed    atomic.Int64 // frames parked by the Delay draw
	Reordered  atomic.Int64 // frames held back by the Reorder draw
	CutDropped atomic.Int64 // frames swallowed while the link was Cut
	Delivered  atomic.Int64 // frames actually handed to deliver
}

// NewNetLink wraps deliver with the given fault plan.
func NewNetLink(deliver func([]byte), plan NetPlan) *NetLink {
	if plan.Delay > 0 && plan.DelayBy <= 0 {
		plan.DelayBy = 10 * time.Millisecond
	}
	return &NetLink{deliver: deliver, plan: plan, src: rng.New(plan.Seed)}
}

// Cut opens a one-way partition: every subsequent Send in this direction is
// swallowed (and counted) until Heal. Frames already parked stay parked.
func (l *NetLink) Cut() {
	l.mu.Lock()
	l.cut = true
	l.mu.Unlock()
}

// Heal closes the partition opened by Cut.
func (l *NetLink) Heal() {
	l.mu.Lock()
	l.cut = false
	l.mu.Unlock()
}

// Send offers one frame to the link at virtual time now, applying the fault
// plan. The frame is copied, so the caller may reuse its buffer.
func (l *NetLink) Send(now time.Duration, frame []byte) {
	l.mu.Lock()
	if l.cut {
		l.CutDropped.Add(1)
		l.mu.Unlock()
		return
	}
	// Draws happen in a fixed order (drop, duplicate, delay, reorder) and
	// only for enabled fault classes, so for a given plan the fault stream
	// is a pure function of (seed, send sequence).
	if l.plan.Drop > 0 && l.src.Float64() < l.plan.Drop {
		l.Dropped.Add(1)
		l.mu.Unlock()
		return
	}
	dup := l.plan.Duplicate > 0 && l.src.Float64() < l.plan.Duplicate
	copied := append([]byte(nil), frame...)
	if l.plan.Delay > 0 && l.src.Float64() < l.plan.Delay {
		l.Delayed.Add(1)
		l.seq++
		l.delayed = append(l.delayed, delayedFrame{due: now + l.plan.DelayBy, seq: l.seq, frame: copied})
		if dup {
			// The duplicate of a delayed frame is delivered promptly: the
			// two copies then also arrive out of order, compounding the
			// fault exactly as real networks do.
			l.Duplicated.Add(1)
			l.deliverLocked(copied)
		}
		l.mu.Unlock()
		return
	}
	if l.plan.Reorder > 0 && l.src.Float64() < l.plan.Reorder {
		l.Reordered.Add(1)
		l.held = append(l.held, copied)
		l.mu.Unlock()
		return
	}
	// Clean send: deliver this frame, then flush anything held for
	// reordering (it now arrives after a frame sent later).
	l.deliverLocked(copied)
	if dup {
		l.Duplicated.Add(1)
		l.deliverLocked(copied)
	}
	l.flushHeldLocked()
	l.mu.Unlock()
}

// Advance releases every delayed frame whose due time is at or before now,
// in due-time order (arrival order at equal due times). Call it whenever
// the test's virtual clock advances.
func (l *NetLink) Advance(now time.Duration) {
	l.mu.Lock()
	if len(l.delayed) == 0 {
		l.mu.Unlock()
		return
	}
	sort.SliceStable(l.delayed, func(i, j int) bool {
		if l.delayed[i].due != l.delayed[j].due {
			return l.delayed[i].due < l.delayed[j].due
		}
		return l.delayed[i].seq < l.delayed[j].seq
	})
	i := 0
	for ; i < len(l.delayed) && l.delayed[i].due <= now; i++ {
		l.deliverLocked(l.delayed[i].frame)
	}
	l.delayed = append(l.delayed[:0], l.delayed[i:]...)
	l.mu.Unlock()
}

// flush delivers everything still parked (reorder holds first, then delayed
// frames in due order) regardless of time — the end-of-test drain.
func (l *NetLink) flush() {
	l.Advance(1 << 62)
	l.mu.Lock()
	l.flushHeldLocked()
	l.mu.Unlock()
}

// pending reports how many frames are parked (reorder holds + delayed).
func (l *NetLink) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held) + len(l.delayed)
}

// InjectedNet returns the total number of injected network faults so far.
func (l *NetLink) InjectedNet() int64 {
	return l.Dropped.Load() + l.Duplicated.Load() + l.Delayed.Load() +
		l.Reordered.Load() + l.CutDropped.Load()
}

func (l *NetLink) flushHeldLocked() {
	for _, f := range l.held {
		l.deliverLocked(f)
	}
	l.held = l.held[:0]
}

func (l *NetLink) deliverLocked(frame []byte) {
	l.Delivered.Add(1)
	l.deliver(frame)
}
