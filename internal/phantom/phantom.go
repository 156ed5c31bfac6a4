// Package phantom implements the paper's primary contribution: a traffic
// policer built from phantom queues (PQP, §3) and its burst-controlled
// extension (BC-PQP, §4).
//
// A phantom queue simulates the occupancy of a shaper's drop-tail queue
// using byte counters, without buffering any real packets. On arrival a
// packet is transmitted immediately if its queue has spare (simulated)
// capacity — in which case a "phantom" copy worth the packet size is
// enqueued — and dropped otherwise. Phantom packets are dequeued at the rate
// the configured rate-sharing policy assigns to their queue; dequeues are
// lazy and batched (counters advance on the next arrival), which is the
// efficiency trick that lets PQP approach plain token-bucket cost.
//
// BC-PQP adds the burst-control mechanism of §4: per-queue accept-rate
// accounting over tumbling windows of length T. If a queue accepts more
// than θ⁺·r_i*·T bytes within a window — r_i* being its policy-assigned
// drain rate estimated from the set of active queues — the queue is
// "magically" filled to capacity with magic bytes, forcing the flow into
// steady state without the giant slow-start burst an O(BDP²) queue would
// otherwise admit. When the accept rate falls below θ⁻·r_i*·T the remaining
// magic bytes are reclaimed so a departing flow frees its rate share
// immediately. θ⁺, θ⁻ and T are the paper's constants (thetaHi, thetaLo,
// Window), not options: a Config carries only what a deployment chooses —
// rate, queues, buffer size, policy, and the §3.3 extensions.
//
// # Layout
//
// The paper's pitch is that a subscriber costs counters, not objects, and
// the state is laid out to keep that true at table scale. A PQP is three
// allocations, none of them made after New: the PQP itself (288 bytes, a
// malloc size class: configuration, aggregate statistics, the drain clock,
// the share cache), the queue array, and one mask word per 64 queues (which
// queues are occupied). A 16-queue subscriber is 2,344 bytes.
//
// A queue is 128 bytes, two cache lines, and holds no pointers, so the
// collector never scans the array. The first line is what an admission
// decision or a drain reads and writes — occupancy, the burst-control window,
// the per-class counters, the FIFO cursor, and the real bytes accepted since
// the FIFO was last brought up to date (the tail). The second is the FIFO as
// of that moment: a ring of sixteen runs, each a signed 32-bit byte count,
// positive for real phantom bytes and negative for magic.
//
// The FIFO exists only so that a reclaim removes exactly the magic bytes that
// have not yet drained, so it is kept lazily. An accept adds to the length
// and the tail, a drain subtracts from the length, and neither touches the
// second line; the runs are implied — the stored ones followed by the tail,
// less what must come off the front for the total to be the length — until
// something reads or appends runs and syncs them first: a magic fill, a
// closed window's reclaim, MagicBytes, SnapshotState, and the tail handing
// over before it would pass 2 GiB. Pushes go on the back and drains come off
// the front and never exceed what the queue held, so applying them late
// leaves the runs an eager FIFO would hold. MagicBytes and SnapshotState
// therefore write to the queue they read; like every other method of a PQP
// they belong to the goroutine that owns it.
//
// The ring-spill rule: a queue's FIFO moves, whole, to a heap deque of
// 64-bit runs when it needs a seventeenth run or holds a run of 2 GiB or
// more, and moves back — releasing the deque — once it is down to eight
// runs that all fit. While it is there it is kept eagerly, each accept and
// drain applied to the deque as it happens. A conforming flow holds one real run and, after a
// slow-start fill, one magic run. The long FIFOs come from flows that stay
// above θ⁺ inside one window: each drain frees a little room, the refill is
// a real run, and the sub-MSS remainder is filled with magic again, a pair
// of runs per drain. Runs of 2 GiB arise when the queue size itself is that
// large, i.e. for plans of several hundred Mbps at the recommended sizing.
//
// Single-level weighted policies (per-flow fairness, weighted fairness) are
// reduced at New to their weights — one read-only slice, shared by every
// equal-weight PQP in the process — and r_i* and the GPS drain are loops
// over the occupied mask. Hierarchical and priority policies keep their
// sched.Policy tree and walk it.
package phantom

import (
	"fmt"
	"math/bits"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// The burst-control parameters of §4: θ⁺ and θ⁻ bound New Reno's
// steady-state rate oscillation (4/3·r and 2/3·r, applied with margin as 1.5
// and 0.5), and T approximates a p99 WAN RTT.
const (
	thetaHi = 1.5
	thetaLo = 0.5
	Window  = 100 * time.Millisecond
)

// windowSec is Window in seconds, the T of X_i = r_i*·T.
const windowSec = float64(Window) / float64(time.Second)

// Config configures a PQP or BC-PQP enforcer for one traffic aggregate.
type Config struct {
	// Rate is the aggregate rate to enforce.
	Rate units.Rate
	// Queues is the number of phantom queues N. Flows are classified
	// into queues by flow-key hash unless packets carry explicit classes.
	Queues int
	// QueueSize is the simulated buffer size B of each queue in bytes.
	// For correct average-rate enforcement it must be at least the Reno
	// requirement BDP²/18 × MSS (Appendix A); with burst control enabled
	// there is no upper limit and the paper recommends a very large value
	// (≥ 10× the requirement).
	QueueSize int64
	// Policy is the rate-sharing policy across queues. Nil means per-flow
	// fairness (equal-weight sharing over Queues classes).
	Policy *sched.Policy
	// BurstControl enables the BC-PQP mechanism with the paper's θ⁺,
	// θ⁻ and T (thetaHi, thetaLo, Window). When false the enforcer is
	// plain PQP.
	BurstControl bool
	// RED optionally enables RED-style early drops on the simulated
	// occupancy (the §3.3 active-queue-management extension).
	RED *REDConfig
	// Filter optionally rejects packets at arrival by arbitrary
	// criteria before any queue accounting (the §3.3 access-control
	// extension). Returning false drops the packet.
	Filter func(pkt packet.Packet) bool
}

// PQP is a phantom-queue policer (optionally burst-controlled) for a single
// traffic aggregate. It is not safe for concurrent use; shard aggregates
// across goroutines instead, as a middlebox shards across cores.
type PQP struct {
	// cfg.Policy is kept only for hierarchical and priority policies;
	// single-level weighted ones are reduced to weights and the tree is
	// let go.
	cfg   Config
	stats enforcer.Stats
	// onEvent is the observability hook SetOnEvent installs; nil when
	// nothing watches.
	onEvent func(Event)

	// All per-queue state (see queue).
	queueTable

	drainClock  units.Clock
	drainCredit float64 // fractional bytes of drain budget carried over
	// drainBatch is the drain budget (bytes) that must accrue before a
	// full-queue arrival runs the batched phantom dequeue: 4 MSS, capped
	// at a quarter of the queue so tiny queues still free space at
	// per-packet granularity, and never below one MSS. It amortizes
	// dequeue work over several packets at the cost of at most drainBatch
	// bytes of extra admission burstiness, negligible next to B.
	drainBatch int64

	// weights is the whole policy when it is single-level weighted (fair,
	// weighted fair): r_i* = rate·w_i/Σ_occupied w and the GPS drain are
	// loops over the occupied mask, with no tree and no closures. The
	// slice is read-only and, for equal weights, shared by every PQP. Nil
	// for hierarchical or priority policies, which walk cfg.Policy.
	weights []float64
	// wsum (weights) or shares (trees) cache the share computation for
	// the current occupied set, valid while sharesValid (which the queue
	// table clears whenever a queue transitions between empty and
	// occupied), so the per-packet burst-control check is a cached read.
	// memoBytes is X_i under wsum for the weight of class memoClass (-1:
	// none yet): equal weights divide once per occupied set, not per accept.
	wsum      float64
	memoBytes float64
	shares    []float64

	// red holds per-queue RED state when the AQM extension is enabled.
	red []redState
}

// New validates cfg and returns a PQP (or BC-PQP when cfg.BurstControl).
func New(cfg Config) (*PQP, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("phantom: non-positive rate %v", cfg.Rate)
	}
	if cfg.Queues <= 0 {
		return nil, fmt.Errorf("phantom: need at least one queue, got %d", cfg.Queues)
	}
	if cfg.QueueSize < units.MSS {
		return nil, fmt.Errorf("phantom: queue size %d below one MSS", cfg.QueueSize)
	}
	if cfg.Policy != nil && cfg.Policy.NumClasses() != cfg.Queues {
		return nil, fmt.Errorf("phantom: policy covers %d classes but enforcer has %d queues",
			cfg.Policy.NumClasses(), cfg.Queues)
	}
	p := &PQP{
		cfg:        cfg,
		queueTable: newQueueTable(cfg.Queues),
		drainBatch: max(min(4*units.MSS, cfg.QueueSize/4), units.MSS),
	}
	p.installPolicy(cfg.Policy)
	if cfg.RED != nil {
		if err := cfg.RED.validate(cfg.QueueSize); err != nil {
			return nil, err
		}
		p.cfg.RED = cfg.RED
		p.red = make([]redState, cfg.Queues)
		for i := range p.red {
			p.red[i].rng = (cfg.RED.Seed+uint64(i))*0x9E3779B97F4A7C15 | 1
		}
	}
	return p, nil
}

// MustNew is New that panics on error, for tests and static configuration.
func MustNew(cfg Config) *PQP {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// installPolicy makes policy (nil = per-flow fairness) the rate-sharing
// policy. The caller has checked its class count.
func (p *PQP) installPolicy(policy *sched.Policy) {
	p.sharesValid = false
	if policy == nil {
		p.weights = sched.EqualWeights(p.cfg.Queues)
	} else {
		p.weights = policy.FlatWeighted()
	}
	if p.weights != nil {
		p.cfg.Policy, p.shares = nil, nil
		return
	}
	p.cfg.Policy = policy
	if p.shares == nil {
		p.shares = make([]float64, p.cfg.Queues)
	}
}

// Submit enforces one packet: a burst of one through SubmitBatch. Virtual
// time must be non-decreasing.
func (p *PQP) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	pkts := [1]packet.Packet{pkt}
	var v [1]enforcer.Verdict
	p.SubmitBatch(now, pkts[:], v[:])
	return v[0]
}

// accept performs the admission bookkeeping shared by SubmitBatch and
// Commit: the phantom enqueue, the class counters, and burst-control
// window accounting (including the θ⁺ magic fill). The aggregate statistics
// are the caller's, counted before the call so that a fill event sees them.
func (p *PQP) accept(now time.Duration, class int, q *queue, size int64) {
	p.pushReal(class, size)
	q.acceptedPackets++
	q.acceptedBytes += size

	if p.cfg.BurstControl {
		if !q.open {
			q.open = true
			q.windowStart = now
			q.accepted = 0
		}
		q.accepted += size
		// High-threshold check: if this queue accepted more than
		// θ⁺·r_i*·T in the current window, fill it with magic bytes.
		x := p.expectedWindowBytes(class)
		if x > 0 && float64(q.accepted) > thetaHi*x {
			p.fillMagic(now, class, q)
		}
	}
}

// emit publishes an observability event when a handler is attached.
func (p *PQP) emit(now time.Duration, class int, kind EventKind, bytes, qlen int64) {
	if p.onEvent != nil {
		p.onEvent(Event{Time: now, Class: class, Kind: kind, Bytes: bytes, QueueLen: qlen})
	}
}

// emitDrop publishes an EventDrop qualified with its reason.
func (p *PQP) emitDrop(now time.Duration, class int, size, qlen int64, reason DropReason) {
	if p.onEvent != nil {
		p.onEvent(Event{Time: now, Class: class, Kind: EventDrop, Bytes: size, QueueLen: qlen, Reason: reason})
	}
}

// SetOnEvent installs or replaces the observability hook, which observes
// every queue transition (accepts, drops, marks, magic fills and reclaims)
// synchronously — the hook production deployments use for flight recording
// and debugging. Handlers must be fast and must not call back into the
// enforcer. SetOnEvent mutates enforcer state: call it only from the
// goroutine that owns the enforcer (under mbox, via Engine.Flush so it runs
// on the owning shard), never concurrently with Submit or Tick. A nil fn
// detaches the hook.
func (p *PQP) SetOnEvent(fn func(Event)) { p.onEvent = fn }

// Probe reports whether a packet would be admitted at now, applying the
// same batched lazy drains as Submit but changing no admission state. It
// considers simulated-buffer capacity only — RED and arrival filters are
// properties of a specific enforcement point, not of capacity, and remain
// Submit-only. Probe/Commit implement two-phase admission for cascaded
// (multi-level) rate limits: probe every level, commit only if all accept,
// so no phantom copy is ever enqueued for a packet another level drops.
func (p *PQP) Probe(now time.Duration, pkt *packet.Packet) bool {
	if _, started := p.drainClock.Last(); !started {
		p.drainClock.Start(now) // as SubmitBatch does
	}
	class := pkt.ClassIn(p.cfg.Queues)
	q := &p.queues[class]
	size := int64(pkt.Size)
	if q.length+size > p.cfg.QueueSize &&
		p.drainClock.Peek(now, p.cfg.Rate, p.drainCredit) >= float64(p.drainBatch) {
		p.advance(now)
	}
	return q.length+size <= p.cfg.QueueSize
}

// Commit admits a packet previously accepted by Probe: the phantom copy is
// enqueued and burst-control accounting runs. The pair (Probe → all levels
// accept → Commit) must happen at the same virtual time.
func (p *PQP) Commit(now time.Duration, pkt *packet.Packet) {
	class := pkt.ClassIn(p.cfg.Queues)
	q := &p.queues[class]
	size := int64(pkt.Size)
	if p.cfg.BurstControl && q.windowDue(now) {
		p.closeWindow(now, class, q)
	}
	p.stats.Accept(pkt.Size)
	p.accept(now, class, q, size)
	p.emit(now, class, eventAccept, size, q.length)
}

// Tick advances phantom drains and burst-control windows to now without
// submitting a packet. Experiments call it periodically so idle queues
// reclaim magic bytes and share estimates stay fresh even when an aggregate
// goes quiet.
func (p *PQP) Tick(now time.Duration) {
	p.advance(now)
	if p.cfg.BurstControl {
		for i := range p.queues {
			if q := &p.queues[i]; q.windowDue(now) {
				p.closeWindow(now, i, q)
			}
		}
	}
}

// advance performs the batched lazy phantom dequeues: it distributes the
// drain budget accumulated since the last advance across occupied queues
// according to the policy, exactly as the analogous shaper would serve them.
//
// Admission performs no phantom dequeue of its own: SubmitBatch and Probe
// call advance only when the target queue's stale occupancy looks full (or
// RED needs a fresh average) AND at least drainBatch bytes of drain budget
// have accrued, amortizing dequeue work over several packets (§3.1's
// "phantom dequeues can be batched and done only when the phantom queue
// becomes full"). Stale occupancy only ever overestimates, so admission
// after the batched drain decides as an eagerly drained queue would, and
// unapplied budget is never lost, so the long-term rate is exact.
func (p *PQP) advance(now time.Duration) {
	whole := p.drainClock.Whole(now, p.cfg.Rate, &p.drainCredit)
	if whole <= 0 {
		return
	}
	if p.weights != nil {
		p.flatDrain(whole)
		return
	}
	p.cfg.Policy.Drain(whole,
		func(class int) int64 { return p.queues[class].length },
		p.drain)
}

// flatDrain is the allocation-free GPS drain for single-level weighted
// policies: the budget is split among occupied queues in weight proportion,
// re-allocating the slack of queues that empty (work conservation).
func (p *PQP) flatDrain(budget int64) {
	w := p.weights
	for budget > 0 && p.anyOccupied() {
		wsum := p.occupiedWeight()
		// alloc is queue i's share of the budget as it stands, remembered
		// for the last (budget, weight): equal weights divide once a pass.
		memoBudget, memoWeight, memoAlloc := int64(-1), 0.0, int64(0)
		alloc := func(i int) int64 {
			if wi := w[i]; wi != memoWeight || budget != memoBudget {
				memoBudget, memoWeight, memoAlloc = budget, wi, int64(float64(budget)*wi/wsum)
			}
			return memoAlloc
		}
		// Drain queues whose backlog fits inside their allocation
		// first; if none fits, hand out proportional shares (plus the
		// rounding remainder) and finish.
		drainedSmall := false
		for base, word := range p.masks {
			for m := word; m != 0; m &= m - 1 {
				i := base<<6 + bits.TrailingZeros64(m)
				if q := &p.queues[i]; q.length <= alloc(i) {
					budget -= q.length
					p.drain(i, q.length)
					drainedSmall = true
				}
			}
		}
		if drainedSmall {
			continue
		}
		// Every occupied queue is longer than its allocation, so none
		// empties here.
		var consumed int64
		for base, word := range p.masks {
			for m := word; m != 0; m &= m - 1 {
				i := base<<6 + bits.TrailingZeros64(m)
				a := alloc(i)
				p.drain(i, a)
				consumed += a
			}
		}
		// Rounding remainder: give leftover bytes to queues with
		// remaining backlog, one pass.
		leftover := budget - consumed
		for base, word := range p.masks {
			for m := word; m != 0 && leftover > 0; m &= m - 1 {
				i := base<<6 + bits.TrailingZeros64(m)
				d := min(leftover, p.queues[i].length)
				p.drain(i, d)
				leftover -= d
			}
		}
		return
	}
}

// occupiedWeight returns Σ w over the occupied queues, cached until the
// occupied set changes.
func (p *PQP) occupiedWeight() float64 {
	if !p.sharesValid {
		p.wsum = p.sumWeights()
		p.sharesValid = true
		p.memoClass = -1
	}
	return p.wsum
}

// sumWeights adds up the occupied queues' weights in class order, the order
// sched.Policy.Shares visits the leaves of a fair or weighted-fair policy.
func (p *PQP) sumWeights() float64 {
	var sum float64
	for base, word := range p.masks {
		for m := word; m != 0; m &= m - 1 {
			sum += p.weights[base<<6+bits.TrailingZeros64(m)]
		}
	}
	return sum
}

// windowDue reports whether q has a burst-control window open that has run
// its length by now: the guard in front of every closeWindow, false again as
// soon as that has run (the window is gone or restarted at now < now + T).
func (q *queue) windowDue(now time.Duration) bool {
	return q.open && now >= q.windowStart+Window
}

// closeWindow closes queue class's expired burst-control window (windowDue):
// if the queue accepted less than θ⁻·r_i*·T bytes it is "finishing", so
// remaining magic bytes are reclaimed and its rate share frees up
// immediately.
func (p *PQP) closeWindow(now time.Duration, class int, q *queue) {
	// An empty queue holds no magic, so r_i* is only worked out for
	// queues that might reclaim.
	if q.length > 0 && float64(q.accepted) < thetaLo*p.expectedWindowBytes(class) {
		if reclaimed := p.reclaimMagic(class); reclaimed > 0 {
			p.emit(now, class, EventMagicReclaim, reclaimed, q.length)
		}
	}
	if q.length == 0 {
		q.open = false
		q.accepted = 0
		return
	}
	q.windowStart = now
	q.accepted = 0
}

// expectedWindowBytes returns X_i = r_i*·T: the bytes queue class is
// expected to drain over one window given the current occupied set, with
// the class itself counted active (it is being evaluated because it carries
// traffic).
func (p *PQP) expectedWindowBytes(class int) float64 {
	rate := p.cfg.Rate.BytesPerSecond()
	if w := p.weights; w != nil {
		if !p.isOccupied(class) {
			// Only a zero-size accept gets here: count the class in
			// without caching the sum.
			bit := uint64(1) << (class & 63)
			*p.occupiedWord(class) |= bit
			wsum := p.sumWeights()
			*p.occupiedWord(class) &^= bit
			return rate * w[class] / wsum * windowSec
		}
		wsum := p.occupiedWeight()
		if c := p.memoClass; c < 0 || w[c] != w[class] {
			p.memoClass, p.memoBytes = int32(class), rate*w[class]/wsum*windowSec
		}
		return p.memoBytes
	}
	if !p.sharesValid || (p.queues[class].length == 0 && p.shares[class] == 0) {
		p.cfg.Policy.Shares(rate,
			func(c int) bool { return c == class || p.queues[c].length > 0 },
			p.shares)
		p.sharesValid = p.queues[class].length > 0
	}
	return p.shares[class] * windowSec
}

// fillMagic vacuously fills q to capacity with magic bytes.
func (p *PQP) fillMagic(now time.Duration, class int, q *queue) {
	m := p.cfg.QueueSize - q.length
	if m <= 0 {
		return
	}
	p.pushRun(class, -m)
	p.emit(now, class, EventMagicFill, m, q.length)
}

// QueueLength returns the simulated occupancy (including magic bytes) of
// queue class, after any pending batched dequeues are accounted for by the
// most recent Submit/Tick.
func (p *PQP) QueueLength(class int) int64 { return p.queues[class].length }

// MagicBytes returns the magic bytes currently in queue class. It brings the
// queue's FIFO up to date, so it is for the owning goroutine only.
func (p *PQP) MagicBytes(class int) int64 { return p.magic(class) }

// EnforcerStats implements enforcer.StatsReader.
func (p *PQP) EnforcerStats() enforcer.Stats { return p.stats }

// ClassStats returns accepted/dropped counters for one queue.
func (p *PQP) ClassStats(class int) (acceptedPkts, acceptedBytes, droppedPkts, droppedBytes int64) {
	q := &p.queues[class]
	return q.acceptedPackets, q.acceptedBytes, q.droppedPackets, q.droppedBytes
}

// NumQueues returns the configured number of phantom queues.
func (p *PQP) NumQueues() int { return p.cfg.Queues }

var _ enforcer.Enforcer = (*PQP)(nil)
var _ enforcer.StatsReader = (*PQP)(nil)
