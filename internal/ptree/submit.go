package ptree

import (
	"math"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

// refill advances one assured bucket/borrow pool to now: continuous refill
// at the node's effective rate, capped at its capacity. Buckets start full
// and their clocks at 0 (New), and a refill never runs time backwards.
// effRate is in bytes/s, and ×8 here and ÷8 in the clock's read are exact,
// so the refill has the bits effRate·Δt would.
func (n *node) refill(now time.Duration) {
	n.tokens = min(n.tokens+n.clock.Bytes(now, units.Rate(8*n.effRate)), n.burst)
}

// charge is one assured bucket on the path, with the floor a commit may
// leave it at.
type charge struct {
	n     *node
	floor float64
}

// plan is one run's node → root path, what the run has tallied, and what it
// knows of its ceilings. The path's ceilings need no list: New links them
// leaf → root (node.above, ceiling.up). Its assured buckets, node → root,
// each with its floor, are resolved by the first packet to pass every
// ceiling, the moment they are refilled, so a run turned away whole at a
// ceiling never looks for them; buckets is scratch sized at New to the
// deepest path. The run's state lives here rather than in admit's locals,
// which the calls in admit's loop would spill on every packet.
type plan struct {
	buckets []charge
	nb      int      // the buckets resolved, -1 = not yet
	entry   int32    // the entry node: owns the borrow layer's drops
	first   *ceiling // the entry node's first ceiling, nil = none

	// The run's tally: accepted packets and bytes (the same for every node
	// on the path, and owed to every loan on it until the run settles), the
	// bytes owed to the path's assured buckets since a walk last paid them,
	// and the borrow layer's drops at the entry node.
	accPkts, accBytes int64
	dueBytes          int64
	drpPkts, drpBytes int64

	// lent is the lowest lent level on the path, known once a packet has
	// passed every loan: the run charges its loans only when it settles, so
	// the levels hold until then. headroom is the lowest of lent less the
	// run's accepted bytes and each assured bucket's level less the bytes
	// owed to it: a packet no larger passes every loan and is covered by
	// every bucket without reaching its floor. Both are -Inf until known and
	// stay -Inf on a path with a Stage ceiling, every packet of which walks.
	// A packet of memoSize bytes is dropped at memoOwner (nil: the borrow
	// layer) until the next accept.
	lent, headroom float64
	memoSize       int
	memoOwner      *ceiling
}

// pay charges the path's assured buckets the bytes the run owes them. Each
// owed packet found its size in every bucket's level less what was owed
// before it, so every partial sum stays within the level and one whole-byte
// subtraction (below 2^53) leaves the bits a charge per packet would.
func (p *plan) pay() {
	if p.dueBytes != 0 {
		for k := range p.buckets[:p.nb] {
			p.buckets[k].n.tokens -= float64(p.dueBytes)
		}
		p.dueBytes = 0
	}
}

// noMemo is the empty drop memo: no packet is this size.
const noMemo = math.MinInt32

// routed, as admit's node, enters each packet at the leaf its class names.
const routed enforcer.NodeID = -1

// settle writes a run's tally back and zeroes it: the accepted counts to
// every node on its path and to the tree's stats, the accepted bytes to
// every loan on its path (once per slot that holds it) and what the path's
// assured buckets are owed to them, and the borrow layer's drops to the
// entry node and the tree's stats.
func (t *Tree) settle(p *plan) {
	if p.accPkts > 0 {
		for v := p.entry; v >= 0; {
			n := &t.nodes[v]
			n.accPkts += p.accPkts
			n.accBytes += p.accBytes
			v = n.parent
		}
		t.stats.AcceptedPackets += p.accPkts
		t.stats.AcceptedBytes += p.accBytes
		for c := p.first; c != nil; c = c.up {
			if l := c.loan; l != nil {
				l.tokens.Take(p.accBytes)
				l.accPkts += p.accPkts
				l.accBytes += p.accBytes
			}
		}
		p.pay()
	}
	if p.drpPkts > 0 {
		t.drpPkts[p.entry] += p.drpPkts
		t.drpBytes[p.entry] += p.drpBytes
		t.stats.DroppedPackets += p.drpPkts
		t.stats.DroppedBytes += p.drpBytes
	}
	p.accPkts, p.accBytes, p.drpPkts, p.drpBytes = 0, 0, 0, 0
}

// flush ends a burst. It settles the run in progress, repays every open loan
// with the packets charged to it, adds each ceiling's drops to its node and
// to the tree's stats, and zeroes what it wrote back. Every entry point
// defers it, so a Stage that panics mid-burst leaves the tree consistent
// (see "Layout" in the package doc).
func (t *Tree) flush() {
	t.settle(&t.plan)
	for _, c := range t.touched {
		if c.open {
			c.lender.Repay(c.tokens, c.accPkts, c.accBytes)
		}
		if c.drpPkts > 0 {
			t.drpPkts[c.node] += c.drpPkts
			t.drpBytes[c.node] += c.drpBytes
			t.stats.DroppedPackets += c.drpPkts
			t.stats.DroppedBytes += c.drpBytes
		}
		c.open = false
		c.accPkts, c.accBytes, c.drpPkts, c.drpBytes = 0, 0, 0, 0
	}
	t.touched = t.touched[:0]
}

// refuse tallies a dropped packet at its owner: ceiling c, or the borrow
// layer at the run's entry node when c is nil.
func (t *Tree) refuse(p *plan, c *ceiling, size int) {
	if c == nil {
		p.drpPkts++
		p.drpBytes += int64(size)
		return
	}
	if !c.open && c.drpPkts == 0 {
		t.touched = append(t.touched, c) // first drop; an open loan is listed already
	}
	c.drpPkts++
	c.drpBytes += int64(size)
}

// admit runs a burst at virtual time now through the two admission layers,
// packet by packet. Every packet enters at node, or, when node is routed, at
// the leaf its class names; each run of consecutive packets that enter at
// one node is admitted along that node's path against one plan, and settled
// when it ends. A drop is tallied at the ceiling that refused or in the
// plan; an accepted packet is tallied once for all of its nodes and loans
// and charges every Stage ceiling and every assured bucket on the path, at
// once if it walked the path and when the run settles or a later packet
// walks if it did not. The caller defers flush. Ceilings are handed
// &pkts[i], so pkts escapes: callers pass the caller's own burst or the
// tree's scratch, never a stack array.
func (t *Tree) admit(now time.Duration, node enforcer.NodeID, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	p := &t.plan
	class := -1
	if node == routed && len(pkts) > 0 {
		class = pkts[0].ClassIn(len(t.leaves))
	}
	for start, end := 0, len(pkts); start < len(pkts); start = end {
		at := node
		if node == routed {
			at = t.leaves[class]
			for end = start + 1; end < len(pkts); end++ {
				if next := pkts[end].ClassIn(len(t.leaves)); next != class {
					class = next
					break
				}
			}
		}
		run, rv := pkts[:end], verdicts[:end]
		entry := &t.nodes[at]
		stages := entry.flags&flagStages != 0
		p.entry, p.first, p.nb = int32(at), nil, -1
		if entry.above >= 0 {
			p.first = &t.ceilings[entry.above]
		}
		p.lent, p.headroom, p.memoSize = math.Inf(-1), math.Inf(-1), noMemo
	packets:
		for i := start; i < len(run); i++ {
			size := run[i].Size
			// A packet no larger than the headroom passes both layers: it is
			// accepted with one compare and owed to the loans and buckets.
			if float64(size) <= p.headroom {
				p.accPkts++
				p.accBytes += int64(size)
				p.dueBytes += int64(size)
				p.headroom -= float64(size)
				p.memoSize = noMemo
				rv[i] = enforcer.Transmit
				continue
			}
			// Any other packet walks the path. Within a run at one instant,
			// levels move only when a packet is accepted: until then a
			// packet of the last dropped size is dropped where that one was.
			// A path every packet walks never memoises: a Stage's probe
			// reads more of a packet than its size.
			if size == p.memoSize {
				t.refuse(p, p.memoOwner, size)
				rv[i] = enforcer.Drop
				continue
			}
			// Layer 1: ceilings, two-phase. A loan charged to date holds L;
			// the run owes it accBytes more, so it fits the packet iff
			// L ≥ size + accBytes (whole bytes: both sides are exact), and a
			// packet that fits lent, the lowest, fits them all unwalked. Any
			// other packet walks the ceilings in path order: the first to
			// refuse (a lent bucket short of the packet, or a Stage's probe)
			// owns the drop.
			// Probes advance lazy drains/refills but no admission state, so
			// a later borrow-layer rejection cannot corrupt any ceiling's
			// Theorem 1 accounting. A token bucket's loan opens — its bucket
			// refills — when the first packet reaches it, and stays open
			// until flush, so nothing above the refusing ceiling is reached.
			if need := float64(int64(size) + p.accBytes); need > p.lent {
				low := math.Inf(1)
				for c := p.first; c != nil; c = c.up {
					if l := c.loan; l != nil {
						if !l.open {
							l.tokens, l.open = l.lender.Lend(now), true
							t.touched = append(t.touched, l) // a slot joins once: within cap
						}
						if lv := l.tokens.Level(); lv >= need {
							if lv < low {
								low = lv
							}
							continue
						}
					} else if c.stage.Probe(now, &run[i]) {
						continue
					}
					t.refuse(p, c, size)
					rv[i] = enforcer.Drop
					if !stages {
						p.memoSize, p.memoOwner = size, c
					}
					continue packets
				}
				if !stages {
					p.lent = low
				}
			}
			// Layer 2: assured/borrow. The packet must be covered
			// cumulatively by the buckets along its path, nearest first: own
			// assured tokens, then ancestor pool tokens (idle siblings'
			// released bandwidth). Within one burst now does not move, so the
			// buckets are resolved and brought to now once, by the first
			// packet to get here — every one of them, even past the one that
			// covers it: income must not be deferred past the bucket cap. A
			// walk pays the buckets what the run owes them first, so that
			// the test reads their levels. A pool ledger in debt (negative
			// tokens, see the commit below) contributes nothing until its
			// income repays the debt.
			if p.nb < 0 {
				p.nb = 0
				for n := entry; ; n = &t.nodes[n.parent] {
					if n.effRate > 0 {
						n.refill(now)
						p.buckets[p.nb] = charge{n: n, floor: n.floor()}
						p.nb++
					}
					if n.parent < 0 {
						break
					}
				}
			}
			p.pay()
			buckets := p.buckets[:p.nb]
			if len(buckets) > 0 {
				need := float64(size)
				for k := range buckets {
					if tok := buckets[k].n.tokens; tok > 0 {
						if tok >= need {
							need = 0
							break
						}
						need -= tok
					}
				}
				if need > 0 {
					// Over assured rate and no borrowable pool tokens. The
					// entry node owns the drop: the subtree that burst past
					// its share.
					t.refuse(p, nil, size)
					rv[i] = enforcer.Drop
					if !stages {
						p.memoSize, p.memoOwner = size, nil
					}
					continue
				}
			}
			// Commit: charge every Stage ceiling — first, so that a Stage
			// that panics finds nothing charged and nothing tallied for this
			// packet — then every assured node on the path the full packet
			// size; the loans are charged when the run settles. The two
			// bucket roles charge differently:
			//
			//   - A leaf guarantee bucket clamps at zero. Its refill income
			//     can then never be pre-spent, so traffic within the leaf's
			//     assured rate always finds cover there — the guarantee.
			//
			//   - An interior pool is a debt ledger, floored at -burst. A
			//     child spending its own guarantee still charges the pool
			//     (whose lend income already counts that child's rate), so
			//     the pool's level tracks pooled income minus subtree
			//     consumption: it is positive — lendable — only while some
			//     descendant underuses its share, which is precisely the HTB
			//     borrowing condition. Without the ledger a lone busy child
			//     would double-dip, spending its own bucket while the pool's
			//     trickle (fed partly by that same child's rate) covers the
			//     rest; and clamping would compound level to level, so
			//     interior nodes with their own assured rate are ledgers too.
			//     The -burst floor keeps a pool bypassed by upper-level
			//     borrowing (its subtree drawing a higher pool's surplus past
			//     this pool's own lend rate) from sinking so deep it can
			//     never lend again once demand recedes.
			//
			// The lowest level the commit leaves, and the lowest lent level
			// less the run's accepted bytes, are the headroom.
			if stages {
				for c := p.first; c != nil; c = c.up {
					if c.loan == nil {
						c.stage.Commit(now, &run[i])
					}
				}
			}
			p.accPkts++
			p.accBytes += int64(size)
			low := p.lent - float64(p.accBytes)
			for k := range buckets {
				b := &buckets[k]
				tok := b.n.tokens - float64(size)
				if tok < b.floor {
					tok = b.floor
				}
				b.n.tokens = tok
				if tok < low {
					low = tok
				}
			}
			p.headroom = low
			p.memoSize = noMemo
			rv[i] = enforcer.Transmit
		}
		if p.accPkts|p.drpPkts != 0 {
			t.settle(p)
		}
	}
}

// SubmitAt enforces one packet along the path node → root: submission at a
// chosen node, normally a leaf (an interior node enforces only its path
// upward, for traffic already aggregated there). An out-of-range node fails
// closed: the packet is dropped and counted, never passed unenforced.
func (t *Tree) SubmitAt(now time.Duration, node enforcer.NodeID, pkt packet.Packet) enforcer.Verdict {
	if !t.inRange(node) {
		t.stats.Reject(pkt.Size)
		return enforcer.Drop
	}
	t.one[0] = pkt
	var verdicts [1]enforcer.Verdict
	defer t.flush()
	t.admit(now, node, t.one[:], verdicts[:])
	t.one[0] = packet.Packet{} // hold no reference to the caller's payload
	return verdicts[0]
}

// SubmitBatchAt is the burst path of SubmitAt: the whole burst enters at
// one node and virtual time, so the node → root path is resolved once and
// the loop touches only that path's records — zero allocations. Verdicts
// are byte-identical to per-packet SubmitAt calls in order.
func (t *Tree) SubmitBatchAt(now time.Duration, node enforcer.NodeID, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	if !t.inRange(node) {
		for i := range pkts {
			t.stats.Reject(pkts[i].Size)
			verdicts[i] = enforcer.Drop
		}
		return
	}
	defer t.flush()
	t.admit(now, node, pkts, verdicts)
}

// SubmitBatch implements enforcer.Enforcer by routing each packet to a
// leaf by its class (explicit Class if set, else the flow-key hash), exactly
// how a flat aggregate spreads flows over queues. This is what lets a whole
// tree stand wherever a single enforcer does — one mbox aggregate, the
// facade, the proxy — with node-addressed submission (SubmitAt,
// SubmitBatchAt) alongside. Packets in a mixed burst may route to different
// leaves, so each run of consecutive packets bound for one leaf is admitted
// in place as one run at that leaf, and the runs share one burst: a token
// bucket's loan opens once for all of them, and one flush ends them.
// Nothing is copied and nothing allocates. Verdicts are byte-identical to
// the same packets submitted as bursts of one, in order.
func (t *Tree) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	defer t.flush()
	t.admit(now, routed, pkts, verdicts)
}

var _ enforcer.Enforcer = (*Tree)(nil)
