package ptree

import (
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
)

// refill advances one assured bucket/borrow pool to now: continuous refill
// at the node's effective rate, capped at its capacity. Buckets start full,
// so no started flag is needed; refill never runs time backwards (now <=
// lastFill is a no-op, matching tbf).
func (n *node) refill(now time.Duration) {
	last := n.lastFill
	if now <= last {
		return
	}
	n.lastFill = now
	tok := n.tokens + float64(n.effRate*(now-last).Seconds()) // rounded: never fused
	if tok > n.burst {
		tok = n.burst
	}
	n.tokens = tok
}

// charge is one assured bucket on the path, with the floor a commit may
// leave it at.
type charge struct {
	n     *node
	floor float64
}

// plan is one run's node → root path and what the run has tallied. The
// path's ceilings need no list: New links them leaf → root (node.above,
// ceiling.up). Its assured buckets, node → root, each with its floor, are
// resolved by the first packet to pass every ceiling, the moment they are
// refilled, so a run turned away whole at a ceiling never looks for them;
// buckets is scratch sized at New to the deepest path.
type plan struct {
	buckets []charge
	entry   int32 // the entry node: owns the borrow layer's drops

	// The run's tally: accepted packets and bytes (the same for every node
	// on the path), and the borrow layer's drops at the entry node.
	accPkts, accBytes int64
	drpPkts, drpBytes int64
}

// settle writes a run's tally back and zeroes it: the accepted counts to
// every node on its path and to the tree's stats, the borrow layer's drops
// to the entry node and the tree's stats. (A loan counts the packets
// charged to it as it goes, once per hop that holds it.)
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

// admit runs one run of a burst, all entering at node at virtual time now,
// through the two admission layers along its path, packet by packet,
// against the run's plan. A drop is tallied at the ceiling that refused or
// in the plan; an accepted packet charges every ceiling and every assured
// bucket on the path and is tallied once for all of its nodes. The caller
// defers flush. Ceilings are handed &pkts[i], so pkts escapes: callers pass
// the caller's own burst or the tree's scratch, never a stack array.
func (t *Tree) admit(now time.Duration, node enforcer.NodeID, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	p := &t.plan
	entry := &t.nodes[node]
	first, stages := entry.above, entry.stages()
	p.entry = int32(node)
	buckets, refilled := p.buckets[:0], false
packets:
	for i := range pkts {
		size := pkts[i].Size
		// Layer 1: ceilings, two-phase. Probe every ceiling on the path; the
		// first to refuse owns the drop. Probes advance lazy drains/refills
		// but no admission state, so a later borrow-layer rejection cannot
		// corrupt any ceiling's Theorem 1 accounting. A token bucket's loan
		// opens — its bucket refills — when the first packet reaches it, and
		// stays open until flush.
		for k := first; k >= 0; {
			c := &t.ceilings[k]
			k = c.up
			if l := c.loan; l != nil {
				if !l.open {
					l.tokens, l.open = l.lender.Lend(now), true
					t.touched = append(t.touched, l) // a slot joins once: within cap
				}
				if l.tokens.Admits(size) {
					continue
				}
			} else if c.stage.Probe(now, &pkts[i]) {
				continue
			}
			if !c.open && c.drpPkts == 0 {
				t.touched = append(t.touched, c) // first drop; an open loan is listed already
			}
			c.drpPkts++
			c.drpBytes += int64(size)
			verdicts[i] = enforcer.Drop
			continue packets
		}
		// Layer 2: assured/borrow. The packet must be covered cumulatively by
		// the buckets along its path, nearest first: own assured tokens, then
		// ancestor pool tokens (idle siblings' released bandwidth). Within one
		// burst now does not move, so the buckets are resolved and brought to
		// now once, by the first packet to get here — every one of them, even
		// past the one that covers it: income must not be deferred past the
		// bucket cap. A pool ledger in debt (negative tokens, see the commit
		// below) contributes nothing until its income repays the debt.
		if !refilled {
			refilled = true
			for n := entry; ; n = &t.nodes[n.parent] {
				if n.effRate > 0 {
					n.refill(now)
					buckets = append(buckets, charge{n: n, floor: n.floor()})
				}
				if n.parent < 0 {
					break
				}
			}
		}
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
				// Over assured rate and no borrowable pool tokens. The entry
				// node owns the drop: the subtree that burst past its share.
				p.drpPkts++
				p.drpBytes += int64(size)
				verdicts[i] = enforcer.Drop
				continue
			}
		}
		// Commit: charge every ceiling — Stages first, so that a Stage that
		// panics finds no loan or bucket charged for this packet — and charge
		// every assured node on the path the full packet size. The two bucket
		// roles charge differently:
		//
		//   - A leaf guarantee bucket clamps at zero. Its refill income can
		//     then never be pre-spent, so traffic within the leaf's assured
		//     rate always finds cover there — the guarantee.
		//
		//   - An interior pool is a debt ledger, floored at -burst. A child
		//     spending its own guarantee still charges the pool (whose lend
		//     income already counts that child's rate), so the pool's level
		//     tracks pooled income minus subtree consumption: it is positive
		//     — lendable — only while some descendant underuses its share,
		//     which is precisely the HTB borrowing condition. Without the
		//     ledger a lone busy child would double-dip, spending its own
		//     bucket while the pool's trickle (fed partly by that same
		//     child's rate) covers the rest; and clamping would compound
		//     level to level, so interior nodes with their own assured rate
		//     are ledgers too. The -burst floor keeps a pool bypassed by
		//     upper-level borrowing (its subtree drawing a higher pool's
		//     surplus past this pool's own lend rate) from sinking so deep
		//     it can never lend again once demand recedes.
		if stages {
			for k := first; k >= 0; {
				c := &t.ceilings[k]
				if c.loan == nil {
					c.stage.Commit(now, &pkts[i])
				}
				k = c.up
			}
		}
		for k := first; k >= 0; {
			c := &t.ceilings[k]
			if l := c.loan; l != nil {
				l.tokens.Take(size)
				l.accPkts++
				l.accBytes += int64(size)
			}
			k = c.up
		}
		for k := range buckets {
			b := &buckets[k]
			b.n.tokens -= float64(size)
			if b.n.tokens < b.floor {
				b.n.tokens = b.floor
			}
		}
		p.accPkts++
		p.accBytes += int64(size)
		verdicts[i] = enforcer.Transmit
	}
	if p.accPkts|p.drpPkts != 0 {
		t.settle(p)
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
	if len(pkts) == 0 {
		return
	}
	defer t.flush()
	n := len(t.leaves)
	start, leaf := 0, pkts[0].ClassIn(n)
	for i := 1; i <= len(pkts); i++ {
		next := -1
		if i < len(pkts) {
			next = pkts[i].ClassIn(n)
		}
		if next != leaf {
			t.admit(now, t.leaves[leaf], pkts[start:i], verdicts[start:i])
			start, leaf = i, next
		}
	}
}

var _ enforcer.Enforcer = (*Tree)(nil)
