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
	tok := n.tokens + n.effRate*(now-last).Seconds()
	if tok > n.burst {
		tok = n.burst
	}
	n.tokens = tok
}

// reject attributes a dropped packet to the node responsible.
func (t *Tree) reject(idx int32, size int) {
	t.drpPkts[idx]++
	t.drpBytes[idx] += int64(size)
	t.stats.Reject(size)
}

// admit runs a burst, all entering at path[0] at virtual time now, through
// the two admission layers along path (node → root), packet by packet. On
// drop, the rejection is attributed to the responsible node's counters; on
// accept, every path node's accounting and every assured bucket on the path
// is charged.
func (t *Tree) admit(now time.Duration, path []hop, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	// Within one burst now does not move, so the path's assured buckets
	// need bringing to now once: by the first packet to reach the borrow
	// layer, not on entry — a burst no ceiling lets through must leave the
	// refill clocks where they were (see "Layout" in the package doc).
	refilled := false
packets:
	for i := range pkts {
		pkt := &pkts[i]
		// Layer 1: ceilings, two-phase. Probe every stage on the path; the
		// first to refuse owns the drop. Probes advance lazy drains/refills
		// but no admission state, so a later borrow-layer rejection cannot
		// corrupt any ceiling's Theorem 1 accounting.
		for k := range path {
			if h := &path[k]; h.stage != nil && !h.stage.Probe(now, *pkt) {
				t.reject(h.idx, pkt.Size)
				verdicts[i] = enforcer.Drop
				continue packets
			}
		}
		// Layer 2: assured/borrow. The packet must be covered cumulatively by
		// the buckets along its path, nearest first: own assured tokens, then
		// ancestor pool tokens (idle siblings' released bandwidth). Every
		// assured node is refilled even once covered — income must not be
		// deferred past the bucket cap. A pool ledger in debt (negative
		// tokens, see the commit below) contributes nothing until its income
		// repays the debt.
		if !refilled {
			refilled = true
			for k := range path {
				if n := path[k].n; n.effRate > 0 {
					n.refill(now)
				}
			}
		}
		need := float64(pkt.Size)
		assured := false
		for k := range path {
			n := path[k].n
			if n.effRate <= 0 {
				continue
			}
			assured = true
			if tok := n.tokens; need > 0 && tok > 0 {
				if tok >= need {
					need = 0
				} else {
					need -= tok
				}
			}
		}
		if assured && need > 0 {
			// Over assured rate and no borrowable pool tokens. The entry
			// node owns the drop: the subtree that burst past its share.
			t.reject(path[0].idx, pkt.Size)
			verdicts[i] = enforcer.Drop
			continue
		}
		// Commit: charge every ceiling, and charge every assured node on the
		// path the full packet size. The two bucket roles charge differently:
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
		for k := range path {
			h := &path[k]
			if h.stage != nil {
				h.stage.Commit(now, *pkt)
			}
			n := h.n
			if n.effRate > 0 {
				n.tokens -= float64(pkt.Size)
				if floor := n.floor(); n.tokens < floor {
					n.tokens = floor
				}
			}
			n.accPkts++
			n.accBytes += int64(pkt.Size)
		}
		t.stats.Accept(pkt.Size)
		verdicts[i] = enforcer.Transmit
	}
}

// SubmitAt implements enforcer.TreeEnforcer: enforce one packet along the
// path node → root. An out-of-range node fails closed.
func (t *Tree) SubmitAt(now time.Duration, node enforcer.NodeID, pkt packet.Packet) enforcer.Verdict {
	if !t.inRange(node) {
		t.stats.Reject(pkt.Size)
		return enforcer.Drop
	}
	pkts, verdicts := [1]packet.Packet{pkt}, [1]enforcer.Verdict{}
	t.admit(now, t.fillPath(node), pkts[:], verdicts[:])
	return verdicts[0]
}

// SubmitBatchAt implements enforcer.TreeEnforcer: the whole burst enters at
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
	t.admit(now, t.fillPath(node), pkts, verdicts)
}

// Submit implements enforcer.Enforcer by routing the packet to a leaf by
// its class (explicit Class if set, else the flow-key hash), exactly how a
// flat aggregate spreads flows over queues. This is what lets a whole tree
// stand wherever a single enforcer does — one mbox aggregate, the facade,
// the proxy — with leaf-addressed submission layered on top.
func (t *Tree) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	return t.SubmitAt(now, t.leaves[pkt.ClassIn(len(t.leaves))], pkt)
}

// SubmitBatch implements enforcer.BatchSubmitter. Packets in a mixed burst
// may route to different leaves, so each is path-resolved individually;
// the path scratch is reused and nothing allocates.
func (t *Tree) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	for i := range pkts {
		verdicts[i] = t.Submit(now, pkts[i])
	}
}

var _ enforcer.Enforcer = (*Tree)(nil)
var _ enforcer.BatchSubmitter = (*Tree)(nil)
