// The share calculus: how a global drain rate r is split across N nodes so
// that the cluster-wide Theorem-1 bound holds under ANY message delivery
// schedule — loss, duplication, reordering, unbounded delay, one-way
// partitions, split brain.
//
// Naive symmetric rebalancing (every node recomputes Σr_i = r from its own
// view of everyone's demand) is unsafe: two nodes with skewed views can
// both conclude they deserve the slack, and for a few windows the cluster
// enforces more than r. Leader-based assignment moves the problem to
// split brain. This package instead uses conservative budget grants,
// HTB-style borrowing (PAPERS.md: arxiv 2109.12879) generalized from tree
// siblings to machines:
//
//   - Every node statically owns the floor F = r/N. A node never exceeds
//     its floor except by explicit grants from peers.
//
//   - A node with surplus (observed demand well under its floor) cedes
//     budget via per-peer grants in its report, and HOLDS the ceded amount
//     out of its own share for holdTicks windows — per grantee, the
//     maximum granted to that peer over the hold window stays held.
//
//   - A grantee honors a peer's grant only while the carrying report is
//     FRESH (received within freshFor) and ECHO-VALID: the report echoes a
//     recent sequence number of OURS (within echoSlack ticks), proving the
//     grantor heard us recently and bounding the report's age even under
//     arbitrary network delay — the TCP-timestamp trick applied to budget.
//
// Safety: an honored grant g from peer P was carried by a report created
// at most echoSlack of our ticks before delivery and honored for at most
// freshFor after, a horizon < holdTicks windows; P holds max-over-window
// per grantee, so even when different grantees honor grants from different
// reports of P, the sum of honored grants from P never exceeds what P is
// currently holding back. Hence at every instant
//
//	Σ_i applied_i  ≤  Σ_i (F − held_i) + Σ_i honored_i  ≤  N·F  =  r.
//
// Liveness degrades safely: silence, corruption (rejected frames), or
// partition stop the freshness clock, every grant dies within one window
// of the first missed exchange, and each node is back at the conservative
// static floor r/N — a posture that can under-admit but never over-admits —
// while its own held grants expire after holdTicks windows.
package cluster

import "bcpqp/internal/units"

const (
	// holdTicks is how many windows a grantor holds a ceded amount. It must
	// exceed the honor horizon: echoSlack ticks of report age at delivery
	// plus freshTicks of honoring after, plus one tick of phase skew.
	holdTicks = 6
	// echoSlack is how many of our own ticks a peer's echo may lag before
	// its report stops being honored.
	echoSlack = 2
	// freshFor is the honor window after receiving a report, in units of
	// the exchange window (1.5 → a report dies between the first and second
	// missed exchange).
	freshForNum, freshForDen = 3, 2
	// headroom scales the sender's own observed rate when computing
	// surplus: grant away only what 1.25× current demand cannot use, so a
	// local demand swing never lands on a floor already ceded.
	headroomNum, headroomDen = 5, 4
	// needNum/needDen: a peer is needy when its observed rate is ≥ 85% of
	// the static floor — it is pushing against at least its guaranteed
	// share. Comparing against the peer's APPLIED share instead would
	// oscillate: observed lags applied by one window, so the tick after a
	// grant lands the peer looks idle relative to its raised cap and the
	// grant is withdrawn, period-2 forever.
	needNum, needDen = 85, 100
	// marginDen reserves 1/32 of the floor from granting, so rounding and
	// estimator jitter cannot cede the entire floor.
	marginDen = 32
)

// peerDemand is one peer's state as seen by the grant planner. The slice
// handed to planGrants is preallocated and ordered by sorted peer ID, so
// planning is deterministic and allocation-free.
type peerDemand struct {
	honored  bool       // report fresh + echo-valid right now
	observed units.Rate // peer's reported accept rate for this aggregate
}

// planGrants computes this node's outbound grants for one shared aggregate
// directly into its hold ring: ring[k*holdTicks+slot] receives the rate
// ceded to peer k this tick. Grantable surplus = floor − headroom·observed
// − floor/marginDen, split among honored needy peers proportionally to
// their observed rates. No allocation.
func planGrants(floor, observed units.Rate, peers []peerDemand, ring []units.Rate, slot int) {
	for k := range peers {
		ring[k*holdTicks+slot] = 0
	}
	surplus := floor - observed*headroomNum/headroomDen - floor/marginDen
	if surplus <= 0 {
		return
	}
	var needTotal units.Rate
	for k := range peers {
		p := &peers[k]
		if p.honored && p.observed*needDen >= floor*needNum {
			// +1 bit/s so a needy peer reporting zero (cold estimator)
			// still draws a share of the split.
			needTotal += p.observed + 1
		}
	}
	if needTotal <= 0 {
		return
	}
	for k := range peers {
		p := &peers[k]
		if p.honored && p.observed*needDen >= floor*needNum {
			ring[k*holdTicks+slot] = surplus * (p.observed + 1) / needTotal
		}
	}
}

// heldOut returns the budget a grantor must keep holding: per grantee, the
// maximum granted over the hold window, summed over grantees. ring is laid
// out as [peer][holdTicks].
func heldOut(ring []units.Rate, nPeers int) units.Rate {
	var held units.Rate
	for k := 0; k < nPeers; k++ {
		var m units.Rate
		for t := 0; t < holdTicks; t++ {
			if v := ring[k*holdTicks+t]; v > m {
				m = v
			}
		}
		held += m
	}
	return held
}

// applyBound computes the share this node may enforce: floor, minus what it
// is holding for grantees, plus honored inbound grants, clamped to
// [0, rate]. The clamp to rate is pure paranoia — the calculus already
// bounds the sum — but a corrupted-but-decodable grant value must not be
// able to raise a node above the global bound on its own.
func applyBound(floor, held, honoredIn, rate units.Rate) units.Rate {
	share := floor - held + honoredIn
	if share < 0 {
		share = 0
	}
	if share > rate {
		share = rate
	}
	return share
}
