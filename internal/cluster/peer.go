// Per-peer exchange state: the newest report heard from each peer and the
// one liveness test the exchange applies to it. A peer is honored while its
// newest report is fresh (received within 1.5 windows) and echoes a recent
// sequence number of ours; only then do its grants count. The test is a
// function of (newest report time, echoed seq, now), so it is deterministic
// under a virtual clock.
package cluster

import (
	"time"

	"bcpqp/internal/units"
)

// peerAgg is the newest per-aggregate data heard from one peer.
type peerAgg struct {
	observed  units.Rate
	applied   units.Rate
	grantToMe units.Rate
	stamp     int64 // peer.reports value of the report that last carried it
}

// peer is the node's view of one cluster peer. Guarded by Node.mu.
type peer struct {
	id string

	honored   bool // fresh as of the last Rebalance: its grants count
	everHeard bool
	lastHeard time.Duration // virtual receive time of the newest valid report
	epoch     uint64        // boot incarnation of the newest accepted report
	lastSeq   uint64        // newest report sequence accepted within that epoch
	echoOfMe  uint64        // my seq (this boot) echoed by that report
	aggs      map[string]*peerAgg

	// Wire hygiene counters (exported via Status/metrics).
	reports int64 // valid reports accepted
	stale   int64 // duplicate / out-of-order reports dropped by seq
}

// fresh reports whether the peer's newest report may still be honored at
// virtual time now: received within freshFor (1.5 windows) AND echoing a
// recent sequence number of ours (within echoSlack ticks). mySeq is the
// node's current report sequence.
func (p *peer) fresh(now, window time.Duration, mySeq uint64) bool {
	if !p.everHeard {
		return false
	}
	if now-p.lastHeard > window*freshForNum/freshForDen {
		return false
	}
	return p.echoOfMe+echoSlack >= mySeq
}
