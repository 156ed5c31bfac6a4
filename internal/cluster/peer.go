// Peer state machine: per-peer liveness tracking driven by report arrival
// and the tick clock, with the timeout → suspect → dead ladder the ISSUE's
// degrade ladder is built on. All transitions are functions of (last valid
// report time, now), so they are deterministic under a virtual clock.
package cluster

import (
	"time"

	"bcpqp/internal/units"
)

// suspectAfter and deadAfter are the ladder's silence thresholds, in
// exchange windows.
const (
	suspectAfter = 3
	deadAfter    = 10
)

// PeerState is one rung of the liveness ladder.
type PeerState uint8

const (
	// PeerAlive: a valid report arrived within the last 3 windows.
	PeerAlive PeerState = iota
	// PeerSuspect: silent for 3 windows — grants from this peer have
	// already died (they are honored for 1.5 windows); we keep sending
	// every tick.
	PeerSuspect
	// PeerDead: silent for 10 windows. Still retried at the tick cadence —
	// a healed partition resurrects the peer on its next valid report.
	PeerDead
)

// String names the state for logs, metrics and the /cluster endpoint.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return "unknown"
	}
}

// peerAgg is the newest per-aggregate data heard from one peer.
type peerAgg struct {
	observed  units.Rate
	applied   units.Rate
	grantToMe units.Rate
	stamp     int64 // peer.reports value of the report that last carried it
}

// peer is the node's view of one cluster peer. Guarded by Node.mu.
type peer struct {
	id    string
	index int // position in the node's sorted peer list (stable label)

	state     PeerState
	everHeard bool
	lastHeard time.Duration // virtual receive time of the newest valid report
	epoch     uint64        // boot incarnation of the newest accepted report
	lastSeq   uint64        // newest report sequence accepted within that epoch
	echoOfMe  uint64        // my seq (this boot) echoed by that report
	aggs      map[string]*peerAgg

	// Wire hygiene counters (exported via Status/metrics).
	reports   int64 // valid reports accepted
	stale     int64 // duplicate / out-of-order reports dropped by seq
	badFrames int64 // frames from this peer that failed validation
}

// classify maps silence duration to a state on the ladder of an exchange
// with the given window. Pure function — the caller records transitions.
func classify(silence, window time.Duration) PeerState {
	switch {
	case silence >= deadAfter*window:
		return PeerDead
	case silence >= suspectAfter*window:
		return PeerSuspect
	default:
		return PeerAlive
	}
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
