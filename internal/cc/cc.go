// Package cc implements the sender-side congestion control algorithms the
// paper's evaluation exercises: New Reno, Cubic, BBR, and Vegas (§6.1 uses
// the Linux kernel implementations; these are reimplementations of the same
// published state machines).
//
// The algorithms matter to the reproduction because every headline result
// depends on their feedback loops: the O(BDP²) phantom-queue sizing rule
// comes from Reno's AIMD sawtooth interacting with the absence of queueing
// delay, slow-start overshoot is what burst control tames, BBR's loss
// insensitivity is why policers fail to share rate fairly against it, and
// Vegas's delay sensitivity makes it the weakest competitor through a
// buffering shaper.
package cc

import (
	"time"

	"bcpqp/internal/units"
)

// Ack carries the information a congestion controller receives when new
// data is cumulatively acknowledged.
type Ack struct {
	// Now is the current virtual time.
	Now time.Duration
	// RTT is the round-trip sample for the newest acked segment (0 if
	// unavailable, e.g. acks of retransmitted data).
	RTT time.Duration
	// Acked is the number of newly acknowledged bytes.
	Acked int64
	// Inflight is the number of unacknowledged bytes after this ack.
	Inflight int64
	// BandwidthSample is the delivery-rate sample for the acked segment
	// (0 if unavailable).
	BandwidthSample units.Rate
	// RoundStart reports that this ack begins a new round trip.
	RoundStart bool
}

// Controller is a congestion control algorithm. Implementations are driven
// by the transport in internal/tcp.
type Controller interface {
	// Name identifies the algorithm ("reno", "cubic", "bbr", "vegas").
	Name() string
	// OnAck processes a cumulative acknowledgment of new data.
	OnAck(a Ack)
	// OnLoss processes a fast-retransmit loss signal (at most once per
	// window of data).
	OnLoss(now time.Duration)
	// OnECN processes an ECN congestion-experienced echo (at most once
	// per window of data). Per RFC 3168 the response matches the loss
	// response, without any retransmission.
	OnECN(now time.Duration)
	// OnTimeout processes a retransmission timeout.
	OnTimeout(now time.Duration)
	// CongestionWindow returns the current window in bytes.
	CongestionWindow() int64
	// PacingRate returns the sender pacing rate, if the algorithm paces
	// (BBR); ok is false for pure window-based algorithms.
	PacingRate() (rate units.Rate, ok bool)
}

// Factory builds a fresh controller instance.
type Factory func() Controller

// NewByName returns a factory for the named algorithm. Supported names:
// "reno", "newreno", "cubic", "bbr", "vegas".
func NewByName(name string) (Factory, bool) {
	switch name {
	case "reno", "newreno":
		return func() Controller { return newReno() }, true
	case "cubic":
		return func() Controller { return newCubic() }, true
	case "bbr":
		return func() Controller { return newBBR() }, true
	case "vegas":
		return func() Controller { return newVegas() }, true
	default:
		return nil, false
	}
}

// Common window constants (bytes).
const (
	initialWindow = 10 * units.MSS // RFC 6928 IW10
	minWindow     = 2 * units.MSS
)
