// Package enforcer defines the interface every rate-limiting mechanism in
// this repository implements (BC-PQP, PQP, token-bucket policer, FairPolicer,
// shaper), the verdicts they return, and shared statistics accounting.
//
// The same Enforcer objects are driven by the discrete-event simulator in
// experiments and by testing.B benchmarks for the efficiency evaluation, so
// the datapath under measurement is identical in both settings.
package enforcer

import (
	"time"

	"bcpqp/internal/packet"
)

// Verdict is an enforcer's decision for a submitted packet.
type Verdict int

const (
	// Transmit means the packet passes immediately (bufferless schemes).
	Transmit Verdict = iota
	// Drop means the packet is discarded.
	Drop
	// Queued means the packet was buffered and will be emitted later via
	// the enforcer's sink (shaper only).
	Queued
	// TransmitCE means the packet passes immediately but must carry an
	// ECN congestion-experienced mark (AQM marking on phantom queues).
	TransmitCE
)

// String names the verdict for logs and test failures.
func (v Verdict) String() string {
	switch v {
	case Transmit:
		return "transmit"
	case Drop:
		return "drop"
	case Queued:
		return "queued"
	case TransmitCE:
		return "transmit+ce"
	default:
		return "unknown"
	}
}

// Sink receives packets released by a buffering enforcer.
type Sink func(now time.Duration, pkt packet.Packet)

// Enforcer is a rate limiter for one traffic aggregate.
//
// Submit hands the enforcer a packet at virtual time now. Virtual time must
// be non-decreasing across calls. Bufferless enforcers return Transmit or
// Drop; the shaper returns Queued (or Drop on a full buffer) and emits
// packets through its sink as they are served.
type Enforcer interface {
	Submit(now time.Duration, pkt packet.Packet) Verdict
}

// Stats accumulates per-enforcer packet accounting. Enforcers embed it and
// update it on every Submit, so experiments can read drop rates uniformly.
type Stats struct {
	AcceptedPackets int64
	AcceptedBytes   int64
	DroppedPackets  int64
	DroppedBytes    int64
}

// Accept records an accepted (transmitted or queued) packet.
func (s *Stats) Accept(size int) {
	s.AcceptedPackets++
	s.AcceptedBytes += int64(size)
}

// Reject records a dropped packet.
func (s *Stats) Reject(size int) {
	s.DroppedPackets++
	s.DroppedBytes += int64(size)
}

// DropRate returns the fraction of submitted packets that were dropped.
func (s *Stats) DropRate() float64 {
	total := s.AcceptedPackets + s.DroppedPackets
	if total == 0 {
		return 0
	}
	return float64(s.DroppedPackets) / float64(total)
}

// Totals returns the aggregate packet and byte counts submitted.
func (s *Stats) Totals() (packets, bytes int64) {
	return s.AcceptedPackets + s.DroppedPackets, s.AcceptedBytes + s.DroppedBytes
}

// StatsReader is implemented by all enforcers in this repository.
type StatsReader interface {
	EnforcerStats() Stats
}
