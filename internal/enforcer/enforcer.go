// Package enforcer defines the interface every rate-limiting mechanism in
// this repository implements (BC-PQP, PQP, token-bucket policer, FairPolicer,
// shaper, policy tree), the verdicts they return, and shared statistics
// accounting.
//
// An Enforcer decides a burst: the packets of one rx_burst share an arrival
// time, and one call decides them all. A single packet is a burst of one.
// The same Enforcer objects are driven by the discrete-event simulator in
// experiments, by the engine in internal/mbox and by testing.B benchmarks
// for the efficiency evaluation, so the datapath under measurement is
// identical in every setting.
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

// DefaultBurst is the burst size the datapath is tuned for: the rx_burst
// size of a DPDK-style middlebox (packets arrive from the NIC 32 at a
// time, not one channel send at a time). Callers may use any burst size;
// this is the recommended amortization window.
const DefaultBurst = 32

// Enforcer is a rate limiter for one traffic aggregate.
//
// SubmitBatch hands the enforcer a burst of packets, all arriving at
// virtual time now, and writes one verdict per packet into verdicts, which
// must have at least len(pkts) elements (an out-parameter, so steady-state
// burst processing allocates nothing). Virtual time must be non-decreasing
// across calls. Bufferless enforcers answer Transmit, TransmitCE or Drop;
// the shaper answers Queued (or Drop on a full buffer) and emits packets
// through its sink as they are served.
//
// Batching is an efficiency transformation, never a semantic one: a burst
// of N decides as N bursts of one at the same now, with byte-identical
// verdicts, statistics and state. An enforcer amortizes per-packet work
// (clock handling, lazy drains, token refills, burst-control window checks)
// across the burst; a caller with one packet passes a one-element burst.
type Enforcer interface {
	SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []Verdict)
}

// Stats accumulates per-enforcer packet accounting. Enforcers embed it and
// update it for every packet they decide, so experiments can read drop
// rates uniformly.
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
