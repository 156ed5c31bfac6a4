// Package bcpqp implements policy-rich traffic rate enforcement with
// burst-controlled phantom queues (BC-PQP), reproducing "Efficient
// Policy-Rich Rate Enforcement with Phantom Queues" (SIGCOMM 2024), along
// with every baseline the paper compares against and the simulation
// infrastructure used to evaluate them.
//
// # The datapath API
//
// An Enforcer polices one traffic aggregate: SubmitBatch hands it a burst of
// packets sharing one (virtual or real) timestamp and writes one verdict per
// packet — Transmit, Drop, or Queued — and a burst of N decides as N bursts
// of one. The flagship constructor is NewBCPQP, whose PQP also takes one
// packet at a time through Submit, a burst of one:
//
//	enf, err := bcpqp.NewBCPQP(bcpqp.BCPQPConfig{
//		Rate:   15 * bcpqp.Mbps,
//		Queues: 16, // per-flow fairness across 16 hash classes
//	})
//	...
//	if enf.Submit(now, pkt) == bcpqp.Transmit {
//		forward(pkt)
//	}
//
// Rate-sharing policies beyond fairness are built with the policy
// constructors (Fair, WeightedFair, StrictPriority, and the Weighted /
// Priority / Leaf node combinators for nested hierarchies).
//
// Baselines from the paper are available under the same interface:
// NewPolicer (token bucket), NewFairPolicer, and NewShaper (the buffering
// reference).
//
// # The simulation API
//
// NewSimulation wires an enforcer into a virtual-time network (TCP senders
// with Reno/Cubic/BBR/Vegas congestion control, propagation delays,
// optional secondary bottleneck) so enforcement behaviour can be evaluated
// end-to-end. See examples/ and internal/experiments for complete usages,
// and cmd/experiments for the paper's figure reproductions.
package bcpqp

import (
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/fairpolicer"
	"bcpqp/internal/harness"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/shaper"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// Core datapath types, re-exported from the implementation packages.
type (
	// Packet is the unit of work submitted to an enforcer.
	Packet = packet.Packet
	// FlowKey is a 5-tuple flow identity used for classification.
	FlowKey = packet.FlowKey
	// Verdict is an enforcer's decision for a packet.
	Verdict = enforcer.Verdict
	// Enforcer is a rate limiter for one traffic aggregate.
	Enforcer = enforcer.Enforcer
	// Stats is accept/drop accounting shared by all enforcers.
	Stats = enforcer.Stats
	// Rate is a traffic rate in bits per second.
	Rate = units.Rate
)

// Reconfigurer is the hot-reconfiguration capability: enforcers that
// implement it (PQP/BC-PQP, Policer, FairPolicer, PolicyTree) change their
// enforced rate in place, preserving admission state (phantom occupancy,
// burst-control windows, token levels) so the Theorem 1 bound holds
// piecewise across the change. Middlebox.SetRate applies it in-band on the
// owning shard.
type Reconfigurer = enforcer.Reconfigurer

// Snapshotter is the warm-restart capability: enforcers that implement it
// serialize their admission state to a versioned blob and restore it into
// an identically configured instance. Middlebox.Snapshot/Restore build on
// it.
type Snapshotter = enforcer.Snapshotter

// Verdicts.
const (
	Transmit   = enforcer.Transmit
	Drop       = enforcer.Drop
	Queued     = enforcer.Queued
	TransmitCE = enforcer.TransmitCE
)

// DefaultBurst is the burst size the batch datapath is tuned for (the
// rx_burst size of a DPDK-style middlebox).
const DefaultBurst = enforcer.DefaultBurst

// NoClass marks packets classified by flow-key hash.
const NoClass = packet.NoClass

// MSS is the segment size used throughout (bytes).
const MSS = units.MSS

// Rate units.
const (
	Kbps = units.Kbps
	Mbps = units.Mbps
	Gbps = units.Gbps
)

// PQP is a phantom-queue policer (burst-controlled when configured as
// BC-PQP). It implements Enforcer.
type PQP = phantom.PQP

// BCPQPConfig configures NewBCPQP.
type BCPQPConfig struct {
	// Rate is the aggregate rate to enforce.
	Rate Rate
	// Queues is the number of phantom queues; flows hash into them
	// unless packets carry explicit classes.
	Queues int
	// Policy is the intra-aggregate rate-sharing policy (nil = per-flow
	// fairness over Queues classes). Its class count must equal Queues.
	Policy *Policy
	// MaxRTT is the worst-case flow RTT used for default queue sizing;
	// zero selects 100 ms (the paper's p99 WAN figure).
	MaxRTT time.Duration
	// QueueSize overrides the phantom queue size B in bytes. Zero
	// selects the paper's recommendation: ≥10× the largest
	// congestion-control requirement at MaxRTT (burst control removes
	// the upper limit, §4).
	QueueSize int64
}

// NewBCPQP builds the paper's contribution: a burst-controlled
// phantom-queue policer. Burst control runs with the paper's θ⁺ = 1.5,
// θ⁻ = 0.5 and T = 100 ms (§4), which are constants, not options.
func NewBCPQP(cfg BCPQPConfig) (*PQP, error) {
	maxRTT := cfg.MaxRTT
	if maxRTT <= 0 {
		maxRTT = 100 * time.Millisecond
	}
	size := cfg.QueueSize
	if size == 0 {
		size = RecommendedQueueSize(cfg.Rate, maxRTT)
	}
	return phantom.New(phantom.Config{
		Rate:         cfg.Rate,
		Queues:       cfg.Queues,
		QueueSize:    size,
		Policy:       cfg.Policy,
		BurstControl: true,
	})
}

// NewPQP builds a phantom-queue policer without burst control (§3), mostly
// useful for studying why burst control is needed. QueueSize zero selects
// the exact Reno requirement at maxRTT.
func NewPQP(rate Rate, queues int, policy *Policy, queueSize int64, maxRTT time.Duration) (*PQP, error) {
	if maxRTT <= 0 {
		maxRTT = 100 * time.Millisecond
	}
	if queueSize == 0 {
		queueSize = harness.Buffer(harness.SchemePQP, rate, maxRTT)
	}
	return phantom.New(phantom.Config{
		Rate:      rate,
		Queues:    queues,
		QueueSize: queueSize,
		Policy:    policy,
	})
}

// RecommendedQueueSize returns the paper's default phantom queue size for
// BC-PQP: ten times the largest (New Reno vs Cubic) bucket requirement for
// correct average-rate enforcement at the worst-case RTT.
func RecommendedQueueSize(rate Rate, maxRTT time.Duration) int64 {
	return harness.Buffer(harness.SchemeBCPQP, rate, maxRTT)
}

// RenoQueueRequirement returns the Appendix A minimum phantom queue size
// (BDP²/18 × MSS bytes) for a backlogged Reno flow.
func RenoQueueRequirement(rate Rate, rtt time.Duration) int64 {
	return units.RenoPhantomRequirement(rate, rtt)
}

// Policer is the token-bucket baseline. It implements Enforcer.
type Policer = tbf.Policer

// NewPolicer builds a token-bucket policer. bucketBytes zero selects one
// bandwidth-delay product at maxRTT (the paper's "Policer" baseline).
func NewPolicer(rate Rate, bucketBytes int64, maxRTT time.Duration) (*Policer, error) {
	if bucketBytes == 0 {
		if maxRTT <= 0 {
			maxRTT = 100 * time.Millisecond
		}
		bucketBytes = harness.Buffer(harness.SchemePolicer, rate, maxRTT)
	}
	return tbf.New(rate, bucketBytes)
}

// FairPolicer is the per-flow-fair token-distribution baseline.
type FairPolicer = fairpolicer.FairPolicer

// FairPolicerConfig configures NewFairPolicer.
type FairPolicerConfig = fairpolicer.Config

// NewFairPolicer builds the FairPolicer baseline.
func NewFairPolicer(cfg FairPolicerConfig) (*FairPolicer, error) {
	return fairpolicer.New(cfg)
}

// Shaper is the buffering multi-queue reference implementation.
type Shaper = shaper.Shaper

// ShaperConfig configures NewShaper; the caller supplies the dequeue
// scheduler (a simulation loop or timing wheel) and the egress sink.
type ShaperConfig = shaper.Config

// NewShaper builds the shaper baseline.
func NewShaper(cfg ShaperConfig) (*Shaper, error) { return shaper.New(cfg) }
