// Package tbf implements the classic token-bucket-filter traffic policer
// (§2.2 of the paper), the baseline against which PQP/BC-PQP are compared.
//
// Tokens are added to a bucket of size B at the enforced rate r; a packet of
// size s passes iff the bucket holds at least s tokens, consuming them, and
// is dropped otherwise. No packets are buffered. Token replenishment is lazy
// (computed from elapsed virtual time on each arrival), matching the paper's
// observation that policers batch token generation.
//
// The package also provides the two bucket-sizing rules used in the paper's
// evaluation: "Policer" (one BDP) and "Policer+" (the FairPolicer sizing —
// the maximum of the New Reno and Cubic requirements at the worst-case RTT).
package tbf

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

// Policer is a single token-bucket traffic policer for one aggregate.
// It is not safe for concurrent use.
type Policer struct {
	rate   units.Rate
	bucket float64 // capacity B in bytes
	tokens float64

	last    time.Duration
	started bool

	stats enforcer.Stats
}

// New returns a policer enforcing rate with a bucket of bucketBytes.
// The bucket starts full, as deployed policers do.
func New(rate units.Rate, bucketBytes int64) (*Policer, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("tbf: non-positive rate %v", rate)
	}
	if bucketBytes < units.MSS {
		return nil, fmt.Errorf("tbf: bucket %d below one MSS", bucketBytes)
	}
	return &Policer{
		rate:   rate,
		bucket: float64(bucketBytes),
		tokens: float64(bucketBytes),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(rate units.Rate, bucketBytes int64) *Policer {
	p, err := New(rate, bucketBytes)
	if err != nil {
		panic(err)
	}
	return p
}

// BDPBucket returns the "Policer" sizing of the paper's evaluation: one
// bandwidth-delay product at the given worst-case RTT (with a one-MSS
// floor).
func BDPBucket(rate units.Rate, maxRTT time.Duration) int64 {
	b := units.BDPBytes(rate, maxRTT)
	if b < units.MSS {
		b = units.MSS
	}
	return b
}

// PlusBucket returns the "Policer+" sizing: the maximum of the New Reno and
// Cubic bucket requirements for correct average-rate enforcement at the
// worst-case RTT (the same rule FairPolicer uses, §6.1).
func PlusBucket(rate units.Rate, maxRTT time.Duration) int64 {
	reno := units.RenoPhantomRequirement(rate, maxRTT)
	cubic := units.CubicPhantomRequirement(rate, maxRTT)
	if cubic > reno {
		return cubic
	}
	return reno
}

// Submit implements enforcer.Enforcer.
func (p *Policer) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	p.refill(now)
	s := float64(pkt.Size)
	if p.tokens >= s {
		p.tokens -= s
		p.stats.Accept(pkt.Size)
		return enforcer.Transmit
	}
	p.stats.Reject(pkt.Size)
	return enforcer.Drop
}

// SubmitBatch implements enforcer.BatchSubmitter: one token-refill
// computation covers the whole burst. Equivalence with the per-packet path
// is exact — refill is a no-op when virtual time has not advanced, so the
// per-packet path's repeated refills at a fixed now do nothing after the
// first; everything else is pure token arithmetic in packet order.
func (p *Policer) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	if len(pkts) == 0 {
		return
	}
	p.refill(now)
	for i := range pkts {
		s := float64(pkts[i].Size)
		if p.tokens >= s {
			p.tokens -= s
			p.stats.Accept(pkts[i].Size)
			verdicts[i] = enforcer.Transmit
		} else {
			p.stats.Reject(pkts[i].Size)
			verdicts[i] = enforcer.Drop
		}
	}
}

// Probe reports whether a packet would be admitted at now without
// consuming tokens (two-phase admission for cascaded rate limits).
func (p *Policer) Probe(now time.Duration, pkt *packet.Packet) bool {
	p.refill(now)
	return p.tokens >= float64(pkt.Size)
}

// Commit consumes the tokens for a packet previously accepted by Probe.
func (p *Policer) Commit(now time.Duration, pkt *packet.Packet) {
	p.refill(now)
	p.tokens -= float64(pkt.Size)
	if p.tokens < 0 {
		p.tokens = 0
	}
	p.stats.Accept(pkt.Size)
}

// refill adds tokens for the elapsed virtual time, capped at the bucket.
func (p *Policer) refill(now time.Duration) {
	if !p.started {
		p.started = true
		p.last = now
		return
	}
	if now <= p.last {
		return
	}
	p.tokens += p.rate.Bytes(now - p.last)
	p.last = now
	if p.tokens > p.bucket {
		p.tokens = p.bucket
	}
}

// Tokens returns the current token level in bytes (after the last refill).
func (p *Policer) Tokens() float64 { return p.tokens }

// Bucket returns the configured bucket size in bytes.
func (p *Policer) Bucket() int64 { return int64(p.bucket) }

// EnforcerStats implements enforcer.StatsReader.
func (p *Policer) EnforcerStats() enforcer.Stats { return p.stats }

var _ enforcer.Enforcer = (*Policer)(nil)
var _ enforcer.BatchSubmitter = (*Policer)(nil)
var _ enforcer.StatsReader = (*Policer)(nil)
