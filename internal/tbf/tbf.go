// Package tbf implements the classic token-bucket-filter traffic policer
// (§2.2 of the paper), the baseline against which PQP/BC-PQP are compared.
//
// Tokens are added to a bucket of size B at the enforced rate r; a packet of
// size s passes iff the bucket holds at least s tokens, consuming them, and
// is dropped otherwise. No packets are buffered. Token replenishment is lazy
// (computed from elapsed virtual time on each arrival), matching the paper's
// observation that policers batch token generation.
//
// A policer can also lend its bucket out for a burst (Loan), which is how a
// policy tree holds a token-bucket ceiling: the tree reads and charges the
// lent level through methods that inline rather than two interface calls
// per packet. Probe, Commit and SubmitBatch are loans too, so the bucket
// arithmetic lives in Loan alone.
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
	clock  units.Clock // the refill clock

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

// Submit enforces one packet: a burst of one through SubmitBatch.
func (p *Policer) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	pkts := [1]packet.Packet{pkt}
	var v [1]enforcer.Verdict
	p.SubmitBatch(now, pkts[:], v[:])
	return v[0]
}

// SubmitBatch implements enforcer.Enforcer, and is the policer's one
// admission loop: Submit is a burst of one. The burst is one loan of the
// bucket, so one token-refill computation covers it. A burst decides
// exactly as the same packets submitted as bursts of one: refill is a no-op
// when virtual time has not advanced, so repeated refills at a fixed now do
// nothing after the first; everything else is pure token arithmetic in
// packet order.
func (p *Policer) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	if len(pkts) == 0 {
		return
	}
	l := p.Lend(now)
	var accPkts, accBytes int64
	for i := range pkts {
		if size := pkts[i].Size; l.admits(size) {
			l.Take(int64(size))
			accPkts++
			accBytes += int64(size)
			verdicts[i] = enforcer.Transmit
		} else {
			p.stats.Reject(size)
			verdicts[i] = enforcer.Drop
		}
	}
	p.Repay(l, accPkts, accBytes)
}

// Probe reports whether a packet would be admitted at now without
// consuming tokens (two-phase admission for cascaded rate limits): a loan
// of the bucket that is tested and never repaid.
func (p *Policer) Probe(now time.Duration, pkt *packet.Packet) bool {
	l := p.Lend(now)
	return l.admits(pkt.Size)
}

// Commit consumes the tokens for a packet previously accepted by Probe: a
// loan of the bucket charged once and repaid.
func (p *Policer) Commit(now time.Duration, pkt *packet.Packet) {
	l := p.Lend(now)
	l.Take(int64(pkt.Size))
	p.Repay(l, 1, int64(pkt.Size))
}

// Loan is a policer's token level lent out for a burst at one instant, so
// that a caller holding several ceilings (a policy tree) can read and charge
// it as a plain float64 through methods that inline, instead of two
// interface calls per packet. Lend refills the bucket to now and opens the
// loan; Repay writes the level back with the packets the loan accepted.
// Nothing else may touch the policer while a loan is open. Probe and Commit
// are loans of one packet, so the bucket arithmetic lives here only.
type Loan struct {
	tokens float64
}

// Lend refills the bucket to now and lends out its token level.
func (p *Policer) Lend(now time.Duration) Loan {
	p.refill(now)
	return Loan{tokens: p.tokens}
}

// admits reports whether the lent bucket holds size bytes of tokens.
func (l *Loan) admits(size int) bool { return l.tokens >= float64(size) }

// Level returns the lent bucket's token level in bytes.
func (l *Loan) Level() float64 { return l.tokens }

// Take charges bytes to the lent bucket, which never goes below empty. A
// caller may charge a run of packets, each of which found its size in the
// level, as one Take of their total: a whole number of bytes taken from a
// level at least that large (and below 2^53) is an exact subtraction, so
// one Take leaves the bits a Take per packet would.
func (l *Loan) Take(bytes int64) {
	l.tokens -= float64(bytes)
	if l.tokens < 0 {
		l.tokens = 0
	}
}

// Repay closes a loan: the bucket takes the loan's token level, and the
// policer's statistics count pkts accepted packets of bytes in total.
func (p *Policer) Repay(l Loan, pkts, bytes int64) {
	p.tokens = l.tokens
	p.stats.AcceptedPackets += pkts
	p.stats.AcceptedBytes += bytes
}

// refill adds tokens for the elapsed virtual time, capped at the bucket.
func (p *Policer) refill(now time.Duration) {
	p.tokens = min(p.tokens+p.clock.Bytes(now, p.rate), p.bucket)
}

// Bucket returns the configured bucket size in bytes.
func (p *Policer) Bucket() int64 { return int64(p.bucket) }

// EnforcerStats implements enforcer.StatsReader.
func (p *Policer) EnforcerStats() enforcer.Stats { return p.stats }

var _ enforcer.Enforcer = (*Policer)(nil)
var _ enforcer.StatsReader = (*Policer)(nil)
