// Package fairpolicer reimplements the FairPolicer baseline (Shan et al.,
// INFOCOM 2021 / ToN 2023) from its published description and the summary in
// §2.2 and §6 of the BC-PQP paper.
//
// FairPolicer augments a token-bucket policer with per-flow fairness: tokens
// generated at the enforced rate are distributed equally (or by weight, for
// the §6.3.2 variant) among the buckets of active flows, and each flow's
// bucket capacity is dynamically set to the number of tokens remaining in
// the shared main bucket — a dynamic-threshold rule analogous to shared
// buffer management. A packet passes iff its flow bucket holds enough
// tokens.
//
// The known shortcomings the paper evaluates are inherent in this design and
// reproduced here: all flow buckets get roughly the same capacity regardless
// of weight (breaking weighted sharing), large-RTT AIMD flows cannot keep
// their bucket active when the capacity is too small for their BDP²
// requirement (RTT unfairness), and token distribution work happens on every
// enqueue (higher per-packet cost than batched schemes).
package fairpolicer

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

// Config configures a FairPolicer for one traffic aggregate.
type Config struct {
	// Rate is the aggregate rate to enforce.
	Rate units.Rate
	// Bucket is the total token capacity B in bytes, shared between the
	// main bucket and per-flow buckets. The paper sizes it as
	// tbf.PlusBucket (max of New Reno and Cubic requirements).
	Bucket int64
	// Flows is the number of flow buckets; flows hash into them like
	// phantom queues (the original uses exact per-flow state; hashing to
	// a fixed set matches how both systems are deployed at scale).
	Flows int
	// Weights optionally assigns per-bucket weights for the weighted
	// variant of §6.3.2. Nil means equal weights (the original design).
	Weights []float64
}

// idleTimeout is how long a flow bucket stays "active" after its last
// arrival; inactive flows stop receiving tokens.
const idleTimeout = 100 * time.Millisecond

// FairPolicer enforces an aggregate rate with approximate per-flow fairness.
// It is not safe for concurrent use.
type FairPolicer struct {
	cfg   Config
	stats enforcer.Stats

	main  float64 // unallocated tokens in the shared main bucket
	flows []flowBucket

	last    time.Duration
	started bool
}

type flowBucket struct {
	tokens   float64
	lastSeen time.Duration
	active   bool

	acceptedPackets int64
	acceptedBytes   int64
	droppedPackets  int64
	droppedBytes    int64
}

// New validates cfg and returns a FairPolicer.
func New(cfg Config) (*FairPolicer, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("fairpolicer: non-positive rate %v", cfg.Rate)
	}
	if cfg.Bucket < units.MSS {
		return nil, fmt.Errorf("fairpolicer: bucket %d below one MSS", cfg.Bucket)
	}
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("fairpolicer: need at least one flow bucket, got %d", cfg.Flows)
	}
	if cfg.Weights != nil && len(cfg.Weights) != cfg.Flows {
		return nil, fmt.Errorf("fairpolicer: %d weights for %d flows", len(cfg.Weights), cfg.Flows)
	}
	for _, w := range cfg.Weights {
		if w <= 0 {
			return nil, fmt.Errorf("fairpolicer: non-positive weight %v", w)
		}
	}
	return &FairPolicer{
		cfg:   cfg,
		main:  float64(cfg.Bucket),
		flows: make([]flowBucket, cfg.Flows),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *FairPolicer {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Submit implements enforcer.Enforcer: a burst of one through SubmitBatch.
func (f *FairPolicer) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	pkts := [1]packet.Packet{pkt}
	var v [1]enforcer.Verdict
	f.SubmitBatch(now, pkts[:], v[:])
	return v[0]
}

// generateExpireCap is the time-driven half of token distribution: token
// generation for the elapsed virtual time, idle-flow expiry, and the
// total-tokens-at-B cap. At a fixed now every part is idempotent (no time
// elapses, expiry conditions cannot newly trigger, and the token total only
// shrinks), so the burst path runs it once per burst.
func (f *FairPolicer) generateExpireCap(now time.Duration) {
	if !f.started {
		f.started = true
		f.last = now
	}
	if now > f.last {
		f.main += f.cfg.Rate.Bytes(now - f.last)
		f.last = now
	}

	// Expire idle flows, returning their tokens to the main bucket so a
	// departed flow's share is reusable.
	for i := range f.flows {
		fb := &f.flows[i]
		if fb.active && now-fb.lastSeen > idleTimeout {
			fb.active = false
			f.main += fb.tokens
			fb.tokens = 0
		}
	}

	// Cap total tokens at B.
	total := f.main
	for i := range f.flows {
		total += f.flows[i].tokens
	}
	if excess := total - float64(f.cfg.Bucket); excess > 0 {
		if f.main >= excess {
			f.main -= excess
		} else {
			f.main = 0
		}
	}
}

// allocate distributes the main bucket's unallocated tokens to active flow
// buckets by weight under the dynamic threshold. Unlike generateExpireCap it
// is NOT idempotent (leftover tokens re-distribute each round, and newly
// activated flows join the next round), so SubmitBatch runs it per packet —
// this is the per-enqueue distribution cost the paper charges FairPolicer
// for.
func (f *FairPolicer) allocate() {
	var wsum float64
	for i := range f.flows {
		if f.flows[i].active {
			wsum += f.weight(i)
		}
	}
	if wsum == 0 || f.main <= 0 {
		return
	}

	// Dynamic threshold: each flow bucket may hold at most as many
	// tokens as remain unallocated in the main bucket (computed before
	// this round's allocation, per the published description).
	threshold := f.main
	share := f.main
	var leftover float64
	for i := range f.flows {
		fb := &f.flows[i]
		if !fb.active {
			continue
		}
		grant := share * f.weight(i) / wsum
		room := threshold - fb.tokens
		if room < 0 {
			room = 0
		}
		if grant > room {
			leftover += grant - room
			grant = room
		}
		fb.tokens += grant
	}
	f.main = leftover
}

func (f *FairPolicer) weight(i int) float64 {
	if f.cfg.Weights == nil {
		return 1
	}
	return f.cfg.Weights[i]
}

// SubmitBatch implements enforcer.BatchSubmitter, and is FairPolicer's one
// admission loop: Submit is a burst of one. Token distribution generates
// tokens for the elapsed time and allocates them (plus any unallocated
// main-bucket tokens) to active flow buckets in proportion to their
// weights, capping each flow bucket at the dynamic threshold equal to the
// main bucket's remaining tokens; tokens that do not fit return to the main
// bucket, and the total never exceeds B. The time-driven half (generation,
// idle expiry, the B cap — each an O(flows) pass) runs once per burst. The
// allocate call stays per packet: it is not idempotent (leftover tokens
// re-distribute, and a flow activated mid-burst joins the next round), and
// per-packet token distribution is the cost Fig 5 charges FairPolicer. A
// burst leaves byte-identical verdicts and statistics to the same packets
// submitted as bursts of one at the same now.
func (f *FairPolicer) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	for i := range pkts {
		pkt := &pkts[i]
		idx := pkt.ClassIn(f.cfg.Flows)
		fb := &f.flows[idx]
		fb.lastSeen = now
		fb.active = true

		if i == 0 {
			f.generateExpireCap(now)
		}
		f.allocate()

		s := float64(pkt.Size)
		if fb.tokens >= s {
			fb.tokens -= s
			fb.acceptedPackets++
			fb.acceptedBytes += int64(pkt.Size)
			f.stats.Accept(pkt.Size)
			verdicts[i] = enforcer.Transmit
		} else {
			fb.droppedPackets++
			fb.droppedBytes += int64(pkt.Size)
			f.stats.Reject(pkt.Size)
			verdicts[i] = enforcer.Drop
		}
	}
}

// MainTokens returns the unallocated tokens in the main bucket.
func (f *FairPolicer) MainTokens() float64 { return f.main }

// EnforcerStats implements enforcer.StatsReader.
func (f *FairPolicer) EnforcerStats() enforcer.Stats { return f.stats }

var _ enforcer.Enforcer = (*FairPolicer)(nil)
var _ enforcer.BatchSubmitter = (*FairPolicer)(nil)
var _ enforcer.StatsReader = (*FairPolicer)(nil)
