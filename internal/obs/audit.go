package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"bcpqp/internal/metrics"
)

// Audit is one live Theorem-1 conformance auditor: it tracks cumulative
// accepted bytes against the piecewise admission envelope
//
//	accepted(t) ≤ base + r·(t − t_rebase) + B
//
// where base is the allowance accrued before the last rate change, r the
// currently enforced rate and B the declared burst allowance. Rate and
// policy changes Rebase the envelope — allowance accrued under the old
// rate is kept, new allowance accrues at the new rate — which is exactly
// the piecewise bound the engine's in-band reconfiguration lane preserves,
// so a conformant enforcer never trips the auditor no matter how often it
// is reconfigured.
//
// Concurrency contract: Observe and Rebase are single-writer — the mbox
// engine calls both on the aggregate's owning shard goroutine (rebases
// ride the shard's ring in-band), so the envelope arithmetic needs no
// synchronization. Everything a scrape reads is an atomic that single
// writer stores (and reads back with a plain load), so metric scrapes see
// a consistent recent view from any goroutine without stopping the
// datapath and no value is kept twice. Both paths are allocation-free
// (the digests grow their spans a handful of times in an auditor's life).
//
// The record is 144 bytes with both digest headers inline, laid out by
// use: the first cache line is what every audited run reads and writes,
// the second the window accumulator and the digests, and what only a
// breach or a closed window touches comes last. The zero value is not
// armed; embed it and call Init, or use NewAudit.
//
// The allowance accrual is exact integer arithmetic: bits/sec × ns
// products are formed in 128 bits and divided in 64 when they fit there,
// in 128 otherwise, with the sub-byte remainder carried between calls
// either way, so a shadow auditor fed the same (now, bytes) sequence
// reproduces the same violation count bit-for-bit — that is what lets
// chaos tests reconcile violations EXACTLY against injected ground truth.
type Audit struct {
	rateBps  atomic.Int64  // currently enforced rate, bits/sec
	burst    int64         // burst allowance B, bytes
	lastAdv  time.Duration // virtual time the allowance last accrued to
	frac     uint64        // sub-byte allowance remainder, in bit·ns (< envDen)
	allowed  atomic.Int64  // accrued allowance bytes since arming (excl. burst)
	accept   atomic.Int64  // accepted bytes since arming
	minSlack atomic.Int64
	lastObs  atomic.Int64 // the last Observe or Rebase's now, as given

	// Windowed rate error (|observed − r| per completed measurement
	// window, in permille of r).
	window   time.Duration
	winStart time.Duration
	winBytes int64

	slackD Digest // slack bytes at each audited run (clamped at 0)
	errD   Digest // |rate error| per completed window, permille of r

	maxDeficit atomic.Int64
	violations atomic.Int64
	windows    atomic.Int64
}

// envDen converts bits/sec × ns products to bytes: 8 bits per byte times
// 1e9 ns per second.
const envDen = 8 * 1_000_000_000

// NewAudit returns an auditor armed at virtual time now with the given
// envelope. window is the rate-error measurement window (≤ 0 applies the
// paper's 250 ms).
func NewAudit(now time.Duration, rateBps, burstBytes int64, window time.Duration) *Audit {
	a := new(Audit)
	a.Init(now, rateBps, burstBytes, window)
	return a
}

// Init arms a zero Audit in place, as NewAudit does a new one.
func (a *Audit) Init(now time.Duration, rateBps, burstBytes int64, window time.Duration) {
	if window <= 0 {
		window = metrics.DefaultWindow
	}
	a.burst = burstBytes
	a.lastAdv = now
	a.window = window
	a.winStart = now
	a.rateBps.Store(rateBps)
	a.minSlack.Store(math.MaxInt64)
	a.lastObs.Store(int64(now))
}

// advance accrues allowance to now: allowed += r·Δt exactly, carrying the
// sub-byte remainder. Saturates at MaxInt64 (an unbounded envelope) rather
// than wrapping.
func (a *Audit) advance(now time.Duration) (allowed int64) {
	allowed = a.allowed.Load()
	dt := now - a.lastAdv
	if dt <= 0 {
		return allowed
	}
	a.lastAdv = now
	rate := a.rateBps.Load()
	if rate <= 0 || allowed == math.MaxInt64 {
		return allowed
	}
	hi, lo := bits.Mul64(uint64(rate), uint64(dt))
	var carry uint64
	lo, carry = bits.Add64(lo, a.frac, 0)
	hi += carry
	var quo, rem uint64
	switch {
	case hi == 0:
		// The product fits in 64 bits (at 20 Mbit/s any Δt under 15
		// minutes, at 100 Gbit/s under 184 ms), and a 64-bit divide by the
		// constant envDen compiles to a multiply: the same quotient and
		// remainder as the 128-bit divide.
		quo, rem = lo/envDen, lo%envDen
	case hi < envDen:
		quo, rem = bits.Div64(hi, lo, envDen)
	default:
		quo = math.MaxUint64 // the quotient overflows 64 bits
	}
	if quo <= uint64(math.MaxInt64-allowed) {
		allowed += int64(quo)
		a.frac = rem
		a.allowed.Store(allowed)
		return allowed
	}
	// More than 2^63 bytes of allowance: saturate.
	a.frac = 0
	a.allowed.Store(math.MaxInt64)
	return math.MaxInt64
}

// slack is allowance + B − accepted, saturating: allowed may be pinned at
// MaxInt64.
func (a *Audit) slack(allowed, accepted int64) int64 {
	slack := allowed - accepted
	if a.burst > 0 {
		if s := slack + a.burst; s > slack {
			return s
		}
		return math.MaxInt64
	}
	return slack
}

// Observe folds one enforced run's accepted bytes into the auditor at
// virtual time now and returns the envelope deficit: 0 when the run is
// conformant, accepted − (allowance + B) when it breaches. Each breaching
// run counts exactly one violation.
func (a *Audit) Observe(now time.Duration, accBytes int64) (deficit int64) {
	slack := a.slack(a.advance(now), a.accept.Add(accBytes))
	if slack < a.minSlack.Load() {
		a.minSlack.Store(slack)
	}
	if slack < 0 {
		deficit = -slack
		a.violations.Add(1)
		if deficit > a.maxDeficit.Load() {
			a.maxDeficit.Store(deficit)
		}
		a.slackD.Observe(0)
	} else {
		a.slackD.Observe(slack)
	}

	// Rate-error windows: close the current window once now passes its
	// end (a run landing exactly on the boundary still belongs to the
	// closing window); idle gaps (several windows with no audited runs)
	// collapse into one close so the loop is O(1) per run.
	if now-a.winStart > a.window {
		if rate := a.rateBps.Load(); a.winBytes > 0 && rate > 0 {
			// winBytes·8e9 / windowNs = observed bits/sec over the window.
			obsBps, _ := mulDivI(a.winBytes, envDen, int64(a.window))
			errBps := obsBps - rate
			if errBps < 0 {
				errBps = -errBps
			}
			if pm, ok := mulDivI(errBps, 1000, rate); ok {
				a.errD.Observe(pm)
			}
			a.windows.Add(1)
		}
		skip := (now - a.winStart) / a.window
		a.winStart += skip * a.window
		a.winBytes = 0
	}
	a.winBytes += accBytes
	a.lastObs.Store(int64(now))
	return deficit
}

// mulDivI computes a*b/c in 128-bit intermediate precision for
// non-negative operands; ok=false when the quotient overflows int64.
func mulDivI(a, b, c int64) (int64, bool) {
	if a < 0 || b < 0 || c <= 0 {
		return 0, false
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		return 0, false
	}
	quo, _ := bits.Div64(hi, lo, uint64(c))
	if quo > math.MaxInt64 {
		return 0, false
	}
	return int64(quo), true
}

// Rebase pins the envelope to a new rate at virtual time now: allowance
// accrued so far is kept and future allowance accrues at the new rate —
// the piecewise Theorem-1 bound across a live reconfiguration. The burst
// allowance is unchanged.
func (a *Audit) Rebase(now time.Duration, rateBps int64) {
	a.advance(now)
	a.rateBps.Store(rateBps)
	a.lastObs.Store(int64(now))
}

// AuditCounters is a point-in-time copy of an auditor's exported state,
// as of the last audited run (the envelope is not extrapolated to the
// reader's clock — LastObserve says how fresh it is).
type AuditCounters struct {
	RateBps       int64
	BurstBytes    int64
	AllowedBytes  int64 // accrued r·Δt allowance since arming, excl. burst
	AcceptedBytes int64
	SlackBytes    int64 // allowance + B − accepted; negative = in breach
	MinSlackBytes int64 // worst (smallest) slack ever observed
	MaxDeficit    int64 // worst breach depth, bytes
	Violations    int64 // audited runs that breached the envelope
	Windows       int64 // completed rate-error windows with traffic
	LastObserve   time.Duration
}

// Snapshot copies the exported counters. Safe from any goroutine.
func (a *Audit) Snapshot() AuditCounters {
	allowed := a.allowed.Load()
	accepted := a.accept.Load()
	slack := a.slack(allowed, accepted)
	minSlack := a.minSlack.Load()
	if minSlack == math.MaxInt64 {
		minSlack = slack // nothing audited yet: report the standing slack
	}
	return AuditCounters{
		RateBps:       a.rateBps.Load(),
		BurstBytes:    a.burst,
		AllowedBytes:  allowed,
		AcceptedBytes: accepted,
		SlackBytes:    slack,
		MinSlackBytes: minSlack,
		MaxDeficit:    a.maxDeficit.Load(),
		Violations:    a.violations.Load(),
		Windows:       a.windows.Load(),
		LastObserve:   time.Duration(a.lastObs.Load()),
	}
}

// SlackDigest snapshots the distribution of per-run envelope slack
// (bytes, clamped at 0 for breaching runs).
func (a *Audit) SlackDigest() DigestSnapshot { return a.slackD.Snapshot() }

// RateErrDigest snapshots the distribution of per-window rate error
// (permille of the enforced rate).
func (a *Audit) RateErrDigest() DigestSnapshot { return a.errD.Snapshot() }

// MergeSlack / MergeRateErr fold this auditor's digests into acc for
// engine-wide roll-ups.
func (a *Audit) MergeSlack(acc *Digest)   { acc.Merge(&a.slackD) }
func (a *Audit) MergeRateErr(acc *Digest) { acc.Merge(&a.errD) }
