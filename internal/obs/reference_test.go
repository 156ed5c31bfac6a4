package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"bcpqp/internal/metrics"
	"bcpqp/internal/units"
)

// refDigest is the dense digest this package shipped before the span store,
// kept verbatim as the reference the live Digest is fuzzed against
// (FuzzDigestEquivalence). What follows is its original comment.
//
// Digest is a fixed-size, mergeable, relative-error quantile sketch over
// non-negative int64 values (bytes, nanoseconds, permille — the unit is the
// caller's). It is the DDSketch shape adapted to the repo's log-linear
// histogram idiom: values 0..15 get exact buckets, every later power-of-two
// octave is split into 8 linear sub-buckets, so any quantile read off a
// bucket's upper bound overestimates the true value by at most 1/8 (12.5%)
// relative error, at any scale, from 16 up to MaxInt64.
//
// Observe is lock-free and allocation-free (one bucket index computation
// via bits.Len64 plus three atomic adds), so audits can feed a digest once
// per enforced run on the hot path. Snapshots read the atomic buckets
// without stopping writers — like the flight-recorder rings, a snapshot
// racing writers is internally consistent enough for export (a bucket may
// trail an in-flight observation). Merging is bucket-wise integer
// addition, which makes it exactly associative and commutative: per-shard,
// per-aggregate and per-node digests roll up in any order to the same
// result, and the BQAD wire form lets digests merge across processes.
type refDigest struct {
	counts [digestBuckets]atomic.Uint64
	sum    atomic.Int64
}

// newRefDigest returns an empty digest.
func newRefDigest() *refDigest { return &refDigest{} }

// Observe records one value (negatives clamp to zero).
func (d *refDigest) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	d.counts[digestIdx(v)].Add(1)
	d.sum.Add(v)
}

// Merge adds other's counts into d.
func (d *refDigest) Merge(other *refDigest) {
	if other == nil {
		return
	}
	for i := range other.counts {
		if n := other.counts[i].Load(); n > 0 {
			d.counts[i].Add(n)
		}
	}
	d.sum.Add(other.sum.Load())
}

// Snapshot copies the digest. Total is computed from the copied buckets, so
// a snapshot is always self-consistent (Quantile never chases a count that
// is not in a bucket).
func (d *refDigest) Snapshot() DigestSnapshot {
	s := DigestSnapshot{Counts: make([]uint64, digestBuckets), Sum: d.sum.Load()}
	for i := range d.counts {
		s.Counts[i] = d.counts[i].Load()
	}
	return s
}

// refRateMeter is the meter this package shipped before the two-window one,
// kept verbatim as the reference for FuzzRateMeterEquivalence. What follows
// is its original comment.
//
// rateMeter adapts internal/metrics.Meter — the paper's §6.1 windowed
// throughput meter — to a long-running monotonic clock. metrics.Meter
// indexes windows from virtual time zero and grows its window slice
// forever; rateMeter rebases onto a fresh Meter every `horizon` windows so
// memory stays bounded over an unbounded run, at the cost of forgetting
// history older than the horizon (which is exactly what a runtime gauge
// wants).
//
// It is safe for one writer and any number of readers; the expected shape
// is one Add per enforced burst on a shard goroutine and occasional reads
// from the metrics exporter.
type refRateMeter struct {
	mu      sync.Mutex
	window  time.Duration
	horizon int
	base    time.Duration // virtual-time origin of the current meter
	last    time.Duration // most recent Add time (absolute)
	m       *metrics.Meter
	total   int64
}

// newRefRateMeter returns a meter with the given window (0 selects the
// paper's 250 ms default) keeping at most horizon windows of history
// (0 selects 64).
func newRefRateMeter(window time.Duration, horizon int) *refRateMeter {
	if window <= 0 {
		window = metrics.DefaultWindow
	}
	if horizon <= 0 {
		horizon = 64
	}
	return &refRateMeter{window: window, horizon: horizon}
}

// Add records bytes at monotonic time now. Regressions clamp to the last
// observed time (the underlying meter requires non-decreasing time).
func (r *refRateMeter) Add(now time.Duration, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if now < r.last {
		now = r.last
	}
	if r.m == nil || now-r.base >= time.Duration(r.horizon)*r.window {
		// Rebase: drop history beyond the horizon and realign the
		// origin to a window boundary so window edges stay stable.
		r.base = now - now%r.window
		r.m = metrics.NewMeter(r.window)
	}
	r.m.Add(now-r.base, 0, bytes)
	r.last = now
	r.total += int64(bytes)
}

// Rate returns the throughput over the most recent completed window, or
// over the current partial window when it is the only one. An unused meter
// reports zero (never NaN).
func (r *refRateMeter) Rate() units.Rate {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		return 0
	}
	wb := r.m.WindowBytes(0)
	cur := int((r.last - r.base) / r.window)
	idx := cur - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(wb) {
		idx = len(wb) - 1
	}
	return units.Rate(float64(wb[idx]) * 8 / r.window.Seconds())
}

// partial reports whether Rate is reading the current partial window: true
// until the first window completes and again after every rebase — the one
// place the two-window meter is meant to differ, since it never forgets the
// window before a horizon boundary.
func (r *refRateMeter) partial() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m == nil || (r.last-r.base)/r.window == 0
}
