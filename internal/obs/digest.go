package obs

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Digest is a mergeable, relative-error quantile sketch over non-negative
// int64 values (bytes, nanoseconds, permille — the unit is the caller's).
// It is the DDSketch shape adapted to the repo's log-linear histogram
// idiom: values 0..15 get exact buckets, every later power-of-two octave is
// split into 8 linear sub-buckets, so any quantile read off a bucket's
// upper bound overestimates the true value by at most 1/8 (12.5%) relative
// error, at any scale, from 16 up to MaxInt64.
//
// The geometry is fixed at 488 buckets; the memory is not. A digest holds
// counts only for the span of buckets it has seen: an empty digest is a
// 16-byte header, the first observation hangs a one-cache-line span off it,
// and a value outside the span replaces it with the next size up (see
// span). An envelope-slack digest that only ever sees one bucket stays at
// 64 bytes and a rate-error digest spread over fifty at 512, where the
// dense array cost 3.9 KB each.
//
// Concurrency contract: one writer at a time (Observe and merge into d),
// any number of readers. The writer's path is lock-free and, between
// growths, allocation-free: one bucket index via bits.Len64, one pointer
// load and two atomic adds. A reader that races a growth reads the span
// the writer is about to retire — every count in it was true a moment ago —
// and a reader that arrives once the writer is quiet sees every count:
// growth copies the old counts before it publishes the new span. Merging
// is bucket-wise integer addition, which makes it exactly associative and
// commutative: per-shard, per-aggregate and per-node digests roll up in any
// order to the same result, and the BQAD wire form lets digests merge
// across processes.
type Digest struct {
	sum  atomic.Int64
	span atomic.Pointer[span]
}

// Digest geometry: 16 exact buckets for 0..15, then (64-4)=60 octaves of 8
// sub-buckets covering [16, MaxInt64]. Bit length 5..63 → 59 octaves; bit
// length 64 cannot occur for a non-negative int64.
const (
	digestExact   = 16                         // exact buckets 0..15
	digestSub     = 8                          // linear sub-buckets per octave
	digestSubBits = 3                          // log2(digestSub)
	digestBuckets = digestExact + 59*digestSub // 488
)

// span is the window of buckets [lo, lo+len(counts)) a digest holds counts
// for. Header and counts are one allocation of 64<<k bytes — a power-of-two
// size class, so a span starts on a cache line — holding 8<<k − 4 buckets:
// 4, 12, 28, 60, 124, 252, and all 488 in the 4 KB class. A span's window
// never moves; growing means publishing a larger one.
type span struct {
	lo     int
	counts []atomic.Uint64
}

// spanCap returns the smallest span capacity that holds n buckets.
func spanCap(n int) int {
	c := 4
	for c < n {
		c = 2*c + 4
	}
	return min(c, digestBuckets)
}

// A span is one object, header then counts, which takes an array type per
// size class.
type (
	span4 struct {
		span
		c [4]atomic.Uint64
	}
	span12 struct {
		span
		c [12]atomic.Uint64
	}
	span28 struct {
		span
		c [28]atomic.Uint64
	}
	span60 struct {
		span
		c [60]atomic.Uint64
	}
	span124 struct {
		span
		c [124]atomic.Uint64
	}
	span252 struct {
		span
		c [252]atomic.Uint64
	}
	span488 struct {
		span
		c [digestBuckets]atomic.Uint64
	}
)

// newSpan allocates a span of capacity n (a spanCap result) at lo.
func newSpan(lo, n int) *span {
	var s *span
	switch n {
	case 4:
		b := new(span4)
		s, b.counts = &b.span, b.c[:]
	case 12:
		b := new(span12)
		s, b.counts = &b.span, b.c[:]
	case 28:
		b := new(span28)
		s, b.counts = &b.span, b.c[:]
	case 60:
		b := new(span60)
		s, b.counts = &b.span, b.c[:]
	case 124:
		b := new(span124)
		s, b.counts = &b.span, b.c[:]
	case 252:
		b := new(span252)
		s, b.counts = &b.span, b.c[:]
	default:
		b := new(span488)
		s, b.counts = &b.span, b.c[:]
	}
	s.lo = lo
	return s
}

// used returns the first and last bucket of s with a count; ok is false
// for a nil or all-zero span.
func (s *span) used() (first, last int, ok bool) {
	if s == nil {
		return 0, 0, false
	}
	first, last = -1, -1
	for i := range s.counts {
		if s.counts[i].Load() != 0 {
			if first < 0 {
				first = s.lo + i
			}
			last = s.lo + i
		}
	}
	return first, last, first >= 0
}

// reserve returns a span covering buckets [lo, hi], the current one when it
// already does. Otherwise it publishes the smallest span that holds [lo,
// hi] together with every bucket counted so far, and puts the spare room on
// the side that grew: a slack digest drifting upward with its envelope and
// a latency digest finding its floor each grow a few times, not once per
// bucket. Writer only.
func (d *Digest) reserve(lo, hi int) *span {
	old := d.span.Load()
	if old != nil && lo >= old.lo && hi < old.lo+len(old.counts) {
		return old
	}
	first, last, kept := old.used()
	up := !kept || hi > last
	if kept {
		lo, hi = min(lo, first), max(hi, last)
	}
	n := spanCap(hi - lo + 1)
	at := lo
	if !up {
		at = hi + 1 - n
	}
	s := newSpan(max(0, min(at, digestBuckets-n)), n)
	if kept {
		for i := first; i <= last; i++ {
			s.counts[i-s.lo].Store(old.counts[i-old.lo].Load())
		}
	}
	d.span.Store(s)
	return s
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{} }

// digestIdx maps a value to its bucket (negatives clamp to 0).
func digestIdx(v int64) int {
	if v < digestExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	l := bits.Len64(u) // ≥ 5 here, ≤ 63 for int64
	sub := int(u>>(l-1-digestSubBits)) & (digestSub - 1)
	return digestExact + (l-5)*digestSub + sub
}

// digestBound returns the inclusive upper bound of bucket idx.
func digestBound(idx int) int64 {
	if idx < digestExact {
		return int64(idx)
	}
	l := (idx-digestExact)/digestSub + 5
	sub := (idx - digestExact) % digestSub
	lo := int64(1) << (l - 1)
	step := int64(1) << (l - 1 - digestSubBits)
	return lo + int64(sub+1)*step - 1 // idx 487 lands exactly on MaxInt64
}

// Observe records one value (negatives clamp to zero).
func (d *Digest) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	idx := digestIdx(v)
	s := d.span.Load()
	if s == nil || uint(idx-s.lo) >= uint(len(s.counts)) {
		s = d.reserve(idx, idx)
	}
	s.counts[idx-s.lo].Add(1)
	d.sum.Add(v)
}

// merge adds other's counts into d, walking only other's populated span.
func (d *Digest) merge(other *Digest) {
	if other == nil {
		return
	}
	src := other.span.Load()
	if first, last, ok := src.used(); ok {
		dst := d.reserve(first, last)
		for i := first; i <= last; i++ {
			if n := src.counts[i-src.lo].Load(); n > 0 {
				dst.counts[i-dst.lo].Add(n)
			}
		}
	}
	d.sum.Add(other.sum.Load())
}

// Snapshot copies the digest. Total is computed from the copied buckets, so
// a snapshot is always self-consistent (Quantile never chases a count that
// is not in a bucket).
func (d *Digest) Snapshot() DigestSnapshot {
	s := DigestSnapshot{Counts: make([]uint64, digestBuckets), Sum: d.sum.Load()}
	if sp := d.span.Load(); sp != nil {
		for i := range sp.counts {
			s.Counts[sp.lo+i] = sp.counts[i].Load()
		}
	}
	return s
}

// DigestSnapshot is a point-in-time copy of a Digest in export form.
// Counts are per-bucket; Sum is the running sum of observed values (for
// means). The zero value is an empty digest.
type DigestSnapshot struct {
	Counts []uint64
	Sum    int64
}

// Total returns the number of observations in the snapshot.
func (s DigestSnapshot) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) as the matching bucket's
// inclusive upper bound: an overestimate by at most 12.5% of the true
// value. It returns 0 for an empty digest.
func (s DigestSnapshot) Quantile(q float64) int64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1 // q=1 selects the last populated bucket
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum > target {
			return digestBound(i)
		}
	}
	return digestBound(len(s.Counts) - 1)
}

// Merge returns a new snapshot holding the bucket-wise sum of s and other.
// Integer bucket addition makes the operation exactly associative and
// commutative, which TestDigestMergeAssociativity pins.
func (s DigestSnapshot) Merge(other DigestSnapshot) DigestSnapshot {
	out := DigestSnapshot{Counts: make([]uint64, digestBuckets), Sum: s.Sum + other.Sum}
	for i := range out.Counts {
		if i < len(s.Counts) {
			out.Counts[i] += s.Counts[i]
		}
		if i < len(other.Counts) {
			out.Counts[i] += other.Counts[i]
		}
	}
	return out
}

// Hist converts the snapshot to a Prometheus-exportable histogram with
// bucket bounds scaled by scale (e.g. 1e-9 to export nanosecond
// observations in seconds, 1 for bytes). The last populated bucket bounds
// the export; WritePrometheus elides the all-zero tail.
func (s DigestSnapshot) Hist(scale float64) HistSnapshot {
	h := HistSnapshot{
		Bounds: make([]float64, digestBuckets),
		Counts: make([]uint64, digestBuckets+1),
		Sum:    float64(s.Sum) * scale,
		Count:  s.Total(),
	}
	for i := 0; i < digestBuckets; i++ {
		h.Bounds[i] = float64(digestBound(i)) * scale
		if i < len(s.Counts) {
			h.Counts[i] = s.Counts[i]
		}
	}
	return h
}

// BQAD wire form: a compact, validated binary encoding so digests can be
// shipped between processes (the /debug/audit endpoint serves it) and
// merged off-box. Framing follows the repo's snapshot codecs (BQSN/BQXC):
// a magic, a version, then length-prefixed content — and the decoder is
// fuzzed (FuzzAuditDigestDecode) to hold the same contract: arbitrary
// bytes never panic and never allocate beyond the fixed bucket count.
//
//	"BQAD" | u8 version | i64 sum | u16 npairs | npairs × (u16 idx, u64 count)
//
// Pairs carry only the non-zero buckets in strictly increasing index
// order; all integers are big-endian.
const (
	digestMagic   = "BQAD"
	digestVersion = 1
)

// Encode serializes the snapshot in the BQAD wire form.
func (s DigestSnapshot) Encode() []byte {
	var pairs int
	for _, c := range s.Counts {
		if c > 0 {
			pairs++
		}
	}
	out := make([]byte, 0, len(digestMagic)+1+8+2+pairs*10)
	out = append(out, digestMagic...)
	out = append(out, digestVersion)
	out = binary.BigEndian.AppendUint64(out, uint64(s.Sum))
	out = binary.BigEndian.AppendUint16(out, uint16(pairs))
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		out = binary.BigEndian.AppendUint16(out, uint16(i))
		out = binary.BigEndian.AppendUint64(out, c)
	}
	return out
}

// decodeDigest parses a BQAD frame. Every structural violation — bad
// magic or version, truncated or oversized frame, out-of-range or
// non-increasing bucket indices, zero counts, a total that overflows —
// is rejected with an error; the allocation is bounded by the fixed
// bucket count regardless of input.
func decodeDigest(b []byte) (DigestSnapshot, error) {
	const header = len(digestMagic) + 1 + 8 + 2
	if len(b) < header {
		return DigestSnapshot{}, fmt.Errorf("obs: digest frame too short (%d bytes)", len(b))
	}
	if string(b[:len(digestMagic)]) != digestMagic {
		return DigestSnapshot{}, fmt.Errorf("obs: bad digest magic %q", b[:len(digestMagic)])
	}
	if v := b[len(digestMagic)]; v != digestVersion {
		return DigestSnapshot{}, fmt.Errorf("obs: unsupported digest version %d", v)
	}
	sum := int64(binary.BigEndian.Uint64(b[len(digestMagic)+1:]))
	pairs := int(binary.BigEndian.Uint16(b[len(digestMagic)+9:]))
	if pairs > digestBuckets {
		return DigestSnapshot{}, fmt.Errorf("obs: digest frame claims %d buckets (max %d)", pairs, digestBuckets)
	}
	if len(b) != header+pairs*10 {
		return DigestSnapshot{}, fmt.Errorf("obs: digest frame length %d, want %d", len(b), header+pairs*10)
	}
	s := DigestSnapshot{Counts: make([]uint64, digestBuckets), Sum: sum}
	prev := -1
	var total uint64
	for p := 0; p < pairs; p++ {
		off := header + p*10
		idx := int(binary.BigEndian.Uint16(b[off:]))
		c := binary.BigEndian.Uint64(b[off+2:])
		if idx >= digestBuckets {
			return DigestSnapshot{}, fmt.Errorf("obs: digest bucket index %d out of range", idx)
		}
		if idx <= prev {
			return DigestSnapshot{}, fmt.Errorf("obs: digest bucket index %d not increasing", idx)
		}
		if c == 0 {
			return DigestSnapshot{}, fmt.Errorf("obs: digest bucket %d has zero count", idx)
		}
		if total+c < total {
			return DigestSnapshot{}, fmt.Errorf("obs: digest total overflows")
		}
		total += c
		prev = idx
		s.Counts[idx] = c
	}
	return s, nil
}
