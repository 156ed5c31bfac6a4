package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDigestGeometry pins the bucket mapping: indices are monotone in the
// value, every value lands in a bucket whose inclusive upper bound is at
// least the value, and the bound overestimates by at most 1/8.
func TestDigestGeometry(t *testing.T) {
	if got := digestIdx(0); got != 0 {
		t.Fatalf("digestIdx(0) = %d", got)
	}
	if got := digestIdx(-7); got != 0 {
		t.Fatalf("digestIdx(-7) = %d", got)
	}
	if got := digestIdx(math.MaxInt64); got != digestBuckets-1 {
		t.Fatalf("digestIdx(MaxInt64) = %d, want %d", got, digestBuckets-1)
	}
	if got := digestBound(digestBuckets - 1); got != math.MaxInt64 {
		t.Fatalf("digestBound(last) = %d, want MaxInt64", got)
	}

	vals := []int64{0, 1, 15, 16, 17, 31, 32, 100, 1500, 1 << 20, 1<<40 + 12345, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Int63())
	}
	prevIdx := -1
	for _, v := range vals {
		idx := digestIdx(v)
		if idx < 0 || idx >= digestBuckets {
			t.Fatalf("digestIdx(%d) = %d out of range", v, idx)
		}
		bound := digestBound(idx)
		if bound < v {
			t.Fatalf("digestBound(%d)=%d below value %d", idx, bound, v)
		}
		// Relative error: bound ≤ v·(1+1/8). Check as bound−v ≤ v/8
		// (exact buckets have zero error).
		if v >= digestExact && bound-v > v/8+1 {
			t.Fatalf("value %d: bound %d overestimates by %d (> v/8)", v, bound, bound-v)
		}
		if idx > 0 {
			if lower := digestBound(idx - 1); lower >= v {
				t.Fatalf("value %d fell in bucket %d but bucket %d bound %d already covers it", v, idx, idx-1, lower)
			}
		}
		_ = prevIdx
	}
	// Monotonicity of bounds across the whole bucket range.
	for i := 1; i < digestBuckets; i++ {
		if digestBound(i) <= digestBound(i-1) {
			t.Fatalf("bounds not strictly increasing at %d: %d then %d", i, digestBound(i-1), digestBound(i))
		}
	}
}

// TestDigestQuantile drives a digest with a known distribution and checks
// the quantile estimates hold the 12.5% relative-error contract.
func TestDigestQuantile(t *testing.T) {
	d := NewDigest()
	if got := d.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty digest quantile = %d", got)
	}
	// Uniform 1..100000.
	const n = 100000
	for i := int64(1); i <= n; i++ {
		d.Observe(i)
	}
	s := d.Snapshot()
	if got := s.Total(); got != n {
		t.Fatalf("Total = %d, want %d", got, n)
	}
	if got := s.Sum; got != n*(n+1)/2 {
		t.Fatalf("Sum = %d, want %d", got, n*(n+1)/2)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
		want := int64(q * n)
		got := s.Quantile(q)
		if got < want || float64(got) > float64(want)*1.125+1 {
			t.Fatalf("Quantile(%v) = %d, want within [%d, %v]", q, got, want, float64(want)*1.125)
		}
	}
}

// TestDigestMergeAssociativity pins the headline merge property: bucket
// counts are integers, so (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == (c ⊕ a) ⊕ b
// exactly, bit for bit — the cross-shard, cross-node and cross-process
// roll-ups are order-independent.
func TestDigestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	mk := func() DigestSnapshot {
		d := NewDigest()
		for i, n := 0, 100+rng.Intn(400); i < n; i++ {
			d.Observe(rng.Int63n(1 << uint(4+rng.Intn(40))))
		}
		return d.Snapshot()
	}
	a, b, c := mk(), mk(), mk()
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	comm := c.Merge(a).Merge(b)
	for _, o := range []DigestSnapshot{right, comm} {
		if left.Sum != o.Sum || left.Total() != o.Total() {
			t.Fatalf("merge totals differ: %d/%d vs %d/%d", left.Sum, left.Total(), o.Sum, o.Total())
		}
		for i := range left.Counts {
			if left.Counts[i] != o.Counts[i] {
				t.Fatalf("merge bucket %d differs: %d vs %d", i, left.Counts[i], o.Counts[i])
			}
		}
	}
	// Merging through the wire form is the same as merging in memory.
	da, err := decodeDigest(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	db, err := decodeDigest(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	wire := da.Merge(db)
	mem := a.Merge(b)
	if wire.Sum != mem.Sum || wire.Total() != mem.Total() {
		t.Fatalf("wire-form merge diverged: %d/%d vs %d/%d", wire.Sum, wire.Total(), mem.Sum, mem.Total())
	}
	// Live Digest.merge matches snapshot Merge.
	d1, d2 := NewDigest(), NewDigest()
	for i := int64(0); i < 1000; i++ {
		d1.Observe(i * 3)
		d2.Observe(i * 7)
	}
	s1, s2 := d1.Snapshot(), d2.Snapshot()
	d1.merge(d2)
	live := d1.Snapshot()
	want := s1.Merge(s2)
	if live.Sum != want.Sum || live.Total() != want.Total() {
		t.Fatalf("live merge diverged: %d/%d vs %d/%d", live.Sum, live.Total(), want.Sum, want.Total())
	}
}

// TestDigestCodecRoundTrip pins Encode/Decode as a lossless pair and the
// decoder's structural validation.
func TestDigestCodecRoundTrip(t *testing.T) {
	d := NewDigest()
	vals := []int64{0, 1, 5, 16, 1500, 1 << 30, math.MaxInt64}
	for _, v := range vals {
		d.Observe(v)
	}
	s := d.Snapshot()
	enc := s.Encode()
	got, err := decodeDigest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sum != s.Sum || got.Total() != s.Total() {
		t.Fatalf("roundtrip totals: %d/%d vs %d/%d", got.Sum, got.Total(), s.Sum, s.Total())
	}
	for i := range s.Counts {
		if got.Counts[i] != s.Counts[i] {
			t.Fatalf("roundtrip bucket %d: %d vs %d", i, got.Counts[i], s.Counts[i])
		}
	}
	// Empty digest roundtrips too.
	if _, err := decodeDigest(DigestSnapshot{Counts: make([]uint64, digestBuckets)}.Encode()); err != nil {
		t.Fatalf("empty roundtrip: %v", err)
	}

	bad := [][]byte{
		nil,
		[]byte("BQAD"),
		append([]byte("BQXX"), enc[4:]...),           // wrong magic
		append([]byte("BQAD\x02"), enc[5:]...),       // wrong version
		enc[:len(enc)-1],                             // truncated pair
		append(append([]byte{}, enc...), 0),          // trailing junk
		mutate(enc, 13, 0xFF), mutate(enc, 14, 0xFF), // absurd pair count
	}
	for i, b := range bad {
		if _, err := decodeDigest(b); err == nil {
			t.Fatalf("bad frame %d decoded without error", i)
		}
	}
}

func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte{}, b...)
	out[i] = v
	return out
}

// FuzzAuditDigestDecode mirrors the BQSN/BQXC fuzz contract for the BQAD
// digest wire form: arbitrary bytes never panic, never allocate past the
// fixed bucket count, and every accepted frame re-encodes to an equivalent
// digest (decode∘encode∘decode is the identity on the accepted set).
func FuzzAuditDigestDecode(f *testing.F) {
	d := NewDigest()
	for _, v := range []int64{0, 3, 17, 1500, 1 << 22, math.MaxInt64} {
		d.Observe(v)
	}
	f.Add(d.Snapshot().Encode())
	f.Add(NewDigest().Snapshot().Encode())
	f.Add([]byte("BQAD"))
	f.Add([]byte("BQAD\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01"))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeDigest(b)
		if err != nil {
			return
		}
		if len(s.Counts) != digestBuckets {
			t.Fatalf("accepted frame has %d buckets", len(s.Counts))
		}
		re, err := decodeDigest(s.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if re.Sum != s.Sum || !bytes.Equal(re.Encode(), s.Encode()) {
			t.Fatalf("decode/encode not stable")
		}
		// Quantile on decoded frames must stay in range and not panic.
		if q := s.Quantile(0.999); q < 0 {
			t.Fatalf("negative quantile %d", q)
		}
	})
}

// BenchmarkDigestObserve pins the hot-path cost: 0 allocs/op.
func BenchmarkDigestObserve(b *testing.B) {
	d := NewDigest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Observe(int64(i) * 1021)
	}
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
