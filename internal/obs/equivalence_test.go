package obs

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// sameDigest compares everything a digest exports against the dense
// reference's: counts, sum, quantiles, the BQAD frame and its decode.
func sameDigest(t *testing.T, what string, live *Digest, ref *refDigest) {
	t.Helper()
	got, want := live.Snapshot(), ref.Snapshot()
	if !slices.Equal(got.Counts, want.Counts) || got.Sum != want.Sum {
		t.Fatalf("%s: snapshot differs from the dense digest's:\n got sum %d counts %v\nwant sum %d counts %v",
			what, got.Sum, got.Counts, want.Sum, want.Counts)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("%s: Quantile(%v) = %d, dense digest %d", what, q, g, w)
		}
	}
	enc := got.Encode()
	if !bytes.Equal(enc, want.Encode()) {
		t.Fatalf("%s: BQAD frame differs:\n got %x\nwant %x", what, enc, want.Encode())
	}
	back, err := DecodeDigest(enc)
	if err != nil || !slices.Equal(back.Counts, want.Counts) || back.Sum != want.Sum {
		t.Fatalf("%s: frame does not decode back to the snapshot (err %v)", what, err)
	}
	// The span only ever covers buckets with a reason to exist: it is no
	// larger than the size class of the range it holds.
	if sp := live.span.Load(); sp != nil {
		first, last, ok := sp.used()
		if !ok || len(sp.counts) > spanCap(2*(last-first+1)) {
			t.Fatalf("%s: span of %d buckets at %d for used range [%d, %d]", what, len(sp.counts), sp.lo, first, last)
		}
	}
}

// fuzzValue draws an observation from two input bytes: negatives, the exact
// buckets, MaxInt64 and its neighbours, and a value in any octave.
func fuzzValue(a, b byte) int64 {
	switch a % 8 {
	case 0:
		return -int64(b)
	case 1:
		return int64(b % 16)
	case 2:
		return math.MaxInt64 - int64(b%3)
	default:
		return int64(1)<<(a%63) | int64(b)<<(a%56)
	}
}

// FuzzDigestEquivalence runs an arbitrary sequence of Observe, Merge,
// Snapshot and Encode/DecodeDigest over three span digests and three dense
// reference digests in lockstep; after every step that reads, and at the
// end for all three, everything exported must be identical.
func FuzzDigestEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 3, 9, 200, 1, 40, 7, 80, 2, 1, 0, 120, 5, 61, 255})
	f.Add([]byte{2, 0, 2, 1, 2, 2, 1, 15, 0, 7, 96, 1, 97, 2, 33, 8})
	f.Add(bytes.Repeat([]byte{5, 17, 62, 250, 11, 3, 100, 0}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var live [3]Digest
		var ref [3]refDigest
		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			k := int(op>>4) % 3
			switch op % 16 {
			case 0: // merge another digest in (possibly itself empty)
				j := int(a) % 3
				if j == k {
					j = (j + 1) % 3
				}
				live[k].Merge(&live[j])
				ref[k].Merge(&ref[j])
			case 1: // merge a decoded frame's worth: a digest rebuilt off the wire
				s, err := DecodeDigest(live[k].Snapshot().Encode())
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(s.Counts, ref[k].Snapshot().Counts) {
					t.Fatalf("decoded counts differ at step %d", i/3)
				}
			case 2:
				sameDigest(t, "mid-run", &live[k], &ref[k])
			case 3: // a run of one value: how a slack digest fills
				for n := 0; n <= int(b%32); n++ {
					live[k].Observe(fuzzValue(a, 0))
					ref[k].Observe(fuzzValue(a, 0))
				}
			default:
				v := fuzzValue(a, b)
				live[k].Observe(v)
				ref[k].Observe(v)
			}
		}
		for k := range live {
			sameDigest(t, "final", &live[k], &ref[k])
		}
		live[0].Merge(nil)
	})
}

// TestSpanSizeClasses pins the memory shape: an empty digest is a 16-byte
// header, a span is one allocation of exactly a power-of-two size class
// from one cache line up, and the largest holds every bucket.
func TestSpanSizeClasses(t *testing.T) {
	if sz := unsafe.Sizeof(Digest{}); sz != 16 {
		t.Errorf("Digest header is %d bytes, want 16", sz)
	}
	want := 4
	for size := 64; size <= 4096; size *= 2 {
		n := (size - int(unsafe.Sizeof(span{}))) / 8
		if size == 4096 {
			n = digestBuckets
		}
		if want != n || spanCap(n) != n || spanCap(n-1) != n {
			t.Errorf("size class %d: capacity %d, spanCap(%d) = %d, spanCap(%d) = %d, doubling rule %d",
				size, n, n, spanCap(n), n-1, spanCap(n-1), want)
		}
		want = min(2*want+4, digestBuckets)
		var s *span
		if a := testing.AllocsPerRun(20, func() { s = newSpan(3, n) }); a != 1 {
			t.Errorf("newSpan(%d) makes %v allocations, want 1", n, a)
		}
		if len(s.counts) != n || s.lo != 3 {
			t.Errorf("newSpan(3, %d) = lo %d, %d buckets", n, s.lo, len(s.counts))
		}
		if off := uintptr(unsafe.Pointer(&s.counts[0])) - uintptr(unsafe.Pointer(s)); off != unsafe.Sizeof(span{}) {
			t.Errorf("newSpan(%d): counts start %d bytes after the header, want %d (one object)", n, off, unsafe.Sizeof(span{}))
		}
	}
	// One bucket, one line; the writer then never allocates again.
	var d Digest
	d.Observe(1 << 20)
	if sp := d.span.Load(); len(sp.counts) != 4 {
		t.Errorf("first observation made a %d-bucket span, want 4", len(sp.counts))
	}
	if a := testing.AllocsPerRun(100, func() { d.Observe(1<<20 + 5) }); a != 0 {
		t.Errorf("Observe inside the span allocates %v times", a)
	}
}

// TestDigestGrowthDirection: a value past the top of the span leaves the
// spare room above, one below the bottom leaves it below, so a drifting
// distribution grows once per size class rather than once per bucket.
func TestDigestGrowthDirection(t *testing.T) {
	var up, down Digest
	up.Observe(digestBound(100))
	grows := 0
	for i, last := 101, up.span.Load(); i < 160; i++ {
		up.Observe(digestBound(i))
		if sp := up.span.Load(); sp != last {
			grows, last = grows+1, sp
		}
	}
	if grows > 4 { // 4 → 12 → 28 → 60 buckets
		t.Errorf("60 buckets of upward drift grew the span %d times, want ≤ 4", grows)
	}
	down.Observe(digestBound(300))
	grows = 0
	for i, last := 299, down.span.Load(); i > 240; i-- {
		down.Observe(digestBound(i))
		if sp := down.span.Load(); sp != last {
			grows, last = grows+1, sp
		}
	}
	if grows > 4 {
		t.Errorf("60 buckets of downward drift grew the span %d times, want ≤ 4", grows)
	}
	// At the edges the window is clamped into the bucket range.
	var edge Digest
	edge.Observe(math.MaxInt64)
	edge.Observe(0)
	if s := edge.Snapshot(); s.Counts[0] != 1 || s.Counts[digestBuckets-1] != 1 || s.Total() != 2 {
		t.Errorf("edge buckets lost: %v", s.Counts)
	}
}

// TestDigestGrowthRace is the -race test of the one-writer, many-readers
// contract: the writer sweeps values across every octave — growing the span
// through every size class — while readers Snapshot and Merge. A reader
// never sees a total go backwards or a bucket above its final count, and
// once the writer is quiet every count is there.
func TestDigestGrowthRace(t *testing.T) {
	const rounds = 40
	var d Digest
	var done atomic.Bool
	var wg sync.WaitGroup
	final := make([]uint64, digestBuckets)
	for r := 0; r < rounds; r++ {
		for idx := r % 3; idx < digestBuckets; idx += 1 + r%5 {
			final[idx]++
		}
	}
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev uint64
			for !done.Load() {
				var acc Digest
				acc.Merge(&d)
				s := d.Snapshot()
				total := s.Total()
				if total < prev {
					t.Errorf("snapshot total went backwards: %d after %d", total, prev)
					return
				}
				prev = total
				if m := acc.Snapshot().Total(); m > total {
					t.Errorf("a merge taken before a snapshot holds more: %d > %d", m, total)
					return
				}
				for i, c := range s.Counts {
					if c > final[i] {
						t.Errorf("bucket %d read %d, more than it will ever hold (%d)", i, c, final[i])
						return
					}
				}
			}
		}()
	}
	// Middle-out so the span grows in both directions and at both edges.
	for r := 0; r < rounds; r++ {
		var idxs []int
		for idx := r % 3; idx < digestBuckets; idx += 1 + r%5 {
			idxs = append(idxs, idx)
		}
		for i := range idxs {
			k := len(idxs)/2 + (i+1)/2*(1-2*(i%2))
			d.Observe(digestBound(idxs[k]))
		}
	}
	done.Store(true)
	wg.Wait()
	if got := d.Snapshot().Counts; !slices.Equal(got, final) {
		t.Fatalf("counts after the writer went quiet differ from what it observed:\n got %v\nwant %v", got, final)
	}
}

// FuzzRateMeterEquivalence drives the two-window meter and the old
// metrics.Meter-backed one through the same Adds. Against a reference whose
// horizon is never reached, Rate is equal after every Add. Against the
// shipped horizon of 64 windows it is equal except where the old meter had
// just rebased and was reading a partial window because it had dropped the
// complete one — the one intended difference.
func FuzzRateMeterEquivalence(f *testing.F) {
	f.Add(uint16(100), []byte{1, 10, 200, 0, 3, 255, 90, 7, 0, 0, 30, 30})
	f.Add(uint16(1), bytes.Repeat([]byte{64, 1, 9, 130, 2, 0}, 60))
	f.Add(uint16(250), bytes.Repeat([]byte{255, 255, 128, 3}, 50))
	f.Fuzz(func(t *testing.T, windowMs uint16, steps []byte) {
		window := time.Duration(windowMs%1000+1) * time.Millisecond
		live := NewRateMeter(window)
		whole := newRefRateMeter(window, 1<<30)
		shipped := newRefRateMeter(window, 64)
		if live.Rate() != 0 {
			t.Fatalf("unused meter reads %v", live.Rate())
		}
		var now time.Duration
		for i := 0; i+1 < len(steps) && i < 600; i += 2 {
			// Steps from a fraction of a window to several; one in sixteen
			// goes backwards.
			dt := time.Duration(steps[i]) * window / 40
			if steps[i]%16 == 15 {
				dt = -dt
			}
			now += dt
			n := int(steps[i+1]) * 97
			live.Add(now, n)
			whole.Add(now, n)
			shipped.Add(now, n)
			if g, w := live.Rate(), whole.Rate(); g != w {
				t.Fatalf("step %d at %v: Rate %v, reference without a horizon %v", i/2, now, g, w)
			}
			if rebased := shipped.partial() && !whole.partial(); !rebased {
				if g, w := live.Rate(), shipped.Rate(); g != w {
					t.Fatalf("step %d at %v: Rate %v, shipped reference %v away from a rebase", i/2, now, g, w)
				}
			}
		}
	})
}
