package obs

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens (run at the commit whose output is the reference)")

// goldenDigest feeds a fixed sequence through Observe and Merge: every
// exact bucket, negatives, a value in every octave up to MaxInt64, a dense
// run the way a rate-error digest fills, and a second digest merged in.
func goldenDigest() *Digest {
	d, other := NewDigest(), NewDigest()
	for v := int64(-3); v < 20; v++ {
		d.Observe(v)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for shift := 0; shift < 63; shift++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := int64(x >> 1 >> (62 - shift))
		d.Observe(v)
		if shift%3 == 0 {
			other.Observe(v/3 + 1)
		}
	}
	for i := 0; i < 500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		d.Observe(int64(x>>40) % 1200)
		other.Observe(40_000 + int64(x>>44)%9000)
	}
	other.Observe(math.MaxInt64)
	d.Observe(math.MaxInt64 - 1)
	d.Merge(other)
	return d
}

// TestDigestGoldenBQAD pins the BQAD frame of goldenDigest to the bytes the
// dense 488-bucket digest wrote, and checks the frame decodes back to the
// same snapshot.
func TestDigestGoldenBQAD(t *testing.T) {
	s := goldenDigest().Snapshot()
	got := s.Encode()
	path := filepath.Join("testdata", "digest_golden.bqad.hex")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BQAD frame differs from the dense digest's:\n got %x\nwant %x", got, want)
	}
	back, err := DecodeDigest(want)
	if err != nil {
		t.Fatalf("the dense digest's frame is rejected: %v", err)
	}
	if back.Sum != s.Sum || back.Total() != s.Total() || back.Quantile(0.5) != s.Quantile(0.5) || back.Quantile(0.99) != s.Quantile(0.99) {
		t.Fatalf("decoded frame reads sum %d total %d p50 %d p99 %d, snapshot sum %d total %d p50 %d p99 %d",
			back.Sum, back.Total(), back.Quantile(0.5), back.Quantile(0.99), s.Sum, s.Total(), s.Quantile(0.5), s.Quantile(0.99))
	}
}
