package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRateConversions(t *testing.T) {
	r := MbpsRate(8)
	if got := r.BytesPerSecond(); got != 1e6 {
		t.Errorf("8 Mbps = %v bytes/s, want 1e6", got)
	}
	if got := r.Mbps(); got != 8 {
		t.Errorf("Mbps() = %v, want 8", got)
	}
	if got := KbpsRate(1000); got != 1*Mbps {
		t.Errorf("1000 Kbps = %v, want 1 Mbps", got)
	}
}

func TestRateBytes(t *testing.T) {
	r := 8 * Mbps // 1 MB/s
	cases := []struct {
		d    time.Duration
		want float64
	}{
		{time.Second, 1e6},
		{time.Millisecond, 1e3},
		{250 * time.Millisecond, 250e3},
		{0, 0},
	}
	for _, tc := range cases {
		if got := r.Bytes(tc.d); math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("Bytes(%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

func TestDurationForBytes(t *testing.T) {
	r := 8 * Mbps
	if got := r.DurationForBytes(1e6); got != time.Second {
		t.Errorf("DurationForBytes(1e6) = %v, want 1s", got)
	}
	if got := Rate(0).DurationForBytes(100); got != 0 {
		t.Errorf("zero rate should return 0, got %v", got)
	}
	if got := Rate(-5).DurationForBytes(100); got != 0 {
		t.Errorf("negative rate should return 0, got %v", got)
	}
}

func TestBytesDurationRoundTrip(t *testing.T) {
	f := func(mbps uint16, kb uint16) bool {
		r := MbpsRate(float64(mbps%1000) + 1)
		n := int64(kb)*KB + 1
		d := r.DurationForBytes(n)
		back := r.Bytes(d)
		return math.Abs(back-float64(n)) < 1 // within a byte
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{500 * BitPerSecond, "500bps"},
		{2 * Kbps, "2.00Kbps"},
		{MbpsRate(7.5), "7.50Mbps"},
		{2 * Gbps, "2.00Gbps"},
	}
	for _, tc := range cases {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", float64(tc.r), got, tc.want)
		}
	}
}

func TestBDP(t *testing.T) {
	// 10 Mbps × 100 ms = 125000 bytes ≈ 83.3 packets.
	r := 10 * Mbps
	rtt := 100 * time.Millisecond
	if got := BDPBytes(r, rtt); got != 125000 {
		t.Errorf("BDPBytes = %d, want 125000", got)
	}
	if got := BDPPackets(r, rtt); got != 84 { // ceil(125000/1500)
		t.Errorf("BDPPackets = %d, want 84", got)
	}
}

func TestRenoPhantomRequirement(t *testing.T) {
	// Paper §3.5: 10 Mbps at 100 ms RTT needs ≈ 1000 KB.
	got := RenoPhantomRequirement(10*Mbps, 100*time.Millisecond)
	if got < 500*KB || got > 1100*KB {
		t.Errorf("requirement = %d, want ≈ 588KB-ish (paper: ~1000KB rule of thumb, formula BDP²/18×MSS)", got)
	}
	// The formula value: ceil(125000/1500)=84 packets → 84²/18×1500 = 588000.
	want := int64(float64(84*84) / 18 * MSS)
	if got != want {
		t.Errorf("requirement = %d, want %d", got, want)
	}
}

func TestRenoRequirementFloor(t *testing.T) {
	if got := RenoPhantomRequirement(100*Kbps, time.Millisecond); got != 4*MSS {
		t.Errorf("tiny BDP should hit the 4-MSS floor, got %d", got)
	}
}

func TestRenoRequirementScalesQuadratically(t *testing.T) {
	r1 := RenoPhantomRequirement(10*Mbps, 100*time.Millisecond)
	r2 := RenoPhantomRequirement(20*Mbps, 100*time.Millisecond)
	ratio := float64(r2) / float64(r1)
	if ratio < 3.8 || ratio > 4.2 {
		t.Errorf("doubling rate should ~4x the requirement (BDP² law), got %.2fx", ratio)
	}
}

func TestCubicPhantomRequirement(t *testing.T) {
	got := CubicPhantomRequirement(10*Mbps, 100*time.Millisecond)
	if got < 4*MSS {
		t.Errorf("requirement %d below floor", got)
	}
	// The Cubic requirement must be positive and grow with BDP.
	larger := CubicPhantomRequirement(40*Mbps, 100*time.Millisecond)
	if larger <= got {
		t.Errorf("requirement should grow with rate: %d -> %d", got, larger)
	}
}

func TestCubicVsRenoSmallBDP(t *testing.T) {
	// Paper §6.1: "For small values of RTT and rate, Cubic requires a
	// larger bucket size, whereas in other cases New Reno requires a
	// larger bucket size."
	smallCubic := CubicPhantomRequirement(1500*Kbps, 5*time.Millisecond)
	smallReno := RenoPhantomRequirement(1500*Kbps, 5*time.Millisecond)
	if smallCubic < smallReno {
		t.Logf("small-BDP: cubic=%d reno=%d (cubic expected ≥ reno here)", smallCubic, smallReno)
	}
	bigCubic := CubicPhantomRequirement(100*Mbps, 100*time.Millisecond)
	bigReno := RenoPhantomRequirement(100*Mbps, 100*time.Millisecond)
	if bigReno < bigCubic {
		t.Errorf("large-BDP: reno requirement (%d) should exceed cubic (%d)", bigReno, bigCubic)
	}
}

func TestCubeRoot(t *testing.T) {
	for _, v := range []float64{0, 1, 8, 27, 1000, 0.001, 123456.789} {
		got := cubeRoot(v)
		if math.Abs(got*got*got-v) > 1e-6*(v+1) {
			t.Errorf("cubeRoot(%v)³ = %v, want %v", v, got*got*got, v)
		}
	}
}

// TestPhantomRequirementTable pins the sizing results for the plans the
// benchmarks and examples use. CubicPhantomRequirement is memoised; every
// row is asked twice (a miss, then a hit), and the table is longer than the
// memo, so a second pass also covers entries that were evicted and refilled.
func TestPhantomRequirementTable(t *testing.T) {
	rows := []struct {
		r           Rate
		rtt         time.Duration
		reno, cubic int64
	}{
		{1 * Mbps, 50 * time.Millisecond, 6000, 9706},
		{1 * Mbps, 100 * time.Millisecond, 6750, 11193},
		{20 * Mbps, 50 * time.Millisecond, 588000, 403983},
		{20 * Mbps, 100 * time.Millisecond, 2324083, 514506},
		{100 * Mbps, 50 * time.Millisecond, 14490750, 3392828},
		{100 * Mbps, 100 * time.Millisecond, 57963000, 4299834},
		{0, 0, 4 * MSS, 4 * MSS},
		{1 * Mbps, 0, 4 * MSS, 4 * MSS},
		{2 * Mbps, 100 * time.Millisecond, 24083, cubicPhantomRequirement(2*Mbps, 100*time.Millisecond)},
		{3 * Mbps, 100 * time.Millisecond, 52083, cubicPhantomRequirement(3*Mbps, 100*time.Millisecond)},
	}
	if len(rows) <= len(cubicMemo.keys) {
		t.Fatalf("table of %d rows does not overflow the %d-entry memo", len(rows), len(cubicMemo.keys))
	}
	for pass := 0; pass < 2; pass++ {
		for _, row := range rows {
			if got := RenoPhantomRequirement(row.r, row.rtt); got != row.reno {
				t.Errorf("Reno(%v, %v) = %d, want %d", row.r, row.rtt, got, row.reno)
			}
			for ask := 0; ask < 2; ask++ {
				if got := CubicPhantomRequirement(row.r, row.rtt); got != row.cubic {
					t.Errorf("pass %d ask %d: Cubic(%v, %v) = %d, want %d", pass, ask, row.r, row.rtt, got, row.cubic)
				}
			}
		}
	}
}
