package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"bcpqp/internal/units"
)

func TestMeterWindows(t *testing.T) {
	m := NewMeter(250 * time.Millisecond)
	m.Add(100*time.Millisecond, 1, 1000)
	m.Add(200*time.Millisecond, 1, 500)
	m.Add(300*time.Millisecond, 1, 2000)
	wb := m.WindowBytes(1)
	if len(wb) != 2 || wb[0] != 1500 || wb[1] != 2000 {
		t.Errorf("window bytes = %v, want [1500 2000]", wb)
	}
	if m.Windows() != 2 {
		t.Errorf("Windows() = %d, want 2", m.Windows())
	}
	if m.TotalBytes(1) != 3500 {
		t.Errorf("TotalBytes = %d, want 3500", m.TotalBytes(1))
	}
}

// TestMeterRejectsNegativeTime pins Add's guard: a backwards virtual clock
// must be ignored, not panic with a negative window index or corrupt the
// horizon.
func TestMeterRejectsNegativeTime(t *testing.T) {
	m := NewMeter(250 * time.Millisecond)
	m.Add(-time.Second, 1, 1000)
	if m.TotalBytes(1) != 0 {
		t.Errorf("negative-time Add recorded %d bytes, want 0", m.TotalBytes(1))
	}
	m.Add(100*time.Millisecond, 1, 500)
	m.Add(-1, 1, 9999)
	if got := m.TotalBytes(1); got != 500 {
		t.Errorf("TotalBytes = %d after negative Add, want 500", got)
	}
	if m.Windows() != 1 {
		t.Errorf("Windows() = %d, want 1", m.Windows())
	}
}

// TestMeterSparseGapGrowth pins single-append gap growth: a key quiet for
// thousands of windows lands in the right slot with all gap windows zero.
func TestMeterSparseGapGrowth(t *testing.T) {
	m := NewMeter(time.Millisecond)
	m.Add(0, 1, 7)
	m.Add(5000*time.Millisecond, 1, 11)
	wb := m.WindowBytes(1)
	if len(wb) != 5001 {
		t.Fatalf("window count %d, want 5001", len(wb))
	}
	if wb[0] != 7 || wb[5000] != 11 {
		t.Errorf("endpoints = %d, %d, want 7, 11", wb[0], wb[5000])
	}
	for i := 1; i < 5000; i++ {
		if wb[i] != 0 {
			t.Fatalf("gap window %d = %d, want 0", i, wb[i])
		}
	}
	if m.TotalBytes(1) != 18 {
		t.Errorf("TotalBytes = %d, want 18", m.TotalBytes(1))
	}
}

func TestMeterSeriesRates(t *testing.T) {
	m := NewMeter(250 * time.Millisecond)
	m.Add(0, 7, 31250) // 31250 B / 250 ms = 1 Mbps
	s := m.Series(7)
	if len(s) != 1 {
		t.Fatalf("series length %d", len(s))
	}
	if math.Abs(s[0].Mbps()-1) > 1e-9 {
		t.Errorf("rate = %v, want 1 Mbps", s[0])
	}
}

func TestMeterPadsToHorizon(t *testing.T) {
	m := NewMeter(100 * time.Millisecond)
	m.Add(50*time.Millisecond, 1, 100)
	m.Add(950*time.Millisecond, 2, 100) // advances horizon to window 9
	s1 := m.Series(1)
	if len(s1) != 10 {
		t.Errorf("series 1 length %d, want 10 (padded)", len(s1))
	}
	for i := 1; i < 10; i++ {
		if s1[i] != 0 {
			t.Errorf("window %d of key 1 = %v, want 0", i, s1[i])
		}
	}
}

func TestMeterKeys(t *testing.T) {
	m := NewMeter(0)
	if m.Window() != DefaultWindow {
		t.Errorf("default window = %v", m.Window())
	}
	m.Add(0, 3, 1)
	m.Add(0, 1, 1)
	m.Add(0, 2, 1)
	keys := m.keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 2 || keys[2] != 3 {
		t.Errorf("keys = %v", keys)
	}
}

func TestJain(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 1, 1, 1}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{2, 2}, 1},
		{[]float64{}, 1},
		{[]float64{0, 0}, 1},
		{[]float64{4, 2}, 0.9},
	}
	for _, tc := range cases {
		if got := Jain(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Jain(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestJainBoundsProperty(t *testing.T) {
	f := func(xs []uint16) bool {
		vals := make([]float64, len(xs))
		for i, x := range xs {
			vals[i] = float64(x)
		}
		j := Jain(vals)
		if len(vals) == 0 {
			return j == 1
		}
		return j >= 1/float64(len(vals))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedJain(t *testing.T) {
	// Perfect weighted shares → index 1.
	if got := weightedJain([]float64{30, 20, 10}, []float64{3, 2, 1}); math.Abs(got-1) > 1e-9 {
		t.Errorf("weighted jain = %v, want 1", got)
	}
	// Equal shares under unequal weights → below 1.
	if got := weightedJain([]float64{20, 20, 20}, []float64{3, 2, 1}); got > 0.95 {
		t.Errorf("weighted jain for equal split = %v, want <0.95", got)
	}
}

func TestDistQuantiles(t *testing.T) {
	d := NewDist([]float64{5, 1, 3, 2, 4})
	if len(d.sorted) != 5 {
		t.Errorf("N = %d", len(d.sorted))
	}
	if d.sorted[0] != 1 || d.Max() != 5 {
		t.Errorf("min/max = %v/%v", d.sorted[0], d.Max())
	}
	if got := d.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := d.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := d.Quantile(1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := d.Quantile(0.25); got != 2 {
		t.Errorf("q0.25 = %v, want 2", got)
	}
	if got := d.Mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestDistEmpty(t *testing.T) {
	d := NewDist(nil)
	if !math.IsNaN(d.Quantile(0.5)) || !math.IsNaN(d.Mean()) {
		t.Error("empty dist should return NaN")
	}
	v, f := d.CDF(10)
	if v != nil || f != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestDistQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []float64, a, b float64) bool {
		if len(samples) == 0 {
			return true
		}
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return true
			}
		}
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		d := NewDist(samples)
		return d.Quantile(qa) <= d.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	d := NewDist(samples)
	vals, fracs := d.CDF(10)
	if len(vals) != 10 {
		t.Fatalf("CDF points = %d", len(vals))
	}
	if fracs[9] != 1 {
		t.Errorf("last fraction = %v, want 1", fracs[9])
	}
	if vals[9] != 99 {
		t.Errorf("last value = %v, want 99", vals[9])
	}
	for i := 1; i < 10; i++ {
		if vals[i] < vals[i-1] || fracs[i] < fracs[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestMeterRateRoundTrip(t *testing.T) {
	// Bytes added at a constant rate read back as that rate.
	m := NewMeter(100 * time.Millisecond)
	rate := 4 * units.Mbps // 50 KB per 100 ms
	for ms := 0; ms < 1000; ms++ {
		m.Add(time.Duration(ms)*time.Millisecond, 0, 500)
	}
	for i, r := range m.Series(0) {
		if math.Abs(float64(r-rate)/float64(rate)) > 0.01 {
			t.Errorf("window %d rate %v, want %v", i, r, rate)
		}
	}
}

// keys returns the metered keys in ascending order.
func (m *Meter) keys() []int {
	keys := make([]int, 0, len(m.counts))
	for k := range m.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// weightedJain computes Jain's index over weight-normalized allocations
// x_i/w_i, measuring how close shares are to the configured weights.
func weightedJain(xs, ws []float64) float64 {
	norm := make([]float64, len(xs))
	for i := range xs {
		if ws[i] > 0 {
			norm[i] = xs[i] / ws[i]
		}
	}
	return Jain(norm)
}
