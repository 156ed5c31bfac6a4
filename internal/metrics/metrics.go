// Package metrics implements the measurement machinery of the paper's
// evaluation: receiver-side throughput over fixed windows (250 ms in §6.1),
// Jain's fairness index, CDFs/percentiles, and burst (tail deviation)
// summaries.
package metrics

import (
	"math"
	"sort"
	"time"

	"bcpqp/internal/units"
)

// DefaultWindow is the paper's throughput measurement window (§6.1).
const DefaultWindow = 250 * time.Millisecond

// Meter accumulates per-key byte counts into fixed-size time windows.
// Keys identify flows or aggregates.
type Meter struct {
	window time.Duration
	counts map[int][]int64 // key -> bytes per window index
	maxIdx int
}

// NewMeter returns a Meter with the given window (0 selects DefaultWindow).
func NewMeter(window time.Duration) *Meter {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Meter{window: window, counts: make(map[int][]int64)}
}

// Add records bytes for key at virtual time now. A negative now is
// rejected (it would index before the first window); a virtual clock that
// can run backwards must be clamped by the caller.
func (m *Meter) Add(now time.Duration, key int, bytes int) {
	if now < 0 {
		return
	}
	idx := int(now / m.window)
	s := m.counts[key]
	if len(s) <= idx {
		// One append reserves the whole gap: a sparse series (a flow
		// quiet for thousands of windows) grows in a single allocation
		// instead of one per missing window.
		s = append(s, make([]int64, idx+1-len(s))...)
	}
	s[idx] += int64(bytes)
	m.counts[key] = s
	if idx > m.maxIdx {
		m.maxIdx = idx
	}
}

// Window returns the meter's window size.
func (m *Meter) Window() time.Duration { return m.window }

// keys returns the metered keys in ascending order.
func (m *Meter) keys() []int {
	keys := make([]int, 0, len(m.counts))
	for k := range m.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Series returns the per-window throughput for key as rates, padded with
// zeros to the meter's full horizon.
func (m *Meter) Series(key int) []units.Rate {
	s := m.counts[key]
	out := make([]units.Rate, m.maxIdx+1)
	for i := range out {
		var b int64
		if i < len(s) {
			b = s[i]
		}
		out[i] = units.Rate(float64(b) * 8 / m.window.Seconds())
	}
	return out
}

// WindowBytes returns raw per-window byte counts for key, padded to the
// meter horizon.
func (m *Meter) WindowBytes(key int) []int64 {
	s := m.counts[key]
	out := make([]int64, m.maxIdx+1)
	copy(out, s)
	return out
}

// TotalBytes returns all bytes recorded for key.
func (m *Meter) TotalBytes(key int) int64 {
	var sum int64
	for _, b := range m.counts[key] {
		sum += b
	}
	return sum
}

// Windows returns the number of windows the meter has observed.
func (m *Meter) Windows() int { return m.maxIdx + 1 }

// Jain computes Jain's fairness index over the given allocations:
// (Σx)² / (n·Σx²). It is 1 for perfectly equal shares and 1/n when one
// participant takes everything. Zero-only inputs return 1 (no contention to
// be unfair about).
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
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

// Dist is an immutable sorted sample set supporting quantile queries.
type Dist struct {
	sorted []float64
}

// NewDist copies and sorts samples.
func NewDist(samples []float64) Dist {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return Dist{sorted: s}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation.
func (d Dist) Quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return d.sorted[0]
	}
	if q >= 1 {
		return d.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return d.sorted[n-1]
	}
	return d.sorted[lo]*(1-frac) + d.sorted[lo+1]*frac
}

// Mean returns the sample mean.
func (d Dist) Mean() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range d.sorted {
		sum += v
	}
	return sum / float64(len(d.sorted))
}

// Max returns the largest sample.
func (d Dist) Max() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	return d.sorted[len(d.sorted)-1]
}

// CDF returns (value, cumulative fraction) pairs at up to points samples,
// suitable for printing a CDF series.
func (d Dist) CDF(points int) (values, fractions []float64) {
	n := len(d.sorted)
	if n == 0 {
		return nil, nil
	}
	if points <= 0 || points > n {
		points = n
	}
	values = make([]float64, points)
	fractions = make([]float64, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * n / points
		if idx > n {
			idx = n
		}
		values[i] = d.sorted[idx-1]
		fractions[i] = float64(idx) / float64(n)
	}
	return values, fractions
}
