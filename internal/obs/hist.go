package obs

// HistSnapshot is a histogram in export form, what a Prometheus histogram
// sample carries; DigestSnapshot.Hist makes one. Counts are per-bucket (not
// cumulative); Counts[len(Bounds)] is the overflow (+Inf) bucket. Bounds
// are inclusive upper bounds in the exported unit (seconds for latencies).
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// quantile estimates the q-quantile (0 ≤ q ≤ 1) from bucket upper
// bounds; it returns 0 for an empty histogram.
func (s HistSnapshot) quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	var cum uint64
	for i, n := range s.Counts {
		cum += n
		if cum > target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1] // overflow: report the last bound
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
