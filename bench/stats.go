package main

import (
	"slices"

	"bcpqp"
	"bcpqp/internal/metrics"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by nearest-rank
// selection on a sorted copy: the smallest sample with at least q of the
// samples at or below it. It never interpolates, so a reported latency is
// always one that was measured. Empty input returns 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle sample (the mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.NewDist(xs).Quantile(0.5)
}

// iqrPct is the interquartile range of xs as a percentage of the median:
// the harness's own slice-to-slice noise (bench.slice_iqr_pct).
func iqrPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// meanJain averages Jain's index over groups (one group per aggregate, one
// value per flow). Groups that accepted nothing are skipped: an aggregate
// the seeded arrivals never reached has no allocation to be unfair about.
func meanJain(groups [][]float64) float64 {
	var sum float64
	n := 0
	for _, g := range groups {
		var total float64
		for _, x := range g {
			total += x
		}
		if total == 0 {
			continue
		}
		sum += bcpqp.Jain(g)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// foldRatio maps a "closer to 1" ratio onto (0, 1] so that higher is
// always better: min(x, 1/x).
func foldRatio(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x > 1 {
		return 1 / x
	}
	return x
}

// Arrival generation. The engine sees only packets; which subscriber a
// burst belongs to and which flow each packet belongs to are drawn here
// from the seed.

const (
	// flows is the number of flows offered per aggregate, one per phantom
	// queue.
	flows = 16
	// burstLen is the rx_burst size every workload but relay_single uses.
	burstLen = bcpqp.DefaultBurst
	// skewSlots is the length of the cyclic flow sequence: flow f holds
	// 5+f slots, so flows offer 1×, 1.2×, … 4× of the lightest flow's
	// load and the sixteen of them sum to 2.5× a fair share each.
	skewSlots = 200
	// offeredLoad is the overload workloads' offered load as a multiple of
	// each aggregate's enforced rate: every flow offers at least its fair
	// share (1×–4×), which sums to skewSlots/(5·flows) = 2.5×.
	offeredLoad = float64(skewSlots) / (5 * flows)
)

// lcg is the seeded generator that picks the subscriber (or tree leaf) of
// each burst: Knuth's MMIX constants, high bits used.
type lcg uint64

func newLCG(seed uint64) lcg { return lcg(seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019) }

// next returns a value in [0, n).
func (g *lcg) next(n int) int {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int((uint64(*g) >> 33) % uint64(n))
}

// skewSequence lays the 200 flow slots out by smooth weighted round-robin
// (each step serves the flow with the largest credit), so any window of
// consecutive slots carries the flows in close to their 1×–4× proportions.
// rot rotates the sequence, which is how the seed reaches it.
func skewSequence(rot int) [skewSlots]uint8 {
	var credit [flows]int
	var base [skewSlots]uint8
	for i := range base {
		best := 0
		for f := 0; f < flows; f++ {
			credit[f] += 5 + f
			if credit[f] > credit[best] {
				best = f
			}
		}
		credit[best] -= skewSlots
		base[i] = uint8(best)
	}
	var seq [skewSlots]uint8
	for i := range seq {
		seq[i] = base[(i+rot)%skewSlots]
	}
	return seq
}

// arrivals is the per-workload arrival process: next() names the target
// (subscriber or leaf) of the next burst and the flow of each of its
// packets.
type arrivals struct {
	pick    lcg
	targets int
	seq     [skewSlots]uint8
	cursor  int
}

func newArrivals(seed uint64, targets int) *arrivals {
	return &arrivals{
		pick:    newLCG(seed),
		targets: targets,
		seq:     skewSequence(int(seed % skewSlots)),
	}
}

// next returns the burst's target and advances the flow cursor by n slots;
// flowAt(i) is then the flow of the burst's i-th packet.
func (a *arrivals) next(n int) (target, base int) {
	base = a.cursor
	a.cursor = (a.cursor + n) % skewSlots
	return a.pick.next(a.targets), base
}

func (a *arrivals) flowAt(base, i int) int { return int(a.seq[(base+i)%skewSlots]) }
