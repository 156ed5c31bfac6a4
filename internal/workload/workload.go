// Package workload constructs the traffic mixes of the paper's evaluation
// (§6.1): aggregates of flows with varying congestion control algorithms,
// round-trip times, sizes, and arrival patterns.
//
// Half of the aggregates are homogeneous (all flows share one CC algorithm
// and RTT) and half are mixed; within each half, aggregates are split into
// backlogged-only, short on-and-off-only, and combined subgroups — the
// six-way composition §6.1 describes.
package workload

import (
	"math"
	"time"

	"bcpqp/internal/rng"
	"bcpqp/internal/units"
)

// OnOff describes a flow that alternates data bursts with idle periods
// (the "short on-and-off flows" of §6.1), realized as AddData calls on a
// persistent connection.
type OnOff struct {
	// BurstBytes is the size of each on-period transfer.
	BurstBytes int64
	// Idle is the think time between the completion of one burst and the
	// start of the next.
	Idle time.Duration
}

// FlowSpec describes a single flow inside an aggregate.
type FlowSpec struct {
	// CC names the congestion control algorithm (see cc.NewByName).
	CC string
	// RTT is the flow's two-way propagation delay.
	RTT time.Duration
	// Size is the flow length in bytes; 0 means backlogged.
	Size int64
	// Start is the flow's start time.
	Start time.Duration
	// OnOff, if non-nil, makes the flow an on-off source (Size is then
	// the initial burst size; subsequent bursts use OnOff.BurstBytes).
	OnOff *OnOff
	// Class pins the flow to an enforcer queue; packet.NoClass hashes.
	Class int
	// Weight is the flow's share weight (informational; policies are
	// built by the experiment from these).
	Weight float64
	// ECN marks the flow ECN-capable (for AQM-marking experiments).
	ECN bool
}

// Aggregate is one rate-limited traffic aggregate (e.g. one subscriber).
type Aggregate struct {
	// Label identifies the aggregate composition for reporting.
	Label string
	// Rate is the enforced rate.
	Rate units.Rate
	// Flows lists the member flows.
	Flows []FlowSpec
}

// MaxRTT returns the largest flow RTT in the aggregate — the worst-case
// RTT enforcement schemes are sized against in §6.1.
func (a *Aggregate) MaxRTT() time.Duration {
	var maxRTT time.Duration
	for _, f := range a.Flows {
		if f.RTT > maxRTT {
			maxRTT = f.RTT
		}
	}
	return maxRTT
}

// ccNames is the CC mix of §6.1.
var ccNames = []string{"reno", "cubic", "bbr", "vegas"}

// Section61Config parameterizes the §6.1 workload generator.
type Section61Config struct {
	// Aggregates is the number of aggregates to build (the paper uses
	// 100).
	Aggregates int
	// Rate is the enforced rate for every aggregate.
	Rate units.Rate
	// Duration is the run length; start times spread over its first
	// quarter.
	Duration time.Duration
}

// flowsPerAggregate bounds a §6.1 aggregate's member-flow count: flows are
// drawn uniformly in [2, flowsPerAggregate].
const flowsPerAggregate = 6

// Section61 builds the §6.1 aggregate mix deterministically from src.
func Section61(src *rng.Source, cfg Section61Config) []Aggregate {
	if cfg.Duration <= 0 {
		cfg.Duration = 20 * time.Second
	}
	aggs := make([]Aggregate, 0, cfg.Aggregates)
	for i := 0; i < cfg.Aggregates; i++ {
		r := src.Split(uint64(i))
		homogeneous := i%2 == 0
		var kind string
		switch (i / 2) % 3 {
		case 0:
			kind = "backlogged"
		case 1:
			kind = "onoff"
		default:
			kind = "mixed"
		}
		label := "mixed-cc"
		if homogeneous {
			label = "same-cc"
		}
		agg := Aggregate{
			Label: label + "/" + kind,
			Rate:  cfg.Rate,
		}

		n := 2 + r.IntN(flowsPerAggregate-1)
		sharedCC := ccNames[r.IntN(len(ccNames))]
		sharedRTT := randomRTT(r)
		for j := 0; j < n; j++ {
			fs := FlowSpec{
				CC:     sharedCC,
				RTT:    sharedRTT,
				Class:  j,
				Weight: 1,
				Start:  time.Duration(r.Float64() * float64(cfg.Duration/4)),
			}
			if !homogeneous {
				fs.CC = ccNames[r.IntN(len(ccNames))]
				fs.RTT = randomRTT(r)
			}
			switch kind {
			case "backlogged":
				fs.Size = 0
			case "onoff":
				fs.Size = shortFlowSize(r, cfg.Rate)
				fs.OnOff = &OnOff{
					BurstBytes: shortFlowSize(r, cfg.Rate),
					Idle:       time.Duration(r.Range(0.2, 2.0) * float64(time.Second)),
				}
			default:
				if j%2 == 0 {
					fs.Size = 0
				} else {
					fs.Size = shortFlowSize(r, cfg.Rate)
					fs.OnOff = &OnOff{
						BurstBytes: shortFlowSize(r, cfg.Rate),
						Idle:       time.Duration(r.Range(0.2, 2.0) * float64(time.Second)),
					}
				}
			}
			agg.Flows = append(agg.Flows, fs)
		}
		aggs = append(aggs, agg)
	}
	return aggs
}

// randomRTT draws a propagation RTT from the paper's 2–50 ms netem range.
func randomRTT(r *rng.Source) time.Duration {
	return time.Duration(r.Range(2, 50) * float64(time.Millisecond))
}

// shortFlowSize draws an on-off transfer size from the paper's "10s of KBs
// to 100s of MBs" range. The upper end scales with the enforced rate (at
// least a few seconds of transfer at rate) so that high-rate aggregates see
// flows that live beyond their slow-start ramp, as the testbed's larger
// transfers do; backlogged flows cover the far end of the range.
func shortFlowSize(r *rng.Source, rate units.Rate) int64 {
	lo := 20.0 * float64(units.KB)
	hi := 4.0 * float64(units.MB)
	if scaled := 3 * rate.Bytes(time.Second); scaled > hi {
		hi = scaled
	}
	return int64(lo * math.Pow(hi/lo, r.Float64()))
}

// Backlogged returns an aggregate of n backlogged flows with the given CCs
// and RTTs cycling through the provided slices — the shape used by the
// microbenchmarks (Figs 2, 3, 6).
func Backlogged(rate units.Rate, ccs []string, rtts []time.Duration, n int, start time.Duration) Aggregate {
	agg := Aggregate{Label: "backlogged", Rate: rate}
	for i := 0; i < n; i++ {
		agg.Flows = append(agg.Flows, FlowSpec{
			CC:     ccs[i%len(ccs)],
			RTT:    rtts[i%len(rtts)],
			Class:  i,
			Weight: 1,
			Start:  start,
		})
	}
	return agg
}
