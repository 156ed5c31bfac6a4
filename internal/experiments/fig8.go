package experiments

import (
	"fmt"
	"time"

	"bcpqp/internal/harness"
	"bcpqp/internal/metrics"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// Fig8 validates the Appendix A sizing analysis empirically: for a grid of
// (rate, RTT) pairs, a phantom queue at exactly the BDP²/18×MSS requirement
// sustains the enforced rate for a Reno flow, a queue at a quarter of the
// requirement under-enforces, and in steady state the flow's instantaneous
// rate oscillates within roughly [2r/3, 4r/3].
func Fig8(scale Scale, seed uint64) (*Report, error) {
	type point struct {
		rate units.Rate
		rtt  time.Duration
	}
	grid := []point{
		{5 * units.Mbps, 50 * time.Millisecond},
		{10 * units.Mbps, 50 * time.Millisecond},
		{10 * units.Mbps, 100 * time.Millisecond},
		{20 * units.Mbps, 100 * time.Millisecond},
	}
	dur := 30 * time.Second
	if scale == full {
		dur = 60 * time.Second
		grid = append(grid, point{40 * units.Mbps, 100 * time.Millisecond})
	}

	table := &Table{Columns: []string{"rate", "RTT (ms)", "B=req: rate/r",
		"B=req/4: rate/r", "steady min/r", "steady max/r"}}
	for _, p := range grid {
		req := units.RenoPhantomRequirement(p.rate, p.rtt)
		agg := workload.Backlogged(p.rate, []string{"reno"},
			[]time.Duration{p.rtt}, 1, 10*time.Millisecond)

		run := func(b int64) (*aggResult, error) {
			return runAggregate(agg, RunOpts{
				Scheme:           harness.SchemePQP,
				PhantomQueueSize: b,
				Queues:           1,
				Duration:         dur,
				// Window ≈ RTT so the oscillation bounds are
				// visible (the paper's analysis is per-RTT).
				Window: p.rtt,
			})
		}
		full, err := run(req)
		if err != nil {
			return nil, err
		}
		quarter, err := run(req / 4)
		if err != nil {
			return nil, err
		}
		steady := secondHalf(full.normalizedAggSamples())
		d := metrics.NewDist(steady)
		table.addRow(
			p.rate.String(),
			f1(float64(p.rtt.Milliseconds())),
			f3(mean(steady)),
			f3(mean(secondHalf(quarter.normalizedAggSamples()))),
			f2(d.Quantile(0.02)),
			f2(d.Quantile(0.98)),
		)
	}
	return &Report{
		ID:    "fig8",
		Title: "Appendix A validation: Reno needs B ≥ BDP²/18 × MSS; steady rate ∈ [≈2r/3, ≈4r/3]",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				fmt.Sprintf("run length %v per cell; min/max are 2nd/98th percentiles of per-RTT rate", dur),
			},
		}},
	}, nil
}
