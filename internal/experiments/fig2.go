package experiments

import (
	"fmt"
	"time"

	"bcpqp/internal/harness"
	"bcpqp/internal/metrics"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// Fig2 reproduces the phantom-queue sizing study: a Reno flow at 10 Mbps
// and 100 ms RTT against phantom queues of 250 KB (too small — rate
// under-enforced), 1000 KB (at the BDP²/18 requirement — correct), and
// 4000 KB (above it — equally correct in steady state, bigger burst).
func Fig2(scale Scale, seed uint64) (*Report, error) {
	rate := 10 * units.Mbps
	rtt := 100 * time.Millisecond
	dur := 30 * time.Second
	if scale == full {
		dur = 60 * time.Second
	}
	req := units.RenoPhantomRequirement(rate, rtt)
	sizes := []int64{250 * units.KB, 500 * units.KB, 1000 * units.KB, 4000 * units.KB}

	agg := workload.Backlogged(rate, []string{"reno"},
		[]time.Duration{rtt}, 1, 10*time.Millisecond)

	table := &Table{Columns: []string{"B (KB)", "B / requirement",
		"steady rate / r", "peak window / r", "drop rate"}}
	var series []Series
	for _, b := range sizes {
		res, err := runAggregate(agg, RunOpts{
			Scheme:           harness.SchemePQP,
			PhantomQueueSize: b,
			Queues:           1,
			Duration:         dur,
			Window:           250 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		samples := res.normalizedAggSamples()
		steady := mean(secondHalf(samples))
		peak := metrics.NewDist(samples).Max()
		table.addRow(
			f1(float64(b)/1000),
			f2(float64(b)/float64(req)),
			f3(steady),
			f2(peak),
			f3(res.Stats.DropRate()),
		)

		rateSeries := res.Meter.Series(0)
		x := make([]float64, len(rateSeries))
		y := make([]float64, len(rateSeries))
		for i, r := range rateSeries {
			x[i] = float64(i) * 0.25
			y[i] = r.Mbps()
		}
		series = append(series, Series{
			Name:   fmt.Sprintf("B=%dKB", b/1000),
			XLabel: "time (s)",
			YLabel: "throughput (Mbps)",
			X:      x,
			Y:      y,
		})
	}
	return &Report{
		ID:    "fig2",
		Title: "Reno flow vs phantom queue size (r = 10 Mbps, RTT = 100 ms)",
		Sections: []Section{
			{Table: table, Notes: []string{
				fmt.Sprintf("Appendix A requirement BDP²/18×MSS = %d KB", req/1000),
				"undersized queues go empty and under-enforce; oversized only add burst",
			}},
			{Heading: "throughput time series", Series: series},
		},
	}, nil
}
