package experiments

import (
	"fmt"
	"time"

	"bcpqp/internal/harness"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// Fig3 reproduces the secondary-bottleneck scenario: four flows with
// different congestion control algorithms fair-sharing 7.5 Mbps, with an
// 8.5 Mbps FIFO hop after the enforcer. Large plain phantom queues
// (Fig 3a) let bursts collide at the downstream hop and fairness suffers;
// BC-PQP (Fig 3b) keeps the burst small and restores fairness.
func Fig3(scale Scale, seed uint64) (*Report, error) {
	rate := units.Rate(7.5 * units.Mbps)
	secondary := units.Rate(8.5 * units.Mbps)
	dur := 30 * time.Second
	if scale == full {
		dur = 60 * time.Second
	}
	ccs := []string{"reno", "cubic", "bbr", "vegas"}
	agg := workload.Backlogged(rate, ccs,
		[]time.Duration{40 * time.Millisecond}, 4, 10*time.Millisecond)

	largeB := harness.Buffer(harness.SchemeBCPQP, rate, 50*time.Millisecond)

	type variant struct {
		name string
		opts RunOpts
	}
	variants := []variant{
		{"fig3a PQP (large queues, no burst control)", RunOpts{
			Scheme:           harness.SchemePQP,
			PhantomQueueSize: largeB,
			Secondary:        secondary,
			Duration:         dur,
		}},
		{"fig3b BC-PQP", RunOpts{
			Scheme:    harness.SchemeBCPQP,
			Secondary: secondary,
			Duration:  dur,
		}},
	}

	report := &Report{
		ID:    "fig3",
		Title: "Fair sharing of 7.5 Mbps across 4 CC algorithms with an 8.5 Mbps secondary bottleneck",
	}
	for _, v := range variants {
		res, err := runAggregate(agg, v.opts)
		if err != nil {
			return nil, err
		}
		table := &Table{Columns: []string{"flow", "cc", "avg throughput (Mbps)", "share"}}
		var total float64
		totals := make([]float64, len(ccs))
		for i := range ccs {
			totals[i] = float64(res.Meter.TotalBytes(i))
			total += totals[i]
		}
		for i, cc := range ccs {
			mbps := totals[i] * 8 / dur.Seconds() / 1e6
			share := 0.0
			if total > 0 {
				share = totals[i] / total
			}
			table.addRow(fmt.Sprintf("%d", i), cc, f2(mbps), f3(share))
		}
		jains := res.jainPerWindow()
		var series []Series
		for i, cc := range ccs {
			rates := res.Meter.Series(i)
			x := make([]float64, len(rates))
			y := make([]float64, len(rates))
			for w, r := range rates {
				x[w] = float64(w) * res.Meter.Window().Seconds()
				y[w] = r.Mbps()
			}
			series = append(series, Series{
				Name: cc, XLabel: "time (s)", YLabel: "throughput (Mbps)", X: x, Y: y,
			})
		}
		report.Sections = append(report.Sections, Section{
			Heading: v.name,
			Table:   table,
			Series:  series,
			Notes: []string{
				fmt.Sprintf("mean Jain index over run: %.3f", mean(jains)),
				fmt.Sprintf("mean Jain index steady state: %.3f", mean(secondHalf(jains))),
				fmt.Sprintf("aggregate drop rate: %.3f", res.Stats.DropRate()),
			},
		})
	}
	return report, nil
}
