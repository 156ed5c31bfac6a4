package experiments

import (
	"fmt"
	"time"

	"bcpqp/internal/harness"
	"bcpqp/internal/metrics"
	"bcpqp/internal/rng"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// fig4Schemes is the paper's comparison set for the rate-enforcement study.
var fig4Schemes = []harness.Scheme{
	harness.SchemeShaper,
	harness.SchemePolicer,
	harness.SchemePolicerPlus,
	harness.SchemeFairPolicer,
	harness.SchemeBCPQP,
}

// fig4Run holds the workload sweep results shared by Figs 4a-4d and 6a.
type fig4Run struct {
	rates   []units.Rate
	schemes []harness.Scheme
	// normalized[scheme][rate] = pooled normalized window samples
	normalized map[harness.Scheme]map[units.Rate][]float64
	// dropRate[scheme][rate] = pooled drop rate
	dropRate map[harness.Scheme]map[units.Rate]float64
	// jain[scheme] = pooled per-window Jain samples across rates
	jain map[harness.Scheme][]float64
}

// runFig4 executes the §6.1 sweep: aggregates of mixed composition per
// rate, each pushed through every scheme.
func runFig4(scale Scale, seed uint64) (*fig4Run, error) {
	rates := []units.Rate{
		units.Rate(1.5 * units.Mbps),
		units.Rate(7.5 * units.Mbps),
		25 * units.Mbps,
	}
	aggregates := 6
	dur := 10 * time.Second
	if scale == full {
		rates = append(rates, 50*units.Mbps, 100*units.Mbps)
		aggregates = 100
		dur = 30 * time.Second
	}

	run := &fig4Run{
		rates:      rates,
		schemes:    fig4Schemes,
		normalized: map[harness.Scheme]map[units.Rate][]float64{},
		dropRate:   map[harness.Scheme]map[units.Rate]float64{},
		jain:       map[harness.Scheme][]float64{},
	}
	src := rng.New(seed)
	for _, scheme := range run.schemes {
		run.normalized[scheme] = map[units.Rate][]float64{}
		run.dropRate[scheme] = map[units.Rate]float64{}
	}
	for ri, rate := range rates {
		aggs := workload.Section61(src.Split(uint64(ri)), workload.Section61Config{
			Aggregates: aggregates,
			Rate:       rate,
			Duration:   dur,
		})
		for _, scheme := range run.schemes {
			var dropped, total int64
			for ai, agg := range aggs {
				res, err := runAggregate(agg, RunOpts{
					Scheme:   scheme,
					Duration: dur,
					SrcIP:    uint32(ai),
				})
				if err != nil {
					return nil, err
				}
				run.normalized[scheme][rate] = append(
					run.normalized[scheme][rate], res.normalizedAggSamples()...)
				run.jain[scheme] = append(run.jain[scheme], res.jainPerWindow()...)
				dropped += res.Stats.DroppedPackets
				p, _ := res.Stats.Totals()
				total += p
			}
			if total > 0 {
				run.dropRate[scheme][rate] = float64(dropped) / float64(total)
			}
		}
	}
	return run, nil
}

// Fig4 produces the full rate-enforcement report (4a body CDF, 4b tail,
// 4c mean normalized throughput, 4d drop rates).
func Fig4(scale Scale, seed uint64) (*Report, error) {
	run, err := runFig4(scale, seed)
	if err != nil {
		return nil, err
	}
	report := &Report{
		ID:    "fig4",
		Title: "Aggregate rate enforcement across schemes (§6.1 workload)",
	}

	// 4a: distribution body of normalized aggregate throughput.
	body := &Table{Columns: []string{"scheme", "p10", "p25", "p50", "p75", "p90"}}
	for _, s := range run.schemes {
		var pooled []float64
		for _, r := range run.rates {
			pooled = append(pooled, run.normalized[s][r]...)
		}
		d := metrics.NewDist(pooled)
		body.addRow(s.String(), f3(d.Quantile(0.10)), f3(d.Quantile(0.25)),
			f3(d.Quantile(0.50)), f3(d.Quantile(0.75)), f3(d.Quantile(0.90)))
	}
	report.Sections = append(report.Sections, Section{
		Heading: "fig4a: normalized aggregate throughput distribution (250 ms windows)",
		Table:   body,
		Notes:   []string{"paper: body stays within ≈0.8-1.2 for all schemes; shaper tightest"},
	})

	// 4b: tail (burst) of the same distribution.
	tail := &Table{Columns: []string{"scheme", "p99", "p99.9", "max"}}
	for _, s := range run.schemes {
		var pooled []float64
		for _, r := range run.rates {
			pooled = append(pooled, run.normalized[s][r]...)
		}
		d := metrics.NewDist(pooled)
		tail.addRow(s.String(), f2(d.Quantile(0.99)), f2(d.Quantile(0.999)), f2(d.Max()))
	}
	report.Sections = append(report.Sections, Section{
		Heading: "fig4b: tail of normalized aggregate throughput (burst)",
		Table:   tail,
		Notes:   []string{"paper: Policer+ and FairPolicer burst >10×; BC-PQP small"},
	})

	// 4c: mean of non-zero normalized samples per scheme × rate.
	meanTable := &Table{Columns: append([]string{"scheme"}, rateHeaders(run.rates)...)}
	for _, s := range run.schemes {
		row := []string{s.String()}
		for _, r := range run.rates {
			row = append(row, f3(meanNonZero(run.normalized[s][r])))
		}
		meanTable.addRow(row...)
	}
	report.Sections = append(report.Sections, Section{
		Heading: "fig4c: mean normalized aggregate throughput (non-zero windows)",
		Table:   meanTable,
		Notes:   []string{"paper: plain policer sits below 1; FP/Policer+ above 1 (burst-skewed)"},
	})

	// 4d: drop rates per scheme × rate.
	dropTable := &Table{Columns: append([]string{"scheme"}, rateHeaders(run.rates)...)}
	for _, s := range run.schemes {
		row := []string{s.String()}
		for _, r := range run.rates {
			row = append(row, f3(run.dropRate[s][r]))
		}
		dropTable.addRow(row...)
	}
	report.Sections = append(report.Sections, Section{
		Heading: "fig4d: packet drop rate",
		Table:   dropTable,
		Notes: []string{
			"paper: drops fall as BDP grows; BC-PQP ≈ BDP policer, below FP/Policer+; shaper lowest",
		},
	})
	return report, nil
}

// Fig6a renders the per-flow fairness CDF from the same sweep.
func Fig6a(scale Scale, seed uint64) (*Report, error) {
	run, err := runFig4(scale, seed)
	if err != nil {
		return nil, err
	}
	table := &Table{Columns: []string{"scheme", "p10", "p25", "p50", "mean"}}
	var series []Series
	for _, s := range run.schemes {
		d := metrics.NewDist(run.jain[s])
		table.addRow(s.String(), f3(d.Quantile(0.10)), f3(d.Quantile(0.25)),
			f3(d.Quantile(0.50)), f3(d.Mean()))
		vals, fracs := d.CDF(40)
		series = append(series, Series{
			Name: s.String(), XLabel: "Jain index", YLabel: "CDF", X: vals, Y: fracs,
		})
	}
	return &Report{
		ID:    "fig6a",
		Title: "Per-flow fairness (Jain index over 250 ms windows) across schemes",
		Sections: []Section{
			{Table: table, Notes: []string{
				"paper: shaper ≈ BC-PQP near 1; FairPolicer below; plain policers lowest",
			}},
			{Heading: "CDF series", Series: series},
		},
	}, nil
}

func rateHeaders(rates []units.Rate) []string {
	out := make([]string, len(rates))
	for i, r := range rates {
		out[i] = fmt.Sprintf("%gMbps", r.Mbps())
	}
	return out
}
