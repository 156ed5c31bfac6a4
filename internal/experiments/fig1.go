package experiments

import (
	"time"

	"bcpqp/internal/harness"
	"bcpqp/internal/metrics"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// Fig1a reproduces the motivation figure: a shaper enforces per-flow
// fairness at a high per-packet CPU cost, while a policer is cheap but
// cannot enforce fairness. Fairness comes from a mixed-CC aggregate
// simulation; CPU cost from the real datapath micro-measurement shared
// with Fig 5.
func Fig1a(scale Scale, seed uint64) (*Report, error) {
	dur := 12 * time.Second
	flows := 8
	if scale == full {
		dur = 30 * time.Second
	}
	agg := workload.Backlogged(
		units.Rate(20*units.Mbps),
		[]string{"reno", "cubic", "bbr", "vegas"},
		[]time.Duration{10 * time.Millisecond, 25 * time.Millisecond, 40 * time.Millisecond},
		flows, 10*time.Millisecond)

	table := &Table{Columns: []string{"scheme", "avg Jain index", "ns/packet", "allocs/packet"}}
	for _, scheme := range []harness.Scheme{harness.SchemeShaper, harness.SchemePolicer} {
		res, err := runAggregate(agg, RunOpts{Scheme: scheme, Duration: dur})
		if err != nil {
			return nil, err
		}
		jain := mean(secondHalf(res.jainPerWindow()))
		eff := measureEfficiency(scheme, efficiencyPackets(scale))
		table.addRow(scheme.String(), f3(jain), f1(eff.NsPerPacket), f2(eff.AllocsPerPacket))
	}
	return &Report{
		ID:    "fig1a",
		Title: "Shapers enforce policy at high CPU cost; policers are cheap but policy-blind",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"fairness from an 8-flow mixed-CC aggregate at 20 Mbps",
				"cost from the live datapath micro-benchmark (see fig5)",
			},
		}},
	}, nil
}

// Fig1b reproduces the policer configuration trade-off: small buckets
// under-enforce the average rate, large buckets admit multi-×r bursts.
func Fig1b(scale Scale, seed uint64) (*Report, error) {
	rate := 10 * units.Mbps
	rtt := 100 * time.Millisecond
	dur := 20 * time.Second
	if scale == full {
		dur = 40 * time.Second
	}
	bdp := units.BDPBytes(rate, rtt)
	buckets := []int64{bdp / 8, bdp / 4, bdp / 2, bdp, 2 * bdp, 4 * bdp, 8 * bdp, 16 * bdp}

	agg := workload.Backlogged(rate, []string{"reno"},
		[]time.Duration{rtt}, 1, 10*time.Millisecond)

	table := &Table{Columns: []string{"bucket (KB)", "bucket (BDP)",
		"steady rate / r", "peak 250ms window / r", "drop rate"}}
	for _, b := range buckets {
		res, err := runAggregate(agg, RunOpts{
			Scheme:           harness.SchemePQP, // single phantom queue ≡ TBF with bucket B
			PhantomQueueSize: b,
			Queues:           1,
			Duration:         dur,
		})
		if err != nil {
			return nil, err
		}
		samples := res.normalizedAggSamples()
		steady := mean(secondHalf(samples))
		peak := metrics.NewDist(samples).Max()
		table.addRow(
			f1(float64(b)/1000),
			f2(float64(b)/float64(bdp)),
			f3(steady),
			f2(peak),
			f3(res.Stats.DropRate()),
		)
	}
	return &Report{
		ID:    "fig1b",
		Title: "Policer bucket sizing trade-off: average rate vs burst (Reno, 10 Mbps, 100 ms RTT)",
		Sections: []Section{{
			Table: table,
			Notes: []string{"single phantom queue of size B is exactly a token bucket of size B (§3.1)"},
		}},
	}, nil
}
