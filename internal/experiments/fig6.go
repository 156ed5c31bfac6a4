package experiments

import (
	"fmt"
	"time"

	"bcpqp/internal/harness"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// Fig6bc reproduces the weighted-fairness microbenchmark: 7 flows with
// weights 1..7 share 50 Mbps; each flow's size is proportional to its
// weight, so under correct weighted sharing all flows complete together.
// FairPolicer's weighted variant fails (its dynamic threshold equalizes
// bucket capacities); BC-PQP succeeds.
func Fig6bc(scale Scale, seed uint64) (*Report, error) {
	rate := 50 * units.Mbps
	const flows = 7
	rtt := 20 * time.Millisecond
	// Total transfer ≈ rate × target; flow i carries weight/(Σw) of it.
	target := 16 * time.Second
	if scale == full {
		target = 30 * time.Second
	}
	totalBytes := rate.Bytes(target)

	weights := make([]float64, flows)
	var wsum float64
	for i := range weights {
		weights[i] = float64(i + 1)
		wsum += weights[i]
	}

	agg := workload.Aggregate{Label: "weighted", Rate: rate}
	for i := 0; i < flows; i++ {
		agg.Flows = append(agg.Flows, workload.FlowSpec{
			CC:    "cubic",
			RTT:   rtt,
			Size:  int64(totalBytes * weights[i] / wsum),
			Start: 10 * time.Millisecond,
			Class: i,
		})
	}

	report := &Report{
		ID:    "fig6bc",
		Title: "Weighted fairness: 7 flows, weights 1-7, sizes ∝ weight, r = 50 Mbps",
	}
	variants := []struct {
		name string
		opts RunOpts
	}{
		{"fig6b FairPolicer (weighted token allocation)", RunOpts{
			Scheme:    harness.SchemeFairPolicer,
			FPWeights: weights,
			Duration:  4 * target,
		}},
		{"fig6c BC-PQP (weighted fair policy)", RunOpts{
			Scheme:   harness.SchemeBCPQP,
			Policy:   sched.WeightedFair(weights...),
			Duration: 4 * target,
		}},
	}
	for _, v := range variants {
		res, err := runAggregate(agg, v.opts)
		if err != nil {
			return nil, err
		}
		table := &Table{Columns: []string{"flow", "weight", "size (MB)",
			"completed (s)", "avg rate (Mbps)", "rate/weight (Mbps)"}}
		var minDone, maxDone float64
		for i, f := range res.Flows {
			done := f.Completed.Seconds()
			if done == 0 {
				done = v.opts.Duration.Seconds() // incomplete
			}
			start := f.Spec.Start.Seconds()
			avg := float64(f.Spec.Size) * 8 / (done - start) / 1e6
			table.addRow(
				fmt.Sprintf("%d", i),
				f1(weights[i]),
				f1(float64(f.Spec.Size)/1e6),
				f2(done),
				f2(avg),
				f2(avg/weights[i]),
			)
			if i == 0 || done < minDone {
				minDone = done
			}
			if done > maxDone {
				maxDone = done
			}
		}
		report.Sections = append(report.Sections, Section{
			Heading: v.name,
			Table:   table,
			Notes: []string{
				fmt.Sprintf("completion-time spread max/min = %.2f (1.0 = perfect weighted sharing)",
					maxDone/minDone),
			},
		})
	}
	return report, nil
}

// Fig6d reproduces the nested-policy microbenchmark: priority group p1
// holds three on-off flows sharing in a 3:2:1 weighted-fair manner; p2
// holds one backlogged flow that should receive bandwidth only while p1 is
// idle.
func Fig6d(scale Scale, seed uint64) (*Report, error) {
	rate := 10 * units.Mbps
	rtt := 20 * time.Millisecond
	dur := 24 * time.Second
	if scale == full {
		dur = 60 * time.Second
	}

	policy := sched.MustNew(sched.Priority(
		sched.Weighted(
			sched.Leaf(0).WithWeight(3),
			sched.Leaf(1).WithWeight(2),
			sched.Leaf(2).WithWeight(1),
		),
		sched.Leaf(3),
	))

	burst := int64(2 * units.MB)
	agg := workload.Aggregate{Label: "nested", Rate: rate}
	for i := 0; i < 3; i++ {
		agg.Flows = append(agg.Flows, workload.FlowSpec{
			CC:   "cubic",
			RTT:  rtt,
			Size: burst,
			// The p1 flows share on/off phase so the run has clear
			// all-idle gaps in which p2 should claim the rate.
			Start: 2 * time.Second,
			OnOff: &workload.OnOff{BurstBytes: burst, Idle: 4 * time.Second},
			Class: i,
		})
	}
	agg.Flows = append(agg.Flows, workload.FlowSpec{
		CC:    "cubic",
		RTT:   rtt,
		Size:  0, // backlogged low-priority flow
		Start: 10 * time.Millisecond,
		Class: 3,
	})

	res, err := runAggregate(agg, RunOpts{
		Scheme:   harness.SchemeBCPQP,
		Policy:   policy,
		Duration: dur,
	})
	if err != nil {
		return nil, err
	}

	names := []string{"p1-w3 (on-off)", "p1-w2 (on-off)", "p1-w1 (on-off)", "p2 (backlogged)"}
	var series []Series
	for i, name := range names {
		rates := res.Meter.Series(i)
		x := make([]float64, len(rates))
		y := make([]float64, len(rates))
		for w, r := range rates {
			x[w] = float64(w) * res.Meter.Window().Seconds()
			y[w] = r.Mbps()
		}
		series = append(series, Series{
			Name: name, XLabel: "time (s)", YLabel: "throughput (Mbps)", X: x, Y: y,
		})
	}

	// Quantify the priority property: p2's rate while any p1 flow is
	// active vs while p1 is idle.
	p1Bytes := make([]int64, res.Meter.Windows())
	for i := 0; i < 3; i++ {
		for w, b := range res.Meter.WindowBytes(i) {
			p1Bytes[w] += b
		}
	}
	p2 := res.Meter.WindowBytes(3)
	var p2WhileP1, p2WhileIdle float64
	var busyWins, idleWins int
	for w := range p1Bytes {
		var p2b int64
		if w < len(p2) {
			p2b = p2[w]
		}
		if p1Bytes[w] > 0 {
			p2WhileP1 += float64(p2b)
			busyWins++
		} else {
			p2WhileIdle += float64(p2b)
			idleWins++
		}
	}
	window := res.Meter.Window().Seconds()
	busyRate, idleRate := 0.0, 0.0
	if busyWins > 0 {
		busyRate = p2WhileP1 * 8 / (float64(busyWins) * window) / 1e6
	}
	if idleWins > 0 {
		idleRate = p2WhileIdle * 8 / (float64(idleWins) * window) / 1e6
	}

	return &Report{
		ID:    "fig6d",
		Title: "Nested policy: priority over weighted fairness (BC-PQP, r = 10 Mbps)",
		Sections: []Section{
			{Series: series},
			{Notes: []string{
				fmt.Sprintf("p2 rate while p1 active: %.2f Mbps over %d windows", busyRate, busyWins),
				fmt.Sprintf("p2 rate while p1 idle:   %.2f Mbps over %d windows", idleRate, idleWins),
				"paper: p1 flows get all bandwidth (weighted) when active; p2 only fills idle gaps",
			}},
		},
	}, nil
}
