package harness

import (
	"testing"
	"time"

	"bcpqp/internal/metrics"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/shaper"
	"bcpqp/internal/units"
)

// attach adds a backlogged flow with receiver metering on key `idx`.
func attach(t *testing.T, h *Harness, m *metrics.Meter, idx, class int, ccName string,
	rtt, start time.Duration, size int64) {
	t.Helper()
	_, err := h.AttachFlow(FlowSpec{
		Key: packet.FlowKey{SrcIP: 1, SrcPort: uint16(idx + 1),
			DstIP: 2, DstPort: 443, Proto: 6},
		Class: class,
		CC:    ccName,
		RTT:   rtt,
		Size:  size,
		Start: start,
		OnDeliver: func(now time.Duration, b int) {
			m.Add(now, idx, b)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// steadyMbps returns a flow's mean rate over the second half of the run.
func steadyMbps(m *metrics.Meter, idx int) float64 {
	wb := m.WindowBytes(idx)
	var sum int64
	half := wb[len(wb)/2:]
	for _, b := range half {
		sum += b
	}
	return float64(sum) * 8 / (float64(len(half)) * m.Window().Seconds()) / 1e6
}

// TestWeightedSharingEndToEnd: two backlogged cubic flows through BC-PQP
// with a 3:1 weighted policy achieve a ≈3:1 throughput split.
func TestWeightedSharingEndToEnd(t *testing.T) {
	h, err := New(Config{
		Scheme: SchemeBCPQP,
		Rate:   20 * units.Mbps,
		MaxRTT: 30 * time.Millisecond,
		Queues: 2,
		Policy: sched.WeightedFair(3, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.NewMeter(0)
	attach(t, h, m, 0, 0, "cubic", 20*time.Millisecond, 10*time.Millisecond, 0)
	attach(t, h, m, 1, 1, "cubic", 20*time.Millisecond, 10*time.Millisecond, 0)
	h.Run(30 * time.Second)

	r0, r1 := steadyMbps(m, 0), steadyMbps(m, 1)
	ratio := r0 / r1
	if ratio < 2.4 || ratio > 3.6 {
		t.Errorf("weighted split %.1f:%.1f Mbps (ratio %.2f), want ≈3", r0, r1, ratio)
	}
	if total := r0 + r1; total < 17 || total > 22 {
		t.Errorf("total %.1f Mbps, want ≈20", total)
	}
}

// TestPriorityEndToEnd: a strict-priority BC-PQP starves the low class
// while the high class is active and hands over when it stops.
func TestPriorityEndToEnd(t *testing.T) {
	h, err := New(Config{
		Scheme: SchemeBCPQP,
		Rate:   10 * units.Mbps,
		MaxRTT: 30 * time.Millisecond,
		Queues: 2,
		Policy: sched.StrictPriority(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.NewMeter(0)
	// High-priority flow sends a 15 MB transfer (~12 s at full rate);
	// low-priority is backlogged from the start.
	attach(t, h, m, 0, 0, "cubic", 20*time.Millisecond, 10*time.Millisecond, 15*units.MB)
	attach(t, h, m, 1, 1, "cubic", 20*time.Millisecond, 10*time.Millisecond, 0)
	h.Run(40 * time.Second)

	// Phase 1 (1-10 s): high should dominate clearly.
	wb0, wb1 := m.WindowBytes(0), m.WindowBytes(1)
	window := m.Window().Seconds()
	sum := func(wb []int64, from, to int) float64 {
		var s int64
		for w := from; w < to && w < len(wb); w++ {
			s += wb[w]
		}
		return float64(s) * 8 / (float64(to-from) * window) / 1e6
	}
	hiEarly := sum(wb0, 4, 40)
	loEarly := sum(wb1, 4, 40)
	if hiEarly < 4*loEarly {
		t.Errorf("priority phase: high %.2f vs low %.2f Mbps; expected clear dominance",
			hiEarly, loEarly)
	}
	// Phase 2 (last 10 s, high finished): low takes the full rate.
	n := m.Windows()
	loLate := sum(wb1, n-40, n)
	if loLate < 7 {
		t.Errorf("after high finished, low got %.2f Mbps, want ≈10", loLate)
	}
}

// TestFairnessAcrossCCsNoSecondary: four different congestion controllers
// share fairly through BC-PQP but not through a plain policer.
func TestFairnessAcrossCCsNoSecondary(t *testing.T) {
	run := func(scheme Scheme) float64 {
		h, err := New(Config{
			Scheme: scheme,
			Rate:   units.Rate(12 * units.Mbps),
			MaxRTT: 40 * time.Millisecond,
			Queues: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := metrics.NewMeter(0)
		for i, cc := range []string{"reno", "cubic", "bbr", "vegas"} {
			attach(t, h, m, i, i, cc, 30*time.Millisecond,
				time.Duration(10+i)*time.Millisecond, 0)
		}
		h.Run(30 * time.Second)
		shares := make([]float64, 4)
		for i := range shares {
			shares[i] = steadyMbps(m, i)
		}
		return metrics.Jain(shares)
	}
	bc := run(SchemeBCPQP)
	pol := run(SchemePolicer)
	t.Logf("steady Jain: bc-pqp %.3f, policer %.3f", bc, pol)
	if bc < 0.95 {
		t.Errorf("BC-PQP cross-CC fairness %.3f, want ≥0.95", bc)
	}
	if pol > bc {
		t.Errorf("plain policer (%.3f) fairer than BC-PQP (%.3f)?", pol, bc)
	}
}

// TestFairPolicerRTTUnfairness reproduces §6.3.1: under FairPolicer, an
// AIMD flow with a large RTT achieves less than its fair share because its
// bucket cannot cover its BDP² requirement, while BC-PQP's large queues
// plus burst control keep the shares balanced.
func TestFairPolicerRTTUnfairness(t *testing.T) {
	run := func(scheme Scheme) (small, large float64) {
		h, err := New(Config{
			Scheme: scheme,
			Rate:   20 * units.Mbps,
			MaxRTT: 100 * time.Millisecond,
			Queues: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := metrics.NewMeter(0)
		attach(t, h, m, 0, 0, "reno", 10*time.Millisecond, 10*time.Millisecond, 0)
		attach(t, h, m, 1, 1, "reno", 100*time.Millisecond, 10*time.Millisecond, 0)
		h.Run(30 * time.Second)
		return steadyMbps(m, 0), steadyMbps(m, 1)
	}
	fpSmall, fpLarge := run(SchemeFairPolicer)
	bcSmall, bcLarge := run(SchemeBCPQP)
	t.Logf("fairpolicer: 10ms=%.2f 100ms=%.2f; bc-pqp: 10ms=%.2f 100ms=%.2f",
		fpSmall, fpLarge, bcSmall, bcLarge)
	fpShare := fpLarge / (fpSmall + fpLarge)
	bcShare := bcLarge / (bcSmall + bcLarge)
	if bcShare < fpShare {
		t.Errorf("large-RTT flow share under BC-PQP (%.3f) below FairPolicer (%.3f); "+
			"expected BC-PQP to fix RTT unfairness", bcShare, fpShare)
	}
	if bcShare < 0.3 {
		t.Errorf("large-RTT flow starved even under BC-PQP: share %.3f", bcShare)
	}
}

// TestSpareCapacityReallocation checks the §4 design note: when a flow
// stops, reclaiming its magic packets frees its share immediately for the
// remaining flows.
func TestSpareCapacityReallocation(t *testing.T) {
	h, err := New(Config{
		Scheme: SchemeBCPQP,
		Rate:   10 * units.Mbps,
		MaxRTT: 30 * time.Millisecond,
		Queues: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.NewMeter(0)
	// Flow 0 stops at ~8 s (a 10 MB transfer at ~5 Mbps); flow 1 runs on.
	attach(t, h, m, 0, 0, "cubic", 20*time.Millisecond, 10*time.Millisecond, 5*units.MB)
	attach(t, h, m, 1, 1, "cubic", 20*time.Millisecond, 10*time.Millisecond, 0)
	h.Run(30 * time.Second)

	// After flow 0 finishes, flow 1 should ramp to ≈ the full rate well
	// before the end of the run.
	wb1 := m.WindowBytes(1)
	n := len(wb1)
	var lateSum int64
	for _, b := range wb1[n-20:] {
		lateSum += b
	}
	late := float64(lateSum) * 8 / (20 * m.Window().Seconds()) / 1e6
	if late < 8 {
		t.Errorf("survivor flow at %.2f Mbps after competitor left, want ≈10", late)
	}
}

// TestShaperAddsQueueingDelayBCPQPDoesNot quantifies the §6.4 trade: the
// shaper's low drop rate is paid for with buffering delay, which the
// bufferless BC-PQP never adds.
func TestShaperAddsQueueingDelayBCPQPDoesNot(t *testing.T) {
	h, err := New(Config{
		Scheme: SchemeShaper,
		Rate:   5 * units.Mbps,
		MaxRTT: 50 * time.Millisecond,
		Queues: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.NewMeter(0)
	attach(t, h, m, 0, 0, "cubic", 30*time.Millisecond, 10*time.Millisecond, 0)
	h.Run(10 * time.Second)
	if d := h.enf.(*shaper.Shaper).AvgQueueingDelay(); d < 5*time.Millisecond {
		t.Errorf("shaper avg queueing delay %v; a backlogged flow should keep its queue busy", d)
	}
}

// TestSchemesProduceDistinctEnforcers sanity-checks the factory wiring.
func TestSchemesProduceDistinctEnforcers(t *testing.T) {
	for _, s := range AllSchemes() {
		h, err := New(Config{
			Scheme: s,
			Rate:   5 * units.Mbps,
			MaxRTT: 50 * time.Millisecond,
			Queues: 4,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if h.enf == nil {
			t.Fatalf("%v: nil enforcer", s)
		}
		if (s == SchemePQP || s == SchemeBCPQP) && h.pqp == nil {
			t.Errorf("%v: no phantom queue ticked", s)
		}
		if _, ok := h.enf.(*shaper.Shaper); (s == SchemeShaper || s == SchemeSingleShaper) && !ok {
			t.Errorf("%v: enforcer is %T, not a shaper", s, h.enf)
		}
	}
}

// TestDuplicateFlowKeyRejected guards the routing table.
func TestDuplicateFlowKeyRejected(t *testing.T) {
	h, err := New(Config{
		Scheme: SchemeBCPQP, Rate: units.Mbps,
		MaxRTT: 10 * time.Millisecond, Queues: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := FlowSpec{
		Key: packet.FlowKey{SrcIP: 1, SrcPort: 1},
		CC:  "reno", RTT: 10 * time.Millisecond,
	}
	if _, err := h.AttachFlow(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AttachFlow(spec); err == nil {
		t.Error("duplicate key accepted")
	}
	spec.Key.SrcPort = 2
	spec.CC = "nope"
	if _, err := h.AttachFlow(spec); err == nil {
		t.Error("unknown CC accepted")
	}
}
