package experiments

import (
	"fmt"
	"runtime"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/harness"
	"bcpqp/internal/metrics"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/shaper"
	"bcpqp/internal/sim"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// ExtAQM is an extension experiment beyond the paper's figures: it
// exercises the §3.3 remark that phantom queues can apply active queue
// management at arrival time. A Reno flow runs through a plain drop-tail
// PQP and through the same queue with RED early drops, comparing drop
// clustering, retransmission-timeout pressure, and achieved rate.
func ExtAQM(scale Scale, seed uint64) (*Report, error) {
	rate := 10 * units.Mbps
	rtt := 50 * time.Millisecond
	dur := 30 * time.Second
	if scale == full {
		dur = 60 * time.Second
	}
	req := units.RenoPhantomRequirement(rate, rtt)
	B := 4 * req

	agg := workload.Backlogged(rate, []string{"reno"},
		[]time.Duration{rtt}, 1, 10*time.Millisecond)

	table := &Table{Columns: []string{"queue discipline", "steady rate / r",
		"peak window / r", "drop rate"}}
	variants := []struct {
		name string
		red  *phantom.REDConfig
	}{
		{"drop-tail", nil},
		// RED parameters for a policed TCP flow: the early-drop region
		// starts above the Appendix A occupancy swing (±BDP²/18) so
		// the rate law still holds, and MaxProb is gentle — with a
		// W-packet window, a per-packet probability p costs ≈ W·p
		// drops per RTT, and anything near one drop per RTT keeps the
		// window halving forever.
		{"RED", &phantom.REDConfig{
			MinBytes: req,
			MaxBytes: B,
			MaxProb:  0.01,
			Weight:   0.01,
			Seed:     seed,
		}},
	}
	for _, v := range variants {
		res, err := runAggregate(agg, RunOpts{
			Scheme:           harness.SchemePQP,
			PhantomQueueSize: B,
			PhantomRED:       v.red,
			Queues:           1,
			Duration:         dur,
		})
		if err != nil {
			return nil, err
		}
		samples := res.normalizedAggSamples()
		table.addRow(v.name,
			f3(mean(secondHalf(samples))),
			f2(metrics.NewDist(samples).Max()),
			f3(res.Stats.DropRate()),
		)
	}
	return &Report{
		ID:    "ext-aqm",
		Title: "Extension: RED active queue management on phantom queues (§3.3)",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"RED drops early and probabilistically on the simulated occupancy:",
				"fewer total drops (no synchronized full-queue loss bursts) traded",
				"against a few percent of steady rate — the classic AQM trade",
			},
		}},
	}, nil
}

// ExtECN extends ExtAQM with ECN marking: because a phantom-queue policer
// decides each packet's fate at arrival, it can deliver congestion signals
// as CE marks instead of drops — a capability the paper's AQM lineage
// (§3) has and ordinary token-bucket policers lack. An ECN-capable Reno
// flow through a marking RED phantom queue should reach the enforced rate
// with (nearly) zero losses and zero retransmissions.
func ExtECN(scale Scale, seed uint64) (*Report, error) {
	rate := 10 * units.Mbps
	rtt := 50 * time.Millisecond
	dur := 30 * time.Second
	if scale == full {
		dur = 60 * time.Second
	}
	req := units.RenoPhantomRequirement(rate, rtt)
	B := 4 * req

	agg := workload.Backlogged(rate, []string{"reno"},
		[]time.Duration{rtt}, 1, 10*time.Millisecond)
	agg.Flows[0].ECN = true

	table := &Table{Columns: []string{"signal", "steady rate / r",
		"drop rate", "retransmits", "congestion signals"}}
	variants := []struct {
		name string
		red  *phantom.REDConfig
		ecn  bool
	}{
		{"drop-tail drops", nil, false},
		// Marks are cheaper than drops (no retransmission), but each
		// one still halves the window, so the marking curve is kept
		// gentler than the dropping RED of ext-aqm.
		{"RED + ECN marks", &phantom.REDConfig{
			MinBytes: req,
			MaxBytes: B,
			MaxProb:  0.003,
			Weight:   0.01,
			Seed:     seed,
			MarkECN:  true,
		}, true},
	}
	for _, v := range variants {
		aggV := agg
		aggV.Flows = append([]workload.FlowSpec(nil), agg.Flows...)
		aggV.Flows[0].ECN = v.ecn
		res, err := runAggregate(aggV, RunOpts{
			Scheme:           harness.SchemePQP,
			PhantomQueueSize: B,
			PhantomRED:       v.red,
			Queues:           1,
			Duration:         dur,
		})
		if err != nil {
			return nil, err
		}
		samples := res.normalizedAggSamples()
		table.addRow(v.name,
			f3(mean(secondHalf(samples))),
			f3(res.Stats.DropRate()),
			fmt.Sprintf("%d", res.Flows[0].Rtx),
			fmt.Sprintf("%d", res.Flows[0].ECNSignals),
		)
	}
	return &Report{
		ID:    "ext-ecn",
		Title: "Extension: ECN marking from a bufferless phantom-queue policer",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"a phantom queue decides packet fate at arrival, so it can signal",
				"congestion with CE marks instead of drops: losses and",
				"retransmissions fall away while the enforced rate holds",
			},
		}},
	}, nil
}

// extMem is an extension experiment quantifying the §2.1 motivation: the
// memory a shaper must hold for buffered packets versus the counters a
// phantom-queue policer keeps, measured as live heap per operating
// aggregate while both are under 1.3× offered load.
func extMem(scale Scale, seed uint64) (*Report, error) {
	aggregates := 100
	packetsPer := 4000
	if scale == full {
		aggregates = 1000
		packetsPer = 8000
	}
	rate := 20 * units.Mbps
	maxRTT := 50 * time.Millisecond
	const queues = 16

	table := &Table{Columns: []string{"scheme",
		fmt.Sprintf("KB held / aggregate (n=%d)", aggregates)}}
	for _, scheme := range []harness.Scheme{harness.SchemeShaper,
		harness.SchemePolicer, harness.SchemeFairPolicer, harness.SchemeBCPQP} {
		cfg := harness.Config{Scheme: scheme, Rate: rate, MaxRTT: maxRTT, Queues: queues}
		perAgg, err := measureHeldMemory(cfg, aggregates, packetsPer)
		if err != nil {
			return nil, err
		}
		table.addRow(scheme.String(), f1(perAgg/1000))
	}
	return &Report{
		ID:    "ext-mem",
		Title: "Extension: live memory per operating aggregate (§2.1 motivation)",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"each aggregate processes a 16-flow stream at 1.3× its rate with",
				"per-packet payload buffers; shapers retain the buffered payloads,",
				"bufferless schemes retain only counters",
			},
		}},
	}, nil
}

// measureHeldMemory loads n enforcers built from cfg with traffic (freshly
// allocated payload per packet so buffering is visible to the heap) and
// returns the live bytes per enforcer after GC, with everything still
// reachable.
func measureHeldMemory(cfg harness.Config, n, packets int) (float64, error) {
	// One reused one-element burst, cleared after each call so it holds no
	// payload into the measurement.
	var one [1]packet.Packet
	var v [1]enforcer.Verdict
	// Each aggregate's shaper runs its service events on its own loop, as
	// the harness drives its shaper. The loops, the schedulers that capture
	// them and the list of enforcers are the rig's, built before the first
	// heap reading, so only what a scheme keeps is counted; a bufferless
	// scheme never schedules.
	enfs := make([]enforcer.Enforcer, 0, n)
	loops := make([]*sim.Loop, n)
	scheds := make([]shaper.SchedulerFunc, n)
	for i := range loops {
		loop := sim.NewLoop()
		loops[i] = loop
		scheds[i] = func(at time.Duration, fn func()) { loop.At(at, fn) }
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for i := 0; i < n; i++ {
		enf, err := harness.BuildEnforcer(cfg, scheds[i], func(time.Duration, packet.Packet) {})
		if err != nil {
			return 0, err
		}
		enfs = append(enfs, enf)
	}
	// Drive each enforcer to steady occupancy at 1.3× its rate.
	gap := time.Duration(float64(cfg.Rate.DurationForBytes(units.MSS)) / 1.3)
	for i, enf := range enfs {
		now := time.Duration(0)
		for p := 0; p < packets; p++ {
			now += gap
			payload := make([]byte, units.MSS)
			payload[0] = byte(p)
			one[0] = packet.Packet{
				Key:     packet.FlowKey{SrcIP: uint32(i), SrcPort: uint16(p % 16), Proto: 6},
				Class:   p % 16,
				Size:    units.MSS,
				Payload: payload,
			}
			enf.SubmitBatch(now, one[:], v[:])
			one[0] = packet.Packet{}
			loops[i].Run(now)
		}
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perAgg := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)

	// Keep everything reachable until after the measurement.
	runtime.KeepAlive(enfs)
	runtime.KeepAlive(loops)
	runtime.KeepAlive(scheds)
	return perAgg, nil
}
