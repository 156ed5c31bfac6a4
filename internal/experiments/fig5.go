package experiments

import (
	"runtime"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/harness"
	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
	"bcpqp/internal/shaper"
	"bcpqp/internal/timerwheel"
	"bcpqp/internal/units"
)

// EfficiencyRig drives one enforcer's real datapath with a pre-generated
// synthetic packet stream on a virtual clock, measuring the per-packet CPU
// cost the paper uses as its scalability proxy (Fig 5). The same rig backs
// the testing.B benchmarks in bench_test.go.
//
// The stream models 16 flows offering ≈1.3× the enforced rate with
// per-flow jitter and occasional micro-bursts, so every scheme exercises
// its full decision path (admission, drops, token/queue maintenance). The
// shaper is driven through a hashed timing wheel — its production dequeue
// scheduling structure — advanced inline with the virtual clock, and its
// dequeues copy real payload bytes, charging it the memory-movement cost
// §2.1 describes.
type EfficiencyRig struct {
	enf   enforcer.Enforcer
	wheel *timerwheel.Wheel // nil for bufferless schemes

	gaps    []time.Duration
	classes []int
	pkts    []packet.Packet
	now     time.Duration

	// burstBuf/burstVerdicts are reusable scratch for SubmitBurst, and
	// verdict for Submit, so neither measurement loop allocates.
	burstBuf      []packet.Packet
	burstVerdicts []enforcer.Verdict
	verdict       [1]enforcer.Verdict

	// Sunk prevents the sink from being optimized away.
	Sunk int64
}

// Rig sizing shared with Fig 1a.
const (
	rigRate   = 50 * units.Mbps
	rigFlows  = 16
	rigMaxRTT = 50 * time.Millisecond
)

// NewEfficiencyRig builds the rig for one scheme.
func NewEfficiencyRig(scheme harness.Scheme) *EfficiencyRig {
	rig := &EfficiencyRig{}

	// Pre-generate the arrival pattern so measurement loops contain no
	// RNG work. Mean inter-arrival = MSS / (1.3 × rate), with jitter
	// and a 1-in-16 chance of a back-to-back burst of 4.
	src := rng.New(0xEFF1C1)
	const patternLen = 1 << 14
	meanGap := time.Duration(float64(rigRate.DurationForBytes(units.MSS)) / 1.3)
	payload := make([]byte, units.MSS)
	for i := 0; i < patternLen; i++ {
		gap := time.Duration(src.Range(0.5, 1.5) * float64(meanGap))
		if src.IntN(16) == 0 {
			gap = 0 // micro-burst
		}
		class := src.IntN(rigFlows)
		rig.gaps = append(rig.gaps, gap)
		rig.classes = append(rig.classes, class)
		rig.pkts = append(rig.pkts, packet.Packet{
			Key: packet.FlowKey{
				SrcIP: 10, DstIP: 20,
				SrcPort: uint16(class + 1), DstPort: 443, Proto: 6,
			},
			Class:   class,
			Size:    units.MSS,
			Payload: payload,
		})
	}

	// The shaper's dequeues run off a timing wheel advanced with the
	// virtual clock; the bufferless schemes ignore both arguments.
	wheel := timerwheel.MustNew(50*time.Microsecond, 1024)
	enf, err := harness.BuildEnforcer(harness.Config{
		Scheme: scheme, Rate: rigRate, MaxRTT: rigMaxRTT, Queues: rigFlows,
	}, shaper.SchedulerFunc(func(at time.Duration, fn func()) {
		wheel.Schedule(at, fn)
	}), func(now time.Duration, p packet.Packet) {
		rig.Sunk += int64(p.Size)
	})
	if err != nil {
		panic("experiments: efficiency rig: " + err.Error())
	}
	rig.enf = enf
	if _, ok := enf.(*shaper.Shaper); ok {
		rig.wheel = wheel
	}
	return rig
}

// Submit pushes the i-th packet of the (wrapping) pattern through the
// datapath as a burst of one, advancing the virtual clock and, for the
// shaper, the timing wheel. The burst is the pattern's own one-element
// window, so nothing is copied and no payload is held past the call.
func (r *EfficiencyRig) Submit(i int) enforcer.Verdict {
	idx := i & (len(r.gaps) - 1)
	r.now += r.gaps[idx]
	r.enf.SubmitBatch(r.now, r.pkts[idx:idx+1], r.verdict[:])
	if r.wheel != nil {
		r.wheel.Advance(r.now)
	}
	return r.verdict[0]
}

// SubmitBurst pushes the n pattern packets starting at index i through the
// enforcer's batch datapath in one call. Virtual time advances by the
// burst's total inter-arrival gap and every packet in the burst is
// enforced at the burst arrival time — the granularity a burst-polling
// (DPDK-style) middlebox actually observes.
func (r *EfficiencyRig) SubmitBurst(i, n int) {
	if cap(r.burstBuf) < n {
		r.burstBuf = make([]packet.Packet, n)
		r.burstVerdicts = make([]enforcer.Verdict, n)
	}
	buf := r.burstBuf[:n]
	for k := 0; k < n; k++ {
		idx := (i + k) & (len(r.gaps) - 1)
		r.now += r.gaps[idx]
		buf[k] = r.pkts[idx]
	}
	r.enf.SubmitBatch(r.now, buf, r.burstVerdicts[:n])
	if r.wheel != nil {
		r.wheel.Advance(r.now)
	}
}

// stats exposes the enforcer's accounting.
func (r *EfficiencyRig) stats() enforcer.Stats {
	if sr, ok := r.enf.(enforcer.StatsReader); ok {
		return sr.EnforcerStats()
	}
	return enforcer.Stats{}
}

// efficiency is one scheme's measured datapath cost.
type efficiency struct {
	Scheme          harness.Scheme
	NsPerPacket     float64
	AllocsPerPacket float64
	DropRate        float64
}

// efficiencyPackets scales the measurement length.
func efficiencyPackets(scale Scale) int {
	if scale == full {
		return 3_000_000
	}
	return 500_000
}

// measureEfficiency times n packets through the scheme's datapath.
func measureEfficiency(scheme harness.Scheme, n int) efficiency {
	rig := NewEfficiencyRig(scheme)
	// Warm up caches and steady-state token/queue levels.
	for i := 0; i < n/10+1; i++ {
		rig.Submit(i)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		rig.Submit(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	stats := rig.stats()
	return efficiency{
		Scheme:          scheme,
		NsPerPacket:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerPacket: float64(after.Mallocs-before.Mallocs) / float64(n),
		DropRate:        stats.DropRate(),
	}
}

// Fig5 reports per-packet datapath cost for every scheme.
func Fig5(scale Scale, seed uint64) (*Report, error) {
	n := efficiencyPackets(scale)
	table := &Table{Columns: []string{"scheme", "ns/packet", "allocs/packet",
		"relative to policer", "drop rate"}}
	var policerNs float64
	results := make([]efficiency, 0, len(harness.AllSchemes()))
	for _, s := range harness.AllSchemes() {
		e := measureEfficiency(s, n)
		results = append(results, e)
		if s == harness.SchemePolicer {
			policerNs = e.NsPerPacket
		}
	}
	for _, e := range results {
		rel := "-"
		if policerNs > 0 {
			rel = f2(e.NsPerPacket / policerNs)
		}
		table.addRow(e.Scheme.String(), f1(e.NsPerPacket), f2(e.AllocsPerPacket),
			rel, f3(e.DropRate))
	}
	return &Report{
		ID:    "fig5",
		Title: "CPU cost per packet (datapath micro-benchmark; cycles proxy)",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"paper: BC-PQP 5-7× cheaper than the shaper, within 1.5-2× of a plain policer",
				"the shaper pays buffering, payload copies, and timing-wheel dequeue scheduling",
				"FairPolicer pays per-enqueue token distribution",
			},
		}},
	}, nil
}
