package cc

import (
	"time"

	"bcpqp/internal/units"
)

// bbr implements a faithful simplification of BBR v1 (Cardwell et al. 2016):
// a model-based algorithm that estimates the bottleneck bandwidth (windowed
// max of delivery-rate samples) and the round-trip propagation delay
// (windowed min of RTT samples) and paces at gain-cycled multiples of the
// estimated bandwidth. Phases: STARTUP (2/ln2 gain until bandwidth
// plateaus), DRAIN, PROBE_BW (8-phase gain cycle), and PROBE_RTT.
//
// BBR v1 does not reduce its window on packet loss — the property that makes
// it dominate loss-based flows through policers in §6.4 and Appendix B.
type bbr struct {
	mode bbrMode

	btlBw    maxRateFilter
	rtProp   time.Duration
	rtPropAt time.Duration

	pacingGain float64
	cwndGain   float64

	round          int
	roundStartTime time.Duration
	fullBw         units.Rate
	fullBwCount    int
	cycleIndex     int
	cycleStart     time.Duration
	probeRTTDone   time.Duration
	inflightLatest int64
}

type bbrMode int

const (
	bbrStartup bbrMode = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

// BBR constants from the published design.
const (
	bbrHighGain     = 2.885 // 2/ln(2)
	bbrDrainGain    = 1 / bbrHighGain
	bbrCwndGain     = 2.0
	bbrMinRTTWindow = 10 * time.Second
	bbrProbeRTTTime = 200 * time.Millisecond
)

var bbrCycleGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// newBBR returns a BBR controller.
func newBBR() *bbr {
	return &bbr{
		mode:       bbrStartup,
		pacingGain: bbrHighGain,
		cwndGain:   bbrHighGain,
		btlBw:      newMaxRateFilter(10),
	}
}

// Name implements Controller.
func (b *bbr) Name() string { return "bbr" }

// OnAck implements Controller.
func (b *bbr) OnAck(a Ack) {
	b.inflightLatest = a.Inflight

	if a.RTT > 0 {
		if b.rtProp == 0 || a.RTT <= b.rtProp || a.Now-b.rtPropAt > bbrMinRTTWindow {
			b.rtProp = a.RTT
			b.rtPropAt = a.Now
		}
	}
	if a.BandwidthSample > 0 {
		b.btlBw.update(b.round, a.BandwidthSample)
	}

	// Round accounting: a "round" is one estimated RTT of wall time.
	if b.rtProp > 0 && a.Now-b.roundStartTime >= b.rtProp {
		b.roundStartTime = a.Now
		b.round++
		b.checkFullPipe()
	}

	switch b.mode {
	case bbrStartup:
		// handled by checkFullPipe
	case bbrDrain:
		if a.Inflight <= b.bdp(1.0) {
			b.enterProbeBW(a.Now)
		}
	case bbrProbeBW:
		b.advanceCycle(a.Now)
		b.maybeEnterProbeRTT(a.Now)
	case bbrProbeRTT:
		if a.Now >= b.probeRTTDone {
			b.rtPropAt = a.Now
			b.enterProbeBW(a.Now)
		}
	}
}

// checkFullPipe detects the STARTUP bandwidth plateau: three rounds without
// ≥25% bandwidth growth.
func (b *bbr) checkFullPipe() {
	if b.mode != bbrStartup {
		return
	}
	bw := b.btlBw.get()
	if bw > b.fullBw*5/4 {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
	if b.fullBwCount >= 3 {
		b.mode = bbrDrain
		b.pacingGain = bbrDrainGain
		b.cwndGain = bbrHighGain
	}
}

func (b *bbr) enterProbeBW(now time.Duration) {
	b.mode = bbrProbeBW
	b.cwndGain = bbrCwndGain
	b.cycleIndex = 0
	b.cycleStart = now
	b.pacingGain = bbrCycleGains[b.cycleIndex]
}

// advanceCycle rotates the PROBE_BW pacing-gain cycle once per min-RTT.
func (b *bbr) advanceCycle(now time.Duration) {
	interval := b.rtProp
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if now-b.cycleStart < interval {
		return
	}
	// Stay in the 0.75 phase until inflight drains to BDP.
	if bbrCycleGains[b.cycleIndex] == 0.75 && b.inflightLatest > b.bdp(1.0) {
		return
	}
	b.cycleStart = now
	b.cycleIndex = (b.cycleIndex + 1) % len(bbrCycleGains)
	b.pacingGain = bbrCycleGains[b.cycleIndex]
}

// maybeEnterProbeRTT dips the window to drain the queue and re-measure the
// propagation delay when the min-RTT estimate has gone stale.
func (b *bbr) maybeEnterProbeRTT(now time.Duration) {
	if b.rtProp == 0 || now-b.rtPropAt < bbrMinRTTWindow {
		return
	}
	b.mode = bbrProbeRTT
	b.probeRTTDone = now + bbrProbeRTTTime
}

// bdp returns gain × estimated bandwidth-delay product in bytes.
func (b *bbr) bdp(gain float64) int64 {
	bw := b.btlBw.get()
	if bw == 0 || b.rtProp == 0 {
		return initialWindow
	}
	return int64(gain * bw.Bytes(b.rtProp))
}

// OnLoss implements Controller. BBR v1 does not reduce its rate model on
// individual losses.
func (b *bbr) OnLoss(time.Duration) {}

// OnECN implements Controller. BBR v1 does not react to ECN marks (its
// model is rate-based); marks still spare it the retransmissions that
// drops would cost.
func (b *bbr) OnECN(time.Duration) {}

// OnTimeout implements Controller: a full timeout resets the model
// conservatively.
func (b *bbr) OnTimeout(time.Duration) {
	b.fullBw = 0
	b.fullBwCount = 0
}

// CongestionWindow implements Controller.
func (b *bbr) CongestionWindow() int64 {
	if b.mode == bbrProbeRTT {
		return 4 * units.MSS
	}
	w := b.bdp(b.cwndGain)
	if w < 4*units.MSS {
		w = 4 * units.MSS
	}
	return w
}

// PacingRate implements Controller.
func (b *bbr) PacingRate() (units.Rate, bool) {
	bw := b.btlBw.get()
	if bw == 0 {
		return 0, false
	}
	return units.Rate(b.pacingGain * float64(bw)), true
}

// maxRateFilter is a windowed-max filter over rounds (the btlbw filter).
type maxRateFilter struct {
	window  int
	samples []rateSample
}

type rateSample struct {
	round int
	rate  units.Rate
}

func newMaxRateFilter(window int) maxRateFilter {
	return maxRateFilter{window: window}
}

func (f *maxRateFilter) update(round int, r units.Rate) {
	// Drop expired samples.
	keep := f.samples[:0]
	for _, s := range f.samples {
		if round-s.round < f.window {
			keep = append(keep, s)
		}
	}
	f.samples = keep
	// Drop samples dominated by the new one.
	for len(f.samples) > 0 && f.samples[len(f.samples)-1].rate <= r {
		f.samples = f.samples[:len(f.samples)-1]
	}
	f.samples = append(f.samples, rateSample{round: round, rate: r})
}

func (f *maxRateFilter) get() units.Rate {
	if len(f.samples) == 0 {
		return 0
	}
	return f.samples[0].rate
}

var _ Controller = (*bbr)(nil)
