package cc

import (
	"testing"
	"time"

	"bcpqp/internal/units"
)

// names lists the supported congestion control algorithms.
var names = []string{"reno", "cubic", "bbr", "vegas"}

func TestNewByName(t *testing.T) {
	for _, name := range append(names, "newreno") {
		factory, ok := NewByName(name)
		if !ok {
			t.Errorf("NewByName(%q) not found", name)
			continue
		}
		c := factory()
		if c.CongestionWindow() <= 0 {
			t.Errorf("%s initial window %d", name, c.CongestionWindow())
		}
		// Factories return fresh instances.
		if factory() == c {
			t.Errorf("%s factory returned a shared instance", name)
		}
	}
	if _, ok := NewByName("nope"); ok {
		t.Error("unknown name accepted")
	}
}

// ackRTT simulates one RTT worth of ACKs for a window-based controller.
func ackRTT(c Controller, now time.Duration, rtt time.Duration) time.Duration {
	cwnd := c.CongestionWindow()
	segs := cwnd / units.MSS
	if segs < 1 {
		segs = 1
	}
	step := rtt / time.Duration(segs)
	for i := int64(0); i < segs; i++ {
		now += step
		c.OnAck(Ack{Now: now, RTT: rtt, Acked: units.MSS, Inflight: cwnd})
	}
	return now
}

func TestRenoSlowStartDoubles(t *testing.T) {
	r := newReno()
	now := time.Duration(0)
	w0 := r.CongestionWindow()
	now = ackRTT(r, now, 100*time.Millisecond)
	if got := r.CongestionWindow(); got != 2*w0 {
		t.Errorf("after one RTT of slow start cwnd = %d, want %d", got, 2*w0)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := newReno()
	now := time.Duration(0)
	r.OnLoss(now) // exit slow start
	w := r.CongestionWindow()
	now = ackRTT(r, now, 100*time.Millisecond)
	if got := r.CongestionWindow(); got != w+units.MSS {
		t.Errorf("CA growth per RTT = %d bytes, want one MSS", got-w)
	}
}

func TestRenoHalvesOnLoss(t *testing.T) {
	r := newReno()
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		now = ackRTT(r, now, 100*time.Millisecond)
	}
	w := r.CongestionWindow()
	r.OnLoss(now)
	if got := r.CongestionWindow(); got != w/2 {
		t.Errorf("after loss cwnd = %d, want %d", got, w/2)
	}
}

func TestRenoTimeoutCollapses(t *testing.T) {
	r := newReno()
	now := ackRTT(r, 0, 100*time.Millisecond)
	r.OnTimeout(now)
	if got := r.CongestionWindow(); got != units.MSS {
		t.Errorf("after timeout cwnd = %d, want one MSS", got)
	}
}

func TestRenoFloor(t *testing.T) {
	r := newReno()
	for i := 0; i < 30; i++ {
		r.OnLoss(0)
	}
	if got := r.CongestionWindow(); got < 2*units.MSS {
		t.Errorf("cwnd fell to %d, below the 2-MSS floor", got)
	}
}

func TestCubicSlowStartThenGrowth(t *testing.T) {
	c := newCubic()
	now := time.Duration(0)
	w0 := c.CongestionWindow()
	now = ackRTT(c, now, 50*time.Millisecond)
	if got := c.CongestionWindow(); got != 2*w0 {
		t.Errorf("cubic slow start: %d, want %d", got, 2*w0)
	}
	// Loss, then growth should resume toward wMax (concave region).
	c.OnLoss(now)
	wAfterLoss := c.CongestionWindow()
	for i := 0; i < 40; i++ {
		now = ackRTT(c, now, 50*time.Millisecond)
	}
	if got := c.CongestionWindow(); got <= wAfterLoss {
		t.Errorf("cubic did not grow after loss: %d <= %d", got, wAfterLoss)
	}
}

func TestCubicBetaDecrease(t *testing.T) {
	c := newCubic()
	now := time.Duration(0)
	for i := 0; i < 6; i++ {
		now = ackRTT(c, now, 50*time.Millisecond)
	}
	w := c.CongestionWindow()
	c.OnLoss(now)
	got := float64(c.CongestionWindow()) / float64(w)
	if got < 0.65 || got > 0.75 {
		t.Errorf("cubic decrease factor %.3f, want ≈0.7", got)
	}
}

func TestCubicPlateausNearWMax(t *testing.T) {
	c := newCubic()
	now := time.Duration(0)
	for i := 0; i < 6; i++ {
		now = ackRTT(c, now, 50*time.Millisecond)
	}
	c.OnLoss(now)
	wMaxBytes := c.CongestionWindow() // ≈ 0.7 wmax
	// Growth over many RTTs should approach and settle near the old
	// window (the cubic plateau), not explode immediately.
	for i := 0; i < 20; i++ {
		now = ackRTT(c, now, 50*time.Millisecond)
	}
	got := c.CongestionWindow()
	if got < wMaxBytes {
		t.Errorf("cubic shrank during recovery: %d < %d", got, wMaxBytes)
	}
}

func TestBBRStartupToProbeBW(t *testing.T) {
	b := newBBR()
	now := time.Duration(0)
	rtt := 40 * time.Millisecond
	// Feed constant bandwidth samples: startup should detect the
	// plateau within a few rounds and transition through drain.
	for i := 0; i < 600; i++ {
		now += time.Millisecond
		b.OnAck(Ack{Now: now, RTT: rtt, Acked: units.MSS,
			Inflight: 4 * units.MSS, BandwidthSample: 10 * units.Mbps})
	}
	if b.mode != bbrProbeBW {
		t.Errorf("mode = %d after sustained flat bandwidth, want probe_bw", b.mode)
	}
	rate, ok := b.PacingRate()
	if !ok {
		t.Fatal("BBR did not report a pacing rate")
	}
	mbps := rate.Mbps()
	if mbps < 7 || mbps > 13 {
		t.Errorf("pacing rate %.1f Mbps, want ≈10 (gain-cycled)", mbps)
	}
}

func TestBBRCwndTracksBDP(t *testing.T) {
	b := newBBR()
	now := time.Duration(0)
	rtt := 40 * time.Millisecond
	for i := 0; i < 600; i++ {
		now += time.Millisecond
		b.OnAck(Ack{Now: now, RTT: rtt, Acked: units.MSS,
			Inflight: 4 * units.MSS, BandwidthSample: 10 * units.Mbps})
	}
	// BDP = 10 Mbps × 40 ms = 50 KB; cwnd = 2×BDP = 100 KB.
	got := b.CongestionWindow()
	if got < 80000 || got > 120000 {
		t.Errorf("cwnd = %d, want ≈100000 (2×BDP)", got)
	}
}

func TestBBRIgnoresLoss(t *testing.T) {
	b := newBBR()
	now := time.Duration(0)
	for i := 0; i < 600; i++ {
		now += time.Millisecond
		b.OnAck(Ack{Now: now, RTT: 40 * time.Millisecond, Acked: units.MSS,
			Inflight: 4 * units.MSS, BandwidthSample: 10 * units.Mbps})
	}
	w := b.CongestionWindow()
	b.OnLoss(now)
	if got := b.CongestionWindow(); got != w {
		t.Errorf("BBR v1 reduced cwnd on loss: %d -> %d", w, got)
	}
}

func TestBBRMinRTTFilterPrefersSmaller(t *testing.T) {
	b := newBBR()
	now := time.Duration(0)
	b.OnAck(Ack{Now: now, RTT: 50 * time.Millisecond, Acked: units.MSS,
		BandwidthSample: units.Mbps})
	b.OnAck(Ack{Now: now + time.Millisecond, RTT: 30 * time.Millisecond,
		Acked: units.MSS, BandwidthSample: units.Mbps})
	b.OnAck(Ack{Now: now + 2*time.Millisecond, RTT: 60 * time.Millisecond,
		Acked: units.MSS, BandwidthSample: units.Mbps})
	rtp := b.rtProp
	if rtp != 30*time.Millisecond {
		t.Errorf("rtProp = %v, want 30ms (windowed min)", rtp)
	}
}

func TestBBRBandwidthFilterWindowedMax(t *testing.T) {
	f := newMaxRateFilter(3)
	f.update(0, 10*units.Mbps)
	f.update(1, 5*units.Mbps)
	if got := f.get(); got != 10*units.Mbps {
		t.Errorf("max = %v, want 10 Mbps", got)
	}
	// Round 4: the 10 Mbps sample (round 0) expires.
	f.update(4, 6*units.Mbps)
	if got := f.get(); got != 6*units.Mbps {
		t.Errorf("max after expiry = %v, want 6 Mbps", got)
	}
}

func TestVegasIncreasesWhenNoQueueing(t *testing.T) {
	v := newVegas()
	now := time.Duration(0)
	rtt := 50 * time.Millisecond
	v.OnTimeout(0) // force out of slow start via ssthresh? use OnLoss
	v.OnLoss(0)    // exit slow start
	w := v.CongestionWindow()
	// RTT == baseRTT: diff = 0 < alpha → +1 MSS per RTT.
	for i := 0; i < 6; i++ {
		now = ackRTT(v, now, rtt)
	}
	if got := v.CongestionWindow(); got <= w {
		t.Errorf("vegas did not grow with empty queue: %d <= %d", got, w)
	}
}

func TestVegasBacksOffOnQueueing(t *testing.T) {
	v := newVegas()
	now := time.Duration(0)
	v.OnLoss(0) // exit slow start
	// Establish baseRTT = 50 ms.
	now = ackRTT(v, now, 50*time.Millisecond)
	now = ackRTT(v, now, 50*time.Millisecond)
	w := v.CongestionWindow()
	// Heavy queueing: RTT inflates 4×, so diff = cwnd×(1−base/rtt)
	// clearly exceeds β and Vegas must back off.
	for i := 0; i < 6; i++ {
		now = ackRTT(v, now, 200*time.Millisecond)
	}
	if got := v.CongestionWindow(); got >= w {
		t.Errorf("vegas did not back off under queueing: %d >= %d", got, w)
	}
}

func TestVegasSlowStartExit(t *testing.T) {
	v := newVegas()
	now := time.Duration(0)
	// Base RTT 50 ms, then inflated RTTs should cap slow start quickly.
	now = ackRTT(v, now, 50*time.Millisecond)
	for i := 0; i < 10; i++ {
		now = ackRTT(v, now, 120*time.Millisecond)
	}
	// Window must stay modest (delay-based exit), well below pure
	// doubling for 11 RTTs (10240 MSS).
	if got := v.CongestionWindow() / units.MSS; got > 200 {
		t.Errorf("vegas slow start did not exit on delay: %d segments", got)
	}
}

func TestControllersImplementInterface(t *testing.T) {
	for _, name := range names {
		factory, _ := NewByName(name)
		c := factory()
		if c.Name() == "" {
			t.Errorf("%s has empty Name()", name)
		}
		// Exercise the full interface with benign inputs.
		c.OnAck(Ack{Now: time.Second, RTT: 10 * time.Millisecond, Acked: units.MSS})
		c.OnLoss(time.Second)
		c.OnTimeout(time.Second)
		if c.CongestionWindow() < units.MSS {
			t.Errorf("%s cwnd below one MSS after timeout", name)
		}
		c.PacingRate()
	}
}

func TestOnECNMatchesLossResponse(t *testing.T) {
	// Loss-based controllers must reduce on ECN exactly as on loss
	// (RFC 3168); BBR v1 ignores both.
	for _, name := range []string{"reno", "cubic", "vegas"} {
		factory, _ := NewByName(name)
		byLoss, byECN := factory(), factory()
		now := time.Duration(0)
		for i := 0; i < 5; i++ {
			now = ackRTT(byLoss, now, 50*time.Millisecond)
		}
		now2 := time.Duration(0)
		for i := 0; i < 5; i++ {
			now2 = ackRTT(byECN, now2, 50*time.Millisecond)
		}
		byLoss.OnLoss(now)
		byECN.OnECN(now2)
		if byLoss.CongestionWindow() != byECN.CongestionWindow() {
			t.Errorf("%s: OnECN window %d != OnLoss window %d", name,
				byECN.CongestionWindow(), byLoss.CongestionWindow())
		}
	}
	b := newBBR()
	w := b.CongestionWindow()
	b.OnECN(time.Second)
	if b.CongestionWindow() != w {
		t.Error("BBR v1 reacted to ECN")
	}
}

func TestBBRProbeRTTDipsWindow(t *testing.T) {
	b := newBBR()
	now := time.Duration(0)
	rtt := 40 * time.Millisecond
	// Converge into probe_bw, then feed only larger RTT samples so the
	// min-RTT estimate goes stale and probe_rtt engages.
	for i := 0; i < 600; i++ {
		now += time.Millisecond
		b.OnAck(Ack{Now: now, RTT: rtt, Acked: units.MSS,
			Inflight: 4 * units.MSS, BandwidthSample: 10 * units.Mbps})
	}
	if b.mode != bbrProbeBW {
		t.Fatalf("mode = %d, want probe_bw", b.mode)
	}
	for i := 0; i < 11000; i++ {
		now += time.Millisecond
		b.OnAck(Ack{Now: now, RTT: rtt + 10*time.Millisecond, Acked: units.MSS,
			Inflight: 4 * units.MSS, BandwidthSample: 10 * units.Mbps})
		if b.mode == bbrProbeRTT {
			break
		}
	}
	if b.mode != bbrProbeRTT {
		t.Fatalf("never entered probe_rtt after min-RTT staleness")
	}
	if got := b.CongestionWindow(); got != 4*units.MSS {
		t.Errorf("probe_rtt window = %d, want 4 MSS", got)
	}
	// After the dwell it returns to probe_bw with a refreshed estimate.
	for i := 0; i < 400; i++ {
		now += time.Millisecond
		b.OnAck(Ack{Now: now, RTT: rtt + 10*time.Millisecond, Acked: units.MSS,
			Inflight: 2 * units.MSS, BandwidthSample: 10 * units.Mbps})
	}
	if b.mode != bbrProbeBW {
		t.Errorf("mode after probe_rtt dwell = %d, want probe_bw", b.mode)
	}
}
