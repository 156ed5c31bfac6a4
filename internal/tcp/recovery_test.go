package tcp

import (
	"testing"
	"time"

	"bcpqp/internal/cc"
	"bcpqp/internal/packet"
	"bcpqp/internal/sim"
	"bcpqp/internal/units"
)

// fixedWindowCC holds a constant congestion window so recovery tests can
// construct precise loss patterns without AIMD dynamics interfering.
// With halve set, it halves on loss like a real controller.
type fixedWindowCC struct {
	cwnd   int64
	losses int
	halve  bool
}

func (f *fixedWindowCC) Name() string { return "fixed" }
func (f *fixedWindowCC) OnAck(cc.Ack) {}
func (f *fixedWindowCC) OnLoss(time.Duration) {
	f.losses++
	if f.halve {
		f.cwnd /= 2
		if f.cwnd < 2*units.MSS {
			f.cwnd = 2 * units.MSS
		}
	}
}
func (f *fixedWindowCC) OnECN(now time.Duration)        { f.OnLoss(now) }
func (f *fixedWindowCC) OnTimeout(now time.Duration)    { f.OnLoss(now) }
func (f *fixedWindowCC) CongestionWindow() int64        { return f.cwnd }
func (f *fixedWindowCC) PacingRate() (units.Rate, bool) { return 0, false }

// fixedRig builds a flow with a fixed window over a programmable path.
func fixedRig(t *testing.T, windowSegs int64, size int64, drop func(arrival int) bool) (*sim.Loop, *Flow, *fixedWindowCC) {
	t.Helper()
	loop := sim.NewLoop()
	ctrl := &fixedWindowCC{cwnd: windowSegs * units.MSS}
	var flow *Flow
	arrivals := 0
	rtt := 20 * time.Millisecond
	path := func(now time.Duration, pkt packet.Packet) {
		idx := arrivals
		arrivals++
		if drop != nil && drop(idx) {
			return
		}
		loop.At(now+rtt/2, func() { flow.Deliver(now+rtt/2, pkt) })
	}
	flow = MustNewFlow(Config{
		Loop: loop,
		Key:  packet.FlowKey{SrcPort: 9},
		CC:   ctrl,
		RTT:  rtt,
		Path: path,
		Size: size,
	})
	loop.At(time.Millisecond, flow.Start)
	return loop, flow, ctrl
}

// TestOneLossSignalPerWindow: many drops within one window of data must
// produce exactly one congestion signal (fast-recovery semantics).
func TestOneLossSignalPerWindow(t *testing.T) {
	// Window of 20; drop arrivals 5..9 (five losses in one flight).
	loop, flow, ctrl := fixedRig(t, 20, 40*units.MSS, func(i int) bool {
		return i >= 5 && i < 10
	})
	loop.Run(5 * time.Second)
	if !flow.Finished() {
		t.Fatal("flow incomplete")
	}
	if ctrl.losses != 1 {
		t.Errorf("congestion signals = %d, want 1 for one window of losses", ctrl.losses)
	}
}

// TestRACKMarksWholeTail: dropping a run that includes the very last
// segments must be recovered promptly by TLP + RACK, not one-per-RTO.
func TestRACKMarksWholeTail(t *testing.T) {
	const segs = 60
	loop, flow, _ := fixedRig(t, 30, segs*units.MSS, func(i int) bool {
		return i >= 40 && i < 55 // 15 consecutive, incl. window tail
	})
	loop.Run(10 * time.Second)
	if !flow.Finished() {
		t.Fatal("flow incomplete")
	}
	// Recovery via per-RTO crawling would need ≥15 timeouts; RACK after
	// a TLP probe should mark the whole run at once.
	if flow.Timeouts > 3 {
		t.Errorf("timeouts = %d; tail run should recover via TLP+RACK", flow.Timeouts)
	}
	if flow.RtxSegments < 15 {
		t.Errorf("retransmitted %d, want ≥15 (every dropped segment)", flow.RtxSegments)
	}
}

// TestPRRLimitsRecoveryBurst: after a mass drop, the sender must not blast
// the full window again while holes remain; transmissions during recovery
// are clocked by deliveries.
func TestPRRLimitsRecoveryBurst(t *testing.T) {
	var sends []time.Duration
	loop := sim.NewLoop()
	ctrl := &fixedWindowCC{cwnd: 100 * units.MSS, halve: true}
	var flow *Flow
	arrivals := 0
	rtt := 20 * time.Millisecond
	path := func(now time.Duration, pkt packet.Packet) {
		idx := arrivals
		arrivals++
		sends = append(sends, now)
		if idx >= 20 && idx < 80 { // mass drop of 60 segments
			return
		}
		loop.At(now+rtt/2, func() { flow.Deliver(now+rtt/2, pkt) })
	}
	flow = MustNewFlow(Config{
		Loop: loop,
		Key:  packet.FlowKey{SrcPort: 9},
		CC:   ctrl,
		RTT:  rtt,
		Path: path,
		Size: 300 * units.MSS,
	})
	loop.At(time.Millisecond, flow.Start)
	loop.Run(10 * time.Second)
	if !flow.Finished() {
		t.Fatal("flow incomplete")
	}
	// Inspect the send pattern after loss detection: in any 1 ms bucket
	// past the initial (pre-feedback) window burst, sends must stay far
	// below the original 100-segment window. Without PRR the sender
	// would re-blast pipe-to-cwnd the moment 60 segments are marked
	// lost; with PRR sends are clocked one-per-delivery during
	// recovery, and the post-recovery refill is bounded by the halved
	// window.
	counts := map[int64]int{}
	for _, s := range sends {
		counts[int64(s/time.Millisecond)]++
	}
	worst := 0
	for ms, c := range counts {
		if ms < 5 { // skip the initial window burst before any feedback
			continue
		}
		if c > worst {
			worst = c
		}
	}
	if worst > 55 {
		t.Errorf("burst of %d sends in one ms during/after recovery; PRR should clock sends", worst)
	}
}

// TestTLPFiresOnAckSilence: with everything outstanding dropped, the
// tail-loss probe fires before the RTO.
func TestTLPFiresOnAckSilence(t *testing.T) {
	// Let everything through except the final three segments — a pure
	// tail loss with no later arrivals to SACK, so only a probe (or an
	// RTO) can discover it.
	loop, flow, _ := fixedRig(t, 10, 20*units.MSS, func(i int) bool {
		return i >= 17 && i < 20
	})
	loop.Run(5 * time.Second)
	if !flow.Finished() {
		t.Fatal("flow incomplete")
	}
	if flow.TLPProbes == 0 {
		t.Error("no TLP probes despite a pure tail loss")
	}
}

// TestNoSpuriousRetransmissionsOnCleanPath: the recovery machinery must
// stay quiet when nothing is lost, even with a long transfer.
func TestNoSpuriousRetransmissionsOnCleanPath(t *testing.T) {
	loop, flow, ctrl := fixedRig(t, 40, 2000*units.MSS, nil)
	loop.Run(60 * time.Second)
	if !flow.Finished() {
		t.Fatal("flow incomplete")
	}
	if flow.RtxSegments != 0 || flow.TLPProbes != 0 || flow.Timeouts != 0 {
		t.Errorf("spurious recovery on a clean path: rtx=%d tlp=%d rto=%d",
			flow.RtxSegments, flow.TLPProbes, flow.Timeouts)
	}
	if ctrl.losses != 0 {
		t.Errorf("spurious congestion signals: %d", ctrl.losses)
	}
}

// TestReorderingToleratedByDupThresh: swapping adjacent segments must not
// trigger loss recovery (the dupThresh=3 guard).
func TestReorderingToleratedByDupThresh(t *testing.T) {
	loop := sim.NewLoop()
	ctrl := &fixedWindowCC{cwnd: 20 * units.MSS}
	var flow *Flow
	rtt := 20 * time.Millisecond
	arrivals := 0
	var held *packet.Packet
	path := func(now time.Duration, pkt packet.Packet) {
		idx := arrivals
		arrivals++
		// Hold every 10th packet and release it after the next one
		// (swap of adjacent segments).
		if idx%10 == 5 && held == nil {
			p := pkt
			held = &p
			return
		}
		deliver := func(p packet.Packet) {
			loop.At(now+rtt/2, func() { flow.Deliver(now+rtt/2, p) })
		}
		deliver(pkt)
		if held != nil {
			deliver(*held)
			held = nil
		}
	}
	flow = MustNewFlow(Config{
		Loop: loop,
		Key:  packet.FlowKey{SrcPort: 9},
		CC:   ctrl,
		RTT:  rtt,
		Path: path,
		Size: 200 * units.MSS,
	})
	loop.At(time.Millisecond, flow.Start)
	loop.Run(30 * time.Second)
	if !flow.Finished() {
		t.Fatal("flow incomplete")
	}
	if ctrl.losses != 0 {
		t.Errorf("adjacent reordering triggered %d loss signals", ctrl.losses)
	}
}

// TestAddDataEdges: AddData is a no-op on a backlogged flow and ignores a
// negative count on a finite one.
func TestAddDataEdges(t *testing.T) {
	loop, flow, _ := fixedRig(t, 10, 0, nil) // backlogged
	flow.AddData(1000)                       // no-op on backlogged flows
	loop.Run(100 * time.Millisecond)
	if flow.Finished() {
		t.Error("backlogged flow finished")
	}

	loop2, flow2, _ := fixedRig(t, 10, 10*units.MSS, nil)
	flow2.AddData(-5) // ignored
	loop2.Run(5 * time.Second)
	if !flow2.Finished() {
		t.Error("finite flow incomplete")
	}
	if flow2.AckedBytes() != 10*units.MSS {
		t.Errorf("acked %d, want %d", flow2.AckedBytes(), 10*units.MSS)
	}
}

// TestControllerAccessor covers the inspection hook used by experiments.
func TestControllerAccessor(t *testing.T) {
	_, flow, ctrl := fixedRig(t, 10, 10*units.MSS, nil)
	if flow.Controller() != cc.Controller(ctrl) {
		t.Error("Controller() does not return the configured controller")
	}
}

// TestDebugStateConsistency: the pipe estimate must equal an independent
// scoreboard recount at arbitrary points under loss.
func TestDebugStateConsistency(t *testing.T) {
	loop, flow, _ := fixedRig(t, 30, 500*units.MSS, func(i int) bool {
		return i%7 == 3
	})
	for i := 0; i < 50; i++ {
		loop.Run(time.Duration(i+1) * 100 * time.Millisecond)
		pipe, recount, _, _, _ := flow.DebugState()
		if pipe != recount {
			t.Fatalf("t=%v: pipe=%d recount=%d", loop.Now(), pipe, recount)
		}
	}
}
