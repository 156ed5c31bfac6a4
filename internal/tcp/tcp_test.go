package tcp

import (
	"testing"
	"time"

	"bcpqp/internal/cc"
	"bcpqp/internal/netem"
	"bcpqp/internal/packet"
	"bcpqp/internal/sim"
	"bcpqp/internal/units"
)

// rig wires a flow over a configurable path on a fresh loop.
type rig struct {
	loop *sim.Loop
	flow *Flow
}

// mustNewFlow is NewFlow that panics on error.
func mustNewFlow(cfg Config) *Flow {
	f, err := NewFlow(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// lossyPath drops the packets whose (0-based) arrival index is in drop.
func newRig(t *testing.T, ccName string, size int64, rtt time.Duration, drop map[int]bool) *rig {
	t.Helper()
	loop := sim.NewLoop()
	factory, ok := cc.NewByName(ccName)
	if !ok {
		t.Fatalf("unknown cc %q", ccName)
	}
	r := &rig{loop: loop}
	arrivals := 0
	var path netem.Forward = func(now time.Duration, pkt packet.Packet) {
		idx := arrivals
		arrivals++
		if drop[idx] {
			return
		}
		loop.At(now+rtt/2, func() { r.flow.Deliver(now+rtt/2, pkt) })
	}
	flow, err := NewFlow(Config{
		Loop: loop,
		Key:  packet.FlowKey{SrcIP: 1, SrcPort: 1, DstIP: 2, DstPort: 80, Proto: 6},
		CC:   factory(),
		RTT:  rtt,
		Path: path,
		Size: size,
	})
	if err != nil {
		t.Fatalf("NewFlow: %v", err)
	}
	r.flow = flow
	loop.At(time.Millisecond, flow.Start)
	return r
}

func TestValidation(t *testing.T) {
	loop := sim.NewLoop()
	factory, _ := cc.NewByName("reno")
	path := func(time.Duration, packet.Packet) {}
	valid := Config{Loop: loop, CC: factory(), RTT: time.Millisecond, Path: path}
	if _, err := NewFlow(valid); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"nil loop": func(c *Config) { c.Loop = nil },
		"nil cc":   func(c *Config) { c.CC = nil },
		"zero rtt": func(c *Config) { c.RTT = 0 },
		"nil path": func(c *Config) { c.Path = nil },
	} {
		cfg := valid
		mutate(&cfg)
		if _, err := NewFlow(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLosslessTransferCompletes(t *testing.T) {
	const size = 500 * 1500
	r := newRig(t, "reno", size, 20*time.Millisecond, nil)
	var completedAt time.Duration
	r.flow.cfg.OnComplete = func(now time.Duration) { completedAt = now }
	r.loop.Run(30 * time.Second)
	if !r.flow.finished {
		t.Fatal("flow never completed")
	}
	if completedAt == 0 {
		t.Fatal("OnComplete not invoked")
	}
	if r.flow.RtxSegments != 0 {
		t.Errorf("lossless path caused %d retransmissions", r.flow.RtxSegments)
	}
	if acked := r.flow.sndUna * units.MSS; acked < size {
		t.Errorf("acked %d < size %d", acked, size)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	// In pure slow start over a clean path, the transfer of N segments
	// takes ~log2(N/IW) RTTs.
	const segs = 640
	r := newRig(t, "reno", segs*1500, 100*time.Millisecond, nil)
	var completedAt time.Duration
	r.flow.cfg.OnComplete = func(now time.Duration) { completedAt = now }
	r.loop.Run(30 * time.Second)
	// IW=10: rounds 10+20+40+80+160+320 ≥ 630 → ~6-7 RTTs ≈ 700 ms.
	if completedAt > 1200*time.Millisecond {
		t.Errorf("640 segments took %v; slow start is not doubling", completedAt)
	}
}

func TestSingleLossFastRetransmit(t *testing.T) {
	// Drop the 15th wire arrival once; recovery must use fast
	// retransmit (no RTO) and complete promptly.
	r := newRig(t, "reno", 300*1500, 20*time.Millisecond, map[int]bool{15: true})
	r.loop.Run(30 * time.Second)
	if !r.flow.finished {
		t.Fatal("flow never completed")
	}
	if r.flow.RtxSegments == 0 {
		t.Error("no retransmission despite a drop")
	}
	if r.flow.Timeouts != 0 {
		t.Errorf("single loss caused %d timeouts; SACK recovery broken", r.flow.Timeouts)
	}
}

func TestBurstLossRecovers(t *testing.T) {
	// Drop 30 consecutive arrivals mid-flow.
	drop := map[int]bool{}
	for i := 40; i < 70; i++ {
		drop[i] = true
	}
	r := newRig(t, "reno", 500*1500, 20*time.Millisecond, drop)
	r.loop.Run(60 * time.Second)
	if !r.flow.finished {
		t.Fatalf("flow never completed after burst loss (rtx=%d timeouts=%d)",
			r.flow.RtxSegments, r.flow.Timeouts)
	}
}

func TestTailLossRecovers(t *testing.T) {
	// Drop the last 5 arrivals of a 50-segment flow: no later SACKs
	// exist, so only TLP/RACK (or RTO) can recover.
	drop := map[int]bool{45: true, 46: true, 47: true, 48: true, 49: true}
	r := newRig(t, "reno", 50*1500, 20*time.Millisecond, drop)
	r.loop.Run(60 * time.Second)
	if !r.flow.finished {
		t.Fatal("tail loss never recovered")
	}
	if r.flow.TLPProbes == 0 && r.flow.Timeouts == 0 {
		t.Error("tail loss recovered without TLP or RTO?")
	}
}

func TestEverythingDroppedThenRecovered(t *testing.T) {
	// The first 12 arrivals (the whole initial window plus the first
	// timeout retransmissions) are dropped — an empty token bucket at
	// connection start — then the path heals. Recovery must punch
	// through via backed-off RTOs.
	drop := map[int]bool{}
	for i := 0; i < 12; i++ {
		drop[i] = true
	}
	r := newRig(t, "reno", 100*1500, 20*time.Millisecond, drop)
	r.loop.Run(120 * time.Second)
	if !r.flow.finished {
		t.Fatalf("flow never completed (timeouts=%d)", r.flow.Timeouts)
	}
	if r.flow.Timeouts == 0 {
		t.Error("total blackout must trigger at least one RTO")
	}
}

func TestBackloggedNeverFinishes(t *testing.T) {
	// Periodic drops keep the window bounded; an infinitely fast
	// lossless path would let slow start double without limit.
	drop := map[int]bool{}
	for i := 100; i < 1_000_000; i += 100 {
		drop[i] = true
	}
	r := newRig(t, "reno", 0, 20*time.Millisecond, drop)
	r.loop.Run(5 * time.Second)
	if r.flow.finished {
		t.Error("backlogged flow reported finished")
	}
	if r.flow.SentSegments < 1000 {
		t.Errorf("backlogged flow sent only %d segments in 5s", r.flow.SentSegments)
	}
}

func TestAddDataResumes(t *testing.T) {
	r := newRig(t, "reno", 10*1500, 20*time.Millisecond, nil)
	completions := 0
	r.flow.cfg.OnComplete = func(now time.Duration) {
		completions++
		if completions == 1 {
			r.flow.AddData(10 * 1500)
		}
	}
	r.loop.Run(10 * time.Second)
	if completions != 2 {
		t.Errorf("completions = %d, want 2 (AddData must resume)", completions)
	}
	if acked := r.flow.sndUna * units.MSS; acked != 20*1500 {
		t.Errorf("acked %d, want %d", acked, 20*1500)
	}
}

func TestOnAckedMonotonic(t *testing.T) {
	r := newRig(t, "cubic", 200*1500, 10*time.Millisecond, map[int]bool{20: true, 21: true})
	var last int64 = -1
	r.flow.cfg.OnAcked = func(now time.Duration, total int64) {
		if total <= last {
			t.Fatalf("OnAcked went backwards: %d after %d", total, last)
		}
		last = total
	}
	r.loop.Run(30 * time.Second)
	if last != 200*1500 {
		t.Errorf("final OnAcked total = %d, want %d", last, 200*1500)
	}
}

func TestOnDeliverCountsWireBytes(t *testing.T) {
	r := newRig(t, "reno", 100*1500, 10*time.Millisecond, nil)
	var delivered int64
	r.flow.cfg.OnDeliver = func(now time.Duration, b int) { delivered += int64(b) }
	r.loop.Run(10 * time.Second)
	if delivered != 100*1500 {
		t.Errorf("OnDeliver counted %d, want %d (lossless)", delivered, 100*1500)
	}
}

func TestBBRPacesSmoothly(t *testing.T) {
	loop := sim.NewLoop()
	factory, _ := cc.NewByName("bbr")
	// Path with a real 10 Mbps bottleneck so BBR has something to learn.
	var flow *Flow
	deliver := func(now time.Duration, pkt packet.Packet) {
		loop.At(now+10*time.Millisecond, func() { flow.Deliver(now+10*time.Millisecond, pkt) })
	}
	bn := netem.NewBottleneck(loop, 10*units.Mbps, 64*1500, deliver)
	var arrivalTimes []time.Duration
	path := func(now time.Duration, pkt packet.Packet) {
		arrivalTimes = append(arrivalTimes, now)
		bn.Forward(now, pkt)
	}
	flow = mustNewFlow(Config{
		Loop: loop,
		Key:  packet.FlowKey{SrcPort: 1},
		CC:   factory(),
		RTT:  20 * time.Millisecond,
		Path: path,
	})
	loop.At(time.Millisecond, flow.Start)
	loop.Run(5 * time.Second)

	// After convergence the steady send rate should be ≈ bottleneck.
	n := len(arrivalTimes)
	if n < 100 {
		t.Fatalf("only %d sends", n)
	}
	tail := arrivalTimes[n-500:]
	rate := float64(499*1500*8) / (tail[499] - tail[0]).Seconds() / 1e6
	if rate < 8 || rate > 13 {
		t.Errorf("BBR steady send rate %.1f Mbps, want ≈10", rate)
	}
}

func TestSegmentsAreMSS(t *testing.T) {
	r := newRig(t, "reno", 10*1500, 10*time.Millisecond, nil)
	sizes := map[int]bool{}
	orig := r.flow.cfg.Path
	r.flow.cfg.Path = func(now time.Duration, pkt packet.Packet) {
		sizes[pkt.Size] = true
		orig(now, pkt)
	}
	r.loop.Run(5 * time.Second)
	if len(sizes) != 1 || !sizes[units.MSS] {
		t.Errorf("segment sizes %v, want only MSS", sizes)
	}
}

func TestRingGrowth(t *testing.T) {
	var rg ring
	// Insert far more than the initial capacity with holes.
	for s := int64(0); s < 5000; s += 2 {
		rg.put(s, segState{sent: true, sentAt: time.Duration(s)})
	}
	for s := int64(0); s < 5000; s += 2 {
		st, ok := rg.get(s)
		if !ok || st.sentAt != time.Duration(s) {
			t.Fatalf("lost record %d after growth", s)
		}
	}
	if _, ok := rg.get(1); ok {
		t.Error("hole reported present")
	}
	// Clearing advances the base.
	for s := int64(0); s < 1000; s++ {
		rg.clear(s)
	}
	if _, ok := rg.get(998); ok {
		t.Error("cleared record still present")
	}
	if st, ok := rg.get(1000); !ok || st.sentAt != 1000 {
		t.Error("record after cleared prefix lost")
	}
}

func TestRTOBackoffBounded(t *testing.T) {
	// Total blackout forever: timeouts must back off but keep firing.
	loop := sim.NewLoop()
	factory, _ := cc.NewByName("reno")
	flow := mustNewFlow(Config{
		Loop: loop,
		Key:  packet.FlowKey{SrcPort: 1},
		CC:   factory(),
		RTT:  10 * time.Millisecond,
		Path: func(time.Duration, packet.Packet) {}, // black hole
		Size: 100 * 1500,
	})
	loop.At(time.Millisecond, flow.Start)
	loop.Run(5 * time.Minute)
	if flow.Timeouts < 3 {
		t.Errorf("only %d timeouts against a black hole", flow.Timeouts)
	}
	if flow.finished {
		t.Error("flow completed through a black hole")
	}
}

// TestDelayedAcksHalveAckTraffic: with delayed ACKs on a clean path, a
// transfer completes with roughly half the acknowledgments and no spurious
// recovery.
func TestDelayedAcksHalveAckTraffic(t *testing.T) {
	run := func(delayed bool) (acks int64, flow *Flow) {
		loop := sim.NewLoop()
		factory, _ := cc.NewByName("reno")
		rtt := 20 * time.Millisecond
		var f *Flow
		path := func(now time.Duration, pkt packet.Packet) {
			loop.At(now+rtt/2, func() { f.Deliver(now+rtt/2, pkt) })
		}
		f = mustNewFlow(Config{
			Loop:        loop,
			Key:         packet.FlowKey{SrcPort: 1},
			CC:          factory(),
			RTT:         rtt,
			Path:        path,
			Size:        400 * units.MSS,
			DelayedAcks: delayed,
		})
		// Count ACK arrivals via OnAcked plus dup/sack events: use a
		// wrapper around onAck by counting sendAck effects indirectly —
		// the scoreboard makes every ACK advance or SACK, so count via
		// a path-side proxy: each Deliver triggers at most one ACK, so
		// instrument sendAck through the ack-event side effect on the
		// loop is invasive; instead, expose the count through
		// DebugState-adjacent counters: we recount by instrumenting
		// Deliver calls and comparing against flow.SentSegments.
		loop.At(time.Millisecond, f.Start)
		loop.Run(60 * time.Second)
		return f.ackEvents, f
	}
	immediateAcks, f1 := run(false)
	delayedAcks, f2 := run(true)
	if !f1.finished || !f2.finished {
		t.Fatal("transfers incomplete")
	}
	if f2.RtxSegments != 0 || f2.Timeouts != 0 {
		t.Errorf("delayed ACKs caused spurious recovery: rtx=%d rto=%d",
			f2.RtxSegments, f2.Timeouts)
	}
	if delayedAcks >= immediateAcks*3/4 {
		t.Errorf("delayed ACKs = %d vs immediate %d; expected ≈half", delayedAcks, immediateAcks)
	}
}
