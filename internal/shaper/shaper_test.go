package shaper

import (
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/sim"
	"bcpqp/internal/timerwheel"
	"bcpqp/internal/units"
)

// submitOne decides one packet as a burst of one.
func submitOne(s *Shaper, now time.Duration, p packet.Packet) enforcer.Verdict {
	var v [1]enforcer.Verdict
	s.SubmitBatch(now, []packet.Packet{p}, v[:])
	return v[0]
}

func pkt(class, size int) packet.Packet {
	return packet.Packet{Key: packet.FlowKey{SrcPort: uint16(class + 1)}, Class: class, Size: size}
}

// testRig wires a shaper to a sim loop and records emissions.
type testRig struct {
	loop *sim.Loop
	s    *Shaper
	out  []emission
}

type emission struct {
	at  time.Duration
	pkt packet.Packet
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	rig := &testRig{loop: sim.NewLoop()}
	cfg.Scheduler = SchedulerFunc(func(at time.Duration, fn func()) {
		rig.loop.At(at, func() { fn() })
	})
	cfg.Sink = func(now time.Duration, p packet.Packet) {
		rig.out = append(rig.out, emission{at: now, pkt: p})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rig.s = s
	return rig
}

func TestValidation(t *testing.T) {
	sink := func(time.Duration, packet.Packet) {}
	schedule := SchedulerFunc(func(time.Duration, func()) {})
	base := Config{Rate: units.Mbps, Queues: 2, QueueSize: 10 * units.MSS,
		Scheduler: schedule, Sink: sink}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"zero rate":     func(c *Config) { c.Rate = 0 },
		"no queues":     func(c *Config) { c.Queues = 0 },
		"tiny queue":    func(c *Config) { c.QueueSize = 10 },
		"nil scheduler": func(c *Config) { c.Scheduler = nil },
		"nil sink":      func(c *Config) { c.Sink = nil },
		"policy excess": func(c *Config) { c.Policy = sched.Fair(4) },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestServiceAtRate(t *testing.T) {
	rate := 8 * units.Mbps // 1 MB/s → MSS per 1.5 ms
	rig := newRig(t, Config{Rate: rate, Queues: 1, QueueSize: 100 * units.MSS})
	// 10 packets arrive at once.
	rig.loop.At(time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			submitOne(rig.s, rig.loop.Now(), pkt(0, units.MSS))
		}
	})
	rig.loop.Run(time.Second)
	if len(rig.out) != 10 {
		t.Fatalf("emitted %d packets, want 10", len(rig.out))
	}
	// Packets must be spaced ≈ MSS/rate apart, not released in a burst.
	for i := 1; i < len(rig.out); i++ {
		gap := rig.out[i].at - rig.out[i-1].at
		if gap < time.Millisecond || gap > 2*time.Millisecond {
			t.Errorf("gap %d = %v, want ≈1.5ms", i, gap)
		}
	}
	last := rig.out[len(rig.out)-1].at
	if last < 14*time.Millisecond || last > 17*time.Millisecond {
		t.Errorf("last emission at %v, want ≈16ms (15 KB at 1 MB/s)", last)
	}
}

func TestDropTail(t *testing.T) {
	rig := newRig(t, Config{Rate: units.Mbps, Queues: 1, QueueSize: 3 * units.MSS})
	now := time.Millisecond
	verdicts := make([]enforcer.Verdict, 4)
	rig.loop.At(now, func() {
		for i := range verdicts {
			verdicts[i] = submitOne(rig.s, now, pkt(0, units.MSS))
		}
	})
	rig.loop.Run(2 * now)
	for i := 0; i < 3; i++ {
		if verdicts[i] != enforcer.Queued {
			t.Errorf("packet %d: %v, want queued", i, verdicts[i])
		}
	}
	if verdicts[3] != enforcer.Drop {
		t.Errorf("4th packet: %v, want drop", verdicts[3])
	}
}

func TestDRRFairness(t *testing.T) {
	rate := 8 * units.Mbps
	rig := newRig(t, Config{Rate: rate, Queues: 2, QueueSize: 1000 * units.MSS})
	rig.loop.At(time.Millisecond, func() {
		for i := 0; i < 100; i++ {
			submitOne(rig.s, rig.loop.Now(), pkt(0, units.MSS))
			submitOne(rig.s, rig.loop.Now(), pkt(1, units.MSS))
		}
	})
	// Run long enough to serve ~100 packets (150 ms).
	rig.loop.Run(150 * time.Millisecond)
	counts := map[int]int{}
	for _, e := range rig.out[:90] {
		counts[e.pkt.Class]++
	}
	if diff := counts[0] - counts[1]; diff < -2 || diff > 2 {
		t.Errorf("unfair service in first 90 emissions: %v", counts)
	}
}

func TestWeightedService(t *testing.T) {
	rate := 8 * units.Mbps
	rig := newRig(t, Config{
		Rate: rate, Queues: 2, QueueSize: 1000 * units.MSS,
		Policy: sched.WeightedFair(3, 1),
	})
	rig.loop.At(time.Millisecond, func() {
		for i := 0; i < 200; i++ {
			submitOne(rig.s, rig.loop.Now(), pkt(0, units.MSS))
			submitOne(rig.s, rig.loop.Now(), pkt(1, units.MSS))
		}
	})
	rig.loop.Run(200 * time.Millisecond)
	counts := map[int]int{}
	for _, e := range rig.out[:120] {
		counts[e.pkt.Class]++
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("weighted service ratio %.2f, want ≈3 (%v)", ratio, counts)
	}
}

func TestPriorityService(t *testing.T) {
	rate := 8 * units.Mbps
	rig := newRig(t, Config{
		Rate: rate, Queues: 2, QueueSize: 1000 * units.MSS,
		Policy: sched.StrictPriority(2),
	})
	rig.loop.At(time.Millisecond, func() {
		for i := 0; i < 20; i++ {
			submitOne(rig.s, rig.loop.Now(), pkt(1, units.MSS)) // low first
			submitOne(rig.s, rig.loop.Now(), pkt(0, units.MSS))
		}
	})
	rig.loop.Run(time.Second)
	if len(rig.out) != 40 {
		t.Fatalf("emitted %d, want 40", len(rig.out))
	}
	for i := 0; i < 20; i++ {
		if rig.out[i].pkt.Class != 0 {
			t.Fatalf("emission %d is class %d; high priority must drain first", i, rig.out[i].pkt.Class)
		}
	}
}

func TestWorkConservingAcrossQueues(t *testing.T) {
	rate := 8 * units.Mbps
	rig := newRig(t, Config{Rate: rate, Queues: 2, QueueSize: 1000 * units.MSS})
	rig.loop.At(time.Millisecond, func() {
		// Only queue 1 has traffic; it should get the full rate.
		for i := 0; i < 20; i++ {
			submitOne(rig.s, rig.loop.Now(), pkt(1, units.MSS))
		}
	})
	rig.loop.Run(40 * time.Millisecond)
	if len(rig.out) != 20 {
		t.Fatalf("emitted %d of 20 in 39 ms (30 KB needs 30 ms at 1 MB/s)", len(rig.out))
	}
}

func TestFIFOOrderWithinQueue(t *testing.T) {
	rig := newRig(t, Config{Rate: units.Mbps, Queues: 1, QueueSize: 1000 * units.MSS})
	rig.loop.At(time.Millisecond, func() {
		for i := 0; i < 30; i++ {
			p := pkt(0, units.MSS)
			p.Seq = int64(i)
			submitOne(rig.s, rig.loop.Now(), p)
		}
	})
	rig.loop.Run(2 * time.Second)
	for i, e := range rig.out {
		if e.pkt.Seq != int64(i) {
			t.Fatalf("emission %d has seq %d; FIFO violated", i, e.pkt.Seq)
		}
	}
}

func TestIdleRestart(t *testing.T) {
	rate := 8 * units.Mbps
	rig := newRig(t, Config{Rate: rate, Queues: 1, QueueSize: 100 * units.MSS})
	rig.loop.At(time.Millisecond, func() { submitOne(rig.s, rig.loop.Now(), pkt(0, units.MSS)) })
	// Long idle gap, then another packet; it must not be served
	// instantly at an accumulated credit burst.
	rig.loop.At(500*time.Millisecond, func() { submitOne(rig.s, rig.loop.Now(), pkt(0, units.MSS)) })
	rig.loop.Run(time.Second)
	if len(rig.out) != 2 {
		t.Fatalf("emitted %d, want 2", len(rig.out))
	}
	gap := rig.out[1].at - 500*time.Millisecond
	if gap < time.Millisecond || gap > 3*time.Millisecond {
		t.Errorf("post-idle service delay %v, want ≈1.5ms (no credit accumulation)", gap)
	}
}

func TestQueueingDelayAccounting(t *testing.T) {
	rate := 8 * units.Mbps
	rig := newRig(t, Config{Rate: rate, Queues: 1, QueueSize: 100 * units.MSS})
	rig.loop.At(time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			submitOne(rig.s, rig.loop.Now(), pkt(0, units.MSS))
		}
	})
	rig.loop.Run(time.Second)
	avg := rig.s.AvgQueueingDelay()
	// Average wait of 10 packets served at 1.5 ms each ≈ 8 ms.
	if avg < 5*time.Millisecond || avg > 12*time.Millisecond {
		t.Errorf("avg queueing delay %v, want ≈8ms", avg)
	}
}

func TestFlushDrainsEverything(t *testing.T) {
	rig := newRig(t, Config{Rate: units.Kbps, Queues: 2, QueueSize: 1000 * units.MSS})
	rig.loop.At(time.Millisecond, func() {
		for i := 0; i < 25; i++ {
			submitOne(rig.s, rig.loop.Now(), pkt(i%2, units.MSS))
		}
	})
	rig.loop.Run(10 * time.Millisecond)
	rig.s.flush(rig.loop.Now())
	if rig.s.backlog != 0 {
		t.Errorf("backlog %d after flush", rig.s.backlog)
	}
	if len(rig.out) != 25 {
		t.Errorf("emitted %d of 25 after flush", len(rig.out))
	}
}

func TestPayloadCopyOnDequeue(t *testing.T) {
	rig := newRig(t, Config{Rate: 8 * units.Mbps, Queues: 1, QueueSize: 100 * units.MSS})
	payload := make([]byte, units.MSS)
	payload[0] = 0xAB
	p := pkt(0, units.MSS)
	p.Payload = payload
	rig.loop.At(time.Millisecond, func() { submitOne(rig.s, rig.loop.Now(), p) })
	rig.loop.Run(time.Second)
	if len(rig.out) != 1 || rig.out[0].pkt.Payload[0] != 0xAB {
		t.Fatal("payload not preserved through the queue")
	}
}

func TestStats(t *testing.T) {
	rig := newRig(t, Config{Rate: units.Mbps, Queues: 1, QueueSize: 2 * units.MSS})
	rig.loop.At(time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			submitOne(rig.s, rig.loop.Now(), pkt(0, units.MSS))
		}
	})
	rig.loop.Run(2 * time.Millisecond)
	st := rig.s.EnforcerStats()
	if st.AcceptedPackets != 2 || st.DroppedPackets != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNestedPolicyService(t *testing.T) {
	// Priority( Weighted(3:1), background ): while the high group is
	// backlogged, the background class must be starved and the high
	// classes split ≈3:1.
	rate := 8 * units.Mbps
	rig := newRig(t, Config{
		Rate: rate, Queues: 3, QueueSize: 1000 * units.MSS,
		Policy: sched.MustNew(sched.Priority(
			sched.Weighted(sched.Leaf(0).WithWeight(3), sched.Leaf(1)),
			sched.Leaf(2),
		)),
	})
	rig.loop.At(time.Millisecond, func() {
		for i := 0; i < 200; i++ {
			submitOne(rig.s, rig.loop.Now(), pkt(0, units.MSS))
			submitOne(rig.s, rig.loop.Now(), pkt(1, units.MSS))
			submitOne(rig.s, rig.loop.Now(), pkt(2, units.MSS))
		}
	})
	rig.loop.Run(300 * time.Millisecond)
	counts := map[int]int{}
	for _, e := range rig.out[:160] {
		counts[e.pkt.Class]++
	}
	if counts[2] != 0 {
		t.Errorf("background served %d packets while high group backlogged", counts[2])
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("high-group split %.2f, want ≈3 (%v)", ratio, counts)
	}
}

// flush drains all remaining buffered packets as if served until now plus
// however long full service takes.
func (s *Shaper) flush(now time.Duration) {
	s.clock.Start(now)
	for s.backlog > 0 {
		now += s.cfg.Rate.DurationForBytes(units.MSS)
		whole := s.clock.Whole(now, s.cfg.Rate, &s.svcCredit)
		s.cfg.Policy.Drain(whole,
			func(class int) int64 { return s.queues[class].bytes - s.credit[class] },
			func(class int, n int64) { s.serve(now, class, n) })
	}
}

// TestBackloggedShaperAllocs pins the shaper's service path on a timing wheel
// at zero allocations per step: the service callback is built once, the wheel
// stores its timers by value and fires from a kept list, and a backlogged
// queue reuses its slice. A step offers two packets over 2 ms, against one MSS
// of service every 1.5 ms, so about 1.33 service events fire per step.
func TestBackloggedShaperAllocs(t *testing.T) {
	const step = 2 * time.Millisecond
	w := timerwheel.MustNew(50*time.Microsecond, 1024)
	s, err := New(Config{
		Rate: 8 * units.Mbps, Queues: 2, QueueSize: 50 * units.MSS,
		Scheduler: SchedulerFunc(func(at time.Duration, fn func()) { w.Schedule(at, fn) }),
		Sink:      func(time.Duration, packet.Packet) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	pkts := []packet.Packet{pkt(0, units.MSS), pkt(1, units.MSS)}
	verdicts := make([]enforcer.Verdict, len(pkts))
	var now time.Duration
	advance := func() {
		now += step
		s.SubmitBatch(now, pkts, verdicts)
		w.Advance(now)
	}
	for i := 0; i < 1000; i++ { // fill the queues to drop-tail and grow every list
		advance()
	}
	served := s.DequeuedPackets
	if allocs := testing.AllocsPerRun(1000, advance); allocs != 0 {
		t.Errorf("backlogged shaper allocates %.2f per step, want 0", allocs)
	}
	if s.backlog == 0 || s.DequeuedPackets-served < 1000 {
		t.Errorf("backlog %d, served %d packets in 1000 steps: want a backlogged shaper serving",
			s.backlog, s.DequeuedPackets-served)
	}
}
