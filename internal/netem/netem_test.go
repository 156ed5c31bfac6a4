package netem

import (
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/shaper"
	"bcpqp/internal/sim"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

func pkt(size int) packet.Packet {
	return packet.Packet{Key: packet.FlowKey{SrcPort: 1}, Size: size}
}

func TestDelay(t *testing.T) {
	loop := sim.NewLoop()
	var arrived time.Duration
	hop := Delay(loop, 25*time.Millisecond, func(now time.Duration, p packet.Packet) {
		arrived = now
	})
	loop.At(10*time.Millisecond, func() { hop(loop.Now(), pkt(1500)) })
	loop.RunAll()
	if arrived != 35*time.Millisecond {
		t.Errorf("arrived at %v, want 35ms", arrived)
	}
}

func TestBottleneckSerializes(t *testing.T) {
	loop := sim.NewLoop()
	rate := 8 * units.Mbps // 1500 B per 1.5 ms
	var times []time.Duration
	bn := NewBottleneck(loop, rate, 100*1500, func(now time.Duration, p packet.Packet) {
		times = append(times, now)
	})
	loop.At(time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			bn.Forward(loop.Now(), pkt(1500))
		}
	})
	loop.RunAll()
	if len(times) != 10 {
		t.Fatalf("forwarded %d, want 10", len(times))
	}
	for i := 1; i < len(times); i++ {
		if gap := times[i] - times[i-1]; gap != 1500*time.Microsecond {
			t.Errorf("gap %d = %v, want 1.5ms", i, gap)
		}
	}
	if bn.Forwarded != 10 || bn.Dropped != 0 {
		t.Errorf("counters: fwd=%d drop=%d", bn.Forwarded, bn.Dropped)
	}
}

func TestBottleneckDropTail(t *testing.T) {
	loop := sim.NewLoop()
	bn := NewBottleneck(loop, units.Mbps, 3*1500, func(time.Duration, packet.Packet) {})
	loop.At(time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			bn.Forward(loop.Now(), pkt(1500))
		}
	})
	loop.RunAll()
	if bn.Forwarded != 3 || bn.Dropped != 7 {
		t.Errorf("fwd=%d drop=%d, want 3/7", bn.Forwarded, bn.Dropped)
	}
}

func TestBottleneckIdleRestart(t *testing.T) {
	loop := sim.NewLoop()
	rate := 8 * units.Mbps
	var times []time.Duration
	bn := NewBottleneck(loop, rate, 100*1500, func(now time.Duration, p packet.Packet) {
		times = append(times, now)
	})
	loop.At(time.Millisecond, func() { bn.Forward(loop.Now(), pkt(1500)) })
	loop.At(100*time.Millisecond, func() { bn.Forward(loop.Now(), pkt(1500)) })
	loop.RunAll()
	if times[1] != 100*time.Millisecond+1500*time.Microsecond {
		t.Errorf("post-idle departure at %v; busyUntil leaked across idle", times[1])
	}
}

func TestBottleneckQueueTracksBytes(t *testing.T) {
	loop := sim.NewLoop()
	bn := NewBottleneck(loop, units.Mbps, 100*1500, func(time.Duration, packet.Packet) {})
	loop.At(time.Millisecond, func() {
		for i := 0; i < 5; i++ {
			bn.Forward(loop.Now(), pkt(1500))
		}
		if bn.queued != 5*1500 {
			t.Errorf("queued = %d, want %d", bn.queued, 5*1500)
		}
	})
	loop.RunAll()
	if bn.queued != 0 {
		t.Errorf("queued = %d after drain, want 0", bn.queued)
	}
}

func TestEnforceHop(t *testing.T) {
	pol := tbf.MustNew(8*units.Mbps, 2*1500)
	forwarded := 0
	hop := Enforce(pol, func(time.Duration, packet.Packet) { forwarded++ })
	now := time.Millisecond
	for i := 0; i < 5; i++ {
		hop(now, pkt(1500))
	}
	if forwarded != 2 {
		t.Errorf("forwarded %d, want 2 (bucket of 2)", forwarded)
	}
	if pol.EnforcerStats().DroppedPackets != 3 {
		t.Errorf("dropped %d, want 3", pol.EnforcerStats().DroppedPackets)
	}
}

// TestEnforceQueuedSubmitsOnly: a buffering enforcer's Queued verdict makes
// the hop submit the packet once and forward nothing; its sink forwards.
func TestEnforceQueuedSubmitsOnly(t *testing.T) {
	calls, forwarded := 0, 0
	fake := enforcerFunc(func(now time.Duration, p packet.Packet) enforcer.Verdict {
		calls++
		return enforcer.Queued
	})
	hop := Enforce(fake, func(time.Duration, packet.Packet) { forwarded++ })
	hop(time.Millisecond, pkt(1500))
	if calls != 1 || forwarded != 0 {
		t.Errorf("submit calls = %d, forwarded = %d; want 1, 0", calls, forwarded)
	}
}

// TestEnforceAllocs pins the simulator's per-packet path at zero
// allocations: the Forward that Enforce returns hands each packet to the
// enforcer as a reused one-element burst. The shaper allocates when it arms
// its service timer, once per busy period, so its run keeps a backlog (the
// timer armed) in queues already grown to hold it.
func TestEnforceAllocs(t *testing.T) {
	const rate = 10 * units.Mbps
	gap := rate.DurationForBytes(units.MSS) / 2 // 2× the rate: phantom drops some
	noop := func(time.Duration, packet.Packet) {}

	pqp := phantom.MustNew(phantom.Config{Rate: rate, Queues: 4, QueueSize: 20 * units.MSS, BurstControl: true})
	var timer func() // the shaper's one pending service callback, never run
	shp, err := shaper.New(shaper.Config{
		Rate: rate, Queues: 1, QueueSize: 1000 * units.MSS,
		Scheduler: shaper.SchedulerFunc(func(_ time.Duration, fn func()) { timer = fn }),
		Sink:      noop,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		enf  enforcer.Enforcer
		warm int // packets before the pin: grows the shaper's queue
	}{{"phantom", pqp, 100}, {"shaper", shp, 300}} {
		hop := Enforce(c.enf, noop)
		now := time.Duration(0)
		p := pkt(units.MSS)
		for i := 0; i < c.warm; i++ {
			now += gap
			hop(now, p)
		}
		if a := testing.AllocsPerRun(200, func() { now += gap; hop(now, p) }); a != 0 {
			t.Errorf("%s: the Enforce hop allocates %v times a packet", c.name, a)
		}
	}
	if timer == nil || shp.EnforcerStats().DroppedPackets != 0 {
		t.Fatalf("shaper: armed %v, dropped %d; the pin needs an armed timer and no drops",
			timer != nil, shp.EnforcerStats().DroppedPackets)
	}
	if st := pqp.EnforcerStats(); st.DroppedPackets == 0 || st.AcceptedPackets == 0 {
		t.Fatalf("phantom: %+v; the pin needs both verdicts", st)
	}
}

type enforcerFunc func(time.Duration, packet.Packet) enforcer.Verdict

func (f enforcerFunc) SubmitBatch(now time.Duration, pkts []packet.Packet, v []enforcer.Verdict) {
	for i := range pkts {
		v[i] = f(now, pkts[i])
	}
}
