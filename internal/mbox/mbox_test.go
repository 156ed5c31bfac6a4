package mbox

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// fakeClock is a deterministic, concurrency-safe virtual clock that
// advances a fixed step per reading. The engine reads it once per burst.
type fakeClock struct {
	step  time.Duration
	ticks atomic.Int64
}

func (c *fakeClock) now() time.Duration {
	return time.Duration(c.ticks.Add(1)) * c.step
}

func pkt(flow int) packet.Packet {
	return packet.Packet{
		Key:   packet.FlowKey{SrcPort: uint16(flow + 1), Proto: 6},
		Size:  units.MSS,
		Class: flow % 16,
	}
}

// TestAggregateLayout pins the aggregate's size class: 112 bytes, exactly
// one malloc size class. Field order is not pinned: a hot prefix moved
// nothing measurable on engine_inline (DESIGN.md, "Lines touched per burst").
func TestAggregateLayout(t *testing.T) {
	if got := unsafe.Sizeof(aggregate{}); got > 112 {
		t.Errorf("aggregate is %d bytes, want ≤ 112 (a malloc size class)", got)
	}
}

// TestShardLayout pins the shard's four cache lines: what nobody writes
// after New, what the holder of the occupancy word writes, the pending count
// both sides write, and what submitters write behind a busy shard. 256 bytes
// is a size class whose objects start on a line.
func TestShardLayout(t *testing.T) {
	var s shard
	if got := unsafe.Sizeof(s); got != 256 {
		t.Errorf("shard is %d bytes, want 256 (four lines, a malloc size class)", got)
	}
	if got := unsafe.Offsetof(s.occ); got != 64 {
		t.Errorf("holder-written fields start at %d, want 64", got)
	}
	if end := unsafe.Offsetof(s.inlineBursts) + unsafe.Sizeof(s.inlineBursts); end > 128 {
		t.Errorf("holder-written fields end at %d, want ≤ 128", end)
	}
	if got := unsafe.Offsetof(s.pending); got != 128 {
		t.Errorf("pending is at %d, want 128", got)
	}
	if got := unsafe.Offsetof(s.shed); got != 192 {
		t.Errorf("submitter-written fields start at %d, want 192", got)
	}
}

func TestAddRemove(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()
	h, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h == NoHandle {
		t.Fatal("Add returned NoHandle without error")
	}
	if _, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := e.Add("b", nil, nil); err == nil {
		t.Error("nil enforcer accepted")
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d", e.Len())
	}
	if got, err := e.Lookup("a"); err != nil || got != h {
		t.Errorf("Lookup(a) = %v, %v; want %v", got, err, h)
	}
	if _, err := e.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Remove("a"); err == nil {
		t.Error("double remove accepted")
	}
	if err := e.SubmitBatch(h, []packet.Packet{pkt(0)}); !errors.Is(err, ErrStale) {
		t.Errorf("batch submit to removed aggregate: err = %v, want ErrStale", err)
	}
	if _, err := e.Lookup("a"); err == nil {
		t.Error("lookup of removed aggregate succeeded")
	}
	if err := e.SubmitBatch(NoHandle, []packet.Packet{pkt(0)}); err == nil {
		t.Error("invalid handle accepted")
	}
	if err := e.SubmitBatch(Handle{ref: 99}, []packet.Packet{pkt(0)}); err == nil {
		t.Error("out-of-range handle accepted")
	}
}

// TestHandlesNotReused guards the ABA property: a stale handle must never
// alias a different aggregate added later, even though the table SLOT is
// recycled — the generation tag is what keeps the handles distinct.
func TestHandlesNotReused(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	h1, err := e.Add("first", tbf.MustNew(units.Mbps, 10*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Remove("first"); err != nil {
		t.Fatal(err)
	}
	h2, err := e.Add("second", tbf.MustNew(units.Mbps, 10*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatalf("handle %d reused for a different aggregate", h1)
	}
	if h1.ref.slot() != h2.ref.slot() {
		t.Errorf("slot %d not recycled (got %d): registry would grow without bound", h1.ref.slot(), h2.ref.slot())
	}
	if h1.ref.gen() == h2.ref.gen() {
		t.Errorf("generation %d reused across recycle", h1.ref.gen())
	}
	if err := e.SubmitBatch(h1, []packet.Packet{pkt(0)}); !errors.Is(err, ErrStale) {
		t.Errorf("stale handle: err = %v, want ErrStale", err)
	}
}

func TestPerAggregateRateEnforcement(t *testing.T) {
	clock := &fakeClock{step: 100 * time.Microsecond}
	e := New(Config{Shards: 4, Clock: clock.now, QueueDepth: 1 << 16})
	defer e.Close()

	// 8 aggregates, each with a BC-PQP at 8 Mbps. The virtual clock
	// advances 100 µs per burst across ALL aggregates, so the run spans
	// a deterministic amount of virtual time.
	const aggs = 8
	var emitted [aggs]atomic.Int64
	handles := make([]Handle, aggs)
	for i := 0; i < aggs; i++ {
		i := i
		enf := phantom.MustNew(phantom.Config{
			Rate:         8 * units.Mbps,
			Queues:       16,
			QueueSize:    500 * units.MSS,
			BurstControl: true,
		})
		h, err := e.Add(fmt.Sprintf("agg-%d", i), enf, func(p packet.Packet) {
			emitted[i].Add(int64(p.Size))
		})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	// Offer far above the rate from several goroutines, in bursts of one
	// and of thirty-two.
	var wg sync.WaitGroup
	const perSender = 20000
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if s%2 == 0 {
				for i := 0; i < perSender; i++ {
					h := handles[(s*perSender+i)%aggs]
					if err := e.SubmitBatch(h, []packet.Packet{pkt(i)}); err != nil {
						t.Error(err)
						return
					}
				}
				return
			}
			var burst [32]packet.Packet
			for i := 0; i < perSender; i += len(burst) {
				for j := range burst {
					burst[j] = pkt(i + j)
				}
				h := handles[(s*perSender+i)%aggs]
				if err := e.SubmitBatch(h, burst[:]); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	e.Close() // drains the shards

	if e.Overloaded.Load() > 0 {
		t.Logf("overloaded: %d (queue depth generous; informational)", e.Overloaded.Load())
	}
	// Every aggregate must have emitted something, and nothing close to
	// the full offered volume (10000 packets each at far above rate).
	for i := 0; i < aggs; i++ {
		got := emitted[i].Load()
		if got == 0 {
			t.Errorf("aggregate %d emitted nothing", i)
		}
		if got >= perSender*4/aggs*units.MSS {
			t.Errorf("aggregate %d emitted everything (%d bytes); no enforcement", i, got)
		}
	}
}

func TestStatsOnShardGoroutine(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()
	h, err := e.Add("x", tbf.MustNew(8*units.Mbps, 2*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.SubmitBatch(h, []packet.Packet{pkt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Stats is synchronous: it runs after everything queued before it.
	st, err := e.Stats("x")
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.Totals(); p != 10 {
		t.Errorf("stats saw %d packets, want 10", p)
	}
	if _, err := e.Stats("nope"); err == nil {
		t.Error("stats for unknown aggregate accepted")
	}
}

// statlessEnforcer implements Enforcer but not StatsReader.
type statlessEnforcer struct{}

func (statlessEnforcer) Submit(time.Duration, packet.Packet) enforcer.Verdict {
	return enforcer.Transmit
}

func TestStatsErrNoStats(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	if _, err := e.Add("mute", statlessEnforcer{}, nil); err != nil {
		t.Fatal(err)
	}
	_, err := e.Stats("mute")
	if !errors.Is(err, ErrNoStats) {
		t.Errorf("Stats on stats-less enforcer: err = %v, want ErrNoStats", err)
	}
}

func TestSingleAndBatchAgree(t *testing.T) {
	// The same traffic at the same virtual times must produce identical
	// enforcement statistics whether each 32 packets arrive as one burst or
	// as thirty-two bursts of one: how a producer cuts its bursts is not
	// part of the verdict.
	run := func(batch bool) enforcer.Stats {
		clk := &manualClock{}
		e := New(Config{Shards: 1, Clock: clk.read, QueueDepth: 1 << 16})
		defer e.Close()
		h, err := e.Add("x", tbf.MustNew(8*units.Mbps, 64*units.MSS), nil)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4096
		var buf [32]packet.Packet
		for i := 0; i < n; i += len(buf) {
			clk.add(100 * time.Microsecond)
			for j := range buf {
				buf[j] = pkt(i + j)
			}
			if batch {
				err = e.SubmitBatch(h, buf[:])
			} else {
				for j := range buf {
					if err = e.SubmitBatch(h, buf[j:j+1]); err != nil {
						break
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			// The shard reads the clock when it runs a burst: settle
			// these before the clock moves again.
			if _, err := e.Stats("x"); err != nil {
				t.Fatal(err)
			}
		}
		st, err := e.Stats("x")
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := st.Totals(); p != n {
			t.Fatalf("engine saw %d packets, want %d", p, n)
		}
		return st
	}
	single, batched := run(false), run(true)
	if single != batched {
		t.Errorf("bursts-of-one stats %+v != bursts-of-32 stats %+v", single, batched)
	}
}

func TestFlushRunsMaintenance(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	enf := phantom.MustNew(phantom.Config{
		Rate: units.Mbps, Queues: 2, QueueSize: 100 * units.MSS,
		BurstControl: true,
	})
	if _, err := e.Add("x", enf, nil); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := e.Flush("x", func(got enforcer.Enforcer) {
		ran = got == enforcer.Enforcer(enf)
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("flush did not run with the registered enforcer")
	}
}

func TestOverloadSheds(t *testing.T) {
	// A blocked shard must shed bursts rather than block Submit.
	gate := make(chan struct{})
	e := New(Config{Shards: 1, QueueDepth: 4})
	// LIFO: the gate must open before Close waits for the shard.
	defer e.Close()
	defer close(gate)
	enf := tbf.MustNew(units.Mbps, 10*units.MSS)
	h, err := e.Add("x", enf, func(packet.Packet) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	wedgeShard(t, e, 0, func() { e.SubmitBatch(h, []packet.Packet{pkt(0)}) })
	deadline := time.After(5 * time.Second)
	for e.Overloaded.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("never shed load with a blocked shard")
		default:
		}
		if err := e.SubmitBatch(h, []packet.Packet{pkt(0)}); err != nil {
			t.Fatal(err)
		}
	}
}

// The name describes the control-lane failover this test pinned until the
// lane was removed; it stays because the floor test list names it.
func TestControlFailsOverOnSaturatedShard(t *testing.T) {
	// With a submitter wedged in an emit callback on a burst it serves
	// itself and the data ring full behind it, a control operation must
	// not block behind data traffic: there is no second queue to fail
	// over to, so once the shard reads wedged every op reports
	// ErrSaturated at its next re-offer, and none of their fns ever runs.
	// TestControlEscalationDeterministic wedges the shard goroutine instead.
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	e := New(Config{Shards: 1, QueueDepth: 1})
	defer e.Close()
	defer openGate()
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the shard and fill the ring.
	wedgeShard(t, e, 0, func() { e.SubmitBatch(h, []packet.Packet{pkt(0)}) })
	for i := 0; i < 64; i++ {
		if err := e.SubmitBatch(h, []packet.Packet{pkt(0)}); err != nil {
			t.Fatal(err)
		}
	}
	// Age the wedge past wedgeTimeout instead of waiting it out.
	e.shards[0].heartbeat.Add(-int64(wedgeTimeout))
	var ran atomic.Int32
	errs := make(chan error, 24)
	for i := 0; i < cap(errs); i++ {
		go func() { errs <- e.Flush("x", func(enforcer.Enforcer) { ran.Add(1) }) }()
	}
	timeout := time.After(reofferInterval + time.Second)
	for i := 0; i < cap(errs); i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrSaturated) {
				t.Fatalf("control op on a saturated shard = %v, want ErrSaturated", err)
			}
		case <-timeout:
			t.Fatalf("%d control ops still parked after reofferInterval + 1s", cap(errs)-i)
		}
	}
	openGate()
	if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil {
		t.Fatalf("Flush after unwedge: %v", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d refused Flush fns ran after the shard unwedged", n)
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	e := New(Config{Shards: 2})
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 10*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	if err := e.SubmitBatch(h, []packet.Packet{pkt(0)}); err == nil {
		t.Error("batch submit after close accepted")
	}
	if _, err := e.Stats("x"); err == nil {
		t.Error("stats after close accepted")
	}
	if _, err := e.Add("y", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err == nil {
		t.Error("add after close accepted")
	}
}

func TestConcurrentAddRemoveDuringTraffic(t *testing.T) {
	clock := &fakeClock{step: 10 * time.Microsecond}
	e := New(Config{Shards: 4, Clock: clock.now, QueueDepth: 1 << 12})
	defer e.Close()
	steady, err := e.Add("steady", tbf.MustNew(8*units.Mbps, 100*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Steady traffic runs until the churner has cycled all its aggregates.
	var churned atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; !churned.Load(); i++ {
			e.SubmitBatch(steady, []packet.Packet{pkt(i)})
		}
	}()
	go func() {
		defer wg.Done()
		defer churned.Store(true)
		for i := 0; i < 200; i++ {
			id := fmt.Sprintf("churn-%d", i)
			h, err := e.Add(id, tbf.MustNew(units.Mbps, 10*units.MSS), nil)
			if err != nil {
				t.Error(err)
				return
			}
			e.SubmitBatch(h, []packet.Packet{pkt(i)})
			if _, err := e.Remove(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if e.Len() != 1 {
		t.Errorf("Len = %d after churn, want 1", e.Len())
	}
}

func TestFlushDrivesPhantomMaintenance(t *testing.T) {
	// Integration: burst-control magic reclaim driven through the
	// engine's race-free Flush hook, the way a production deployment
	// would run periodic Tick maintenance.
	clock := &fakeClock{step: 50 * time.Microsecond}
	e := New(Config{Shards: 1, Clock: clock.now, QueueDepth: 1 << 12})
	defer e.Close()
	enf := phantom.MustNew(phantom.Config{
		Rate:         8 * units.Mbps,
		Queues:       1,
		QueueSize:    400 * units.MSS,
		BurstControl: true,
		Window:       10 * time.Millisecond,
	})
	h, err := e.Add("x", enf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Burst to trigger the magic fill.
	for i := 0; i < 400; i++ {
		if err := e.SubmitBatch(h, []packet.Packet{pkt(0)}); err != nil {
			t.Fatal(err)
		}
	}
	var magic int64
	if err := e.Flush("x", func(got enforcer.Enforcer) {
		magic = got.(*phantom.PQP).MagicBytes(0)
	}); err != nil {
		t.Fatal(err)
	}
	if magic == 0 {
		t.Fatal("burst did not magic-fill through the engine")
	}
	// Let virtual time pass (each Flush advances the clock), then run
	// Tick maintenance until the reclaim fires.
	for i := 0; i < 10000 && magic > 0; i++ {
		if err := e.Flush("x", func(got enforcer.Enforcer) {
			p := got.(*phantom.PQP)
			p.Tick(clock.now())
			magic = p.MagicBytes(0)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if magic != 0 {
		t.Errorf("magic never reclaimed via engine maintenance: %d bytes", magic)
	}
}
