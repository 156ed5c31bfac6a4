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

// faultRecord is one aggregate's fault state as its record holds it.
type faultRecord struct {
	Panics        int64
	Quarantined   bool
	DegradedDrops int64
}

// faults reads id's fault counters straight off its aggregate record.
func faults(e *Engine, id string) (faultRecord, error) {
	agg, err := e.aggByID(id)
	if err != nil {
		return faultRecord{}, err
	}
	return faultRecord{agg.panics.Load(), agg.quarantined.Load(), agg.degradedDrops.Load()}, nil
}

// TestAggregateLayout pins the aggregate's size class: 112 bytes, exactly
// one malloc size class. Field order is not pinned: a hot prefix moved
// nothing measurable on engine_inline (DESIGN.md, "Lines touched per burst").
func TestAggregateLayout(t *testing.T) {
	if got := unsafe.Sizeof(aggregate{}); got > 112 {
		t.Errorf("aggregate is %d bytes, want ≤ 112 (a malloc size class)", got)
	}
}

// TestShardLayout pins the shard's two cache lines: what nobody writes per
// burst (what New set, and the counters a refusal or a recovered panic
// writes), and what the holder of the occupancy word writes for every burst,
// beside the word. 128 bytes is a size class whose objects start on a line.
func TestShardLayout(t *testing.T) {
	var s shard
	if got := unsafe.Sizeof(s); got != 128 {
		t.Errorf("shard is %d bytes, want 128 (two lines, a malloc size class)", got)
	}
	if end := unsafe.Offsetof(s.lastFault) + unsafe.Sizeof(s.lastFault); end > 64 {
		t.Errorf("refusal counters end at %d, want ≤ 64", end)
	}
	if got := unsafe.Offsetof(s.occ); got != 64 {
		t.Errorf("holder-written fields start at %d, want 64", got)
	}
}

// The name describes the control-lane failover this test pinned until the
// lane was removed; it stays because the floor test list names it.
func TestControlFailsOverOnSaturatedShard(t *testing.T) {
	// With a LocalSubmitter wedged in an emit callback, a control operation
	// must not block behind it for good: there is no second lane to fail
	// over to, so once the shard reads wedged every op waiting for the word
	// reports ErrSaturated, and none of their fns ever runs.
	// TestControlEscalationDeterministic steps one call through the same
	// escalation behind an Engine.SubmitBatch.
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	e := New(Config{Shards: 1})
	defer e.Close()
	defer openGate()
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	wedgeShard(t, e, 0, func() { ls.SubmitBatch(h, []packet.Packet{pkt(0)}) })
	// Age the wedge past wedgeTimeout instead of waiting it out.
	e.shards[0].heartbeat.Add(-int64(wedgeTimeout))
	var ran atomic.Int32
	ops := []func() error{
		func() error { return e.Flush("x", func(enforcer.Enforcer) { ran.Add(1) }) },
		func() error { _, err := e.Stats("x"); return err },
		func() error { return e.SetRate("x", 2*units.Mbps) },
	}
	errs := make(chan error, 24)
	for i := 0; i < cap(errs); i++ {
		op := ops[i%len(ops)]
		go func() { errs <- op() }()
	}
	timeout := time.After(time.Second)
	for i := 0; i < cap(errs); i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrSaturated) {
				t.Fatalf("control op on a saturated shard = %v, want ErrSaturated", err)
			}
		case <-timeout:
			t.Fatalf("%d control ops still waiting 1s after the shard read wedged", cap(errs)-i)
		}
	}
	openGate()
	awaitIdle(t, e, 0)
	if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil {
		t.Fatalf("Flush after unwedge: %v", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d refused Flush fns ran after the shard unwedged", n)
	}
}

func TestConcurrentAddRemoveDuringTraffic(t *testing.T) {
	clock := &fakeClock{step: 10 * time.Microsecond}
	e := New(Config{Shards: 4, Clock: clock.now})
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
