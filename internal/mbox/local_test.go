package mbox

// LocalSubmitter tests: it must wait out a live holder of the occupancy word
// and degrade to a counted ErrSaturated only when the shard is wedged, and
// an inline burst reads no wall clock. That it is byte-identical to
// Engine.SubmitBatch and refuses cross-shard and stale handles is the
// reference model's to check (model_test.go).

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// TestLocalSubmitWaitsOutLiveHolder: a Flush fn holding the occupancy word for
// 30 ms is a live holder, not a wedge, so an inline submitter on the same
// shard waits it out and enforces its burst — nothing shed, no fallback.
func TestLocalSubmitWaitsOutLiveHolder(t *testing.T) {
	const hold = 30 * time.Millisecond
	e := New(Config{Shards: 1})
	defer e.Close()
	if _, err := e.Add("held", tbf.MustNew(units.Mbps, 1000*units.MSS), nil); err != nil {
		t.Fatal(err)
	}
	enf := &countingEnforcer{}
	h, err := e.Add("inline", enf, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	release := holdShard(t, e, "held")
	done := make(chan error, 1)
	go func() { done <- ls.SubmitBatch(h, burstOf(8, 1)) }()
	select {
	case err := <-done:
		release()
		t.Fatalf("inline submit returned %v while a live Flush held the shard", err)
	case <-time.After(hold):
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("inline submit behind a live holder: %v", err)
	}
	if got := e.InlineFallbacks.Load(); got != 0 {
		t.Errorf("InlineFallbacks = %d, want 0", got)
	}
	if got := enf.n.Load(); got != 8 {
		t.Errorf("enforcer saw %d packets, want all 8", got)
	}
}

// TestLocalSubmitSaturatedOnWedgedShard wedges a SubmitBatch caller inside an
// emit hook (so it holds the occupancy word) and asserts an inline submitter
// keeps waiting while the holder's stall is younger than wedgeTimeout, then
// degrades once it is older — the heartbeat is backdated rather than the
// second waited out: ErrSaturated, packets counted as shed.
func TestLocalSubmitSaturatedOnWedgedShard(t *testing.T) {
	gate := make(chan struct{})
	e := New(Config{Shards: 1})
	defer e.Close()
	defer close(gate)
	wedged := make(chan struct{})
	hw, err := e.Add("wedge", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) {
		close(wedged)
		<-gate
	})
	if err != nil {
		t.Fatal(err)
	}
	hl, err := e.Add("inline", tbf.MustNew(units.Mbps, 1000*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	wedgeShard(t, e, 0, func() { e.SubmitBatch(hw, []packet.Packet{pkt(0)}) })
	<-wedged // the helper goroutine now holds the occupancy word

	burst := burstOf(8, 1)
	refused := make(chan error, 1)
	go func() { refused <- ls.SubmitBatch(hl, burst) }()
	select {
	case err := <-refused:
		t.Fatalf("inline submit gave up on a shard stalled for less than wedgeTimeout: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	e.shards[0].heartbeat.Add(-int64(wedgeTimeout))
	select {
	case err := <-refused:
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("inline submit against a wedged shard = %v, want ErrSaturated", err)
		}
	case <-time.After(time.Second):
		t.Fatal("inline submit against a wedged shard still waiting after 1s")
	}
	if got := e.Overloaded.Load(); got != int64(len(burst)) {
		t.Errorf("Overloaded = %d, want %d (the whole shed burst)", got, len(burst))
	}
	if got := e.InlineFallbacks.Load(); got != 1 {
		t.Errorf("InlineFallbacks = %d, want 1", got)
	}
}

// TestWatchdogSeesWedgedInlineBurst: an inline burst stuck in an emit hook
// holds the shard's occupancy word, and that is in-flight work to classify.
// classify is called with chosen readings of now, so nothing here waits on a
// timer.
func TestWatchdogSeesWedgedInlineBurst(t *testing.T) {
	const wedge = wedgeTimeout
	entered, gate := make(chan struct{}), make(chan struct{})
	e := New(Config{Shards: 1})
	defer e.Close()
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) {
		close(entered)
		<-gate
	})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	s := e.shards[0]
	stateAt := func(age time.Duration) ShardState {
		return classify(s, s.heartbeat.Load()+int64(age))
	}

	if got := stateAt(10 * wedge); got != ShardHealthy {
		t.Fatalf("idle shard with a stale heartbeat is %v, want healthy", got)
	}
	done := make(chan error, 1)
	go func() { done <- ls.SubmitBatch(h, burstOf(1, 0)) }()
	<-entered // the burst is inside the emit hook, holding the occupancy word
	if !e.Health().Shards[0].Busy {
		t.Error("Health reports the shard idle while an inline burst is in flight")
	}
	if got := stateAt(wedge / 2); got != ShardHealthy {
		t.Errorf("inline burst in flight for half the wedge timeout: %v, want healthy", got)
	}
	if got := stateAt(wedge + 1); got != ShardWedged {
		t.Errorf("inline burst blocked past the wedge timeout: %v, want wedged", got)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := stateAt(10 * wedge); got != ShardHealthy {
		t.Errorf("released shard with a stale heartbeat is %v, want healthy", got)
	}
}

// TestHealthClassifiesOnRead: Health and Metrics classify a shard as they
// read it, so each state shows on the first read after its cause. The test
// holds the shard's occupancy word itself and backdates stamps rather than
// waiting them out, so nothing here sleeps or waits on another goroutine.
func TestHealthClassifiesOnRead(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	s := e.shards[0]
	check := func(what string, want ShardState) {
		t.Helper()
		if got := e.Health().Shards[0].State; got != want {
			t.Errorf("%s: Health reads %v, want %v", what, got, want)
		}
		if got := metricValue(t, e.Metrics(), "bcpqp_shard_state", "0"); got != float64(want) {
			t.Errorf("%s: bcpqp_shard_state = %v, want %d", what, got, want)
		}
	}
	check("idle shard", ShardHealthy)

	// Work in flight (the word held) and a heartbeat older than wedgeTimeout.
	if !s.claim() {
		t.Fatal("idle shard's occupancy word is taken")
	}
	s.heartbeat.Add(-int64(wedgeTimeout + time.Millisecond))
	check("held shard with a stale heartbeat", ShardWedged)

	// Either submitter gives up on the wedged shard and its burst is counted.
	if err := ls.SubmitBatch(h, burstOf(3, 0)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("inline burst on a wedged shard: %v, want ErrSaturated", err)
	}
	if err := e.SubmitBatch(h, burstOf(2, 0)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("burst on a wedged shard: %v, want ErrSaturated", err)
	}
	if n := e.Overloaded.Load(); n != 5 {
		t.Errorf("Overloaded = %d, want the 5 refused packets", n)
	}
	s.release()
	if got := classify(s, s.lastFault.Load()); got != ShardDegraded {
		t.Errorf("idle shard at its refusal's stamp is %v, want degraded", got)
	}
	s.lastFault.Add(-int64(degradedFor))
	check("refusal older than degradedFor", ShardHealthy)

	// An idle shard serves this Flush on the caller, stamping the heartbeat.
	if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil {
		t.Fatal(err)
	}
	check("shard after a Flush", ShardHealthy)
}

// TestInlineBurstReadsNoWallClock pins what the inline path's speed rests on,
// as counts: observed or not, a burst reads the wall clock zero times (its
// heartbeat stamps are the wall ticker's coarse reading), and an observed
// shard reads the monotonic clock twice per timed burst, one in SampleEvery,
// for the burst-latency digest: 2 × ⌈bursts / SampleEvery⌉ in all. The only
// other wall-clock reader is the wall ticker, once per coarseWallInterval at
// most (a ticker never queues more than one tick), so its share is bounded
// by the time the bursts took.
func TestInlineBurstReadsNoWallClock(t *testing.T) {
	const bursts = 10000
	var reads, monoReads atomic.Int64
	realWall, realMono := wallClock, monoClock
	wallClock = func() int64 { reads.Add(1); return realWall() }
	monoClock = func() time.Duration { monoReads.Add(1); return realMono() }
	defer func() { wallClock, monoClock = realWall, realMono }()

	for _, tc := range []struct {
		name     string
		observer *obs.Collector
		wantMono int64
	}{
		{"unobserved", nil, 0},
		{"observed", obs.NewCollector(obs.Options{}), 2 * ((bursts + 15) / 16)},
	} {
		e := New(Config{Shards: 1, Observer: tc.observer})
		h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), nil)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := e.LocalShard(0)
		if err != nil {
			t.Fatal(err)
		}
		burst := burstOf(8, 0)
		before, monoBefore, start := reads.Load(), monoReads.Load(), time.Now()
		for i := 0; i < bursts; i++ {
			if err := ls.SubmitBatch(h, burst); err != nil {
				t.Fatal(err)
			}
		}
		ticks := int64(time.Since(start)/coarseWallInterval) + 2
		if got := reads.Load() - before; got > ticks {
			t.Errorf("%s: %d wall-clock reads over %d inline bursts, want none beyond at most %d ticker reads",
				tc.name, got, bursts, ticks)
		}
		if got := monoReads.Load() - monoBefore; got != tc.wantMono {
			t.Errorf("%s: %d monotonic-clock reads over %d inline bursts, want %d",
				tc.name, got, bursts, tc.wantMono)
		}
		if age := e.Health().Shards[0].HeartbeatAge; age < 0 || age > time.Minute {
			t.Errorf("%s: heartbeat age %v after %d bursts", tc.name, age, bursts)
		}
		e.Close()
	}
}
