package mbox

// Ring-bypass fast-path tests: the LocalSubmitter must be byte-identical to
// the ring path on the same seeded workload, refuse cross-shard handles,
// and degrade to a counted ErrSaturated when the occupancy word is wedged.

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/ptree"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// emitRec captures what an emit hook can observe about one relayed packet.
type emitRec struct {
	Seq  int64
	Size int
	CE   bool
}

// seededBursts regenerates the same randomized burst schedule from a seed:
// variable burst lengths, 8 flows, variable sizes.
func seededBursts(seed int64, bursts int) [][]packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]packet.Packet, bursts)
	var seq int64
	for b := range out {
		n := 1 + rng.Intn(32)
		pkts := make([]packet.Packet, n)
		for i := range pkts {
			pkts[i] = packet.Packet{
				Key:  packet.FlowKey{SrcIP: uint32(0x0a000000 + rng.Intn(8)), SrcPort: 7000, Proto: 17},
				Size: 64 + rng.Intn(1400),
				Seq:  seq,
			}
			seq++
		}
		out[b] = pkts
	}
	return out
}

// TestLocalSubmitEquivalentToRing runs the identical seeded workload through
// the ring path and the inline path on otherwise-identical engines and
// demands the same emitted sequence (order, sizes, CE marks), the same final
// enforcer and per-node stats, and that the inline run really bypassed the
// ring. Two thirds of the bursts feed a tree aggregate at its leaves 1 and 2,
// through handles that carry the node, so both ingresses enter a tree at a
// node the same way.
func TestLocalSubmitEquivalentToRing(t *testing.T) {
	const bursts = 300
	type outcome struct {
		recs    []emitRec
		st      enforcer.Stats
		nodes   [3]enforcer.Stats
		treeSt  enforcer.Stats
		inlined int64
	}
	run := func(local bool) (out outcome) {
		clock := &fakeClock{step: 50 * time.Microsecond}
		e := New(Config{Shards: 2, QueueDepth: 1 << 12, Clock: clock.now})
		defer e.Close()
		record := func(p packet.Packet) { out.recs = append(out.recs, emitRec{p.Seq, p.Size, p.CE}) }
		h, err := e.AddPinned("agg", 1, tbf.MustNew(4*units.Mbps, 20*units.MSS), record)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := e.AddPinned("tree", 1, ptree.MustNew([]ptree.NodeSpec{
			{Parent: -1, Stage: tbf.MustNew(6*units.Mbps, 20*units.MSS)},
			{Parent: 0, Assured: 2 * units.Mbps},
			{Parent: 0, Stage: tbf.MustNew(units.Mbps, 10*units.MSS)},
		}), record)
		if err != nil {
			t.Fatal(err)
		}
		var handles [3]Handle
		handles[0] = h
		for node := 1; node <= 2; node++ {
			if handles[node], err = e.Leaf(tree, enforcer.NodeID(node)); err != nil {
				t.Fatal(err)
			}
		}
		submit := e.SubmitBatch
		if local {
			ls, err := e.LocalShard(1)
			if err != nil {
				t.Fatal(err)
			}
			if ls.Shard() != 1 {
				t.Fatalf("LocalShard(1) is bound to shard %d", ls.Shard())
			}
			submit = ls.SubmitBatch
		}
		for i, b := range seededBursts(7, bursts) {
			if err := submit(handles[i%3], b); err != nil {
				t.Fatal(err)
			}
		}
		// Stats is an in-band barrier on the ring path and trivially
		// ordered on the inline path — either way recs is final after it.
		if out.st, err = e.Stats("agg"); err != nil {
			t.Fatal(err)
		}
		if out.treeSt, err = e.Stats("tree"); err != nil {
			t.Fatal(err)
		}
		for node := range out.nodes {
			if out.nodes[node], err = e.NodeStats("tree", enforcer.NodeID(node)); err != nil {
				t.Fatal(err)
			}
		}
		out.inlined = e.InlineBursts.Load()
		return out
	}

	ring, local := run(false), run(true)

	if ring.inlined != 0 {
		t.Errorf("ring run counted %d inline bursts, want 0", ring.inlined)
	}
	if local.inlined != bursts {
		t.Errorf("local run counted %d inline bursts, want %d", local.inlined, bursts)
	}
	if ring.st != local.st || ring.treeSt != local.treeSt {
		t.Errorf("final stats diverge: ring %+v / tree %+v, local %+v / tree %+v",
			ring.st, ring.treeSt, local.st, local.treeSt)
	}
	if ring.nodes != local.nodes {
		t.Errorf("node stats diverge: ring %+v, local %+v", ring.nodes, local.nodes)
	}
	for node := 1; node <= 2; node++ {
		if st := local.nodes[node]; st.AcceptedPackets == 0 || st.DroppedPackets == 0 {
			t.Errorf("leaf %d stats %+v: the workload should both admit and drop there", node, st)
		}
	}
	if len(ring.recs) == 0 {
		t.Fatal("ring path emitted nothing — workload too small to compare")
	}
	if !reflect.DeepEqual(ring.recs, local.recs) {
		t.Fatalf("emitted sequences diverge at index %d (ring %d recs, local %d recs)",
			divergeAt(ring.recs, local.recs), len(ring.recs), len(local.recs))
	}
}

func TestLocalSubmitWrongShard(t *testing.T) {
	e := New(Config{Shards: 2, QueueDepth: 64})
	defer e.Close()
	h, err := e.AddPinned("a", 0, tbf.MustNew(units.Mbps, 10*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.SubmitBatch(h, burstOf(4, 0)); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("cross-shard submit = %v, want ErrWrongShard", err)
	}
	if _, err := e.LocalShard(2); err == nil {
		t.Fatal("LocalShard(2) on a 2-shard engine succeeded")
	}
	if _, err := e.AddPinned("b", 9, tbf.MustNew(units.Mbps, 10*units.MSS), nil); err == nil {
		t.Fatal("AddPinned to an out-of-range shard succeeded")
	}
}

func TestLocalSubmitStaleHandle(t *testing.T) {
	e := New(Config{Shards: 1, QueueDepth: 64})
	defer e.Close()
	h, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := ls.SubmitBatch(h, burstOf(4, 0)); !errors.Is(err, ErrStale) {
		t.Fatalf("stale submit = %v, want ErrStale", err)
	}
}

// TestLocalSubmitSaturatedOnWedgedShard wedges a SubmitBatch caller inside an
// emit hook (so it holds the occupancy word) and asserts an inline submitter
// degrades: ErrSaturated within ControlTimeout, packets counted as shed.
func TestLocalSubmitSaturatedOnWedgedShard(t *testing.T) {
	gate := make(chan struct{})
	e := New(Config{Shards: 1, QueueDepth: 64, ControlTimeout: 50 * time.Millisecond})
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
	if err := ls.SubmitBatch(hl, burst); !errors.Is(err, ErrSaturated) {
		t.Fatalf("inline submit against a wedged shard = %v, want ErrSaturated", err)
	}
	if got := e.Overloaded.Load(); got != int64(len(burst)) {
		t.Errorf("Overloaded = %d, want %d (the whole shed burst)", got, len(burst))
	}
	if got := e.InlineFallbacks.Load(); got != 1 {
		t.Errorf("InlineFallbacks = %d, want 1", got)
	}
}

// TestWatchdogSeesWedgedInlineBurst: an inline burst stuck in an emit hook
// holds the shard's occupancy word, and that is in-flight work to the
// watchdog — it used to look only at the ring and at ring items. classify is
// called with chosen readings of now, so nothing here waits on a timer.
func TestWatchdogSeesWedgedInlineBurst(t *testing.T) {
	const wedge = wedgeTimeout
	entered, gate := make(chan struct{}), make(chan struct{})
	e := New(Config{Shards: 1, WatchdogInterval: time.Hour})
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
	var panics, shed int64
	classify := func(age time.Duration) ShardState {
		return e.classify(s, s.heartbeat.Load()+int64(age), &panics, &shed)
	}

	if got := classify(10 * wedge); got != ShardHealthy {
		t.Fatalf("idle shard with a stale heartbeat is %v, want healthy", got)
	}
	done := make(chan error, 1)
	go func() { done <- ls.SubmitBatch(h, burstOf(1, 0)) }()
	<-entered // the burst is inside the emit hook, holding the occupancy word
	if !e.Health().Shards[0].Busy {
		t.Error("Health reports the shard idle while an inline burst is in flight")
	}
	if got := classify(wedge / 2); got != ShardHealthy {
		t.Errorf("inline burst in flight for half the wedge timeout: %v, want healthy", got)
	}
	if got := classify(wedge + 1); got != ShardWedged {
		t.Errorf("inline burst blocked past the wedge timeout: %v, want wedged", got)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := classify(10 * wedge); got != ShardHealthy {
		t.Errorf("released shard with a stale heartbeat is %v, want healthy", got)
	}
}

// TestInlineBurstReadsNoWallClock pins what the inline path's speed rests on,
// as counts: observed or not, a burst reads the wall clock zero times (its
// heartbeat and idle-TTL stamps are the wall ticker's coarse reading), and an
// observed burst reads the monotonic clock exactly twice, for the
// burst-latency digest. The only other wall-clock reader is the wall ticker,
// once per coarseWallInterval at most (a ticker never queues more than one
// tick), so its share is bounded by the time the bursts took.
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
		{"observed", obs.NewCollector(obs.Options{}), 2 * bursts},
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
