package mbox

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/units"
)

// wedgeShard runs block — a SubmitBatch, LocalSubmitter burst or control call
// whose hook parks on a gate the test holds — on a helper goroutine, and
// returns once shard i reads Busy. On an idle shard such a call runs its hook
// on the calling goroutine, so a test that made it itself would park with it.
// The helper goroutine ends when the test opens its gate.
func wedgeShard(t testing.TB, e *Engine, i int, block func()) {
	t.Helper()
	go block()
	deadline := time.Now().Add(10 * time.Second)
	for !e.Health().Shards[i].Busy {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d never became busy", i)
		}
		runtime.Gosched()
	}
}

// holdShard parks a helper Flush of id on shard 0 and returns what lets it go.
// While it is held every submission queues, so a burst whose hook is gated,
// submitted under the hold, wedges the shard goroutine rather than its
// submitter: ring empty, one item in flight on the consumer, the state the
// ring-arithmetic tests count from.
func holdShard(t testing.TB, e *Engine, id string) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	wedgeShard(t, e, 0, func() { e.Flush(id, func(enforcer.Enforcer) { <-hold }) })
	return func() { close(hold) }
}

// divergeAt is the first index at which two emit records differ.
func divergeAt(a, b []emitRec) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestClaimKeepsSubmissionOrder is the race the pending count closes. One
// goroutine takes and drops the shard in a tight loop (inline bursts on
// another aggregate), so the producer's bursts keep finding the word held and
// queue; the shard goroutine pops one and waits for the word with the ring
// empty behind it. A producer that judged "idle" by the ring's length would
// claim the freed word and serve its next burst ahead of the popped one. The
// emit hook's plain variables are also the -race check that claimed and
// queued runs are ordered by the word.
func TestClaimKeepsSubmissionOrder(t *testing.T) {
	const bursts = 100_000
	e := New(Config{Shards: 1, QueueDepth: 64})
	defer e.Close()
	var last, emitted, reordered int64
	h, err := e.Add("ordered", &countingEnforcer{}, func(p packet.Packet) {
		if p.Seq <= last {
			reordered++
		}
		last = p.Seq
		emitted++
	})
	if err != nil {
		t.Fatal(err)
	}
	hOther, err := e.Add("other", &countingEnforcer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	holder := make(chan struct{})
	go func() {
		defer close(holder)
		other := burstOf(1, 0)
		for !stop.Load() {
			// A producer that serves burst after burst can keep the word
			// from this goroutine past ControlTimeout; that is no failure.
			if err := ls.SubmitBatch(hOther, other); err != nil && !errors.Is(err, ErrSaturated) {
				t.Error(err)
				return
			}
		}
	}()
	one := make([]packet.Packet, 1)
	ring := e.shards[0].in
	for seq := int64(1); seq <= bursts; seq++ {
		// Only this goroutine fills the ring, so room now is room at the
		// send: nothing is shed and every burst is accounted for.
		for len(ring) == cap(ring) {
			runtime.Gosched()
		}
		one[0] = packet.Packet{Size: units.MSS, Seq: seq}
		if err := e.SubmitBatch(h, one); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-holder
	if err := e.Flush("ordered", func(enforcer.Enforcer) {}); err != nil {
		t.Fatal(err)
	}
	if reordered != 0 {
		t.Errorf("%d of %d bursts were served behind a later one", reordered, bursts)
	}
	if emitted != bursts {
		t.Errorf("emitted %d of %d bursts (%d packets shed)", emitted, bursts, e.Overloaded.Load())
	}
	sh := e.Health().Shards[0]
	if sh.Claimed+sh.Queued != bursts {
		t.Errorf("claimed %d + queued %d != %d served", sh.Claimed, sh.Queued, bursts)
	}
	t.Logf("claimed %d, queued %d", sh.Claimed, sh.Queued)
}

// TestClaimedEqualsQueued submits one seeded burst sequence — a flat BC-PQP
// aggregate and a policy tree through its leaves, observed and audited — to
// an idle engine, where every burst is served by its submitter, and to one
// whose shard a helper holds for the duration, where every burst queues for
// the shard goroutine, and demands the same emits in the same order, the
// same statistics and the same audit envelopes.
func TestClaimedEqualsQueued(t *testing.T) {
	const bursts = 400
	type outcome struct {
		emits           []emitRec
		flat, tree      enforcer.Stats
		leafA, leafB    enforcer.Stats
		audits          []AuditEntry
		claimed, queued int64
	}
	run := func(queue bool) (out outcome) {
		clock := &fakeClock{step: 50 * time.Microsecond}
		e := New(Config{
			Shards: 1, QueueDepth: 1 << 10, Clock: clock.now,
			Observer: obs.NewCollector(obs.Options{SampleEvery: 1}),
		})
		defer e.Close()
		record := func(p packet.Packet) { out.emits = append(out.emits, emitRec{p.Seq, p.Size, p.CE}) }
		flat, err := e.Add("flat", phantom.MustNew(phantom.Config{
			Rate: 8 * units.Mbps, Queues: 16, QueueSize: 60 * units.MSS, BurstControl: true,
		}), record)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := e.Add("tree", newTestTree(), record)
		if err != nil {
			t.Fatal(err)
		}
		leaves := [2]LeafHandle{}
		for i := range leaves {
			if leaves[i], err = e.Leaf(tree, enforcer.NodeID(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{"flat", "tree"} {
			if err := e.ArmAudit(id, 8*units.Mbps, 30*units.MSS); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ArmNodeAudit("tree", 1, 5*units.Mbps, 30*units.MSS); err != nil {
			t.Fatal(err)
		}

		release := func() {}
		if queue {
			release = holdShard(t, e, "flat")
		}
		for i, b := range seededBursts(11, bursts) {
			switch i % 3 {
			case 0:
				err = e.SubmitBatch(flat, b)
			default:
				err = e.SubmitLeafBatch(leaves[i%3-1], b)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		release()
		// Stats rides the ring behind everything queued: a barrier.
		if out.flat, err = e.Stats("flat"); err != nil {
			t.Fatal(err)
		}
		if out.tree, err = e.Stats("tree"); err != nil {
			t.Fatal(err)
		}
		if out.leafA, err = e.NodeStats("tree", 1); err != nil {
			t.Fatal(err)
		}
		if out.leafB, err = e.NodeStats("tree", 2); err != nil {
			t.Fatal(err)
		}
		out.audits = e.AuditReport()
		sh := e.Health().Shards[0]
		out.claimed, out.queued = sh.Claimed, sh.Queued
		if sh.Shed != 0 {
			t.Fatalf("queue=%v: shed %d packets; the ring must hold the whole sequence", queue, sh.Shed)
		}
		return out
	}

	claimed, queued := run(false), run(true)
	if claimed.claimed != bursts || claimed.queued != 0 {
		t.Errorf("idle engine: claimed %d, queued %d, want %d and 0", claimed.claimed, claimed.queued, bursts)
	}
	if queued.claimed != 0 || queued.queued != bursts {
		t.Errorf("held engine: claimed %d, queued %d, want 0 and %d", queued.claimed, queued.queued, bursts)
	}
	if len(claimed.emits) == 0 || claimed.flat.DroppedPackets == 0 || claimed.tree.DroppedPackets == 0 {
		t.Fatalf("workload too tame to compare: %d emits, flat %+v, tree %+v",
			len(claimed.emits), claimed.flat, claimed.tree)
	}
	if !reflect.DeepEqual(claimed.emits, queued.emits) {
		t.Errorf("emits diverge at index %d (claimed %d, queued %d)",
			divergeAt(claimed.emits, queued.emits), len(claimed.emits), len(queued.emits))
	}
	claimed.emits, queued.emits = nil, nil
	claimed.claimed, claimed.queued, queued.claimed, queued.queued = 0, 0, 0, 0
	if !reflect.DeepEqual(claimed, queued) {
		t.Errorf("statistics or audit envelopes diverge:\nclaimed %+v\n queued %+v", claimed, queued)
	}
}

// TestClaimedPathAllocatesNothing: a SubmitBatch served by its submitter, with
// observation and an audit armed, allocates nothing, and a control call that
// claims the shard allocates nothing of its own — no done channel, no timer.
func TestClaimedPathAllocatesNothing(t *testing.T) {
	clock := &fakeClock{step: 50 * time.Microsecond}
	e := New(Config{Shards: 1, Clock: clock.now, Observer: obs.NewCollector(obs.Options{})})
	defer e.Close()
	h, err := e.Add("x", phantom.MustNew(phantom.Config{Rate: 8 * units.Mbps, Queues: 16, QueueSize: 60 * units.MSS}), func(packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("x", 8*units.Mbps, 1<<30); err != nil {
		t.Fatal(err)
	}
	burst := burstOf(32, 0)
	if n := testing.AllocsPerRun(200, func() {
		if err := e.SubmitBatch(h, burst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("claimed SubmitBatch allocates %v times per burst, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("claimed Flush allocates %v times per call, want 0", n)
	}
	if sh := e.Health().Shards[0]; sh.Queued != 0 {
		t.Errorf("%d bursts queued on an engine nobody else touches", sh.Queued)
	}
}

// TestSubmitFromEmitHookQueuesBehind: a SubmitBatch to the same shard from
// inside an emit hook that its submitter is running finds the word held, so
// it queues and is served after the outer burst — no deadlock, no reorder.
func TestSubmitFromEmitHookQueuesBehind(t *testing.T) {
	e := New(Config{Shards: 1, QueueDepth: 8})
	defer e.Close()
	var order []int64
	var h Handle
	var nested error
	h, err := e.Add("x", &countingEnforcer{}, func(p packet.Packet) {
		order = append(order, p.Seq)
		if p.Seq == 1 {
			nested = e.SubmitBatch(h, []packet.Packet{{Size: units.MSS, Seq: 3}})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch(h, []packet.Packet{{Size: units.MSS, Seq: 1}, {Size: units.MSS, Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil {
		t.Fatal(err)
	}
	if nested != nil {
		t.Errorf("nested SubmitBatch: %v", nested)
	}
	if want := []int64{1, 2, 3}; !slices.Equal(order, want) {
		t.Errorf("emit order %v, want %v", order, want)
	}
	if sh := e.Health().Shards[0]; sh.Claimed != 1 || sh.Queued != 1 {
		t.Errorf("claimed %d, queued %d, want the outer burst claimed and the nested one queued", sh.Claimed, sh.Queued)
	}
}

// TestCloseCountsHeldShard: a stop item skips the occupancy word, so the
// shard goroutine of a shard whose submitter is wedged in a hook exits on
// time; Close must still report the shard abandoned, for either kind of
// submitter.
func TestCloseCountsHeldShard(t *testing.T) {
	for _, local := range []bool{false, true} {
		t.Run(fmt.Sprintf("local=%v", local), func(t *testing.T) {
			gate := make(chan struct{})
			defer close(gate)
			e := New(Config{Shards: 1, CloseTimeout: 100 * time.Millisecond})
			h, err := e.Add("x", &countingEnforcer{}, func(packet.Packet) { <-gate })
			if err != nil {
				t.Fatal(err)
			}
			submit := e.SubmitBatch
			if local {
				ls, err := e.LocalShard(0)
				if err != nil {
					t.Fatal(err)
				}
				submit = ls.SubmitBatch
			}
			wedgeShard(t, e, 0, func() { submit(h, burstOf(1, 0)) })
			rep := e.Close()
			if rep.Clean || rep.AbandonedShards != 1 {
				t.Errorf("Close with the shard held by a wedged submitter = %+v, want 1 abandoned shard, not clean", rep)
			}
		})
	}
}
