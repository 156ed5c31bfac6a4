package mbox

import (
	"errors"
	"fmt"
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
// returns once shard i reads Busy. Such a call runs its hook on the calling
// goroutine, so a test that made it itself would park with it. The helper
// goroutine ends when the test opens its gate.
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

// awaitIdle waits until shard i reads idle. Once a test lets a held shard
// go its holder still has to finish, and until then a shard whose heartbeat
// the test backdated reads wedged and refuses every call.
func awaitIdle(t testing.TB, e *Engine, i int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Health().Shards[i].Busy {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d never let go", i)
		}
		runtime.Gosched()
	}
}

// holdShard parks a helper Flush of id on shard 0 and returns what lets it go.
// While it is held every burst and control call on the shard waits for its
// occupancy word.
func holdShard(t testing.TB, e *Engine, id string) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	wedgeShard(t, e, 0, func() { e.Flush(id, func(enforcer.Enforcer) { <-hold }) })
	return func() { close(hold) }
}

// TestClaimKeepsSubmissionOrder: two Engine.SubmitBatch producers feed one
// aggregate while a LocalSubmitter takes and drops the shard in a tight loop
// on another, so the producers keep finding the word held and wait for it.
// Each producer's bursts must come out in the order it submitted them, none
// lost and none refused: a live shard is waited out. The emit hook's plain
// variables are also the -race check that every run is ordered by the word.
func TestClaimKeepsSubmissionOrder(t *testing.T) {
	const (
		producers = 2
		bursts    = 50_000 // per producer
	)
	e := New(Config{Shards: 1})
	defer e.Close()
	var last [producers]int64
	var emitted, reordered int64
	h, err := e.Add("ordered", &countingEnforcer{}, func(p packet.Packet) {
		if src := p.Key.SrcPort; p.Seq <= last[src] {
			reordered++
		} else {
			last[src] = p.Seq
		}
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
			// However long the producers keep the word from this goroutine,
			// the shard stamps its heartbeat per burst, so it never reads
			// wedged: the submit waits rather than fails.
			if err := ls.SubmitBatch(hOther, other); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		go func(src uint16) {
			one := make([]packet.Packet, 1)
			for seq := int64(1); seq <= bursts; seq++ {
				one[0] = packet.Packet{Key: packet.FlowKey{SrcPort: src}, Size: units.MSS, Seq: seq}
				if err := e.SubmitBatch(h, one); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(uint16(p))
	}
	for p := 0; p < producers; p++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stop.Store(true)
	<-holder
	if err := e.Flush("ordered", func(enforcer.Enforcer) {}); err != nil {
		t.Fatal(err)
	}
	if reordered != 0 {
		t.Errorf("%d of %d bursts were served behind a later one of the same producer", reordered, producers*bursts)
	}
	if emitted != producers*bursts || e.Overloaded.Load() != 0 {
		t.Errorf("emitted %d of %d bursts (%d packets refused)", emitted, producers*bursts, e.Overloaded.Load())
	}
	for p, l := range last {
		if l != bursts {
			t.Errorf("producer %d's last emitted burst is %d, want %d", p, l, bursts)
		}
	}
}

// TestClaimedPathAllocatesNothing: a SubmitBatch, with observation and an
// audit armed, allocates nothing, and a control call allocates nothing of
// its own — no channel, no timer.
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
}

// TestCallFromEmitHookRefused: a Flush and a SubmitBatch to the same shard
// from inside an emit hook wait for the occupancy word the hook's own caller
// holds. Neither can ever get it, so each is refused with ErrSaturated once
// the shard reads wedged — the Flush after a real wedgeTimeout, the
// SubmitBatch at once, the heartbeat being as old by then — and the outer
// burst completes: no deadlock, the Flush fn never runs, and the nested
// burst is counted in Overloaded.
func TestCallFromEmitHookRefused(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	var order []int64
	var h Handle
	var flushErr, submitErr error
	ran := false
	nested := []packet.Packet{{Size: units.MSS, Seq: 3}, {Size: units.MSS, Seq: 4}}
	h, err := e.Add("x", &countingEnforcer{}, func(p packet.Packet) {
		order = append(order, p.Seq)
		switch p.Seq {
		case 1:
			flushErr = e.Flush("x", func(enforcer.Enforcer) { ran = true })
		case 2:
			submitErr = e.SubmitBatch(h, nested)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := e.SubmitBatch(h, []packet.Packet{{Size: units.MSS, Seq: 1}, {Size: units.MSS, Seq: 2}}); err != nil {
		t.Fatalf("outer burst: %v", err)
	}
	if d := time.Since(start); d < wedgeTimeout || d > wedgeTimeout+5*time.Second {
		t.Errorf("outer burst took %v, want a little over wedgeTimeout (%v)", d, wedgeTimeout)
	}
	if !errors.Is(flushErr, ErrSaturated) || ran {
		t.Errorf("Flush from the emit hook = %v (fn ran: %v), want ErrSaturated and no run", flushErr, ran)
	}
	if !errors.Is(submitErr, ErrSaturated) {
		t.Errorf("SubmitBatch from the emit hook = %v, want ErrSaturated", submitErr)
	}
	if want := []int64{1, 2}; !slices.Equal(order, want) {
		t.Errorf("emit order %v, want %v: the outer burst alone", order, want)
	}
	if got := e.Overloaded.Load(); got != int64(len(nested)) {
		t.Errorf("Overloaded = %d, want the nested burst's %d packets", got, len(nested))
	}
	if got := e.InlineFallbacks.Load(); got != 1 {
		t.Errorf("InlineFallbacks = %d, want 1", got)
	}
	if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil {
		t.Errorf("Flush after the outer burst: %v", err)
	}
}

// TestCloseCountsHeldShard: a shard whose submitter is wedged in a hook
// still holds its occupancy word at Close's deadline, so Close reports the
// shard abandoned, for either kind of submitter.
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
