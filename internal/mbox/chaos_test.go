package mbox

// Chaos tests: seeded fault injection against the fault-tolerant runtime.
// These run under -race in CI (the chaos job adds -count=3) and assert the
// runtime's core invariants:
//
//   - a panicking enforcer never kills its shard goroutine — healthy
//     aggregates on the same shard keep enforcing within Theorem 1 bounds,
//   - the control plane keeps answering Stats with bounded latency,
//   - Close returns within its deadline even with wedged shards, and
//   - panic/quarantine/degraded-drop counters reconcile exactly with the
//     faults the injectors report having injected.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/faultinject"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// burstOf builds an n-packet burst for one flow.
func burstOf(n, flow int) []packet.Packet {
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		pkts[i] = pkt(flow + i)
	}
	return pkts
}

// statsBombEnforcer transmits everything and panics when its statistics
// are read or its rate is changed.
type statsBombEnforcer struct{ countingEnforcer }

func (*statsBombEnforcer) EnforcerStats() enforcer.Stats { panic("stats: injected fault") }

func (*statsBombEnforcer) SetRate(time.Duration, units.Rate) error { panic("update: injected fault") }

// TestControlPanicReportsError: a control call whose closure panics reports
// an error naming its aggregate, never success, whether the caller found the
// shard idle and ran the closure itself or queued it behind a held shard.
// Stats and Remove read a panicking EnforcerStats; SetRate's closure calls a
// panicking SetRate (ApplyShare runs through the same path).
func TestControlPanicReportsError(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(map[bool]string{false: "claimed", true: "queued"}[queued], func(t *testing.T) {
			e := New(Config{Shards: 1})
			defer e.Close()
			for _, id := range []string{"hold", "stats", "update", "remove"} {
				if _, err := e.Add(id, &statsBombEnforcer{}, nil); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range []struct {
				id   string
				call func() error
			}{
				{"stats", func() error { _, err := e.Stats("stats"); return err }},
				{"update", func() error { return e.SetRate("update", units.Mbps) }},
				{"remove", func() error { _, err := e.Remove("remove"); return err }},
			} {
				errc := make(chan error, 1)
				if queued {
					release := holdShard(t, e, "hold")
					go func() { errc <- c.call() }()
					if !waitFor(10*time.Second, func() bool { return e.shards[0].pending.Load() == 1 }) {
						t.Fatalf("%s: control call never queued", c.id)
					}
					release()
				} else {
					errc <- c.call()
				}
				err := <-errc
				if !errors.Is(err, errControlPanicked) || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.id)) {
					t.Errorf("%s: a panicking control call returned %v, want an error naming it", c.id, err)
				}
			}
			if got := e.Panics.Load(); got != 3 {
				t.Errorf("engine recovered %d panics, want 3", got)
			}
			if _, err := e.Lookup("remove"); err == nil {
				t.Error("Remove whose stats read panicked left the aggregate registered")
			}
		})
	}
}

// TestChaosStorm is the storm test the acceptance criteria name: ≥100
// seeded panics/stalls (plus corruption and clock skew) injected across
// every shard while healthy aggregates carry traffic and the control plane
// is polled. Invariants: no shard goroutine is lost, healthy enforcement
// stays within the Theorem 1 upper bound (accepted ≤ r·Δt + B), Stats
// latency stays bounded, Close is clean and in-deadline, and fault counters
// reconcile exactly with the injectors' ground truth.
func TestChaosStorm(t *testing.T) {
	clock := &fakeClock{step: 20 * time.Microsecond}
	e := New(Config{
		Shards:       4,
		QueueDepth:   1 << 14, // deep enough that nothing sheds: conservation stays exact
		CloseTimeout: 10 * time.Second,
		Clock:        clock.now,
	})
	closed := false
	defer func() {
		if !closed {
			e.Close()
		}
	}()

	const (
		faulty   = 16
		healthy  = 16
		bursts   = 400
		burstLen = 8
		rate     = 8 * units.Mbps
		bucket   = int64(100 * units.MSS)
	)
	injectors := make([]*faultinject.Injector, faulty)
	faultyHandles := make([]Handle, faulty)
	for i := 0; i < faulty; i++ {
		plan := faultinject.Plan{Seed: uint64(100 + i)}
		switch i % 4 {
		case 0:
			plan.Panic = 0.05
		case 1:
			plan.Stall, plan.StallFor = 0.4, 200*time.Microsecond
		case 2:
			plan.Corrupt = 0.1
		case 3:
			plan.Skew, plan.SkewBy = 0.1, 5*time.Millisecond
			plan.Stall, plan.StallFor = 0.2, 200*time.Microsecond
		}
		injectors[i] = faultinject.New(tbf.MustNew(rate, bucket), plan)
		h, err := e.Add(fmt.Sprintf("faulty-%d", i), injectors[i], func(packet.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		faultyHandles[i] = h
	}
	healthyHandles := make([]Handle, healthy)
	var healthyEmitted [healthy]atomic.Int64
	for i := 0; i < healthy; i++ {
		i := i
		h, err := e.Add(fmt.Sprintf("healthy-%d", i), tbf.MustNew(rate, bucket),
			func(p packet.Packet) { healthyEmitted[i].Add(int64(p.Size)) })
		if err != nil {
			t.Fatal(err)
		}
		healthyHandles[i] = h
	}

	// Producers: one goroutine per aggregate, bursts through SubmitBatch.
	var wg sync.WaitGroup
	for i := 0; i < faulty; i++ {
		wg.Add(1)
		go func(h Handle, flow int) {
			defer wg.Done()
			for b := 0; b < bursts; b++ {
				if err := e.SubmitBatch(h, burstOf(burstLen, flow)); err != nil {
					t.Error(err)
					return
				}
			}
		}(faultyHandles[i], i)
	}
	for i := 0; i < healthy; i++ {
		wg.Add(1)
		go func(h Handle, flow int) {
			defer wg.Done()
			for b := 0; b < bursts; b++ {
				if err := e.SubmitBatch(h, burstOf(burstLen, flow)); err != nil {
					t.Error(err)
					return
				}
			}
		}(healthyHandles[i], i)
	}

	// Control-plane poller: Stats on healthy aggregates throughout the
	// storm, with latency recorded. ε covers the ring-drain time of a
	// stalled-but-live shard plus -race/CI scheduling noise; the point is
	// that Stats stays bounded and never approaches a hang.
	pollStop := make(chan struct{})
	var pollWG sync.WaitGroup
	var worstStats atomic.Int64
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for i := 0; ; i++ {
			select {
			case <-pollStop:
				return
			default:
			}
			start := time.Now()
			_, err := e.Stats(fmt.Sprintf("healthy-%d", i%healthy))
			lat := time.Since(start)
			if cur := worstStats.Load(); int64(lat) > cur {
				worstStats.Store(int64(lat))
			}
			if err != nil && !errors.Is(err, ErrSaturated) {
				t.Errorf("Stats during storm: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(pollStop)
	pollWG.Wait()

	// Barrier every aggregate, then reconcile. Stats succeeding for an
	// aggregate on every shard proves no shard goroutine was lost. (The
	// barrier also means every submitted burst has been processed, so the
	// injector fault counters are final.)
	finalStats := make(map[string]enforcer.Stats)
	for i := 0; i < faulty; i++ {
		id := fmt.Sprintf("faulty-%d", i)
		st, err := e.Stats(id)
		if err != nil {
			t.Fatalf("Stats(%s) after storm: %v", id, err)
		}
		finalStats[id] = st
	}
	for i := 0; i < healthy; i++ {
		id := fmt.Sprintf("healthy-%d", i)
		st, err := e.Stats(id)
		if err != nil {
			t.Fatalf("Stats(%s) after storm: %v", id, err)
		}
		finalStats[id] = st
	}
	health := e.Health()
	for _, sh := range health.Shards {
		if sh.Processed == 0 {
			t.Errorf("shard %d processed nothing", sh.Shard)
		}
	}

	// Ground truth: enough faults actually fired.
	var injPanics, injStalls, injCorrupt, injSkews int64
	for _, inj := range injectors {
		injPanics += inj.Panics.Load()
		injStalls += inj.Stalls.Load()
		injCorrupt += inj.Corruptions.Load()
		injSkews += inj.Skews.Load()
	}
	if injPanics+injStalls < 100 {
		t.Errorf("storm injected only %d panics+stalls, want ≥100 (panics=%d stalls=%d)",
			injPanics+injStalls, injPanics, injStalls)
	}
	if injCorrupt == 0 || injSkews == 0 {
		t.Errorf("storm injected no corruption (%d) or no skew (%d)", injCorrupt, injSkews)
	}

	// Exact reconciliation against injector ground truth.
	if got := e.Panics.Load(); got != injPanics {
		t.Errorf("engine recovered %d panics, injectors injected %d", got, injPanics)
	}
	if got := e.BadVerdicts.Load(); got != injCorrupt {
		t.Errorf("engine counted %d bad verdicts, injectors corrupted %d", got, injCorrupt)
	}
	for i, inj := range injectors {
		id := fmt.Sprintf("faulty-%d", i)
		fr, err := faults(e, id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Panics != inj.Panics.Load() {
			t.Errorf("%s: engine attributed %d panics, injector injected %d",
				id, fr.Panics, inj.Panics.Load())
		}
		// The breaker trips on the first panic.
		if wantQuarantined := inj.Panics.Load() >= 1; fr.Quarantined != wantQuarantined {
			t.Errorf("%s: quarantined=%v with %d panics", id, fr.Quarantined, fr.Panics)
		}
	}

	// Packet conservation (the queue is deep enough that nothing sheds):
	// every submitted packet was either enforced or counted as degraded.
	if shed := e.Overloaded.Load(); shed != 0 {
		t.Logf("storm shed %d packets; skipping exact conservation", shed)
	} else {
		for i := 0; i < faulty; i++ {
			id := fmt.Sprintf("faulty-%d", i)
			fr, _ := faults(e, id)
			st := finalStats[id]
			p, _ := st.Totals()
			total := p + fr.DegradedDrops
			if total != bursts*burstLen {
				t.Errorf("%s: enforced %d + degraded %d = %d, want %d submitted",
					id, p, fr.DegradedDrops, total, bursts*burstLen)
			}
		}
		for i := 0; i < healthy; i++ {
			id := fmt.Sprintf("healthy-%d", i)
			st := finalStats[id]
			p, _ := st.Totals()
			if p != bursts*burstLen {
				t.Errorf("%s: enforcer saw %d packets, want %d", id, p, bursts*burstLen)
			}
		}
	}

	// Theorem 1 upper bound for every healthy aggregate: accepted bytes
	// over the run never exceed r·Δt + B (Δt = final virtual time; the
	// aggregate was active from t≈0, so the window is the whole run).
	finalT := time.Duration(clock.ticks.Load()) * clock.step
	bound := int64(rate.Bytes(finalT)) + bucket + int64(units.MSS)
	for i := 0; i < healthy; i++ {
		id := fmt.Sprintf("healthy-%d", i)
		acc := finalStats[id].AcceptedBytes
		if acc > bound {
			t.Errorf("%s: accepted %d bytes > Theorem 1 bound r·Δt+B = %d", id, acc, bound)
		}
		if acc == 0 {
			t.Errorf("%s: accepted nothing — enforcement wedged by the storm", id)
		}
		if healthyEmitted[i].Load() != acc {
			t.Errorf("%s: emitted %d bytes but enforcer accepted %d",
				id, healthyEmitted[i].Load(), acc)
		}
	}

	// Stats latency stayed bounded throughout: a control call gives up only
	// on a wedged shard, so no call waits much past wedgeTimeout + ε.
	const statsEpsilon = time.Second
	if worst := time.Duration(worstStats.Load()); worst > wedgeTimeout+statsEpsilon {
		t.Errorf("worst Stats latency %v exceeds wedgeTimeout(%v)+ε(%v)",
			worst, wedgeTimeout, statsEpsilon)
	}

	// Close drains cleanly and within its deadline.
	start := time.Now()
	rep := e.Close()
	closed = true
	if elapsed := time.Since(start); elapsed > 10*time.Second+2*time.Second {
		t.Errorf("Close took %v, deadline 10s", elapsed)
	}
	if !rep.Clean || rep.AbandonedShards != 0 {
		t.Errorf("storm Close not clean: %+v", rep)
	}
}

// TestChaosCloseDeadlineForceAbandonsWedgedShard wedges a shard forever in
// its emit hook and proves Close still returns within its deadline,
// reporting the abandoned shard and the packets it shed — where the PR 1
// engine deadlocked in e.wg.Wait().
func TestChaosCloseDeadlineForceAbandonsWedgedShard(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	const closeTimeout = 300 * time.Millisecond
	e := New(Config{Shards: 1, QueueDepth: 4, CloseTimeout: closeTimeout})
	started := make(chan struct{}, 1)
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate // wedged until the test ends
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the shard goroutine on the first packet, then fill all but one
	// ring slot behind it.
	release := holdShard(t, e, "x")
	if err := e.SubmitBatch(h, burstOf(1, 0)); err != nil {
		t.Fatal(err)
	}
	release()
	<-started
	for i := 0; i < 3; i++ {
		if err := e.SubmitBatch(h, burstOf(2, i)); err != nil {
			t.Fatal(err)
		}
	}

	// A control op parked in the last slot of the wedged shard's ring must
	// be released by Close with an error, not leaked.
	ctrlErr := make(chan error, 1)
	go func() { ctrlErr <- e.Flush("x", func(enforcer.Enforcer) {}) }()
	ring := e.shards[0].in
	for deadline := time.Now().Add(10 * time.Second); len(ring) < cap(ring); {
		if time.Now().After(deadline) {
			t.Fatal("the Flush never took the last ring slot")
		}
		runtime.Gosched()
	}

	start := time.Now()
	rep := e.Close()
	elapsed := time.Since(start)
	if elapsed > closeTimeout+2*time.Second {
		t.Errorf("Close took %v with a wedged shard, deadline %v", elapsed, closeTimeout)
	}
	if rep.Clean {
		t.Error("Close reported clean with a permanently wedged shard")
	}
	if rep.AbandonedShards != 1 {
		t.Errorf("AbandonedShards = %d, want 1", rep.AbandonedShards)
	}
	if rep.ShedPackets == 0 {
		t.Error("Close shed nothing despite a full ring on a wedged shard")
	}
	select {
	case err := <-ctrlErr:
		if err == nil {
			t.Error("control op on a wedged shard reported success across Close")
		}
	case <-time.After(5 * time.Second):
		t.Error("control op still parked after Close — the PR 1 deadlock")
	}
	// Idempotent: a second Close returns the same report instantly.
	if rep2 := e.Close(); rep2 != rep {
		t.Errorf("second Close report %+v != first %+v", rep2, rep)
	}
}

// TestChaosWatchdogClassifiesWedgedShard drives the shard goroutine into a
// blocked emit and moves it Healthy → Wedged → Healthy, by classifying it at
// chosen heartbeat ages and, for Health, by backdating the heartbeat of the
// blocked shard — nothing here waits out the 1s wedge timeout.
// TestWatchdogSeesWedgedInlineBurst is the same for a burst its submitter
// serves.
func TestChaosWatchdogClassifiesWedgedShard(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	e := New(Config{
		Shards: 1, QueueDepth: 8,
		CloseTimeout: 500 * time.Millisecond,
	})
	defer e.Close()
	started := make(chan struct{}, 1)
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
	})
	if err != nil {
		t.Fatal(err)
	}
	s := e.shards[0]
	stateAt := func(age time.Duration) ShardState {
		return classify(s, s.heartbeat.Load()+int64(age))
	}
	if got := stateAt(10 * wedgeTimeout); got != ShardHealthy {
		t.Fatalf("idle shard with a stale heartbeat is %v, want healthy", got)
	}

	// Queue the burst behind a held shard, so the shard goroutine, not its
	// submitter, is the one that blocks in the emit hook.
	release := holdShard(t, e, "x")
	if err := e.SubmitBatch(h, burstOf(1, 0)); err != nil {
		t.Fatal(err)
	}
	release()
	<-started
	if got := stateAt(wedgeTimeout / 2); got != ShardHealthy {
		t.Errorf("shard blocked for half the wedge timeout: %v, want healthy", got)
	}
	if got := stateAt(wedgeTimeout + 1); got != ShardWedged {
		t.Fatalf("shard blocked past the wedge timeout: %v, want wedged", got)
	}
	// The shard stamps its heartbeat only around the item it is blocked in,
	// so the backdated stamp holds until the gate opens.
	s.heartbeat.Add(-int64(wedgeTimeout + time.Millisecond))
	if !e.Health().Wedged() {
		t.Error("Health.Wedged() false while a shard is wedged")
	}
	openGate()
	if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil { // the blocked burst has finished
		t.Fatal(err)
	}
	if got := stateAt(10 * wedgeTimeout); got != ShardHealthy {
		t.Fatalf("released shard with a stale heartbeat is %v, want healthy", got)
	}
	if e.Health().Wedged() {
		t.Error("Health.Wedged() true after the shard recovered")
	}
}

// TestControlEscalationDeterministic pins, step by step, what a control call
// does when its shard stalls — the shard goroutine stuck in an emit hook,
// the one-slot ring full behind it. (1) A stall of five reofferIntervals is
// no wedge yet (the heartbeat is under wedgeTimeout old; a shard goroutine
// kept off the CPU looks the same), so the call keeps waiting. (2) Once the
// stall reads older than wedgeTimeout — the heartbeat is backdated, as the
// watchdog tests pick clock readings, rather than waited out — the call
// reports ErrSaturated at its next re-offer. (3) Its fn never runs, not even
// once the shard unwedges, so nothing it would have read or changed lands out
// of order. TestControlFailsOverOnSaturatedShard is (2) and (3) with a
// submitter wedged instead, TestLocalSubmitSaturatedOnWedgedShard is (1) and
// (2) for an inline submitter, and TestControlThroughFloodedRing is the other
// half: a live shard, however flooded, takes every call.
func TestControlEscalationDeterministic(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	e := New(Config{Shards: 1, QueueDepth: 1})
	defer e.Close()
	started := make(chan struct{}, 1)
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the shard goroutine on packet 1, fill the one-slot ring with
	// packet 2.
	release := holdShard(t, e, "x")
	if err := e.SubmitBatch(h, burstOf(1, 0)); err != nil {
		t.Fatal(err)
	}
	release()
	<-started
	if err := e.SubmitBatch(h, burstOf(1, 1)); err != nil {
		t.Fatal(err)
	}

	var ran atomic.Bool
	refused := make(chan error, 1)
	go func() { refused <- e.Flush("x", func(enforcer.Enforcer) { ran.Store(true) }) }()
	select {
	case err := <-refused:
		t.Fatalf("Flush gave up on a shard stalled for less than wedgeTimeout: %v", err)
	case <-time.After(5 * reofferInterval):
	}

	e.shards[0].heartbeat.Add(-int64(wedgeTimeout))
	select {
	case err := <-refused:
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("Flush on a wedged shard = %v, want ErrSaturated", err)
		}
	case <-time.After(reofferInterval + time.Second):
		t.Fatal("Flush on a wedged shard still parked after reofferInterval + 1s")
	}

	// Unwedge. Stats rides behind whatever the ring still holds.
	openGate()
	st, err := e.Stats("x")
	if err != nil {
		t.Fatalf("Stats after unwedge: %v", err)
	}
	if p, _ := st.Totals(); p != 2 {
		t.Errorf("enforcer saw %d packets after unwedge, want 2", p)
	}
	if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil {
		t.Fatalf("Flush after unwedge: %v", err)
	}
	if ran.Load() {
		t.Error("the refused Flush's fn ran after the shard unwedged")
	}
}

// TestControlThroughFloodedRing is why a shard needs no second queue for
// control: a control call that finds the shard's two-slot ring full parks on
// it and is handed the next slot the shard frees, ahead of producers, which
// shed rather than wait. The flood is scripted, not spun: the shard goroutine
// is held inside gated emit hooks, so the ring holds exactly what the test
// put there, and one slot frees when the test opens one gate. The call waits
// on a ring that is full when it arrives and when a producer arrives, with
// the producer arriving before the call or after it; every call succeeds and
// every Flush fn runs once. A shard that wedges while a call waits refuses it
// with ErrSaturated, and its fn never runs. Either way the books balance:
// offered = enforced + Overloaded.
func TestControlThroughFloodedRing(t *testing.T) {
	for _, order := range []string{"control-first", "producer-first", "wedged"} {
		t.Run(order, func(t *testing.T) { floodedRingControl(t, order) })
	}
}

// floodedRingControl runs one arrival order of TestControlThroughFloodedRing.
func floodedRingControl(t *testing.T, order string) {
	e := New(Config{Shards: 1, QueueDepth: 2})
	defer e.Close()
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Burst k of aggregate "gate" is one packet with Seq k, whose emit hook
	// reports it on entered and then holds the shard goroutine until gate k
	// opens.
	entered := make(chan int64, 2)
	gates := map[int64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	defer func() {
		for _, g := range gates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
	}()
	hGate, err := e.Add("gate", &countingEnforcer{}, func(p packet.Packet) {
		entered <- p.Seq
		<-gates[p.Seq]
	})
	if err != nil {
		t.Fatal(err)
	}
	gateBurst := func(k int64) {
		t.Helper()
		if err := e.SubmitBatch(hGate, []packet.Packet{{Size: units.MSS, Seq: k}}); err != nil {
			t.Fatal(err)
		}
	}
	const patience = 10 * time.Second // a failure guard; no step waits on a clock
	awaitEntered := func(k int64) {
		t.Helper()
		select {
		case got := <-entered:
			if got != k {
				t.Fatalf("gate burst %d entered its hook, want %d", got, k)
			}
		case <-time.After(patience):
			t.Fatalf("gate burst %d never reached its hook", k)
		}
	}
	var offered int64
	produce := func(wantShed bool) {
		t.Helper()
		before := e.Overloaded.Load()
		b := burstOf(8, int(offered))
		if err := e.SubmitBatch(h, b); err != nil {
			t.Fatal(err)
		}
		offered += int64(len(b))
		want := int64(0)
		if wantShed {
			want = int64(len(b))
		}
		if shed := e.Overloaded.Load() - before; shed != want {
			t.Fatalf("a producer's burst of %d shed %d packets, want %d", len(b), shed, want)
		}
	}
	ring := e.shards[0].in

	// Hold the shard goroutine in gate burst 1's hook, then fill the ring:
	// gate burst 2, then a producer's burst.
	release := holdShard(t, e, "x")
	gateBurst(1)
	release()
	awaitEntered(1)
	gateBurst(2)
	produce(false)
	if len(ring) != cap(ring) {
		t.Fatalf("ring holds %d of %d items", len(ring), cap(ring))
	}

	flushed := 0
	result := make(chan error, 1)
	call := func() {
		go func() { result <- e.Flush("x", func(enforcer.Enforcer) { flushed++ }) }()
		waitParked(t, 1)
	}
	if order == "producer-first" {
		produce(true)
		call()
	} else {
		call()
		produce(true)
	}

	if order == "wedged" {
		e.shards[0].heartbeat.Add(-int64(wedgeTimeout))
		select {
		case err := <-result:
			if !errors.Is(err, ErrSaturated) {
				t.Fatalf("Flush on a shard wedged while it waited = %v, want ErrSaturated", err)
			}
		case <-time.After(patience):
			t.Fatal("Flush on a wedged shard never gave up")
		}
		close(gates[1])
		awaitEntered(2)
		close(gates[2])
	} else {
		// Free one slot: the shard goroutine finishes gate burst 1 and pops
		// gate burst 2, whose hook holds it again. The parked call is handed
		// the slot in the same ring operation, so the ring is full again
		// before any producer can look, and the next producer sheds.
		close(gates[1])
		awaitEntered(2)
		produce(true)
		if len(ring) != cap(ring) {
			t.Fatalf("after one slot freed the ring holds %d of %d items: the control call did not take the slot", len(ring), cap(ring))
		}
		close(gates[2])
		select {
		case err := <-result:
			if err != nil {
				t.Fatalf("control call on a flooded live shard: %v", err)
			}
		case <-time.After(patience):
			t.Fatal("control call on a flooded live shard never returned")
		}
	}

	st, err := e.Stats("x") // behind every queued burst
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	if order == "wedged" {
		want = 0
	}
	if flushed != want {
		t.Errorf("the Flush fn ran %d times, want %d", flushed, want)
	}
	enforced, _ := st.Totals()
	if shed := e.Overloaded.Load(); offered != enforced+shed {
		t.Errorf("offered %d != enforced %d + shed %d", offered, enforced, shed)
	}
}

// waitParked waits until n goroutines are parked in sendUntil: control calls
// waiting on a full ring for a slot, first in line for the next one freed.
// A parked call leaves the ring's queue of senders for a few instructions
// every reofferInterval, to ask whether its shard is wedged; a slot freed in
// that moment goes to whoever offers first (500 runs of each live order on
// two vCPUs saw none).
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "mbox.sendUntil(") {
				parked++
			}
		}
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked on the ring, want %d", parked, n)
		}
		runtime.Gosched()
	}
}

// countingEnforcer counts submissions and transmits everything; the exact
// ground truth for overload accounting.
type countingEnforcer struct{ n atomic.Int64 }

func (c *countingEnforcer) SubmitBatch(_ time.Duration, pkts []packet.Packet, v []enforcer.Verdict) {
	c.n.Add(int64(len(pkts)))
	for i := range pkts {
		v[i] = enforcer.Transmit
	}
}

// TestOverloadedAccountingExact forces shedding with a one-deep ring and a
// stalled consumer and proves the books balance: packets shed + packets
// delivered to the enforcer == packets submitted, exactly.
func TestOverloadedAccountingExact(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	e := New(Config{Shards: 1, QueueDepth: 2, CloseTimeout: 5 * time.Second})
	enf := &countingEnforcer{}
	started := make(chan struct{}, 1)
	h, err := e.Add("x", enf, func(packet.Packet) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
	})
	if err != nil {
		t.Fatal(err)
	}
	const submitted = 50
	// Packet 1 wedges the consumer; once it is in the emit hook the shard
	// dequeues nothing more, so of the remaining 49 exactly QueueDepth=2
	// are queued and 47 shed — deterministically.
	release := holdShard(t, e, "x")
	if err := e.SubmitBatch(h, burstOf(1, 0)); err != nil {
		t.Fatal(err)
	}
	release()
	<-started
	for i := 1; i < submitted; i++ {
		if err := e.SubmitBatch(h, burstOf(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	shed := e.Overloaded.Load()
	if shed != submitted-1-2 {
		t.Errorf("Overloaded = %d, want %d (ring holds 2, one in flight)", shed, submitted-1-2)
	}
	// Unwedge and drain; Close is the barrier.
	openGate()
	rep := e.Close()
	if !rep.Clean {
		t.Errorf("Close not clean after unwedge: %+v", rep)
	}
	delivered := enf.n.Load()
	if delivered+shed != submitted {
		t.Errorf("delivered %d + shed %d = %d, want exactly %d submitted",
			delivered, shed, delivered+shed, submitted)
	}
	// Health attribution matches the global counter.
	if got := e.Health().Shards[0].Shed; got != shed {
		t.Errorf("shard shed counter %d != engine Overloaded %d", got, shed)
	}
}
