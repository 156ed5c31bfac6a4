package mbox

// Chaos tests: seeded fault injection against the fault-tolerant runtime.
// These run under -race in CI (the chaos job adds -count=3) and assert the
// runtime's core invariants:
//
//   - a panicking enforcer never takes its shard down — healthy
//     aggregates on the same shard keep enforcing within Theorem 1 bounds,
//   - the control plane keeps answering Stats with bounded latency,
//   - Close returns within its deadline even with wedged shards, and
//   - panic/quarantine/degraded-drop counters reconcile exactly with the
//     faults the injectors report having injected.

import (
	"errors"
	"fmt"
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
// shard idle ("claimed") or waited for its word behind a held shard
// ("queued").
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
					select {
					case err := <-errc:
						t.Fatalf("%s: control call returned %v while the shard was held", c.id, err)
					case <-time.After(10 * time.Millisecond):
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
// is polled. Invariants: no shard is lost, healthy enforcement
// stays within the Theorem 1 upper bound (accepted ≤ r·Δt + B), Stats
// latency stays bounded, Close is clean and in-deadline, and fault counters
// reconcile exactly with the injectors' ground truth.
func TestChaosStorm(t *testing.T) {
	clock := &fakeClock{step: 20 * time.Microsecond}
	e := New(Config{
		Shards:       4,
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
	// storm, with latency recorded. ε covers the wait for the word of a
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
	// aggregate on every shard proves no shard was lost. (The producers
	// have returned, so every submitted burst has been served and the
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

	// Packet conservation (a stall is 200 µs, far short of a wedge, so
	// nothing is refused): every submitted packet was either enforced or
	// counted as degraded.
	if shed := e.Overloaded.Load(); shed != 0 {
		t.Logf("storm refused %d packets at a shard read wedged; skipping exact conservation", shed)
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
// reporting the abandoned shard — where the PR 1 engine deadlocked in
// e.wg.Wait() — while a control call waiting for the wedged shard's word is
// refused, never leaked, and calls after Close fail fast.
func TestChaosCloseDeadlineForceAbandonsWedgedShard(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	const closeTimeout = 300 * time.Millisecond
	e := New(Config{Shards: 1, CloseTimeout: closeTimeout})
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) {
		<-gate // wedged until the test ends
	})
	if err != nil {
		t.Fatal(err)
	}
	wedgeShard(t, e, 0, func() { e.SubmitBatch(h, burstOf(1, 0)) })

	// A control call waiting for the wedged shard's word must come back
	// with an error, not leak.
	ctrlErr := make(chan error, 1)
	go func() { ctrlErr <- e.Flush("x", func(enforcer.Enforcer) {}) }()

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
	select {
	case err := <-ctrlErr:
		// ErrSaturated once it waited for the word, engine closed if Close
		// published first.
		if err == nil {
			t.Error("control op on a wedged shard reported success across Close")
		}
	case <-time.After(wedgeTimeout + 5*time.Second):
		t.Error("control op still waiting on the wedged shard — the PR 1 deadlock")
	}
	if err := e.SubmitBatch(h, burstOf(1, 1)); err == nil {
		t.Error("SubmitBatch after Close succeeded")
	}
	// Idempotent: a second Close returns the same report instantly.
	if rep2 := e.Close(); rep2 != rep {
		t.Errorf("second Close report %+v != first %+v", rep2, rep)
	}
}

// TestChaosWatchdogClassifiesWedgedShard drives an Engine.SubmitBatch caller
// into a blocked emit and moves its shard Healthy → Wedged → Healthy, by
// classifying it at chosen heartbeat ages and, for Health, by backdating
// the heartbeat of the blocked shard — nothing here waits out the 1s wedge
// timeout. TestWatchdogSeesWedgedInlineBurst is the same for a
// LocalSubmitter.
func TestChaosWatchdogClassifiesWedgedShard(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	e := New(Config{
		Shards:       1,
		CloseTimeout: 500 * time.Millisecond,
	})
	defer e.Close()
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) { <-gate })
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

	wedgeShard(t, e, 0, func() { e.SubmitBatch(h, burstOf(1, 0)) })
	if got := stateAt(wedgeTimeout / 2); got != ShardHealthy {
		t.Errorf("shard blocked for half the wedge timeout: %v, want healthy", got)
	}
	if got := stateAt(wedgeTimeout + 1); got != ShardWedged {
		t.Fatalf("shard blocked past the wedge timeout: %v, want wedged", got)
	}
	// The holder stamps the heartbeat only around the burst it is blocked
	// in, so the backdated stamp holds until the gate opens.
	s.heartbeat.Add(-int64(wedgeTimeout + time.Millisecond))
	if !e.Health().Wedged() {
		t.Error("Health.Wedged() false while a shard is wedged")
	}
	openGate()
	awaitIdle(t, e, 0)
	if got := stateAt(10 * wedgeTimeout); got != ShardHealthy {
		t.Fatalf("released shard with a stale heartbeat is %v, want healthy", got)
	}
	if e.Health().Wedged() {
		t.Error("Health.Wedged() true after the shard recovered")
	}
}

// TestControlEscalationDeterministic pins, step by step, what a control call
// does when its shard stalls — an Engine.SubmitBatch caller stuck in an emit
// hook, holding the word. (1) A stall of 50 ms is no wedge yet (the
// heartbeat is under wedgeTimeout old; a holder kept off the CPU looks the
// same), so the call keeps waiting. (2) Once the stall reads older than
// wedgeTimeout — the heartbeat is backdated, as the watchdog tests pick
// clock readings, rather than waited out — the call reports ErrSaturated
// within its next round of waiting. (3) Its fn never runs, not even once the
// shard unwedges, so nothing it would have read or changed lands out of
// order. TestControlFailsOverOnSaturatedShard is (2) and (3) for many calls
// behind a LocalSubmitter, and TestLocalSubmitSaturatedOnWedgedShard is (1)
// and (2) for a burst.
func TestControlEscalationDeterministic(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	e := New(Config{Shards: 1})
	defer e.Close()
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), func(packet.Packet) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	wedgeShard(t, e, 0, func() { e.SubmitBatch(h, burstOf(1, 0)) })

	var ran atomic.Bool
	refused := make(chan error, 1)
	go func() { refused <- e.Flush("x", func(enforcer.Enforcer) { ran.Store(true) }) }()
	select {
	case err := <-refused:
		t.Fatalf("Flush gave up on a shard stalled for less than wedgeTimeout: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	e.shards[0].heartbeat.Add(-int64(wedgeTimeout))
	select {
	case err := <-refused:
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("Flush on a wedged shard = %v, want ErrSaturated", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Flush on a wedged shard still waiting 1s after it read wedged")
	}

	// Unwedge.
	openGate()
	awaitIdle(t, e, 0)
	st, err := e.Stats("x")
	if err != nil {
		t.Fatalf("Stats after unwedge: %v", err)
	}
	if p, _ := st.Totals(); p != 1 {
		t.Errorf("enforcer saw %d packets after unwedge, want 1", p)
	}
	if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil {
		t.Fatalf("Flush after unwedge: %v", err)
	}
	if ran.Load() {
		t.Error("the refused Flush's fn ran after the shard unwedged")
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

// TestOverloadedAccountingExact wedges the shard in one burst's emit hook,
// ages the wedge past wedgeTimeout, and offers 49 more one-packet bursts:
// each is refused and counted, so the books balance exactly — refused +
// delivered to the enforcer == submitted.
func TestOverloadedAccountingExact(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	e := New(Config{Shards: 1, CloseTimeout: 5 * time.Second})
	enf := &countingEnforcer{}
	h, err := e.Add("x", enf, func(packet.Packet) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	const submitted = 50
	wedgeShard(t, e, 0, func() { e.SubmitBatch(h, burstOf(1, 0)) })
	e.shards[0].heartbeat.Add(-int64(wedgeTimeout))
	for i := 1; i < submitted; i++ {
		if err := e.SubmitBatch(h, burstOf(1, i)); !errors.Is(err, ErrSaturated) {
			t.Fatalf("burst %d at a wedged shard = %v, want ErrSaturated", i, err)
		}
	}
	shed := e.Overloaded.Load()
	if shed != submitted-1 {
		t.Errorf("Overloaded = %d, want %d (all but the burst in flight)", shed, submitted-1)
	}
	if got := e.InlineFallbacks.Load(); got != submitted-1 {
		t.Errorf("InlineFallbacks = %d, want %d refused bursts", got, submitted-1)
	}
	// Unwedge; Close waits for the held burst.
	openGate()
	rep := e.Close()
	if !rep.Clean {
		t.Errorf("Close not clean after unwedge: %+v", rep)
	}
	delivered := enf.n.Load()
	if delivered+shed != submitted {
		t.Errorf("delivered %d + refused %d = %d, want exactly %d submitted",
			delivered, shed, delivered+shed, submitted)
	}
	// Health attribution matches the global counter.
	if got := e.Health().Shards[0].Shed; got != shed {
		t.Errorf("shard shed counter %d != engine Overloaded %d", got, shed)
	}
}
