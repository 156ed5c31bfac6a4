package mbox

// Chaos tests: seeded fault injection against the fault-tolerant runtime.
// These run under -race in CI (the chaos job adds -count=3) and assert the
// runtime's core invariants:
//
//   - a panicking enforcer never kills its shard goroutine — healthy
//     aggregates on the same shard keep enforcing within Theorem 1 bounds,
//   - the control plane keeps answering Stats with bounded latency,
//   - Close returns within its deadline even with wedged shards, and
//   - panic/quarantine/degrade counters reconcile exactly with the faults
//     the injectors report having injected.

import (
	"errors"
	"fmt"
	"runtime"
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

// TestChaosPanicQuarantineDeterministic is the deterministic core of the
// fault story on a single shard: a victim enforcer that always panics is
// quarantined by the circuit breaker after exactly PanicThreshold panics,
// its traffic degrades FailClosed, a healthy aggregate sharing the shard is
// untouched, and every counter reconciles exactly with the injected faults.
func TestChaosPanicQuarantineDeterministic(t *testing.T) {
	clock := &fakeClock{step: 100 * time.Microsecond}
	e := New(Config{Shards: 1, Clock: clock.now, QueueDepth: 1 << 12, PanicThreshold: 1})
	defer e.Close()

	victim := faultinject.New(tbf.MustNew(8*units.Mbps, 10*units.MSS),
		faultinject.Plan{Seed: 1, Panic: 1})
	var victimEmitted, healthyEmitted atomic.Int64
	hv, err := e.Add("victim", victim, func(packet.Packet) { victimEmitted.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	hh, err := e.Add("healthy", tbf.MustNew(8*units.Mbps, 64*units.MSS),
		func(packet.Packet) { healthyEmitted.Add(1) })
	if err != nil {
		t.Fatal(err)
	}

	const bursts, burstLen = 10, 8
	for i := 0; i < bursts; i++ {
		if err := e.SubmitBatch(hv, burstOf(burstLen, i)); err != nil {
			t.Fatal(err)
		}
		if err := e.SubmitBatch(hh, burstOf(burstLen, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Stats is a barrier: it rides the ordered ring behind every burst.
	st, err := e.Stats("healthy")
	if err != nil {
		t.Fatal(err)
	}

	// The healthy aggregate saw everything and was actually enforced.
	if p, _ := st.Totals(); p != bursts*burstLen {
		t.Errorf("healthy aggregate saw %d packets, want %d", p, bursts*burstLen)
	}
	if healthyEmitted.Load() == 0 {
		t.Error("healthy aggregate emitted nothing next to a panicking neighbour")
	}

	// First victim run panicked (threshold 1 ⇒ quarantine); the enforcer
	// is bypassed afterwards, so exactly one panic was injected and every
	// victim packet degraded to a counted drop.
	if got := victim.Panics.Load(); got != 1 {
		t.Errorf("injector recorded %d panics, want 1 (quarantine must bypass the enforcer)", got)
	}
	if got := e.Panics.Load(); got != victim.Panics.Load() {
		t.Errorf("engine recovered %d panics, injector injected %d", got, victim.Panics.Load())
	}
	if got := e.DegradedDrops.Load(); got != bursts*burstLen {
		t.Errorf("DegradedDrops = %d, want %d (every victim packet)", got, bursts*burstLen)
	}
	if victimEmitted.Load() != 0 {
		t.Errorf("FailClosed victim emitted %d packets, want 0", victimEmitted.Load())
	}
	fr, err := e.Faults("victim")
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Quarantined || fr.Panics != 1 || fr.Mode != FailClosed || fr.DegradedDrops != bursts*burstLen {
		t.Errorf("victim fault record = %+v", fr)
	}
	if f, err := e.Faults("healthy"); err != nil || f.Quarantined {
		t.Errorf("Faults(healthy) = %+v, %v; want not quarantined", f, err)
	}
	health := e.Health()
	if len(health.Quarantined) != 1 || health.Quarantined[0] != "victim" {
		t.Errorf("health.Quarantined = %v, want [victim]", health.Quarantined)
	}
	if health.Shards[0].Panics != 1 {
		t.Errorf("shard recorded %d panics, want 1", health.Shards[0].Panics)
	}
}

// TestChaosReinstateAfterTransientFault exercises the breaker re-arm: an
// enforcer that crashes exactly once (MaxPanics 1) is quarantined, then
// Reinstate restores full enforcement.
func TestChaosReinstateAfterTransientFault(t *testing.T) {
	clock := &fakeClock{step: 100 * time.Microsecond}
	e := New(Config{Shards: 1, Clock: clock.now, QueueDepth: 1 << 12, PanicThreshold: 1})
	defer e.Close()

	flaky := faultinject.New(tbf.MustNew(8*units.Mbps, 64*units.MSS),
		faultinject.Plan{Seed: 9, Panic: 1, MaxPanics: 1})
	h, err := e.Add("flaky", flaky, nil)
	if err != nil {
		t.Fatal(err)
	}
	const burstLen = 8
	if err := e.SubmitBatch(h, burstOf(burstLen, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Stats("flaky"); err != nil { // barrier
		t.Fatal(err)
	}
	if f, _ := e.Faults("flaky"); !f.Quarantined {
		t.Fatal("transient crash did not quarantine")
	}
	// Traffic during quarantine is degraded, not enforced.
	if err := e.SubmitBatch(h, burstOf(burstLen, 1)); err != nil {
		t.Fatal(err)
	}
	st, err := e.Stats("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.Totals(); p != 0 {
		t.Errorf("quarantined enforcer saw %d packets, want 0", p)
	}

	if err := e.Reinstate("flaky"); err != nil {
		t.Fatal(err)
	}
	if f, _ := e.Faults("flaky"); f.Quarantined {
		t.Fatal("still quarantined after Reinstate")
	}
	if err := e.SubmitBatch(h, burstOf(burstLen, 2)); err != nil {
		t.Fatal(err)
	}
	st, err = e.Stats("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.Totals(); p != burstLen {
		t.Errorf("reinstated enforcer saw %d packets, want %d", p, burstLen)
	}
	if got := e.Panics.Load(); got != 1 {
		t.Errorf("engine panics = %d, want 1 (transient fault fired once)", got)
	}
	// Reinstate on a healthy aggregate is idempotent; unknown ids error.
	if err := e.Reinstate("flaky"); err != nil {
		t.Errorf("idempotent Reinstate: %v", err)
	}
	if err := e.Reinstate("nope"); err == nil {
		t.Error("Reinstate of unknown aggregate accepted")
	}
}

// TestChaosFailOpenDegrade verifies the availability-over-enforcement
// degrade mode: a quarantined FailOpen aggregate's packets are forwarded
// unenforced and counted, and SetDegradeMode can flip modes live.
func TestChaosFailOpenDegrade(t *testing.T) {
	clock := &fakeClock{step: 100 * time.Microsecond}
	e := New(Config{Shards: 1, Clock: clock.now, QueueDepth: 1 << 12})
	defer e.Close()

	broken := faultinject.New(tbf.MustNew(units.Mbps, 10*units.MSS),
		faultinject.Plan{Seed: 4, Panic: 1})
	var emitted atomic.Int64
	h, err := e.Add("x", broken, func(packet.Packet) { emitted.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := e.Faults("x"); f.Mode != FailClosed {
		t.Errorf("a new aggregate degrades %v, want fail-closed", f.Mode)
	}
	if err := e.SetDegradeMode("x", FailOpen); err != nil {
		t.Fatal(err)
	}
	const bursts, burstLen = 5, 8
	for i := 0; i < bursts; i++ {
		if err := e.SubmitBatch(h, burstOf(burstLen, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Stats("x"); err != nil { // barrier
		t.Fatal(err)
	}
	if got := emitted.Load(); got != bursts*burstLen {
		t.Errorf("FailOpen forwarded %d packets, want all %d", got, bursts*burstLen)
	}
	if got := e.DegradedPasses.Load(); got != bursts*burstLen {
		t.Errorf("DegradedPasses = %d, want %d", got, bursts*burstLen)
	}
	fr, _ := e.Faults("x")
	if fr.Mode != FailOpen || fr.DegradedPasses != bursts*burstLen {
		t.Errorf("fault record = %+v", fr)
	}

	// Flip to FailClosed live: subsequent traffic drops instead.
	if err := e.SetDegradeMode("x", FailClosed); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch(h, burstOf(burstLen, 99)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Stats("x"); err != nil { // barrier
		t.Fatal(err)
	}
	if got := emitted.Load(); got != bursts*burstLen {
		t.Errorf("FailClosed still forwarded: emitted %d, want %d", got, bursts*burstLen)
	}
	if got := e.DegradedDrops.Load(); got != burstLen {
		t.Errorf("DegradedDrops = %d, want %d", got, burstLen)
	}
	if err := e.SetDegradeMode("x", DegradeMode(7)); err == nil {
		t.Error("invalid degrade mode accepted")
	}
	if err := e.SetDegradeMode("nope", FailOpen); err == nil {
		t.Error("SetDegradeMode on unknown aggregate accepted")
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
	const controlTimeout = 50 * time.Millisecond
	e := New(Config{
		Shards:         4,
		QueueDepth:     1 << 14, // deep enough that nothing sheds: conservation stays exact
		ControlTimeout: controlTimeout,
		CloseTimeout:   10 * time.Second,
		Clock:          clock.now,
		PanicThreshold: 3,
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
		fr, err := e.Faults(id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Panics != inj.Panics.Load() {
			t.Errorf("%s: engine attributed %d panics, injector injected %d",
				id, fr.Panics, inj.Panics.Load())
		}
		wantQuarantined := inj.Panics.Load() >= 3 // PanicThreshold
		if fr.Quarantined != wantQuarantined {
			t.Errorf("%s: quarantined=%v with %d panics (threshold 3)",
				id, fr.Quarantined, fr.Panics)
		}
	}

	// Packet conservation (the queue is deep enough that nothing sheds):
	// every submitted packet was either enforced or counted as degraded.
	if shed := e.Overloaded.Load(); shed != 0 {
		t.Logf("storm shed %d packets; skipping exact conservation", shed)
	} else {
		for i := 0; i < faulty; i++ {
			id := fmt.Sprintf("faulty-%d", i)
			fr, _ := e.Faults(id)
			st := finalStats[id]
			p, _ := st.Totals()
			total := p + fr.DegradedDrops + fr.DegradedPasses
			if total != bursts*burstLen {
				t.Errorf("%s: enforced %d + degraded %d+%d = %d, want %d submitted",
					id, p, fr.DegradedDrops, fr.DegradedPasses, total, bursts*burstLen)
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

	// Stats latency stayed bounded throughout (ControlTimeout + ε).
	const statsEpsilon = time.Second
	if worst := time.Duration(worstStats.Load()); worst > controlTimeout+statsEpsilon {
		t.Errorf("worst Stats latency %v exceeds ControlTimeout(%v)+ε(%v)",
			worst, controlTimeout, statsEpsilon)
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
	e := New(Config{
		Shards: 1, QueueDepth: 4,
		ControlTimeout: 20 * time.Millisecond,
		CloseTimeout:   closeTimeout,
	})
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
// blocked emit and moves it Healthy → Wedged → Healthy the way the watchdog
// does, by classifying it at chosen heartbeat ages — nothing here waits out
// the 1s wedge timeout. TestWatchdogSeesWedgedInlineBurst is the same for a
// burst its submitter serves.
func TestChaosWatchdogClassifiesWedgedShard(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	e := New(Config{
		Shards: 1, QueueDepth: 8,
		WatchdogInterval: time.Hour,
		CloseTimeout:     500 * time.Millisecond,
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
	var panics, shed int64
	classify := func(age time.Duration) ShardState {
		st := e.classify(s, s.heartbeat.Load()+int64(age), &panics, &shed)
		s.state.Store(int32(st))
		return st
	}
	if got := classify(10 * wedgeTimeout); got != ShardHealthy {
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
	if got := classify(wedgeTimeout / 2); got != ShardHealthy {
		t.Errorf("shard blocked for half the wedge timeout: %v, want healthy", got)
	}
	if got := classify(wedgeTimeout + 1); got != ShardWedged {
		t.Fatalf("shard blocked past the wedge timeout: %v, want wedged", got)
	}
	if !e.Health().Wedged() {
		t.Error("Health.Wedged() false while a shard is wedged")
	}
	openGate()
	if err := e.Flush("x", func(enforcer.Enforcer) {}); err != nil { // the blocked burst has finished
		t.Fatal(err)
	}
	if got := classify(10 * wedgeTimeout); got != ShardHealthy {
		t.Fatalf("released shard with a stale heartbeat is %v, want healthy", got)
	}
	if e.Health().Wedged() {
		t.Error("Health.Wedged() true after the shard recovered")
	}
}

// TestControlEscalationDeterministic pins, step by step, what a control call
// does when its shard stalls — the shard goroutine stuck in an emit hook,
// the one-slot ring full behind it. (1) A stall of five ControlTimeouts is no
// wedge yet (the heartbeat is under wedgeTimeout old; a shard goroutine kept
// off the CPU looks the same), so the call keeps waiting. (2) Once the stall
// reads older than wedgeTimeout — the heartbeat is backdated, as the watchdog
// tests pick clock readings, rather than waited out — the call reports
// ErrSaturated within ControlTimeout. (3) Its fn never runs, not even once the
// shard unwedges, so nothing it would have read or changed lands out of
// order. TestControlFailsOverOnSaturatedShard is (2) and (3) with a submitter
// wedged instead; TestControlThroughFloodedRing is the other half: a live
// shard, however flooded, takes every call.
func TestControlEscalationDeterministic(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	const controlTimeout = 20 * time.Millisecond
	e := New(Config{Shards: 1, QueueDepth: 1, ControlTimeout: controlTimeout})
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
	case <-time.After(5 * controlTimeout):
	}

	e.shards[0].heartbeat.Add(-int64(wedgeTimeout))
	select {
	case err := <-refused:
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("Flush on a wedged shard = %v, want ErrSaturated", err)
		}
	case <-time.After(controlTimeout + time.Second):
		t.Fatal("Flush on a wedged shard still parked after ControlTimeout + 1s")
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
// control: two open-loop producers keep a two-slot ring full, and every
// control call still gets a slot — a sender parked on a full channel is
// handed the next slot the shard frees, ahead of producers that shed rather
// than wait. None reports ErrSaturated, every Flush's fn runs exactly once,
// and the books balance: offered = enforced + Overloaded.
//
// The producers never yield and ControlTimeout is the default 10 ms, so on a
// host with fewer cores than busy goroutines the shard goroutine is often
// kept off the CPU for a whole ControlTimeout, mid-item: on two vCPUs most
// calls wait longer than that, and the test takes half a minute. That is not
// a wedge, and controlAgg must keep waiting through it (measured on two
// vCPUs: the old control lane took over 412–481 of the 1,000 calls, and a
// call that gave up after one ControlTimeout was refused within the first
// three).
func TestControlThroughFloodedRing(t *testing.T) {
	e := New(Config{Shards: 1, QueueDepth: 2})
	defer e.Close()
	h, err := e.Add("x", tbf.MustNew(units.Mbps, 1000*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var offered atomic.Int64
	var wg sync.WaitGroup
	halt := func() { stop.Store(true); wg.Wait() }
	defer halt()
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(b []packet.Packet) {
			defer wg.Done()
			for !stop.Load() {
				if err := e.SubmitBatch(h, b); err != nil {
					t.Error(err)
					return
				}
				offered.Add(int64(len(b)))
			}
		}(burstOf(8, 8*p))
	}

	const ops = 1000
	flushed, slow := 0, 0
	ring := e.shards[0].in
	deadline := time.Now().Add(time.Minute)
	for i := 0; i < ops; i++ {
		// Each call is made against a ring that reads full.
		for len(ring) < cap(ring) {
			if time.Now().After(deadline) {
				t.Fatalf("the producers stopped filling the ring after %d control ops", i)
			}
			runtime.Gosched()
		}
		start := time.Now()
		var err error
		if i%2 == 0 {
			err = e.Flush("x", func(enforcer.Enforcer) { flushed++ })
		} else {
			err = e.SetRate("x", units.Rate(1+i%7)*units.Mbps)
		}
		if err != nil {
			t.Fatalf("control op %d on a flooded live shard: %v", i, err)
		}
		if time.Since(start) > e.cfg.ControlTimeout {
			slow++
		}
	}
	halt()
	t.Logf("%d of %d control calls waited longer than ControlTimeout (%v)", slow, ops, e.cfg.ControlTimeout)

	st, err := e.Stats("x") // behind every queued burst
	if err != nil {
		t.Fatal(err)
	}
	if flushed != ops/2 {
		t.Errorf("%d Flush fns ran for %d calls", flushed, ops/2)
	}
	enforced, _ := st.Totals()
	shed := e.Overloaded.Load()
	if got := offered.Load(); got != enforced+shed {
		t.Errorf("offered %d != enforced %d + shed %d", got, enforced, shed)
	}
}

// countingEnforcer counts submissions and transmits everything; the exact
// ground truth for overload accounting.
type countingEnforcer struct{ n atomic.Int64 }

func (c *countingEnforcer) Submit(time.Duration, packet.Packet) enforcer.Verdict {
	c.n.Add(1)
	return enforcer.Transmit
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
