package mbox

// Overload chaos: the four adversarial workload families from
// internal/workload driven against the engine with the overload plane
// enabled, under -race (the chaos job adds -count=3). Each scenario asserts
// the same four invariants the ROADMAP demands:
//
//   1. Theorem-1 admission bounds hold: every aggregate's accepted bytes
//      stay ≤ r·Δt + B (+1 MSS slack), no matter how hostile the offered
//      load — floods that ignore drops, slow-start ramps, mixed-RTT swarms.
//   2. No shard leaves Healthy permanently: shards may degrade while
//      shedding, but once the storm stops every shard reclassifies Healthy.
//   3. Memory stays bounded: the registry never exceeds its cap, the slot
//      high-water mark is capped, and (for the flash-crowd churn) the heap
//      is stable across repeated waves.
//   4. Close stays deadline-bounded.
//
// Every scenario is open-loop — the generators' offered load is exact
// ground truth — so packet conservation is asserted exactly:
// offered == enforcer-seen + ring-full shed + priority shed.
//
// When BCPQP_CHAOS_OUT is set, each scenario appends one JSON line of its
// shed/eviction counters; the CI overload-chaos job uploads that file as an
// artifact.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/rng"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// dumpChaosCounters appends one JSON record of the engine's shed/eviction
// counters to $BCPQP_CHAOS_OUT (no-op when unset). CI uploads the file as
// the overload-chaos job's artifact.
func dumpChaosCounters(t *testing.T, e *Engine, scenario string) {
	t.Helper()
	path := os.Getenv("BCPQP_CHAOS_OUT")
	if path == "" {
		return
	}
	h := e.Health()
	rec := map[string]any{
		"scenario":            scenario,
		"overloaded":          h.Overloaded,
		"priority_shed":       h.Overload.PriorityShed,
		"evicted":             e.Evicted.Load(),
		"admission_evictions": h.Overload.AdmissionEvictions,
		"transitions":         h.Overload.Transitions,
		"pressure":            h.Overload.Pressure,
		"panics":              h.Panics,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Logf("chaos counters: %v", err)
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Logf("chaos counters: %v", err)
		return
	}
	defer f.Close()
	if _, err := f.Write(append(b, '\n')); err != nil {
		t.Logf("chaos counters: %v", err)
	}
}

// drainAndSettle waits for every shard ring to empty and every shard to
// reclassify Healthy — invariant 2. Call after the producers stop and
// before Close (the watchdog dies with Close).
func drainAndSettle(t *testing.T, e *Engine) {
	t.Helper()
	if !waitFor(10*time.Second, func() bool {
		for _, sh := range e.Health().Shards {
			if sh.QueueDepth != 0 || sh.Busy {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("shard rings never drained: %+v", e.Health().Shards)
	}
	if !waitFor(10*time.Second, func() bool {
		for _, sh := range e.Health().Shards {
			if sh.State != ShardHealthy {
				return false
			}
		}
		return true
	}) {
		t.Errorf("shards did not return to Healthy after the storm: %+v", e.Health().Shards)
	}
}

// closeBounded closes the engine and asserts the deadline held —
// invariant 4. Returns the report for scenario-specific checks.
func closeBounded(t *testing.T, e *Engine, timeout time.Duration) CloseReport {
	t.Helper()
	start := time.Now()
	rep := e.Close()
	if elapsed := time.Since(start); elapsed > timeout+5*time.Second {
		t.Errorf("Close took %v, deadline %v", elapsed, timeout)
	}
	return rep
}

// conserve asserts exact open-loop packet conservation for a set of
// aggregates that saw no panics and no degradation: every offered packet
// was either seen by an enforcer (accepted or dropped) or counted shed.
func conserve(t *testing.T, e *Engine, ids []string, offered int64) {
	t.Helper()
	var seen int64
	for _, id := range ids {
		st, err := e.Stats(id)
		if err != nil {
			t.Fatalf("Stats(%s): %v", id, err)
		}
		p, _ := st.Totals()
		seen += p
	}
	shed := e.Overloaded.Load() + e.OverloadShed.Load()
	if seen+shed != offered {
		t.Errorf("conservation broken: enforcers saw %d + shed %d = %d, offered %d",
			seen, shed, seen+shed, offered)
	}
}

// TestChaosFloodOverload drives non-congestion-controlled UDP floods — one
// constant-rate, one hard on/off bursty — at ~25× the enforced rate into
// tbf aggregates across all four shed classes. Floods never back off, so
// admission is pure Theorem 1: accepted ≤ r·Δt + B regardless of the
// offered 25×.
func TestChaosFloodOverload(t *testing.T) {
	clock := &fakeClock{step: 50 * time.Microsecond}
	const (
		aggs         = 4
		rate         = 8 * units.Mbps
		bucket       = int64(100 * units.MSS)
		closeTimeout = 10 * time.Second
	)
	// A deliberately shallow ring (8 bursts/shard): the flood MUST
	// overwhelm ingress so the shed paths, not just the enforcers, carry
	// the overload.
	e := New(Config{
		Shards: 2, QueueDepth: 8, Clock: clock.now,
		CloseTimeout:     closeTimeout,
		WatchdogInterval: time.Millisecond,
		Overload:         true,
	})
	closed := false
	defer func() {
		if !closed {
			e.Close()
		}
	}()
	ids := make([]string, aggs)
	handles := make([]Handle, aggs)
	for i := 0; i < aggs; i++ {
		ids[i] = fmt.Sprintf("flood-%d", i)
		h, err := e.Add(ids[i], tbf.MustNew(rate, bucket), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetShedClass(ids[i], i%4); err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	floods := []*workload.Flood{
		workload.NewFlood(workload.FloodConfig{
			Rate: 200 * units.Mbps, Duration: 400 * time.Millisecond,
			Flows: 8, SrcIP: 1,
		}),
		workload.NewFlood(workload.FloodConfig{
			Rate: 200 * units.Mbps, Duration: 400 * time.Millisecond,
			Period: 50 * time.Millisecond, Duty: 0.2, Flows: 8, SrcIP: 2,
		}),
	}
	var wg sync.WaitGroup
	for fi, f := range floods {
		wg.Add(1)
		go func(fi int, src workload.Source) {
			defer wg.Done()
			var buf [64]packet.Packet
			for i := 0; ; i++ {
				_, n, ok := src.Next(buf[:])
				if !ok {
					return
				}
				h := handles[(fi*2+i)%aggs] // spread across classes
				if err := e.SubmitBatch(h, buf[:n]); err != nil {
					t.Error(err)
					return
				}
			}
		}(fi, f)
	}
	wg.Wait()
	drainAndSettle(t, e)

	var offered int64
	for _, f := range floods {
		p, _ := f.Offered()
		offered += p
	}
	conserve(t, e, ids, offered)

	// Theorem 1 per aggregate: a drop-blind flood is still held to
	// r·Δt + B.
	finalT := time.Duration(clock.ticks.Load()) * clock.step
	bound := int64(rate.Bytes(finalT)) + bucket + int64(units.MSS)
	for _, id := range ids {
		st, err := e.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.AcceptedBytes > bound {
			t.Errorf("%s: accepted %d bytes > Theorem 1 bound %d under flood", id, st.AcceptedBytes, bound)
		}
		if st.AcceptedBytes == 0 {
			t.Errorf("%s: accepted nothing — flood starved the aggregate outright", id)
		}
	}
	// Memory: the registry is untouched by a data-plane flood.
	if e.Len() != aggs {
		t.Errorf("registry size %d changed under flood, want %d", e.Len(), aggs)
	}
	dumpChaosCounters(t, e, "flood")
	rep := closeBounded(t, e, closeTimeout)
	closed = true
	if rep.AbandonedShards != 0 {
		t.Errorf("flood wedged %d shards permanently", rep.AbandonedShards)
	}
}

// TestChaosFlashCrowdLifecycle is the satellite lifecycle test: three waves
// of 10k aggregate arrivals (each inside a 1 s generator window) against a
// 256-slot table with Add-path eviction on. Each arrival goes quiet after
// its hello burst: the test backdates its activity stamp past the admission
// TTL (idleFor) rather than waiting the TTL out. Asserted exactly: every
// successful Add beyond capacity evicted exactly one victim (engine
// counters == OnEvict callback count, all with zero Stats), evicted handles
// fail ErrStale with no verdict bleed into recycled slots, the registry and
// slot high-water mark never exceed the cap, and the heap is stable across
// waves.
func TestChaosFlashCrowdLifecycle(t *testing.T) {
	const (
		maxAggs      = 256
		perWave      = 10_000
		waves        = 3
		closeTimeout = 10 * time.Second
	)
	var evictCalls, evictNonZero atomic.Int64
	e := New(Config{
		Shards: 4, MaxAggregates: maxAggs,
		CloseTimeout: closeTimeout,
		OnEvict: func(id string, final enforcer.Stats) {
			evictCalls.Add(1)
			if p, b := final.Totals(); p != 0 || b != 0 {
				evictNonZero.Add(1)
			}
		},
		Overload: true,
	})
	closed := false
	defer func() {
		if !closed {
			e.Close()
		}
	}()

	var successes, tableFull int64
	heap := make([]uint64, waves)
	var buf [8]packet.Packet
	for wave := 0; wave < waves; wave++ {
		crowd := workload.NewFlashCrowd(rng.New(uint64(1000+wave)), workload.FlashCrowdConfig{
			Aggregates: perWave,
			Window:     time.Second,
			Prefix:     fmt.Sprintf("w%d", wave),
		})
		type added struct {
			id string
			h  Handle
		}
		var recent []added
		for {
			a, ok := crowd.NextArrival()
			if !ok {
				break
			}
			h, err := e.Add(a.ID, tbf.MustNew(8*units.Mbps, 10*units.MSS), nil)
			switch {
			case err == nil:
				successes++
				recent = append(recent, added{a.ID, h})
				n := crowd.HelloBurst(a.Index, buf[:])
				if err := e.SubmitBatch(h, buf[:n]); err != nil {
					t.Fatalf("hello burst for %s: %v", a.ID, err)
				}
				idleFor(t, e, a.ID, time.Second)
			case errors.Is(err, ErrTableFull):
				tableFull++
			default:
				t.Fatalf("Add(%s): %v", a.ID, err)
			}
			// The registry never exceeds its cap mid-churn.
			if l := e.Len(); l > maxAggs {
				t.Fatalf("registry grew to %d > MaxAggregates %d", l, maxAggs)
			}
		}
		// Stale-handle discipline: handles from early in the wave whose
		// aggregates have since been evicted must fail ErrStale — never
		// reach the slot's next occupant.
		staleChecked := 0
		for i := 0; i < len(recent) && staleChecked < 200; i += 97 {
			if _, err := e.Lookup(recent[i].id); err == nil {
				continue // still registered
			}
			staleChecked++
			if err := e.SubmitBatch(recent[i].h, buf[:1]); !errors.Is(err, ErrStale) {
				t.Fatalf("evicted handle for %s returned %v, want ErrStale", recent[i].id, err)
			}
		}
		if wave > 0 && staleChecked == 0 {
			t.Error("no evicted handle found to verify staleness against")
		}
		// Heap after each identical wave, with transient garbage collected.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[wave] = ms.HeapAlloc
	}

	if got := successes + tableFull; got != int64(perWave*waves) {
		t.Errorf("adds accounted %d, want %d", got, perWave*waves)
	}
	// Every success beyond the table's capacity required exactly one
	// admission eviction.
	wantEvict := successes - maxAggs
	if got := e.AdmissionEvictions.Load(); got != wantEvict {
		t.Errorf("AdmissionEvictions = %d, want %d (successes %d − cap %d)",
			got, wantEvict, successes, maxAggs)
	}
	if got := e.Evicted.Load(); got != wantEvict {
		t.Errorf("Evicted = %d, want %d", got, wantEvict)
	}
	if got := evictCalls.Load(); got != wantEvict {
		t.Errorf("OnEvict fired %d times, want %d", got, wantEvict)
	}
	if got := evictNonZero.Load(); got != 0 {
		t.Errorf("%d admission evictions reported non-zero final Stats, want 0", got)
	}
	if e.Len() != maxAggs {
		t.Errorf("final registry size %d, want %d", e.Len(), maxAggs)
	}
	// The slot table's high-water mark is capped by MaxAggregates: churn
	// recycles slots, it does not grow the table.
	e.mu.Lock()
	hw := len(e.slotGen)
	e.mu.Unlock()
	if hw > maxAggs {
		t.Errorf("slot high-water mark %d > MaxAggregates %d", hw, maxAggs)
	}
	// Heap stability: wave 3 retains no more than wave 1 plus slack (the
	// waves are identical workloads; growth would be a lifecycle leak).
	slack := heap[0]/4 + 8<<20
	if heap[waves-1] > heap[0]+slack {
		t.Errorf("heap grew across identical waves: %d → %d bytes", heap[0], heap[waves-1])
	}
	drainAndSettle(t, e)
	dumpChaosCounters(t, e, "flash-crowd")
	rep := closeBounded(t, e, closeTimeout)
	closed = true
	if !rep.Clean {
		t.Errorf("flash crowd left a dirty close: %+v", rep)
	}
}

// TestChaosMixedRTTSwarmOverload drives two mixed-RTT swarms (RTTs spread
// across the full 2–50 ms range, windows 2–32 packets) into 8 aggregates
// spanning all shed classes. Short-RTT flows hammer with frequent small
// bursts while long-RTT flows clump — admission must stay within Theorem 1
// for every aggregate.
func TestChaosMixedRTTSwarmOverload(t *testing.T) {
	clock := &fakeClock{step: 50 * time.Microsecond}
	const (
		aggs         = 8
		rate         = 8 * units.Mbps
		bucket       = int64(64 * units.MSS)
		closeTimeout = 10 * time.Second
	)
	e := New(Config{
		Shards: 4, QueueDepth: 512, Clock: clock.now,
		CloseTimeout: closeTimeout,
		Overload:     true,
	})
	closed := false
	defer func() {
		if !closed {
			e.Close()
		}
	}()
	ids := make([]string, aggs)
	handles := make([]Handle, aggs)
	for i := 0; i < aggs; i++ {
		ids[i] = fmt.Sprintf("swarm-%d", i)
		h, err := e.Add(ids[i], tbf.MustNew(rate, bucket), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetShedClass(ids[i], i%4); err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	swarms := []*workload.Swarm{
		workload.NewSwarm(rng.New(21), workload.SwarmConfig{
			Flows: 64, Duration: 400 * time.Millisecond, SrcIP: 1,
		}),
		workload.NewSwarm(rng.New(22), workload.SwarmConfig{
			Flows: 64, Duration: 400 * time.Millisecond, SrcIP: 2,
		}),
	}
	var wg sync.WaitGroup
	for si, s := range swarms {
		wg.Add(1)
		go func(si int, src workload.Source) {
			defer wg.Done()
			var buf [64]packet.Packet
			for {
				_, n, ok := src.Next(buf[:])
				if !ok {
					return
				}
				// Route by flow so each flow's bursts stay on one
				// aggregate, like a real classifier would.
				h := handles[(si*4+int(buf[0].Key.SrcPort))%aggs]
				if err := e.SubmitBatch(h, buf[:n]); err != nil {
					t.Error(err)
					return
				}
			}
		}(si, s)
	}
	wg.Wait()
	drainAndSettle(t, e)

	var offered int64
	for _, s := range swarms {
		p, _ := s.Offered()
		offered += p
	}
	conserve(t, e, ids, offered)

	finalT := time.Duration(clock.ticks.Load()) * clock.step
	bound := int64(rate.Bytes(finalT)) + bucket + int64(units.MSS)
	for _, id := range ids {
		st, err := e.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.AcceptedBytes > bound {
			t.Errorf("%s: accepted %d bytes > Theorem 1 bound %d under swarm", id, st.AcceptedBytes, bound)
		}
	}
	if e.Len() != aggs {
		t.Errorf("registry size %d changed under swarm, want %d", e.Len(), aggs)
	}
	dumpChaosCounters(t, e, "mixed-rtt-swarm")
	closeBounded(t, e, closeTimeout)
	closed = true
}

// TestChaosShortFlowStormOverload drives a short-flow storm — every flow
// slow-start dominated, its per-round burst doubling from IW=4 until the
// flow exhausts and a new one takes the slot — into BC-PQP enforcers, the
// θ⁺/θ⁻ burst-control window's worst case. Admission must absorb each
// ramp's head yet stay within r·Δt + C overall, and every aggregate must
// still make progress (no flow flattened to zero).
func TestChaosShortFlowStormOverload(t *testing.T) {
	clock := &fakeClock{step: 50 * time.Microsecond}
	const (
		aggs         = 4
		rate         = 8 * units.Mbps
		queueSize    = int64(500 * units.MSS)
		closeTimeout = 10 * time.Second
	)
	e := New(Config{
		Shards: 2, QueueDepth: 512, Clock: clock.now,
		CloseTimeout: closeTimeout,
		Overload:     true,
	})
	closed := false
	defer func() {
		if !closed {
			e.Close()
		}
	}()
	ids := make([]string, aggs)
	handles := make([]Handle, aggs)
	for i := 0; i < aggs; i++ {
		ids[i] = fmt.Sprintf("storm-%d", i)
		enf := phantom.MustNew(phantom.Config{
			Rate:         rate,
			Queues:       16,
			QueueSize:    queueSize,
			BurstControl: true,
		})
		h, err := e.Add(ids[i], enf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetShedClass(ids[i], i%4); err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	storm := workload.NewStorm(rng.New(31), workload.StormConfig{
		Concurrency: 32,
		Duration:    400 * time.Millisecond,
		SrcIP:       1,
	})
	var buf [64]packet.Packet
	for {
		_, n, ok := storm.Next(buf[:])
		if !ok {
			break
		}
		h := handles[int(buf[0].Key.SrcPort)%aggs]
		if err := e.SubmitBatch(h, buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	drainAndSettle(t, e)

	offered, _ := storm.Offered()
	conserve(t, e, ids, offered)

	finalT := time.Duration(clock.ticks.Load()) * clock.step
	bound := int64(rate.Bytes(finalT)) + queueSize + int64(units.MSS)
	for _, id := range ids {
		st, err := e.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.AcceptedBytes > bound {
			t.Errorf("%s: accepted %d bytes > Theorem 1 bound %d under short-flow storm",
				id, st.AcceptedBytes, bound)
		}
		if st.AcceptedPackets == 0 {
			t.Errorf("%s: burst control flattened every slow-start ramp to zero", id)
		}
	}
	if e.Len() != aggs {
		t.Errorf("registry size %d changed under storm, want %d", e.Len(), aggs)
	}
	dumpChaosCounters(t, e, "short-flow-storm")
	closeBounded(t, e, closeTimeout)
	closed = true
}
