package mbox

// Overload chaos: the four adversarial workload families from
// internal/workload driven against the engine, whose one overload response
// is to shed at full rings, under -race (make chaos adds -count=3). Each
// scenario asserts the same four invariants the ROADMAP demands:
//
//   1. Theorem-1 admission bounds hold: every aggregate's accepted bytes
//      stay ≤ r·Δt + B (+1 MSS slack), no matter how hostile the offered
//      load — floods that ignore drops, slow-start ramps, mixed-RTT swarms.
//   2. No shard leaves Healthy permanently: shards may degrade while
//      shedding, but once the storm stops every shard reclassifies Healthy.
//   3. Memory stays bounded: the registry never holds more aggregates than
//      the scenario keeps live, the slot high-water mark stays there too,
//      and (for the flash-crowd churn) the heap is stable across repeated
//      waves.
//   4. Close stays deadline-bounded.
//
// Every scenario is open-loop — the generators' offered load is exact
// ground truth — so packet conservation is asserted exactly:
// offered == enforcer-seen + ring-full shed.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/rng"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// waitFor polls cond up to timeout; false on deadline.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// drainAndSettle waits for every shard ring to empty, then checks that every
// shard reclassifies Healthy once degradedFor has passed since its last shed —
// invariant 2 — by classifying at that reading of the clock rather than
// waiting it out. Call after the producers stop and before Close.
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
	later := time.Now().UnixNano() + int64(degradedFor)
	for _, s := range e.shards {
		if st := classify(s, later); st != ShardHealthy {
			t.Errorf("shard %d is %v %v after the storm, want healthy: %+v",
				s.idx, st, degradedFor, e.Health().Shards[s.idx])
		}
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
	shed := e.Overloaded.Load()
	if seen+shed != offered {
		t.Errorf("conservation broken: enforcers saw %d + shed %d = %d, offered %d",
			seen, shed, seen+shed, offered)
	}
}

// TestChaosFloodOverload drives non-congestion-controlled UDP floods — one
// constant-rate, one hard on/off bursty — at ~25× the enforced rate into
// four tbf aggregates. Floods never back off, so admission is pure
// Theorem 1: accepted ≤ r·Δt + B regardless of the offered 25×.
func TestChaosFloodOverload(t *testing.T) {
	clock := &fakeClock{step: 50 * time.Microsecond}
	const (
		aggs         = 4
		rate         = 8 * units.Mbps
		bucket       = int64(100 * units.MSS)
		closeTimeout = 10 * time.Second
	)
	// A deliberately shallow ring (8 bursts/shard): the flood MUST
	// overwhelm ingress so the ring-full shed, not just the enforcers,
	// carries the overload.
	e := New(Config{
		Shards: 2, QueueDepth: 8, Clock: clock.now,
		CloseTimeout: closeTimeout,
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
				h := handles[(fi*2+i)%aggs] // spread across aggregates
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
	rep := closeBounded(t, e, closeTimeout)
	closed = true
	if rep.AbandonedShards != 0 {
		t.Errorf("flood wedged %d shards permanently", rep.AbandonedShards)
	}
}

// TestChaosFlashCrowdLifecycle is the lifecycle test: three waves of 10k
// aggregate arrivals (each inside a 1 s generator window), each with its
// hello burst, under operator churn that keeps at most 256 aggregates live —
// before every Add the oldest live aggregate is removed. Each arrival's
// token bucket holds 1–4 MSS, so its 4-packet hello burst has a known
// split. Asserted exactly: every Remove returns its hello burst's accepted
// and dropped counts, sampled removed handles fail ErrStale (never reaching
// a recycled slot's next occupant), Len and the slot high-water mark never
// exceed 256, the heap is stable across waves, and Close is clean.
func TestChaosFlashCrowdLifecycle(t *testing.T) {
	const (
		maxLive      = 256
		perWave      = 10_000
		waves        = 3
		closeTimeout = 10 * time.Second
	)
	e := New(Config{
		Shards:       4,
		CloseTimeout: closeTimeout,
	})
	closed := false
	defer func() {
		if !closed {
			e.Close()
		}
	}()

	type live struct {
		id                string
		h                 Handle
		accepted, dropped int64
	}
	var (
		fifo    []live // live aggregates, oldest first
		removed int64
		heap    = make([]uint64, waves)
		buf     [8]packet.Packet
	)
	for wave := 0; wave < waves; wave++ {
		crowd := workload.NewFlashCrowd(rng.New(uint64(1000+wave)), workload.FlashCrowdConfig{
			Aggregates: perWave,
			Window:     time.Second,
			Prefix:     fmt.Sprintf("w%d", wave),
		})
		staleChecked := 0
		for {
			a, ok := crowd.NextArrival()
			if !ok {
				break
			}
			if len(fifo) == maxLive {
				old := fifo[0]
				fifo = fifo[1:]
				st, err := e.Remove(old.id)
				if err != nil {
					t.Fatalf("Remove(%s): %v", old.id, err)
				}
				if st.AcceptedPackets != old.accepted || st.DroppedPackets != old.dropped {
					t.Fatalf("Remove(%s) = %d accepted / %d dropped, want its hello burst's %d / %d",
						old.id, st.AcceptedPackets, st.DroppedPackets, old.accepted, old.dropped)
				}
				// Stale-handle discipline: a removed aggregate's handle
				// fails ErrStale — it never reaches the slot's next
				// occupant, which the Add below may be.
				if removed%97 == 0 && staleChecked < 200 {
					staleChecked++
					if err := e.SubmitBatch(old.h, buf[:1]); !errors.Is(err, ErrStale) {
						t.Fatalf("removed handle for %s returned %v, want ErrStale", old.id, err)
					}
				}
				removed++
			}
			bucket := int64(1+a.Index%4) * units.MSS
			h, err := e.Add(a.ID, tbf.MustNew(8*units.Mbps, bucket), nil)
			if err != nil {
				t.Fatalf("Add(%s): %v", a.ID, err)
			}
			n := crowd.HelloBurst(a.Index, buf[:])
			if err := e.SubmitBatch(h, buf[:n]); err != nil {
				t.Fatalf("hello burst for %s: %v", a.ID, err)
			}
			// A full bucket admits the burst's first bucket/MSS packets.
			acc := min(int64(n), bucket/units.MSS)
			fifo = append(fifo, live{a.ID, h, acc, int64(n) - acc})
			if l := e.Len(); l > maxLive {
				t.Fatalf("registry grew to %d > %d live", l, maxLive)
			}
		}
		if staleChecked == 0 {
			t.Error("no removed handle checked for staleness")
		}
		// The slot table's high-water mark only grows, so reading it once
		// a wave shows it never passed the live bound: churn recycles
		// slots, it does not grow the table.
		e.mu.Lock()
		hw := len(e.slotGen)
		e.mu.Unlock()
		if hw > maxLive {
			t.Fatalf("wave %d: slot high-water mark %d > %d live", wave, hw, maxLive)
		}
		// Heap after each identical wave, with transient garbage collected.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[wave] = ms.HeapAlloc
	}

	if want := int64(perWave*waves - maxLive); removed != want {
		t.Errorf("removed %d aggregates, want %d", removed, want)
	}
	if e.Len() != maxLive {
		t.Errorf("final registry size %d, want %d", e.Len(), maxLive)
	}
	// Heap stability: wave 3 retains no more than wave 1 plus slack (the
	// waves are identical workloads; growth would be a lifecycle leak).
	slack := heap[0]/4 + 8<<20
	if heap[waves-1] > heap[0]+slack {
		t.Errorf("heap grew across identical waves: %d → %d bytes", heap[0], heap[waves-1])
	}
	drainAndSettle(t, e)
	rep := closeBounded(t, e, closeTimeout)
	closed = true
	if !rep.Clean {
		t.Errorf("flash crowd left a dirty close: %+v", rep)
	}
}

// TestChaosMixedRTTSwarmOverload drives two mixed-RTT swarms (RTTs spread
// across the full 2–50 ms range, windows 2–32 packets) into 8 aggregates.
// Short-RTT flows hammer with frequent small bursts while long-RTT flows
// clump — admission must stay within Theorem 1 for every aggregate.
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
	closeBounded(t, e, closeTimeout)
	closed = true
}

// TestChaosPlanesTogether arms every plane at once on one shard, driven from
// one goroutine on an injected clock: a policy tree,
// routing mixed-class bursts to its two leaves, beside a flat BC-PQP
// aggregate, both observed and audited; a cluster share that halves the tree's root rate and then restores it; and a
// ring-full episode, in which holdShard keeps the shard while tree bursts
// fill its ring and flat bursts shed behind them. No envelope may be
// breached, the tree's offered packets must equal accepted + dropped, and
// flat's accepted + dropped + the episode's ring-full shed, exactly.
func TestChaosPlanesTogether(t *testing.T) {
	const (
		treeRate  = 20 * units.Mbps
		flatRate  = 8 * units.Mbps
		queues    = 4
		queueSize = 20 * units.MSS
		depth     = 16
		burstLen  = 8
		rounds    = 100
	)
	treeBurst := units.BDPBytes(treeRate, 100*time.Millisecond) // newTestTree's root bucket
	clock := &fakeClock{step: 100 * time.Microsecond}
	c := obs.NewCollector(obs.Options{SampleEvery: 1})
	e := New(Config{
		Shards: 1, QueueDepth: depth, Clock: clock.now,
		Observer: c,
	})
	defer e.Close()

	tree, err := e.Add("tree", newTestTree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := e.Add("flat", phantom.MustNew(phantom.Config{
		Rate: flatRate, Queues: queues, QueueSize: queueSize, BurstControl: true,
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each envelope is one the enforcer cannot exceed: the tree admits no
	// more than its root's token bucket, and BC-PQP no more than r·Δt plus
	// what its phantom queues can hold.
	if err := e.ArmAudit("tree", treeRate, treeBurst); err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("flat", flatRate, queues*queueSize); err != nil {
		t.Fatal(err)
	}

	var offeredTree, offeredFlat int64
	submit := func(h Handle, n int, offered *int64) {
		t.Helper()
		if err := e.SubmitBatch(h, burstOf(burstLen, n)); err != nil {
			t.Fatal(err)
		}
		*offered += burstLen
	}
	traffic := func() {
		for i := 0; i < rounds; i++ {
			submit(tree, i, &offeredTree)
			submit(flat, i, &offeredFlat)
		}
	}

	traffic()
	if err := e.ApplyShare("tree", treeRate/2, false); err != nil {
		t.Fatal(err)
	}
	traffic()

	// Ring-full shed: with the shard held, the shard goroutine pops one tree
	// burst and parks on the occupancy word; the next depth tree bursts fill
	// the ring exactly, and every flat burst behind them sheds.
	release := holdShard(t, e, "tree")
	submit(tree, 0, &offeredTree)
	if !waitFor(10*time.Second, func() bool { return len(e.shards[0].in) == 0 }) {
		t.Fatal("shard goroutine never took the first queued burst")
	}
	for i := 0; i < depth; i++ {
		submit(tree, i, &offeredTree)
	}
	const shedBursts = 20
	over0 := e.Overloaded.Load()
	for i := 0; i < shedBursts; i++ {
		submit(flat, i, &offeredFlat)
	}
	shed := e.Overloaded.Load() - over0
	if shed != shedBursts*burstLen {
		t.Errorf("Overloaded grew %d behind a full ring, want %d", shed, shedBursts*burstLen)
	}
	release()
	if err := e.Flush("tree", func(enforcer.Enforcer) {}); err != nil { // behind the queued bursts
		t.Fatal(err)
	}

	if err := e.ApplyShare("tree", treeRate, false); err != nil {
		t.Fatal(err)
	}
	traffic()

	if v := e.AuditViolations(); v != 0 {
		t.Errorf("%d audit violations with every plane armed", v)
	}
	rep := e.AuditReport()
	if len(rep) != 2 {
		t.Fatalf("AuditReport has %d entries, want 2: %+v", len(rep), rep)
	}
	for _, a := range rep {
		if a.Counters.AcceptedBytes == 0 {
			t.Errorf("envelope %s audited no bytes", a.Aggregate)
		}
	}
	if got := e.Overloaded.Load(); got != shed {
		t.Errorf("Overloaded = %d, want the episode's %d: the ring filled only then", got, shed)
	}
	snap := e.Metrics()
	for _, a := range []struct {
		id      string
		offered int64
		shed    int64
	}{{"tree", offeredTree, 0}, {"flat", offeredFlat, shed}} {
		st, err := e.Stats(a.id)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.AcceptedPackets + st.DroppedPackets + a.shed; got != a.offered {
			t.Errorf("%s: accepted %d + dropped %d + ring-shed %d = %d, offered %d",
				a.id, st.AcceptedPackets, st.DroppedPackets, a.shed, got, a.offered)
		}
		if st.DroppedPackets == 0 {
			t.Errorf("%s: nothing dropped; the workload should saturate it", a.id)
		}
		if got := metricValue(t, snap, "bcpqp_aggregate_accepted_packets_total", a.id); int64(got) != st.AcceptedPackets {
			t.Errorf("%s: observer counted %v accepted, enforcer %d", a.id, got, st.AcceptedPackets)
		}
	}
}
