package bcpqp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/experiments"
	"bcpqp/internal/faultinject"
	"bcpqp/internal/harness"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/timerwheel"
	"bcpqp/internal/units"
)

// BenchmarkEnforcers measures the per-packet datapath cost of every
// rate-enforcement scheme — the paper's Fig 5 (and the cost half of
// Fig 1a). The rig replays a synthetic 16-flow stream at ≈1.3× the
// enforced rate on a virtual clock; the shaper variant runs its dequeue
// scheduling through a hashed timing wheel and copies payloads on dequeue.
//
// Expected shape (paper): policer ≈ cheapest; BC-PQP within a small factor
// of the policer; FairPolicer several times more; shaper the most
// expensive by 5-10×.
func BenchmarkEnforcers(b *testing.B) {
	for _, scheme := range harness.AllSchemes() {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			rig := experiments.NewEfficiencyRig(scheme)
			// Warm up into steady state.
			for i := 0; i < 100_000; i++ {
				rig.Submit(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.Submit(i)
			}
		})
	}
}

// BenchmarkEnforcersBatch is the burst-oriented counterpart of
// BenchmarkEnforcers: the same workload submitted through each scheme's
// SubmitBatch path in bursts of DefaultBurst. One benchmark iteration is
// one packet, so ns/op compares directly with BenchmarkEnforcers; the
// deltas show how much per-packet cost each scheme amortizes across a
// burst (token refills, lazy drains, burst-control window checks).
func BenchmarkEnforcersBatch(b *testing.B) {
	for _, scheme := range harness.AllSchemes() {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			rig := experiments.NewEfficiencyRig(scheme)
			// Warm up into steady state.
			for i := 0; i < 100_000; i += DefaultBurst {
				rig.SubmitBurst(i, DefaultBurst)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += DefaultBurst {
				n := b.N - i
				if n > DefaultBurst {
					n = DefaultBurst
				}
				rig.SubmitBurst(i, n)
			}
		})
	}
}

// BenchmarkPhantomPolicies is the ablation for DESIGN.md's policy-engine
// choice: per-packet cost of BC-PQP under increasingly rich rate-sharing
// policies (flat fair fast path vs generic hierarchical GPS).
func BenchmarkPhantomPolicies(b *testing.B) {
	const queues = 16
	policies := map[string]*Policy{
		"fair":     Fair(queues),
		"weighted": WeightedFair(1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8),
		"priority": StrictPriority(queues),
		"nested": MustNewPolicy(Priority(
			Weighted(Leaf(0).WithWeight(2), Leaf(1), Leaf(2), Leaf(3)),
			Weighted(Leaf(4), Leaf(5), Leaf(6), Leaf(7)),
			Weighted(Leaf(8), Leaf(9), Leaf(10), Leaf(11),
				Leaf(12), Leaf(13), Leaf(14), Leaf(15)),
		)),
	}
	for _, name := range []string{"fair", "weighted", "priority", "nested"} {
		policy := policies[name]
		b.Run(name, func(b *testing.B) {
			enf, err := NewBCPQP(BCPQPConfig{
				Rate:   50 * Mbps,
				Queues: queues,
				Policy: policy,
				MaxRTT: 50 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			gap := (50 * Mbps).DurationForBytes(MSS) * 3 / 4 // 1.33× offered
			now := time.Duration(0)
			pkt := Packet{Key: FlowKey{SrcIP: 1, DstIP: 2, Proto: 6}, Size: MSS}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += gap
				pkt.Class = i & (queues - 1)
				enf.Submit(now, pkt)
			}
		})
	}
}

// BenchmarkPolicyDrain measures the shared GPS drain engine in isolation.
func BenchmarkPolicyDrain(b *testing.B) {
	policy := sched.MustNew(sched.Priority(
		sched.Weighted(sched.Leaf(0).WithWeight(3), sched.Leaf(1)),
		sched.Weighted(sched.Leaf(2), sched.Leaf(3), sched.Leaf(4), sched.Leaf(5)),
	))
	lens := make([]int64, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range lens {
			lens[j] = int64(10000 + j*1000)
		}
		policy.Drain(20000,
			func(c int) int64 { return lens[c] },
			func(c int, n int64) { lens[c] -= n })
	}
}

// BenchmarkTimerWheel measures the shaper's dequeue-scheduling substrate.
func BenchmarkTimerWheel(b *testing.B) {
	w := timerwheel.MustNew(100*time.Microsecond, 1024)
	now := time.Duration(0)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 50 * time.Microsecond
		w.Schedule(now+5*time.Millisecond, fn)
		w.Advance(now)
	}
}

// BenchmarkSimulation measures end-to-end simulator throughput: virtual
// packet deliveries per second for one 4-flow aggregate through BC-PQP.
// This bounds how fast the Fig 4 sweep can run.
func BenchmarkSimulation(b *testing.B) {
	b.ReportAllocs()
	var delivered int64
	for i := 0; i < b.N; i++ {
		h, err := harness.New(harness.Config{
			Scheme: harness.SchemeBCPQP,
			Rate:   25 * units.Mbps,
			MaxRTT: 40 * time.Millisecond,
			Queues: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			if _, err := h.AttachFlow(harness.FlowSpec{
				Key:   packet.FlowKey{SrcIP: 1, SrcPort: uint16(f + 1), DstIP: 2, DstPort: 443, Proto: 6},
				Class: f,
				CC:    []string{"reno", "cubic", "bbr", "vegas"}[f],
				RTT:   20 * time.Millisecond,
				Start: 10 * time.Millisecond,
				OnDeliver: func(now time.Duration, bytes int) {
					delivered += int64(bytes)
				},
			}); err != nil {
				b.Fatal(err)
			}
		}
		h.Run(2 * time.Second)
	}
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// benchEngine builds a middlebox with aggs BC-PQP aggregates on a virtual
// clock, returning the engine and the aggregate handles.
func benchEngine(b *testing.B, aggs int) (*Middlebox, []AggregateHandle) {
	b.Helper()
	var ticks atomic.Int64
	eng := NewMiddlebox(MiddleboxConfig{
		QueueDepth: 1 << 14,
		Clock: func() time.Duration {
			return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
		},
	})
	handles := make([]AggregateHandle, aggs)
	for i := range handles {
		enf, err := NewBCPQP(BCPQPConfig{Rate: 20 * Mbps, Queues: 16})
		if err != nil {
			b.Fatal(err)
		}
		h, err := eng.Add(fmt.Sprintf("agg-%d", i), enf, nil)
		if err != nil {
			b.Fatal(err)
		}
		handles[i] = h
	}
	return eng, handles
}

// BenchmarkMiddleboxSubmitBatch measures the burst ingress path: one
// SubmitBatch of DefaultBurst packets per engine call, the rx_burst shape
// of a DPDK middlebox. One benchmark iteration is one PACKET (bursts are
// submitted every DefaultBurst iterations), so ns/op and pkts/sec are per
// packet.
func BenchmarkMiddleboxSubmitBatch(b *testing.B) {
	for _, aggs := range []int{16, 256} {
		aggs := aggs
		b.Run(fmt.Sprintf("aggregates=%d", aggs), func(b *testing.B) {
			eng, handles := benchEngine(b, aggs)
			defer eng.Close()
			runBatchBench(b, eng, handles)
		})
	}
}

// runBatchBench is the shared body of the burst-ingress benchmarks: one
// iteration is one packet, bursts are flushed every DefaultBurst packets.
func runBatchBench(b *testing.B, eng *Middlebox, handles []AggregateHandle) {
	aggs := len(handles)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var burst [DefaultBurst]Packet
		for i := range burst {
			burst[i] = Packet{Key: FlowKey{SrcIP: 1, Proto: 6}, Size: MSS, Class: i & 15}
		}
		i, fill := 0, 0
		for pb.Next() {
			// One iteration = one packet; flush the burst
			// every DefaultBurst packets.
			if fill++; fill == len(burst) {
				fill = 0
				eng.SubmitBatch(handles[i%aggs], burst[:])
				i++
			}
		}
		if fill > 0 {
			eng.SubmitBatch(handles[i%aggs], burst[:fill])
		}
	})
	b.StopTimer()
	pps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "pkts/sec")
}

// BenchmarkMiddleboxSubmitBatchContended is the burst ingress path with two
// producers on ONE shard, the shape in which SubmitBatch cannot always find
// its shard idle: a burst that meets the other producer's, or anything still
// pending behind it, is copied and queued for the shard goroutine.
//
//   - loop=closed: each producer waits at a Flush barrier every 256 bursts, as
//     bench/'s engine_ring producer does, so the 16 Ki ring never fills and
//     every packet is enforced (a shed fails the benchmark). Who serves a
//     burst is whatever the collisions make it.
//   - loop=open: no barrier but the last. Producers enqueue faster than one
//     goroutine serves, so after the first collision something is always
//     pending and every burst queues, or is shed at a full ring: the queued
//     path under two-producer pressure, and nothing else.
//
// pkts/sec counts enforced packets only, drain included; caller-share is the
// fraction of enforced bursts their own submitter served, shed-share the
// fraction of offered packets shed.
func BenchmarkMiddleboxSubmitBatchContended(b *testing.B) {
	for _, closed := range []bool{true, false} {
		name := "loop=open"
		if closed {
			name = "loop=closed"
		}
		b.Run(name, func(b *testing.B) { benchContended(b, closed) })
	}
}

func benchContended(b *testing.B, closed bool) {
	const producers, aggs, window = 2, 16, 256
	var ticks atomic.Int64
	eng := NewMiddlebox(MiddleboxConfig{
		Shards:     1,
		QueueDepth: 1 << 14,
		Clock: func() time.Duration {
			return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
		},
	})
	defer eng.Close()
	ids := make([]string, aggs)
	handles := make([]AggregateHandle, aggs)
	for i := range handles {
		enf, err := NewBCPQP(BCPQPConfig{Rate: 20 * Mbps, Queues: 16})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = fmt.Sprintf("agg-%d", i)
		if handles[i], err = eng.Add(ids[i], enf, nil); err != nil {
			b.Fatal(err)
		}
	}
	barrier := func(id string) {
		if err := eng.Flush(id, func(Enforcer) {}); err != nil {
			b.Error(err)
		}
	}
	bursts := (b.N + DefaultBurst - 1) / DefaultBurst
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var burst [DefaultBurst]Packet
			for i := range burst {
				burst[i] = Packet{Key: FlowKey{SrcIP: 1, Proto: 6}, Size: MSS, Class: i & 15}
			}
			// Each producer owns half of the aggregates and of the bursts.
			for i := p; i < bursts; i += producers {
				eng.SubmitBatch(handles[i%aggs], burst[:])
				if closed && i/producers%window == window-1 {
					barrier(ids[i%aggs])
				}
			}
			barrier(ids[p])
		}(p)
	}
	wg.Wait()
	b.StopTimer()
	sh := eng.Health().Shards[0]
	if closed && sh.Shed != 0 {
		b.Fatalf("%d packets shed: the ring must hold a window from each producer", sh.Shed)
	}
	offered := int64(bursts) * DefaultBurst
	b.ReportMetric(float64(offered-sh.Shed)/b.Elapsed().Seconds(), "pkts/sec")
	b.ReportMetric(float64(sh.Shed)/float64(offered), "shed-share")
	b.ReportMetric(float64(sh.Claimed)/float64(sh.Claimed+sh.Queued), "caller-share")
}

// BenchmarkMiddleboxSubmitBatchLocal measures the ring-bypass fast path in
// isolation: bursts enforced inline through LocalSubmitter.SubmitBatch with
// BC-PQP aggregates pinned across shards — no channel send, no cross-core
// handoff. One iteration is one packet, directly comparable to
// BenchmarkMiddleboxSubmitBatch (the ring path on the same workload). The
// tree case is the proxy's -tree datapath: one policy tree per shard,
// routing each packet of a burst to a leaf by its flow hash. It is the
// inline path's allocation pin: 0 allocs/op in steady state.
func BenchmarkMiddleboxSubmitBatchLocal(b *testing.B) {
	for _, tc := range []struct {
		name string
		aggs int // 0: one policy tree per shard
	}{{"aggregates=16", 16}, {"aggregates=256", 256}, {"tree", 0}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			shards := runtime.GOMAXPROCS(0)
			aggs := tc.aggs
			if aggs == 0 {
				aggs = shards
			}
			if shards > aggs {
				shards = aggs
			}
			var ticks atomic.Int64
			eng := NewMiddlebox(MiddleboxConfig{
				Shards:     shards,
				QueueDepth: 1 << 14,
				Clock: func() time.Duration {
					return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
				},
			})
			defer eng.Close()
			handles := make([]AggregateHandle, aggs)
			for i := range handles {
				var enf Enforcer
				var err error
				if tc.aggs == 0 {
					enf, err = benchRoutedTree(4, 64)
				} else {
					enf, err = NewBCPQP(BCPQPConfig{Rate: 20 * Mbps, Queues: 16})
				}
				if err != nil {
					b.Fatal(err)
				}
				h, err := eng.AddPinned(fmt.Sprintf("agg-%d", i), i%shards, enf, nil)
				if err != nil {
					b.Fatal(err)
				}
				handles[i] = h
			}
			// The packets a burst is cut from: classes for the flat
			// aggregates, distinct flows a tree hashes to leaves.
			const flows = 1024
			ring := make([]Packet, flows+DefaultBurst)
			for i := range ring {
				ring[i] = Packet{Key: FlowKey{SrcIP: 1, Proto: 6}, Size: MSS, Class: i & 15}
				if tc.aggs == 0 {
					ring[i].Key, ring[i].Class = FlowKey{SrcIP: uint32(i%flows + 1), DstIP: 9, SrcPort: 443, Proto: 17}, NoClass
				}
			}
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each parallel goroutine owns one shard's submitter and
				// round-robins the aggregates pinned there.
				shard := int(next.Add(1)-1) % shards
				ls, err := eng.LocalShard(shard)
				if err != nil {
					b.Error(err)
					return
				}
				var mine []AggregateHandle
				for i := shard; i < aggs; i += shards {
					mine = append(mine, handles[i])
				}
				var burst [DefaultBurst]Packet
				copy(burst[:], ring)
				i, fill := 0, 0
				for pb.Next() {
					// One iteration = one packet; flush every DefaultBurst.
					if fill++; fill == len(burst) {
						fill = 0
						if err := ls.SubmitBatch(mine[i%len(mine)], burst[:]); err != nil {
							b.Error(err)
							return
						}
						i++
						if tc.aggs == 0 {
							off := i * 7 % flows
							copy(burst[:], ring[off:off+DefaultBurst])
						}
					}
				}
				if fill > 0 {
					ls.SubmitBatch(mine[i%len(mine)], burst[:fill])
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
		})
	}
}

// benchRoutedTree builds a 20 Mb/s policy tree of pools × leavesPer
// assured leaves under token-bucket ceilings, fed by class routing.
func benchRoutedTree(pools, leavesPer int) (*PolicyTree, error) {
	ceil := func(r Rate) CascadeStage {
		c, err := NewPolicer(r, 0, 100*time.Millisecond)
		if err != nil {
			panic(err)
		}
		return c
	}
	spec := []PolicyTreeNode{{Name: "root", Parent: -1, Stage: ceil(20 * Mbps)}}
	for p := 0; p < pools; p++ {
		spec = append(spec, PolicyTreeNode{Parent: 0, Stage: ceil(20 * Mbps / Rate(pools))})
	}
	for l := 0; l < pools*leavesPer; l++ {
		spec = append(spec, PolicyTreeNode{Parent: 1 + l/leavesPer, Assured: 20 * Mbps / Rate(pools*leavesPer)})
	}
	return NewPolicyTree(spec)
}

// BenchmarkMiddleboxSubmitBatchObserved is BenchmarkMiddleboxSubmitBatch
// with the observability layer attached (default options: 1-in-16 burst
// trace sampling, per-aggregate counters and rate meters, per-burst
// latency histograms). The acceptance budget for the obs layer is 0
// allocs/op and ≤10% pkts/sec regression against the unobserved benchmark.
func BenchmarkMiddleboxSubmitBatchObserved(b *testing.B) {
	for _, aggs := range []int{16, 256} {
		aggs := aggs
		b.Run(fmt.Sprintf("aggregates=%d", aggs), func(b *testing.B) {
			var ticks atomic.Int64
			cfg := MiddleboxConfig{
				QueueDepth: 1 << 14,
				Clock: func() time.Duration {
					return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
				},
			}
			Observe(&cfg, ObserveOptions{})
			eng := NewMiddlebox(cfg)
			defer eng.Close()
			handles := make([]AggregateHandle, aggs)
			for i := range handles {
				enf, err := NewBCPQP(BCPQPConfig{Rate: 20 * Mbps, Queues: 16})
				if err != nil {
					b.Fatal(err)
				}
				h, err := eng.Add(fmt.Sprintf("agg-%d", i), enf, nil)
				if err != nil {
					b.Fatal(err)
				}
				handles[i] = h
			}
			runBatchBench(b, eng, handles)
		})
	}
}

// BenchmarkMiddleboxSubmitBatchAudited is the Observed benchmark with a
// conformance auditor additionally armed on every aggregate: each enforced
// burst is checked against the declared r·Δt + B envelope inline on the
// shard goroutine. CI gates it on 0 allocs/op; what auditing costs in time
// and bytes is measured by bench/ (engine_ring, obs.audit_ns_per_pkt), at
// 4,096 aggregates rather than this benchmark's cache-resident 16 or 256.
func BenchmarkMiddleboxSubmitBatchAudited(b *testing.B) {
	for _, aggs := range []int{16, 256} {
		aggs := aggs
		b.Run(fmt.Sprintf("aggregates=%d", aggs), func(b *testing.B) {
			var ticks atomic.Int64
			cfg := MiddleboxConfig{
				QueueDepth: 1 << 14,
				Clock: func() time.Duration {
					return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
				},
			}
			Observe(&cfg, ObserveOptions{})
			eng := NewMiddlebox(cfg)
			defer eng.Close()
			handles := make([]AggregateHandle, aggs)
			for i := range handles {
				enf, err := NewBCPQP(BCPQPConfig{Rate: 20 * Mbps, Queues: 16})
				if err != nil {
					b.Fatal(err)
				}
				id := fmt.Sprintf("agg-%d", i)
				h, err := eng.Add(id, enf, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.ArmAudit(id, 20*Mbps, 1<<30); err != nil {
					b.Fatal(err)
				}
				handles[i] = h
			}
			runBatchBench(b, eng, handles)
		})
	}
}

// BenchmarkMiddleboxDegradedBatch measures the quarantine fast path: the
// cost per packet of a burst belonging to an aggregate whose enforcer has
// been quarantined by the circuit breaker (count-and-drop
// without touching the enforcer). This bounds the blast radius of a
// crash-looping enforcer — degraded traffic must be cheaper than enforced
// traffic, not dearer. One iteration is one packet, comparable to
// BenchmarkMiddleboxSubmitBatch.
func BenchmarkMiddleboxDegradedBatch(b *testing.B) {
	var ticks atomic.Int64
	eng := NewMiddlebox(MiddleboxConfig{
		QueueDepth: 1 << 14,
		Clock: func() time.Duration {
			return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
		},
	})
	defer eng.Close()
	enf, err := NewBCPQP(BCPQPConfig{Rate: 20 * Mbps, Queues: 16})
	if err != nil {
		b.Fatal(err)
	}
	inj := faultinject.New(enf, faultinject.Plan{Seed: 1, Panic: 1, MaxPanics: 1})
	h, err := eng.Add("victim", inj, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Trip the breaker (the first panic quarantines), then barrier on the
	// shard so quarantine is observed before timing starts.
	trip := [1]Packet{{Key: FlowKey{SrcIP: 1, Proto: 6}, Size: MSS}}
	if err := eng.SubmitBatch(h, trip[:]); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Stats("victim"); err != nil {
		b.Fatal(err)
	}
	if q := eng.Health().Quarantined; len(q) != 1 || q[0] != "victim" {
		b.Fatalf("aggregate not quarantined before timing (quarantined=%v)", q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var burst [DefaultBurst]Packet
		for i := range burst {
			burst[i] = Packet{Key: FlowKey{SrcIP: 1, Proto: 6}, Size: MSS, Class: i & 15}
		}
		fill := 0
		for pb.Next() {
			if fill++; fill == len(burst) {
				fill = 0
				eng.SubmitBatch(h, burst[:])
			}
		}
		if fill > 0 {
			eng.SubmitBatch(h, burst[:fill])
		}
	})
	b.StopTimer()
	pps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "pkts/sec")
}

// BenchmarkMiddleboxChurn measures the aggregate lifecycle: one iteration
// is one full Add (with a fresh BC-PQP enforcer), one burst of traffic, and
// one Remove with its final-stats drain barrier. This is the control-plane
// cost subscribers pay to come and go while the datapath keeps running —
// and thanks to slot recycling it runs in bounded memory at any iteration
// count.
func BenchmarkMiddleboxChurn(b *testing.B) {
	eng, handles := benchEngine(b, 16) // background population
	defer eng.Close()
	var burst [DefaultBurst]Packet
	for i := range burst {
		burst[i] = Packet{Key: FlowKey{SrcIP: 1, Proto: 6}, Size: MSS, Class: i & 15}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enf, err := NewBCPQP(BCPQPConfig{Rate: 20 * Mbps, Queues: 16})
		if err != nil {
			b.Fatal(err)
		}
		h, err := eng.Add("churn", enf, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.SubmitBatch(h, burst[:]); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Remove("churn"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = handles
}

// BenchmarkMiddleboxSetRate measures one in-band hot reconfiguration: the
// cost of a subscriber's rate-plan change applied on the shard ring while
// the engine is live (barrier round-trip plus the enforcer's in-place
// settle-and-retarget).
func BenchmarkMiddleboxSetRate(b *testing.B) {
	eng, _ := benchEngine(b, 16)
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.SetRate("agg-0", Rate(10+i%10)*Mbps); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-figure regeneration benches: each iteration regenerates the figure at
// quick scale, so `go test -bench Fig` reproduces every result under the
// standard Go benchmark harness.
func BenchmarkFig1a(b *testing.B) { benchFig(b, experiments.Fig1a) }
func BenchmarkFig1b(b *testing.B) { benchFig(b, experiments.Fig1b) }
func BenchmarkFig2(b *testing.B)  { benchFig(b, experiments.Fig2) }
func BenchmarkFig3(b *testing.B)  { benchFig(b, experiments.Fig3) }
func BenchmarkFig4(b *testing.B)  { benchFig(b, experiments.Fig4) }
func BenchmarkFig5(b *testing.B)  { benchFig(b, experiments.Fig5) }
func BenchmarkFig6a(b *testing.B) { benchFig(b, experiments.Fig6a) }
func BenchmarkFig6bc(b *testing.B) {
	benchFig(b, experiments.Fig6bc)
}
func BenchmarkFig6d(b *testing.B) { benchFig(b, experiments.Fig6d) }
func BenchmarkFig7a(b *testing.B) { benchFig(b, experiments.Fig7a) }
func BenchmarkFig7b(b *testing.B) { benchFig(b, experiments.Fig7b) }
func BenchmarkFig8(b *testing.B)  { benchFig(b, experiments.Fig8) }
func BenchmarkFig9(b *testing.B)  { benchFig(b, experiments.Fig9) }

func benchFig(b *testing.B, fn experiments.Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := fn(experiments.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension-experiment benches (ext-mem is excluded: it measures heap
// directly and would fight the benchmark harness's own accounting).
func BenchmarkExtAQM(b *testing.B) { benchFig(b, experiments.ExtAQM) }
func BenchmarkExtECN(b *testing.B) { benchFig(b, experiments.ExtECN) }

// BenchmarkPolicyTreeSubmitBatch measures the hierarchical datapath at
// depth 3 (root ceiling → pool ceiling → assured leaf) as the tree grows
// from a thousand to a million leaves. Bursts of 32 MSS packets enter at a
// pseudo-randomly rotating leaf, so every admission walks the full
// three-level path (two ceiling probes/commits plus the borrow layer) with
// a cold-ish leaf. The routed case runs the thousand-leaf tree through
// PolicyTree.SubmitBatch, the proxy's path, with each packet's class drawn
// over the leaves, so nearly every packet is a run of its own. The
// mixed-sizes case runs the million-leaf tree with each packet's size drawn
// from 64, 576 and 1500 bytes, so a run's packets are not all the same
// size. The borrowing case offers every burst to one leaf in ten of a
// 10k-leaf tree, each then far above its assured rate: a run spends the
// guarantee its leaf refilled since its last burst in its first few packets
// and borrows the rest from its pool, which the nine idle siblings' shares
// keep full. One benchmark iteration is one packet; steady state must report
// 0 allocs/op in every case. CI runs it once as a smoke pass and gates its
// allocations; the numbers to compare across commits are bench/'s tree_deep
// workload and its ptree.* rows.
func BenchmarkPolicyTreeSubmitBatch(b *testing.B) {
	shapes := []struct {
		name                     string
		pools, leavesPer         int
		routed, mixed, borrowing bool
	}{
		{"1k-leaves", 10, 100, false, false, false},
		{"100k-leaves", 100, 1000, false, false, false},
		{"1M-leaves", 1000, 1000, false, false, false},
		{"routed", 10, 100, true, false, false},
		{"mixed-sizes", 1000, 1000, false, true, false},
		{"borrowing", 100, 100, false, false, true},
	}
	for _, sh := range shapes {
		sh := sh
		b.Run(sh.name, func(b *testing.B) {
			mkCeil := func(r Rate) CascadeStage {
				c, err := NewPolicer(r, 0, 100*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				return c
			}
			nLeaves := sh.pools * sh.leavesPer
			spec := make([]PolicyTreeNode, 0, 1+sh.pools+nLeaves)
			spec = append(spec, PolicyTreeNode{Name: "root", Parent: -1, Stage: mkCeil(400 * Gbps)})
			for p := 0; p < sh.pools; p++ {
				spec = append(spec, PolicyTreeNode{Parent: 0, Stage: mkCeil(Gbps)})
			}
			for l := 0; l < nLeaves; l++ {
				spec = append(spec, PolicyTreeNode{Parent: 1 + l/sh.leavesPer, Assured: 10 * Mbps})
			}
			tree := MustNewPolicyTree(spec)
			const burst = 32
			// Cheap inline LCG: leaf selection must not allocate or
			// dominate the measured datapath.
			var x uint64 = 0x9e3779b97f4a7c15
			lcg := func() uint64 {
				x = x*6364136223846793005 + 1442695040888963407
				return x
			}
			// The routed and mixed-sizes cases slide a 32-packet window
			// over a ring of packets whose classes or sizes were drawn up
			// front.
			pkts := make([]Packet, burst)
			if sh.routed || sh.mixed {
				pkts = make([]Packet, 1024+burst)
			}
			for i := range pkts {
				pkts[i] = Packet{Key: FlowKey{SrcIP: uint32(i + 1), DstIP: 9, Proto: 6}, Size: MSS}
				if sh.routed {
					pkts[i].Class = int(lcg() >> 33 % uint64(nLeaves))
				}
				if sh.mixed {
					pkts[i].Size = [...]int{64, 576, 1500}[lcg()>>33%3]
				}
			}
			verdicts := make([]Verdict, burst)
			leafBase := 1 + sh.pools
			now := time.Duration(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += burst {
				n := b.N - i
				if n > burst {
					n = burst
				}
				now += 10 * time.Microsecond
				off := 0
				if sh.routed || sh.mixed {
					off = (i / burst * 7) % 1024
				}
				if sh.routed {
					tree.SubmitBatch(now, pkts[off:off+n], verdicts[:n])
					continue
				}
				k := int(lcg() % uint64(nLeaves))
				if sh.borrowing {
					k -= k % 10
				}
				leaf := NodeID(leafBase + k)
				tree.SubmitBatchAt(now, leaf, pkts[off:off+n], verdicts[:n])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
		})
	}
}
