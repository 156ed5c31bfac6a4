package cluster

// Chaos suite: the cluster-wide enforcement invariant under injected
// network faults. Two layers:
//
//   - TestChaosClusterShareInvariant drives the virtual-time sim through
//     seeded fault schedules (loss, duplication, reordering, delay beyond
//     the freshness horizon, one-way and full partitions) and asserts
//     after EVERY tick that Σ applied shares ≤ r, that partitioned nodes
//     land on the conservative floor within one window of the first
//     missed exchange, and that the exchange re-establishes after heal.
//
//   - TestChaosClusterAcceptedBytes runs three REAL engines (tbf
//     enforcers, concurrent traffic, shares applied through the in-band
//     SetRate lane) under a lossy in-memory network and reconciles ground
//     truth: cluster-wide accepted bytes never exceed r·Δ plus per-node
//     burst allowances. Run under -race by the chaos CI job.

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/faultinject"
	"bcpqp/internal/mbox"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// TestChaosClusterShareInvariant: for every fault schedule the per-tick
// share-sum invariant holds, traffic stays bounded by the fluid model, and
// scripted partitions degrade and recover on the promised timeline.
func TestChaosClusterShareInvariant(t *testing.T) {
	const rounds = 120
	floor := simRate / 3

	type scenario struct {
		name       string
		plan       func(from, to string) faultinject.NetPlan
		script     func(sim *clusterSim, step int)
		wantFaults bool
	}
	planAll := func(p faultinject.NetPlan) func(from, to string) faultinject.NetPlan {
		return func(from, to string) faultinject.NetPlan {
			q := p
			q.Seed = hash64(from + "→" + to)
			return q
		}
	}
	scenarios := []scenario{
		{name: "heavy-loss", plan: planAll(faultinject.NetPlan{Drop: 0.30}), wantFaults: true},
		{name: "dup-reorder", plan: planAll(faultinject.NetPlan{Duplicate: 0.25, Reorder: 0.35}), wantFaults: true,
			// Demand migrates mid-run: reclaim and re-grant under reordering.
			script: func(sim *clusterSim, step int) {
				if step == 60 {
					sim.nodes["node-0"].demand = 0
					sim.nodes["node-1"].demand = 80e6
				}
			}},
		{name: "delay-past-freshness", plan: planAll(faultinject.NetPlan{Delay: 0.5, DelayBy: 3 * simWindow / 2}), wantFaults: true},
		{name: "compound", plan: planAll(faultinject.NetPlan{Drop: 0.15, Duplicate: 0.15, Delay: 0.25, DelayBy: simWindow, Reorder: 0.20}), wantFaults: true},
		{name: "oneway-flap",
			// Asymmetric partitions: node-0 can talk but not hear, then the
			// reverse. The echo rule must kill grants both ways.
			script: func(sim *clusterSim, step int) {
				switch step {
				case 20:
					sim.cutAll("node-0", false, true) // node-0 goes deaf
				case 40:
					sim.healAll("node-0")
				case 70:
					sim.cutAll("node-0", true, false) // node-0 goes mute
				case 90:
					sim.healAll("node-0")
				}
			}},
		{name: "full-partition-heal",
			script: func(sim *clusterSim, step int) {
				switch step {
				case 30:
					sim.cutAll("node-0", true, true)
				case 32:
					// One window after the first missed exchange: everyone
					// must be on the conservative floor.
					for id, sn := range sim.nodes {
						if !sn.fallback {
							sim.t.Fatalf("step 32: %s not in fallback after full partition", id)
						}
						if sn.applied > floor*(1+1e-9) {
							sim.t.Fatalf("step 32: %s still enforcing %.0f > floor", id, float64(sn.applied))
						}
					}
				case 70:
					sim.healAll("node-0")
				}
			}},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sim := newClusterSim(t, 3, sc.plan)
			sim.nodes["node-0"].demand = 80e6
			grantTicks := 0
			for step := 0; step < rounds; step++ {
				if sc.script != nil {
					sc.script(sim, step)
				}
				sim.step()
				sim.assertInvariant()
				if step >= 10 {
					for _, id := range sim.ids {
						if sim.nodes[id].applied > floor*6/5 {
							grantTicks++
							break
						}
					}
				}
			}
			// Fluid-model ground truth: with Σ applied ≤ r at every tick, the
			// cluster cannot have accepted more than r·T.
			var total float64
			for _, id := range sim.ids {
				total += sim.nodes[id].accepted
			}
			bound := float64(simRate) / 8 * (simWindow * rounds).Seconds() * (1 + 1e-9)
			if total > bound {
				t.Fatalf("cluster accepted %.0f bytes > r·T = %.0f", total, bound)
			}
			// The exchange must end alive: no wedged share state, and the
			// needy node above its floor on scenarios without a standing cut.
			var injected int64
			for _, m := range sim.links {
				for _, l := range m {
					injected += l.InjectedNet()
				}
			}
			if sc.wantFaults && injected == 0 {
				t.Fatal("fault plan injected nothing — scenario is vacuous")
			}
			// Liveness: a missed exchange intentionally collapses grants for
			// that tick (safety over utilization), so under lossy plans assert
			// the exchange kept WORKING — grants flowed a healthy fraction of
			// the run — rather than any single tick's state.
			if grantTicks < rounds/10 {
				t.Fatalf("grants flowed on only %d/%d ticks — exchange effectively dead", grantTicks, rounds-10)
			}
			// On clean networks the end state is deterministic: the needy node
			// must finish re-established above its floor.
			if sc.plan == nil {
				if sn := sim.nodes["node-0"]; sn.applied <= floor {
					t.Fatalf("needy node-0 ended at %.0f ≤ floor %.0f — exchange never re-established", float64(sn.applied), float64(floor))
				}
			}
		})
	}
}

// TestChaosClusterAcceptedBytes: three real engines under a lossy network.
// Ground truth reconciliation — the cluster-wide accepted byte count stays
// within r·Δ plus per-node bucket bursts, shares only move through the
// in-band ApplyShare lane, and no shard wedges.
func TestChaosClusterAcceptedBytes(t *testing.T) {
	const (
		nNodes  = 3
		aggID   = "shared-tenant"
		rate    = units.Rate(24e6) // global r: 24 Mbit/s
		bucket  = 16 * units.MSS
		window  = 25 * time.Millisecond
		runTime = 1200 * time.Millisecond
	)

	type member struct {
		id     string
		engine *mbox.Engine
		node   *Node
	}
	members := make([]*member, nNodes)
	links := make(map[string]map[string]*faultinject.NetLink)
	var ids []string
	for i := range members {
		ids = append(ids, fmt.Sprintf("n%d", i))
	}

	start := time.Now()
	for i := range members {
		m := &member{id: ids[i], engine: mbox.New(mbox.Config{Shards: 2})}
		if _, err := m.engine.Add(aggID, tbf.MustNew(rate/nNodes, bucket), nil); err != nil {
			t.Fatal(err)
		}
		members[i] = m
	}
	// Directional fault links; no Delay faults, so no Advance pump needed.
	for i, from := range ids {
		links[from] = make(map[string]*faultinject.NetLink)
		for j, to := range ids {
			if from == to {
				continue
			}
			dst := members[j]
			links[from][to] = faultinject.NewNetLink(
				func(f []byte) { dst.node.Deliver(f) },
				faultinject.NetPlan{
					Seed:      uint64(i*nNodes + j + 1),
					Drop:      0.05,
					Duplicate: 0.05,
					Reorder:   0.10,
				})
		}
	}
	for i := range members {
		m := members[i]
		peers := make([]string, 0, nNodes-1)
		for _, p := range ids {
			if p != m.id {
				peers = append(peers, p)
			}
		}
		node, err := New(Config{
			Self:   m.id,
			Peers:  peers,
			Window: window,
			Transport: transportFunc(func(peer string, frame []byte) error {
				links[m.id][peer].Send(time.Since(start), frame)
				return nil
			}),
		}, []SharedAggregate{{
			ID:   aggID,
			Rate: rate,
			Observed: func() (int64, bool) {
				st, err := m.engine.Stats(aggID)
				if err != nil {
					return 0, false
				}
				return st.AcceptedBytes, true
			},
			Apply: func(share units.Rate, fallback bool) error {
				return m.engine.ApplyShare(aggID, share, fallback)
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		m.node = node
	}
	for _, m := range members {
		m.node.Run()
	}

	// Traffic: node 0 is saturated (well past r), the others trickle below
	// the needy threshold, so grants flow toward node 0 while SetRate races
	// live SubmitBatch under -race.
	var stop atomic.Bool
	var wg sync.WaitGroup
	burst := func(n, flow int) []packet.Packet {
		pkts := make([]packet.Packet, n)
		for i := range pkts {
			pkts[i] = packet.Packet{
				Key:   packet.FlowKey{SrcPort: uint16(flow + i + 1), Proto: 6},
				Size:  units.MSS,
				Class: (flow + i) % 16,
			}
		}
		return pkts
	}
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			h, err := m.engine.Lookup(aggID)
			if err != nil {
				t.Error(err)
				return
			}
			size, gap := 16, 2*time.Millisecond // ~92 Mbit/s offered
			if i > 0 {
				size, gap = 1, 20*time.Millisecond // ~0.6 Mbit/s offered
			}
			for flow := 0; !stop.Load(); flow++ {
				m.engine.SubmitBatch(h, burst(size, flow))
				time.Sleep(gap)
			}
		}(i, m)
	}

	time.Sleep(runTime)
	stop.Store(true)
	wg.Wait()
	for _, m := range members {
		m.node.Close()
	}
	var accepted int64
	for _, m := range members {
		// Stats is a control op ordered behind queued bursts on the ring, so it
		// reflects every burst submitted before the producers stopped.
		st, err := m.engine.Stats(aggID)
		if err != nil {
			t.Fatal(err)
		}
		accepted += st.AcceptedBytes
	}
	elapsed := time.Since(start) // conservative: spans setup through readout

	// Ground truth: Σ applied ≤ r at every instant (grantors hold what they
	// cede), so accepted ≤ r·Δ/8 plus each node's bucket burst, plus a
	// share-propagation allowance (ApplyShare → in-band SetRate lands within
	// a control cycle; one window of skew per node is already generous).
	slack := float64(nNodes) * float64(rate) / 8 * window.Seconds()
	bound := float64(rate)/8*elapsed.Seconds() + float64(nNodes*int(bucket)) + slack
	if got := float64(accepted); got > bound {
		t.Fatalf("cluster accepted %.0f bytes > bound %.0f (r·Δ=%.0f)", got, bound, float64(rate)/8*elapsed.Seconds())
	}
	if accepted == 0 {
		t.Fatal("no traffic accepted — harness is vacuous")
	}

	var injected int64
	for _, m := range links {
		for _, l := range m {
			injected += l.InjectedNet()
		}
	}
	if injected == 0 {
		t.Fatal("no network faults injected — chaos plan is vacuous")
	}
	for _, m := range members {
		if m.engine.Health().Wedged() {
			t.Errorf("%s: shard wedged after chaos run", m.id)
		}
		if st := m.node.Status(); st.Seq < 10 {
			t.Errorf("%s: only %d exchange ticks — node never ran", m.id, st.Seq)
		}
		m.engine.Close()
	}
}

// hash64 is FNV-1a over the key with a splitmix64 finalizer: a stable,
// platform-independent 64-bit seed from an ID. Raw FNV-1a of short IDs that
// differ in one trailing character disperses poorly; the finalizer's
// avalanche fixes that, so the fault streams of neighbouring links do not
// correlate.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
