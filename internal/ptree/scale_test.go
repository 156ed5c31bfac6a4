package ptree

import (
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
	"bcpqp/internal/units"
)

// millionLeafSpec builds the acceptance-scale tree: root ceiling, 1000
// interior pools, 1000 assured leaves per pool — 1,001,001 nodes.
func millionLeafSpec(leavesPerPool, pools int) []NodeSpec {
	spec := make([]NodeSpec, 0, 1+pools+pools*leavesPerPool)
	spec = append(spec, NodeSpec{Parent: -1, Stage: newTBF(10 * units.Gbps)})
	for p := 0; p < pools; p++ {
		pidx := len(spec)
		spec = append(spec, NodeSpec{Parent: 0, Stage: newTBF(100 * units.Mbps)})
		for l := 0; l < leavesPerPool; l++ {
			spec = append(spec, NodeSpec{Parent: pidx, Assured: 64 * units.Kbps})
		}
	}
	return spec
}

// TestMillionLeafScale is the scaling acceptance test: a million-leaf,
// depth-3 policy tree builds in bounded memory (a 64-byte record plus 20 B of
// side arrays per node), steady-state batch submission performs zero
// allocations, and both
// Theorem 1 per interior ceiling and the assured-layer conservation bound
// hold at scale exactly as they do on a 7-node tree.
func TestMillionLeafScale(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node build in -short mode")
	}
	tr, heap := heapAfter(func() *Tree { return MustNew(millionLeafSpec(1000, 1000)) })
	n := tr.NumNodes()
	if n != 1_001_001 {
		t.Fatalf("NumNodes = %d, want 1001001", n)
	}
	perNode := float64(heap) / float64(n)
	// 64 B of record, 16 of drop counters and 4 of leaf list: 84 B, plus
	// the thousand interior ceilings. The bound
	// leaves room for one more side array of int64, not for a return to a
	// slot per node for names (16 B) or ceilings (16 B) on top of it.
	if perNode > 96 {
		t.Errorf("tree costs %.1f B/node, want ≤ 96", perNode)
	}

	// Steady state: warm up the paths, then batches must not allocate.
	leaves := tr.Leaves()
	if len(leaves) != 1_000_000 {
		t.Fatalf("leaves = %d, want 1e6", len(leaves))
	}
	r := rng.New(1234)
	pkts := make([]packet.Packet, 32)
	verdicts := make([]enforcer.Verdict, 32)
	for i := range pkts {
		pkts[i] = pkt(i, units.MSS)
	}
	now := time.Duration(0)
	submitOnce := func() {
		now += 100 * time.Microsecond
		tr.SubmitBatchAt(now, leaves[r.IntN(len(leaves))], pkts, verdicts)
	}
	submitOnce()
	if avg := testing.AllocsPerRun(100, submitOnce); avg != 0 {
		t.Errorf("SubmitBatchAt allocates %.1f times per batch at 1M leaves, want 0", avg)
	}

	// Hammer a handful of leaves under two pools hard enough to engage
	// both ceilings and the borrow layer, then check the bounds.
	const horizon = 2 * time.Second
	hot := []enforcer.NodeID{leaves[0], leaves[1], leaves[999_999]}
	start := now
	for ; now < start+horizon; now += 500 * time.Microsecond {
		for _, leaf := range hot {
			tr.SubmitAt(now, leaf, pkt(int(leaf), units.MSS))
		}
	}
	elapsed := now // ceilings have been refilling since t=0
	for _, node := range []enforcer.NodeID{0, tr.Parent(hot[0]), tr.Parent(hot[2])} {
		st, err := tr.NodeStats(node)
		if err != nil {
			t.Fatalf("NodeStats(%d): %v", node, err)
		}
		_, eff := tr.AssuredRate(node)
		rate := 10 * units.Gbps
		burst := units.BDPBytes(rate, 100*time.Millisecond)
		if node != 0 {
			rate = 100 * units.Mbps
			burst = units.BDPBytes(rate, 100*time.Millisecond)
		}
		if f := float64(st.AcceptedBytes); f > rate.Bytes(elapsed)+float64(burst)+units.MSS {
			t.Errorf("node %d: accepted %d bytes > ceiling bound", node, st.AcceptedBytes)
		}
		// Assured layer: a pool's subtree stays within its lend income
		// plus banked capital even when its leaves overdrive 30x.
		if node != 0 {
			var capital float64
			for c := range tr.nodes {
				if tr.nodes[c].parent == int32(node) {
					capital += tr.nodes[c].burst
				}
			}
			capital += tr.nodes[node].burst
			if f := float64(st.AcceptedBytes); f > eff.Bytes(elapsed)+capital+units.MSS {
				t.Errorf("pool %d: accepted %d bytes > assured bound %.0f",
					node, st.AcceptedBytes, eff.Bytes(elapsed)+capital)
			}
		}
	}
}
