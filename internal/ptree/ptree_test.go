package ptree

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/rng"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// submitOne routes and decides one packet as a burst of one.
func submitOne(tr *Tree, now time.Duration, p packet.Packet) enforcer.Verdict {
	var v [1]enforcer.Verdict
	tr.SubmitBatch(now, []packet.Packet{p}, v[:])
	return v[0]
}

func pkt(class, size int) packet.Packet {
	return packet.Packet{
		Key:   packet.FlowKey{SrcIP: 10, DstIP: 20, SrcPort: uint16(class + 1), DstPort: 443, Proto: 6},
		Size:  size,
		Class: class,
	}
}

func newPQP(rate units.Rate, queues int) *phantom.PQP {
	return phantom.MustNew(phantom.Config{
		Rate:         rate,
		Queues:       queues,
		QueueSize:    200 * units.MSS,
		BurstControl: true,
	})
}

func newTBF(rate units.Rate) *tbf.Policer {
	return tbf.MustNew(rate, units.BDPBytes(rate, 100*time.Millisecond))
}

// tenantPlanSub builds the canonical 3-level shape: root link ceiling, two
// plan pools, two subscribers per plan with assured rates.
func tenantPlanSub() *Tree {
	return MustNew([]NodeSpec{
		{Name: "link", Parent: -1, Stage: newTBF(20 * units.Mbps)},
		{Name: "planA", Parent: 0, Stage: newTBF(12 * units.Mbps)},
		{Name: "planB", Parent: 0, Stage: newTBF(12 * units.Mbps)},
		{Name: "a1", Parent: 1, Assured: 4 * units.Mbps},
		{Name: "a2", Parent: 1, Assured: 4 * units.Mbps},
		{Name: "b1", Parent: 2, Assured: 4 * units.Mbps},
		{Name: "b2", Parent: 2, Assured: 4 * units.Mbps},
	})
}

func TestValidation(t *testing.T) {
	// A token bucket caps any number of nodes, but at most one on a path:
	// a packet through two of them would be charged twice.
	shared := newTBF(units.Mbps)
	cases := []struct {
		name string
		spec []NodeSpec
	}{
		{"empty", nil},
		{"root with parent", []NodeSpec{{Parent: 0}}},
		{"second root", []NodeSpec{{Parent: -1}, {Parent: -1}}},
		{"forward parent", []NodeSpec{{Parent: -1}, {Parent: 2}, {Parent: 0}}},
		{"self parent", []NodeSpec{{Parent: -1}, {Parent: 1}}},
		{"negative assured", []NodeSpec{{Parent: -1, Assured: -units.Mbps}}},
		{"sub-MSS burst", []NodeSpec{{Parent: -1, Assured: units.Mbps, Burst: units.MSS - 1}}},
		{"burst without assured", []NodeSpec{{Parent: -1, Burst: 10 * units.MSS}}},
		{"token bucket twice on a path", []NodeSpec{
			{Parent: -1, Stage: shared}, {Parent: 0, Stage: newTBF(units.Mbps)}, {Parent: 1, Stage: shared},
		}},
	}
	for _, tc := range cases {
		if _, err := New(tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New([]NodeSpec{{Parent: -1, Stage: newTBF(units.Mbps)}}); err != nil {
		t.Errorf("single ceiling node rejected: %v", err)
	}
	if _, err := New([]NodeSpec{{Parent: -1}, {Parent: 0, Stage: shared}, {Parent: 0, Stage: shared}}); err != nil {
		t.Errorf("token bucket shared by siblings rejected: %v", err)
	}
}

func TestTopology(t *testing.T) {
	tr := tenantPlanSub()
	if got := tr.NumNodes(); got != 7 {
		t.Fatalf("NumNodes = %d, want 7", got)
	}
	wantParent := []enforcer.NodeID{enforcer.NoNode, 0, 0, 1, 1, 2, 2}
	for i, want := range wantParent {
		if got := tr.Parent(enforcer.NodeID(i)); got != want {
			t.Errorf("Parent(%d) = %d, want %d", i, got, want)
		}
	}
	if tr.Parent(-3) != enforcer.NoNode || tr.Parent(99) != enforcer.NoNode {
		t.Error("out-of-range Parent should be NoNode")
	}
	wantLeaf := []bool{false, false, false, true, true, true, true}
	for i, want := range wantLeaf {
		if got := tr.IsLeaf(enforcer.NodeID(i)); got != want {
			t.Errorf("IsLeaf(%d) = %v, want %v", i, got, want)
		}
	}
	if got := len(tr.Leaves()); got != 4 {
		t.Errorf("len(Leaves) = %d, want 4", got)
	}
	if got := tr.NodeLabel(3); got != "a1" {
		t.Errorf("NodeLabel(3) = %q, want a1", got)
	}
	if got := tr.NodeLabel(99); got != "" {
		t.Errorf("NodeLabel(99) = %q, want empty", got)
	}
	// Unnamed nodes fall back to node<i>.
	anon := MustNew([]NodeSpec{{Parent: -1, Stage: newTBF(units.Mbps)}})
	if got := anon.NodeLabel(0); got != "node0" {
		t.Errorf("anonymous NodeLabel(0) = %q, want node0", got)
	}
	// Interior pool rate derives from children; leaves report their own.
	cfg, eff := tr.AssuredRate(1)
	if cfg != 0 || eff != 8*units.Mbps {
		t.Errorf("AssuredRate(planA) = (%v, %v), want (0, 8Mbps)", cfg, eff)
	}
}

// chainStages builds a chain's stages, outermost first. TestChainEquivalence
// mirrors them as a linear ptree: spec[0] (root) is the innermost stage, the
// last node the outermost leaf — the chain's stage 0. No assured rates, so
// the borrow layer is disabled and the tree must reproduce the chain's
// verdicts exactly.
func chainStages(seed uint64) (mk func() []enforcer.Stage) {
	return func() []enforcer.Stage {
		r := rng.New(seed)
		n := 2 + r.IntN(3)
		stages := make([]enforcer.Stage, n)
		for i := range stages {
			rate := units.Rate(4+r.IntN(17)) * units.Mbps
			if r.IntN(2) == 0 {
				stages[i] = newTBF(rate)
			} else {
				stages[i] = newPQP(rate, 1+r.IntN(4))
			}
		}
		return stages
	}
}

// TestChainEquivalence: a linear-chain policy tree produces byte-identical
// verdicts, stats and per-stage drop attribution to refChain — probe all,
// then commit all — over the same stage configurations, under randomized
// bursty traffic.
func TestChainEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mk := chainStages(seed)
			treeStages := mk()
			chain := newRefChain(mk())
			n := len(treeStages)
			spec := make([]NodeSpec, n)
			for i := range spec {
				// Tree node i holds chain stage n-1-i: root = innermost.
				spec[i] = NodeSpec{Parent: i - 1, Stage: treeStages[n-1-i]}
			}
			tr := MustNew(spec)
			leaf := enforcer.NodeID(n - 1)
			if !tr.IsLeaf(leaf) || tr.IsLeaf(0) && n > 1 {
				t.Fatalf("chain leaf/root mixed up")
			}

			r := rng.New(seed ^ 0x9e3779b97f4a7c15)
			now := time.Duration(0)
			meanGap := (10 * units.Mbps).DurationForBytes(units.MSS)
			for b := 0; b < 400; b++ {
				np := 1 + r.IntN(48)
				now += time.Duration(float64(meanGap) * float64(np) * r.Range(0.3, 0.9))
				if r.IntN(20) == 0 {
					now += 150 * time.Millisecond
				}
				for k := 0; k < np; k++ {
					size := units.MSS
					if r.IntN(4) == 0 {
						size = 64 + r.IntN(units.MSS-64)
					}
					p := pkt(r.IntN(4), size)
					vc := chain.Submit(now, p)
					vt := tr.SubmitAt(now, leaf, p)
					if vc != vt {
						t.Fatalf("burst %d pkt %d: chain %v, tree %v", b, k, vc, vt)
					}
				}
			}
			if cs, ts := chain.stats, tr.EnforcerStats(); cs != ts {
				t.Errorf("stats diverged: chain %+v, tree %+v", cs, ts)
			}
			for i := 0; i < n; i++ {
				// Chain stage i == tree node n-1-i.
				ns, err := tr.NodeStats(enforcer.NodeID(n - 1 - i))
				if err != nil {
					t.Fatalf("NodeStats: %v", err)
				}
				if ns.DroppedPackets != chain.droppedAt[i] {
					t.Errorf("stage %d drop attribution: chain %d, tree %d",
						i, chain.droppedAt[i], ns.DroppedPackets)
				}
			}
		})
	}
}

// TestSingleStageMatchesPlainSubmit: a one-node tree admits exactly the
// packets its ceiling's own Submit would admit — Probe then Commit is Submit.
func TestSingleStageMatchesPlainSubmit(t *testing.T) {
	plain := newPQP(8*units.Mbps, 2)
	tr := MustNew([]NodeSpec{{Parent: -1, Stage: newPQP(8*units.Mbps, 2)}})
	now := time.Duration(0)
	var plainAcc, treeAcc int
	for i := 0; i < 5000; i++ {
		now += 600 * time.Microsecond // 2.5 MB/s offered vs 1 MB/s
		p := pkt(i%2, units.MSS)
		if plain.Submit(now, p) == enforcer.Transmit {
			plainAcc++
		}
		if tr.SubmitAt(now, 0, p) == enforcer.Transmit {
			treeAcc++
		}
	}
	if plainAcc != treeAcc {
		t.Errorf("tree admitted %d, plain submit %d", treeAcc, plainAcc)
	}
}

// TestLinkLevelCapsSubscribers: two 5 Mbps subscribers under an 8 Mbps
// link — each subscriber is capped at 5, and their sum at 8.
func TestLinkLevelCapsSubscribers(t *testing.T) {
	tr := MustNew([]NodeSpec{
		{Parent: -1, Stage: newPQP(8*units.Mbps, 2)}, // one link queue per subscriber
		{Parent: 0, Stage: newPQP(5*units.Mbps, 1)},
		{Parent: 0, Stage: newPQP(5*units.Mbps, 1)},
	})
	// Both subscribers offer 10 Mbps for 10 virtual seconds; a packet's
	// class picks its queue at the link (a subscriber has only one).
	gap := (10 * units.Mbps).DurationForBytes(units.MSS)
	var acc [2]int64
	for now := gap; now < 10*time.Second; now += gap {
		for sub := range acc {
			if tr.SubmitAt(now, enforcer.NodeID(1+sub), pkt(sub, units.MSS)) == enforcer.Transmit {
				acc[sub] += units.MSS
			}
		}
	}
	mbpsA, mbpsB := float64(acc[0])*8/10/1e6, float64(acc[1])*8/10/1e6
	if mbpsA > 5.3 || mbpsB > 5.3 {
		t.Errorf("subscriber exceeded its cap: A=%.2f B=%.2f Mbps", mbpsA, mbpsB)
	}
	if total := mbpsA + mbpsB; total > 8.4 {
		t.Errorf("link cap violated: %.2f Mbps total", total)
	}
	if mbpsA < 3.4 || mbpsB < 3.4 {
		t.Errorf("link level starved a subscriber: A=%.2f B=%.2f", mbpsA, mbpsB)
	}
}

// TestNoPhantomLeakOnOuterDrop: when the link level rejects, the subscriber
// level must not have enqueued a phantom copy (the accounting bug two-phase
// admission exists to prevent).
func TestNoPhantomLeakOnOuterDrop(t *testing.T) {
	sub := newPQP(10*units.Mbps, 1)
	tr := MustNew([]NodeSpec{
		{Parent: -1, Stage: tbf.MustNew(units.Mbps, units.MSS)}, // tiny: rejects almost everything
		{Parent: 0, Stage: sub},
	})
	var accepted int64
	for i := 0; i < 100; i++ {
		if tr.SubmitAt(time.Millisecond, 1, pkt(0, units.MSS)) == enforcer.Transmit {
			accepted += units.MSS
		}
	}
	// The subscriber's phantom queue must hold exactly the accepted
	// bytes — not the offered bytes.
	if got := sub.QueueLength(0); got != accepted {
		t.Errorf("subscriber phantom queue holds %d, want exactly accepted %d", got, accepted)
	}
	if st := sub.EnforcerStats(); st.AcceptedBytes != accepted {
		t.Errorf("subscriber stats charged %d, want %d", st.AcceptedBytes, accepted)
	}
	if link, err := tr.NodeStats(0); err != nil || link.DroppedPackets == 0 {
		t.Errorf("link-level drops not attributed: %+v, %v", link, err)
	}
}

// TestChainUpperBoundsProperty: for random offered loads, a chain never
// admits more than either level's token-bucket bound allows.
func TestChainUpperBoundsProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		const (
			subRate, linkRate = 4 * units.Mbps, 6 * units.Mbps
			subB, linkB       = int64(20 * units.MSS), int64(30 * units.MSS)
		)
		tr := MustNew([]NodeSpec{
			{Parent: -1, Stage: tbf.MustNew(linkRate, linkB)},
			{Parent: 0, Stage: tbf.MustNew(subRate, subB)},
		})
		now := time.Duration(0)
		var accepted int64
		for _, g := range gaps {
			now += time.Duration(g%3000) * time.Microsecond
			if tr.SubmitAt(now, 1, pkt(0, units.MSS)) == enforcer.Transmit {
				accepted += units.MSS
			}
		}
		okSub := float64(accepted) <= float64(subB)+subRate.Bytes(now)+1
		okLink := float64(accepted) <= float64(linkB)+linkRate.Bytes(now)+1
		return okSub && okLink
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBatchEquivalence: both burst paths are byte-identical to per-packet
// submission on an identically configured tree — SubmitBatchAt to SubmitAt
// at one leaf, and whole-aggregate SubmitBatch to Submit on bursts whose
// packets route to different leaves.
func TestBatchEquivalence(t *testing.T) {
	t.Run("leaf", func(t *testing.T) {
		one, batch := tenantPlanSub(), tenantPlanSub()
		r := rng.New(42)
		now := time.Duration(0)
		leaves := one.Leaves()
		pkts := make([]packet.Packet, 0, 64)
		verdicts := make([]enforcer.Verdict, 64)
		for b := 0; b < 300; b++ {
			now += time.Duration(r.IntN(int(5 * time.Millisecond)))
			leaf := leaves[r.IntN(len(leaves))]
			pkts = pkts[:0]
			np := 1 + r.IntN(48)
			for k := 0; k < np; k++ {
				size := 64 + r.IntN(units.MSS-64)
				pkts = append(pkts, pkt(k%4, size))
			}
			batch.SubmitBatchAt(now, leaf, pkts, verdicts)
			for k := range pkts {
				want := one.SubmitAt(now, leaf, pkts[k])
				if verdicts[k] != want {
					t.Fatalf("burst %d pkt %d at leaf %d: batch %v, single %v",
						b, k, leaf, verdicts[k], want)
				}
			}
		}
		sameStats(t, one, batch)
	})
	t.Run("mixed", func(t *testing.T) {
		one, batch := tenantPlanSub(), tenantPlanSub()
		r := rng.New(43)
		now := time.Duration(0)
		pkts := make([]packet.Packet, 0, 64)
		verdicts := make([]enforcer.Verdict, 64)
		nleaves := len(one.Leaves())
		split := 0 // bursts whose hash-routed packets reach more than one leaf
		for b := 0; b < 400; b++ {
			now += time.Duration(r.IntN(int(3 * time.Millisecond)))
			// Runs of 1–8 packets of one class; a run may repeat the class
			// before it. Some runs carry no class and a random source port
			// each, the proxy's traffic shape, so the flow-key hash spreads
			// them over the leaves inside one burst.
			pkts = pkts[:0]
			var hashed uint
			for np := 1 + r.IntN(64); len(pkts) < np; {
				class := r.IntN(5)
				for run := 1 + r.IntN(8); run > 0 && len(pkts) < np; run-- {
					p := pkt(class, 64+r.IntN(units.MSS-64))
					if class == 4 {
						p.Class = packet.NoClass
						p.Key.SrcPort = uint16(r.IntN(1 << 16))
						hashed |= 1 << p.ClassIn(nleaves)
					}
					pkts = append(pkts, p)
				}
			}
			if hashed&(hashed-1) != 0 {
				split++
			}
			batch.SubmitBatch(now, pkts, verdicts)
			for k := range pkts {
				if want := submitOne(one, now, pkts[k]); verdicts[k] != want {
					t.Fatalf("burst %d pkt %d (class %d): batch %v, single %v",
						b, k, pkts[k].Class, verdicts[k], want)
				}
			}
		}
		if split == 0 {
			t.Error("no burst split its hash-routed packets across leaves")
		}
		sameStats(t, one, batch)
	})
}

// sameStats fails unless two trees agree on their verdict accounting and on
// every node's own.
func sameStats(t *testing.T, one, batch *Tree) {
	t.Helper()
	s1, s2 := one.EnforcerStats(), batch.EnforcerStats()
	if s1 != s2 {
		t.Errorf("stats diverged: single %+v, batch %+v", s1, s2)
	}
	if s1.AcceptedPackets == 0 || s1.DroppedPackets == 0 {
		t.Errorf("degenerate traffic: %+v", s1)
	}
	for i := 0; i < one.NumNodes(); i++ {
		n1, _ := one.NodeStats(enforcer.NodeID(i))
		n2, _ := batch.NodeStats(enforcer.NodeID(i))
		if n1 != n2 {
			t.Errorf("node %d stats diverged: single %+v, batch %+v", i, n1, n2)
		}
	}
}

// setRateAt changes one node's ceiling rate through its Reconfigurer.
func setRateAt(tr *Tree, now time.Duration, node enforcer.NodeID, rate units.Rate) error {
	r, err := tr.nodeReconfigurer(node)
	if err != nil {
		return err
	}
	return r.SetRate(now, rate)
}

// drive offers traffic at a fixed rate to one leaf over a window and
// returns the bytes admitted.
func drive(tr *Tree, leaf enforcer.NodeID, offered units.Rate, from, to time.Duration) int64 {
	gap := offered.DurationForBytes(units.MSS)
	var acc int64
	for now := from; now < to; now += gap {
		if tr.SubmitAt(now, leaf, pkt(int(leaf), units.MSS)) == enforcer.Transmit {
			acc += units.MSS
		}
	}
	return acc
}

// driveMulti offers traffic to several leaves concurrently over a window:
// one time-ordered stream of interleaved MSS packets, each source pacing
// itself at its own offered rate. Returns the bytes admitted per source.
func driveMulti(tr *Tree, leaves []enforcer.NodeID, offered []units.Rate, from, to time.Duration) []int64 {
	acc := make([]int64, len(leaves))
	owed := make([]float64, len(leaves))
	const step = 250 * time.Microsecond
	for now := from; now < to; now += step {
		for i, leaf := range leaves {
			owed[i] += offered[i].Bytes(step)
			for owed[i] >= units.MSS {
				owed[i] -= units.MSS
				if tr.SubmitAt(now, leaf, pkt(int(leaf), units.MSS)) == enforcer.Transmit {
					acc[i] += units.MSS
				}
			}
		}
	}
	return acc
}

// TestBorrowingReclaim is the HTB contract end to end: a subscriber
// throttled at its assured rate while its sibling is active reclaims the
// sibling's released bandwidth when it idles, and falls back to its
// assured share when the sibling returns. The 20 Mbps link ceiling is
// deliberately slack — every cap seen here is the borrow layer's doing.
func TestBorrowingReclaim(t *testing.T) {
	tr := MustNew([]NodeSpec{
		{Name: "link", Parent: -1, Stage: newTBF(20 * units.Mbps)},
		{Name: "subA", Parent: 0, Assured: 5 * units.Mbps},
		{Name: "subB", Parent: 0, Assured: 5 * units.Mbps},
	})
	const subA, subB = enforcer.NodeID(1), enforcer.NodeID(2)
	both := []enforcer.NodeID{subA, subB}
	sec := func(r units.Rate, d time.Duration) float64 { return r.Bytes(d) }

	// Phase 1 (0–5 s): both offer 8 Mbps. The pool's 10 Mbps lend rate is
	// fully subscribed, so each is held near its 5 Mbps assured share.
	acc := driveMulti(tr, both, []units.Rate{8 * units.Mbps, 8 * units.Mbps}, 0, 5*time.Second)
	for i, name := range []string{"A/contended", "B/contended"} {
		lo, hi := 0.85*sec(5*units.Mbps, 5*time.Second), 1.25*sec(5*units.Mbps, 5*time.Second)
		if f := float64(acc[i]); f < lo || f > hi {
			t.Errorf("phase 1 %s admitted %d bytes, want ~5 Mbps share [%.0f, %.0f]", name, acc[i], lo, hi)
		}
	}
	// Phase 2 (5–10 s): A idles; B offers 12 Mbps and reclaims A's
	// released 5 Mbps through the parent pool — topping out at the pool's
	// 10 Mbps lend rate, well under the 20 Mbps ceiling.
	acc = driveMulti(tr, both, []units.Rate{0, 12 * units.Mbps}, 5*time.Second, 10*time.Second)
	lo, hi := 0.85*sec(10*units.Mbps, 5*time.Second), 1.2*sec(10*units.Mbps, 5*time.Second)
	if f := float64(acc[1]); f < lo || f > hi {
		t.Errorf("phase 2 B admitted %d bytes, want ~10 Mbps (A's idle share borrowed) [%.0f, %.0f]", acc[1], lo, hi)
	}
	// Phase 3 (10–15 s): A returns at 8 Mbps. A recovers its guaranteed
	// 5 Mbps immediately; B is squeezed back to its own share.
	acc = driveMulti(tr, both, []units.Rate{8 * units.Mbps, 12 * units.Mbps}, 10*time.Second, 15*time.Second)
	if f := float64(acc[0]); f < 0.85*sec(5*units.Mbps, 5*time.Second) {
		t.Errorf("phase 3 A admitted %d bytes, want back near its 5 Mbps assured share", acc[0])
	}
	if f := float64(acc[1]); f > 1.35*sec(5*units.Mbps, 5*time.Second) {
		t.Errorf("phase 3 B admitted %d bytes, want throttled back near 5 Mbps", acc[1])
	}
}

// TestHTBBorrowing holds the borrow layer to HTBQueue's borrowing cases
// (arXiv 2109.12879), one row each. A row offers paced MSS packets to its
// leaves phase by phase and checks the bytes one leaf gets in a phase
// against rate·Δt. The tolerance is derived per row: every bucket and
// ceiling on the leaf's path starts full, so a phase that starts the run
// may also spend their capital once, and each of them may end the phase at
// most one packet short (a few MSS over a path of at most three).
func TestHTBBorrowing(t *testing.T) {
	const slack = 4 * units.MSS
	type phase struct {
		dur     time.Duration
		offered []units.Rate // per row leaf
		leaf    int          // the leaf checked, an index into offered; -1 for none
		want    units.Rate   // its accepted bytes, as a rate over dur
		tol     float64      // bytes
	}
	for _, row := range []struct {
		name   string
		spec   []NodeSpec
		leaves []enforcer.NodeID
		phases []phase
		// check runs after phase k, for white-box ledger assertions.
		check func(t *testing.T, tr *Tree, k int)
	}{{
		// Sibling b idles; a offers 8 Mbps against its own 5 and borrows
		// the other 3 from b's idle share: the pool's 10 Mbps lend rate
		// covers all of it. Capital: a 62.5 kB, pool 125 kB.
		name: "an idle sibling lends its assured rate",
		spec: []NodeSpec{
			{Parent: -1},
			{Parent: 0, Assured: 5 * units.Mbps},
			{Parent: 0, Assured: 5 * units.Mbps},
		},
		leaves: []enforcer.NodeID{1, 2},
		phases: []phase{{4 * time.Second, []units.Rate{8 * units.Mbps, 0}, 0, 8 * units.Mbps, 62_500 + 125_000 + slack}},
	}, {
		// A lone busy child (own 4 Mbps) is held at the pool's 10 Mbps
		// lend rate, not 14: what it spends of its own guarantee is charged
		// to the pool too. Capital: a 50 kB, pool 125 kB.
		name: "a lone busy child tops out at its pool's lend rate",
		spec: []NodeSpec{
			{Parent: -1},
			{Parent: 0, Assured: 4 * units.Mbps},
			{Parent: 0, Assured: 6 * units.Mbps},
		},
		leaves: []enforcer.NodeID{1, 2},
		phases: []phase{{4 * time.Second, []units.Rate{20 * units.Mbps, 0}, 0, 10 * units.Mbps, 50_000 + 125_000 + slack}},
	}, {
		// Plan B idles whole, and so does a1's sibling: a1 draws the
		// root's 12 Mbps, past its own plan's 6. Capital: a1 37.5 kB,
		// plan A 75 kB, root 150 kB.
		name: "borrowing cascades across plans when a whole plan idles",
		spec: []NodeSpec{
			{Parent: -1},
			{Parent: 0},
			{Parent: 0},
			{Parent: 1, Assured: 3 * units.Mbps},
			{Parent: 1, Assured: 3 * units.Mbps},
			{Parent: 2, Assured: 3 * units.Mbps},
			{Parent: 2, Assured: 3 * units.Mbps},
		},
		leaves: []enforcer.NodeID{3, 4, 5, 6},
		phases: []phase{{4 * time.Second, []units.Rate{20 * units.Mbps, 0, 0, 0}, 0, 12 * units.Mbps, 37_500 + 75_000 + 150_000 + slack}},
	}, {
		// Pool P (x, y: 3 Mbps each, a 300 kB debt floor) under a top
		// ledger T with its own 9 Mbps. Phase 1: x draws T's surplus past
		// P's 6 Mbps and P sinks to its floor. Then x idles, z (9 Mbps of
		// its own, under T) runs greedy so that T lends nothing, and y
		// offers 4 Mbps against its own 3. P repays at 6 − 3 Mbps, 300 kB
		// in 0.8 s: until then y gets its own 3 Mbps and no more, after it
		// all 4. y's bucket holds two MSS, enough to bank its income
		// between 3 ms packets; the tolerance is that bucket and the
		// packets in flight.
		name: "a bypassed pool sinks to its floor and lends again only once repaid",
		spec: []NodeSpec{
			{Parent: -1, Assured: 9 * units.Mbps, Burst: 1000 * units.MSS},
			{Parent: 0, Burst: 200 * units.MSS},
			{Parent: 1, Assured: 3 * units.Mbps},
			{Parent: 1, Assured: 3 * units.Mbps, Burst: 2 * units.MSS},
			{Parent: 0, Assured: 9 * units.Mbps},
		},
		leaves: []enforcer.NodeID{2, 3, 4},
		phases: []phase{
			{1500 * time.Millisecond, []units.Rate{20 * units.Mbps, 0, 0}, -1, 0, 0},
			{500 * time.Millisecond, []units.Rate{0, 4 * units.Mbps, 20 * units.Mbps}, 1, 3 * units.Mbps, 2*units.MSS + slack},
			{500 * time.Millisecond, []units.Rate{0, 4 * units.Mbps, 20 * units.Mbps}, -1, 0, 0},
			{time.Second, []units.Rate{0, 4 * units.Mbps, 20 * units.Mbps}, 1, 4 * units.Mbps, 2*units.MSS + slack},
		},
		// Between two of x's accepted packets P earns under one MSS, so
		// after phase 1 it sits within a packet of its floor.
		check: func(t *testing.T, tr *Tree, k int) {
			if p := &tr.nodes[1]; k == 0 && (p.tokens < -p.burst || p.tokens > -p.burst+units.MSS) {
				t.Errorf("bypassed pool at %.0f after phase 1, want within a packet of its floor %.0f", p.tokens, -p.burst)
			}
		},
	}, {
		// The pool would lend a 10 Mbps, but the 5 Mbps ceiling above it
		// binds. Tolerance: the ceiling's 62.5 kB bucket.
		name: "a ceiling always binds above the borrow layer",
		spec: []NodeSpec{
			{Parent: -1, Stage: newTBF(5 * units.Mbps)},
			{Parent: 0, Assured: 5 * units.Mbps},
			{Parent: 0, Assured: 5 * units.Mbps},
		},
		leaves: []enforcer.NodeID{1, 2},
		phases: []phase{{4 * time.Second, []units.Rate{20 * units.Mbps, 0}, 0, 5 * units.Mbps, 62_500 + slack}},
	}} {
		t.Run(row.name, func(t *testing.T) {
			tr := MustNew(row.spec)
			now := time.Duration(0)
			for k, ph := range row.phases {
				acc := driveMulti(tr, row.leaves, ph.offered, now, now+ph.dur)
				now += ph.dur
				if ph.leaf >= 0 {
					want := ph.want.Bytes(ph.dur)
					if got := float64(acc[ph.leaf]); math.Abs(got-want) > ph.tol {
						t.Errorf("phase %d: leaf %d accepted %.0f B, want %.0f ± %.0f (%v over %v)",
							k+1, row.leaves[ph.leaf], got, want, ph.tol, ph.want, ph.dur)
					}
				}
				if row.check != nil {
					row.check(t, tr, k)
				}
			}
		})
	}
}

// TestBorrowConservation is the property test: under randomized trees and
// traffic, (1) every node with a ceiling obeys Theorem 1 — accepted bytes
// through its subtree ≤ rate·Δt + burst — so borrowing can never exceed
// any subtree ceiling; (2) the topmost assured node's subtree obeys the
// same bound at its pooled lend rate (borrowed bandwidth is conserved:
// only released assured income is re-admitted).
func TestBorrowConservation(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed * 7919)
		// Random 3-level tree: root ceiling, 2-3 pools, 2-4 leaves each.
		type ceil struct {
			node enforcer.NodeID
			rate units.Rate
			blen int64
		}
		var ceils []ceil
		rootRate := units.Rate(10+r.IntN(20)) * units.Mbps
		spec := []NodeSpec{{Parent: -1, Stage: newTBF(rootRate)}}
		ceils = append(ceils, ceil{0, rootRate, units.BDPBytes(rootRate, 100*time.Millisecond)})
		pools := 2 + r.IntN(2)
		var leaves []enforcer.NodeID
		for p := 0; p < pools; p++ {
			prate := units.Rate(5+r.IntN(10)) * units.Mbps
			pidx := len(spec)
			spec = append(spec, NodeSpec{Parent: 0, Stage: newTBF(prate)})
			ceils = append(ceils, ceil{enforcer.NodeID(pidx), prate, units.BDPBytes(prate, 100*time.Millisecond)})
			for l := 0; l < 2+r.IntN(3); l++ {
				leaves = append(leaves, enforcer.NodeID(len(spec)))
				spec = append(spec, NodeSpec{
					Parent:  pidx,
					Assured: units.Rate(1+r.IntN(5)) * units.Mbps,
				})
			}
		}
		tr := MustNew(spec)

		const horizon = 4 * time.Second
		now := time.Duration(0)
		for now < horizon {
			leaf := leaves[r.IntN(len(leaves))]
			np := 1 + r.IntN(32)
			for k := 0; k < np; k++ {
				tr.SubmitAt(now, leaf, pkt(int(leaf), 64+r.IntN(units.MSS-64)))
			}
			now += time.Duration(r.IntN(int(3 * time.Millisecond)))
		}

		for _, c := range ceils {
			st, err := tr.NodeStats(c.node)
			if err != nil {
				t.Fatalf("NodeStats(%d): %v", c.node, err)
			}
			bound := float64(c.rate.Bytes(horizon)) + float64(c.blen) + units.MSS
			if f := float64(st.AcceptedBytes); f > bound {
				t.Errorf("seed %d node %d: subtree accepted %d bytes > ceiling bound %.0f (r·Δt+B)",
					seed, c.node, st.AcceptedBytes, bound)
			}
		}
		// Topmost assured bound: borrowed bandwidth is conserved — the
		// borrow layer redistributes released assured income, it does not
		// mint it. Every admitted packet charges the root pool ledger the
		// full packet size, so root-subtree admission can never exceed the
		// pooled lend income over the horizon plus the banked token
		// capital the run started with (every bucket and pool begins
		// full).
		_, eff := tr.AssuredRate(0)
		rootStats, _ := tr.NodeStats(0)
		var capital float64
		for i := range tr.nodes {
			capital += tr.nodes[i].burst
		}
		bound := eff.Bytes(horizon) + capital + units.MSS
		if f := float64(rootStats.AcceptedBytes); f > bound {
			t.Errorf("seed %d: root admitted %d bytes > assured-layer bound %.0f", seed, rootStats.AcceptedBytes, bound)
		}
	}
}

// TestSubmitFailsClosed: out-of-range nodes drop and count, never pass.
func TestSubmitFailsClosed(t *testing.T) {
	tr := tenantPlanSub()
	if v := tr.SubmitAt(0, 99, pkt(0, units.MSS)); v != enforcer.Drop {
		t.Errorf("out-of-range SubmitAt = %v, want Drop", v)
	}
	if v := tr.SubmitAt(0, -2, pkt(0, units.MSS)); v != enforcer.Drop {
		t.Errorf("negative SubmitAt = %v, want Drop", v)
	}
	pkts := []packet.Packet{pkt(0, units.MSS)}
	verdicts := make([]enforcer.Verdict, 1)
	tr.SubmitBatchAt(0, 99, pkts, verdicts)
	if verdicts[0] != enforcer.Drop {
		t.Errorf("out-of-range SubmitBatchAt = %v, want Drop", verdicts[0])
	}
	if st := tr.EnforcerStats(); st.DroppedPackets != 3 {
		t.Errorf("fail-closed drops not counted: %+v", st)
	}
}

// TestNodeErrors: sentinel-typed addressing errors.
func TestNodeErrors(t *testing.T) {
	tr := tenantPlanSub()
	if _, err := tr.NodeStats(99); !errors.Is(err, enforcer.ErrBadNode) {
		t.Errorf("NodeStats(99): %v, want ErrBadNode", err)
	}
	if _, err := tr.nodeReconfigurer(99); !errors.Is(err, enforcer.ErrBadNode) {
		t.Errorf("nodeReconfigurer(99): %v, want ErrBadNode", err)
	}
	// Node 3 is a stageless assured leaf: no ceiling to reconfigure.
	if _, err := tr.nodeReconfigurer(3); !errors.Is(err, enforcer.ErrNotReconfigurable) {
		t.Errorf("nodeReconfigurer(leaf): %v, want ErrNotReconfigurable", err)
	}
}

// TestInteriorHotSetRate: reconfiguring an interior ceiling mid-traffic
// obeys the piecewise bound r₁·Δt₁ + r₂·Δt₂ + B — admission state is
// settled, not reset, across the change.
func TestInteriorHotSetRate(t *testing.T) {
	const r1, r2 = 8 * units.Mbps, 2 * units.Mbps
	tr := MustNew([]NodeSpec{
		{Name: "link", Parent: -1, Stage: newTBF(50 * units.Mbps)},
		{Name: "plan", Parent: 0, Stage: newTBF(r1)},
		{Name: "sub", Parent: 1},
	})
	const leaf = enforcer.NodeID(2)
	const phase = 3 * time.Second
	acc1 := drive(tr, leaf, 20*units.Mbps, 0, phase)
	if err := setRateAt(tr, phase, 1, r2); err != nil {
		t.Fatalf("SetRate at node 1: %v", err)
	}
	acc2 := drive(tr, leaf, 20*units.Mbps, phase, 2*phase)
	slack := float64(units.BDPBytes(r1, 100*time.Millisecond)) + 2*units.MSS
	if f := float64(acc1 + acc2); f > float64(r1.Bytes(phase))+float64(r2.Bytes(phase))+slack {
		t.Errorf("piecewise bound violated: admitted %d bytes", acc1+acc2)
	}
	// And the second phase really is enforced at r2, not r1.
	if f := float64(acc2); f > 1.3*float64(r2.Bytes(phase))+slack {
		t.Errorf("post-change admission %d bytes, want ~r2·Δt", acc2)
	}
}
