package mbox

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/faultinject"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/ptree"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// manualClock is a virtual clock the test sets explicitly: every engine
// read returns the last value stored, so the (now, bytes) tuples the
// auditor sees are fully under test control and a shadow obs.Audit fed the
// same tuples must agree bit-for-bit.
type manualClock struct{ ns atomic.Int64 }

func (c *manualClock) read() time.Duration { return time.Duration(c.ns.Load()) }
func (c *manualClock) set(d time.Duration) { c.ns.Store(int64(d)) }
func (c *manualClock) add(d time.Duration) { c.ns.Add(int64(d)) }

// TestAuditCleanRunZero: a conformant enforcer under a correctly declared
// envelope never trips the auditor — the acceptance criterion's clean run.
func TestAuditCleanRunZero(t *testing.T) {
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read, QueueDepth: 1 << 12})
	defer e.Close()

	const rate = 8 * units.Mbps // 1 MB/s
	const bucket = 64 * units.MSS
	h, err := e.Add("clean", tbf.MustNew(rate, bucket), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The declared envelope matches the enforcer: same rate, burst = the
	// token bucket's capacity (the enforcer can never admit more than
	// r·Δt + bucket by construction).
	if err := e.ArmAudit("clean", rate, bucket); err != nil {
		t.Fatal(err)
	}

	batch := make([]packet.Packet, 32)
	for i := range batch {
		batch[i] = pkt(i)
	}
	for i := 0; i < 200; i++ {
		clk.add(5 * time.Millisecond)
		if err := e.SubmitBatch(h, batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Stats("clean"); err != nil { // in-band barrier
		t.Fatal(err)
	}
	if v := e.AuditViolations(); v != 0 {
		t.Fatalf("clean run produced %d violations", v)
	}
	rep := e.AuditReport()
	if len(rep) != 1 || rep[0].Aggregate != "clean" || rep[0].Node != enforcer.NoNode {
		t.Fatalf("AuditReport = %+v", rep)
	}
	if rep[0].Counters.Violations != 0 || rep[0].Slack.Total() == 0 {
		t.Fatalf("report counters = %+v, slack total = %d", rep[0].Counters, rep[0].Slack.Total())
	}
}

// TestAuditInjectedOverAdmissionExact: a seeded over-admitting enforcer
// produces violations, and the count reconciles EXACTLY against a shadow
// auditor fed the engine's ground-truth (now, accepted) tuples — enforcer
// stats plus the injector's flipped bytes.
func TestAuditInjectedOverAdmissionExact(t *testing.T) {
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read, QueueDepth: 1 << 12})
	defer e.Close()

	const rate = 8 * units.Mbps
	const bucket = 16 * units.MSS
	inj := faultinject.New(tbf.MustNew(rate, bucket), faultinject.Plan{
		Seed:      42,
		OverAdmit: 0.3,
	})
	h, err := e.Add("broken", inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("broken", rate, bucket); err != nil {
		t.Fatal(err)
	}
	shadow := obs.NewAudit(clk.read(), int64(rate), bucket, 0)

	batch := make([]packet.Packet, 64)
	for i := range batch {
		batch[i] = pkt(i)
	}
	var prevAcc, prevFlip int64
	for i := 0; i < 300; i++ {
		// Saturate: the batch is ~96KB against a 5KB-per-ms allowance, so
		// the bucket drains and most verdicts are Drops — the raw
		// material the injector flips.
		clk.add(time.Millisecond)
		if err := e.SubmitBatch(h, batch); err != nil {
			t.Fatal(err)
		}
		st, err := e.Stats("broken") // barrier: the burst is audited
		if err != nil {
			t.Fatal(err)
		}
		flip := inj.OverAdmittedBytes.Load()
		accepted := (st.AcceptedBytes - prevAcc) + (flip - prevFlip)
		prevAcc, prevFlip = st.AcceptedBytes, flip
		shadow.Observe(clk.read(), accepted)
	}

	if inj.OverAdmittedBytes.Load() == 0 {
		t.Fatal("injector flipped nothing; the scenario is not exercising over-admission")
	}
	want := shadow.Snapshot()
	if want.Violations == 0 {
		t.Fatal("shadow auditor saw no violations; envelope not tight enough")
	}
	rep := e.AuditReport()
	if len(rep) != 1 {
		t.Fatalf("AuditReport has %d entries", len(rep))
	}
	got := rep[0].Counters
	if got.Violations != want.Violations {
		t.Fatalf("violations = %d, shadow predicts exactly %d", got.Violations, want.Violations)
	}
	if got.AcceptedBytes != want.AcceptedBytes || got.AllowedBytes != want.AllowedBytes ||
		got.MaxDeficit != want.MaxDeficit || got.MinSlackBytes != want.MinSlackBytes {
		t.Fatalf("auditor state diverged from shadow:\n got %+v\nwant %+v", got, want)
	}
	// The auditor's accepted bytes are exactly enforcer admissions plus
	// injected flips — nothing double counted, nothing lost.
	st, err := e.Stats("broken")
	if err != nil {
		t.Fatal(err)
	}
	if got.AcceptedBytes != st.AcceptedBytes+inj.OverAdmittedBytes.Load() {
		t.Fatalf("accepted reconciliation: audit %d != enforcer %d + flipped %d",
			got.AcceptedBytes, st.AcceptedBytes, inj.OverAdmittedBytes.Load())
	}
}

// TestAuditRebaseNoFalsePositives: live SetRate churn on a conformant
// aggregate never trips the auditor — the envelope rebase rides the same
// in-band closure as the enforcer change.
func TestAuditRebaseNoFalsePositives(t *testing.T) {
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read, QueueDepth: 1 << 12})
	defer e.Close()

	rate := 8 * units.Mbps
	const bucket = 64 * units.MSS
	h, err := e.Add("churn", tbf.MustNew(rate, bucket), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("churn", rate, bucket); err != nil {
		t.Fatal(err)
	}
	batch := make([]packet.Packet, 48)
	for i := range batch {
		batch[i] = pkt(i)
	}
	for i := 0; i < 150; i++ {
		clk.add(2 * time.Millisecond)
		if err := e.SubmitBatch(h, batch); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			// Halve/double the rate live; the enforcer and the envelope
			// change together, so enforced traffic stays conformant.
			if i%20 == 9 {
				rate = 2 * units.Mbps
			} else {
				rate = 16 * units.Mbps
			}
			if err := e.SetRate("churn", enforcer.Root, rate); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Stats("churn"); err != nil {
		t.Fatal(err)
	}
	if v := e.AuditViolations(); v != 0 {
		t.Fatalf("rate churn produced %d false violations", v)
	}
	if rep := e.AuditReport(); rep[0].Counters.RateBps != int64(rate) {
		t.Fatalf("envelope rate = %d, want %d after last SetRate", rep[0].Counters.RateBps, int64(rate))
	}
}

// TestRateChangeRebasesEveryEnvelope: a rate change moves every armed
// envelope over the ceiling it moved — the node's own, and the
// whole-aggregate one when the node is the root — whichever lane it came in
// by, an operator's SetRate or a cluster's ApplyShare. The root used to have
// two spellings that rebased one envelope each, so with both armed a raise
// through either reported the other's stale envelope as violations. A
// leaf's raise moves the leaf's envelope only.
func TestRateChangeRebasesEveryEnvelope(t *testing.T) {
	const (
		low, high = 8 * units.Mbps, 80 * units.Mbps
		wide      = 800 * units.Mbps
		bucket    = 64 * units.MSS
	)
	flat := func(units.Rate, units.Rate) enforcer.Enforcer { return tbf.MustNew(low, bucket) }
	tree := func(root, leaf units.Rate) enforcer.Enforcer {
		return ptree.MustNew([]ptree.NodeSpec{
			{Parent: -1, Stage: tbf.MustNew(root, bucket)},
			{Parent: 0, Stage: tbf.MustNew(leaf, bucket)},
		})
	}
	setRate := func(node enforcer.NodeID) func(e *Engine) error {
		return func(e *Engine) error { return e.SetRate("a", node, high) }
	}
	applyShare := func(e *Engine) error { return e.ApplyShare("a", high, false) }
	whole := enforcer.NoNode
	for _, tc := range []struct {
		name       string
		build      func(root, leaf units.Rate) enforcer.Enforcer
		root, leaf units.Rate // configured ceilings; flat has only root
		raise      func(e *Engine) error
		want       map[enforcer.NodeID]units.Rate // envelope rates afterwards
	}{
		{"flat/SetRate", flat, low, 0, setRate(enforcer.Root),
			map[enforcer.NodeID]units.Rate{whole: high, 0: high}},
		{"flat/ApplyShare", flat, low, 0, applyShare,
			map[enforcer.NodeID]units.Rate{whole: high, 0: high}},
		{"tree/root/SetRate", tree, low, wide, setRate(enforcer.Root),
			map[enforcer.NodeID]units.Rate{whole: high, 0: high, 1: wide}},
		{"tree/root/ApplyShare", tree, low, wide, applyShare,
			map[enforcer.NodeID]units.Rate{whole: high, 0: high, 1: wide}},
		{"tree/leaf/SetRate", tree, wide, low, setRate(1),
			map[enforcer.NodeID]units.Rate{whole: wide, 0: wide, 1: high}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &manualClock{}
			e := New(Config{Shards: 1, Clock: clk.read})
			defer e.Close()
			h, err := e.Add("a", tc.build(tc.root, tc.leaf), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ArmAudit("a", tc.root, bucket); err != nil {
				t.Fatal(err)
			}
			if err := e.ArmNodeAudit("a", 0, tc.root, bucket); err != nil {
				t.Fatal(err)
			}
			if tc.leaf != 0 {
				if err := e.ArmNodeAudit("a", 1, tc.leaf, bucket); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.raise(e); err != nil {
				t.Fatal(err)
			}
			// Offer at the new rate for 200 ms of virtual time: 7 MSS per
			// millisecond is 81 Mb/s. Each burst settles before the clock
			// moves (the shard reads it when it runs the burst).
			batch := make([]packet.Packet, 7)
			for i := range batch {
				batch[i] = pkt(i)
			}
			for i := 0; i < 200; i++ {
				clk.add(time.Millisecond)
				if err := e.SubmitBatch(h, batch); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Stats("a"); err != nil {
					t.Fatal(err)
				}
			}
			if v := e.AuditViolations(); v != 0 {
				t.Errorf("%d violations from an envelope the rate change left behind", v)
			}
			rep := e.AuditReport()
			if len(rep) != len(tc.want) {
				t.Fatalf("%d audit entries, want %d", len(rep), len(tc.want))
			}
			for _, ent := range rep {
				if got, want := ent.Counters.RateBps, int64(tc.want[ent.Node]); got != want {
					t.Errorf("node %d envelope at %d b/s (%d violations), want %d",
						ent.Node, got, ent.Counters.Violations, want)
				}
			}
		})
	}
}

// TestAuditTreeRollup: interior node bounds are audited independently of
// leaves — a leaf-conformant workload that exceeds an interior envelope is
// flagged at the interior node, attributed by node id and label, while the
// leaf auditors stay clean.
func TestAuditTreeRollup(t *testing.T) {
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read, QueueDepth: 1 << 12})
	defer e.Close()

	h, err := e.Add("tenant", newTestTree(), nil) // 20 Mbps link over subA/subB
	if err != nil {
		t.Fatal(err)
	}
	// The link admits up to 20 Mbps, but audit it against a deliberately
	// understated 1 Mbps envelope: the tree is "violating" the declared
	// interior bound even though each leaf is generously enveloped.
	if err := e.ArmNodeAudit("tenant", 0, 1*units.Mbps, units.MSS); err != nil {
		t.Fatal(err)
	}
	if err := e.ArmNodeAudit("tenant", 1, 100*units.Mbps, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("tenant", 100*units.Mbps, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := e.ArmNodeAudit("tenant", 99, units.Mbps, 0); !errors.Is(err, ErrBadNode) {
		t.Fatalf("out-of-range node arm: %v, want ErrBadNode", err)
	}

	lh, err := e.Leaf(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]packet.Packet, 64)
	for i := range batch {
		batch[i] = pkt(i)
	}
	for i := 0; i < 100; i++ {
		clk.add(time.Millisecond)
		if err := e.SubmitBatch(lh, batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Stats("tenant"); err != nil {
		t.Fatal(err)
	}

	rep := e.AuditReport()
	byNode := map[enforcer.NodeID]AuditEntry{}
	for _, ent := range rep {
		byNode[ent.Node] = ent
	}
	link, leaf, whole := byNode[0], byNode[1], byNode[enforcer.NoNode]
	if link.Counters.Violations == 0 {
		t.Fatalf("interior link envelope not flagged: %+v", link.Counters)
	}
	if link.NodeLabel != "link" {
		t.Fatalf("interior entry label = %q", link.NodeLabel)
	}
	if leaf.Counters.Violations != 0 {
		t.Fatalf("leaf envelope false-flagged: %+v", leaf.Counters)
	}
	if whole.Counters.Violations != 0 {
		t.Fatalf("whole-aggregate envelope false-flagged: %+v", whole.Counters)
	}
	// The leaf and the interior node audited the same admitted bytes
	// (every accepted packet entered at subA's leaf and passed the link).
	if leaf.Counters.AcceptedBytes != link.Counters.AcceptedBytes ||
		whole.Counters.AcceptedBytes != link.Counters.AcceptedBytes {
		t.Fatalf("chain accounting split: link %d, leaf %d, whole %d",
			link.Counters.AcceptedBytes, leaf.Counters.AcceptedBytes, whole.Counters.AcceptedBytes)
	}
	if link.Counters.AcceptedBytes == 0 {
		t.Fatal("no bytes audited; workload never reached the tree")
	}
}

// TestNodeAuditCreditedAtOrBelowIngress pins which bursts a node envelope
// sees: only those whose handle enters at or below the node. A tree fed
// through the handle Add returns routes its packets to leaves itself, yet an
// armed leaf envelope records none of them, while the whole-aggregate one
// records all; the same traffic through Leaf(h, 1) credits the leaf.
func TestNodeAuditCreditedAtOrBelowIngress(t *testing.T) {
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read})
	defer e.Close()
	h, err := e.Add("tenant", newTestTree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmNodeAudit("tenant", 1, 100*units.Mbps, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("tenant", 100*units.Mbps, 1<<20); err != nil {
		t.Fatal(err)
	}
	audited := func() (leaf, whole int64) {
		t.Helper()
		for _, ent := range e.AuditReport() {
			switch ent.Node {
			case 1:
				leaf = ent.Counters.AcceptedBytes
			case enforcer.NoNode:
				whole = ent.Counters.AcceptedBytes
			default:
				t.Fatalf("unexpected audit entry for node %d", ent.Node)
			}
		}
		return leaf, whole
	}
	feed := func(h Handle) {
		t.Helper()
		for i := 0; i < 20; i++ {
			clk.add(time.Millisecond)
			if err := e.SubmitBatch(h, []packet.Packet{pkt(i), pkt(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	feed(h)
	st, err := e.Stats("tenant")
	if err != nil {
		t.Fatal(err)
	}
	routed, err := e.NodeStats("tenant", 1)
	if err != nil {
		t.Fatal(err)
	}
	if routed.AcceptedBytes == 0 {
		t.Fatal("the tree routed nothing to leaf 1; the scenario proves nothing")
	}
	if leaf, whole := audited(); leaf != 0 || whole != st.AcceptedBytes {
		t.Fatalf("fed through h: leaf envelope %d bytes, whole %d; want 0 and %d", leaf, whole, st.AcceptedBytes)
	}

	lh, err := e.Leaf(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	feed(lh)
	after, err := e.NodeStats("tenant", 1)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = e.Stats("tenant"); err != nil {
		t.Fatal(err)
	}
	want := after.AcceptedBytes - routed.AcceptedBytes
	if leaf, whole := audited(); want == 0 || leaf != want || whole != st.AcceptedBytes {
		t.Fatalf("fed through Leaf(h, 1): leaf envelope %d bytes, whole %d; want %d and %d",
			leaf, whole, want, st.AcceptedBytes)
	}
}

// TestAuditMetricsExport: armed auditors surface in Metrics() — the
// conformance families plus the always-on inline ring-bypass counters.
func TestAuditMetricsExport(t *testing.T) {
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read, QueueDepth: 1 << 12})
	defer e.Close()
	h, err := e.Add("m", tbf.MustNew(units.Mbps, 4*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Unarmed: no conformance families, but inline counters always export.
	names := map[string]int{}
	for _, f := range e.Metrics().Families {
		names[f.Name] = len(f.Samples)
	}
	if _, ok := names["bcpqp_inline_bursts_total"]; !ok {
		t.Fatal("bcpqp_inline_bursts_total missing from export")
	}
	if _, ok := names["bcpqp_inline_fallbacks_total"]; !ok {
		t.Fatal("bcpqp_inline_fallbacks_total missing from export")
	}
	if _, ok := names["bcpqp_conformance_violations_total"]; ok {
		t.Fatal("conformance families exported with nothing armed")
	}

	if err := e.ArmAudit("m", units.Mbps/10, 0); err != nil { // understated: violates
		t.Fatal(err)
	}
	batch := make([]packet.Packet, 32)
	for i := range batch {
		batch[i] = pkt(i)
	}
	clk.add(time.Millisecond)
	if err := e.SubmitBatch(h, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Stats("m"); err != nil {
		t.Fatal(err)
	}
	var vio float64
	found := map[string]bool{}
	for _, f := range e.Metrics().Families {
		found[f.Name] = true
		if f.Name == "bcpqp_conformance_violations_total" {
			for _, s := range f.Samples {
				vio += s.Value
			}
		}
	}
	for _, want := range []string{
		"bcpqp_conformance_violations_total", "bcpqp_conformance_envelope_bps",
		"bcpqp_conformance_slack_bytes", "bcpqp_conformance_min_slack_bytes",
		"bcpqp_conformance_max_deficit_bytes", "bcpqp_conformance_windows_total",
		"bcpqp_conformance_slack_distribution_bytes", "bcpqp_conformance_rate_error_permille",
	} {
		if !found[want] {
			t.Fatalf("family %s missing from export", want)
		}
	}
	if vio == 0 {
		t.Fatal("deliberate violation did not light bcpqp_conformance_violations_total")
	}
}

// TestAuditChurnReconciliation is the -race chaos test: concurrent
// submitters, live rate churn, scrapes and an over-admitting injector, and
// at quiesce the auditor's accepted bytes still reconcile exactly against
// enforcer stats + injector ground truth (no audited byte lost or double
// counted under concurrency).
func TestAuditChurnReconciliation(t *testing.T) {
	clk := &fakeClock{step: 10 * time.Microsecond}
	e := New(Config{Shards: 2, Clock: clk.now, QueueDepth: 1 << 14})
	defer e.Close()

	const rate = 8 * units.Mbps
	inj := faultinject.New(tbf.MustNew(rate, 16*units.MSS), faultinject.Plan{
		Seed:      7,
		OverAdmit: 0.1,
	})
	h, err := e.Add("racy", inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("racy", rate, 16*units.MSS); err != nil {
		t.Fatal(err)
	}

	var producers, scraper sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			batch := make([]packet.Packet, 16)
			for i := range batch {
				batch[i] = pkt(w*16 + i)
			}
			for i := 0; i < 400; i++ {
				if err := e.SubmitBatch(h, batch); err != nil {
					return
				}
			}
		}(w)
	}
	producers.Add(1)
	go func() { // control churn: rebases race the datapath
		defer producers.Done()
		rates := []units.Rate{4 * units.Mbps, 12 * units.Mbps, 8 * units.Mbps}
		for i := 0; i < 60; i++ {
			if err := e.SetRate("racy", enforcer.Root, rates[i%len(rates)]); err != nil {
				return
			}
		}
	}()
	scraper.Add(1)
	go func() { // scrapes race everything
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Metrics()
				e.AuditReport()
			}
		}
	}()
	producers.Wait()
	close(stop)
	scraper.Wait()

	st, err := e.Stats("racy") // barrier: every queued burst audited
	if err != nil {
		t.Fatal(err)
	}
	rep := e.AuditReport()
	if len(rep) != 1 {
		t.Fatalf("AuditReport has %d entries", len(rep))
	}
	got := rep[0].Counters.AcceptedBytes
	want := st.AcceptedBytes + inj.OverAdmittedBytes.Load()
	if got != want {
		t.Fatalf("audited accepted bytes %d != enforcer %d + injected flips %d",
			got, st.AcceptedBytes, inj.OverAdmittedBytes.Load())
	}
	if got == 0 {
		t.Fatal("no bytes audited")
	}
}
