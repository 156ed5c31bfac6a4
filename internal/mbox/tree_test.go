package mbox

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/ptree"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// newTestTree builds the canonical 2-level tree used across these tests:
// a 20 Mbps link ceiling over two 5 Mbps-assured subscribers.
func newTestTree() *ptree.Tree {
	return ptree.MustNew([]ptree.NodeSpec{
		{Name: "link", Parent: -1, Stage: tbf.MustNew(20*units.Mbps, units.BDPBytes(20*units.Mbps, 100*time.Millisecond))},
		{Name: "subA", Parent: 0, Assured: 5 * units.Mbps},
		{Name: "subB", Parent: 0, Assured: 5 * units.Mbps},
	})
}

func TestAddTreeAndLeafResolution(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	h, err := e.Add("tenant", newTestTree(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// In-range nodes mint handles carrying their node address.
	lh, err := e.Leaf(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lh.Aggregate() != h || lh.Node() != 1 {
		t.Errorf("Leaf(h, 1) = (%v, %d)", lh.Aggregate(), lh.Node())
	}
	// Out-of-range nodes fail with the typed sentinel.
	if _, err := e.Leaf(h, 99); !errors.Is(err, ErrBadNode) {
		t.Errorf("Leaf(h, 99): %v, want ErrBadNode", err)
	}
	if _, err := e.Leaf(h, -2); !errors.Is(err, ErrBadNode) {
		t.Errorf("Leaf(h, -2): %v, want ErrBadNode", err)
	}

	// A flat aggregate unifies as the one-node tree: node 0 is the
	// enforcer, everything else is ErrBadNode.
	fh, err := e.Add("flat", tbf.MustNew(units.Mbps, 10*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Leaf(fh, 0); err != nil {
		t.Errorf("flat Leaf(h, 0): %v", err)
	}
	if _, err := e.Leaf(fh, 1); !errors.Is(err, ErrBadNode) {
		t.Errorf("flat Leaf(h, 1): %v, want ErrBadNode", err)
	}

	// A stale aggregate handle invalidates every leaf handle at once.
	if _, err := e.Remove("tenant"); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitLeafBatch(lh, []packet.Packet{pkt(0)}); !errors.Is(err, ErrStale) {
		t.Errorf("stale leaf batch: %v, want ErrStale", err)
	}
}

// TestLeafSubmissionRoutesToNodes: node-addressed ingress lands on the
// right tree nodes — per-node accounting shows each subscriber's traffic
// where it entered, and the engine's emitted stream reflects the tree's
// verdicts.
func TestLeafSubmissionRoutesToNodes(t *testing.T) {
	clock := &fakeClock{step: 500 * time.Microsecond}
	e := New(Config{Shards: 1, Clock: clock.now})
	defer e.Close()
	var emitted atomic.Int64
	h, err := e.Add("tenant", newTestTree(), func(p packet.Packet) {
		emitted.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	lhA, _ := e.Leaf(h, 1)
	lhB, _ := e.Leaf(h, 2)

	// Interleave bursts of one with bursts of eight across two leaves.
	batch := make([]packet.Packet, 8)
	for i := range batch {
		batch[i] = pkt(i)
	}
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := e.SubmitLeafBatch(lhA, batch); err != nil {
			t.Fatal(err)
		}
		if err := e.SubmitLeafBatch(lhB, []packet.Packet{pkt(i)}); err != nil {
			t.Fatal(err)
		}
		if err := e.SubmitLeafBatch(lhB, []packet.Packet{pkt(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}

	stA, err := e.NodeStats("tenant", 1)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := e.NodeStats("tenant", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := stA.AcceptedPackets + stA.DroppedPackets; got != rounds*8 {
		t.Errorf("subA saw %d packets, want %d", got, rounds*8)
	}
	if got := stB.AcceptedPackets + stB.DroppedPackets; got != rounds*2 {
		t.Errorf("subB saw %d packets, want %d", got, rounds*2)
	}
	// The root's subtree accounting covers every admitted packet; drops
	// stay attributed to the node that rejected (here the entry leaves,
	// once they outrun their assured shares).
	root, err := e.NodeStats("tenant", 0)
	if err != nil {
		t.Fatal(err)
	}
	if root.AcceptedPackets != stA.AcceptedPackets+stB.AcceptedPackets {
		t.Errorf("root accepted %d, leaves accepted %d+%d",
			root.AcceptedPackets, stA.AcceptedPackets, stB.AcceptedPackets)
	}
	if got := emitted.Load(); got != root.AcceptedPackets {
		t.Errorf("emitted %d packets, tree accepted %d", got, root.AcceptedPackets)
	}

	// Node-addressed control errors carry the sentinels through the
	// in-band path.
	if _, err := e.NodeStats("tenant", 99); !errors.Is(err, ErrBadNode) {
		t.Errorf("NodeStats(99): %v, want ErrBadNode", err)
	}
	if err := e.SetNodeRate("tenant", 1, units.Mbps); !errors.Is(err, ErrNotReconfigurable) {
		t.Errorf("SetNodeRate(assured leaf): %v, want ErrNotReconfigurable", err)
	}
}

// TestSetNodeRateInBand: a hot interior ceiling change lands between
// bursts and the enforcement rate actually changes.
func TestSetNodeRateInBand(t *testing.T) {
	clock := &fakeClock{step: time.Millisecond}
	e := New(Config{Shards: 1, Clock: clock.now})
	defer e.Close()
	tr := newTestTree()
	h, err := e.Add("tenant", tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	lh, _ := e.Leaf(h, 1)
	if err := e.SetNodeRate("tenant", 0, 2*units.Mbps); err != nil {
		t.Fatal(err)
	}
	// Push well past the new 2 Mbps root ceiling; the barrier in
	// NodeStats guarantees we read post-burst state.
	for i := 0; i < 4000; i++ {
		if err := e.SubmitLeafBatch(lh, []packet.Packet{pkt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.NodeStats("tenant", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Virtual time advances 1 ms per engine clock read; the run spans at
	// most a few seconds of virtual time. With the ceiling at 2 Mbps the
	// tree cannot have accepted anywhere near all 4000 MSS packets
	// (~48 Mbit); 10 s of 2 Mbps + burst is a generous upper bound.
	bound := (2 * units.Rate(units.Mbps)).Bytes(10*time.Second) + float64(units.BDPBytes(20*units.Mbps, 100*time.Millisecond))
	if f := float64(st.AcceptedBytes); f > bound {
		t.Errorf("accepted %d bytes after SetNodeRate(2 Mbps), want ≤ %.0f", st.AcceptedBytes, bound)
	}
	if st.DroppedPackets == 0 {
		t.Error("no drops after tightening the root ceiling")
	}
}

// TestNodeMetricsExport: per-node counters export with node and path
// labels; flat aggregates export as node 0.
func TestNodeMetricsExport(t *testing.T) {
	e := New(Config{Shards: 1, Clock: func() time.Duration { return 0 }})
	defer e.Close()
	h, err := e.Add("tenant", newTestTree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lh, _ := e.Leaf(h, 1)
	for i := 0; i < 10; i++ {
		if err := e.SubmitLeafBatch(lh, []packet.Packet{pkt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := e.NodeMetrics("tenant")
	if err != nil {
		t.Fatal(err)
	}
	var nodes, exported float64
	var sawPath bool
	var accA float64
	for _, f := range snap.Families {
		switch f.Name {
		case "bcpqp_tree_nodes":
			nodes = f.Samples[0].Value
		case "bcpqp_tree_nodes_exported":
			exported = f.Samples[0].Value
		case "bcpqp_node_accepted_packets_total":
			for _, s := range f.Samples {
				var node, path string
				for _, l := range s.Labels {
					switch l.Name {
					case "node":
						node = l.Value
					case "path":
						path = l.Value
					}
				}
				if path == "link/subA" {
					sawPath = true
					if node != "1" {
						t.Errorf("link/subA exported as node %s", node)
					}
					accA = s.Value
				}
			}
		}
	}
	if nodes != 3 || exported != 3 {
		t.Errorf("tree_nodes = %v exported = %v, want 3/3", nodes, exported)
	}
	if !sawPath {
		t.Error("no sample with path label link/subA")
	}
	if accA == 0 {
		t.Error("subA accepted counter is zero after traffic")
	}

	// Flat aggregate: one node-0 row labelled with the aggregate id.
	if _, err := e.Add("flat", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
		t.Fatal(err)
	}
	fsnap, err := e.NodeMetrics("flat")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fsnap.Families {
		if f.Name == "bcpqp_tree_nodes" && f.Samples[0].Value != 1 {
			t.Errorf("flat tree_nodes = %v, want 1", f.Samples[0].Value)
		}
	}
}

// TestTraceNodePath: flight-recorder burst events carry the entry node,
// and TraceDump resolves it to the root→node label path.
func TestTraceNodePath(t *testing.T) {
	c := obs.NewCollector(obs.Options{SampleEvery: 1})
	e := New(Config{Shards: 1, Observer: c, Clock: func() time.Duration { return 0 }})
	defer e.Close()
	h, err := e.Add("tenant", newTestTree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lh, _ := e.Leaf(h, 2)
	if err := e.SubmitLeafBatch(lh, []packet.Packet{pkt(0), pkt(1)}); err != nil {
		t.Fatal(err)
	}
	// Barrier: NodeStats rides the ring behind the burst.
	if _, err := e.NodeStats("tenant", 2); err != nil {
		t.Fatal(err)
	}
	var sawNodeBurst bool
	for _, ev := range e.TraceDump() {
		if ev.Kind == obs.KindBurst && ev.AggID == "tenant" && ev.Node == 2 {
			sawNodeBurst = true
			if ev.NodePath != "link/subB" {
				t.Errorf("burst NodePath = %q, want link/subB", ev.NodePath)
			}
		}
	}
	if !sawNodeBurst {
		t.Error("no node-attributed burst event for tenant node 2")
	}
}

// TestTreeSnapshotThroughEngine: a tree aggregate's state snapshots and
// restores through the engine's BQSN surface like any flat aggregate.
func TestTreeSnapshotThroughEngine(t *testing.T) {
	clock := &fakeClock{step: time.Millisecond}
	e := New(Config{Shards: 1, Clock: clock.now})
	defer e.Close()
	h, err := e.Add("tenant", newTestTree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lh, _ := e.Leaf(h, 1)
	for i := 0; i < 500; i++ {
		if err := e.SubmitLeafBatch(lh, []packet.Packet{pkt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e.NodeStats("tenant", 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot("tenant")
	if err != nil {
		t.Fatal(err)
	}

	// Restore onto a fresh engine hosting an identically configured tree.
	e2 := New(Config{Shards: 1, Clock: clock.now})
	defer e2.Close()
	if _, err := e2.Add("tenant", newTestTree(), nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	after, err := e2.NodeStats("tenant", 0)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("restored node stats %+v, want %+v", after, before)
	}
}

// TestNodePathHelper: path rendering against the tree's own labels.
func TestNodePathHelper(t *testing.T) {
	tr := newTestTree()
	if got := nodePath(tr, 1); got != "link/subA" {
		t.Errorf("nodePath(1) = %q", got)
	}
	if got := nodePath(tr, 0); got != "link" {
		t.Errorf("nodePath(0) = %q", got)
	}
	if got := nodePath(tr, 99); got != "" {
		t.Errorf("nodePath(99) = %q, want empty", got)
	}
	if s := strings.Count(nodePath(tr, 2), "/"); s != 1 {
		t.Errorf("nodePath depth wrong: %q", nodePath(tr, 2))
	}
}
