package mbox

import (
	"strings"
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

// TestNodeMetricsExport: per-node counters export with node and path
// labels; flat aggregates export as node 0. The tree routes every packet
// to a leaf by class: pkt(0) to subA, pkt(1) to subB, the rest by flow hash.
func TestNodeMetricsExport(t *testing.T) {
	e := New(Config{Shards: 1, Clock: func() time.Duration { return 0 }})
	defer e.Close()
	h, err := e.Add("tenant", newTestTree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.SubmitBatch(h, []packet.Packet{pkt(i)}); err != nil {
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

// TestTraceNodePath: a tree aggregate's flight-recorder burst events carry
// the aggregate, which TraceDump resolves to its id, and no node: a burst
// enters the tree whole and is routed leaf by leaf, so the path it took is
// in NodeMetrics, not in the trace.
func TestTraceNodePath(t *testing.T) {
	c := obs.NewCollector(obs.Options{SampleEvery: 1})
	e := New(Config{Shards: 1, Observer: c, Clock: func() time.Duration { return 0 }})
	defer e.Close()
	h, err := e.Add("tenant", newTestTree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch(h, []packet.Packet{pkt(0), pkt(1)}); err != nil {
		t.Fatal(err)
	}
	var bursts int
	for _, ev := range e.TraceDump() {
		if ev.Kind == obs.KindBurst {
			bursts++
			if ev.AggID != "tenant" || ev.A+ev.B != 2 {
				t.Errorf("burst event %+v, want tenant's, two packets", ev)
			}
		}
	}
	if bursts != 1 {
		t.Errorf("%d burst events, want 1", bursts)
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
