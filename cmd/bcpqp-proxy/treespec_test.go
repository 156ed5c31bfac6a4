package main

import (
	"fmt"
	"net/http"
	"strings"
	"syscall"
	"testing"

	"bcpqp"
	"bcpqp/internal/netio"
)

const demoTreeSpec = `[
  {"name": "tenant", "ceiling": {"scheme": "policer", "rate_mbps": 50}},
  {"name": "gold",   "parent": 0, "ceiling": {"scheme": "bc-pqp", "rate_mbps": 20, "queues": 8}},
  {"name": "alice",  "parent": 1, "assured_mbps": 8},
  {"name": "bob",    "parent": 1, "assured_mbps": 8}
]`

func TestParseTreeSpec(t *testing.T) {
	tree, err := parseTreeSpec([]byte(demoTreeSpec), 16, 1)
	if err != nil {
		t.Fatalf("parseTreeSpec: %v", err)
	}
	if tree.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", tree.NumNodes())
	}
	if tree.NodeLabel(1) != "gold" || tree.Parent(2) != 1 {
		t.Errorf("topology: label(1)=%q parent(2)=%d", tree.NodeLabel(1), tree.Parent(2))
	}
	if _, eff := tree.AssuredRate(1); eff != 16*bcpqp.Mbps {
		t.Errorf("gold lend rate = %v, want 16 Mbps", eff)
	}
	// One of four cores' trees: the same shape at a quarter of every rate,
	// and a burst cut no lower than the one MSS a bucket must hold.
	quarter, err := parseTreeSpec([]byte(`[
	  {"name": "tenant", "ceiling": {"scheme": "policer", "rate_mbps": 50}},
	  {"name": "alice", "assured_mbps": 8, "burst_bytes": 40000},
	  {"name": "bob",   "assured_mbps": 8, "burst_bytes": 2000}
	]`), 16, 4)
	if err != nil {
		t.Fatalf("parseTreeSpec at cores=4: %v", err)
	}
	if own, eff := quarter.AssuredRate(1); own != 2*bcpqp.Mbps || eff != 2*bcpqp.Mbps {
		t.Errorf("alice on one of four cores: assured %v / %v, want 2 Mbps", own, eff)
	}
	if _, eff := quarter.AssuredRate(0); eff != 4*bcpqp.Mbps {
		t.Errorf("tenant lend rate on one of four cores = %v, want 4 Mbps", eff)
	}

	bad := []struct{ name, spec string }{
		{"not json", `{`},
		{"empty", `[]`},
		{"unknown scheme", `[{"name": "r", "ceiling": {"scheme": "nope", "rate_mbps": 5}}]`},
		{"buffering scheme", `[{"name": "r", "ceiling": {"scheme": "shaper", "rate_mbps": 5}}]`},
		{"root with parent", `[{"name": "r", "parent": 3}]`},
		{"forward parent", `[{"name": "r"}, {"name": "c", "parent": 2}, {"name": "d", "parent": 1}]`},
		{"negative assured", `[{"name": "r", "assured_mbps": -1}]`},
	}
	for _, tc := range bad {
		if _, err := parseTreeSpec([]byte(tc.spec), 16, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLoadTreeSpecMissingFile(t *testing.T) {
	if _, err := loadTreeSpec(t.TempDir()+"/nope.json", 16, 1); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

// TestServeTreeAggregate runs the proxy over a policy tree, on one core and
// on two: datagrams relay through the tree's leaf-routed datapath, and the
// admin /metrics/tree endpoint exports every core's per-node counters with
// path labels.
func TestServeTreeAggregate(t *testing.T) {
	for _, cores := range []int{1, 2} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			if cores > 1 && !netio.SupportsBatch() {
				t.Skip("several cores need SO_REUSEPORT")
			}
			forward, sunk := startSink(t, nil)
			p := startServe(t, proxyOpts{
				forward: forward, cores: cores, treePath: writeSpec(t, demoTreeSpec), admin: adminListener(t),
			})
			conn := p.dial(t)
			payload := make([]byte, 600)
			for i := 0; i < 50; i++ {
				if _, err := conn.Write(payload); err != nil {
					t.Fatal(err)
				}
			}
			// The tree datapath must actually relay: wait for sink bytes.
			waitFor(t, "traffic at the sink through the tree datapath", func() bool { return sunk.Load() > 0 })

			status, text := p.get(t, "/metrics/tree")
			if status != http.StatusOK {
				t.Fatalf("/metrics/tree status %d: %s", status, text)
			}
			if n := strings.Count(text, "# TYPE bcpqp_tree_nodes gauge"); n != 1 {
				t.Errorf("/metrics/tree declares bcpqp_tree_nodes %d times, want once:\n%s", n, text)
			}
			for i := 0; i < cores; i++ {
				want := fmt.Sprintf(`aggregate=%q,node="1",path="tenant/gold"`, coreAggregate(i, cores))
				if !strings.Contains(text, want) {
					t.Errorf("/metrics/tree missing %s:\n%s", want, text)
				}
			}
			p.stop(t, syscall.SIGTERM)
		})
	}
}
