// Policy-tree configuration for bcpqp-proxy (-tree): a JSON spec file
// describing a whole hierarchy of rate limits — tenant link → plans →
// subscribers — enforced as one aggregate instead of the flat -rate/-scheme
// enforcer. Datagrams are spread over the tree's leaves by source-key hash
// (the same classification a flat multi-queue scheme applies), so each
// leaf's assured rate and every level's ceiling bind per source bucket.
//
// Spec format — a JSON array in topological order (the root first, every
// node after its parent):
//
//	[
//	  {"name": "tenant", "ceiling": {"scheme": "bc-pqp", "rate_mbps": 50, "queues": 16}},
//	  {"name": "gold",   "parent": 0, "ceiling": {"scheme": "policer", "rate_mbps": 20}},
//	  {"name": "alice",  "parent": 1, "assured_mbps": 8},
//	  {"name": "bob",    "parent": 1, "assured_mbps": 8}
//	]
//
// "parent" defaults to 0 (handy: most nodes hang off the root) and must be
// -1 on the first node. "ceiling" is optional per node, as is
// "assured_mbps" (it enables HTB-style borrowing at that node) and
// "burst_bytes" (assured bucket capacity). Ceiling schemes are the proxy's
// bufferless set less fairpolicer, whose per-flow buckets do not make a
// tree stage: policer, policer+, pqp, bc-pqp.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"bcpqp"
)

// treeNodeJSON is one node of the -tree spec file.
type treeNodeJSON struct {
	Name    string `json:"name"`
	Parent  *int   `json:"parent,omitempty"`
	Ceiling *struct {
		Scheme   string  `json:"scheme"`
		RateMbps float64 `json:"rate_mbps"`
		Queues   int     `json:"queues,omitempty"`
	} `json:"ceiling,omitempty"`
	AssuredMbps float64 `json:"assured_mbps,omitempty"`
	BurstBytes  int64   `json:"burst_bytes,omitempty"`
}

// loadTreeSpec reads a -tree JSON file and builds one core's policy tree.
func loadTreeSpec(path string, defaultQueues, cores int) (*bcpqp.PolicyTree, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseTreeSpec(blob, defaultQueues, cores)
}

// parseTreeSpec builds one core's policy tree from spec-file bytes: the
// spec's tree with every rate_mbps, assured_mbps and burst_bytes divided by
// cores (a burst never below the one MSS a bucket must hold), so the cores'
// trees together enforce the spec and each keeps its borrowing ratios.
// Ceiling stages come from the flat -scheme flag's bufferless constructors;
// defaultQueues applies when a ceiling omits "queues".
func parseTreeSpec(blob []byte, defaultQueues, cores int) (*bcpqp.PolicyTree, error) {
	var nodes []treeNodeJSON
	if err := json.Unmarshal(blob, &nodes); err != nil {
		return nil, fmt.Errorf("tree spec: %w", err)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("tree spec: empty")
	}
	share := bcpqp.Mbps / bcpqp.Rate(cores)
	spec := make([]bcpqp.PolicyTreeNode, len(nodes))
	for i, n := range nodes {
		parent := 0
		if i == 0 {
			parent = -1
		}
		if n.Parent != nil {
			parent = *n.Parent
		}
		var stage bcpqp.CascadeStage
		if c := n.Ceiling; c != nil {
			queues := c.Queues
			if queues <= 0 {
				queues = defaultQueues
			}
			enf, err := buildEnforcer(c.Scheme, bcpqp.Rate(c.RateMbps)*share, queues)
			if err != nil {
				return nil, fmt.Errorf("tree spec node %d (%s): %w", i, n.Name, err)
			}
			s, ok := enf.(bcpqp.CascadeStage)
			if !ok {
				return nil, fmt.Errorf("tree spec node %d (%s): scheme %s cannot serve as a tree ceiling",
					i, n.Name, c.Scheme)
			}
			stage = s
		}
		burst := n.BurstBytes
		if burst > 0 {
			burst = max(burst/int64(cores), int64(bcpqp.MSS))
		}
		spec[i] = bcpqp.PolicyTreeNode{
			Name:    n.Name,
			Parent:  parent,
			Stage:   stage,
			Assured: bcpqp.Rate(n.AssuredMbps) * share,
			Burst:   burst,
		}
	}
	tree, err := bcpqp.NewPolicyTree(spec)
	if err != nil {
		return nil, fmt.Errorf("tree spec: %w", err)
	}
	return tree, nil
}
