// Package ptree implements an allocation-free hierarchical policy-tree
// enforcer: one object covering a whole rooted tree of rate limits —
// tenant → plan → subscriber — the shape the paper's operators (ISPs,
// cellular carriers) actually configure; a linear chain of limits
// (subscriber → plan → link) is its degenerate unary case.
//
// # Layout
//
// Everything the datapath touches at a node is one 64-byte, pointer-free
// record — parent and next-sibling indices, the index of the node's ceiling
// (-1 for none), two flag bits, and the assured layer's refill rate,
// capacity, token level, refill clock and accepted counters — in one []node
// indexed by NodeID. A burst at a random leaf of a million-leaf tree
// therefore misses the cache once per level, not once per field, and the
// array holds nothing for the garbage collector to scan. What the record
// leaves out is either derived or cold:
//
//   - The token floor (0 for a leaf's guarantee bucket, -burst for an
//     interior ledger) and the configured assured rate (0 or the effective
//     rate) are the interior and own-assured flag bits, recomputed where
//     read.
//   - Ceilings live in a short []enforcer.Stage that has a slot only for
//     nodes that have one; names in a sorted index/name pair that has an
//     entry only for named nodes.
//   - Side arrays, n long, hold what the accept path never reads: the drop
//     counters (written by the drop path, read by NodeStats and snapshots)
//     and first-child links (control plane only: SetNodeAssured re-deriving
//     a pool's lend rate). Leaves is exactly sized.
//
// That is 88 B per node of a million-leaf tree (64 + 16 + 4, and 4 per
// leaf). SubmitBatchAt resolves the node → root path once per burst into a
// scratch array of record pointers and ceiling interfaces, sized at build
// time to the deepest path, and every packet of the burst works through
// that: zero allocations, no per-packet index arithmetic. Assured buckets
// are refilled once per burst, by the first packet that passes every
// ceiling probe — the moment the per-packet code would have. Refilling
// eagerly on entry would move the refill clock of a burst dropped whole at
// a ceiling, splitting one r·(d₁+d₂) refill into r·d₁ + r·d₂, which differs
// in the last bit and shows up in verdicts and snapshots.
//
// Specs are given in topological order (every parent precedes its
// children), which makes cycles unrepresentable at build time; the snapshot
// decoder re-validates topology independently because its input is
// untrusted.
//
// # Admission
//
// Each node optionally carries a ceiling Stage (enforcer.Stage: a phantom
// queue or token-bucket policer) — the hard cap on its subtree, enforced
// with two-phase, packet-major admission: a packet submitted at a leaf
// probes every ceiling on the leaf → root path (drains and refills advance,
// no admission state changes) and is committed to all of them or none. No
// level is charged for a packet another level drops, and packet i's commit
// is visible to packet i+1's probes, so every level's Theorem 1 bound
// (accepted ≤ r·Δt + B) holds exactly per interior node.
//
// # Borrowing
//
// On top of the ceilings sits an HTB-style assured-rate layer (after
// HTBQueue, arXiv 2109.12879). A leaf with Assured > 0 owns a guarantee
// bucket refilled at its assured rate and clamped at zero; an interior
// node carries a borrow-pool ledger refilled at its own assured rate if
// set, else at the sum of its children's effective rates (its "lend
// rate") — the bandwidth its subtree was promised. Admission requires
// the packet's size be covered cumulatively by the positive buckets
// along its path, nearest first; a packet that cannot be covered is over
// its subtree's share with no idle bandwidth to borrow, and is dropped
// at the entry node. On accept, every assured node on the path is
// charged the full packet size — but leaf guarantee buckets clamp at
// zero while pool ledgers may run into debt (floored at -burst). The
// debt is what makes borrowing exact: a child spending its own guarantee
// still charges the pool (whose lend rate already counts that child's
// share), so the pool's level tracks pooled income minus subtree
// consumption and goes positive — lendable — only while some descendant
// underuses its share. An idle child's unused assured rate is exactly
// what the pool collects, released for siblings to borrow; a lone busy
// child tops out at the pool's lend rate instead of double-dipping its
// own bucket on top of it. Borrowing cascades: when a whole plan's
// subscribers underuse, the level above collects the slack and lends it
// across plans, so a subtree may exceed its own lend rate by drawing an
// ancestor pool's surplus — its ceiling, not its lend rate, is the hard
// cap. A pool bypassed that way sinks to its -burst debt floor and stops
// lending until demand recedes and its income repays the debt. Ceilings
// always bind above the borrow layer, so borrowing never lets a subtree
// exceed any ancestor's ceiling.
package ptree

import (
	"fmt"
	"slices"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/units"
)

// DefaultBurstWindow sizes a defaulted assured bucket or borrow pool: the
// bucket holds this much time at the node's refill rate (with a one-MSS
// floor), the classic "rate × small window" policer sizing.
const DefaultBurstWindow = 100 * time.Millisecond

// NodeSpec describes one node of a policy tree.
type NodeSpec struct {
	// Name optionally labels the node for metrics and traces; defaults to
	// "node<i>".
	Name string
	// Parent is the index of the node's parent in the spec slice, -1 for
	// the root. Specs are topologically ordered: the root is spec[0] and
	// every parent index is smaller than its child's.
	Parent int
	// Stage is the node's ceiling — the hard cap on its subtree's rate
	// (a *phantom.PQP, *tbf.Policer, or any enforcer.Stage). Nil means no
	// ceiling at this node.
	Stage enforcer.Stage
	// Assured enables the borrowing layer at this node: the rate its
	// subtree is guaranteed even when siblings are backlogged, and the
	// rate it lends to siblings while idle. Zero disables the layer here
	// (an interior node still pools its children's assured rates).
	Assured units.Rate
	// Burst is the assured bucket (leaf) or borrow pool (interior)
	// capacity in bytes; 0 selects DefaultBurstWindow at the node's
	// refill rate. Only meaningful on nodes participating in the assured
	// layer.
	Burst int64
}

// node is one tree node's record: everything admission reads or writes at
// the node, in one cache line with no pointers.
type node struct {
	parent  int32 // -1 = root
	next    int32 // next sibling, -1 = last; control plane only
	ceiling int32 // index into Tree.ceilings, -1 = no ceiling
	flags   uint32

	// Assured/borrow layer. effRate is the node's effective refill rate in
	// bytes/sec: its own assured rate if flagOwn is set, else the sum of
	// its children's effective rates (the lend rate of an interior pool).
	// effRate == 0 means the node does not participate, and then burst and
	// tokens are 0 too.
	effRate  float64
	burst    float64 // bucket/pool capacity, bytes
	tokens   float64
	lastFill time.Duration

	// Admitted traffic: interior nodes see their whole subtree's (every
	// packet on a path through them).
	accPkts  int64
	accBytes int64
}

const (
	// flagInterior marks a node with children. Its bucket is a borrow-pool
	// ledger that may run into debt down to -burst; a leaf's guarantee
	// bucket clamps at zero.
	flagInterior uint32 = 1 << iota
	// flagOwn marks a node whose assured rate is configured rather than
	// pooled from its children: the configured rate is then effRate.
	flagOwn
)

func (n *node) interior() bool { return n.flags&flagInterior != 0 }
func (n *node) own() bool      { return n.flags&flagOwn != 0 }

// floor is the lowest token level a commit may leave behind.
func (n *node) floor() float64 {
	if n.interior() {
		return -n.burst
	}
	return 0
}

// defaultBurst sizes a bucket whose spec gave none: DefaultBurstWindow at
// the refill rate, and never less than one MSS.
func defaultBurst(effRate float64) float64 {
	return max(effRate*DefaultBurstWindow.Seconds(), units.MSS)
}

// hop is one step of a resolved node → root path: what admission needs from
// the tree at that node, looked up once per burst.
type hop struct {
	n     *node
	stage enforcer.Stage // the node's ceiling, nil = none
	idx   int32          // the node's index, for the drop counters
}

// Tree is a policy-tree enforcer. It implements enforcer.TreeEnforcer,
// enforcer.Enforcer (leaf-routing by packet class), enforcer.BatchSubmitter,
// enforcer.StatsReader, enforcer.Reconfigurer (targeting the root) and
// enforcer.Snapshotter. Not safe for concurrent use.
type Tree struct {
	nodes    []node
	ceilings []enforcer.Stage // only the nodes that have one; see node.ceiling

	// Side arrays, n long: what the accept path never reads. Drops are
	// attributed to the rejecting node (the first ceiling that refused, or
	// the entry node for borrow-layer rejections).
	drpPkts    []int64
	drpBytes   []int64
	firstChild []int32 // -1 = leaf; the head of the node.next chain

	leaves []enforcer.NodeID

	// Names of the named nodes only, sorted by node index.
	namedIdx []int32
	names    []string

	stats enforcer.Stats

	path []hop // node → root scratch, cap = the deepest path; reused per burst
}

// New builds a policy tree from a topologically ordered spec: spec[0] is
// the root (Parent == -1) and every other node's Parent precedes it. The
// ordering makes cyclic or multi-root specs unrepresentable.
func New(spec []NodeSpec) (*Tree, error) {
	n := len(spec)
	if n == 0 {
		return nil, fmt.Errorf("ptree: empty spec")
	}
	if spec[0].Parent != -1 {
		return nil, fmt.Errorf("ptree: spec[0] must be the root (Parent -1, got %d)", spec[0].Parent)
	}
	t := &Tree{
		nodes:      make([]node, n),
		drpPkts:    make([]int64, n),
		drpBytes:   make([]int64, n),
		firstChild: make([]int32, n),
	}
	// Forward pass, parents before children: validate, write each record's
	// configuration, mark parents interior, and measure depth.
	depth := make([]int32, n) // build-time scratch
	maxDepth, interiors := int32(0), 0
	for i := range spec {
		s := &spec[i]
		if i > 0 && (s.Parent < 0 || s.Parent >= i) {
			return nil, fmt.Errorf("ptree: node %d: parent %d not topologically ordered (want [0,%d))",
				i, s.Parent, i)
		}
		if s.Assured < 0 {
			return nil, fmt.Errorf("ptree: node %d: negative assured rate %v", i, s.Assured)
		}
		if s.Burst < 0 {
			return nil, fmt.Errorf("ptree: node %d: negative burst %d", i, s.Burst)
		}
		if s.Burst > 0 && s.Burst < units.MSS {
			return nil, fmt.Errorf("ptree: node %d: burst %d below one MSS", i, s.Burst)
		}
		nd := node{parent: int32(s.Parent), next: -1, ceiling: -1}
		if own := s.Assured.BytesPerSecond(); own > 0 {
			nd.effRate, nd.flags = own, flagOwn
		}
		if s.Stage != nil {
			nd.ceiling = int32(len(t.ceilings))
			t.ceilings = append(t.ceilings, s.Stage)
		}
		if s.Name != "" {
			t.namedIdx = append(t.namedIdx, int32(i))
			t.names = append(t.names, s.Name)
		}
		depth[i] = 1
		if i > 0 {
			p := &t.nodes[s.Parent]
			if !p.interior() {
				p.flags |= flagInterior
				interiors++
			}
			depth[i] = depth[s.Parent] + 1
		}
		maxDepth = max(maxDepth, depth[i])
		t.nodes[i] = nd
		t.firstChild[i] = -1
	}
	// Reverse pass, children before parents. Prepending while descending
	// leaves every child list in ascending order; a node's effective rate
	// is final when the pass reaches it (its own, or what its children
	// have pooled into it), so its bucket can be sized — configured, or
	// the default at that rate — and filled, as deployed policers start.
	t.leaves = make([]enforcer.NodeID, n-interiors)
	leaf := len(t.leaves)
	for i := n - 1; i >= 0; i-- {
		nd := &t.nodes[i]
		if b := spec[i].Burst; b > 0 {
			if nd.effRate == 0 {
				return nil, fmt.Errorf("ptree: node %d: burst %d without an assured rate in its subtree", i, b)
			}
			nd.burst = float64(b)
		} else if nd.effRate > 0 {
			nd.burst = defaultBurst(nd.effRate)
		}
		nd.tokens = nd.burst
		if !nd.interior() {
			leaf--
			t.leaves[leaf] = enforcer.NodeID(i)
		}
		if nd.parent >= 0 {
			nd.next = t.firstChild[nd.parent]
			t.firstChild[nd.parent] = int32(i)
			if p := &t.nodes[nd.parent]; !p.own() {
				p.effRate += nd.effRate
			}
		}
	}
	t.path = make([]hop, 0, maxDepth)
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(spec []NodeSpec) *Tree {
	t, err := New(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// inRange reports whether node addresses a node of the tree.
func (t *Tree) inRange(node enforcer.NodeID) bool {
	return int(node) >= 0 && int(node) < len(t.nodes)
}

// errBadNode is the error every node-addressed call returns for an address
// outside the tree.
func (t *Tree) errBadNode(node enforcer.NodeID) error {
	return fmt.Errorf("ptree: node %d out of range [0,%d): %w", node, len(t.nodes), enforcer.ErrBadNode)
}

// NumNodes implements enforcer.TreeEnforcer.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Parent implements enforcer.TreeEnforcer.
func (t *Tree) Parent(node enforcer.NodeID) enforcer.NodeID {
	if !t.inRange(node) {
		return enforcer.NoNode
	}
	return enforcer.NodeID(t.nodes[node].parent)
}

// IsLeaf implements enforcer.TreeEnforcer.
func (t *Tree) IsLeaf(node enforcer.NodeID) bool {
	return t.inRange(node) && !t.nodes[node].interior()
}

// NodeLabel implements enforcer.TreeEnforcer.
func (t *Tree) NodeLabel(node enforcer.NodeID) string {
	if !t.inRange(node) {
		return ""
	}
	if k, ok := slices.BinarySearch(t.namedIdx, int32(node)); ok {
		return t.names[k]
	}
	return fmt.Sprintf("node%d", node)
}

// Leaves returns the tree's leaf nodes in index order. The slice is the
// tree's own: callers must not mutate it.
func (t *Tree) Leaves() []enforcer.NodeID { return t.leaves }

// ceiling returns a node's ceiling stage, nil for none.
func (t *Tree) ceiling(n *node) enforcer.Stage {
	if n.ceiling < 0 {
		return nil
	}
	return t.ceilings[n.ceiling]
}

// AssuredRate returns a node's configured assured rate (zero when the
// borrowing layer is disabled there) and its effective refill rate — for
// interior pools, the lend rate pooled from its children.
func (t *Tree) AssuredRate(node enforcer.NodeID) (configured, effective units.Rate) {
	if !t.inRange(node) {
		return 0, 0
	}
	n := &t.nodes[node]
	effective = units.Rate(n.effRate * 8)
	if n.own() {
		configured = effective
	}
	return configured, effective
}

// NodeStats implements enforcer.TreeEnforcer. Interior nodes account their
// whole subtree's admitted traffic; drops are attributed to the rejecting
// node.
func (t *Tree) NodeStats(node enforcer.NodeID) (enforcer.Stats, error) {
	if !t.inRange(node) {
		return enforcer.Stats{}, t.errBadNode(node)
	}
	return enforcer.Stats{
		AcceptedPackets: t.nodes[node].accPkts,
		AcceptedBytes:   t.nodes[node].accBytes,
		DroppedPackets:  t.drpPkts[node],
		DroppedBytes:    t.drpBytes[node],
	}, nil
}

// EnforcerStats implements enforcer.StatsReader with the tree-level
// (root-subtree) verdict accounting.
func (t *Tree) EnforcerStats() enforcer.Stats { return t.stats }

// fillPath resolves the node → root path into the tree's scratch buffer
// (preallocated to the deepest path: no allocation) and returns it.
func (t *Tree) fillPath(node enforcer.NodeID) []hop {
	p := t.path[:0]
	for v := int32(node); v >= 0; {
		n := &t.nodes[v]
		p = append(p, hop{n: n, stage: t.ceiling(n), idx: v})
		v = n.parent
	}
	return p
}

var _ enforcer.TreeEnforcer = (*Tree)(nil)
var _ enforcer.StatsReader = (*Tree)(nil)
