// Package ptree implements an allocation-free hierarchical policy-tree
// enforcer: one object covering a whole rooted tree of rate limits —
// tenant → plan → subscriber — the shape the paper's operators (ISPs,
// cellular carriers) actually configure; a linear chain of limits
// (subscriber → plan → link) is its degenerate unary case.
//
// # Layout
//
// Everything the datapath touches at a node is one 64-byte, pointer-free
// record — the parent index, the index of the node's ceiling (-1 for none)
// and of the first ceiling on its path to the root, three flag bits, and
// the assured layer's refill rate, capacity, token level, refill clock and
// accepted counters — in one []node indexed by NodeID. A
// burst at a random leaf of a million-leaf tree therefore misses the cache
// once per level, not once per field, and the array holds nothing for the
// garbage collector to scan. What the record leaves out is either derived
// or cold:
//
//   - The token floor (0 for a leaf's guarantee bucket, -burst for an
//     interior ledger) and the configured assured rate (0 or the effective
//     rate) are the interior and own-assured flag bits, recomputed where
//     read.
//   - Ceilings live in a short slice that has a slot only for nodes that
//     have one; names in a sorted index/name pair that has an entry only for
//     named nodes.
//   - The drop counters, written once per burst and read by NodeStats and
//     snapshots, are two n-long side arrays. Leaves is exactly sized.
//
// That is 84 B per node of a million-leaf tree (64 + 16, and 4 per leaf).
//
// A burst pays for its path once. New links each path's ceilings leaf →
// root (a node records the first ceiling on its path, a ceiling slot the
// next one up) and flags the nodes whose path has a ceiling that is not a
// token bucket, so a burst walks its ceilings without resolving them.
// SubmitBatchAt resolves the rest of the node → root path into a plan: the
// assured buckets it charges, each with its floor, in scratch the tree
// sizes at build time to the deepest path. The burst is admitted in place against the plan (each
// Stage ceiling receives &pkts[i], never a copy of the 72-byte packet;
// SubmitAt's single packet goes through a one-slot scratch the tree owns),
// with zero allocations and no per-packet index arithmetic. Every node on
// the path counts the same accepted packets, so a run's accepted packets
// and bytes are tallied once and written to each node when the run
// settles, and its drops per ceiling; one flush at the end of the burst
// writes the loans back, the drop side arrays and the tree's stats.
// Class-routed SubmitBatch finds its runs of packets bound for one leaf in
// the same call that admits them, resolving one plan per run, and its runs
// share the burst's loans and flush.
//
// A token-bucket ceiling (*tbf.Policer) lends the tree its bucket for the
// burst (tbf.Loan), held in the ceiling's slot: the tree opens the loan,
// which refills the bucket, at the first packet that reaches that ceiling,
// reads and charges it as a plain float64 through methods that inline, and
// repays it in the flush with the packets it accepted. A policer may cap
// several nodes, but no two on one path (New refuses that: a packet through
// both would be charged twice); it has one loan, held at the first node's
// slot, which a run through any of them charges. Other ceilings are called
// through enforcer.Stage per packet. A ceiling slot is 88 B: it carries the
// loan and the burst's drops between flushes, and the flush writes back
// each slot a burst opened or dropped at once, from a list New sizes to the
// number of slots.
//
// A run admits against its headroom, which covers both admission layers:
// the lowest of the lent levels on its path less the bytes the run has
// accepted, and of the path's assured-bucket levels less the bytes the run
// owes them. Within one run at one instant a level moves only when a packet
// is accepted, and every accepted packet takes the same bytes from every
// loan and every bucket on the path, so a packet no larger than the
// headroom passes every loan and is covered by its nearest bucket, leaving
// every bucket above its floor — one compare. It is accepted and owed: the
// headroom falls by its size, the run charges its loans the bytes it
// accepted once, when it settles, and pays its buckets what it owes them
// then or when a packet next walks. Any other packet walks the path. It
// tests the loans, unless it fits the lowest lent level less what the run
// has accepted (the lent levels hold until the run settles), in path order,
// opening each loan it reaches: the first ceiling short of it owns the
// drop. It then pays the buckets what the run owes them, so that its cover
// test and commit read their levels, and an accepted walk commits to each
// bucket per packet, with the floor clamps that make borrowing and a pool's
// debt exact, and sets the headroom from the levels it leaves. The headroom
// is unknown until a walk is accepted, and one that borrows leaves it at
// most zero (its leaf bucket is empty; a pool in debt puts it below zero),
// so a run that borrows walks from then on, and a one-packet run, as most
// of a class-routed burst's are, walks and commits its packet as a
// per-packet loop would. All of it is exact: a packet is owed only where it
// fitted, so neither a loan's clamp at empty nor a bucket's floor would
// have fired for it, and whole bytes taken from a level at least that large
// (below 2^53) subtract exactly in any order, so one charge of the owed
// total leaves the bits a charge per packet would. A drop is memoised with
// its size until the next accept, since nothing it depends on moves, so a
// run of equal refused packets costs one compare each; a borrow-layer drop
// is memoised the same way. On a path with a Stage ceiling every packet
// walks, its loans are tested every time, and nothing is memoised.
//
// Nothing is refilled before a packet reaches it. A ceiling's loan opens at
// first reach, and the path's assured buckets are resolved and refilled
// once, by the first packet that passes every ceiling probe — the moments
// the per-packet code would have. Refilling eagerly on entry would move the
// refill clock of a burst dropped whole below it, splitting one r·(d₁+d₂)
// refill into r·d₁ + r·d₂, which differs in the last bit and shows up in
// verdicts and snapshots.
//
// Every entry point defers the flush, so a ceiling Stage that panics
// mid-burst leaves the tree consistent: the run in progress settles, every
// open loan is repaid, and the counters, the drop arrays, the tree's stats,
// the assured buckets and the loans count exactly the packets whose verdict
// was written. The packet in flight is in none of them; only the Stages it
// was committed to before the one that panicked (a packet's Stage commits
// run before its buckets and loans are charged and it is tallied) may have
// counted it.
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
// (accepted ≤ r·Δt + B) holds exactly per interior node. Packet-major
// order holds inside the burst's plan too: packet i's charge to a lent
// bucket or an assured bucket is in the headroom packet i+1 is tested
// against, and the plan's one tally changes only where the per-packet
// counters and charges are summed (whole bytes, so the sums are exact),
// which keeps verdicts, counters, token levels, refill clocks and snapshot
// bytes identical to admitting the burst one packet at a time, and the
// same holds for class-routed SubmitBatch, whose runs share one burst.
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
//
// Within a run, a packet that every bucket on its path holds is neither
// tested nor clamped: it is within the run's headroom (see "Layout"), and
// the run pays the buckets for it later, in one charge. Only a packet that
// must borrow (its leaf bucket short of it), or that meets a pool in debt,
// walks the layer and is charged with the clamps, packet by packet, so
// the borrowing and debt above are exact.
package ptree

import (
	"fmt"
	"slices"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// defaultBurstWindow sizes a defaulted assured bucket or borrow pool: the
// bucket holds this much time at the node's refill rate (with a one-MSS
// floor), the classic "rate × small window" policer sizing.
const defaultBurstWindow = 100 * time.Millisecond

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
	// ceiling at this node. One *tbf.Policer may cap several nodes, but
	// not two on one path: New refuses that.
	Stage enforcer.Stage
	// Assured enables the borrowing layer at this node: the rate its
	// subtree is guaranteed even when siblings are backlogged, and the
	// rate it lends to siblings while idle. Zero disables the layer here
	// (an interior node still pools its children's assured rates).
	Assured units.Rate
	// Burst is the assured bucket (leaf) or borrow pool (interior)
	// capacity in bytes; 0 selects defaultBurstWindow at the node's
	// refill rate. Only meaningful on nodes participating in the assured
	// layer.
	Burst int64
}

// node is one tree node's record: everything admission reads or writes at
// the node, in one cache line with no pointers.
type node struct {
	parent  int32 // -1 = root
	ceiling int32 // index into Tree.ceilings, -1 = no ceiling
	flags   uint32
	above   int32 // the first ceiling on the node → root path (its own, if any), -1 = none

	// Assured/borrow layer. effRate is the node's effective refill rate in
	// bytes/sec: its own assured rate if flagOwn is set, else the sum of
	// its children's effective rates (the lend rate of an interior pool).
	// effRate == 0 means the node does not participate, and then burst and
	// tokens are 0 too.
	effRate float64
	burst   float64 // bucket/pool capacity, bytes
	tokens  float64
	clock   units.Clock // the refill clock

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
	// flagStages marks a node whose path to the root has a ceiling that is
	// not a token bucket, so admission calls it through enforcer.Stage.
	flagStages
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

// ceiling is one node's ceiling: the Stage, and what a burst has tallied at
// it, written back and zeroed when the burst ends (see flush).
type ceiling struct {
	stage  enforcer.Stage
	lender *tbf.Policer // stage, when it is a token bucket that lends its bucket
	loan   *ceiling     // the slot holding lender's loan: the first with that policer
	up     *ceiling     // the next ceiling on the path to the root, nil = none
	node   int32        // the node it caps, which owns its drops

	open   bool     // loan slots: the loan is out
	tokens tbf.Loan // loan slots: the lent bucket
	// Packets charged to the loan (loan slots), and drops here.
	accPkts, accBytes int64
	drpPkts, drpBytes int64
}

// Tree is a policy-tree enforcer. It implements enforcer.TreeEnforcer,
// enforcer.Enforcer (leaf-routing by packet class), enforcer.StatsReader,
// enforcer.Reconfigurer (targeting the root) and enforcer.Snapshotter. Not
// safe for concurrent use.
type Tree struct {
	nodes    []node
	ceilings []ceiling // only the nodes that have one; see node.ceiling

	// Side arrays, n long, written once per burst. Drops are attributed to
	// the rejecting node (the first ceiling that refused, or the entry node
	// for borrow-layer rejections).
	drpPkts  []int64
	drpBytes []int64

	leaves []enforcer.NodeID

	// Names of the named nodes only, sorted by node index.
	namedIdx []int32
	names    []string

	stats enforcer.Stats

	plan    plan             // the run's resolved path; its buckets' cap is the deepest path
	touched []*ceiling       // the ceilings a burst has opened or dropped at, each once, for flush
	one     [1]packet.Packet // SubmitAt's one-packet burst: a stack array would escape
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
		nodes:    make([]node, n),
		drpPkts:  make([]int64, n),
		drpBytes: make([]int64, n),
	}
	// Forward pass, parents before children: validate, write each record's
	// configuration, mark parents interior, and measure depth.
	depth := make([]int32, n) // build-time scratch
	maxDepth, interiors := int32(0), 0
	var holders map[*tbf.Policer]int32 // each policer's first slot, which holds its loan
	var ups []int32                    // each ceiling's next one up, -1 = none
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
		nd := node{parent: int32(s.Parent), ceiling: -1, above: -1}
		if i > 0 {
			nd.above = t.nodes[s.Parent].above
		}
		if own := s.Assured.BytesPerSecond(); own > 0 {
			nd.effRate, nd.flags = own, flagOwn
		}
		if s.Stage != nil {
			c := ceiling{stage: s.Stage, node: int32(i)}
			if lender, _ := s.Stage.(*tbf.Policer); lender != nil {
				c.lender = lender
				if _, seen := holders[lender]; seen {
					for k := nd.above; k >= 0; k = ups[k] {
						if up := &t.ceilings[k]; up.lender == lender {
							return nil, fmt.Errorf("ptree: node %d: token bucket already caps node %d on its path", i, up.node)
						}
					}
				} else {
					if holders == nil {
						holders = make(map[*tbf.Policer]int32)
					}
					holders[lender] = int32(len(t.ceilings))
				}
			} else {
				nd.flags |= flagStages
			}
			nd.ceiling = int32(len(t.ceilings))
			t.ceilings = append(t.ceilings, c)
			ups = append(ups, nd.above)
			nd.above = nd.ceiling
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
			nd.flags |= p.flags & flagStages
		}
		maxDepth = max(maxDepth, depth[i])
		t.nodes[i] = nd
	}
	// Reverse pass, children before parents: a node's effective rate is
	// final when the pass reaches it (its own, or what its children have
	// pooled into it, in descending index order), so its bucket can be
	// sized — configured, or what the rate accrues over defaultBurstWindow
	// on the refill clock, which starts at 0 — and filled, as deployed
	// policers start.
	t.leaves = make([]enforcer.NodeID, n-interiors)
	leaf := len(t.leaves)
	for i := n - 1; i >= 0; i-- {
		nd := &t.nodes[i]
		nd.clock.Start(0)
		if b := spec[i].Burst; b > 0 {
			if nd.effRate == 0 {
				return nil, fmt.Errorf("ptree: node %d: burst %d without an assured rate in its subtree", i, b)
			}
			nd.burst = float64(b)
		} else if nd.effRate > 0 {
			nd.burst = max(nd.clock.Peek(defaultBurstWindow, units.Rate(8*nd.effRate), 0), units.MSS)
		}
		nd.tokens = nd.burst
		if !nd.interior() {
			leaf--
			t.leaves[leaf] = enforcer.NodeID(i)
		}
		if nd.parent >= 0 {
			if p := &t.nodes[nd.parent]; !p.own() {
				p.effRate += nd.effRate
			}
		}
	}
	// Link each ceiling to the next one up; a policer at several nodes
	// lends one loan, held by its first slot.
	for k := range t.ceilings {
		c := &t.ceilings[k]
		if u := ups[k]; u >= 0 {
			c.up = &t.ceilings[u]
		}
		if c.lender != nil {
			c.loan = &t.ceilings[holders[c.lender]]
		}
	}
	t.plan.buckets = make([]charge, maxDepth)
	t.touched = make([]*ceiling, 0, len(t.ceilings))
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
	return t.ceilings[n.ceiling].stage
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

var _ enforcer.TreeEnforcer = (*Tree)(nil)
var _ enforcer.StatsReader = (*Tree)(nil)
