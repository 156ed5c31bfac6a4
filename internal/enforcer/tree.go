package enforcer

import (
	"errors"
	"time"

	"bcpqp/internal/packet"
)

// NodeID addresses one node inside a TreeEnforcer. Node identifiers are
// dense small integers in [0, NumNodes): tree enforcers lay their nodes out
// in flat arrays and a NodeID is the index into them, so node addressing on
// the datapath is an array offset, never a map lookup.
type NodeID int32

// NoNode is the invalid node identifier. It doubles as the "no node
// attribution" value on datapath structures whose zero value must not alias
// node 0.
const NoNode NodeID = -1

// ErrBadNode reports a node identifier outside a tree enforcer's node
// range (or one that is structurally invalid for the operation, e.g.
// addressing node 1 of a flat single-node aggregate). Test with errors.Is.
var ErrBadNode = errors.New("enforcer: no such node")

// ErrNotReconfigurable reports a reconfiguration against a node (or whole
// enforcer) that does not implement Reconfigurer. Test with errors.Is.
var ErrNotReconfigurable = errors.New("enforcer: not reconfigurable")

// ErrNotSnapshottable reports a snapshot operation against a node (or whole
// enforcer) that does not implement Snapshotter. Test with errors.Is.
var ErrNotSnapshottable = errors.New("enforcer: not snapshottable")

// ErrNoStats reports a statistics read against a node (or whole enforcer)
// that exposes none. Test with errors.Is.
var ErrNoStats = errors.New("enforcer: no stats")

// Stage is the two-phase admission capability used to compose rate limits
// hierarchically (policy trees): Probe asks whether a
// packet would be admitted without changing admission state, Commit charges
// a packet every probed level accepted. *phantom.PQP and *tbf.Policer
// implement it. Splitting admission keeps each level's Theorem 1 accounting
// exact: a level is never charged for a packet another level drops.
type Stage interface {
	// Probe reports whether the packet would be admitted at now, without
	// changing admission state (time-driven work — lazy drains, token
	// refills — may advance).
	Probe(now time.Duration, pkt packet.Packet) bool
	// Commit admits a packet previously accepted by Probe at the same
	// virtual time.
	Commit(now time.Duration, pkt packet.Packet)
}

// TreeEnforcer is the composition contract for hierarchical policy
// enforcement: one enforcer object covering a whole rooted tree of rate
// limits (tenant → plan → subscriber), addressed per node.
//
// Traffic enters at a node — normally a leaf — and must be admitted by that
// node and every ancestor up to the root. Submitting at an interior node is
// allowed and enforces only the path from that node upward (traffic already
// aggregated at, say, the plan level). Parent is the source of truth for
// topology.
//
// The contract is implemented by *ptree.Tree (the flat-array policy tree); a
// chain of limits is the degenerate unary tree.
//
// Like Enforcer, a TreeEnforcer is single-threaded: all Submit*At calls and
// all per-node control operations must be serialized onto one execution
// domain (the mbox engine runs them on the owning shard goroutine).
type TreeEnforcer interface {
	// NumNodes returns the node count; valid NodeIDs are [0, NumNodes).
	NumNodes() int
	// Parent returns the parent of node, NoNode for the root, and NoNode
	// for out-of-range nodes.
	Parent(node NodeID) NodeID
	// IsLeaf reports whether node is a leaf (a normal traffic ingress
	// point); false for out-of-range nodes.
	IsLeaf(node NodeID) bool
	// NodeLabel returns a stable human-readable name for the node, for
	// metrics labels and trace dumps. It may allocate; control plane only.
	NodeLabel(node NodeID) string

	// SubmitAt enforces one packet along the path node → root at virtual
	// time now. An out-of-range node fails closed: the packet is dropped
	// and counted, never passed unenforced.
	SubmitAt(now time.Duration, node NodeID, pkt packet.Packet) Verdict
	// SubmitBatchAt is the burst path of SubmitAt: all packets enter at
	// the same node and virtual time, verdicts is the out-parameter (at
	// least len(pkts) capacity). Verdicts are byte-identical to calling
	// SubmitAt per packet in order.
	SubmitBatchAt(now time.Duration, node NodeID, pkts []packet.Packet, verdicts []Verdict)

	// NodeStats returns one node's own accounting. For interior nodes
	// this covers the node's whole subtree (every packet admitted along a
	// path through it). ErrBadNode for out-of-range nodes, ErrNoStats
	// when the node keeps none.
	NodeStats(node NodeID) (Stats, error)
	// NodeReconfigurer returns the live-reconfiguration surface of one
	// node. ErrBadNode for out-of-range nodes, ErrNotReconfigurable when
	// the node's mechanism cannot be reconfigured in place.
	NodeReconfigurer(node NodeID) (Reconfigurer, error)
	// NodeSnapshotter returns the warm-restart surface of one node.
	// ErrBadNode for out-of-range nodes, ErrNotSnapshottable when the
	// node's mechanism cannot serialize its state.
	NodeSnapshotter(node NodeID) (Snapshotter, error)
}
