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

// Root is node 0, the root of every TreeEnforcer.
const Root NodeID = 0

// ErrBadNode reports a node identifier outside a tree enforcer's node
// range. Test with errors.Is.
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
//
// pkt is the caller's packet, passed by reference so that a tree burst does
// not copy it into every call. It is valid only for the duration of the
// call: a stage must neither retain nor modify it.
//
// A *tbf.Policer ceiling is not called through this interface inside a
// policy-tree burst: it lends the tree its bucket (tbf.Loan) for the burst,
// which the tree tests and charges as a plain float64 with the arithmetic
// of the policer's own Probe and Commit, and hands back at the end of the
// burst. Every other Stage, a phantom queue among them, is called per
// packet.
type Stage interface {
	// Probe reports whether the packet would be admitted at now, without
	// changing admission state (time-driven work — lazy drains, token
	// refills — may advance).
	Probe(now time.Duration, pkt *packet.Packet) bool
	// Commit admits a packet previously accepted by Probe at the same
	// virtual time.
	Commit(now time.Duration, pkt *packet.Packet)
}

// TreeEnforcer is what an engine reads of a hierarchical policy enforcer,
// one enforcer object covering a whole rooted tree of rate limits (tenant →
// plan → subscriber): its topology and per-node accounting. Traffic reaches
// the tree through its Enforcer methods, which route each packet to a leaf;
// the tree itself (*ptree.Tree) also offers submission at a chosen node.
//
// Node 0 is the root (Root); Parent is the source of truth for the rest of
// the topology. The contract is implemented by *ptree.Tree (the flat-array
// policy tree), whose constructor rejects any spec whose node 0 is not the
// root.
//
// Like Enforcer, a TreeEnforcer is single-threaded: NodeStats must be
// serialized with submission onto one execution domain (the mbox engine
// runs it under the owning shard's occupancy word).
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
	// metrics labels. It may allocate; control plane only.
	NodeLabel(node NodeID) string
	// NodeStats returns one node's own accounting. For interior nodes
	// this covers the node's whole subtree (every packet admitted along a
	// path through it). ErrBadNode for out-of-range nodes, ErrNoStats
	// when the node keeps none.
	NodeStats(node NodeID) (Stats, error)
}
