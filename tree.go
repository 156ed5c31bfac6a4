package bcpqp

import (
	"bcpqp/internal/enforcer"
	"bcpqp/internal/mbox"
	"bcpqp/internal/ptree"
)

// PolicyTree is an allocation-free hierarchical policy-tree enforcer: one
// object covering a whole rooted tree of rate limits — tenant → plan →
// subscriber — with per-node ceilings (phantom queues or token buckets)
// enforced top to bottom and an HTB-style assured-rate layer that lets an
// active subscriber borrow an idle sibling's unused share. A node is one
// 64-byte pointer-free record plus 24 B of side arrays (88 B per node
// measured, no per-node heap objects), so a million-leaf tree is 88 MB in a
// handful of contiguous slices and steady-state batch submission performs
// zero allocations. See internal/ptree for the layout and the admission
// semantics.
type PolicyTree = ptree.Tree

// PolicyTreeNode describes one node of a PolicyTree spec: its parent index
// (specs are topologically ordered, root first), an optional ceiling
// Stage, and an optional assured rate enabling the borrowing layer.
type PolicyTreeNode = ptree.NodeSpec

// NewPolicyTree builds a policy tree from a topologically ordered spec.
func NewPolicyTree(spec []PolicyTreeNode) (*PolicyTree, error) { return ptree.New(spec) }

// MustNewPolicyTree is NewPolicyTree that panics on error.
func MustNewPolicyTree(spec []PolicyTreeNode) *PolicyTree { return ptree.MustNew(spec) }

// TreeEnforcer is the node-addressed enforcement contract implemented by
// *PolicyTree: packet submission at a chosen node, and per-node stats,
// reconfiguration and snapshot access. A Middlebox aggregate whose enforcer
// implements it (Middlebox.Add detects this) exposes all of it through
// per-node handles and control calls.
type TreeEnforcer = enforcer.TreeEnforcer

// NodeID addresses one node of a TreeEnforcer; nodes are dense indices
// assigned in spec order (the root is 0).
type NodeID = enforcer.NodeID

// NoNode is the invalid NodeID.
const NoNode = enforcer.NoNode

// ErrBadNode reports a node address outside the tree. Test with errors.Is.
var ErrBadNode = enforcer.ErrBadNode

// LeafHandle addresses one tree node of a Middlebox aggregate on the
// datapath: mint with Middlebox.Leaf, submit with SubmitLeafBatch. Removing the aggregate invalidates every LeafHandle of
// its tree at once.
type LeafHandle = mbox.LeafHandle

// NoLeafHandle is the invalid leaf handle returned alongside errors.
var NoLeafHandle = mbox.NoLeafHandle
