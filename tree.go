package bcpqp

import (
	"bcpqp/internal/enforcer"
	"bcpqp/internal/ptree"
)

// PolicyTree is an allocation-free hierarchical policy-tree enforcer: one
// object covering a whole rooted tree of rate limits — tenant → plan →
// subscriber — with per-node ceilings (phantom queues or token buckets)
// enforced top to bottom and an HTB-style assured-rate layer that lets an
// active subscriber borrow an idle sibling's unused share. A node is one
// 64-byte pointer-free record plus 20 B of side arrays (84 B per node
// measured, no per-node heap objects), so a million-leaf tree is 84 MB in a
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

// NodeID addresses one node of a PolicyTree; nodes are dense indices
// assigned in spec order.
type NodeID = enforcer.NodeID

// Root is node 0, the root of every tree.
const Root = enforcer.Root

// NoNode is the invalid NodeID: PolicyTree.Parent's answer for the root.
const NoNode = enforcer.NoNode

// ErrBadNode reports a node address outside the tree. Test with errors.Is.
var ErrBadNode = enforcer.ErrBadNode
