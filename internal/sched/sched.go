// Package sched models rate-sharing policies as trees and provides the two
// operations every enforcer needs from a policy:
//
//   - Shares: the instantaneous drain rate each class is entitled to, given
//     the set of active classes (used by BC-PQP to estimate r_i* for burst
//     control, §4 of the paper).
//   - Drain: distributing a byte budget among occupied queues the way the
//     analogous shaper would serve them (used by PQP/BC-PQP to batch phantom
//     dequeues, §3 of the paper).
//
// A policy tree is built from three node kinds: leaves (one per traffic
// class), weighted-fair nodes (children share the parent rate in proportion
// to their weights; equal weights give per-flow fairness), and priority
// nodes (children are served in strict order). Nesting nodes expresses the
// paper's hierarchical policies, e.g. two priority groups with weighted
// fairness inside each.
package sched

import (
	"fmt"
	"sync/atomic"
)

// Kind discriminates policy tree nodes.
type Kind int

const (
	// KindLeaf is a terminal node bound to a traffic class.
	KindLeaf Kind = iota
	// KindWeighted shares the parent rate among children by weight.
	KindWeighted
	// KindPriority serves children in strict priority order.
	KindPriority
)

// Node is one vertex of a policy tree. Build trees with Leaf, Weighted and
// Priority, then wrap the root with New.
type Node struct {
	kind     Kind
	class    int
	weight   float64
	children []*Node

	// Preallocated GPS scratch (weighted nodes only), sized by New so
	// the per-packet drain path allocates nothing. Policies are not
	// safe for concurrent use.
	pend   []int64
	allocs []int64
}

// Leaf returns a terminal node for the given traffic class with weight 1.
func Leaf(class int) *Node {
	return &Node{kind: KindLeaf, class: class, weight: 1}
}

// WithWeight sets the node's weight within its (weighted) parent and returns
// the node for chaining. Weights must be positive.
func (n *Node) WithWeight(w float64) *Node {
	n.weight = w
	return n
}

// Weighted returns a node whose children share the parent's rate in
// proportion to their weights. With equal weights this is fair sharing.
func Weighted(children ...*Node) *Node {
	return &Node{kind: KindWeighted, weight: 1, children: children}
}

// Priority returns a node whose children are served in strict priority
// order: children[0] is the highest priority.
func Priority(children ...*Node) *Node {
	return &Node{kind: KindPriority, weight: 1, children: children}
}

// Policy is a validated policy tree over classes [0, NumClasses).
type Policy struct {
	root *Node
	n    int
}

// New validates a policy tree: every class in [0, max] appears exactly once
// as a leaf, weights are positive, and internal nodes have children.
func New(root *Node) (*Policy, error) {
	if root == nil {
		return nil, fmt.Errorf("sched: nil policy root")
	}
	seen := map[int]bool{}
	maxClass := -1
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.weight <= 0 {
			return fmt.Errorf("sched: non-positive weight %v", n.weight)
		}
		switch n.kind {
		case KindLeaf:
			if n.class < 0 {
				return fmt.Errorf("sched: negative class %d", n.class)
			}
			if seen[n.class] {
				return fmt.Errorf("sched: class %d appears twice", n.class)
			}
			seen[n.class] = true
			if n.class > maxClass {
				maxClass = n.class
			}
			return nil
		case KindWeighted, KindPriority:
			if len(n.children) == 0 {
				return fmt.Errorf("sched: internal node with no children")
			}
			if n.kind == KindWeighted {
				n.pend = make([]int64, len(n.children))
				n.allocs = make([]int64, len(n.children))
			}
			for _, c := range n.children {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("sched: unknown node kind %d", n.kind)
		}
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	for c := 0; c <= maxClass; c++ {
		if !seen[c] {
			return nil, fmt.Errorf("sched: class %d missing from policy", c)
		}
	}
	return &Policy{root: root, n: maxClass + 1}, nil
}

// MustNew is New that panics on error, for static policy literals.
func MustNew(root *Node) *Policy {
	p, err := New(root)
	if err != nil {
		panic(err)
	}
	return p
}

// Fair returns a per-flow fairness policy over n classes (equal-weight
// round-robin, the paper's default intra-aggregate policy).
func Fair(n int) *Policy {
	children := make([]*Node, n)
	for i := range children {
		children[i] = Leaf(i)
	}
	return MustNew(Weighted(children...))
}

// WeightedFair returns a weighted fairness policy where class i has weight
// ws[i].
func WeightedFair(ws ...float64) *Policy {
	children := make([]*Node, len(ws))
	for i, w := range ws {
		children[i] = Leaf(i).WithWeight(w)
	}
	return MustNew(Weighted(children...))
}

// StrictPriority returns a strict-priority policy over n classes, class 0
// being the highest priority.
func StrictPriority(n int) *Policy {
	children := make([]*Node, n)
	for i := range children {
		children[i] = Leaf(i)
	}
	return MustNew(Priority(children...))
}

// NumClasses returns the number of traffic classes the policy covers.
func (p *Policy) NumClasses() int { return p.n }

// FlatWeighted returns the per-class weights when the policy is a single
// weighted node over plain leaves — the common fair / weighted-fair case —
// and nil for hierarchical or priority policies. The weights are all an
// enforcer needs of such a policy: it can compute shares and drains from
// them and let the tree go. The slice is read-only; equal weights return
// the slice shared by EqualWeights. A lone leaf is one class of weight 1,
// since its own weight has no sibling to be relative to.
func (p *Policy) FlatWeighted() []float64 {
	root := p.root
	if root.kind == KindLeaf {
		return EqualWeights(1)
	}
	if root.kind != KindWeighted {
		return nil
	}
	out := make([]float64, p.n)
	equal := true
	for _, c := range root.children {
		if c.kind != KindLeaf {
			return nil
		}
		out[c.class] = c.weight
		equal = equal && c.weight == 1
	}
	if equal {
		return EqualWeights(p.n)
	}
	return out
}

// ones backs EqualWeights. Every version of it is all ones and callers keep
// the slice they were handed, so racing replacements are harmless.
var ones atomic.Pointer[[]float64]

// EqualWeights returns the weights of per-flow fairness over n classes: a
// read-only slice of n ones, shared by every caller, so that a table of
// fair-policy enforcers holds one copy between them.
func EqualWeights(n int) []float64 {
	if s := ones.Load(); s != nil && len(*s) >= n {
		return (*s)[:n:n]
	}
	s := make([]float64, max(n, 64))
	for i := range s {
		s[i] = 1
	}
	ones.Store(&s)
	return s[:n:n]
}

// Shares fills out[class] with the drain rate assigned to each class when
// the total service rate is rate and active(class) reports which classes
// currently have traffic. Inactive classes receive 0; their share is
// redistributed as the analogous shaper would (weighted nodes renormalize
// over active children; priority nodes give everything to the highest
// active child).
func (p *Policy) Shares(rate float64, active func(int) bool, out []float64) {
	for i := range out {
		out[i] = 0
	}
	p.shares(p.root, rate, active, out)
}

func (p *Policy) shares(n *Node, rate float64, active func(int) bool, out []float64) {
	switch n.kind {
	case KindLeaf:
		if n.class < len(out) {
			out[n.class] = rate
		}
	case KindWeighted:
		var sum float64
		for _, c := range n.children {
			if p.anyActive(c, active) {
				sum += c.weight
			}
		}
		if sum == 0 {
			return
		}
		for _, c := range n.children {
			if p.anyActive(c, active) {
				p.shares(c, rate*c.weight/sum, active, out)
			}
		}
	case KindPriority:
		for _, c := range n.children {
			if p.anyActive(c, active) {
				p.shares(c, rate, active, out)
				return
			}
		}
	}
}

func (p *Policy) anyActive(n *Node, active func(int) bool) bool {
	if n.kind == KindLeaf {
		return active(n.class)
	}
	for _, c := range n.children {
		if p.anyActive(c, active) {
			return true
		}
	}
	return false
}

// Drain distributes up to budget bytes of service among the occupied queues
// the way the analogous shaper would: strict order at priority nodes, and
// work-conserving generalized-processor-sharing at weighted nodes (a queue's
// unused allocation is redistributed to its siblings). length(class) must
// report the bytes currently queued for a class and drain(class, n) applies
// n bytes of service to it. Drain returns the bytes actually drained, which
// is min(budget, total queued).
func (p *Policy) Drain(budget int64, length func(int) int64, drain func(int, int64)) int64 {
	if budget <= 0 {
		return 0
	}
	return p.drainNode(p.root, budget, length, drain)
}

// drainNode consumes exactly min(budget, pending(n)) bytes from n's subtree.
func (p *Policy) drainNode(n *Node, budget int64, length func(int) int64, drain func(int, int64)) int64 {
	switch n.kind {
	case KindLeaf:
		d := length(n.class)
		if d > budget {
			d = budget
		}
		if d > 0 {
			drain(n.class, d)
		}
		return d
	case KindPriority:
		var total int64
		for _, c := range n.children {
			if budget <= 0 {
				break
			}
			d := p.drainNode(c, budget, length, drain)
			budget -= d
			total += d
		}
		return total
	case KindWeighted:
		return p.drainWeighted(n, budget, length, drain)
	}
	return 0
}

// drainWeighted implements byte-exact GPS among the children of a weighted
// node. It repeatedly allocates the remaining budget in proportion to the
// weights of children with pending bytes; children whose backlog is below
// their allocation are drained completely and the loop re-allocates the
// slack, so service is work-conserving.
func (p *Policy) drainWeighted(n *Node, budget int64, length func(int) int64, drain func(int, int64)) int64 {
	pend := n.pend
	var total int64
	for budget > 0 {
		var wsum float64
		var pendingChildren int
		for i, c := range n.children {
			pend[i] = p.pending(c, length)
			if pend[i] > 0 {
				wsum += c.weight
				pendingChildren++
			}
		}
		if pendingChildren == 0 {
			break
		}
		// First pass: fully drain children whose backlog fits within
		// their proportional allocation, then re-allocate the slack.
		drainedSmall := false
		for i, c := range n.children {
			if pend[i] == 0 {
				continue
			}
			alloc := int64(float64(budget) * c.weight / wsum)
			if pend[i] <= alloc {
				d := p.drainNode(c, pend[i], length, drain)
				budget -= d
				total += d
				drainedSmall = true
			}
		}
		if drainedSmall {
			continue
		}
		// Every pending child has more backlog than its allocation:
		// hand each child its (floored) share and distribute the
		// rounding remainder byte-by-byte so the budget is consumed
		// exactly.
		var consumed int64
		allocs := n.allocs
		for i := range allocs {
			allocs[i] = 0
		}
		for i, c := range n.children {
			if pend[i] == 0 {
				continue
			}
			allocs[i] = int64(float64(budget) * c.weight / wsum)
			consumed += allocs[i]
		}
		leftover := budget - consumed
		for i := range n.children {
			if leftover == 0 {
				break
			}
			if pend[i] > allocs[i] {
				allocs[i]++
				consumed++
				leftover--
			}
		}
		for i, c := range n.children {
			if allocs[i] > 0 {
				d := p.drainNode(c, allocs[i], length, drain)
				budget -= d
				total += d
			}
		}
		break
	}
	return total
}

// pending returns the bytes queued in a subtree.
func (p *Policy) pending(n *Node, length func(int) int64) int64 {
	if n.kind == KindLeaf {
		return length(n.class)
	}
	var sum int64
	for _, c := range n.children {
		sum += p.pending(c, length)
	}
	return sum
}
