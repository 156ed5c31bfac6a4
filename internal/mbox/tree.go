package mbox

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// Per-tree handle namespaces.
//
// A tree aggregate (one whose enforcer implements enforcer.TreeEnforcer —
// a ptree policy tree; Add detects it) hosts a namespace of node addresses
// under its one registry slot: a LeafHandle is (aggregate handle, node),
// minted by Leaf and carried on the datapath next to the packets. The registry itself stays flat — one slot, one generation tag,
// one idle-TTL stamp, one quarantine breaker per tree — so a million-leaf
// tree costs the table exactly one entry, and removing or evicting the
// aggregate invalidates every LeafHandle of the tree at once through the
// same generation mechanism that protects plain handles.
//
// A flat single-enforcer aggregate participates as the degenerate one-node
// tree: node 0 addresses the enforcer itself, so node-addressed control
// (NodeStats, SetNodeRate) and Leaf(h, 0) work uniformly over flat
// aggregates and trees.

// LeafHandle addresses one node of an aggregate on the datapath: packets
// submitted through it enter the aggregate's policy tree at that node
// (normally a leaf — hence the name — but interior ingress is allowed, see
// enforcer.TreeEnforcer). The zero LeafHandle is invalid.
type LeafHandle struct {
	h    Handle
	node enforcer.NodeID
}

// NoLeafHandle is the invalid leaf handle returned alongside errors.
var NoLeafHandle = LeafHandle{h: NoHandle, node: enforcer.NoNode}

// Aggregate returns the whole-aggregate handle the leaf belongs to.
func (lh LeafHandle) Aggregate() Handle { return lh.h }

// Node returns the addressed tree node; NoNode for a flat aggregate's
// unified node-0 handle (whole-aggregate submission).
func (lh LeafHandle) Node() enforcer.NodeID { return lh.node }

// Leaf mints a node-addressed handle inside aggregate h's namespace. The
// node must be in the tree's range; for a flat (non-tree) aggregate only
// node 0 — the enforcer itself — is addressable, and the minted handle is
// the whole-aggregate one. Node validity is checked here, once: tree
// topology is immutable, so a LeafHandle stays node-valid for the
// aggregate's lifetime and SubmitLeafBatch repeats only the generation
// check.
func (e *Engine) Leaf(h Handle, node enforcer.NodeID) (LeafHandle, error) {
	agg, err := e.resolve(h)
	if err != nil {
		return NoLeafHandle, err
	}
	if agg.tree == nil {
		if node != 0 {
			return NoLeafHandle, fmt.Errorf("mbox: aggregate %q is flat, node %d: %w",
				agg.id, node, ErrBadNode)
		}
		return LeafHandle{h: h, node: enforcer.NoNode}, nil
	}
	if int(node) < 0 || int(node) >= agg.tree.NumNodes() {
		return NoLeafHandle, fmt.Errorf("mbox: aggregate %q node %d out of range [0,%d): %w",
			agg.id, node, agg.tree.NumNodes(), ErrBadNode)
	}
	return LeafHandle{h: h, node: node}, nil
}

// SubmitLeafBatch hands a whole burst for one tree node to its shard in a
// single ring operation: SubmitBatch, entering the aggregate's tree at the
// handle's node.
func (e *Engine) SubmitLeafBatch(lh LeafHandle, pkts []packet.Packet) error {
	return e.submitRing(lh.h, lh.node, pkts)
}

// nodeReconfigurer resolves the Reconfigurer behind (aggregate, node):
// the tree node's, or the enforcer itself for a flat aggregate's node 0.
// Must run under the shard's occupancy word.
func nodeReconfigurer(agg *aggregate, node enforcer.NodeID) (enforcer.Reconfigurer, error) {
	if agg.tree != nil {
		return agg.tree.NodeReconfigurer(node)
	}
	if node != 0 {
		return nil, fmt.Errorf("mbox: aggregate %q is flat, node %d: %w", agg.id, node, ErrBadNode)
	}
	r, ok := agg.enf.(enforcer.Reconfigurer)
	if !ok {
		return nil, fmt.Errorf("mbox: aggregate %q (%T): %w", agg.id, agg.enf, ErrNotReconfigurable)
	}
	return r, nil
}

// reconfigure is the one in-band reconfiguration body, behind SetRate,
// SetPolicy, SetNodeRate and SetNodePolicy: fn runs on the owning shard
// goroutine against node's Reconfigurer with the engine clock read there,
// serialized against the aggregate's bursts (see Update), and a successful
// change records a kind trace event. whole is the SetRate/SetPolicy
// spelling: it addresses the aggregate's root and attributes the event to
// the aggregate rather than to a node.
func (e *Engine) reconfigure(id string, whole bool, node enforcer.NodeID, kind obs.Kind,
	fn func(now time.Duration, agg *aggregate, node enforcer.NodeID, r enforcer.Reconfigurer) error) error {
	at := node
	if whole {
		at = enforcer.NoNode
	}
	err := e.update(id, func(now time.Duration, agg *aggregate) error {
		if whole {
			node = rootOf(agg.tree)
		}
		r, err := nodeReconfigurer(agg, node)
		if err != nil {
			return err
		}
		return fn(now, agg, node, r)
	})
	if err == nil {
		e.recordControl(id, at, obs.Event{Kind: kind})
	}
	return err
}

// rootOf returns the root of tree — the node every admitted packet passes —
// and node 0, the enforcer itself, for a flat aggregate's nil tree.
func rootOf(tree enforcer.TreeEnforcer) enforcer.NodeID {
	root := enforcer.NodeID(0)
	if tree != nil {
		for up := tree.Parent(root); up != enforcer.NoNode; up = tree.Parent(up) {
			root = up
		}
	}
	return root
}

// SetNodeRate changes one node's ceiling rate in-band, preserving its
// admission state (see Update) — the Theorem 1 bound holds piecewise across
// the change, per node. Every armed conformance envelope over the ceiling
// (the node's own, and the whole-aggregate one when the node is the root)
// is rebased to the new rate atomically with the change (same in-band
// closure, same virtual time), so the audited envelope stays the piecewise
// bound and never flags the reconfiguration itself. The node's mechanism
// must implement enforcer.Reconfigurer; ErrNotReconfigurable otherwise.
func (e *Engine) SetNodeRate(id string, node enforcer.NodeID, rate units.Rate) error {
	return e.setRate(id, false, node, rate)
}

func (e *Engine) setRate(id string, whole bool, node enforcer.NodeID, rate units.Rate) error {
	return e.reconfigure(id, whole, node, obs.KindRateUpdate,
		func(now time.Duration, agg *aggregate, node enforcer.NodeID, r enforcer.Reconfigurer) error {
			if err := r.SetRate(now, rate); err != nil {
				return err
			}
			agg.rebaseAudits(now, node, rate)
			return nil
		})
}

// SetNodePolicy changes one node's rate-sharing policy in-band, preserving
// its admission state (see Update). The engine takes ownership of the policy
// object. Mechanisms without a policy dimension report enforcer.ErrNoPolicy.
func (e *Engine) SetNodePolicy(id string, node enforcer.NodeID, policy *sched.Policy) error {
	return e.setPolicy(id, false, node, policy)
}

func (e *Engine) setPolicy(id string, whole bool, node enforcer.NodeID, policy *sched.Policy) error {
	return e.reconfigure(id, whole, node, obs.KindPolicyUpdate,
		func(now time.Duration, _ *aggregate, _ enforcer.NodeID, r enforcer.Reconfigurer) error {
			return r.SetPolicy(now, policy)
		})
}

// NodeStats reads one tree node's accounting through an in-band barrier,
// so it reflects every packet submitted before the call. Interior nodes
// account their whole subtree. For a flat aggregate, node 0 reads the
// enforcer's own stats.
func (e *Engine) NodeStats(id string, node enforcer.NodeID) (enforcer.Stats, error) {
	agg, err := e.aggByID(id)
	if err != nil {
		return enforcer.Stats{}, err
	}
	return e.readStats(agg, func() (enforcer.Stats, error) {
		if agg.tree != nil {
			return agg.tree.NodeStats(node)
		}
		if node != 0 {
			return enforcer.Stats{}, fmt.Errorf("mbox: aggregate %q is flat, node %d: %w", id, node, ErrBadNode)
		}
		return agg.ownStats()
	})
}
