package mbox

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// One address for root and node.
//
// A tree aggregate (one whose enforcer implements enforcer.TreeEnforcer —
// a ptree policy tree; Add detects it) hosts a namespace of node addresses
// under its one registry slot: a Handle carries a node next to the
// aggregate's reference, and Leaf mints one. The registry itself stays flat —
// one slot, one generation tag, one idle-TTL stamp, one quarantine breaker
// per tree — so a million-leaf tree costs the table exactly one entry, and
// removing or evicting the aggregate invalidates every handle of the tree at
// once through the generation tag.
//
// A flat single-enforcer aggregate is the one-node tree: node 0, Root,
// addresses the enforcer itself, so SetRate, SetPolicy, NodeStats and Leaf
// take the same (aggregate, node) address for flat aggregates and trees.

// Leaf re-addresses h at one node of its aggregate: bursts submitted through
// the returned handle enter the aggregate's policy tree at that node
// (normally a leaf — hence the name — but interior ingress is allowed, see
// enforcer.TreeEnforcer). For a flat aggregate only node 0 — the enforcer
// itself — is addressable, and Leaf(h, 0) is h. Node validity is checked
// here, once: tree topology is immutable, so the handle stays node-valid for
// the aggregate's lifetime and submission repeats only the generation check.
func (e *Engine) Leaf(h Handle, node enforcer.NodeID) (Handle, error) {
	agg, err := e.resolve(h)
	if err != nil {
		return NoHandle, err
	}
	if agg.tree == nil {
		if node != enforcer.Root {
			return NoHandle, fmt.Errorf("mbox: aggregate %q is flat, node %d: %w",
				agg.id, node, ErrBadNode)
		}
		return Handle{ref: h.ref, node: enforcer.NoNode}, nil
	}
	if int(node) < 0 || int(node) >= agg.tree.NumNodes() {
		return NoHandle, fmt.Errorf("mbox: aggregate %q node %d out of range [0,%d): %w",
			agg.id, node, agg.tree.NumNodes(), ErrBadNode)
	}
	return Handle{ref: h.ref, node: node}, nil
}

// nodeReconfigurer resolves the Reconfigurer behind (aggregate, node):
// the tree node's, or the enforcer itself for a flat aggregate's node 0.
// Must run under the shard's occupancy word.
func nodeReconfigurer(agg *aggregate, node enforcer.NodeID) (enforcer.Reconfigurer, error) {
	if agg.tree != nil {
		return agg.tree.NodeReconfigurer(node)
	}
	if node != enforcer.Root {
		return nil, fmt.Errorf("mbox: aggregate %q is flat, node %d: %w", agg.id, node, ErrBadNode)
	}
	r, ok := agg.enf.(enforcer.Reconfigurer)
	if !ok {
		return nil, fmt.Errorf("mbox: aggregate %q (%T): %w", agg.id, agg.enf, ErrNotReconfigurable)
	}
	return r, nil
}

// reconfigure is the one in-band reconfiguration body, behind SetRate and
// SetPolicy: fn runs on the owning shard goroutine against node's
// Reconfigurer with the engine clock read there, serialized against the
// aggregate's bursts (see Update), and a successful change records a kind
// trace event attributed to node.
func (e *Engine) reconfigure(id string, node enforcer.NodeID, kind obs.Kind,
	fn func(now time.Duration, agg *aggregate, r enforcer.Reconfigurer) error) error {
	err := e.update(id, func(now time.Duration, agg *aggregate) error {
		r, err := nodeReconfigurer(agg, node)
		if err != nil {
			return err
		}
		return fn(now, agg, r)
	})
	if err == nil {
		e.recordControl(id, node, obs.Event{Kind: kind})
	}
	return err
}

// SetRate changes one node's ceiling rate in-band, preserving its admission
// state (see Update) — the Theorem 1 bound holds piecewise across the
// change, per node. Root is the enforcer itself for a flat aggregate and the
// root ceiling of a tree; NoNode, like any node the aggregate does not have,
// reports ErrBadNode. Every armed conformance envelope over the ceiling (the
// node's own, and the whole-aggregate one at Root) is rebased to the new rate
// atomically with the change (same in-band closure, same virtual time), so
// the audited envelope stays the piecewise bound and never flags the
// reconfiguration itself. The node's mechanism must implement
// enforcer.Reconfigurer; ErrNotReconfigurable otherwise.
func (e *Engine) SetRate(id string, node enforcer.NodeID, rate units.Rate) error {
	return e.reconfigure(id, node, obs.KindRateUpdate,
		func(now time.Duration, agg *aggregate, r enforcer.Reconfigurer) error {
			if err := r.SetRate(now, rate); err != nil {
				return err
			}
			agg.rebaseAudits(now, node, rate)
			return nil
		})
}

// SetPolicy changes one node's rate-sharing policy in-band, preserving its
// admission state (see Update); nodes are addressed as for SetRate. The
// engine takes ownership of the policy object. Mechanisms without a policy
// dimension report enforcer.ErrNoPolicy.
func (e *Engine) SetPolicy(id string, node enforcer.NodeID, policy *sched.Policy) error {
	return e.reconfigure(id, node, obs.KindPolicyUpdate,
		func(now time.Duration, _ *aggregate, r enforcer.Reconfigurer) error {
			return r.SetPolicy(now, policy)
		})
}

// NodeStats reads one tree node's accounting through an in-band barrier,
// so it reflects every packet submitted before the call. Interior nodes
// account their whole subtree, and drops are attributed to the node that
// made them, so NodeStats(id, Root) differs from Stats (see there). For a
// flat aggregate, node 0 reads the enforcer's own stats.
func (e *Engine) NodeStats(id string, node enforcer.NodeID) (enforcer.Stats, error) {
	agg, err := e.aggByID(id)
	if err != nil {
		return enforcer.Stats{}, err
	}
	return e.readStats(agg, func() (enforcer.Stats, error) {
		if agg.tree != nil {
			return agg.tree.NodeStats(node)
		}
		if node != enforcer.Root {
			return enforcer.Stats{}, fmt.Errorf("mbox: aggregate %q is flat, node %d: %w", id, node, ErrBadNode)
		}
		return agg.ownStats()
	})
}
