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
// a ptree policy tree or a cascade chain) hosts a namespace of node
// addresses under its one registry slot: a LeafHandle is (aggregate
// handle, node), minted by Leaf and carried on the datapath next to the
// packets. The registry itself stays flat — one slot, one generation tag,
// one idle-TTL stamp, one quarantine breaker per tree — so a million-leaf
// tree costs the table exactly one entry, and removing or evicting the
// aggregate invalidates every LeafHandle of the tree at once through the
// same generation mechanism that protects plain handles.
//
// A flat single-enforcer aggregate participates as the degenerate one-node
// tree: node 0 addresses the enforcer itself, so node-addressed control
// (NodeStats, SetNodeRate) and Leaf(h, 0) work uniformly over flat
// aggregates, chains and trees.

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

// AddTree registers a node-addressable enforcer tree for aggregate id.
// The tree must also implement enforcer.Enforcer (whole-aggregate
// submission through the plain handle routes packets to leaves by class;
// *ptree.Tree and *cascade.Cascade both do), which keeps every existing
// engine surface — Submit, Stats, Update, snapshots, eviction — working
// unchanged on tree aggregates. Node addressing is layered on top: mint
// per-node handles with Leaf, submit with SubmitLeaf/SubmitLeafBatch,
// control nodes with UpdateNode/SetNodeRate/SetNodePolicy/NodeStats.
func (e *Engine) AddTree(id string, tree enforcer.TreeEnforcer, emit Emit) (Handle, error) {
	enf, ok := tree.(enforcer.Enforcer)
	if !ok {
		return NoHandle, fmt.Errorf("mbox: tree for %q (%T) does not implement enforcer.Enforcer", id, tree)
	}
	return e.Add(id, enf, emit)
}

// Leaf mints a node-addressed handle inside aggregate h's namespace. The
// node must be in the tree's range; for a flat (non-tree) aggregate only
// node 0 — the enforcer itself — is addressable, and the minted handle is
// the whole-aggregate one. Node validity is checked here, once: tree
// topology is immutable, so a LeafHandle stays node-valid for the
// aggregate's lifetime and SubmitLeaf repeats only the generation check.
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

// SubmitLeaf hands one packet to a tree node. Like Submit it never blocks:
// the packet joins the owning shard's pending coalesced burst carrying its
// node address, and consecutive same-(aggregate, node) packets are run
// through the tree's batch path together.
func (e *Engine) SubmitLeaf(lh LeafHandle, pkt packet.Packet) error {
	agg, err := e.resolve(lh.h)
	if err != nil {
		return err
	}
	s := agg.shard
	s.mu.Lock()
	b := s.staged
	if b == nil {
		b = e.getBurst()
		s.staged = b
	}
	b.pkts = append(b.pkts, pkt)
	b.aggs = append(b.aggs, agg)
	b.nodes = append(b.nodes, lh.node)
	if len(b.pkts) >= e.cfg.FlushBurst {
		s.staged = nil
		e.enqueue(s, b)
	}
	s.mu.Unlock()
	return nil
}

// SubmitLeafBatch hands a whole burst for one tree node to its shard in a
// single ring operation — the preferred node-addressed ingress. Semantics
// match SubmitBatch: packets are copied into an engine-owned pooled
// buffer, any pending coalesced burst flushes first for per-producer FIFO
// order, and steady-state submission performs no allocation.
func (e *Engine) SubmitLeafBatch(lh LeafHandle, pkts []packet.Packet) error {
	agg, err := e.resolve(lh.h)
	if err != nil {
		return err
	}
	if len(pkts) == 0 {
		return nil
	}
	b := e.getBurst()
	b.agg = agg
	b.node = lh.node
	b.pkts = append(b.pkts, pkts...)
	s := agg.shard
	s.mu.Lock()
	if st := s.staged; st != nil {
		s.staged = nil
		e.enqueue(s, st)
	}
	e.enqueue(s, b)
	s.mu.Unlock()
	return nil
}

// nodeReconfigurer resolves the Reconfigurer behind (aggregate, node):
// the tree node's, or the enforcer itself for a flat aggregate's node 0.
// Must run on the shard goroutine.
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

// UpdateNode applies a live reconfiguration to one tree node, in place and
// in-band with the same guarantees as Update: fn runs on the owning shard
// goroutine with the engine clock read there, serialized against the
// aggregate's bursts, and node admission state survives the change — the
// Theorem 1 bound holds piecewise across it, per node.
func (e *Engine) UpdateNode(id string, node enforcer.NodeID, fn func(now time.Duration, r enforcer.Reconfigurer) error) error {
	agg, err := e.aggByID(id)
	if err != nil {
		return err
	}
	agg.lastActive.Store(time.Now().UnixNano())
	var uerr error
	if cerr := e.controlAgg(agg, func(enforcer.Enforcer) {
		r, rerr := nodeReconfigurer(agg, node)
		if rerr != nil {
			uerr = rerr
			return
		}
		uerr = fn(e.cfg.Clock(), r)
	}); cerr != nil {
		return cerr
	}
	return uerr
}

// SetNodeRate changes one tree node's ceiling rate in-band, preserving its
// admission state (see UpdateNode). An armed per-node conformance auditor
// is rebased to the new rate atomically with the node change (same in-band
// closure, same virtual time), preserving the piecewise per-node bound.
func (e *Engine) SetNodeRate(id string, node enforcer.NodeID, rate units.Rate) error {
	agg, err := e.aggByID(id)
	if err != nil {
		return err
	}
	agg.lastActive.Store(time.Now().UnixNano())
	var uerr error
	if cerr := e.controlAgg(agg, func(enforcer.Enforcer) {
		r, rerr := nodeReconfigurer(agg, node)
		if rerr != nil {
			uerr = rerr
			return
		}
		now := e.cfg.Clock()
		if uerr = r.SetRate(now, rate); uerr != nil {
			return
		}
		if au := agg.audit.Load(); au != nil {
			if a := au.nodes.Load().audit(node); a != nil {
				a.Rebase(now, int64(rate))
			}
		}
	}); cerr != nil {
		return cerr
	}
	if uerr == nil {
		e.recordControlNode(id, node, obs.KindRateUpdate)
	}
	return uerr
}

// SetNodePolicy changes one tree node's rate-sharing policy in-band,
// preserving its admission state (see UpdateNode). The engine takes
// ownership of the policy object.
func (e *Engine) SetNodePolicy(id string, node enforcer.NodeID, policy *sched.Policy) error {
	err := e.UpdateNode(id, node, func(now time.Duration, r enforcer.Reconfigurer) error {
		return r.SetPolicy(now, policy)
	})
	if err == nil {
		e.recordControlNode(id, node, obs.KindPolicyUpdate)
	}
	return err
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
	var out enforcer.Stats
	var statErr error
	err = e.controlAgg(agg, func(enf enforcer.Enforcer) {
		if agg.tree != nil {
			out, statErr = agg.tree.NodeStats(node)
			return
		}
		if node != 0 {
			statErr = fmt.Errorf("mbox: aggregate %q is flat, node %d: %w", id, node, ErrBadNode)
			return
		}
		if sr, ok := enf.(enforcer.StatsReader); ok {
			out = sr.EnforcerStats()
		} else {
			statErr = fmt.Errorf("mbox: aggregate %q: %w", id, ErrNoStats)
		}
	})
	if err != nil {
		return out, err
	}
	return out, statErr
}

// recordControlNode publishes a node-attributed control-plane trace event.
// No-op without an Observer.
func (e *Engine) recordControlNode(id string, node enforcer.NodeID, kind obs.Kind) {
	if e.cfg.Observer == nil {
		return
	}
	ev := obs.Event{Kind: kind, Shard: -1, Agg: -1, Node: int32(node)}
	if agg, err := e.aggByID(id); err == nil {
		ev.Agg = int64(agg.h)
	}
	e.cfg.Observer.Record(ev)
}
