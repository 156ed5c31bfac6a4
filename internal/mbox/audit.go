package mbox

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/units"
)

// Conformance auditing: an armed aggregate carries live obs.Audit
// envelopes — one for the whole aggregate and optionally one per tree
// node — and every enforced run's accepted bytes are checked against the
// piecewise Theorem-1 bound (accepted ≤ r·Δt + B) by whoever holds the shard,
// immediately after the verdict tally. The auditor is a watchdog on the
// enforcers themselves: it shares no admission state with them, so a
// corrupted or buggy enforcer that over-admits is caught by independent
// arithmetic, not by asking the suspect for its own opinion.
//
// The audit state hangs off the aggregate as an atomic.Pointer to an
// aggAudit: one allocation holding the whole-aggregate envelope, its export
// counters and both digest headers, which is all a flat or whole-only armed
// aggregate ever has. Arming the whole envelope swaps a new record in-band
// (serialized with the aggregate's bursts); arming a node swaps the armed
// node set inside the record; rate changes rebase the armed envelopes
// inside the same in-band closure that reconfigures the enforcer. The
// datapath reads one pointer per run — nil means unarmed and costs a single
// predictable branch.
type aggAudit struct {
	// whole audits the aggregate-level envelope: every accepted byte,
	// whatever node it entered at. Armed only when wholeOn (a record made
	// to hold node audits alone leaves it zero).
	whole   obs.Audit
	wholeOn bool
	// vioTick coalesces KindViolation trace events at the burst-sampling
	// cadence under a sustained breach (the first always records). Only
	// touched under the owning shard's occupancy word.
	vioTick int32
	// nodes is the armed per-node set, nil when only whole is armed.
	nodes atomic.Pointer[nodeAudits]
}

// nodeAudits is an immutable set of armed per-node audits: storage is per
// armed node, never per tree node, so arming one envelope on a
// million-node tree costs what it costs on a flat aggregate.
type nodeAudits struct {
	ids []enforcer.NodeID // armed nodes, ascending
	// chains[i] lists what a run entering at ids[i] credits below the
	// whole-aggregate envelope: ids[i]'s own audit, then its armed
	// ancestors' in rootward order. A run entering anywhere else credits
	// the chain of its nearest armed ancestor.
	chains [][]*obs.Audit
	// root is the tree's root: every admitted packet passes it, so it is
	// where a whole-aggregate (NoNode) submission enters the chains.
	root enforcer.NodeID
}

// nodeAuditCount returns the size of the aggregate's node-audit space: the
// tree's node count, or one (node 0 = the enforcer itself) for a flat
// aggregate.
func nodeAuditCount(agg *aggregate) int {
	if agg.tree != nil {
		return agg.tree.NumNodes()
	}
	return 1
}

// audit returns node's own audit, nil when it is not armed.
func (na *nodeAudits) audit(node enforcer.NodeID) *obs.Audit {
	if na == nil {
		return nil
	}
	if i, ok := slices.BinarySearch(na.ids, node); ok {
		return na.chains[i][0]
	}
	return nil
}

// with returns a copy of the set (nil is the empty set) with a armed at
// node, replacing node's previous audit if it had one; the other envelopes
// carry over untouched. Chains are rebuilt by walking each armed node to
// the root: O(armed × depth), whatever the size of the tree. Runs at arm
// time under the shard's occupancy word.
func (na *nodeAudits) with(tree enforcer.TreeEnforcer, node enforcer.NodeID, a *obs.Audit) *nodeAudits {
	out := &nodeAudits{root: rootOf(tree)}
	var own []*obs.Audit
	if na != nil {
		out.ids, own = slices.Clone(na.ids), make([]*obs.Audit, len(na.ids), len(na.ids)+1)
		for i, c := range na.chains {
			own[i] = c[0]
		}
	}
	if i, ok := slices.BinarySearch(out.ids, node); ok {
		own[i] = a
	} else {
		out.ids, own = slices.Insert(out.ids, i, node), slices.Insert(own, i, a)
	}
	out.chains = make([][]*obs.Audit, len(out.ids))
	for i, id := range out.ids {
		chain := own[i : i+1 : i+1]
		if tree != nil {
			for up := tree.Parent(id); up != enforcer.NoNode; up = tree.Parent(up) {
				if j, ok := slices.BinarySearch(out.ids, up); ok {
					chain = append(chain, own[j])
				}
			}
		}
		out.chains[i] = chain
	}
	return out
}

// chain returns the node audits a run entering at node credits, nearest
// first. A flat aggregate has only node 0, the enforcer itself, and every
// run passes it; in a tree, a NoNode or out-of-range ingress enters at the
// root.
func (na *nodeAudits) chain(tree enforcer.TreeEnforcer, node enforcer.NodeID) []*obs.Audit {
	if tree == nil {
		return na.chains[0]
	}
	if int(node) < 0 || int(node) >= tree.NumNodes() {
		node = na.root
	}
	for ; node != enforcer.NoNode; node = tree.Parent(node) {
		if i, ok := slices.BinarySearch(na.ids, node); ok {
			return na.chains[i]
		}
	}
	return nil
}

// ArmAudit arms (or re-arms) the whole-aggregate conformance auditor with
// the declared envelope: rate in bits per second and a burst allowance in
// bytes. The swap is in-band — the new envelope starts at the aggregate's
// virtual time, serialized against its bursts — and subsequent rate changes
// at the aggregate's root (SetRate, or SetNodeRate there) rebase it
// automatically. Re-arming replaces the envelope and
// resets its counters.
func (e *Engine) ArmAudit(id string, rate units.Rate, burstBytes int64) error {
	if burstBytes < 0 {
		return fmt.Errorf("mbox: aggregate %q: negative audit burst %d", id, burstBytes)
	}
	agg, err := e.aggByID(id)
	if err != nil {
		return err
	}
	return e.controlAgg(agg, func(enforcer.Enforcer) {
		au := &aggAudit{wholeOn: true}
		au.whole.Init(e.cfg.Clock(), int64(rate), burstBytes, 0)
		if old := agg.audit.Load(); old != nil {
			au.nodes.Store(old.nodes.Load())
		}
		agg.audit.Store(au)
	})
}

// ArmNodeAudit arms (or re-arms) a per-node conformance auditor inside a
// tree aggregate: the node's envelope is audited independently of its
// leaves, so an interior bound violation is attributed to the node even
// when every leaf is individually conformant. For a flat aggregate node 0
// audits the enforcer itself. SetNodeRate on the node rebases the
// envelope.
func (e *Engine) ArmNodeAudit(id string, node enforcer.NodeID, rate units.Rate, burstBytes int64) error {
	if burstBytes < 0 {
		return fmt.Errorf("mbox: aggregate %q: negative audit burst %d", id, burstBytes)
	}
	agg, err := e.aggByID(id)
	if err != nil {
		return err
	}
	if int(node) < 0 || int(node) >= nodeAuditCount(agg) {
		return fmt.Errorf("mbox: aggregate %q node %d: %w", id, node, ErrBadNode)
	}
	return e.controlAgg(agg, func(enforcer.Enforcer) {
		au := agg.audit.Load()
		if au == nil {
			au = new(aggAudit)
		}
		a := obs.NewAudit(e.cfg.Clock(), int64(rate), burstBytes, 0)
		au.nodes.Store(au.nodes.Load().with(agg.tree, node, a))
		au.vioTick = 0
		agg.audit.Store(au)
	})
}

// rebaseAudits moves every armed envelope over node's ceiling to the rate the
// ceiling just changed to: node's own, and the whole-aggregate one when node
// is the root (every admitted byte passes the root, so its ceiling is the
// aggregate's). Runs inside the in-band closure that changed the rate.
func (agg *aggregate) rebaseAudits(now time.Duration, node enforcer.NodeID, rate units.Rate) {
	au := agg.audit.Load()
	if au == nil {
		return
	}
	if a := au.nodes.Load().audit(node); a != nil {
		a.Rebase(now, int64(rate))
	}
	if au.wholeOn && node == rootOf(agg.tree) {
		au.whole.Rebase(now, int64(rate))
	}
}

// DisarmAudit removes every auditor from the aggregate.
func (e *Engine) DisarmAudit(id string) error {
	agg, err := e.aggByID(id)
	if err != nil {
		return err
	}
	return e.controlAgg(agg, func(enforcer.Enforcer) {
		agg.audit.Store(nil)
	})
}

// auditRun checks one enforced run against every armed envelope on its
// ingress path: the armed nodes from the ingress rootward, then the whole
// aggregate. Runs under the shard's occupancy word right after the verdict tally;
// whole-only is integer arithmetic on the record already in hand, armed
// nodes add a walk to the nearest armed ancestor — no allocation, no locks.
// A breach records a KindViolation trace event (coalesced at the sampling
// cadence) attributed to the run's ingress node.
func (e *Engine) auditRun(s *shard, now time.Duration, agg *aggregate, au *aggAudit, node enforcer.NodeID, accBytes int64) {
	var worst int64
	var worstAudit *obs.Audit
	if na := au.nodes.Load(); na != nil {
		for _, a := range na.chain(agg.tree, node) {
			if d := a.Observe(now, accBytes); d > worst {
				worst, worstAudit = d, a
			}
		}
	}
	if au.wholeOn {
		if d := au.whole.Observe(now, accBytes); d > worst {
			worst, worstAudit = d, &au.whole
		}
	}
	if worst == 0 {
		return
	}
	au.vioTick--
	if au.vioTick > 0 {
		return
	}
	au.vioTick = int32(max(e.obsSample, 1))
	c := worstAudit.Snapshot()
	e.record(s, obs.Event{
		Kind: obs.KindViolation,
		VT:   int64(now),
		Agg:  int64(agg.h),
		Node: int32(node),
		A:    worst,
		B:    c.RateBps,
		C:    c.AcceptedBytes,
	})
}

// AuditEntry is one auditor's exported state in an AuditReport: the
// whole-aggregate envelope (Node = NoNode) or one tree node's.
type AuditEntry struct {
	// Aggregate is the audited aggregate's id.
	Aggregate string
	// Node is the audited tree node, enforcer.NoNode for the
	// whole-aggregate envelope.
	Node enforcer.NodeID
	// NodeLabel is the tree's human-readable node name ("" for the
	// whole-aggregate envelope and for flat aggregates).
	NodeLabel string
	// Counters is the envelope state as of the last audited run.
	Counters obs.AuditCounters
	// Slack is the per-run envelope-slack distribution in bytes
	// (breaching runs record 0).
	Slack obs.DigestSnapshot
	// RateErr is the per-window |rate error| distribution in permille of
	// the enforced rate.
	RateErr obs.DigestSnapshot
}

// AuditReport snapshots every armed auditor in the engine, whole-aggregate
// entries first per aggregate, then armed nodes in id order. Control-plane
// only (it allocates); the datapath is never stopped.
func (e *Engine) AuditReport() []AuditEntry {
	var out []AuditEntry
	e.eachAudit(e.table.Load(), func(agg *aggregate, node enforcer.NodeID, a *obs.Audit) {
		ent := AuditEntry{
			Aggregate: agg.id,
			Node:      node,
			Counters:  a.Snapshot(),
			Slack:     a.SlackDigest(),
			RateErr:   a.RateErrDigest(),
		}
		if agg.tree != nil && node != enforcer.NoNode {
			ent.NodeLabel = agg.tree.NodeLabel(node)
		}
		out = append(out, ent)
	})
	return out
}

// eachAudit visits every armed auditor in t: per aggregate the
// whole-aggregate envelope first (node = NoNode), then armed nodes in id
// order.
func (e *Engine) eachAudit(t *registry, fn func(agg *aggregate, node enforcer.NodeID, a *obs.Audit)) {
	for i := range t.slots {
		agg := t.slots[i].Load()
		if agg == nil {
			continue
		}
		au := agg.audit.Load()
		if au == nil {
			continue
		}
		if au.wholeOn {
			fn(agg, enforcer.NoNode, &au.whole)
		}
		if na := au.nodes.Load(); na != nil {
			for j, id := range na.ids {
				fn(agg, id, na.chains[j][0])
			}
		}
	}
}

// AuditViolations sums violations across every armed auditor — the
// headline "is the system conformant" number (0 on a healthy system).
func (e *Engine) AuditViolations() int64 {
	var n int64
	e.eachAudit(e.table.Load(), func(_ *aggregate, _ enforcer.NodeID, a *obs.Audit) {
		n += a.Snapshot().Violations
	})
	return n
}

// BurstLatency returns the engine's burst-enforcement-latency quantile
// digest (nanoseconds, merged across shards); an empty snapshot without an
// Observer.
func (e *Engine) BurstLatency() obs.DigestSnapshot {
	if e.cfg.Observer == nil {
		return obs.DigestSnapshot{}
	}
	return e.cfg.Observer.BurstLatencyDigest()
}
