package mbox

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/units"
)

// Conformance auditing: an armed aggregate carries live obs.Audit
// envelopes — one for the whole aggregate and optionally one per tree
// node — and every enforced run's accepted bytes are checked against the
// piecewise Theorem-1 bound (accepted ≤ r·Δt + B) on the shard goroutine,
// immediately after the verdict tally. The auditor is a watchdog on the
// enforcers themselves: it shares no admission state with them, so a
// corrupted or buggy enforcer that over-admits is caught by independent
// arithmetic, not by asking the suspect for its own opinion.
//
// The audit state hangs off the aggregate as an atomic.Pointer to an
// immutable aggAudit: arming swaps a new pointer in-band (copy-on-write,
// serialized with the aggregate's bursts), rate changes rebase the armed
// envelopes inside the same in-band closure that reconfigures the
// enforcer, and the datapath reads one pointer-load per run — nil means
// unarmed and costs a single predictable branch.
type aggAudit struct {
	// whole audits the aggregate-level envelope: every accepted byte,
	// whatever node it entered at.
	whole *obs.Audit
	// nodes holds per-node audits (index = NodeID; a flat aggregate has
	// exactly one slot for node 0). nil slots are unarmed.
	nodes []*obs.Audit
	// chains[int(node)+1] lists the audits an accepted run entering at
	// node must credit: the armed node audits on the ingress→root path,
	// then whole. Index 0 is the NoNode (whole-aggregate submission)
	// chain: root + whole — every admitted packet passes the root
	// whichever leaf it was classed to. Precomputed at arm time so the
	// hot path is a slice walk with no topology queries.
	chains [][]*obs.Audit
	// vioTick coalesces KindViolation trace events at the burst-sampling
	// cadence under a sustained breach (the first always records). Only
	// touched on the owning shard goroutine.
	vioTick int
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

// rebuild recomputes the per-ingress audit chains from the armed set and
// the (immutable) tree topology. Runs at arm time on the shard goroutine.
func (au *aggAudit) rebuild(agg *aggregate) {
	n := nodeAuditCount(agg)
	au.chains = make([][]*obs.Audit, n+1)
	for node := 0; node < n; node++ {
		var c []*obs.Audit
		if agg.tree != nil {
			for cur := enforcer.NodeID(node); cur != enforcer.NoNode; cur = agg.tree.Parent(cur) {
				if a := au.nodes[cur]; a != nil {
					c = append(c, a)
				}
			}
		} else if a := au.nodes[node]; a != nil {
			c = append(c, a)
		}
		if au.whole != nil {
			c = append(c, au.whole)
		}
		au.chains[node+1] = c
	}
	var c0 []*obs.Audit
	if agg.tree != nil {
		for i := 0; i < n; i++ {
			if agg.tree.Parent(enforcer.NodeID(i)) == enforcer.NoNode {
				if a := au.nodes[i]; a != nil {
					c0 = append(c0, a)
				}
				break
			}
		}
	} else if a := au.nodes[0]; a != nil {
		c0 = append(c0, a)
	}
	if au.whole != nil {
		c0 = append(c0, au.whole)
	}
	au.chains[0] = c0
}

// cloneAudit copies the armed set (not the audits themselves — envelopes
// survive re-arming of their siblings) for a copy-on-write swap.
func cloneAudit(agg *aggregate) *aggAudit {
	na := &aggAudit{nodes: make([]*obs.Audit, nodeAuditCount(agg))}
	if old := agg.audit.Load(); old != nil {
		na.whole = old.whole
		copy(na.nodes, old.nodes)
	}
	return na
}

// ArmAudit arms (or re-arms) the whole-aggregate conformance auditor with
// the declared envelope: rate in bits per second and a burst allowance in
// bytes. The swap is in-band — the new envelope starts at the aggregate's
// virtual time, serialized against its bursts — and subsequent SetRate
// calls rebase it automatically. Re-arming replaces the envelope and
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
		na := cloneAudit(agg)
		na.whole = obs.NewAudit(e.cfg.Clock(), int64(rate), burstBytes, 0)
		na.rebuild(agg)
		agg.audit.Store(na)
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
		na := cloneAudit(agg)
		na.nodes[node] = obs.NewAudit(e.cfg.Clock(), int64(rate), burstBytes, 0)
		na.rebuild(agg)
		agg.audit.Store(na)
	})
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
// ingress chain. Runs on the shard goroutine right after the verdict
// tally; the cost is a pointer load, a short slice walk and integer
// arithmetic — no allocation, no locks. A breach records a KindViolation
// trace event (coalesced at the sampling cadence) attributed to the run's
// ingress node.
func (e *Engine) auditRun(s *shard, now time.Duration, agg *aggregate, au *aggAudit, node enforcer.NodeID, accBytes int64) {
	idx := int(node) + 1
	if idx < 0 || idx >= len(au.chains) {
		idx = 0
	}
	var worst int64
	var worstAudit *obs.Audit
	for _, a := range au.chains[idx] {
		if d := a.Observe(now, accBytes); d > worst {
			worst = d
			worstAudit = a
		}
	}
	if worst == 0 {
		return
	}
	au.vioTick--
	if au.vioTick > 0 {
		return
	}
	au.vioTick = e.obsSample
	if au.vioTick < 1 {
		au.vioTick = 1
	}
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
	t := e.table.Load()
	var out []AuditEntry
	for i := range t.slots {
		agg := t.slots[i].Load()
		if agg == nil {
			continue
		}
		au := agg.audit.Load()
		if au == nil {
			continue
		}
		if au.whole != nil {
			out = append(out, AuditEntry{
				Aggregate: agg.id,
				Node:      enforcer.NoNode,
				Counters:  au.whole.Snapshot(),
				Slack:     au.whole.SlackDigest(),
				RateErr:   au.whole.RateErrDigest(),
			})
		}
		for n, a := range au.nodes {
			if a == nil {
				continue
			}
			ent := AuditEntry{
				Aggregate: agg.id,
				Node:      enforcer.NodeID(n),
				Counters:  a.Snapshot(),
				Slack:     a.SlackDigest(),
				RateErr:   a.RateErrDigest(),
			}
			if agg.tree != nil {
				ent.NodeLabel = agg.tree.NodeLabel(enforcer.NodeID(n))
			}
			out = append(out, ent)
		}
	}
	return out
}

// AuditViolations sums violations across every armed auditor — the
// headline "is the system conformant" number (0 on a healthy system).
func (e *Engine) AuditViolations() int64 {
	var n int64
	t := e.table.Load()
	for i := range t.slots {
		agg := t.slots[i].Load()
		if agg == nil {
			continue
		}
		au := agg.audit.Load()
		if au == nil {
			continue
		}
		if au.whole != nil {
			n += au.whole.Snapshot().Violations
		}
		for _, a := range au.nodes {
			if a != nil {
				n += a.Snapshot().Violations
			}
		}
	}
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
