package mbox

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/units"
)

// Conformance auditing: an armed aggregate carries a live obs.Audit
// envelope, and every enforced run's accepted bytes are checked against the
// piecewise Theorem-1 bound (accepted ≤ r·Δt + B) by whoever holds the shard,
// immediately after the verdict tally. The auditor is a watchdog on the
// enforcers themselves: it shares no admission state with them, so a
// corrupted or buggy enforcer that over-admits is caught by independent
// arithmetic, not by asking the suspect for its own opinion.
//
// The audit state hangs off the aggregate as an atomic.Pointer to an
// aggAudit: one allocation holding the envelope, its export counters and
// both digest headers. Arming swaps a new record in-band (serialized with
// the aggregate's bursts); rate changes rebase the envelope inside the same
// in-band closure that reconfigures the enforcer. The datapath reads one
// pointer per run — nil means unarmed and costs a single predictable branch.
type aggAudit struct {
	// env is the aggregate's envelope: every accepted byte, whichever leaf
	// of a tree it was routed to.
	env obs.Audit
	// vioTick coalesces KindViolation trace events at the burst-sampling
	// cadence under a sustained breach (the first always records). Only
	// touched under the owning shard's occupancy word.
	vioTick int32
}

// ArmAudit arms (or re-arms) the aggregate's conformance auditor with the
// declared envelope: rate in bits per second and a burst allowance in bytes.
// The swap is in-band — the new envelope starts at the aggregate's virtual
// time, serialized against its bursts — and subsequent rate changes
// (SetRate, ApplyShare) rebase it automatically. Re-arming replaces the
// envelope and resets its counters.
func (e *Engine) ArmAudit(id string, rate units.Rate, burstBytes int64) error {
	if burstBytes < 0 {
		return fmt.Errorf("mbox: aggregate %q: negative audit burst %d", id, burstBytes)
	}
	agg, err := e.aggByID(id)
	if err != nil {
		return err
	}
	return e.controlAgg(agg, func(enforcer.Enforcer) {
		au := new(aggAudit)
		au.env.Init(e.cfg.Clock(), int64(rate), burstBytes, 0)
		agg.audit.Store(au)
	})
}

// rebaseAudit moves the armed envelope to the rate the enforcer just changed
// to. Runs inside the in-band closure that changed the rate.
func (agg *aggregate) rebaseAudit(now time.Duration, rate units.Rate) {
	if au := agg.audit.Load(); au != nil {
		au.env.Rebase(now, int64(rate))
	}
}

// auditRun checks one enforced run against the armed envelope. Runs under
// the shard's occupancy word right after the verdict tally: integer
// arithmetic on the record already in hand — no allocation, no locks. A
// breach records a KindViolation trace event (coalesced at the sampling
// cadence).
func (e *Engine) auditRun(s *shard, now time.Duration, agg *aggregate, au *aggAudit, accBytes int64) {
	deficit := au.env.Observe(now, accBytes)
	if deficit == 0 {
		return
	}
	au.vioTick--
	if au.vioTick > 0 {
		return
	}
	au.vioTick = int32(max(e.obsSample, 1))
	c := au.env.Snapshot()
	e.record(s, obs.Event{
		Kind: obs.KindViolation,
		VT:   int64(now),
		Agg:  int64(agg.h),
		A:    deficit,
		B:    c.RateBps,
		C:    c.AcceptedBytes,
	})
}

// AuditEntry is one armed aggregate's exported audit state in an
// AuditReport.
type AuditEntry struct {
	// Aggregate is the audited aggregate's id.
	Aggregate string
	// Counters is the envelope state as of the last audited run.
	Counters obs.AuditCounters
	// Slack is the per-run envelope-slack distribution in bytes
	// (breaching runs record 0).
	Slack obs.DigestSnapshot
	// RateErr is the per-window |rate error| distribution in permille of
	// the enforced rate.
	RateErr obs.DigestSnapshot
}

// AuditReport snapshots every armed auditor in the engine, in table-slot
// order. Control-plane only (it allocates); the datapath is never stopped.
func (e *Engine) AuditReport() []AuditEntry {
	var out []AuditEntry
	e.eachAudit(e.table.Load(), func(agg *aggregate, a *obs.Audit) {
		out = append(out, AuditEntry{
			Aggregate: agg.id,
			Counters:  a.Snapshot(),
			Slack:     a.SlackDigest(),
			RateErr:   a.RateErrDigest(),
		})
	})
	return out
}

// eachAudit visits every armed auditor in t.
func (e *Engine) eachAudit(t *registry, fn func(agg *aggregate, a *obs.Audit)) {
	for i := range t.slots {
		if agg := t.slots[i].Load(); agg != nil {
			if au := agg.audit.Load(); au != nil {
				fn(agg, &au.env)
			}
		}
	}
}

// AuditViolations sums violations across every armed auditor — the
// headline "is the system conformant" number (0 on a healthy system).
func (e *Engine) AuditViolations() int64 {
	var n int64
	e.eachAudit(e.table.Load(), func(_ *aggregate, a *obs.Audit) {
		n += a.Snapshot().Violations
	})
	return n
}

// BurstLatency returns the engine's burst-enforcement-latency quantile
// digest (nanoseconds, merged across shards) over the timed bursts, one in
// Options.SampleEvery per shard; an empty snapshot without an Observer.
func (e *Engine) BurstLatency() obs.DigestSnapshot {
	if e.cfg.Observer == nil {
		return obs.DigestSnapshot{}
	}
	return e.cfg.Observer.BurstLatencyDigest()
}
