package bcpqp

import (
	"errors"
	"expvar"
	"fmt"
	"io"

	"bcpqp/internal/mbox"
	"bcpqp/internal/obs"
	"bcpqp/internal/phantom"
)

// Collector is the observability hub a Middlebox reports into: per-shard
// flight-recorder rings of trace events, a sampled burst-enforcement-latency
// digest, and per-aggregate traffic counters with windowed rate meters. Attach one with Observe before NewMiddlebox; read it back
// through Middlebox.TraceDump and Middlebox.Metrics. All recording paths
// are lock-free and allocation-free — SubmitBatch with observability
// enabled stays zero-allocation.
type Collector = obs.Collector

// ObserveOptions sizes the observability layer: flight-recorder ring
// depth, the sampling cadence of KindBurst trace events and of the bursts
// the latency digest times, and the rate-meter window. The zero value
// applies defaults (1024-event rings, 1-in-16 burst sampling, the paper's
// 250 ms measurement window).
type ObserveOptions = obs.Options

// TraceRecorder consumes trace events; the Collector's rings implement it.
// Custom recorders can be fed by replaying TraceDump output.
type TraceRecorder = obs.Recorder

// TraceEvent is one flight-recorder entry from Middlebox.TraceDump: the
// raw event (global sequence, wall and virtual timestamps, kind, shard,
// aggregate handle, kind-specific A/B/C payload) plus the aggregate's
// string id when its handle still resolves.
type TraceEvent = mbox.TraceEvent

// TraceKind identifies what a TraceEvent records.
type TraceKind = obs.Kind

// Trace event kinds recorded by an observed Middlebox.
const (
	// TraceBurst: one sampled enforced run (A=accepted packets,
	// B=dropped packets, C=total bytes).
	TraceBurst = obs.KindBurst
	// TraceDrop: a phantom-queue drop (A=bytes, B=queue occupancy,
	// C=DropReason), from an aggregate wired with ObserveAggregate.
	TraceDrop = obs.KindDrop
	// TraceMark: an ECN CE mark (A=bytes, B=queue occupancy).
	TraceMark = obs.KindMark
	// TraceMagicFill / TraceMagicReclaim: §5.2 burst control filled or
	// reclaimed magic bytes (A=magic bytes, B=queue occupancy).
	TraceMagicFill    = obs.KindMagicFill
	TraceMagicReclaim = obs.KindMagicReclaim
	// TraceRateUpdate: a live rate change was applied in-band.
	TraceRateUpdate = obs.KindRateUpdate
	// TraceQuarantine: an aggregate's panic circuit breaker opened
	// (A=panic count); its traffic is dropped until Remove.
	TraceQuarantine = obs.KindQuarantine
	// TraceRemove: an aggregate left the registry by Remove.
	TraceRemove = obs.KindRemove
	// TraceShed: a wedged shard refused a burst (A=packets).
	TraceShed = obs.KindShed
	// TracePanic: a recovered enforcer/emit panic.
	TracePanic = obs.KindPanic
	// TraceShareApply: a cluster rebalance applied a per-node share via
	// the in-band rate-update lane (A=share bits/sec, B=1 on fallback).
	TraceShareApply = obs.KindShareApply
	// TraceViolation: an armed conformance auditor caught accepted bytes
	// exceeding the declared r·Δt + B envelope (A=deficit bytes,
	// B=envelope rate in bits/sec, C=cumulative accepted bytes).
	// Coalesced at the burst-sampling cadence while a breach persists.
	TraceViolation = obs.KindViolation
)

// DropReason qualifies a TraceDrop event (carried in its C field): the
// arrival filter, RED early detection, or drop-tail on the full phantom
// queue.
type DropReason = phantom.DropReason

// Phantom-queue drop reasons.
const (
	DropNone      = phantom.DropNone
	DropFilter    = phantom.DropFilter
	DropRED       = phantom.DropRED
	DropQueueFull = phantom.DropQueueFull
)

// MetricsSnapshot is a point-in-time metrics export from
// Middlebox.Metrics, ready for serialization with WritePrometheus or
// MetricsVar.
type MetricsSnapshot = obs.Snapshot

// MetricsFamily is one metric family within a MetricsSnapshot.
type MetricsFamily = obs.Family

// MetricsSample is one labeled sample within a MetricsFamily; MetricsLabel
// is one of its label pairs. Exported so embedders can build families for
// Middlebox.AttachMetricSource without importing internal packages.
type (
	MetricsSample = obs.Sample
	MetricsLabel  = obs.Label
)

// AuditEntry is one armed conformance auditor's state from
// Middlebox.AuditReport: the aggregate it audits, exact envelope counters,
// and the slack / rate-error distributions.
type AuditEntry = mbox.AuditEntry

// AuditCounters is the exact counter block of one conformance auditor —
// allowed vs accepted bytes, worst slack and deficit, violation and
// window counts.
type AuditCounters = obs.AuditCounters

// DigestSnapshot is a point-in-time copy of a mergeable log-bucket
// quantile digest (burst-latency, slack, rate-error distributions). Merge
// is exact and associative; Quantile carries the digest's ≤12.5% relative
// error.
type DigestSnapshot = obs.DigestSnapshot

// Observe attaches a new Collector to a middlebox configuration. Call it
// on the config before NewMiddlebox:
//
//	cfg := bcpqp.MiddleboxConfig{}
//	col := bcpqp.Observe(&cfg, bcpqp.ObserveOptions{})
//	mb := bcpqp.NewMiddlebox(cfg)
func Observe(cfg *MiddleboxConfig, opts ObserveOptions) *Collector {
	c := obs.NewCollector(opts)
	cfg.Observer = c
	return c
}

// ObserveAggregate wires a PQP/BC-PQP aggregate's enforcer-internal events
// (drops with reason, ECN marks, §5.2 magic fill/reclaim) into the
// collector's flight recorder. The hook is installed in-band, under the
// owning shard's occupancy word, so it is safe during full-rate traffic. Accept events
// are intentionally not traced — the per-aggregate counters and rate
// meters already cover admitted traffic, and tracing per-packet accepts
// would dominate the ring. Drop/mark/magic events are recorded unsampled:
// they are the rare, diagnostic transitions the recorder exists for.
//
// The aggregate's enforcer must be a *PQP; ErrNotObservable otherwise
// (wrap a policy tree's member queues before composing them instead).
func ObserveAggregate(mb *Middlebox, id string, c *Collector) error {
	if c == nil {
		return fmt.Errorf("bcpqp: nil collector for %q", id)
	}
	h, err := mb.Lookup(id)
	if err != nil {
		return err
	}
	agg := h.TraceAgg()
	ferr := mb.Flush(id, func(enf Enforcer) {
		pq, ok := enf.(*phantom.PQP)
		if !ok {
			err = fmt.Errorf("bcpqp: aggregate %q (%T): %w", id, enf, ErrNotObservable)
			return
		}
		pq.SetOnEvent(func(ev phantom.Event) {
			var kind TraceKind
			switch ev.Kind {
			case phantom.EventDrop:
				kind = TraceDrop
			case phantom.EventMark:
				kind = TraceMark
			case phantom.EventMagicFill:
				kind = TraceMagicFill
			case phantom.EventMagicReclaim:
				kind = TraceMagicReclaim
			default:
				return // accepts: counted, not traced
			}
			c.Record(obs.Event{
				Kind:  kind,
				VT:    int64(ev.Time),
				Shard: -1, // aux-ring event: the hook has no shard attribution
				Agg:   agg,
				A:     ev.Bytes,
				B:     ev.QueueLen,
				C:     int64(ev.Reason),
			})
		})
	})
	if ferr != nil {
		return ferr
	}
	return err
}

// ErrNotObservable reports an ObserveAggregate call against an enforcer
// that exposes no event hook (only PQP/BC-PQP enforcers do). Test with
// errors.Is.
var ErrNotObservable = errors.New("enforcer exposes no event hook")

// WritePrometheus serializes a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). Names are sanitized, label values
// escaped, and non-finite values written as 0, so the output always parses.
func WritePrometheus(w io.Writer, s MetricsSnapshot) error {
	return obs.WritePrometheus(w, s)
}

// MetricsVar adapts a middlebox's metrics to expvar.Var, for publishing
// under /debug/vars:
//
//	expvar.Publish("bcpqp", bcpqp.MetricsVar(mb))
func MetricsVar(mb *Middlebox) expvar.Var {
	return obs.Var(func() obs.Snapshot { return mb.Metrics() })
}
