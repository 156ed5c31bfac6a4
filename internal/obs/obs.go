// Package obs is the runtime observability layer of the middlebox
// datapath: a flight recorder (fixed-size, lock-free per-shard rings of
// trace events), a metrics plane (per-aggregate counters with a two-window
// rate meter, a per-shard latency digest), the conformance auditor, and
// exporters for the Prometheus text exposition format and expvar.
//
// What watches a subscriber is sized like the subscriber: an observed,
// audited flat aggregate carries one 64-byte AggObs (four counters and the
// meter), one 144-byte Audit (envelope state, the counters a scrape reads,
// both digest headers) and a Digest span per distribution that holds only
// the buckets it has seen — 64 bytes for a slack digest that sits in one
// bucket, 512 for a rate-error digest spread over fifty. There is one
// sketch (Digest; HistSnapshot is only its export form) and one meter.
//
// The design constraint is zero allocation and near-zero cost on the hot
// path: events are fixed-size structs written into pre-allocated rings with
// a per-slot seqlock (word-wise atomic stores, so snapshots taken under the
// race detector are clean), per-burst accounting is a handful of atomic
// adds stamped once per burst rather than once per packet, and per-burst
// trace events are sampled (Options.SampleEvery). Rare events — drops with
// reasons, magic fill/reclaim, rate and policy updates, quarantine,
// removal, shed bursts, panics — are always recorded.
//
// The package is deliberately dependency-light (internal/metrics for the
// paper's window constant and internal/units only); internal/mbox threads it through the engine and
// the bcpqp facade re-exports the wiring surface.
package obs

import (
	"fmt"
	"time"
)

// Kind identifies a trace event in the flight recorder. The taxonomy
// covers the datapath (burst verdict summaries, per-packet drops with
// reason, ECN marks, §5.2 magic-byte churn) and the control plane
// (rate/policy updates, quarantine, removal, shed bursts, recovered
// panics).
type Kind uint8

const (
	// KindBurst summarizes one enforced run of a burst: A = packets
	// accepted, B = packets dropped, C = bytes accepted.
	KindBurst Kind = iota
	// KindDrop is a single rejected packet: A = bytes, B = simulated
	// queue occupancy after the event, C = drop reason (enforcer
	// specific; for phantom queues 1 = filter, 2 = RED, 3 = queue full).
	KindDrop
	// KindMark is a packet admitted with an ECN CE mark: A = bytes,
	// B = queue occupancy.
	KindMark
	// KindMagicFill is a burst-control magic fill: A = magic bytes
	// added, B = queue occupancy after.
	KindMagicFill
	// KindMagicReclaim is a burst-control magic reclaim: A = magic bytes
	// removed, B = queue occupancy after.
	KindMagicReclaim
	// KindRateUpdate is a live rate reconfiguration: A = new rate in
	// bits per second.
	KindRateUpdate
	// KindQuarantine marks a circuit breaker tripping: A = panic count.
	KindQuarantine
	// KindRemove is an explicit aggregate removal.
	KindRemove
	// KindShed is a burst refused at a wedged shard, the first of its
	// episode (the engine records none while the shard reads degraded
	// from an earlier fault): A = packets refused.
	KindShed
	// KindPanic is a recovered enforcer/emit panic: A = the aggregate's
	// cumulative panic count.
	KindPanic
	// KindShareApply is a cluster rebalance applying a per-node share via
	// the in-band rate-update lane: A = the share in bits per second,
	// B = 1 when the share is the conservative fallback (r/N floor under
	// degraded exchange), 0 when grant-adjusted.
	KindShareApply
	// KindViolation is a conformance-audit envelope breach: the audited
	// aggregate accepted more bytes than the
	// Theorem-1 bound r·Δt + B allows. A = the deficit in bytes, B = the
	// audited envelope rate in bits per second, C = cumulative accepted
	// bytes at the breach. Coalesced at the burst-sampling cadence under a
	// sustained breach (the first violation always records).
	KindViolation
)

// String names the event kind for dumps and logs.
func (k Kind) String() string {
	switch k {
	case KindBurst:
		return "burst"
	case KindDrop:
		return "drop"
	case KindMark:
		return "mark"
	case KindMagicFill:
		return "magic-fill"
	case KindMagicReclaim:
		return "magic-reclaim"
	case KindRateUpdate:
		return "rate-update"
	case KindQuarantine:
		return "quarantine"
	case KindRemove:
		return "remove"
	case KindShed:
		return "shed"
	case KindPanic:
		return "panic"
	case KindShareApply:
		return "share-apply"
	case KindViolation:
		return "violation"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one fixed-size flight-recorder record. It carries no pointers
// and no strings, so recording is allocation-free; attribution is by shard
// index and by the engine's aggregate handle, which dump consumers resolve
// back to ids while the aggregate is still registered.
type Event struct {
	// Seq is a collector-global sequence number (1-based): the total
	// order in which events were recorded across every ring.
	Seq uint64
	// Wall is the wall-clock timestamp in Unix nanoseconds.
	Wall int64
	// VT is the engine's virtual time in nanoseconds, when the event was
	// recorded by a shard's holder; zero for control-plane events.
	VT int64
	// Kind classifies the event; A, B and C are kind-specific arguments
	// (see the Kind constants).
	Kind Kind
	// Shard is the originating shard index, -1 when unattributed.
	Shard int32
	// Agg is the aggregate's engine handle, -1 when unattributed.
	Agg int64
	// A, B, C are the kind-specific arguments.
	A, B, C int64
}

// String renders the event as one structured key=value trace line.
func (e Event) String() string {
	return fmt.Sprintf("seq=%d wall=%s vt=%s kind=%s shard=%d agg=%d a=%d b=%d c=%d",
		e.Seq, time.Unix(0, e.Wall).UTC().Format(time.RFC3339Nano),
		time.Duration(e.VT), e.Kind, e.Shard, e.Agg, e.A, e.B, e.C)
}

// Recorder consumes trace events. Collector and ShardObs implement it; the
// interface is the build-out point for alternative sinks (tests, external
// trace shippers). Record must be fast, allocation-free, and safe for
// concurrent use.
type Recorder interface {
	Record(Event)
}
