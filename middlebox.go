package bcpqp

import (
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/mbox"
)

// Middlebox is a sharded engine hosting many rate enforcers (one per
// traffic aggregate) concurrently — the deployment shape of a production
// rate-limiting middlebox. The datapath is burst-oriented and handle-based:
// aggregates resolve to an AggregateHandle once at Add time, submissions
// are lock-free reads of an atomically swapped registry snapshot, and a
// burst is enforced in place by whoever finds its shard idle — SubmitBatch
// on an idle shard, LocalSubmitter always — or, when the shard is busy,
// queued for the shard's goroutine in one ring operation (SubmitBatch).
// Aggregates are hashed across shards that serve one burst at a time, so
// enforcers stay lock-free on the datapath; a full shard ring sheds bursts
// rather than blocking.
type Middlebox = mbox.Engine

// MiddleboxConfig configures NewMiddlebox.
type MiddleboxConfig = mbox.Config

// AggregateHandle identifies a registered aggregate on the middlebox
// datapath. Handles are returned by Add and resolved by Lookup; they carry
// a generation tag, so although table slots are recycled under churn
// (bounded registry memory), a stale handle can never alias a later
// aggregate — it reports ErrStaleHandle instead.
type AggregateHandle = mbox.Handle

// NoAggregate is the invalid handle returned alongside errors.
const NoAggregate = mbox.NoHandle

// ErrNoStats reports that an aggregate's enforcer exposes no statistics
// (it does not implement StatsReader). Test with errors.Is.
var ErrNoStats = mbox.ErrNoStats

// ErrShardSaturated reports that a middlebox control operation gave up on a
// wedged shard (no progress for a second with work queued), which freed no
// queue slot for it; the operation did not run. Test with errors.Is.
var ErrShardSaturated = mbox.ErrSaturated

// ErrStaleHandle reports a submission through a handle whose aggregate has
// been removed or evicted (the slot may already host a new aggregate under
// a different generation). Test with errors.Is.
var ErrStaleHandle = mbox.ErrStale

// ErrAggregateTableFull reports an Add beyond MiddleboxConfig.MaxAggregates.
// Test with errors.Is.
var ErrAggregateTableFull = mbox.ErrTableFull

// ErrWrongShard reports a ring-bypass submission against an aggregate owned
// by a different shard than the submitter's. Pin the aggregate to that shard
// with Middlebox.AddPinned. Test with errors.Is.
var ErrWrongShard = mbox.ErrWrongShard

// LocalSubmitter is the ring-bypass fast path: a shard-affinity submitter
// that enforces bursts inline on the calling goroutine — no channel send,
// no cross-core handoff — for per-core run-to-completion datapaths. Mint
// one with Middlebox.LocalShard; see mbox.LocalSubmitter
// for the ownership and ordering contract.
type LocalSubmitter = mbox.LocalSubmitter

// ErrNotReconfigurable reports a Middlebox.SetRate/SetPolicy against an
// enforcer that does not implement Reconfigurer. Test with errors.Is.
var ErrNotReconfigurable = mbox.ErrNotReconfigurable

// ErrNoSnapshot reports a snapshot operation against an enforcer that does
// not implement Snapshotter. Test with errors.Is.
var ErrNoSnapshot = mbox.ErrNoSnapshot

// ErrBadSnapshot reports a corrupt or incompatible middlebox snapshot blob.
// Test with errors.Is.
var ErrBadSnapshot = mbox.ErrBadSnapshot

// MiddleboxSnapshot is a warm-restart image of a middlebox's enforcement
// state, produced by Middlebox.Snapshot and loaded by Middlebox.Restore. It
// implements encoding.BinaryMarshaler/Unmarshaler with a versioned framing.
type MiddleboxSnapshot = mbox.Snapshot

// AggregateSnapshot is one aggregate's serialized enforcer state inside a
// MiddleboxSnapshot.
type AggregateSnapshot = mbox.AggregateSnapshot

// EmitFunc receives packets an aggregate's enforcer transmitted. It runs on
// whichever goroutine holds the shard — the submitter's own on an idle shard:
// it must not block and must not make a control call into the Middlebox.
type EmitFunc = mbox.Emit

// NewMiddlebox starts a middlebox engine.
func NewMiddlebox(cfg MiddleboxConfig) *Middlebox { return mbox.New(cfg) }

// DegradeMode selects what a middlebox does with traffic belonging to a
// quarantined (crash-looping) aggregate: FailClosed drops it (the safe
// default for a rate enforcer), FailOpen transmits it unenforced. Both
// count every affected packet.
type DegradeMode = mbox.DegradeMode

// Degrade modes for quarantined aggregates.
const (
	FailClosed = mbox.FailClosed
	FailOpen   = mbox.FailOpen
)

// ShardState classifies a middlebox shard's health: Healthy, Degraded
// (recent faults, shedding, or a near-full queue), or Wedged (has work but
// its goroutine has not made progress within the wedge timeout).
type ShardState = mbox.ShardState

// Shard health states reported by Middlebox.Health.
const (
	ShardHealthy  = mbox.ShardHealthy
	ShardDegraded = mbox.ShardDegraded
	ShardWedged   = mbox.ShardWedged
)

// MiddleboxHealth is a point-in-time health snapshot of the whole engine:
// per-shard states plus engine-wide fault counters.
type MiddleboxHealth = mbox.Health

// ShardHealth is one shard's entry in a MiddleboxHealth snapshot.
type ShardHealth = mbox.ShardHealth

// OverloadHealth is the overload plane's slice of a MiddleboxHealth
// snapshot: the composite pressure signal, its components, and the plane's
// shed/eviction counters. MiddleboxConfig.Overload switches the plane on:
// pressure tracking always, the priority-aware harmonic shed policy once
// SetShedClass puts aggregates above class 0, and pressure-tightened
// idle-TTL and Add-path admission eviction with IdleTTL and MaxAggregates
// set. Its thresholds are constants (DESIGN.md, "Overload control").
type OverloadHealth = mbox.OverloadHealth

// AggregateFaults reports one aggregate's fault record: panics observed,
// quarantine state, and packets dropped or passed unenforced while
// degraded.
type AggregateFaults = mbox.FaultRecord

// MiddleboxCloseReport summarizes a deadline-bounded Middlebox.Close:
// whether shutdown was clean, how many wedged shards were force-abandoned,
// and how many queued packets were shed in the process.
type MiddleboxCloseReport = mbox.CloseReport

// BatchSubmitter is the burst-oriented enforcement capability: all
// enforcers in this module (PQP/BC-PQP, Policer, FairPolicer, PolicyTree)
// implement it natively, amortizing clock handling, lazy drains, token
// refills, and burst-control window checks across a whole burst.
type BatchSubmitter = enforcer.BatchSubmitter

// SubmitBatch drives any Enforcer over a burst arriving at virtual time
// now, writing one verdict per packet into verdicts (len(pkts) required):
// natively for BatchSubmitters, via a per-packet fallback loop otherwise.
// Verdicts are byte-identical to per-packet Submit calls at the same time.
func SubmitBatch(enf Enforcer, now time.Duration, pkts []Packet, verdicts []Verdict) {
	enforcer.SubmitBatch(enf, now, pkts, verdicts)
}

// Batched adapts any Enforcer to BatchSubmitter, returning native
// implementations unchanged and wrapping the rest in a Submit loop.
func Batched(enf Enforcer) BatchSubmitter { return enforcer.Batched(enf) }

// StatsReader is implemented by every enforcer in this module.
type StatsReader = enforcer.StatsReader

// CascadeStage is an enforcer supporting two-phase (probe/commit)
// admission, the capability a PolicyTree node ceiling needs; PQP/BC-PQP and
// token-bucket policers implement it.
type CascadeStage = enforcer.Stage
