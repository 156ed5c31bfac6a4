package bcpqp

import (
	"bcpqp/internal/enforcer"
	"bcpqp/internal/mbox"
)

// Middlebox is a sharded engine hosting many rate enforcers (one per
// traffic aggregate) concurrently — the deployment shape of a production
// rate-limiting middlebox. The datapath is burst-oriented and handle-based:
// aggregates resolve to an AggregateHandle once at Add time, submissions
// are lock-free reads of an atomically swapped registry snapshot, and a
// burst is enforced in place on the goroutine that submits it, once that
// goroutine holds its shard's occupancy word. Aggregates are hashed across
// shards that serve one burst at a time, so enforcers stay lock-free on the
// datapath; a shard whose holder stops making progress for a second reads
// wedged, and what waits for it is refused rather than buffered. An
// aggregate has one address, whatever its
// enforcer: a PolicyTree aggregate routes each packet to a leaf itself, and
// SetRate, ArmAudit and Stats address the whole aggregate by id.
type Middlebox = mbox.Engine

// MiddleboxConfig configures NewMiddlebox.
type MiddleboxConfig = mbox.Config

// AggregateHandle addresses a registered aggregate on the middlebox
// datapath; Add, AddPinned and Lookup return it. Handles carry a generation tag,
// so although table slots are recycled under churn (bounded registry
// memory), a stale handle can never alias a later aggregate — it reports
// ErrStaleHandle instead.
type AggregateHandle = mbox.Handle

// NoAggregate is the invalid handle returned alongside errors.
var NoAggregate = mbox.NoHandle

// ErrNoStats reports that an aggregate's enforcer exposes no statistics
// (it does not implement StatsReader). Test with errors.Is.
var ErrNoStats = mbox.ErrNoStats

// ErrShardSaturated reports that a middlebox operation gave up on a wedged
// shard (work in flight, no progress for a second): a burst, which is then
// counted in Overloaded, or a control call. A live shard, however slow, is
// waited out; the operation did not run. Test with errors.Is.
var ErrShardSaturated = mbox.ErrSaturated

// ErrStaleHandle reports a submission through a handle whose aggregate has
// been removed (the slot may already host a new aggregate under
// a different generation). Test with errors.Is.
var ErrStaleHandle = mbox.ErrStale

// ErrWrongShard reports a LocalSubmitter submission against an aggregate owned
// by a different shard than the submitter's. Pin the aggregate to that shard
// with Middlebox.AddPinned. Test with errors.Is.
var ErrWrongShard = mbox.ErrWrongShard

// LocalSubmitter is Middlebox.SubmitBatch bound to one shard, for per-core
// run-to-completion datapaths: it refuses aggregates owned by another shard
// (ErrWrongShard) and otherwise enforces bursts inline on the calling
// goroutine by the same rule, waiting out a live holder of the shard and
// refusing the burst (ErrShardSaturated) only if the shard is wedged. Mint one with
// Middlebox.LocalShard; see mbox.LocalSubmitter for the ownership and
// ordering contract.
type LocalSubmitter = mbox.LocalSubmitter

// ErrNotReconfigurable reports a Middlebox.SetRate against an enforcer that
// does not implement Reconfigurer. Test with errors.Is.
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
// the goroutine that submitted the burst, holding the shard: it must not
// block, and a call back into the Middlebox for the same shard waits for the
// shard its caller holds until the shard reads wedged (see mbox.Emit).
type EmitFunc = mbox.Emit

// NewMiddlebox starts a middlebox engine.
func NewMiddlebox(cfg MiddleboxConfig) *Middlebox { return mbox.New(cfg) }

// ShardState classifies a middlebox shard's health: Healthy, Degraded
// (a recent panic or refusal), or Wedged (has work in flight but has not
// made progress within the wedge timeout).
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

// MiddleboxCloseReport summarizes a deadline-bounded Middlebox.Close:
// whether shutdown was clean and how many wedged shards were force-abandoned.
type MiddleboxCloseReport = mbox.CloseReport

// BatchSubmitter is Enforcer, whose one method decides a burst. Kept for
// bench/, which spells it; it goes with bench/'s next change.
type BatchSubmitter = Enforcer

// Batched returns enf: every Enforcer decides bursts. Kept for bench/, which
// spells it; it goes with bench/'s next change.
func Batched(enf Enforcer) BatchSubmitter { return enf }

// StatsReader is implemented by every enforcer in this module.
type StatsReader = enforcer.StatsReader

// CascadeStage is an enforcer supporting two-phase (probe/commit)
// admission, the capability a PolicyTree node ceiling needs; PQP/BC-PQP and
// token-bucket policers implement it. Probe and Commit receive the caller's
// packet by reference, valid only for the call: a stage must neither retain
// nor modify it. It keeps the name of a cascade that is gone because the
// benchmark harness (bench/) uses it.
type CascadeStage = enforcer.Stage
