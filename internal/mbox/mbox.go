// Package mbox implements a sharded middlebox engine that hosts many rate
// enforcers (one per traffic aggregate) concurrently — the deployment shape
// of the paper's middlebox, which polices thousands of subscribers at once.
//
// The datapath is burst-oriented and handle-based, the way a DPDK middlebox
// receives traffic: packets arrive in bursts (rx_burst ≈ 32), aggregates
// are identified by small integer handles resolved once at Add time, and
// the engine's hot path is a lock-free read of an atomically published slot
// array — no mutex, no map lookup, no hashing, no allocation per packet.
//
// Aggregates are hashed across shards; each shard owns its aggregates
// exclusively and serves one unit of work at a time, so enforcers never
// need locks on the datapath (the same shared-nothing sharding a DPDK
// middlebox gets from RSS queues). Whoever finds a shard idle serves it:
// SubmitBatch on an idle shard enforces the burst on the caller's goroutine,
// run to completion; when the shard is busy or has work queued, the burst is
// copied into one ring slot and the shard's goroutine serves it in order.
// When a shard falls behind, excess bursts are shed and counted as overload
// — a middlebox must shed load, not buffer unboundedly.
//
// Control operations (stats/flush/live reconfiguration/snapshots) follow the
// same rule and ride the same ring, serialized with the shard's bursts, so
// they are safe during full-rate traffic; one that waits for a ring slot on a
// wedged shard reports ErrSaturated instead of stalling the control plane.
// SetRate applies rate-plan changes in-band and in place — admission state
// (phantom occupancy, burst-control windows, token levels) survives the
// change, preserving the Theorem 1 bound piecewise across it.
//
// An aggregate lives from Add to Remove (or Close); nothing else takes it
// out of the table. Slots freed by Remove are recycled through a free list,
// so the table is bounded by the most aggregates ever live at once under any
// Add/Remove churn, and handles carry generation tags so a stale handle
// reports ErrStale rather than ever touching a recycled slot's new occupant.
// Snapshot/Restore serialize per-aggregate enforcer state for warm restarts.
//
// The runtime is fault-tolerant: every enforcement run and control item
// executes inside a panic barrier, a panicking enforcer is quarantined by a
// per-aggregate circuit breaker instead of killing the shard goroutine (its
// traffic is dropped and counted until Remove), each read of Engine.Health
// or Engine.Metrics classifies every shard Healthy/Degraded/Wedged from its
// heartbeat age, ring depth and last fault, and Close is bounded by a
// deadline that force-abandons wedged shards rather than hanging.
package mbox

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

// Emit is called for every transmitted packet. CE-marked transmissions (AQM
// marking) arrive with pkt.CE set. Emit runs on whichever goroutine holds the
// shard — the submitter's own on an idle shard, the shard goroutine
// otherwise: it must not block, and must not make a control call into the
// Engine (the call would wait on the holder that issued it). A SubmitBatch
// to the same shard from inside Emit queues behind the burst being emitted.
// While Emit runs nobody else can serve the shard: what queues behind it
// waits, and the goroutine waiting to serve it polls for the word, after the
// first few microseconds at most once a millisecond (tryAcquire).
type Emit func(pkt packet.Packet)

// Handle addresses a registered aggregate on the datapath: one address per
// aggregate, whatever its enforcer. A policy tree routes each packet of a
// burst to a leaf by class itself. Handles are valid until the aggregate is
// removed. The zero Handle is invalid.
type Handle struct {
	ref aggRef
}

// NoHandle is the invalid handle returned alongside errors.
var NoHandle = Handle{ref: -1}

// TraceAgg returns what trace events carry in Agg for h's aggregate: how a
// source outside the engine attributes its events so that TraceDump resolves
// them to the aggregate's id.
func (h Handle) TraceAgg() int64 { return int64(h.ref) }

// aggRef is the one-word reference the registry, the id map and trace events
// keep for an aggregate: a table slot (low 32 bits) with a generation tag
// (high bits). Slots ARE recycled — an unbounded Add/Remove churn would
// otherwise grow the table forever — but each reuse bumps the slot's
// generation, so a stale handle fails resolution with ErrStale and can never
// alias the slot's next occupant. Generations are 31 bits (keeping the word
// positive) and skip zero, so the zero reference is never valid.
type aggRef int64

const genMask = 0x7fffffff

func (r aggRef) slot() int { return int(uint32(r)) }
func packRef(slot int, gen uint32) aggRef {
	return aggRef(uint64(gen)<<32 | uint64(uint32(slot)))
}

// ErrNoStats reports that an aggregate's enforcer does not implement
// enforcer.StatsReader. It is the shared enforcer.ErrNoStats sentinel. Test
// with errors.Is.
var ErrNoStats = enforcer.ErrNoStats

// ErrStale reports a handle whose aggregate has been removed.
// The slot may since have been recycled for a different aggregate; the
// generation tag guarantees the stale handle never reaches it. Test with
// errors.Is.
var ErrStale = errors.New("stale handle")

// ErrNotReconfigurable reports that an aggregate's enforcer does not
// implement enforcer.Reconfigurer. It is the shared
// enforcer.ErrNotReconfigurable sentinel. Test with errors.Is.
var ErrNotReconfigurable = enforcer.ErrNotReconfigurable

// ErrSaturated reports that an operation waiting on its shard — a control
// call for a slot on the full ring, a LocalSubmitter for the occupancy word —
// found the shard wedged (shard.wedged: work queued or in flight, no
// heartbeat for wedgeTimeout). That is the only reason either gives up: a
// live shard, however slow, is waited out. The operation did not run and
// never will. Test with errors.Is.
var ErrSaturated = errors.New("shard saturated")

// errControlPanicked reports a control call whose closure panicked: the panic
// was recovered and attributed to the aggregate, and the call did not finish.
var errControlPanicked = errors.New("control call panicked")

// ShardState is one shard's classification, made when it is read (classify).
type ShardState int32

const (
	// ShardHealthy: the shard is idle or making progress.
	ShardHealthy ShardState = iota
	// ShardDegraded: the shard is alive but under duress — it recovered a
	// panic or shed load within degradedFor (50ms), or its ring is ≥ 3/4 full.
	ShardDegraded
	// ShardWedged: the shard has queued or in-flight work but its
	// heartbeat has not advanced within wedgeTimeout (1s) — typically a
	// blocked Emit callback or a stalled enforcer.
	ShardWedged
)

// String names the shard state for logs and health dumps.
func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardDegraded:
		return "degraded"
	case ShardWedged:
		return "wedged"
	default:
		return fmt.Sprintf("shard-state(%d)", int32(s))
	}
}

// Config configures an Engine.
type Config struct {
	// Shards is the number of shard goroutines (default GOMAXPROCS).
	Shards int
	// QueueDepth is each shard's ingress ring capacity in BURSTS
	// (default 1024), whatever their size: a full ring of 32-packet bursts
	// holds 32× as many packets.
	QueueDepth int
	// Clock supplies the virtual time passed to enforcers; it is read
	// once per burst, not once per packet. The default is wall time
	// since engine start. Tests inject deterministic clocks.
	Clock func() time.Duration

	// CloseTimeout bounds Close: shards that cannot be stopped and
	// drained within this deadline are force-abandoned and their queued
	// packets counted as shed (default 5s).
	CloseTimeout time.Duration
	// OnFault, when non-nil, is called once per recovered panic with the
	// aggregate id (empty when unattributable), the recovered value, and
	// the stack of the panicking goroutine. It runs on the goroutine that
	// holds the shard (see Emit): it must be fast, must not block, and must
	// not call back into the Engine.
	OnFault func(id string, recovered any, stack []byte)

	// Observer, when non-nil, attaches the observability layer: per-shard
	// flight-recorder rings fed by datapath and fault events, per-shard
	// burst counts and enforcement-latency digests, and per-aggregate
	// traffic counters with windowed rate meters. The hot-path cost is,
	// per burst, one atomic add for the count and, on one burst in
	// Options.SampleEvery, two monotonic clock reads for the latency digest;
	// per enforced run, a verdict tally taken in the emit loop's own pass
	// and, once the run's packets have reached the emit hook, a handful of
	// atomic adds from it — no per-packet atomics, no allocation — plus one
	// sampled trace event per Options.SampleEvery runs; rare events (panics,
	// quarantine, shed, reconfiguration) are always recorded. Read it
	// back through Engine.TraceDump and Engine.Metrics.
	Observer *obs.Collector
}

// Engine hosts many enforcers behind a concurrent burst-submit API.
type Engine struct {
	cfg    Config
	shards []*shard

	// Overloaded counts packets shed: at a full shard ring, or by a
	// LocalSubmitter that found its shard wedged. It sums the shards' shed
	// words.
	Overloaded shardSum
	// Panics counts recovered enforcer/emit panics (each injected or
	// organic panic is recovered and counted exactly once, on the shard
	// that recovered it).
	Panics shardSum
	// DegradedDrops counts packets dropped because their aggregate was
	// quarantined (including the packets of the run that tripped the
	// breaker).
	DegradedDrops atomic.Int64
	// BadVerdicts counts out-of-range verdicts (a corrupted or buggy
	// enforcer) coerced to Drop, whether or not the aggregate has an emit
	// hook.
	BadVerdicts atomic.Int64
	// OverloadShed is always zero: the engine sheds only at full rings,
	// and counts that in Overloaded.
	//
	// Deprecated: kept only because bench/engine.go reads it.
	OverloadShed atomic.Int64
	// InlineBursts counts bursts enforced through the ring-bypass fast
	// path (LocalSubmitter.SubmitBatch) — run to completion on the
	// submitting goroutine, no shard-ring hop.
	InlineBursts shardSum
	// InlineFallbacks counts ring-bypass submissions refused because their
	// shard read wedged while they waited for its occupancy word; their
	// packets are counted in Overloaded.
	InlineFallbacks shardSum

	// table is the slot array the datapath reads lock-free. Writers
	// (Add/Remove/Close) serialize on mu; they store into slots in place
	// and publish a new registry only to double the array or to close, so
	// registration is amortised O(1).
	table atomic.Pointer[registry]
	mu    sync.Mutex

	// ids is the string-keyed view of the table for the control plane
	// (Lookup, Stats, SetRate, …); the datapath resolves handles through
	// slots alone and never takes idMu. Writers hold mu, then idMu.
	idMu sync.RWMutex
	ids  map[string]aggRef

	// Slot lifecycle, guarded by mu. slotGen[s] is the generation of the
	// aggregate currently (or most recently) occupying slot s; freeSlots
	// holds recyclable slots. len(slotGen) is the table's high-water mark:
	// the most aggregates ever registered at once.
	slotGen   []uint32
	freeSlots []int

	// obsSample caches Observer.Options().SampleEvery for the burst timing
	// in serve and the shed-event coalescing in recordShed (0 without an
	// Observer).
	obsSample int

	// extraMetrics holds metric-family sources attached by subsystems
	// layered above the engine (e.g. the cluster budget exchange), guarded
	// by extraMu; Metrics appends their families to every snapshot.
	extraMu      sync.Mutex
	extraMetrics []func() []obs.Family

	// wall and mono are wallClock and monoClock as they stood at New.
	// coarseWall is wall's reading at New or at the wall ticker's last
	// wake-up, coarseWallInterval (plus the ticker's scheduling delay) old at
	// most: what every burst and control item stamps the shard heartbeat
	// with, read at second granularity (wedgeTimeout), so heartbeat ages read
	// up to coarseWallInterval high.
	wall       func() int64
	mono       func() time.Duration
	coarseWall atomic.Int64

	// pool recycles the buffers queued bursts are copied into. A fixed
	// per-shard slab would pin QueueDepth × DefaultBurst packets (1024 × 32
	// × 72 B ≈ 2.36 MB a shard) whether or not anything ever queues; the
	// pool holds what queuing has needed lately (DESIGN.md §5).
	pool        sync.Pool     // *burst
	stop        chan struct{} // closed by Close: stops the wall ticker
	dead        chan struct{} // closed once Close finished (shards exited or abandoned)
	closeReport CloseReport   // stored by the first Close, returned by later ones
}

// shardSum is an engine-wide counter kept as one word per shard, so the cores
// of a per-core datapath, each driving its own shard, never write one cache
// line; Load sums the words.
type shardSum struct {
	shards []*shard
	word   func(*shard) *atomic.Int64
}

// Load returns the counter's engine-wide value.
func (c *shardSum) Load() int64 {
	var n int64
	for _, s := range c.shards {
		n += c.word(s).Load()
	}
	return n
}

// wallClock reads the wall clock in Unix nanoseconds. Engines call it through
// the copy New takes, so a test that counts clock reads can swap it before
// New without racing the goroutines of engines that already run.
var wallClock = func() int64 { return time.Now().UnixNano() }

// monoClock reads the monotonic clock as the time since monoEpoch: time.Since
// on a reading that carries a monotonic part reads that clock alone, about
// half what time.Now costs. The burst-latency digest is its only user, and
// engines call it through the copy New takes, as they do wallClock.
var monoClock = func() time.Duration { return time.Since(monoEpoch) }

// monoEpoch anchors monoClock's readings.
var monoEpoch = time.Now()

// registry is the aggregate table: a fixed-length array of slots, each
// written in place. A reader holding a superseded registry sees the table as
// of the moment it was replaced, which is what a copy-on-write snapshot
// would have shown it.
type registry struct {
	closed bool
	slots  []atomic.Pointer[aggregate] // indexed by aggRef.slot(); nil = vacant
}

// minSlots is the slot array's first size; it doubles from there.
const minSlots = 64

// refOf returns the reference registered under id.
func (e *Engine) refOf(id string) (aggRef, bool) {
	e.idMu.RLock()
	r, ok := e.ids[id]
	e.idMu.RUnlock()
	return r, ok
}

// aggregate pairs an enforcer with its emit hook and owning shard, plus the
// mutable fault state shared by every registry snapshot that references it
// (snapshots copy the slot pointers, not the aggregates).
type aggregate struct {
	id    string
	h     aggRef
	enf   enforcer.Enforcer
	emit  Emit
	shard *shard

	// tree is set when the enforcer is a policy tree
	// (enforcer.TreeEnforcer), for NodeMetrics' per-node export. Bursts
	// never enter through it: a tree routes them itself, as any enforcer.
	tree enforcer.TreeEnforcer

	// Fault state. quarantined is the circuit breaker: once set, the
	// datapath never calls the enforcer again, and the aggregate's packets
	// are dropped until Remove.
	quarantined   atomic.Bool
	panics        atomic.Int64
	degradedDrops atomic.Int64

	// obs is the per-aggregate metrics block (nil without an Observer).
	// It lives on the aggregate, not in slot-indexed collector storage, so
	// slot recycling under churn can never bleed one incarnation's
	// counters into the next.
	obs *obs.AggObs

	// audit is the conformance-audit state (see audit.go); nil when
	// unarmed. Arming swaps it in-band; the datapath pays one pointer
	// load per enforced run.
	audit atomic.Pointer[aggAudit]
}

// burst is the pooled buffer a queued burst's packets are copied into; the
// engine owns it.
type burst struct {
	pkts []packet.Packet
}

// item is one unit of shard work, for agg: a burst (b), a control call, or
// the stop Close sends.
type item struct {
	b   *burst
	agg *aggregate

	// control runs on agg's enforcer, and agg attributes a control panic
	// to its aggregate. done receives whether control returned (false when
	// it panicked); it is nil when the caller runs the item itself.
	control func(enforcer.Enforcer)
	done    chan bool
	stop    bool
}

// shard is one execution domain: one holder of its occupancy word at a time.
// Its fields are grouped by who writes them, one 64-byte line per group (the
// struct is 256 bytes, a size class whose objects start on a line): what
// nobody writes after New; what the holder of the word writes; the pending
// count, which both sides write; and what submitters write behind a busy
// shard. A producer that queues or sheds there takes no line the holder is
// writing, and one that sheds does not take the count's either.
type shard struct {
	idx      int
	in       chan item          // the shard's one queue: bursts, control items and the stop, in order
	verdicts []enforcer.Verdict // enforcement-side scratch, owned by the occupancy holder
	// obs is the shard's observability block (nil without an Observer):
	// its flight-recorder ring, burst-latency histogram and trace
	// sampling state.
	obs  *obs.ShardObs
	done chan struct{} // closed when the shard goroutine exits
	_    [8]byte

	// occ is the shard occupancy word (occFree/occShard/occLocal): the
	// shard goroutine CASes it around every ring item and submitters CAS
	// it around every run of their own, so exactly one goroutine at a time
	// uses the shard's enforcement state (enforcers, verdicts scratch,
	// trace sampling). See local.go.
	occ atomic.Int32
	// Health plane. heartbeat is stamped (wall nanos, Engine.coarseWall) around
	// every ring item and inline burst; that one is in flight — how classify
	// tells a shard wedged mid-item (ring may be empty) from an idle one — is
	// the occupancy word above (inFlight).
	heartbeat atomic.Int64
	processed atomic.Int64 // items completed
	panics    atomic.Int64 // panics recovered on this shard
	// Who served what, written under the word: ring-API bursts run by their
	// submitter (claimed) or handed to the shard goroutine (queued), and
	// LocalSubmitter's bursts (Engine.InlineBursts sums them).
	claimed      atomic.Int64
	queued       atomic.Int64
	inlineBursts atomic.Int64
	// timeTick counts down the bursts until the next one the latency digest
	// times (one in Options.SampleEvery; see serve).
	timeTick int

	// pending counts the items offered to in and not yet completed:
	// raised before the channel send, lowered under the word once the item
	// has run (or by whoever sheds, times out or drains it). Submitters
	// serve their own work only at zero (claimIdle).
	pending atomic.Int32
	_       [60]byte

	shed            atomic.Int64 // packets shed at this shard (Engine.Overloaded sums them)
	inlineFallbacks atomic.Int64 // LocalSubmitter bursts refused (Engine.InlineFallbacks sums them)
	// lastFault is the coarse wall reading (Engine.coarseWall) at the
	// shard's last shed or recovered panic: classify reads the shard
	// degraded for degradedFor after it.
	lastFault atomic.Int64
	// shedTick/shedAccum coalesce KindShed trace events: under sustained
	// overload every enqueue sheds, and recording each one would hammer
	// the collector's global sequence from every producer. The first shed
	// records immediately (the transition into overload is never missed);
	// after that one event per obsSample sheds carries the accumulated
	// packet count. Both are guarded by mu, which only a shedding producer
	// takes (recordShed). Overloaded/shed counters stay exact.
	mu        sync.Mutex
	shedTick  int
	shedAccum int64
	_         [16]byte
}

// New starts an Engine.
func New(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.Clock == nil {
		start := time.Now()
		cfg.Clock = func() time.Duration { return time.Since(start) }
	}
	if cfg.CloseTimeout <= 0 {
		cfg.CloseTimeout = 5 * time.Second
	}
	e := &Engine{
		cfg:  cfg,
		wall: wallClock,
		mono: monoClock,
		stop: make(chan struct{}),
		dead: make(chan struct{}),
	}
	if cfg.Observer != nil {
		e.obsSample = cfg.Observer.Options().SampleEvery
	}
	e.pool.New = func() any {
		return &burst{pkts: make([]packet.Packet, 0, enforcer.DefaultBurst)}
	}
	e.table.Store(&registry{})
	e.ids = make(map[string]aggRef)
	now := e.wall()
	e.coarseWall.Store(now)
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			idx:      i,
			in:       make(chan item, cfg.QueueDepth),
			verdicts: make([]enforcer.Verdict, enforcer.DefaultBurst),
			done:     make(chan struct{}),
		}
		s.heartbeat.Store(now)
		if cfg.Observer != nil {
			s.obs = cfg.Observer.Shard(i)
		}
		e.shards = append(e.shards, s)
		go e.run(s)
	}
	e.Overloaded = shardSum{e.shards, func(s *shard) *atomic.Int64 { return &s.shed }}
	e.Panics = shardSum{e.shards, func(s *shard) *atomic.Int64 { return &s.panics }}
	e.InlineBursts = shardSum{e.shards, func(s *shard) *atomic.Int64 { return &s.inlineBursts }}
	e.InlineFallbacks = shardSum{e.shards, func(s *shard) *atomic.Int64 { return &s.inlineFallbacks }}
	go e.wallTicker()
	return e
}

// run is a shard's event loop: it serves, in order, what submitters and
// control callers queued because they found the shard busy, until Close's
// stop item.
func (e *Engine) run(s *shard) {
	defer close(s.done)
	for !e.process(s, <-s.in) {
	}
}

// process executes one queued item on the shard goroutine; true means stop.
// The item runs under the shard's occupancy word, which serializes it against
// submitters serving their own work (see local.go) and tells classify
// that work is in flight, and stops counting as pending only once it has run;
// stop items skip both — they touch no enforcement state.
func (e *Engine) process(s *shard, it item) bool {
	if it.stop {
		return true
	}
	s.acquire(occShard)
	defer s.release()
	defer s.pending.Add(-1)
	if it.control != nil {
		e.serveControl(s, it)
		return false
	}
	e.serve(s, it.agg, it.b.pkts)
	s.queued.Add(1)
	e.putBurst(it.b)
	return false
}

// serve enforces one burst on behalf of whoever holds the shard's occupancy
// word: the shard goroutine for a queued item, the submitting goroutine for
// one it claimed the shard for. The heartbeat stamps are the coarse wall
// reading (coarseWall), so a burst reads no wall clock. An observed shard
// counts every burst and times one in Options.SampleEvery, the first of each
// stretch, for the latency digest, with two monotonic reads. The engine
// clock is read once per burst, not once per packet: every packet in the
// burst is enforced at the same virtual arrival time, the granularity a
// burst-polling middlebox actually observes.
func (e *Engine) serve(s *shard, agg *aggregate, pkts []packet.Packet) {
	s.heartbeat.Store(e.coarseWall.Load())
	timed := false
	var start time.Duration
	if s.obs != nil {
		if s.timeTick--; s.timeTick <= 0 {
			s.timeTick, timed, start = e.obsSample, true, e.mono()
		}
	}
	e.runBatch(s, e.cfg.Clock(), agg, pkts)
	if timed {
		s.obs.ObserveBurst(int64(e.mono() - start))
	} else if s.obs != nil {
		s.obs.ObserveBurst(-1)
	}
	s.heartbeat.Store(e.coarseWall.Load())
	s.processed.Add(1)
}

// serveControl runs one control item on behalf of whoever holds the shard's
// occupancy word, between two heartbeat stamps, and reports whether its
// closure returned.
func (e *Engine) serveControl(s *shard, it item) bool {
	s.heartbeat.Store(e.coarseWall.Load())
	ok := e.runControl(s, it)
	s.processed.Add(1)
	s.heartbeat.Store(e.coarseWall.Load())
	return ok
}

// runControl executes one control item inside a panic barrier and reports
// whether its closure returned. done is answered even when fn panics, so a
// control waiter can never be leaked by a faulty enforcer; the panic is
// attributed to the item's aggregate.
func (e *Engine) runControl(s *shard, it item) (ok bool) {
	defer func() {
		if it.done != nil {
			it.done <- ok
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			e.notePanic(s, it.agg, r)
		}
	}()
	it.control(it.agg.enf)
	return true
}

// runBatch pushes one single-aggregate run through the enforcer's batch
// path inside a panic barrier. A quarantined aggregate's run never touches
// the enforcer: it is dropped at once. A run that panics mid-flight
// quarantines the aggregate and drops the unhandled remainder of the run,
// and the shard goroutine survives.
func (e *Engine) runBatch(s *shard, now time.Duration, agg *aggregate, pkts []packet.Packet) {
	if agg.quarantined.Load() {
		e.degrade(agg, pkts)
		return
	}
	if rest, faulted := e.enforceRun(s, now, agg, pkts); faulted {
		e.degrade(agg, rest)
	}
}

// enforceRun enforces, emits and accounts one run under a recover barrier.
// Forward first: each packet reaches the emit hook as soon as the verdicts
// are written. A watched run (an Observer block or an armed audit) is tallied
// in that same pass over the verdicts (emitWatched) and accounted once the
// loop ends; an unwatched run is tallied only when its loop met an
// out-of-range verdict, for the count. On panic it reports faulted=true and
// the packets that were not fully handled: the whole run when the enforcer
// itself panicked (no verdicts are trustworthy), or the un-emitted tail when
// the emit hook panicked (the packet in flight at the panic is indeterminate
// and is skipped). A run whose verdicts were written is accounted exactly
// once either way: the barrier drops the loop's partial tally and accounts
// an emit-faulted run in full before its tail degrades.
func (e *Engine) enforceRun(s *shard, now time.Duration, agg *aggregate, pkts []packet.Packet) (rest []packet.Packet, faulted bool) {
	var v []enforcer.Verdict
	enforced, emitting := false, -1
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e.notePanic(s, agg, r)
		faulted = true
		if !enforced {
			rest = pkts
		} else if emitting >= 0 {
			e.accountRun(s, now, agg, pkts, v)
			rest = pkts[emitting+1:]
		}
	}()
	if cap(s.verdicts) < len(pkts) {
		s.verdicts = make([]enforcer.Verdict, len(pkts))
	}
	v = s.verdicts[:len(pkts)]
	agg.enf.SubmitBatch(now, pkts, v)
	enforced = true
	if agg.emit == nil {
		e.accountRun(s, now, agg, pkts, v)
		return nil, false
	}
	if au := agg.audit.Load(); agg.obs != nil || au != nil {
		e.emitWatched(s, now, agg, au, pkts, v, &emitting)
		return nil, false
	}
	sound := true // until the emit loop meets an out-of-range verdict
	for i, verdict := range v {
		emitting = i
		switch verdict {
		case enforcer.Transmit:
			agg.emit(pkts[i])
		case enforcer.TransmitCE:
			pkts[i].CE = true
			agg.emit(pkts[i])
		case enforcer.Drop, enforcer.Queued:
		default:
			sound = false
		}
	}
	emitting = -1
	if !sound {
		e.accountRun(s, now, agg, pkts, v)
	}
	return nil, false
}

// emitWatched is enforceRun's emit loop for a watched run (au is its armed
// audit, if any): the loop that hands each admitted packet to the emit hook
// tallies the verdicts as it goes, and the tally is accounted once the loop
// ends. emitting is enforceRun's note of the packet in flight, for its
// recover barrier.
func (e *Engine) emitWatched(s *shard, now time.Duration, agg *aggregate, au *aggAudit, pkts []packet.Packet, v []enforcer.Verdict, emitting *int) {
	t := runTally{pkts: int64(len(v))}
	for i, verdict := range v {
		*emitting = i
		sz := int64(pkts[i].Size)
		t.bytes += sz
		switch verdict {
		case enforcer.Transmit:
			t.accPkts++
			t.accBytes += sz
			agg.emit(pkts[i])
		case enforcer.TransmitCE:
			t.accPkts++
			t.accBytes += sz
			pkts[i].CE = true
			agg.emit(pkts[i])
		case enforcer.Queued:
			t.accPkts++
			t.accBytes += sz
		case enforcer.Drop:
		default:
			t.bad++
		}
	}
	*emitting = -1
	if t.bad != 0 {
		e.BadVerdicts.Add(t.bad)
	}
	e.observeRun(s, now, agg, au, t)
}

// acceptMask has bit v set for each verdict v that admits its packet, and
// validMask for each verdict in range: anything else (a corrupted or buggy
// enforcer) is coerced to Drop and counted in BadVerdicts.
const (
	acceptMask = 1<<enforcer.Transmit | 1<<enforcer.TransmitCE | 1<<enforcer.Queued
	validMask  = acceptMask | 1<<enforcer.Drop
)

// runTally is one enforced run's verdict tally; what was not accepted dropped.
type runTally struct {
	pkts, bytes       int64 // the whole run
	accPkts, accBytes int64 // Transmit, TransmitCE and Queued
	bad               int64 // out-of-range verdicts
}

// tallyRun counts a run's verdicts in one pass with no branch on the
// verdict: a mask lookup per packet decides whether its size counts as
// accepted.
func tallyRun(pkts []packet.Packet, v []enforcer.Verdict) (t runTally) {
	pkts = pkts[:len(v)]
	for i, verdict := range v {
		sz := int64(pkts[i].Size)
		acc := int64(uint64(acceptMask) >> uint64(verdict) & 1)
		t.accPkts += acc
		t.accBytes += sz & -acc
		t.bytes += sz
		t.bad += int64(uint64(validMask)>>uint64(verdict)&1 ^ 1)
	}
	t.pkts = int64(len(v))
	return t
}

// accountRun tallies and accounts a run no emit loop tallied: a hookless
// run, an unwatched run whose loop met an out-of-range verdict, or one whose
// emit hook panicked (the recover barrier accounts the whole run). The
// tally's out-of-range verdicts go into BadVerdicts, whatever the emit hook,
// and on an observed or audited aggregate the tally goes into observeRun.
func (e *Engine) accountRun(s *shard, now time.Duration, agg *aggregate, pkts []packet.Packet, v []enforcer.Verdict) {
	t := tallyRun(pkts, v)
	if t.bad != 0 {
		e.BadVerdicts.Add(t.bad)
	}
	if au := agg.audit.Load(); agg.obs != nil || au != nil {
		e.observeRun(s, now, agg, au, t)
	}
}

// observeRun moves one enforced run's tally into the aggregate's metrics
// block and meter, checks it against the armed conformance envelope (au,
// pre-loaded by the caller), and, on the sampling cadence, records a
// KindBurst trace event. It runs under the shard's occupancy word, inside
// enforceRun's panic barrier, once the run's packets have reached the emit
// hook: a handful of atomic adds — no per-packet atomics, no interface calls,
// no allocation.
func (e *Engine) observeRun(s *shard, now time.Duration, agg *aggregate, au *aggAudit, t runTally) {
	if agg.obs != nil {
		agg.obs.Count(t.accPkts, t.accBytes, t.pkts-t.accPkts, t.bytes-t.accBytes, now)
	}
	if au != nil {
		e.auditRun(s, now, agg, au, t.accBytes)
	}
	if s.obs != nil && s.obs.SampleBurst() {
		s.obs.Record(obs.Event{
			Kind: obs.KindBurst,
			VT:   int64(now),
			Agg:  int64(agg.h),
			A:    t.accPkts,
			B:    t.pkts - t.accPkts,
			C:    t.bytes,
		})
	}
}

// record publishes a trace event, preferring the shard's ring (which stamps
// the shard index) and falling back to the collector's auxiliary ring for
// unattributed sources. It is a no-op without an Observer.
func (e *Engine) record(s *shard, ev obs.Event) {
	if s != nil && s.obs != nil {
		s.obs.Record(ev)
		return
	}
	if e.cfg.Observer != nil {
		ev.Shard = -1
		e.cfg.Observer.Record(ev)
	}
}

// recordControl publishes a control-plane trace event attributed to an
// aggregate id, resolving its handle when still registered. No-op without an
// Observer.
func (e *Engine) recordControl(id string, ev obs.Event) {
	if e.cfg.Observer == nil {
		return
	}
	ev.Shard, ev.Agg = -1, -1
	if agg, err := e.aggByID(id); err == nil {
		ev.Agg = int64(agg.h)
	}
	e.cfg.Observer.Record(ev)
}

// degrade drops packets that cannot be enforced (quarantined aggregate, or
// the remainder of a faulted run) and counts them in DegradedDrops.
func (e *Engine) degrade(agg *aggregate, pkts []packet.Packet) {
	n := int64(len(pkts))
	agg.degradedDrops.Add(n)
	e.DegradedDrops.Add(n)
}

// notePanic records one panic recovered on s, trips the aggregate's circuit
// breaker — the first panic quarantines it — and fires the OnFault hook.
func (e *Engine) notePanic(s *shard, agg *aggregate, recovered any) {
	s.panics.Add(1)
	s.lastFault.Store(e.coarseWall.Load())
	id := ""
	aggH := int64(-1)
	quarantined := false
	if agg != nil {
		id = agg.id
		aggH = int64(agg.h)
		agg.panics.Add(1)
		// Swap so the quarantine transition is detected exactly once even
		// under racing panics.
		quarantined = !agg.quarantined.Swap(true)
	}
	e.record(s, obs.Event{Kind: obs.KindPanic, Agg: aggH})
	if quarantined {
		e.record(s, obs.Event{Kind: obs.KindQuarantine, Agg: aggH, A: agg.panics.Load()})
	}
	if e.cfg.OnFault != nil {
		e.cfg.OnFault(id, recovered, debug.Stack())
	}
}

// coarseWallInterval is how often the wall ticker refreshes the coarse wall
// reading (Engine.coarseWall).
const coarseWallInterval = 500 * time.Microsecond

// wallTicker publishes the coarse wall reading, whatever the traffic.
func (e *Engine) wallTicker() {
	t := time.NewTicker(coarseWallInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			e.coarseWall.Store(e.wall())
		}
	}
}

// enqueue offers a burst to the shard ring without blocking: a full ring
// sheds the whole burst and counts it as overload. A ring that already reads
// full sheds without raising pending — under a flood that is most bursts, and
// the count shares a cache line with what the shard goroutine writes per item.
func (e *Engine) enqueue(s *shard, it item) {
	if len(s.in) < cap(s.in) {
		s.pending.Add(1)
		select {
		case s.in <- it:
			return
		default:
			s.pending.Add(-1)
		}
	}
	n := int64(len(it.b.pkts))
	s.shed.Add(n)
	s.lastFault.Store(e.coarseWall.Load())
	e.recordShed(s, n)
	e.putBurst(it.b)
}

// recordShed coalesces KindShed trace events for n shed packets (see
// shard.shedTick): one event, with the accumulated packet count in A, is
// recorded on the first shed and then once per obsSample sheds. No-op
// without an Observer.
func (e *Engine) recordShed(s *shard, n int64) {
	if s.obs == nil {
		return
	}
	s.mu.Lock()
	s.shedAccum += n
	if s.shedTick--; s.shedTick <= 0 {
		s.shedTick = e.obsSample
		s.obs.Record(obs.Event{Kind: obs.KindShed, Agg: -1, A: s.shedAccum})
		s.shedAccum = 0
	}
	s.mu.Unlock()
}

// putBurst clears a burst (dropping payload references so the pool does not
// pin memory) and returns it to the pool.
func (e *Engine) putBurst(b *burst) {
	clear(b.pkts)
	b.pkts = b.pkts[:0]
	e.pool.Put(b)
}

// shardFor hashes an aggregate ID onto a shard with an inline FNV-1a loop
// (no hasher allocation: the control path is allocation-free too).
func (e *Engine) shardFor(id string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return e.shards[int(h)%len(e.shards)]
}

// Add registers an enforcer for aggregate id and returns its datapath
// handle. The engine takes exclusive ownership of the enforcer: callers
// must not touch it afterwards (it runs under its shard's occupancy word,
// on whichever goroutine holds it). emit
// receives transmitted packets and may be nil.
//
// Slots freed by Remove are recycled (the table never grows past its
// high-water mark), with a fresh generation tag so handles to the slot's
// previous occupant fail with ErrStale. The aggregate stays registered until
// Remove or Close: the engine never drops one on its own.
func (e *Engine) Add(id string, enf enforcer.Enforcer, emit Emit) (Handle, error) {
	return e.add(id, enf, emit, nil)
}

// AddPinned is Add with explicit shard placement: the aggregate is owned by
// shard index shard instead of the ID-hash shard. Pinning is how a per-core
// run-to-completion datapath lines up core, shard, and aggregate — the
// worker that owns shard i reads traffic for its pinned aggregates and
// enforces them inline through a LocalSubmitter bound to the same shard.
// Everything else about the aggregate (handles, control plane, lifecycle,
// snapshots) is identical to Add.
func (e *Engine) AddPinned(id string, shard int, enf enforcer.Enforcer, emit Emit) (Handle, error) {
	if shard < 0 || shard >= len(e.shards) {
		return NoHandle, fmt.Errorf("mbox: aggregate %q: shard %d out of range [0,%d)",
			id, shard, len(e.shards))
	}
	return e.add(id, enf, emit, e.shards[shard])
}

// add is the shared Add/AddPinned body; pinned, when non-nil, overrides the
// ID-hash shard placement.
func (e *Engine) add(id string, enf enforcer.Enforcer, emit Emit, pinned *shard) (Handle, error) {
	if enf == nil {
		return NoHandle, fmt.Errorf("mbox: nil enforcer for %q", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.table.Load()
	if t.closed {
		return NoHandle, fmt.Errorf("mbox: engine closed")
	}
	// mu excludes every writer of ids, so reading it here needs no idMu.
	if _, dup := e.ids[id]; dup {
		return NoHandle, fmt.Errorf("mbox: aggregate %q already registered", id)
	}
	// Pick a slot: recycle from the free list, else extend the table.
	var slot int
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		slot = len(e.slotGen)
		e.slotGen = append(e.slotGen, 0)
	}
	gen := (e.slotGen[slot] + 1) & genMask
	if gen == 0 {
		gen = 1
	}
	e.slotGen[slot] = gen
	r := packRef(slot, gen)

	owner := pinned
	if owner == nil {
		owner = e.shardFor(id)
	}
	agg := &aggregate{id: id, h: r, enf: enf, emit: emit, shard: owner}
	agg.tree, _ = enf.(enforcer.TreeEnforcer)
	if e.cfg.Observer != nil {
		agg.obs = e.cfg.Observer.NewAggObs()
	}
	if slot >= len(t.slots) {
		// Double the array. Readers of the old one miss only aggregates
		// whose handles have not been returned yet.
		nt := &registry{slots: make([]atomic.Pointer[aggregate], max(minSlots, 2*len(t.slots)))}
		for i := range t.slots {
			nt.slots[i].Store(t.slots[i].Load())
		}
		e.table.Store(nt)
		t = nt
	}
	t.slots[slot].Store(agg)
	e.idMu.Lock()
	e.ids[id] = r
	e.idMu.Unlock()
	return Handle{ref: r}, nil
}

// Remove unregisters an aggregate and returns its final enforcement
// statistics, so accounting is not silently lost at teardown.
//
// Drain semantics: unpublication is immediate — new submissions fail with
// ErrStale — but bursts already queued to the shard when Remove is called
// are still enforced and emitted (the aggregate's state stays valid until
// its queued bursts drain). The final stats are read through an
// in-band control barrier after those bursts, so they include every packet
// submitted happens-before the Remove call; packets submitted concurrently
// with Remove may land on either side.
//
// The aggregate is removed even when the stats read fails: a non-nil error
// (ErrNoStats for an enforcer without a StatsReader, ErrSaturated for a
// wedged shard, engine closed) qualifies the returned Stats, not the
// removal — only an unknown id leaves the table unchanged. The freed slot
// is recycled with a new generation, so the old handle reports ErrStale
// forever.
func (e *Engine) Remove(id string) (enforcer.Stats, error) {
	agg, err := e.unpublish(id)
	if err != nil {
		return enforcer.Stats{}, err
	}
	e.record(nil, obs.Event{Kind: obs.KindRemove, Agg: int64(agg.h)})
	// The in-band barrier on its shard: every burst queued before
	// unpublication is enforced before the read.
	return e.readStats(agg, agg.ownStats)
}

// unpublish removes id from the registry and recycles its slot. It returns
// the unpublished aggregate.
func (e *Engine) unpublish(id string) (*aggregate, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.table.Load()
	if t.closed {
		return nil, fmt.Errorf("mbox: engine closed")
	}
	h, ok := e.ids[id]
	if !ok {
		return nil, fmt.Errorf("mbox: unknown aggregate %q", id)
	}
	agg := t.slots[h.slot()].Load()
	t.slots[h.slot()].Store(nil)
	e.idMu.Lock()
	delete(e.ids, id)
	e.idMu.Unlock()
	e.freeSlots = append(e.freeSlots, h.slot())
	return agg, nil
}

// readStats runs read while holding agg's shard, behind every burst submitted
// before the call. A control error (saturated shard, closed engine) wins
// over read's.
func (e *Engine) readStats(agg *aggregate, read func() (enforcer.Stats, error)) (enforcer.Stats, error) {
	var out enforcer.Stats
	var statErr error
	if err := e.controlAgg(agg, func(enforcer.Enforcer) { out, statErr = read() }); err != nil {
		return out, err
	}
	return out, statErr
}

// ownStats is the statistics read: the enforcer's own counters — for a
// tree, its whole-tree totals. Must run under the shard's occupancy word.
func (agg *aggregate) ownStats() (enforcer.Stats, error) {
	if sr, ok := agg.enf.(enforcer.StatsReader); ok {
		return sr.EnforcerStats(), nil
	}
	return enforcer.Stats{}, fmt.Errorf("mbox: aggregate %q: %w", agg.id, ErrNoStats)
}

// Lookup resolves an aggregate ID to its datapath handle.
func (e *Engine) Lookup(id string) (Handle, error) {
	r, ok := e.refOf(id)
	if !ok {
		return NoHandle, fmt.Errorf("mbox: unknown aggregate %q", id)
	}
	return Handle{ref: r}, nil
}

// Len returns the number of registered aggregates.
func (e *Engine) Len() int {
	e.idMu.RLock()
	defer e.idMu.RUnlock()
	return len(e.ids)
}

// resolve is the datapath handle check: a lock-free snapshot read, a
// bounds check, and a generation comparison. The generation comparison is
// what makes slot recycling safe: a handle to a removed aggregate whose
// slot now hosts a different one mismatches the occupant's generation and
// reports ErrStale — a stale handle can observe an error, never another
// aggregate's verdict.
func (e *Engine) resolve(h Handle) (*aggregate, error) {
	t := e.table.Load()
	if t.closed {
		return nil, fmt.Errorf("mbox: engine closed")
	}
	if h.ref < 0 || h.ref.slot() >= len(t.slots) {
		return nil, fmt.Errorf("mbox: invalid handle %d", h.ref)
	}
	agg := t.slots[h.ref.slot()].Load()
	if agg == nil || agg.h != h.ref {
		return nil, fmt.Errorf("mbox: handle %d: %w", h.ref, ErrStale)
	}
	return agg, nil
}

// admit is the one gate every submission passes, ring or inline (inline
// names the submitter's shard; nil for the ring): handle resolution, shard
// ownership for an inline submitter, and the empty burst. A nil aggregate
// with a nil error means there is nothing left to serve.
func (e *Engine) admit(h Handle, n int, inline *shard) (*aggregate, error) {
	agg, err := e.resolve(h)
	if err != nil {
		return nil, err
	}
	if inline != nil && agg.shard != inline {
		return nil, fmt.Errorf("mbox: aggregate %q on shard %d: %w", agg.id, agg.shard.idx, ErrWrongShard)
	}
	if n == 0 {
		return nil, nil
	}
	return agg, nil
}

// SubmitBatch submits a whole burst for one aggregate (a policy tree routes
// each packet to a leaf itself). It never waits behind another submitter's
// work. On an idle shard
// — nobody holds it, nothing is queued — the burst is enforced on the
// calling goroutine before SubmitBatch returns: enforcer, observation, audit
// and emit hook run in place on pkts (a TransmitCE verdict sets CE on the
// caller's slice), exactly as LocalSubmitter.SubmitBatch does, so an emit
// hook that blocks blocks its own caller. Otherwise the packets are copied into an engine-owned pooled buffer
// and handed to the shard's goroutine in one ring operation, behind
// everything queued before them; when the ring is full the burst is shed and
// counted in Overloaded. Either way the caller may reuse pkts on return, and
// steady-state submission performs no allocation. Invalid handles report an
// error (misrouted traffic should be visible).
func (e *Engine) SubmitBatch(h Handle, pkts []packet.Packet) error {
	agg, err := e.admit(h, len(pkts), nil)
	if agg == nil {
		return err
	}
	s := agg.shard
	if s.claimIdle() {
		defer s.release()
		e.serve(s, agg, pkts)
		s.claimed.Add(1)
		return nil
	}
	b := e.pool.Get().(*burst)
	b.pkts = append(b.pkts, pkts...)
	e.enqueue(s, item{b: b, agg: agg})
	return nil
}

// Stats reads an aggregate's enforcement statistics: the whole enforcer's
// totals, which for a tree count every drop, at whichever node (NodeMetrics
// has the per-node split). The read executes
// under the owning shard's occupancy word, so it is safe during traffic. An
// enforcer that does not implement enforcer.StatsReader reports ErrNoStats
// instead of silently returning zeros.
func (e *Engine) Stats(id string) (enforcer.Stats, error) {
	agg, err := e.aggByID(id)
	if err != nil {
		return enforcer.Stats{}, err
	}
	return e.readStats(agg, agg.ownStats)
}

// Flush runs fn for aggregate id while holding its shard — the hook for
// periodic maintenance such as phantom Tick calls, executed race-free.
func (e *Engine) Flush(id string, fn func(enf enforcer.Enforcer)) error {
	agg, err := e.aggByID(id)
	if err != nil {
		return err
	}
	return e.controlAgg(agg, fn)
}

// reofferInterval is how long a control call parked on a full ring waits for
// a slot before it asks again whether the shard is wedged.
const reofferInterval = 10 * time.Millisecond

// controlAgg runs fn for an already-resolved aggregate under its shard's
// occupancy word and waits for it. It works on unpublished aggregates too,
// which is how Remove collects final statistics.
//
// On an idle shard the caller claims the word and runs fn itself. Otherwise
// the control item joins the shard's ring behind everything queued before
// it; either way fn observes every packet submitted before the call. A full
// ring makes the caller wait for a slot, and it gets the first one the shard
// frees, ahead of producers that would shed rather than wait. It keeps
// waiting while the shard is alive, however slowly it drains — a shard
// goroutine kept off the CPU for a few scheduler slices is not wedged — and
// checks every reofferInterval whether the shard is wedged (shard.wedged).
// If it is, ErrSaturated is reported and fn never runs.
// An fn that panics is recovered by runControl and reported as an error
// wrapping errControlPanicked, never as success.
func (e *Engine) controlAgg(agg *aggregate, fn func(enforcer.Enforcer)) error {
	s := agg.shard
	it := item{control: fn, agg: agg}
	finished := func(ok bool) error {
		if !ok {
			return fmt.Errorf("mbox: aggregate %q: %w", agg.id, errControlPanicked)
		}
		return nil
	}
	if s.claimIdle() {
		defer s.release()
		return finished(e.serveControl(s, it))
	}
	it.done = make(chan bool, 1) // runControl never waits to answer
	s.pending.Add(1)
	for !sendUntil(s.in, it, time.Now().Add(reofferInterval)) {
		if s.wedged(time.Now().UnixNano()) {
			s.pending.Add(-1)
			return fmt.Errorf("mbox: aggregate %q: %w", agg.id, ErrSaturated)
		}
	}
	select {
	case ok := <-it.done:
		return finished(ok)
	case <-e.dead:
		// The engine closed while the item was in flight; it may still
		// have been processed during the drain.
		select {
		case ok := <-it.done:
			return finished(ok)
		default:
			return fmt.Errorf("mbox: engine closed")
		}
	}
}

// SetRate changes an aggregate's rate, in place and in-band: the change
// runs under the owning shard's occupancy word with the engine's clock read
// there, serialized against the aggregate's bursts and behind any still
// queued on the shard's ring. A concurrently running batch therefore never
// observes a partially applied rate, the change observes every packet
// submitted before the call, and — because enforcers reconfigure in place
// (see enforcer.Reconfigurer) — admission state survives: no phantom
// occupancy reset, no refilled token bucket, no re-admitted slow-start
// burst. The Theorem 1 bound holds piecewise across the change.
//
// A policy tree's rate is its root ceiling's: the tree's own Reconfigurer
// forwards there. An armed conformance envelope is rebased to the new rate
// atomically with the change (same in-band closure, same virtual time), so
// it stays the piecewise bound and never flags the reconfiguration itself,
// and a successful change records a KindRateUpdate trace event. The
// enforcer must implement enforcer.Reconfigurer; ErrNotReconfigurable
// otherwise. Like all control operations, SetRate reports ErrSaturated,
// without changing anything, when its shard's ring is full and the shard
// wedged.
func (e *Engine) SetRate(id string, rate units.Rate) error {
	agg, err := e.aggByID(id)
	if err != nil {
		return err
	}
	if cerr := e.controlAgg(agg, func(enforcer.Enforcer) {
		r, ok := agg.enf.(enforcer.Reconfigurer)
		if !ok {
			err = fmt.Errorf("mbox: aggregate %q (%T): %w", agg.id, agg.enf, ErrNotReconfigurable)
			return
		}
		now := e.cfg.Clock()
		if err = r.SetRate(now, rate); err == nil {
			agg.rebaseAudit(now, rate)
		}
	}); cerr != nil {
		return cerr
	}
	if err == nil {
		e.recordControl(id, obs.Event{Kind: obs.KindRateUpdate})
	}
	return err
}

// aggByID resolves a live aggregate from the current registry snapshot.
func (e *Engine) aggByID(id string) (*aggregate, error) {
	t := e.table.Load()
	if t.closed {
		return nil, fmt.Errorf("mbox: engine closed")
	}
	r, ok := e.refOf(id)
	if !ok {
		return nil, fmt.Errorf("mbox: unknown aggregate %q", id)
	}
	agg := t.slots[r.slot()].Load()
	if agg == nil || agg.h != r {
		return nil, fmt.Errorf("mbox: unknown aggregate %q", id)
	}
	return agg, nil
}

// ShardHealth is one shard's health as read by Engine.Health.
type ShardHealth struct {
	Shard      int
	State      ShardState
	QueueDepth int // bursts and control items queued on the shard's ring
	QueueCap   int // ring capacity in bursts
	// HeartbeatAge is the time since the shard last made progress; it can
	// read up to 500µs high (coarseWall).
	HeartbeatAge time.Duration
	Busy         bool  // somebody holds the shard: a burst or control item is in flight
	Processed    int64 // items completed
	Panics       int64 // panics recovered on this shard
	Shed         int64 // packets shed at this shard (its part of Overloaded)
	// Claimed / Queued split the Engine.SubmitBatch bursts served so far by
	// who served them: the submitter, having found the shard idle, or the
	// shard goroutine, from the ring.
	Claimed int64
	Queued  int64
}

// Health is a point-in-time snapshot of the engine's fault plane.
type Health struct {
	Shards      []ShardHealth
	Quarantined []string // ids of quarantined aggregates

	Panics        int64
	DegradedDrops int64
	BadVerdicts   int64
	Overloaded    int64
}

// Wedged reports whether any shard is currently classified Wedged.
func (h Health) Wedged() bool {
	for _, s := range h.Shards {
		if s.State == ShardWedged {
			return true
		}
	}
	return false
}

// Health snapshots the engine's fault plane: each shard's state, classified
// as of this read, and the engine-wide fault counters. It reads only atomics
// and the registry snapshot, so it is safe (and cheap) to call at any rate
// from any goroutine, including while the engine is saturated or closing.
func (e *Engine) Health() Health {
	now := time.Now().UnixNano()
	h := Health{
		Panics:        e.Panics.Load(),
		DegradedDrops: e.DegradedDrops.Load(),
		BadVerdicts:   e.BadVerdicts.Load(),
		Overloaded:    e.Overloaded.Load(),
	}
	h.Shards = make([]ShardHealth, len(e.shards))
	for i, s := range e.shards {
		h.Shards[i] = ShardHealth{
			Shard:        i,
			State:        classify(s, now),
			QueueDepth:   len(s.in),
			QueueCap:     cap(s.in),
			HeartbeatAge: time.Duration(now - s.heartbeat.Load()),
			Busy:         s.inFlight(),
			Processed:    s.processed.Load(),
			Panics:       s.panics.Load(),
			Shed:         s.shed.Load(),
			Claimed:      s.claimed.Load(),
			Queued:       s.queued.Load(),
		}
	}
	t := e.table.Load()
	for i := range t.slots {
		if agg := t.slots[i].Load(); agg != nil && agg.quarantined.Load() {
			h.Quarantined = append(h.Quarantined, agg.id)
		}
	}
	return h
}

// inFlight reports whether a ring item or an inline burst holds the shard's
// enforcement state right now.
func (s *shard) inFlight() bool { return s.occ.Load() != occFree }

// wedgeTimeout is the heartbeat age beyond which a shard with pending or
// in-flight work is classified Wedged: well above the 500µs the heartbeat can
// trail the work by (coarseWall), and the tens of milliseconds a runnable
// shard goroutine can wait for a CPU on a host with more busy goroutines than
// cores.
const wedgeTimeout = time.Second

// wedged reports whether s has work (queued, or in flight on its own
// goroutine or an inline submitter's) and a heartbeat stale by more than
// wedgeTimeout at now — an idle shard's heartbeat goes stale legitimately,
// and a working one's by coarseWallInterval (coarseWall).
func (s *shard) wedged(now int64) bool {
	working := len(s.in) > 0 || s.inFlight()
	return working && time.Duration(now-s.heartbeat.Load()) > wedgeTimeout
}

// degradedFor is how long a shed or a recovered panic keeps its shard
// Degraded (shard.lastFault).
const degradedFor = 50 * time.Millisecond

// classify derives s's state at now (wall nanos) from atomics alone: Wedged
// when s.wedged, Degraded when it shed load or recovered a panic within
// degradedFor or its ring is ≥3/4 full.
func classify(s *shard, now int64) ShardState {
	switch {
	case s.wedged(now):
		return ShardWedged
	case time.Duration(now-s.lastFault.Load()) < degradedFor || len(s.in) >= cap(s.in)-cap(s.in)/4:
		return ShardDegraded
	default:
		return ShardHealthy
	}
}

// CloseReport describes how a Close went down.
type CloseReport struct {
	// Clean is true when every shard drained its ring and exited within
	// the deadline — the pre-fault-tolerance Close behaviour.
	Clean bool
	// AbandonedShards counts shards that were force-abandoned: the shard
	// goroutine did not exit within the deadline, or a submitter serving
	// its own work still held the shard at it (typically wedged in a
	// blocked Emit callback). Their goroutines are left behind; if they
	// ever unwedge they find empty rings and exit on the pending stop.
	AbandonedShards int
	// ShedPackets counts packets that were queued but discarded
	// unenforced during a forced shutdown (drained from the rings of
	// abandoned shards).
	ShedPackets int64
}

// Close stops the engine within Config.CloseTimeout. Submitting after Close
// returns an error; bursts submitted while Close runs may be silently
// discarded. Close is idempotent; concurrent and later calls return the
// first call's report.
//
// Shutdown is deadline-bounded and has two stages per shard: (1) a stop item
// joins the ring behind everything accepted before Close, so a responsive
// shard serves all of it and exits; (2) a shard whose ring stays full, whose
// goroutine does not exit, or whose occupancy word a submitter still holds
// (wedged in user code) by the deadline is force-abandoned: what its ring
// still holds is drained unenforced and counted as shed, queued control
// calls fail with an engine-closed error, and Close returns and reports it.
func (e *Engine) Close() CloseReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.table.Load()
	if t.closed {
		return e.closeReport
	}
	// Publish the closed snapshot: subsequent datapath and control calls
	// fail fast without touching the shards.
	e.table.Store(&registry{closed: true})
	e.idMu.Lock()
	e.ids = map[string]aggRef{}
	e.idMu.Unlock()
	close(e.stop)
	deadline := time.Now().Add(e.cfg.CloseTimeout)
	type result struct {
		exited bool
		shed   int64
	}
	results := make([]result, len(e.shards))
	var wg sync.WaitGroup
	for i, s := range e.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			r := &results[i]
			if sendUntil(s.in, item{stop: true}, deadline) && waitUntil(s.done, deadline) {
				// A goroutine that exited proves nothing about a submitter
				// serving its own burst — the stop item skips the word — so
				// the shard counts as stopped once the word can be had too.
				past := func(now int64) bool { return now >= deadline.UnixNano() }
				if r.exited = s.tryAcquire(occLocal, past); r.exited {
					s.release()
				}
			}
			if !r.exited {
				// The shard will not drain its ring: reclaim what is queued,
				// count it as shed, and leave a stop for the goroutine to
				// exit on should it ever unwedge.
				r.shed = e.drainRing(s)
				select {
				case s.in <- item{stop: true}:
				default:
				}
			}
		}(i, s)
	}
	wg.Wait()
	var rep CloseReport
	for _, r := range results {
		if !r.exited {
			rep.AbandonedShards++
		}
		rep.ShedPackets += r.shed
	}
	rep.Clean = rep.AbandonedShards == 0
	e.closeReport = rep
	close(e.dead)
	return rep
}

// drainRing empties a shard's ring without enforcing: bursts are pooled and
// their packets returned, for CloseReport.ShedPackets alone (Overloaded
// counts what full rings and wedged shards refused); control items are discarded un-run (their
// waiters are released by e.dead with an engine-closed error, never a
// false completion). Safe to run concurrently with a zombie consumer —
// both are channel receivers.
func (e *Engine) drainRing(s *shard) int64 {
	var pkts int64
	for {
		select {
		case it := <-s.in:
			if !it.stop {
				s.pending.Add(-1)
			}
			if it.b != nil {
				pkts += int64(len(it.b.pkts))
				e.putBurst(it.b)
			}
		default:
			return pkts
		}
	}
}

// sendUntil offers it to ch until deadline; false means the deadline hit.
func sendUntil(ch chan item, it item, deadline time.Time) bool {
	select {
	case ch <- it:
		return true
	default:
	}
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case ch <- it:
		return true
	case <-t.C:
		return false
	}
}

// waitUntil waits for ch to close until deadline; false means the deadline
// hit first.
func waitUntil(ch chan struct{}, deadline time.Time) bool {
	select {
	case <-ch:
		return true
	default:
	}
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}
