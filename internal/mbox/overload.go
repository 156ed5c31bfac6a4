package mbox

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
)

// Overload control: graceful degradation when offered load exceeds what the
// engine can enforce.
//
// The engine already sheds at full shard rings — that is the last-resort
// backstop, and it is FIFO-blind: whichever producer happens to hit the full
// ring loses, regardless of how the operator values its traffic. The overload
// plane layered here makes shedding deliberate:
//
//   - A composite pressure signal in [0,1] — the worst shard-ring occupancy
//     fraction, the aggregate-table fill fraction, and a shed-rate EWMA on
//     the paper's 250 ms control window — is maintained by the watchdog and
//     drives an active/inactive flag with hysteresis.
//   - While active, a priority-aware shed policy takes over: each aggregate
//     carries a shed class, and class c's traffic is admitted to a shard
//     ring only while the ring's occupancy is below a per-class ceiling.
//     Ceilings follow the harmonic buffer-sharing rule (arxiv 2511.06514):
//     class c of C may use the fraction (Σ_{j=c}^{C-1} 1/(j+1)) / H_C of the
//     ring, so victims are chosen by configured priority, shed volume splits
//     harmonically across classes instead of falling on whoever enqueues
//     last, and even the lowest class keeps a non-zero ceiling — no single
//     victim is ever starved outright. Class 0 ("shed last") has ceiling 1.0
//     and is never shed proactively, which also makes the plane a strict
//     no-op for engines that never assign classes.
//   - Table pressure tightens the idle-TTL: as the registry fills past half
//     of MaxAggregates the sweeper's TTL shrinks linearly toward minIdleTTL,
//     so a flash crowd recycles quiescent aggregates instead of pinning the
//     table at its cap.
//   - An Add storm against a full table degrades instead of wedging: Add
//     evicts the least-recently-active aggregate (when it has been idle past
//     admissionTTL) without the in-band final-stats barrier — the barrier
//     costs up to ControlTimeout per eviction, which under a storm would
//     serialize Add behind the shard rings. Such evictions report
//     zero Stats through OnEvict, which the OnEvict contract already allows
//     for saturated shards. When no victim is idle enough, Add fails fast
//     with ErrTableFull.
//
// Config.Overload only switches the plane on; every parameter below is a
// constant or follows from IdleTTL. Everything the plane does is visible:
// Health().Overload, KindOverload / KindShed trace events, and the
// bcpqp_overload_* metric families.

const (
	// shedClasses is the number of shed classes. Class 0 is shed last
	// (never proactively) and is where every aggregate starts; class
	// shedClasses-1 is shed first. Aggregates move with SetShedClass.
	shedClasses = 4
	// pressureHi is the composite pressure at which the shed plane engages
	// and pressureLo where it disengages; the gap is the hysteresis band
	// that keeps the plane from flapping at the boundary.
	pressureHi = 0.75
	pressureLo = 0.5
	// pressureWindow is the shed-rate EWMA window: the paper's phantom-queue
	// control interval, so "overloaded" is judged on the same timescale
	// enforcement reacts on.
	pressureWindow = 250 * time.Millisecond
	// shedRateRef is the shed rate, in packets/sec, that maps to pressure
	// 1.0 on the shed-rate axis.
	shedRateRef = 100_000
)

// overloadPlane is the engine's overload state. The EWMA fields are owned by
// the watchdog goroutine; everything else is atomics read by the datapath,
// Health, and Metrics.
type overloadPlane struct {
	// minIdleTTL is the floor the sweeper's idle-TTL is tightened toward
	// as the aggregate table fills: IdleTTL/8, at least 1ms; zero without
	// an IdleTTL. admissionTTL is the idleness past which an aggregate may
	// be evicted on the Add path: minIdleTTL, or 10ms without an IdleTTL.
	minIdleTTL, admissionTTL time.Duration

	// levels[c] is class c's ring-occupancy ceiling in bursts (harmonic
	// split of QueueDepth); levels[0] is 0, the "never shed" sentinel.
	// thresh mirrors levels while the plane is active and is all-zero
	// while inactive — the datapath reads one atomic and compares.
	levels []int32
	thresh [shedClasses]atomic.Int32

	active        atomic.Bool
	transitions   atomic.Int64
	pressureMilli atomic.Int64 // composite pressure × 1000
	ringMilli     atomic.Int64 // worst ring occupancy fraction × 1000
	fillMilli     atomic.Int64 // table fill fraction × 1000
	shedRate      atomic.Int64 // shed-rate EWMA, packets/sec

	// Watchdog-goroutine-local EWMA state (no atomics needed).
	lastShed int64
	lastTick int64
	ewma     float64
}

// newOverloadPlane derives the plane's TTLs from the engine's IdleTTL and
// precomputes the harmonic per-class ceilings for a ring of queueDepth
// bursts.
func newOverloadPlane(idleTTL time.Duration, queueDepth int) *overloadPlane {
	p := &overloadPlane{admissionTTL: 10 * time.Millisecond, levels: harmonicLevels(shedClasses, queueDepth)}
	if idleTTL > 0 {
		p.minIdleTTL = max(idleTTL/8, time.Millisecond)
		p.admissionTTL = p.minIdleTTL
	}
	return p
}

// harmonicLevels computes the per-class ring ceilings. With H = Σ_{j=1}^{C}
// 1/j, class c (0-based) gets the fraction (Σ_{j=c+1}^{C} 1/j) / H of the
// ring: class 0 gets 1.0 (entry 0 stays 0 — the never-shed sentinel read by
// the datapath), fractions decrease harmonically with class, and class C-1
// still gets (1/C)/H > 0, clamped to at least one burst — the
// never-starve guarantee.
func harmonicLevels(classes, queueDepth int) []int32 {
	h := 0.0
	for j := 1; j <= classes; j++ {
		h += 1 / float64(j)
	}
	levels := make([]int32, classes)
	tail := h
	for c := 1; c < classes; c++ {
		tail -= 1 / float64(c) // tail = Σ_{j=c+1}^{C} 1/j
		lvl := int32(tail / h * float64(queueDepth))
		if lvl < 1 {
			lvl = 1
		}
		levels[c] = lvl
	}
	return levels
}

// errOverloadDisabled reports shed-class operations against an engine built
// without Config.Overload.
var errOverloadDisabled = errors.New("mbox: overload control disabled")

// SetShedClass assigns an aggregate's shed class: 0 is shed last (never
// proactively), 3 is shed first. The change is observed by the next
// submission. Requires Config.Overload.
func (e *Engine) SetShedClass(id string, class int) error {
	if e.overload == nil {
		return errOverloadDisabled
	}
	if class < 0 || class >= shedClasses {
		return fmt.Errorf("mbox: shed class %d out of range [0,%d)", class, shedClasses)
	}
	agg, err := e.aggByID(id)
	if err != nil {
		return err
	}
	agg.shedClass.Store(int32(class))
	return nil
}

// ShedClass reports an aggregate's shed class.
func (e *Engine) ShedClass(id string) (int, error) {
	if e.overload == nil {
		return 0, errOverloadDisabled
	}
	agg, err := e.aggByID(id)
	if err != nil {
		return 0, err
	}
	return int(agg.shedClass.Load()), nil
}

// shedGate reports whether the overload plane sheds a submission for agg at
// its shard's current ring occupancy: true only while the plane is active
// AND the aggregate's class ceiling is exceeded. The fast path is two atomic
// loads and a channel length — no locks, no allocation; for engines without
// the plane the single nil check in the caller is the entire cost.
func (p *overloadPlane) shedGate(s *shard, agg *aggregate) bool {
	th := p.thresh[agg.shedClass.Load()].Load()
	return th != 0 && len(s.in) >= int(th)
}

// shedPriority accounts one proactively shed submission of n packets. Trace
// events ride the shard's KindShed coalescing (recordShed); a proactive shed
// is distinguished from a ring-full shed by carrying the aggregate handle
// (ring-full sheds record Agg=-1).
func (e *Engine) shedPriority(s *shard, agg *aggregate, n int) {
	nn := int64(n)
	e.OverloadShed.Add(nn)
	agg.shed.Add(nn)
	s.shed.Add(nn)
	e.recordShed(s, nn, obs.Event{Kind: obs.KindShed, Agg: int64(agg.h), Node: -1,
		B: int64(agg.shedClass.Load())})
}

// updatePressure recomputes the composite pressure signal. It runs on the
// watchdog goroutine once per WatchdogInterval, immediately after shard
// classification, so "overloaded" is judged at the same cadence as shard
// health.
func (e *Engine) updatePressure(now int64) {
	p := e.overload
	var ring float64
	for _, s := range e.shards {
		if f := float64(len(s.in)) / float64(cap(s.in)); f > ring {
			ring = f
		}
	}
	var fill float64
	if e.cfg.MaxAggregates > 0 {
		fill = float64(e.Len()) / float64(e.cfg.MaxAggregates)
	}
	// Shed-rate EWMA on the paper's 250 ms window: both ring-full and
	// proactive sheds count — sustained shedding is overload regardless
	// of which mechanism did it.
	shedTotal := e.Overloaded.Load() + e.OverloadShed.Load()
	if p.lastTick != 0 {
		if dt := float64(now-p.lastTick) / 1e9; dt > 0 {
			rate := float64(shedTotal-p.lastShed) / dt
			alpha := dt / pressureWindow.Seconds()
			if alpha > 1 {
				alpha = 1
			}
			p.ewma += alpha * (rate - p.ewma)
		}
	}
	p.lastTick, p.lastShed = now, shedTotal
	shedFrac := p.ewma / shedRateRef
	if shedFrac > 1 {
		shedFrac = 1
	}
	pressure := ring
	if fill > pressure {
		pressure = fill
	}
	if shedFrac > pressure {
		pressure = shedFrac
	}
	p.ringMilli.Store(int64(ring * 1000))
	p.fillMilli.Store(int64(fill * 1000))
	p.shedRate.Store(int64(p.ewma))
	p.pressureMilli.Store(int64(pressure * 1000))

	// Hysteresis: engage at pressureHi, disengage at pressureLo. The
	// per-class thresholds are published/cleared here, so the datapath's
	// gate is a dead branch (thresh 0) the moment the plane disengages.
	switch {
	case !p.active.Load() && pressure >= pressureHi:
		p.active.Store(true)
		p.transitions.Add(1)
		for c := 1; c < len(p.levels); c++ {
			p.thresh[c].Store(p.levels[c])
		}
		e.record(nil, obs.Event{Kind: obs.KindOverload, Agg: -1, Node: -1,
			A: 1, B: int64(pressure * 1000), C: int64(p.ewma)})
	case p.active.Load() && pressure <= pressureLo:
		p.active.Store(false)
		p.transitions.Add(1)
		for c := 1; c < len(p.levels); c++ {
			p.thresh[c].Store(0)
		}
		e.record(nil, obs.Event{Kind: obs.KindOverload, Agg: -1, Node: -1,
			A: 0, B: int64(pressure * 1000), C: int64(p.ewma)})
	}
}

// effectiveTTL is the sweeper's idle-TTL after pressure tightening: IdleTTL
// below 50% table fill, then linearly down to minIdleTTL at 100%. Without
// the plane (or without MaxAggregates) it is IdleTTL unchanged.
func (e *Engine) effectiveTTL() time.Duration {
	ttl := e.cfg.IdleTTL
	p := e.overload
	if p == nil || e.cfg.MaxAggregates <= 0 || p.minIdleTTL <= 0 || p.minIdleTTL >= ttl {
		return ttl
	}
	fill := float64(e.Len()) / float64(e.cfg.MaxAggregates)
	if fill <= 0.5 {
		return ttl
	}
	f := (fill - 0.5) * 2
	if f > 1 {
		f = 1
	}
	return ttl - time.Duration(f*float64(ttl-p.minIdleTTL))
}

// evictForAdmissionLocked finds and unpublishes the least-recently-active
// aggregate that has been idle past admissionTTL, making room for an Add
// against a full table. The caller holds e.mu and is responsible for calling
// OnEvict (with zero Stats — deliberately no final-stats barrier, see the
// package comment) after releasing it. Returns nil when the plane is off or
// nothing is idle enough — the Add then degrades to ErrTableFull.
func (e *Engine) evictForAdmissionLocked(t *registry, now int64) *aggregate {
	p := e.overload
	if p == nil {
		return nil
	}
	minIdle := int64(p.admissionTTL)
	var victim *aggregate
	var oldest int64
	for i := range t.slots {
		agg := t.slots[i].Load()
		if agg == nil {
			continue
		}
		la := agg.lastActive.Load()
		if now-la <= minIdle {
			continue
		}
		if victim == nil || la < oldest {
			victim, oldest = agg, la
		}
	}
	if victim == nil {
		return nil
	}
	if _, err := e.unpublishLocked(victim.id, func(cur *aggregate) bool { return cur == victim }); err != nil {
		return nil
	}
	e.Evicted.Add(1)
	e.AdmissionEvictions.Add(1)
	e.record(nil, obs.Event{Kind: obs.KindEvict, Agg: int64(victim.h), Node: -1, B: 1})
	return victim
}

// OverloadHealth is the overload plane's slice of a Health snapshot. What
// moves depends on the engine's configuration: TableFill and
// AdmissionEvictions stay zero without MaxAggregates, and PriorityShed stays
// zero until SetShedClass moves some aggregate off class 0.
type OverloadHealth struct {
	// Enabled mirrors Config.Overload.
	Enabled bool
	// Active reports whether the shed plane is currently engaged
	// (pressure reached 0.75 and has not yet fallen to 0.5).
	Active bool
	// Pressure is the composite signal in [0,1]; Ring/TableFill are its
	// occupancy components and ShedRate its EWMA component (packets/sec,
	// un-normalized; 100k/s reads as pressure 1).
	Pressure  float64
	Ring      float64
	TableFill float64
	ShedRate  float64
	// PriorityShed counts packets shed proactively by class policy
	// (ring-full sheds stay in Health.Overloaded).
	PriorityShed int64
	// AdmissionEvictions counts aggregates evicted on the Add path to
	// admit new ones against a full table.
	AdmissionEvictions int64
	// Transitions counts activation+deactivation edges.
	Transitions int64
}

// overloadHealth snapshots the plane (zero value when disabled).
func (e *Engine) overloadHealth() OverloadHealth {
	p := e.overload
	if p == nil {
		return OverloadHealth{}
	}
	return OverloadHealth{
		Enabled:            true,
		Active:             p.active.Load(),
		Pressure:           float64(p.pressureMilli.Load()) / 1000,
		Ring:               float64(p.ringMilli.Load()) / 1000,
		TableFill:          float64(p.fillMilli.Load()) / 1000,
		ShedRate:           float64(p.shedRate.Load()),
		PriorityShed:       e.OverloadShed.Load(),
		AdmissionEvictions: e.AdmissionEvictions.Load(),
		Transitions:        p.transitions.Load(),
	}
}

// zeroStats is the OnEvict payload for barrier-free evictions.
var zeroStats enforcer.Stats
