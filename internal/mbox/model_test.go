package mbox

// One sequential reference model of the engine. modelEngine holds, per
// aggregate id, a twin enforcer built from the same spec and fed the same
// (now, packets) calls the engine's enforcer gets, the quarantine flag, the
// counters the engine keeps for it, and an audit ledger (watch_test.go's
// refAudit with its own obs.Audit envelopes). FuzzEngineModel decodes bytes
// into engine operations; after every one the engine and the model must
// agree on the verdict stream (emitted packets and the CE marks left in the
// caller's slice), on every read (Len, Lookup, Stats, NodeStats, Faults,
// AuditReport, Health, and with an Observer the per-aggregate counters,
// Metrics and each shard's last burst event), audits armed with an honest
// envelope must hold zero violations, and every packet offered to an
// aggregate must be accepted, dropped or degraded unenforced exactly once
// (the tail an emit fault leaves un-emitted keeps its verdict and is counted
// degraded too).
//
// One goroutine drives the engine with the watchdog effectively off, so it
// finds every shard idle and serves each burst and control call itself (the
// claim rule, local.go): the run is deterministic, and a failing input
// replays exactly. The model restarts the engine too — Snapshot, Close, a
// fresh engine whose clock reads zero, re-Add, Restore — while its twins run
// on along the old timeline, so a restart must be invisible.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/fairpolicer"
	"bcpqp/internal/faultinject"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/ptree"
	"bcpqp/internal/sched"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// A script is a header byte (shards = 1 + h%3; h&4 attaches an Observer)
// and then four-byte ops, [code, a, b, c]. An id argument names aggregate
// a%modelIDs, and a node argument byte n node n%8 − 1, so 0 is NoNode.
const (
	opAdd          = iota // a id, b spec (kind | fault | emit panic), c flags (hook | pin | shard<<2)
	opRemove              // a id
	opLeaf                // a, b handle (see handle), c node
	opSubmit              // a, b handle, c packets | 2<<6 LocalSubmitter, 3<<6 on another shard
	opSetRate             // a id, b node, c rate in 64 kb/s (0: negative)
	opSetPolicy           // a id, b node, c policy (see modelPolicy)
	opApplyShare          // a id, b&1 fallback, c rate
	opArmAudit            // a id, b&1 tight envelope, b&0x80 negative burst
	opArmNodeAudit        // a id, b node, c as ArmAudit's b
	opFlush               // a id, b&1 the closure panics
	opUpdate              // a id, b&1 the closure fails
	opClock               // the clock moves (a+1)·10µs << b%12, backwards when c&1
	opSnapshot            // a id, a&0x80 every aggregate
	opRestore             // a source id, b destination id
	opRestart             // Snapshot, Close, a fresh engine at clock 0, re-Add, Restore
	opClose
	numOps
)

// Spec byte: kind (low three bits), fault plan (next two), and the emission
// the emit hook panics at (top three, 0 never).
const (
	kTBF byte = iota
	kBCPQP
	kRED // phantom with ECN-marking RED: TransmitCE verdicts
	kFair
	kTree
	kMute  // no stats, no snapshot, no reconfiguration
	kCycle // cycles through every verdict, out-of-range ones included
	kNil   // a nil enforcer, which Add refuses

	fPanic     byte = 1 << 3
	fCorrupt   byte = 2 << 3
	fOverAdmit byte = 3 << 3

	hook byte = 1 // flags: the aggregate has an emit hook
	pin  byte = 2 // flags: AddPinned on shard flags>>2
)

const (
	modelIDs  = 6
	maxOps    = 256
	unbounded = units.Rate(1 << 50) // with a burst of 1<<50 bytes, an envelope no enforcer can breach
)

// cycleVerdicts is kCycle's answer cycle.
var cycleVerdicts = []enforcer.Verdict{
	enforcer.Transmit, enforcer.Drop, enforcer.Queued, enforcer.TransmitCE,
	-1, 4, 63, 64, faultinject.CorruptVerdict, -1 << 62,
}

// cycleEnforcer answers packet i with vs[i % len(vs)], counting across calls.
type cycleEnforcer struct {
	vs []enforcer.Verdict
	i  int
}

func (c *cycleEnforcer) Submit(time.Duration, packet.Packet) enforcer.Verdict {
	v := c.vs[c.i%len(c.vs)]
	c.i++
	return v
}

// statlessEnforcer implements Enforcer but not StatsReader.
type statlessEnforcer struct{}

func (statlessEnforcer) Submit(time.Duration, packet.Packet) enforcer.Verdict {
	return enforcer.Transmit
}

// emitRec captures what an emit hook can observe about one relayed packet.
type emitRec struct {
	Seq  int64
	Size int
	CE   bool
}

// ceiling is one node's rate limit as built, and the burst allowance B of
// the Theorem-1 envelope an honest audit arms over it: a bucket's depth, or
// the four phantom queues' size plus drain rounding.
type ceiling struct {
	rate  units.Rate
	burst int64
}

var modelCeilings = map[byte]map[enforcer.NodeID]ceiling{
	kTBF:   {0: {8 * units.Mbps, 16 * units.MSS}},
	kBCPQP: {0: {8 * units.Mbps, 130 * units.MSS}},
	kRED:   {0: {8 * units.Mbps, 130 * units.MSS}},
	kFair:  {0: {8 * units.Mbps, 16 * units.MSS}},
	kTree:  {0: {12 * units.Mbps, 24 * units.MSS}, 1: {6 * units.Mbps, 98 * units.MSS}, 3: {3 * units.Mbps, 8 * units.MSS}},
}

func modelPQP(rate units.Rate, size int64, red *phantom.REDConfig) *phantom.PQP {
	return phantom.MustNew(phantom.Config{Rate: rate, Queues: 4, QueueSize: size,
		BurstControl: red == nil, RED: red})
}

// build makes one enforcer of the spec; the engine and the twin each get one.
func (s aggSpec) build() enforcer.Enforcer {
	var enf enforcer.Enforcer
	switch s.kind {
	case kTBF:
		enf = tbf.MustNew(8*units.Mbps, 16*units.MSS)
	case kBCPQP:
		enf = modelPQP(8*units.Mbps, 32*units.MSS, nil)
	case kRED:
		enf = modelPQP(8*units.Mbps, 32*units.MSS, &phantom.REDConfig{
			MinBytes: 4 * units.MSS, MaxBytes: 24 * units.MSS, MaxProb: 0.5, Seed: 7, MarkECN: true})
	case kFair:
		enf = fairpolicer.MustNew(fairpolicer.Config{Rate: 8 * units.Mbps, Bucket: 16 * units.MSS, Flows: 4})
	case kTree:
		enf = ptree.MustNew([]ptree.NodeSpec{
			{Name: "link", Parent: -1, Stage: tbf.MustNew(12*units.Mbps, 24*units.MSS)},
			{Name: "gold", Parent: 0, Assured: 4 * units.Mbps, Stage: modelPQP(6*units.Mbps, 24*units.MSS, nil)},
			{Name: "g1", Parent: 1, Assured: 2 * units.Mbps},
			{Name: "g2", Parent: 1, Assured: units.Mbps, Stage: tbf.MustNew(3*units.Mbps, 8*units.MSS)},
			{Name: "bronze", Parent: 0, Assured: 2 * units.Mbps},
		})
	case kMute:
		enf = statlessEnforcer{}
	case kCycle:
		enf = &cycleEnforcer{vs: cycleVerdicts}
	default:
		return nil
	}
	switch s.fault {
	case fPanic:
		enf = faultinject.New(enf, faultinject.Plan{Seed: 1, Panic: 0.2})
	case fCorrupt:
		enf = faultinject.New(enf, faultinject.Plan{Seed: 2, Corrupt: 0.5})
	case fOverAdmit:
		enf = faultinject.New(enf, faultinject.Plan{Seed: 3, OverAdmit: 0.3})
	}
	return enf
}

// modelPolicy is SetPolicy's menu; Fair(2) fits no four-class enforcer.
func modelPolicy(c byte) *sched.Policy {
	return [...]func() *sched.Policy{
		func() *sched.Policy { return nil },
		func() *sched.Policy { return sched.Fair(4) },
		func() *sched.Policy { return sched.WeightedFair(1, 2, 3, 4) },
		func() *sched.Policy { return sched.StrictPriority(4) },
		func() *sched.Policy { return sched.Fair(2) },
	}[c%5]()
}

type aggSpec struct {
	kind, fault byte
	emitPanic   int // the emit hook's call that panics, 1-based; 0 never
	hook, pin   bool
	shard       int
}

// reconfig is one successful SetRate (policy < 0) or SetPolicy, replayed on
// the fresh enforcer a restart registers: snapshots carry no configuration.
type reconfig struct {
	node   enforcer.NodeID
	rate   units.Rate
	policy int
}

type modelAgg struct {
	id         string
	spec       aggSpec
	enf, twin  enforcer.Enforcer // the engine's enforcer and the model's
	shard      int
	ref        aggRef
	handles    []Handle // [0] is Add's; Leaf appends
	rates      map[enforcer.NodeID]units.Rate
	reconfigs  []reconfig
	audit      *refAudit
	clean      map[*obs.Audit]bool // honest envelopes over a conformant twin
	got        []emitRec           // what the engine's emit hook saw
	emitted    []emitRec           // what the model predicts it saw
	emits      int                 // emit hook calls this incarnation
	quarantine bool
	// Since the aggregate was added or the engine restarted: offered
	// packets, the observed verdict tally, panics, degraded drops and the
	// emit-fault tails among them.
	offered, acc, accB, drp, drpB, panics, degraded, tail int64
}

type modelShard struct {
	processed, claimed, panics int64
	// On an observed engine: bursts served, which pace the latency
	// digest's timing, and enforced runs observed, which pace the sampled
	// burst events; both cadences are one in modelSampleEvery per shard.
	bursts, runs int64
}

// modelSampleEvery is the observed engine's Options.SampleEvery: above 1, so
// the model predicts which bursts are timed and which runs are traced.
const modelSampleEvery = 3

type modelEngine struct {
	t        *testing.T
	op       string
	shards   int
	observed bool
	e        *Engine
	coll     *obs.Collector
	now      time.Duration // the twins' clock; the engine's reads now − base
	base     time.Duration
	high     time.Duration // the latest reading
	aggs     [modelIDs]*modelAgg
	closed   bool
	seq      int64
	// The registry as the engine must hold it.
	slots    []*modelAgg
	gens     []uint32
	free     []int
	tableLen int
	stale    []Handle
	// Engine-wide counters.
	sh                                    []modelShard
	panics, degraded, bad, inline, bursts int64
	// The most magic bytes a Flush found, and the last Flush's count.
	magicSeen, magicLast int64
	// Per shard, the trace event its last sampled run must have left;
	// exported says the export reads still match.
	lastBurst []obs.Event
	exported  bool
	runs      int64 // bursts submitted, for the emit hook's once-a-run check
}

var errAny = errors.New("some error") // a predicted error of no particular kind
var errModelUpdate = errors.New("model: update refused")

// sameErr compares a returned error with a predicted one: both nil, or both
// set and wrapping the same sentinels.
func sameErr(got, want error) bool {
	if (got == nil) != (want == nil) {
		return false
	}
	for _, s := range []error{ErrStale, ErrBadNode, ErrNotReconfigurable, ErrNoStats, ErrNoSnapshot,
		ErrWrongShard, enforcer.ErrNoPolicy, errControlPanicked, errModelUpdate} {
		if errors.Is(got, s) != errors.Is(want, s) {
			return false
		}
	}
	return true
}

func (m *modelEngine) fail(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s: %s", m.op, fmt.Sprintf(format, args...))
}

func (m *modelEngine) expect(what string, got, want error) {
	if !sameErr(got, want) {
		m.fail("%s returned %v, want %v", what, got, want)
	}
}

func modelID(i int) string { return fmt.Sprintf("agg-%d", i) }

func (m *modelEngine) clock() time.Duration { return m.now - m.base }

// start brings up a fresh engine whose clock reads zero now.
func (m *modelEngine) start() {
	m.base = m.now
	cfg := Config{Shards: m.shards, Clock: m.clock, WatchdogInterval: time.Hour}
	if m.observed {
		m.coll = obs.NewCollector(obs.Options{SampleEvery: modelSampleEvery, RingDepth: 16})
		cfg.Observer = m.coll
	}
	m.e = New(cfg)
	m.slots, m.gens, m.free, m.tableLen, m.stale = nil, nil, nil, 0, nil
	m.sh, m.lastBurst, m.exported = make([]modelShard, m.shards), make([]obs.Event, m.shards), false
	m.panics, m.degraded, m.bad, m.inline, m.bursts = 0, 0, 0, 0, 0
}

// register predicts Add: a recycled slot (last freed first) or a new one,
// under the next generation.
func (m *modelEngine) register(a *modelAgg, h Handle, err error) {
	slot := len(m.gens)
	if n := len(m.free); n > 0 {
		slot, m.free = m.free[n-1], m.free[:n-1]
	} else {
		m.gens, m.slots = append(m.gens, 0), append(m.slots, nil)
	}
	if m.gens[slot] = (m.gens[slot] + 1) & genMask; m.gens[slot] == 0 {
		m.gens[slot] = 1
	}
	if slot >= m.tableLen {
		m.tableLen = max(minSlots, 2*m.tableLen)
	}
	a.ref, m.slots[slot], m.exported = packRef(slot, m.gens[slot]), a, false
	a.handles = []Handle{{ref: a.ref, node: enforcer.NoNode}}
	if err != nil || h != a.handles[0] {
		m.fail("Add(%s) = %+v, %v; want %+v", a.id, h, err, a.handles[0])
	}
	a.quarantine, a.emits, a.audit, a.clean = false, 0, nil, nil
	a.offered, a.acc, a.accB, a.drp, a.drpB, a.panics, a.degraded, a.tail = 0, 0, 0, 0, 0, 0, 0, 0
}

// add registers a with the engine, on a fresh enforcer. Its emit hook
// checks, at a run's first packet, that the run comes out before it is
// accounted: the observed counters and every audit read as the earlier runs
// left them, which is what the model holds while the engine serves the run.
func (m *modelEngine) add(a *modelAgg) (Handle, error) {
	k, calls, run := a.spec.emitPanic, 0, int64(0)
	var emit Emit
	if a.spec.hook {
		emit = func(p packet.Packet) {
			if calls++; calls == k {
				panic("model: emit hook fault")
			}
			a.got = append(a.got, emitRec{p.Seq, p.Size, p.CE})
			if run != m.runs {
				run = m.runs
				m.checkObserved(a)
				m.checkAudits()
			}
		}
	}
	if a.spec.pin {
		return m.e.AddPinned(a.id, a.spec.shard, a.enf, emit)
	}
	return m.e.Add(a.id, a.enf, emit)
}

// fresh builds a spec's enforcer with a's reconfigurations replayed at now.
func (a *modelAgg) fresh(now time.Duration) enforcer.Enforcer {
	enf := a.spec.build()
	for _, rc := range a.reconfigs {
		r, _ := nodeReconf(enf, rc.node)
		if rc.policy < 0 {
			r.SetRate(now, rc.rate)
		} else {
			r.SetPolicy(now, modelPolicy(byte(rc.policy)))
		}
	}
	return enf
}

func (m *modelEngine) homeShard(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32()) % m.shards
}

// control counts one control call served on a's shard.
func (m *modelEngine) control(a *modelAgg) { m.sh[a.shard].processed++ }

func (m *modelEngine) fault(a *modelAgg) {
	m.panics++
	m.sh[a.shard].panics++
	a.panics++
	a.quarantine = true
}

func (m *modelEngine) degrade(a *modelAgg, n int64) {
	a.degraded += n
	m.degraded += n
}

// handle picks a handle: a live one of aggregate a%modelIDs (index b), or,
// when that id is vacant or a ≥ 0xf0, a stale or a bogus one.
func (m *modelEngine) handle(a, b byte) Handle {
	if ag := m.aggs[int(a)%modelIDs]; a < 0xf0 && ag != nil {
		return ag.handles[int(b)%len(ag.handles)]
	}
	if len(m.stale) > 0 && a&1 == 0 {
		return m.stale[int(b)%len(m.stale)]
	}
	return [...]Handle{NoHandle, {ref: 99}, {}}[b%3]
}

// resolve predicts Engine.resolve.
func (m *modelEngine) resolve(h Handle) (*modelAgg, error) {
	if h.ref < 0 || h.ref.slot() >= m.tableLen {
		return nil, errAny
	}
	for _, a := range m.aggs {
		if a != nil && a.ref == h.ref {
			return a, nil
		}
	}
	return nil, ErrStale
}

// nodeReconf resolves the Reconfigurer behind (enf, node), as the engine
// does for an aggregate.
func nodeReconf(enf enforcer.Enforcer, node enforcer.NodeID) (enforcer.Reconfigurer, error) {
	if tr, ok := enf.(enforcer.TreeEnforcer); ok {
		return tr.NodeReconfigurer(node)
	}
	if node != enforcer.Root {
		return nil, ErrBadNode
	}
	if r, ok := enf.(enforcer.Reconfigurer); ok {
		return r, nil
	}
	return nil, ErrNotReconfigurable
}

func ownStats(enf enforcer.Enforcer) (enforcer.Stats, error) {
	if sr, ok := enf.(enforcer.StatsReader); ok {
		return sr.EnforcerStats(), nil
	}
	return enforcer.Stats{}, ErrNoStats
}

func nodeStats(enf enforcer.Enforcer, node enforcer.NodeID) (enforcer.Stats, error) {
	if tr, ok := enf.(enforcer.TreeEnforcer); ok {
		return tr.NodeStats(node)
	}
	if node != enforcer.Root {
		return enforcer.Stats{}, ErrBadNode
	}
	return ownStats(enf)
}

func nodeCount(enf enforcer.Enforcer) int {
	if tr, ok := enf.(enforcer.TreeEnforcer); ok {
		return tr.NumNodes()
	}
	return 1
}

func (m *modelEngine) packets(n int) []packet.Packet {
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		m.seq++
		s := m.seq
		pkts[i] = packet.Packet{Key: packet.FlowKey{SrcIP: 10, SrcPort: uint16(s%7 + 1), Proto: 6},
			Class: int(s % 4), Size: 64 + int(s*613%1437), ECT: s%2 == 0, Seq: s}
	}
	return pkts
}

// serve is one burst the engine serves for a entering at node: it returns
// the CE marks the engine leaves in the caller's slice.
func (m *modelEngine) serve(a *modelAgg, node enforcer.NodeID, pkts []packet.Packet, inline bool) []bool {
	m.control(a)
	if inline {
		m.inline++
	} else {
		m.sh[a.shard].claimed++
	}
	if m.observed {
		m.bursts, m.exported = m.bursts+1, false
		m.sh[a.shard].bursts++
	}
	n := int64(len(pkts))
	a.offered += n
	marks := make([]bool, n)
	if a.quarantine {
		m.degrade(a, n)
		return marks
	}
	v := make([]enforcer.Verdict, n)
	if !m.enforce(a, node, pkts, v) {
		m.fault(a)
		m.degrade(a, n)
		return marks
	}
	var rest int64
	for i, verdict := range v {
		if !a.spec.hook || verdict != enforcer.Transmit && verdict != enforcer.TransmitCE {
			continue
		}
		marks[i] = verdict == enforcer.TransmitCE
		if a.emits++; a.emits == a.spec.emitPanic {
			m.fault(a)
			rest = n - int64(i) - 1
			a.tail += rest
			break
		}
		a.emitted = append(a.emitted, emitRec{pkts[i].Seq, pkts[i].Size, marks[i]})
	}
	var accPkts, accBytes, bytes int64
	for i, verdict := range v {
		bytes += int64(pkts[i].Size)
		switch verdict {
		case enforcer.Transmit, enforcer.TransmitCE, enforcer.Queued:
			accPkts++
			accBytes += int64(pkts[i].Size)
		case enforcer.Drop:
		default:
			m.bad++
		}
	}
	if m.observed {
		a.acc, a.accB = a.acc+accPkts, a.accB+accBytes
		a.drp, a.drpB = a.drp+n-accPkts, a.drpB+bytes-accBytes
		sh := &m.sh[a.shard]
		if sh.runs%modelSampleEvery == 0 {
			m.lastBurst[a.shard] = obs.Event{VT: int64(m.clock()), Kind: obs.KindBurst, Shard: int32(a.shard),
				Agg: int64(a.ref), Node: int32(node), A: accPkts, B: n - accPkts, C: bytes}
		}
		sh.runs++
	}
	if a.audit != nil {
		for _, au := range a.audit.chain(node) {
			au.Observe(m.clock(), accBytes)
		}
	}
	m.degrade(a, rest)
	return marks
}

// enforce runs the twin; false means it panicked.
func (m *modelEngine) enforce(a *modelAgg, node enforcer.NodeID, pkts []packet.Packet, v []enforcer.Verdict) (ok bool) {
	defer func() { _ = recover() }()
	if tr, isTree := a.twin.(enforcer.TreeEnforcer); isTree && node != enforcer.NoNode {
		tr.SubmitBatchAt(m.now, node, pkts, v)
	} else {
		enforcer.SubmitBatch(a.twin, m.now, pkts, v)
	}
	return true
}

// envelope is what an audit over node arms with: honest, the ceiling's
// current rate and its B (unbounded where no ceiling is); tight, a quarter
// of that rate and one packet.
func (a *modelAgg) envelope(node enforcer.NodeID, tight bool) (units.Rate, int64) {
	c, ok := modelCeilings[a.spec.kind][node]
	if !ok || a.spec.fault != 0 && node != enforcer.Root {
		c = ceiling{unbounded, 1 << 50}
	}
	if r, ok := a.rates[node]; ok {
		c.rate = r
	}
	if tight {
		return c.rate / 4, units.MSS
	}
	return c.rate, c.burst
}

// arm predicts ArmAudit (node NoNode) and ArmNodeAudit.
func (m *modelEngine) arm(a *modelAgg, node enforcer.NodeID, rate units.Rate, burst int64, honest bool) {
	if a.audit == nil {
		tr, _ := a.twin.(enforcer.TreeEnforcer)
		a.audit = &refAudit{tree: tr, nodes: make([]*obs.Audit, nodeCount(a.twin))}
		a.clean = map[*obs.Audit]bool{}
	}
	au := obs.NewAudit(m.clock(), int64(rate), burst, 0)
	if node == enforcer.NoNode {
		a.audit.whole = au
	} else {
		a.audit.nodes[node] = au
	}
	a.clean[au] = honest && a.spec.fault != fOverAdmit
	a.audit.rebuild()
}

// rateChanged predicts a successful SetRate's rebase: node's own envelope,
// and the whole-aggregate one at the root.
func (m *modelEngine) rateChanged(a *modelAgg, node enforcer.NodeID, rate units.Rate) {
	a.rates[node] = rate
	a.reconfigs = append(a.reconfigs, reconfig{node: node, rate: rate, policy: -1})
	if a.audit == nil {
		return
	}
	if au := a.audit.nodes[node]; au != nil {
		au.Rebase(m.clock(), int64(rate))
	}
	if a.audit.whole != nil && node == enforcer.Root {
		a.audit.whole.Rebase(m.clock(), int64(rate))
	}
}

// snapshotAll predicts Snapshot(): every snapshottable aggregate, in slot
// order, with the twin's blob.
func (m *modelEngine) snapshotAll() *Snapshot {
	snap, err := m.e.Snapshot()
	want := &Snapshot{}
	for _, a := range m.slots {
		if sn, ok := a.twinSnapshotter(); ok {
			m.control(a)
			blob, _ := sn.SnapshotState(m.now)
			want.Aggregates = append(want.Aggregates, AggregateSnapshot{ID: a.id, State: blob})
		}
	}
	if err != nil || !reflect.DeepEqual(snap, want) {
		m.fail("Snapshot() = %+v, %v; want %+v", snap, err, want)
	}
	return snap
}

func (a *modelAgg) twinSnapshotter() (enforcer.Snapshotter, bool) {
	if a == nil {
		return nil, false
	}
	sn, ok := a.twin.(enforcer.Snapshotter)
	return sn, ok
}

func (m *modelEngine) restart() {
	m.now = m.high // a process restarts after its latest reading
	wire, err := m.snapshotAll().MarshalBinary()
	var snap Snapshot
	if err == nil {
		err = snap.UnmarshalBinary(wire)
	}
	if err != nil {
		m.fail("snapshot wire round trip: %v", err)
	}
	if rep := m.e.Close(); !rep.Clean {
		m.fail("Close = %+v, want clean", rep)
	}
	m.start()
	for _, a := range m.aggs {
		if a == nil {
			continue
		}
		a.enf = a.fresh(m.clock())
		if _, ok := a.twinSnapshotter(); ok {
			m.control(a) // Restore
		} else {
			a.twin = a.fresh(m.now) // not in the snapshot: both sides start cold
		}
		h, err := m.add(a)
		m.register(a, h, err)
	}
	if err := m.e.Restore(&snap); err != nil {
		m.fail("Restore: %v", err)
	}
}

// step applies one op to the engine and the model.
func (m *modelEngine) step(code, a, b, c byte) {
	id := int(a) % modelIDs
	ag, name := m.aggs[id], modelID(id)
	node := enforcer.NodeID(int(b%8) - 1)
	m.op = fmt.Sprintf("op %d %d %d %d", code, a, b, c)
	switch code % numOps {
	case opAdd:
		spec := aggSpec{kind: b & 7, fault: b & (3 << 3), emitPanic: int(b >> 5),
			hook: c&hook != 0, pin: c&pin != 0, shard: int(c>>2) % (m.shards + 1)}
		na := &modelAgg{id: name, spec: spec, rates: map[enforcer.NodeID]units.Rate{}}
		na.enf, na.twin = spec.build(), spec.build()
		h, err := m.add(na)
		if ag != nil || na.enf == nil || spec.pin && spec.shard >= m.shards {
			m.expect("Add", err, errAny)
			return
		}
		if na.shard = m.homeShard(name); spec.pin {
			na.shard = spec.shard
		}
		m.register(na, h, err)
		m.aggs[id] = na
	case opRemove:
		st, err := m.e.Remove(name)
		if ag == nil {
			m.expect("Remove", err, errAny)
			return
		}
		m.control(ag)
		want, werr := ownStats(ag.twin)
		if m.expect("Remove", err, werr); st != want {
			m.fail("Remove(%s) stats %+v, want %+v", name, st, want)
		}
		m.stale = append(m.stale, ag.handles...)
		slot := ag.ref.slot()
		m.slots[slot], m.free, m.aggs[id] = nil, append(m.free, slot), nil
	case opLeaf:
		h := m.handle(a, b)
		node = enforcer.NodeID(int(c%8) - 1)
		got, err := m.e.Leaf(h, node)
		la, werr := m.resolve(h)
		want := Handle{ref: h.ref, node: node}
		if werr == nil {
			if node < 0 || int(node) >= nodeCount(la.twin) {
				werr = ErrBadNode
			} else if _, tree := la.twin.(enforcer.TreeEnforcer); !tree {
				want.node = enforcer.NoNode
			}
		}
		if m.expect("Leaf", err, werr); werr == nil {
			if got != want {
				m.fail("Leaf = %+v, want %+v", got, want)
			}
			if len(la.handles) < 8 {
				la.handles = append(la.handles, got)
			}
		}
	case opSubmit:
		m.submit(m.handle(a, b), int(c&63), c>>6)
	case opSetRate, opApplyShare:
		rate := units.Rate(c) * 64 * units.Kbps
		if rate == 0 {
			rate = -units.Mbps
		}
		var err error
		if code%numOps == opSetRate {
			err = m.e.SetRate(name, node, rate)
		} else {
			node = enforcer.Root
			err = m.e.ApplyShare(name, rate, b&1 != 0)
		}
		m.reconfigure(ag, "SetRate", err, node, func(r enforcer.Reconfigurer) error {
			return r.SetRate(m.now, rate)
		}, func() { m.rateChanged(ag, node, rate) })
	case opSetPolicy:
		err := m.e.SetPolicy(name, node, modelPolicy(c))
		m.reconfigure(ag, "SetPolicy", err, node, func(r enforcer.Reconfigurer) error {
			return r.SetPolicy(m.now, modelPolicy(c))
		}, func() { ag.reconfigs = append(ag.reconfigs, reconfig{node: node, policy: int(c)}) })
	case opArmAudit, opArmNodeAudit:
		whole, mode := code%numOps == opArmAudit, c
		if whole {
			node, mode = enforcer.NoNode, b
		}
		rate, burst := unbounded, int64(1<<50)
		if ag != nil {
			rate, burst = ag.envelope(max(node, enforcer.Root), mode&1 != 0)
		}
		if mode&0x80 != 0 {
			burst = -1
		}
		var err error
		if whole {
			err = m.e.ArmAudit(name, rate, burst)
		} else {
			err = m.e.ArmNodeAudit(name, node, rate, burst)
		}
		switch {
		case burst < 0 || ag == nil:
			m.expect("ArmAudit", err, errAny)
		case !whole && (node < 0 || int(node) >= nodeCount(ag.twin)):
			m.expect("ArmNodeAudit", err, ErrBadNode)
		default:
			m.control(ag)
			m.expect("ArmAudit", err, nil)
			m.arm(ag, node, rate, burst, mode&1 == 0)
		}
	case opFlush:
		m.flush(ag, name, b&1 != 0)
	case opUpdate:
		saw := time.Duration(-1)
		err := m.e.Update(name, func(now time.Duration, _ enforcer.Enforcer) error {
			if saw = now; b&1 != 0 {
				return errModelUpdate
			}
			return nil
		})
		switch {
		case ag == nil:
			m.expect("Update", err, errAny)
		case b&1 != 0:
			m.expect("Update", err, errModelUpdate)
		default:
			m.expect("Update", err, nil)
		}
		if ag != nil {
			if m.control(ag); saw != m.clock() {
				m.fail("Update's closure saw now = %v, want %v", saw, m.clock())
			}
		}
	case opClock:
		// Enforcers are promised non-decreasing time (enforcer.Enforcer);
		// a step back is the engine's to pass on faithfully, but never past
		// the last restart: a blob's unset instants (enforcer.Enc.Age) are
		// exact only for a clock that does not run back behind them.
		d := time.Duration(int(a)+1) * 10 * time.Microsecond << (b % 12)
		if c&1 != 0 {
			d = -d
		}
		m.now = max(m.now+d, m.base)
		m.high = max(m.high, m.now)
	case opSnapshot:
		if a&0x80 != 0 {
			m.snapshotAll()
			return
		}
		m.snapshot(ag, name)
	case opRestore:
		dst := m.aggs[int(b)%modelIDs]
		blob := []byte{0xff} // an unknown version: every Snapshotter refuses it
		if _, ok := ag.twinSnapshotter(); ok {
			blob = m.snapshot(ag, name)
		}
		err := m.e.Restore(&Snapshot{Aggregates: []AggregateSnapshot{{ID: modelID(int(b) % modelIDs), State: blob}}})
		var werr error = errAny
		if dst != nil {
			m.control(dst)
			werr = ErrNoSnapshot
			if sn, ok := dst.twinSnapshotter(); ok {
				if werr = sn.RestoreState(m.now, blob); werr != nil {
					werr = errAny
				}
			}
		}
		m.expect("Restore", err, werr)
	case opRestart:
		m.restart()
	case opClose:
		m.close()
	}
}

// submit offers n fresh packets through h: mode 0–1 Engine.SubmitBatch, 2 a
// LocalSubmitter on the aggregate's shard, 3 one on the next shard index.
func (m *modelEngine) submit(h Handle, n int, mode byte) {
	pkts := m.packets(n)
	twin := slices.Clone(pkts)
	m.runs++
	a, werr := m.resolve(h)
	var err error
	if mode < 2 {
		err = m.e.SubmitBatch(h, pkts)
	} else {
		shard := 0
		if a != nil {
			shard = a.shard
		}
		if mode == 3 {
			shard = (shard + 1) % (m.shards + 1)
		}
		ls, lerr := m.e.LocalShard(shard)
		if (lerr != nil) != (shard >= m.shards) {
			m.fail("LocalShard(%d) of %d: %v", shard, m.shards, lerr)
		}
		if lerr != nil {
			return
		}
		if err = ls.SubmitBatch(h, pkts); werr == nil && a.shard != shard {
			werr = ErrWrongShard
		}
	}
	if m.expect("SubmitBatch", err, werr); werr != nil || n == 0 {
		return
	}
	marks := m.serve(a, h.node, twin, mode >= 2)
	for i := range pkts {
		if pkts[i].CE != marks[i] {
			m.fail("packet %d of the burst left with CE %v, want %v", i, pkts[i].CE, marks[i])
		}
	}
}

// reconfigure checks one SetRate/SetPolicy/ApplyShare error against the
// twin's and, on success, applies the model's side effects.
func (m *modelEngine) reconfigure(a *modelAgg, what string, err error, node enforcer.NodeID,
	apply func(enforcer.Reconfigurer) error, done func()) {
	if a == nil {
		m.expect(what, err, errAny)
		return
	}
	m.control(a)
	r, werr := nodeReconf(a.twin, node)
	if werr == nil {
		werr = apply(r)
	}
	if m.expect(what, err, werr); werr == nil {
		done()
	}
}

func (m *modelEngine) flush(a *modelAgg, id string, panics bool) {
	ran := false
	var magic []int64
	err := m.e.Flush(id, func(enf enforcer.Enforcer) {
		if panics {
			panic("model: flush fault")
		}
		if ran = true; enf != a.enf {
			m.t.Errorf("%s: Flush ran with %T, not the registered enforcer", m.op, enf)
		}
		if p, ok := enf.(*phantom.PQP); ok {
			p.Tick(m.clock())
			for class := 0; class < 4; class++ {
				magic = append(magic, p.MagicBytes(class))
			}
		}
	})
	switch {
	case a == nil:
		m.expect("Flush", err, errAny)
		return
	case panics:
		m.fault(a)
		m.expect("Flush", err, errControlPanicked)
	default:
		m.expect("Flush", err, nil)
	}
	m.control(a)
	if p, ok := a.twin.(*phantom.PQP); ok && ran {
		p.Tick(m.now)
		m.magicLast = 0
		for class, got := range magic {
			if want := p.MagicBytes(class); got != want {
				m.fail("after Tick, class %d holds %d magic bytes, want %d", class, got, want)
			}
			m.magicLast += got
		}
		m.magicSeen = max(m.magicSeen, m.magicLast)
	}
	if ran == panics {
		m.fail("Flush closure ran = %v", ran)
	}
}

// snapshot checks Snapshot(id) against the twin and returns the blob.
func (m *modelEngine) snapshot(a *modelAgg, id string) []byte {
	snap, err := m.e.Snapshot(id)
	if a == nil {
		m.expect("Snapshot", err, errAny)
		return nil
	}
	m.control(a)
	sn, ok := a.twinSnapshotter()
	if !ok {
		m.expect("Snapshot", err, ErrNoSnapshot)
		return nil
	}
	blob, _ := sn.SnapshotState(m.now)
	if err != nil || len(snap.Aggregates) != 1 || snap.Aggregates[0].ID != id || !slices.Equal(snap.Aggregates[0].State, blob) {
		m.fail("Snapshot(%s) = %+v, %v; want the twin's blob %x", id, snap, err, blob)
	}
	return blob
}

func (m *modelEngine) close() {
	m.closed = true
	rep := m.e.Close()
	if !rep.Clean || m.e.Close() != rep {
		m.fail("Close = %+v, then %+v; want clean, twice", rep, m.e.Close())
	}
	if m.e.Len() != 0 {
		m.fail("Len = %d after Close", m.e.Len())
	}
	if _, err := m.e.Add("late", tbf.MustNew(units.Mbps, units.MSS), nil); err == nil {
		m.fail("Add after Close succeeded")
	}
	if _, err := m.e.Snapshot(); err == nil {
		m.fail("Snapshot after Close succeeded")
	}
	for _, a := range m.aggs {
		if a == nil {
			continue
		}
		if err := m.e.SubmitBatch(a.handles[0], m.packets(1)); err == nil {
			m.fail("SubmitBatch after Close succeeded")
		}
		if _, err := m.e.Stats(a.id); err == nil {
			m.fail("Stats after Close succeeded")
		}
	}
}

// check compares every read with the model.
func (m *modelEngine) check() {
	live := 0
	for i, a := range m.aggs {
		id := modelID(i)
		h, err := m.e.Lookup(id)
		if a == nil {
			m.expect("Lookup", err, errAny)
			_, err = m.e.Stats(id)
			m.expect("Stats", err, errAny)
			_, err = m.e.Faults(id)
			m.expect("Faults", err, errAny)
			continue
		}
		live++
		if err != nil || h != a.handles[0] {
			m.fail("Lookup(%s) = %+v, %v; want %+v", id, h, err, a.handles[0])
		}
		m.control(a)
		st, err := m.e.Stats(id)
		want, werr := ownStats(a.twin)
		if m.expect("Stats", err, werr); st != want {
			m.fail("Stats(%s) = %+v, want %+v", id, st, want)
		}
		for node := 0; node <= nodeCount(a.twin); node++ {
			m.control(a)
			st, err := m.e.NodeStats(id, enforcer.NodeID(node))
			want, werr := nodeStats(a.twin, enforcer.NodeID(node))
			if m.expect("NodeStats", err, werr); st != want {
				m.fail("NodeStats(%s, %d) = %+v, want %+v", id, node, st, want)
			}
		}
		f, err := m.e.Faults(id)
		if want := (FaultRecord{a.panics, a.quarantine, a.degraded}); err != nil || f != want {
			m.fail("Faults(%s) = %+v, %v; want %+v", id, f, err, want)
		}
		if !slices.Equal(a.got, a.emitted) {
			m.fail("%s emitted %d packets %v, want %d %v", id, len(a.got), a.got, len(a.emitted), a.emitted)
		}
		if m.checkObserved(a) && a.acc+a.drp+f.DegradedDrops-a.tail != a.offered {
			m.fail("%s: accepted + dropped + degraded unenforced = %d, offered %d", id,
				a.acc+a.drp+f.DegradedDrops-a.tail, a.offered)
		}
	}
	if n := m.e.Len(); n != live {
		m.fail("Len = %d, want %d", n, live)
	}
	m.checkHealth()
	m.checkAudits()
	if n := m.e.InlineBursts.Load(); n != m.inline {
		m.fail("InlineBursts = %d, want %d", n, m.inline)
	}
	if m.observed {
		m.checkExport()
	}
}

// checkExport compares what an observed engine exports: the burst count,
// the latency histogram's count of timed bursts (the first of every
// modelSampleEvery on each shard), each shard's last sampled burst event, and
// every aggregate's traffic families.
func (m *modelEngine) checkExport() {
	var timed uint64
	for _, sh := range m.sh {
		timed += uint64((sh.bursts + modelSampleEvery - 1) / modelSampleEvery)
	}
	if n, h := m.coll.Bursts(), m.coll.BurstHist().Count; n != m.bursts || h != timed {
		m.fail("Collector.Bursts = %d, latency histogram %d, want %d and %d", n, h, m.bursts, timed)
	}
	if m.exported {
		return
	}
	m.exported = true
	got := make([]obs.Event, m.shards)
	for _, ev := range m.e.TraceDump() {
		if ev.Kind == obs.KindBurst {
			ev.Seq, ev.Wall = 0, 0
			got[ev.Shard] = ev.Event
		}
	}
	if !slices.Equal(got, m.lastBurst) {
		m.fail("last burst events %+v, want %+v", got, m.lastBurst)
	}
	snap := m.e.Metrics()
	for _, a := range m.aggs {
		if a == nil {
			continue
		}
		for fam, want := range map[string]int64{"accepted_packets": a.acc, "accepted_bytes": a.accB,
			"dropped_packets": a.drp, "dropped_bytes": a.drpB} {
			if got := metricValue(m.t, snap, "bcpqp_aggregate_"+fam+"_total", a.id); got != float64(want) {
				m.fail("%s exports %s %v, want %d", a.id, fam, got, want)
			}
		}
	}
}

// checkObserved compares a's observed tally with the model's; false when the
// engine has no Observer.
func (m *modelEngine) checkObserved(a *modelAgg) bool {
	if !m.observed {
		return false
	}
	agg, _ := m.e.aggByID(a.id)
	if c := agg.obs.Snapshot(); c.AcceptedPackets != a.acc || c.AcceptedBytes != a.accB ||
		c.DroppedPackets != a.drp || c.DroppedBytes != a.drpB {
		m.fail("%s observed %+v, want %d/%d B accepted, %d/%d B dropped", a.id, c, a.acc, a.accB, a.drp, a.drpB)
	}
	return true
}

func (m *modelEngine) checkHealth() {
	h := m.e.Health()
	want := Health{Panics: m.panics, DegradedDrops: m.degraded, BadVerdicts: m.bad}
	for _, a := range m.slots {
		if a != nil && a.quarantine {
			want.Quarantined = append(want.Quarantined, a.id)
		}
	}
	for i, s := range m.sh {
		h.Shards[i].HeartbeatAge = 0
		want.Shards = append(want.Shards, ShardHealth{Shard: i, QueueCap: 1024,
			Processed: s.processed, Panics: s.panics, Claimed: s.claimed})
	}
	if !reflect.DeepEqual(h, want) {
		m.fail("Health = %+v, want %+v", h, want)
	}
}

func (m *modelEngine) checkAudits() {
	var want []AuditEntry
	for _, a := range m.slots {
		if a == nil || a.audit == nil {
			continue
		}
		entry := func(node enforcer.NodeID, au *obs.Audit) {
			ent := AuditEntry{Aggregate: a.id, Node: node, Counters: au.Snapshot(),
				Slack: au.SlackDigest(), RateErr: au.RateErrDigest()}
			if tr := a.audit.tree; tr != nil && node != enforcer.NoNode {
				ent.NodeLabel = tr.NodeLabel(node)
			}
			if a.clean[au] && ent.Counters.Violations != 0 {
				m.fail("%s node %d: an honest envelope over a conformant enforcer saw %+v", a.id, node, ent.Counters)
			}
			want = append(want, ent)
		}
		if a.audit.whole != nil {
			entry(enforcer.NoNode, a.audit.whole)
		}
		for node, au := range a.audit.nodes {
			if au != nil {
				entry(enforcer.NodeID(node), au)
			}
		}
	}
	got := m.e.AuditReport()
	if !slices.EqualFunc(got, want, func(g, w AuditEntry) bool {
		return g.Aggregate == w.Aggregate && g.Node == w.Node && g.NodeLabel == w.NodeLabel &&
			g.Counters == w.Counters && sameDigest(g.Slack, w.Slack) && sameDigest(g.RateErr, w.RateErr)
	}) {
		m.fail("AuditReport = %+v,\nwant %+v", got, want)
	}
}

func sameDigest(a, b obs.DigestSnapshot) bool {
	return a.Sum == b.Sum && slices.Equal(a.Counts, b.Counts)
}

// runModel plays script against a fresh engine and the model.
func runModel(t *testing.T, script []byte) *modelEngine {
	t.Helper()
	if len(script) == 0 {
		return nil
	}
	m := &modelEngine{t: t, shards: 1 + int(script[0])%3, observed: script[0]&4 != 0,
		now: time.Millisecond, high: time.Millisecond}
	m.start()
	defer func() {
		if !m.closed {
			m.e.Close()
		}
	}()
	for i := 1; i+4 <= len(script) && i < 1+4*maxOps && !m.closed; i += 4 {
		if m.step(script[i], script[i+1], script[i+2], script[i+3]); !m.closed {
			m.check()
		}
	}
	return m
}

// FuzzEngineModel drives the engine and the model with decoded op
// sequences; the named scenarios below are its seed corpus.
func FuzzEngineModel(f *testing.F) {
	var names []string
	for name := range modelScenarios {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f.Add(modelScenarios[name])
	}
	f.Fuzz(func(t *testing.T, script []byte) { runModel(t, script) })
}

// Script helpers: node arguments take the node itself.
func op(code int, a, b, c byte) []byte { return []byte{byte(code), a, b, c} }
func add(id, spec, flags byte) []byte  { return op(opAdd, id, spec, flags) }
func submit(id, h, n byte) []byte      { return op(opSubmit, id, h, n) }
func local(id, h, n byte) []byte       { return op(opSubmit, id, h, n|2<<6) }
func leaf(id, h byte, node int) []byte {
	return op(opLeaf, id, h, byte(node+1))
}
func nodeOp(code int, id byte, node int, c byte) []byte { return op(code, id, byte(node+1), c) }
func onShard(s byte) byte                               { return pin | s<<2 }
func times(n int, ops ...[]byte) []byte                 { return bytes.Repeat(slices.Concat(ops...), n) }
func script(cfg byte, ops ...[]byte) []byte {
	return slices.Concat(append([][]byte{{cfg}}, ops...)...)
}

// Header bytes, and clock steps.
const (
	oneShard, twoShards, observed byte = 0, 1, 4
)

var (
	ms1  = op(opClock, 99, 0, 0)  // 1 ms
	ms5  = op(opClock, 124, 2, 0) // 5 ms
	ms10 = op(opClock, 249, 2, 0) // 10 ms
	ms80 = op(opClock, 249, 5, 0) // 80 ms
	long = op(opClock, 255, 11, 0)
)

// modelScenarios are FuzzEngineModel's seed corpus; the tests below run
// them by name. Entries name what each checks beyond what every script gets.
var modelScenarios = map[string][]byte{
	// Add, a duplicate id, a nil enforcer, Remove twice; the removed handle,
	// NoHandle and an out-of-range handle on both ingresses, and Leaf of the
	// removed handle.
	"AddRemove": script(oneShard, add(0, kTBF, 0), add(0, kTBF, 0), add(1, kNil, 0), submit(0, 0, 1),
		op(opRemove, 0, 0, 0), op(opRemove, 0, 0, 0), submit(0, 0, 1), local(0, 0, 1),
		submit(0xf1, 0, 1), submit(0xf1, 1, 1), leaf(0, 0, 0)),
	// The freed slot comes back under a new generation.
	"HandlesNotReused": script(oneShard, add(0, kTBF, 0), op(opRemove, 0, 0, 0), add(1, kTBF, 0),
		submit(0, 0, 1), submit(1, 0, 1)),
	// Six BC-PQP aggregates over three shards under load far above their
	// rate, each audited against its Theorem-1 envelope. The lightest, at
	// six times its rate, crosses θ⁺ about two thirds of the way through.
	"PerAggregateRateEnforcement": script(2|observed, add(0, kBCPQP, hook), add(1, kBCPQP, hook),
		add(2, kBCPQP, hook), add(3, kBCPQP, hook), add(4, kBCPQP, hook), add(5, kBCPQP, hook),
		op(opArmAudit, 0, 0, 0), op(opArmAudit, 1, 0, 0), op(opArmAudit, 2, 0, 0), op(opArmAudit, 3, 0, 0),
		op(opArmAudit, 4, 0, 0), op(opArmAudit, 5, 0, 0),
		times(34, ms1, submit(0, 0, 32), submit(1, 0, 8), submit(2, 0, 32), submit(3, 0, 12), submit(4, 0, 32), submit(5, 0, 16))),
	"StatsOnShardGoroutine": script(twoShards, add(0, kTBF, hook), times(10, submit(0, 0, 1))),
	"StatsErrNoStats":       script(oneShard, add(0, kMute, hook), submit(0, 0, 4), op(opRemove, 0, 0, 0)),
	// One aggregate fed the same load as bursts of 32 and of one.
	"SingleAndBatchAgree": script(observed, add(0, kTBF, hook),
		times(6, ms1, submit(0, 0, 32), ms1, times(32, submit(0, 0, 1)))),
	"FlushRunsMaintenance": script(oneShard, add(0, kBCPQP, 0), add(1, kTree, 0), add(2, kTBF|fPanic, 0),
		op(opFlush, 0, 0, 0), op(opFlush, 1, 0, 0), op(opFlush, 2, 0, 0), op(opFlush, 3, 0, 0)),
	// A burst opens every queue's window, a flood late in it magic-fills,
	// and Ticks through Flush close the window busy and then, a quiet window
	// later, reclaim the magic before the drain reaches it.
	"FlushDrivesPhantomMaintenance": script(oneShard, add(0, kBCPQP, hook), submit(0, 0, 32), ms80, ms10,
		times(12, submit(0, 0, 32)), op(opFlush, 0, 0, 0), times(20, ms10, op(opFlush, 0, 0, 0))),
	"CloseIdempotentAndRejects": script(twoShards, add(0, kTBF, 0), add(1, kTree, 0), submit(0, 0, 4),
		op(opClose, 0, 0, 0)),
	// Final stats with drops, of a tree, and of an enforcer without stats.
	"RemoveReturnsFinalStats": script(oneShard, add(0, kTBF, hook), submit(0, 0, 40), op(opRemove, 0, 0, 0),
		add(1, kMute, 0), submit(1, 0, 3), op(opRemove, 1, 0, 0),
		add(2, kTree, hook), submit(2, 0, 40), op(opRemove, 2, 0, 0)),
	// ErrNotReconfigurable, ErrNoPolicy, an unknown id, a negative rate, and
	// Update's closure error.
	"UpdateErrors": script(oneShard, add(0, kMute, 0), add(1, kTBF, 0),
		nodeOp(opSetRate, 0, 0, 125), nodeOp(opSetPolicy, 1, 0, 1), nodeOp(opSetRate, 5, 0, 125),
		nodeOp(opSetRate, 1, 0, 0), op(opUpdate, 1, 1, 0), op(opUpdate, 1, 0, 0), op(opUpdate, 5, 0, 0)),
	// A saturated bucket re-rated in-band next to a panicking neighbour: the
	// rebased honest envelope stays clean, and the twin re-rated in place
	// agrees packet for packet.
	"ChaosRateChangePiecewiseTBF": script(oneShard, add(0, kTBF, hook), add(1, kTBF|fPanic, hook),
		op(opArmAudit, 0, 0, 0), times(30, ms1, submit(0, 0, 32), submit(1, 0, 4)),
		nodeOp(opSetRate, 0, 0, 31), times(30, ms1, submit(0, 0, 32), submit(1, 0, 4))),
	"ChaosRateChangePreservesPhantomOccupancy": script(oneShard, add(0, kBCPQP, hook), op(opArmAudit, 0, 0, 0),
		times(40, ms1, submit(0, 0, 32)), nodeOp(opSetRate, 0, 0, 31), times(60, ms1, submit(0, 0, 32))),
	// Every snapshottable kind restarts seconds into the run, then a snapshot
	// of everything, a restore across kinds, into a vacant id and in place.
	"SnapshotRestoreReplayByteIdentical": script(observed, add(0, kBCPQP, hook), add(1, kTBF, hook),
		add(2, kFair, hook), add(3, kRED, hook), add(4, kTree, hook), leaf(4, 0, 3),
		times(19, ms1, submit(0, 0, 24), submit(1, 0, 24), submit(2, 0, 24), submit(3, 0, 24), submit(4, 1, 8)),
		long, op(opRestart, 0, 0, 0),
		times(19, ms1, submit(0, 0, 24), submit(1, 0, 24), submit(2, 0, 24), submit(3, 0, 24), submit(4, 1, 8)),
		op(opSnapshot, 0x80, 0, 0), op(opRestore, 0, 1, 0), op(opRestore, 0, 5, 0), op(opRestore, 1, 1, 0)),
	"SnapshotErrNoSnapshot": script(oneShard, add(0, kMute, 0), add(1, kTBF|fPanic, 0), op(opSnapshot, 0, 0, 0),
		op(opSnapshot, 1, 0, 0), op(opRestore, 2, 0, 0), op(opSnapshot, 0x80, 0, 0), op(opRestart, 0, 0, 0),
		submit(0, 0, 4)),
	"TreeSnapshotThroughEngine": script(oneShard, add(0, kTree, hook), leaf(0, 0, 2), leaf(0, 0, 3),
		times(30, ms1, submit(0, 1, 6), submit(0, 2, 6), submit(0, 0, 4)), long, op(opRestart, 0, 0, 0),
		times(30, ms1, submit(0, 1, 6), submit(0, 2, 6), submit(0, 0, 4))),
	// Ring and inline bursts interleaved on one shard, into a flat aggregate
	// and a tree entered at its leaves.
	"LocalSubmitEquivalentToRing": script(twoShards, add(0, kTBF, hook|onShard(1)), add(1, kTree, hook|onShard(1)),
		leaf(1, 0, 1), leaf(1, 0, 2),
		times(40, ms1, submit(0, 0, 9), local(0, 0, 9), submit(1, 1, 7), local(1, 2, 7), local(1, 0, 5))),
	// A LocalSubmitter on the wrong shard, on an out-of-range one, and
	// AddPinned out of range.
	"LocalSubmitWrongShard": script(twoShards, add(0, kTBF, onShard(0)), add(1, kTBF, onShard(1)),
		add(2, kTBF, onShard(2)), op(opSubmit, 0, 0, 4|3<<6), op(opSubmit, 1, 0, 4|3<<6), local(0, 0, 4)),
	"LocalSubmitStaleHandle": script(oneShard, add(0, kTBF, 0), op(opRemove, 0, 0, 0), local(0, 0, 4)),
	// Leaf of Leaf, nodes out of range, NoNode at the root, a flat
	// aggregate's node 0; Remove and re-Add revive no handle on either
	// ingress.
	"AddTreeAndLeafResolution": script(oneShard, add(0, kTree, 0), leaf(0, 0, 1), leaf(0, 1, 2), leaf(0, 0, 6),
		leaf(0, 0, -1), add(1, kTBF, 0), leaf(1, 0, 0), leaf(1, 0, 1),
		nodeOp(opSetRate, 0, -1, 125), nodeOp(opSetRate, 1, -1, 125), nodeOp(opSetPolicy, 0, -1, 1),
		nodeOp(opSetPolicy, 1, -1, 1), op(opRemove, 0, 0, 0), add(0, kTree, 0),
		submit(0xf0, 0, 1), submit(0xf0, 1, 1), local(0xf0, 1, 1), local(0xf0, 2, 1), submit(0, 0, 1)),
	// Bursts at two leaves land on their nodes; SetRate at a node without
	// a ceiling is ErrNotReconfigurable.
	"LeafSubmissionRoutesToNodes": script(oneShard, add(0, kTree, hook), leaf(0, 0, 2), leaf(0, 0, 4),
		times(50, op(opClock, 49, 0, 0), submit(0, 1, 8), submit(0, 2, 1), submit(0, 2, 1)),
		nodeOp(opSetRate, 0, 2, 125)),
	"SetRateAtNodeInBand": script(oneShard, add(0, kTree, hook), leaf(0, 0, 3), op(opArmAudit, 0, 0, 0),
		nodeOp(opArmNodeAudit, 0, 0, 0), nodeOp(opArmNodeAudit, 0, 3, 0), nodeOp(opSetRate, 0, 0, 31),
		times(100, ms1, submit(0, 1, 4))),
	// A frozen clock: of one burst the bucket passes some and drops the rest.
	"ObserveVerdictTally": script(observed, add(0, kTBF, 0), submit(0, 0, 40)),
	// Every verdict, out-of-range ones on both sides included, tallied.
	"TallyCountsVerdicts": script(observed, add(0, kCycle, hook), add(1, kCycle, 0),
		submit(0, 0, 10), submit(0, 0, 7), submit(1, 0, 13)),
	"BadVerdictsCountedWithoutEmitHook": script(oneShard, add(0, kCycle, 0), add(1, kCycle, hook),
		add(2, kTBF|fCorrupt, 0), submit(0, 0, 7), submit(1, 0, 7), times(8, submit(2, 0, 5))),
	"BadVerdictsCountedWithoutEmitHook/observed": script(observed, add(0, kCycle, 0), add(1, kCycle, hook),
		add(2, kTBF|fCorrupt, 0), submit(0, 0, 7), submit(1, 0, 7), times(8, submit(2, 0, 5))),
	// Runs of an observed, audited aggregate whose emit hook reads its own
	// counters and envelope (every hook does, see add).
	"EmitRunsBeforeObserve": script(observed, add(0, kTBF, hook), op(opArmAudit, 0, 0, 0),
		times(5, submit(0, 0, 4))),
	// The emit hook panics at the fourth emission of an audited, observed
	// run: the run is accounted once, in full, and its tail degrades.
	"EmitPanicAccountedOnce": script(observed, add(0, kTBF|4<<5, hook), op(opArmAudit, 0, 0, 0),
		submit(0, 0, 8), submit(0, 0, 8)),
	"AuditCleanRunZero": script(oneShard, add(0, kTBF, 0), add(1, kBCPQP, 0), add(2, kFair, 0), add(3, kRED, 0),
		add(4, kTree, 0), op(opArmAudit, 0, 0, 0), op(opArmAudit, 1, 0, 0), op(opArmAudit, 2, 0, 0),
		op(opArmAudit, 3, 0, 0), op(opArmAudit, 4, 0, 0),
		times(40, ms5, submit(0, 0, 32), submit(1, 0, 32), submit(2, 0, 32), submit(3, 0, 32), submit(4, 0, 32))),
	"AuditInjectedOverAdmissionExact": script(oneShard, add(0, kTBF|fOverAdmit, 0), op(opArmAudit, 0, 0, 0),
		times(100, ms1, submit(0, 0, 48))),
	"AuditRebaseNoFalsePositives": script(oneShard, add(0, kTBF, 0), op(opArmAudit, 0, 0, 0),
		times(5, times(10, op(opClock, 199, 0, 0), submit(0, 0, 48)), nodeOp(opSetRate, 0, 0, 31),
			times(10, op(opClock, 199, 0, 0), submit(0, 0, 48)), nodeOp(opSetRate, 0, 0, 250))),
	"RateChangeRebasesEveryEnvelope/flat/SetRate": script(oneShard, add(0, kTBF, 0), op(opArmAudit, 0, 0, 0),
		nodeOp(opArmNodeAudit, 0, 0, 0), nodeOp(opSetRate, 0, 0, 160), times(100, ms1, submit(0, 0, 7))),
	"RateChangeRebasesEveryEnvelope/flat/ApplyShare": script(oneShard, add(0, kTBF, 0), op(opArmAudit, 0, 0, 0),
		nodeOp(opArmNodeAudit, 0, 0, 0), op(opApplyShare, 0, 0, 160), times(100, ms1, submit(0, 0, 7))),
	"RateChangeRebasesEveryEnvelope/tree/root/SetRate": script(oneShard, add(0, kTree, 0), leaf(0, 0, 3),
		op(opArmAudit, 0, 0, 0), nodeOp(opArmNodeAudit, 0, 0, 0), nodeOp(opArmNodeAudit, 0, 3, 0),
		nodeOp(opSetRate, 0, 0, 250), times(80, ms1, submit(0, 0, 6), submit(0, 1, 3))),
	"RateChangeRebasesEveryEnvelope/tree/root/ApplyShare": script(oneShard, add(0, kTree, 0), leaf(0, 0, 3),
		op(opArmAudit, 0, 0, 0), nodeOp(opArmNodeAudit, 0, 0, 0), nodeOp(opArmNodeAudit, 0, 3, 0),
		op(opApplyShare, 0, 1, 250), times(80, ms1, submit(0, 0, 6), submit(0, 1, 3))),
	"RateChangeRebasesEveryEnvelope/tree/leaf/SetRate": script(oneShard, add(0, kTree, 0), leaf(0, 0, 3),
		op(opArmAudit, 0, 0, 0), nodeOp(opArmNodeAudit, 0, 0, 0), nodeOp(opArmNodeAudit, 0, 3, 0),
		nodeOp(opSetRate, 0, 3, 160), times(80, ms1, submit(0, 0, 6), submit(0, 1, 3))),
	// A tight envelope on an interior node breaches while the honest ones
	// on its leaf and on the ceiling below stay clean.
	"AuditTreeRollup": script(oneShard, add(0, kTree, 0), leaf(0, 0, 2), leaf(0, 0, 3),
		nodeOp(opArmNodeAudit, 0, 1, 1), nodeOp(opArmNodeAudit, 0, 2, 0), nodeOp(opArmNodeAudit, 0, 3, 0),
		times(60, ms1, submit(0, 1, 6), submit(0, 2, 6))),
	// Runs through Add's handle credit the root and the whole envelope only;
	// runs at a leaf credit it and its armed ancestors.
	"NodeAuditCreditedAtOrBelowIngress": script(oneShard, add(0, kTree, 0), leaf(0, 0, 2), leaf(0, 0, 4),
		op(opArmAudit, 0, 0, 0), nodeOp(opArmNodeAudit, 0, 1, 0), nodeOp(opArmNodeAudit, 0, 2, 0),
		nodeOp(opArmNodeAudit, 0, 4, 0), times(40, ms1, submit(0, 0, 6), submit(0, 1, 6), submit(0, 2, 6))),
	"ChaosPanicQuarantineDeterministic": script(oneShard, add(0, kTBF|fPanic, hook), add(1, kTBF, hook),
		times(20, ms1, submit(0, 0, 8), submit(1, 0, 8))),
	// Quarantined until Remove: nothing emitted or audited after the crash;
	// Remove and Add under the same id enforce again with a clean record.
	"ChaosQuarantineHoldsUntilRemove": script(oneShard, add(0, kTBF|fPanic, hook), op(opArmAudit, 0, 0, 0),
		times(20, ms1, submit(0, 0, 8)), op(opRemove, 0, 0, 0), add(0, kTBF, hook), times(5, ms1, submit(0, 0, 8))),
	// A panicking control call quarantines; the mix below runs every op.
	"controlPanic": script(twoShards|observed, add(0, kTBF, hook), add(1, kBCPQP, hook), submit(0, 0, 4),
		op(opFlush, 0, 1, 0), submit(0, 0, 4), op(opFlush, 1, 0, 0), submit(1, 0, 9), op(opRestart, 0, 0, 0),
		submit(0, 0, 4)),
	"mix": script(2|observed, add(0, kBCPQP, hook|onShard(2)), add(1, kTree, hook), add(2, kRED, hook),
		add(3, kFair|fCorrupt, hook), add(4, kCycle, hook), leaf(1, 0, 2), leaf(1, 0, 4),
		op(opArmAudit, 0, 0, 0), nodeOp(opArmNodeAudit, 1, 1, 0), nodeOp(opArmNodeAudit, 1, 4, 1),
		times(8, ms1, submit(0, 0, 20), local(0, 0, 12), submit(1, 1, 9), local(1, 2, 5), submit(2, 0, 16),
			submit(3, 0, 8), submit(4, 0, 5)),
		nodeOp(opSetPolicy, 0, 0, 2), nodeOp(opSetPolicy, 3, 0, 2), nodeOp(opSetRate, 1, 1, 60),
		op(opApplyShare, 0, 1, 90), op(opClock, 50, 3, 1), op(opSnapshot, 0x80, 0, 0), long,
		op(opRestart, 0, 0, 0), op(opArmAudit, 1, 0, 0), op(opRestore, 0, 2, 0),
		times(8, ms1, submit(0, 0, 20), submit(1, 0, 9), submit(2, 0, 16), submit(3, 0, 8)),
		op(opRemove, 4, 0, 0), add(4, kTree|fPanic, 0), submit(4, 0, 8), op(opUpdate, 2, 0, 0),
		op(opFlush, 2, 0, 0), op(opClose, 0, 0, 0)),
}

func TestAddRemove(t *testing.T)             { runModel(t, modelScenarios["AddRemove"]) }
func TestHandlesNotReused(t *testing.T)      { runModel(t, modelScenarios["HandlesNotReused"]) }
func TestStatsOnShardGoroutine(t *testing.T) { runModel(t, modelScenarios["StatsOnShardGoroutine"]) }
func TestStatsErrNoStats(t *testing.T)       { runModel(t, modelScenarios["StatsErrNoStats"]) }
func TestSingleAndBatchAgree(t *testing.T)   { runModel(t, modelScenarios["SingleAndBatchAgree"]) }
func TestFlushRunsMaintenance(t *testing.T)  { runModel(t, modelScenarios["FlushRunsMaintenance"]) }
func TestCloseIdempotentAndRejects(t *testing.T) {
	runModel(t, modelScenarios["CloseIdempotentAndRejects"])
}
func TestRemoveReturnsFinalStats(t *testing.T) {
	runModel(t, modelScenarios["RemoveReturnsFinalStats"])
}
func TestUpdateErrors(t *testing.T)          { runModel(t, modelScenarios["UpdateErrors"]) }
func TestSnapshotErrNoSnapshot(t *testing.T) { runModel(t, modelScenarios["SnapshotErrNoSnapshot"]) }
func TestTreeSnapshotThroughEngine(t *testing.T) {
	runModel(t, modelScenarios["TreeSnapshotThroughEngine"])
}
func TestLocalSubmitWrongShard(t *testing.T)  { runModel(t, modelScenarios["LocalSubmitWrongShard"]) }
func TestLocalSubmitStaleHandle(t *testing.T) { runModel(t, modelScenarios["LocalSubmitStaleHandle"]) }
func TestAddTreeAndLeafResolution(t *testing.T) {
	runModel(t, modelScenarios["AddTreeAndLeafResolution"])
}
func TestLeafSubmissionRoutesToNodes(t *testing.T) {
	runModel(t, modelScenarios["LeafSubmissionRoutesToNodes"])
}
func TestSetRateAtNodeInBand(t *testing.T) { runModel(t, modelScenarios["SetRateAtNodeInBand"]) }
func TestTallyCountsVerdicts(t *testing.T) { runModel(t, modelScenarios["TallyCountsVerdicts"]) }
func TestObserveVerdictTally(t *testing.T) {
	if m := runModel(t, modelScenarios["ObserveVerdictTally"]); m.aggs[0].acc == 0 || m.aggs[0].drp == 0 {
		t.Fatalf("%d accepted, %d dropped: want both", m.aggs[0].acc, m.aggs[0].drp)
	}
}
func TestEmitRunsBeforeObserve(t *testing.T)  { runModel(t, modelScenarios["EmitRunsBeforeObserve"]) }
func TestEmitPanicAccountedOnce(t *testing.T) { runModel(t, modelScenarios["EmitPanicAccountedOnce"]) }
func TestAuditCleanRunZero(t *testing.T)      { runModel(t, modelScenarios["AuditCleanRunZero"]) }
func TestAuditRebaseNoFalsePositives(t *testing.T) {
	runModel(t, modelScenarios["AuditRebaseNoFalsePositives"])
}
func TestNodeAuditCreditedAtOrBelowIngress(t *testing.T) {
	runModel(t, modelScenarios["NodeAuditCreditedAtOrBelowIngress"])
}

// TestChaosRateChangePiecewiseTBF also holds the bucket to the piecewise
// bound from below: saturated from its first packet (engine clock 1 ms) to
// the change at 30 ms and on to 60 ms, it admits one bucket plus what both
// rates refilled, to within a packet either way. A SetRate that dropped the
// tokens accrued before the change would fall short.
func TestChaosRateChangePiecewiseTBF(t *testing.T) {
	m := runModel(t, modelScenarios["ChaosRateChangePiecewiseTBF"])
	want := int64((8*units.Mbps).Bytes(29*time.Millisecond)+(31*64*units.Kbps).Bytes(30*time.Millisecond)) + 16*units.MSS
	if got := m.aggs[0].twin.(enforcer.StatsReader).EnforcerStats().AcceptedBytes; got < want-units.MSS || got > want+units.MSS {
		t.Fatalf("accepted %d bytes across the change, want %d ± one packet", got, want)
	}
}
func TestChaosRateChangePreservesPhantomOccupancy(t *testing.T) {
	runModel(t, modelScenarios["ChaosRateChangePreservesPhantomOccupancy"])
}
func TestSnapshotRestoreReplayByteIdentical(t *testing.T) {
	runModel(t, modelScenarios["SnapshotRestoreReplayByteIdentical"])
}
func TestLocalSubmitEquivalentToRing(t *testing.T) {
	if m := runModel(t, modelScenarios["LocalSubmitEquivalentToRing"]); m.inline == 0 || m.sh[1].claimed == 0 {
		t.Fatalf("%d inline and %d ring bursts: the scenario must exercise both", m.inline, m.sh[1].claimed)
	}
}

func TestPerAggregateRateEnforcement(t *testing.T) {
	m := runModel(t, modelScenarios["PerAggregateRateEnforcement"])
	for _, a := range m.aggs {
		if len(a.emitted) == 0 || a.drp == 0 {
			t.Fatalf("%s emitted %d packets and dropped %d: want enforcement, not all or nothing", a.id, len(a.emitted), a.drp)
		}
	}
}

func TestBadVerdictsCountedWithoutEmitHook(t *testing.T) {
	for _, name := range []string{"BadVerdictsCountedWithoutEmitHook", "BadVerdictsCountedWithoutEmitHook/observed"} {
		if m := runModel(t, modelScenarios[name]); m.bad == 0 {
			t.Fatalf("%s: no out-of-range verdict", name)
		}
	}
}

func TestFlushDrivesPhantomMaintenance(t *testing.T) {
	if m := runModel(t, modelScenarios["FlushDrivesPhantomMaintenance"]); m.magicSeen == 0 || m.magicLast != 0 {
		t.Fatalf("magic bytes peaked at %d and ended at %d: want a fill and its reclaim", m.magicSeen, m.magicLast)
	}
}

func TestAuditInjectedOverAdmissionExact(t *testing.T) {
	if m := runModel(t, modelScenarios["AuditInjectedOverAdmissionExact"]); m.aggs[0].audit.whole.Snapshot().Violations == 0 {
		t.Fatal("over-admission produced no violation")
	}
}

func TestRateChangeRebasesEveryEnvelope(t *testing.T) {
	for _, name := range []string{"flat/SetRate", "flat/ApplyShare", "tree/root/SetRate", "tree/root/ApplyShare", "tree/leaf/SetRate"} {
		t.Run(name, func(t *testing.T) { runModel(t, modelScenarios["RateChangeRebasesEveryEnvelope/"+name]) })
	}
}

func TestAuditTreeRollup(t *testing.T) {
	if m := runModel(t, modelScenarios["AuditTreeRollup"]); m.aggs[0].audit.nodes[1].Snapshot().Violations == 0 {
		t.Fatal("the tight interior envelope saw no violation")
	}
}

func TestChaosPanicQuarantineDeterministic(t *testing.T) {
	m := runModel(t, modelScenarios["ChaosPanicQuarantineDeterministic"])
	if victim := m.aggs[0]; !victim.quarantine || victim.panics != 1 || len(m.aggs[1].emitted) == 0 {
		t.Fatalf("victim quarantined %v after %d panics, neighbour emitted %d: want quarantine after one, and traffic",
			victim.quarantine, victim.panics, len(m.aggs[1].emitted))
	}
}

func TestChaosQuarantineHoldsUntilRemove(t *testing.T) {
	if m := runModel(t, modelScenarios["ChaosQuarantineHoldsUntilRemove"]); m.panics != 1 || len(m.aggs[0].emitted) == 0 {
		t.Fatalf("%d panics, %d packets emitted after re-Add: want one crash, then traffic", m.panics, len(m.aggs[0].emitted))
	}
}
