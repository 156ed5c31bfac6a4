package mbox

// One sequential reference model of the engine. modelEngine holds, per
// aggregate id, a twin enforcer built from the same spec and fed the same
// (now, packets) calls the engine's enforcer gets, the quarantine flag, the
// counters the engine keeps for it, and an audit ledger (its own obs.Audit
// envelope). FuzzEngineModel decodes bytes into engine operations; after
// every one the engine and the model must agree on the verdict stream
// (emitted packets and the CE marks left in the caller's slice), on every
// read (Len, Lookup, Stats, NodeMetrics, the fault record, AuditReport,
// Health, and with an Observer the per-aggregate counters, Metrics and each
// shard's last burst event), audits armed with an honest
// envelope must hold zero violations, and every packet offered to an
// aggregate must be accepted, dropped or degraded unenforced exactly once
// (the tail an emit fault leaves un-emitted keeps its verdict and is counted
// degraded too).
//
// One goroutine drives the engine, so it finds every shard idle and serves
// each burst and control call itself (the claim rule, local.go): the run is
// deterministic, and a failing input replays exactly. The model restarts the
// engine too — Snapshot, Close, a fresh engine whose clock reads zero,
// re-Add, Restore — while its twins run on along the old timeline, so a
// restart must be invisible.

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
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// A script is a header byte (shards = 1 + h%3; h&4 attaches an Observer)
// and then four-byte ops, [code, a, b, c]. An id argument names aggregate
// a%modelIDs. Codes keep their numbers when an operation retires, so old
// scripts still decode: a retired code runs its neighbour (opLookup was
// Leaf, opSetRate2 SetPolicy, opArmAudit2 ArmNodeAudit, opFlush2 Update).
const (
	opAdd        = iota // a id, b spec (kind | fault | emit panic), c flags (hook | pin | shard<<2)
	opRemove            // a id
	opLookup            // a id
	opSubmit            // a, b handle (see handle), c packets | 2<<6 LocalSubmitter, 3<<6 on another shard
	opSetRate           // a id, c rate in 64 kb/s (0: negative)
	opSetRate2          // as opSetRate
	opApplyShare        // a id, b&1 fallback, c rate
	opArmAudit          // a id, b&1 tight envelope, b&0x80 negative burst
	opArmAudit2         // a id, c as ArmAudit's b
	opFlush             // a id, b&1 the closure panics
	opFlush2            // as opFlush
	opClock             // the clock moves (a+1)·10µs << b%12, backwards when c&1
	opSnapshot          // a id, a&0x80 every aggregate
	opRestore           // a source id, b destination id
	opRestart           // Snapshot, Close, a fresh engine at clock 0, re-Add, Restore
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

func (c *cycleEnforcer) SubmitBatch(_ time.Duration, pkts []packet.Packet, v []enforcer.Verdict) {
	for i := range pkts {
		v[i] = c.vs[c.i%len(c.vs)]
		c.i++
	}
}

// statlessEnforcer implements Enforcer but not StatsReader.
type statlessEnforcer struct{}

func (statlessEnforcer) SubmitBatch(_ time.Duration, pkts []packet.Packet, v []enforcer.Verdict) {
	for i := range pkts {
		v[i] = enforcer.Transmit
	}
}

// emitRec captures what an emit hook can observe about one relayed packet.
type emitRec struct {
	Seq  int64
	Size int
	CE   bool
}

// ceiling is an aggregate's rate limit as built (a tree's root ceiling),
// and the burst allowance B of the Theorem-1 envelope an honest audit arms
// over it: a bucket's depth, or the four phantom queues' size plus drain
// rounding.
type ceiling struct {
	rate  units.Rate
	burst int64
}

var modelCeilings = map[byte]ceiling{
	kTBF:   {8 * units.Mbps, 16 * units.MSS},
	kBCPQP: {8 * units.Mbps, 130 * units.MSS},
	kRED:   {8 * units.Mbps, 130 * units.MSS},
	kFair:  {8 * units.Mbps, 16 * units.MSS},
	kTree:  {12 * units.Mbps, 24 * units.MSS},
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

type aggSpec struct {
	kind, fault byte
	emitPanic   int // the emit hook's call that panics, 1-based; 0 never
	hook, pin   bool
	shard       int
}

type modelAgg struct {
	id        string
	spec      aggSpec
	enf, twin enforcer.Enforcer // the engine's enforcer and the model's
	shard     int
	ref       aggRef
	// rates are the successful SetRates, replayed on the fresh enforcer a
	// restart registers: snapshots carry no configuration.
	rates      []units.Rate
	audit      *obs.Audit
	clean      bool      // the audit is an honest envelope over a conformant twin
	got        []emitRec // what the engine's emit hook saw
	emitted    []emitRec // what the model predicts it saw
	emits      int       // emit hook calls this incarnation
	quarantine bool
	// Since the aggregate was added or the engine restarted: offered
	// packets, the observed verdict tally, panics, degraded drops and the
	// emit-fault tails among them.
	offered, acc, accB, drp, drpB, panics, degraded, tail int64
}

type modelShard struct {
	processed, claimed, panics int64
	// faultSeen is the wall time of the first Health check to see the
	// shard's latest panic (checked is the panic count it saw): the shard's
	// fault stamp is no later, so from degradedFor after it the shard must
	// read Healthy again.
	faultSeen, checked int64
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

// sameErr compares a returned error with a predicted one: both nil, or both
// set and wrapping the same sentinels.
func sameErr(got, want error) bool {
	if (got == nil) != (want == nil) {
		return false
	}
	for _, s := range []error{ErrStale, ErrNotReconfigurable, ErrNoStats, ErrNoSnapshot,
		ErrWrongShard, errControlPanicked} {
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
	cfg := Config{Shards: m.shards, Clock: m.clock}
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
	if err != nil || h != a.handle() {
		m.fail("Add(%s) = %+v, %v; want %+v", a.id, h, err, a.handle())
	}
	a.quarantine, a.emits, a.audit, a.clean = false, 0, nil, false
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

func (a *modelAgg) handle() Handle { return Handle{ref: a.ref} }

// fresh builds a spec's enforcer with a's rate changes replayed at now.
func (a *modelAgg) fresh(now time.Duration) enforcer.Enforcer {
	enf := a.spec.build()
	for _, rate := range a.rates {
		enf.(enforcer.Reconfigurer).SetRate(now, rate)
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

// handle picks a handle: the live one of aggregate a%modelIDs, or, when
// that id is vacant or a ≥ 0xf0, a stale (index b) or a bogus one.
func (m *modelEngine) handle(a, b byte) Handle {
	if ag := m.aggs[int(a)%modelIDs]; a < 0xf0 && ag != nil {
		return ag.handle()
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

func ownStats(enf enforcer.Enforcer) (enforcer.Stats, error) {
	if sr, ok := enf.(enforcer.StatsReader); ok {
		return sr.EnforcerStats(), nil
	}
	return enforcer.Stats{}, ErrNoStats
}

// nodeRows predicts NodeMetrics' per-node counters, keyed by node index: a
// tree's every node, a flat enforcer's stats as node 0, nothing for an
// enforcer without stats.
func nodeRows(enf enforcer.Enforcer) map[string]enforcer.Stats {
	rows := map[string]enforcer.Stats{}
	if tr, ok := enf.(enforcer.TreeEnforcer); ok {
		for n := 0; n < tr.NumNodes(); n++ {
			rows[fmt.Sprint(n)], _ = tr.NodeStats(enforcer.NodeID(n))
		}
	} else if st, err := ownStats(enf); err == nil {
		rows["0"] = st
	}
	return rows
}

// exportedRows reads the per-node counters back out of a NodeMetrics
// snapshot, keyed by the node label.
func exportedRows(snap obs.Snapshot) map[string]enforcer.Stats {
	rows := map[string]enforcer.Stats{}
	for _, f := range snap.Families {
		for _, sm := range f.Samples {
			var node string
			for _, l := range sm.Labels {
				if l.Name == "node" {
					node = l.Value
				}
			}
			if node == "" {
				continue
			}
			st := rows[node]
			switch v := int64(sm.Value); f.Name {
			case "bcpqp_node_accepted_packets_total":
				st.AcceptedPackets = v
			case "bcpqp_node_accepted_bytes_total":
				st.AcceptedBytes = v
			case "bcpqp_node_dropped_packets_total":
				st.DroppedPackets = v
			case "bcpqp_node_dropped_bytes_total":
				st.DroppedBytes = v
			}
			rows[node] = st
		}
	}
	return rows
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

// serve is one burst the engine serves for a: it returns the CE marks the
// engine leaves in the caller's slice.
func (m *modelEngine) serve(a *modelAgg, pkts []packet.Packet, inline bool) []bool {
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
	if !m.enforce(a, pkts, v) {
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
				Agg: int64(a.ref), A: accPkts, B: n - accPkts, C: bytes}
		}
		sh.runs++
	}
	if a.audit != nil {
		a.audit.Observe(m.clock(), accBytes)
	}
	m.degrade(a, rest)
	return marks
}

// enforce runs the twin; false means it panicked.
func (m *modelEngine) enforce(a *modelAgg, pkts []packet.Packet, v []enforcer.Verdict) (ok bool) {
	defer func() { _ = recover() }()
	a.twin.SubmitBatch(m.now, pkts, v)
	return true
}

// envelope is what an audit arms with: honest, the ceiling's current rate
// and its B (unbounded where no ceiling is); tight, a quarter of that rate
// and one packet.
func (a *modelAgg) envelope(tight bool) (units.Rate, int64) {
	c, ok := modelCeilings[a.spec.kind]
	if !ok {
		c = ceiling{unbounded, 1 << 50}
	}
	if n := len(a.rates); n > 0 {
		c.rate = a.rates[n-1]
	}
	if tight {
		return c.rate / 4, units.MSS
	}
	return c.rate, c.burst
}

// arm predicts ArmAudit.
func (m *modelEngine) arm(a *modelAgg, rate units.Rate, burst int64, honest bool) {
	a.audit = obs.NewAudit(m.clock(), int64(rate), burst, 0)
	a.clean = honest && a.spec.fault != fOverAdmit
}

// rateChanged predicts a successful SetRate's rebase of the envelope.
func (m *modelEngine) rateChanged(a *modelAgg, rate units.Rate) {
	a.rates = append(a.rates, rate)
	if a.audit != nil {
		a.audit.Rebase(m.clock(), int64(rate))
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
	m.op = fmt.Sprintf("op %d %d %d %d", code, a, b, c)
	switch code % numOps {
	case opAdd:
		spec := aggSpec{kind: b & 7, fault: b & (3 << 3), emitPanic: int(b >> 5),
			hook: c&hook != 0, pin: c&pin != 0, shard: int(c>>2) % (m.shards + 1)}
		na := &modelAgg{id: name, spec: spec}
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
		m.stale = append(m.stale, ag.handle())
		slot := ag.ref.slot()
		m.slots[slot], m.free, m.aggs[id] = nil, append(m.free, slot), nil
	case opLookup:
		h, err := m.e.Lookup(name)
		if ag == nil {
			m.expect("Lookup", err, errAny)
		} else if err != nil || h != ag.handle() {
			m.fail("Lookup(%s) = %+v, %v; want %+v", name, h, err, ag.handle())
		}
	case opSubmit:
		m.submit(m.handle(a, b), int(c&63), c>>6)
	case opSetRate, opSetRate2, opApplyShare:
		rate := units.Rate(c) * 64 * units.Kbps
		if rate == 0 {
			rate = -units.Mbps
		}
		var err error
		if code%numOps == opApplyShare {
			err = m.e.ApplyShare(name, rate, b&1 != 0)
		} else {
			err = m.e.SetRate(name, rate)
		}
		m.setRate(ag, err, rate)
	case opArmAudit, opArmAudit2:
		mode := b
		if code%numOps == opArmAudit2 {
			mode = c
		}
		rate, burst := unbounded, int64(1<<50)
		if ag != nil {
			rate, burst = ag.envelope(mode&1 != 0)
		}
		if mode&0x80 != 0 {
			burst = -1
		}
		err := m.e.ArmAudit(name, rate, burst)
		if burst < 0 || ag == nil {
			m.expect("ArmAudit", err, errAny)
			return
		}
		m.control(ag)
		m.expect("ArmAudit", err, nil)
		m.arm(ag, rate, burst, mode&1 == 0)
	case opFlush, opFlush2:
		m.flush(ag, name, b&1 != 0)
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
	marks := m.serve(a, twin, mode >= 2)
	for i := range pkts {
		if pkts[i].CE != marks[i] {
			m.fail("packet %d of the burst left with CE %v, want %v", i, pkts[i].CE, marks[i])
		}
	}
}

// setRate checks one SetRate/ApplyShare error against the twin's and, on
// success, applies the model's side effects.
func (m *modelEngine) setRate(a *modelAgg, err error, rate units.Rate) {
	if a == nil {
		m.expect("SetRate", err, errAny)
		return
	}
	m.control(a)
	werr := error(ErrNotReconfigurable)
	if r, ok := a.twin.(enforcer.Reconfigurer); ok {
		werr = r.SetRate(m.now, rate)
	}
	if m.expect("SetRate", err, werr); werr == nil {
		m.rateChanged(a, rate)
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
		if err := m.e.SubmitBatch(a.handle(), m.packets(1)); err == nil {
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
			_, err = m.e.NodeMetrics(id)
			m.expect("NodeMetrics", err, errAny)
			continue
		}
		live++
		if err != nil || h != a.handle() {
			m.fail("Lookup(%s) = %+v, %v; want %+v", id, h, err, a.handle())
		}
		m.control(a)
		st, err := m.e.Stats(id)
		want, werr := ownStats(a.twin)
		if m.expect("Stats", err, werr); st != want {
			m.fail("Stats(%s) = %+v, want %+v", id, st, want)
		}
		m.control(a)
		snap, err := m.e.NodeMetrics(id)
		if got, want := exportedRows(snap), nodeRows(a.twin); err != nil || !reflect.DeepEqual(got, want) {
			m.fail("NodeMetrics(%s) = %v, %v; want %v", id, got, err, want)
		}
		f, err := faults(m.e, id)
		if want := (faultRecord{a.panics, a.quarantine, a.degraded}); err != nil || f != want {
			m.fail("fault record of %s = %+v, %v; want %+v", id, f, err, want)
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

// checkHealth compares Health with the model. A shard that recovered a panic
// less than degradedFor ago may read Degraded or, on a fault stamp the coarse
// wall clock left old, Healthy; every other shard reads Healthy.
func (m *modelEngine) checkHealth() {
	now := time.Now().UnixNano()
	h := m.e.Health()
	want := Health{Panics: m.panics, DegradedDrops: m.degraded, BadVerdicts: m.bad}
	for _, a := range m.slots {
		if a != nil && a.quarantine {
			want.Quarantined = append(want.Quarantined, a.id)
		}
	}
	for i := range m.sh {
		s := &m.sh[i]
		if s.checked != s.panics {
			s.checked, s.faultSeen = s.panics, now
		}
		state := ShardHealthy
		if s.panics > 0 && time.Duration(now-s.faultSeen) < degradedFor && h.Shards[i].State == ShardDegraded {
			state = ShardDegraded
		}
		h.Shards[i].HeartbeatAge = 0
		want.Shards = append(want.Shards, ShardHealth{Shard: i, State: state, QueueCap: 1024,
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
		ent := AuditEntry{Aggregate: a.id, Counters: a.audit.Snapshot(),
			Slack: a.audit.SlackDigest(), RateErr: a.audit.RateErrDigest()}
		if a.clean && ent.Counters.Violations != 0 {
			m.fail("%s: an honest envelope over a conformant enforcer saw %+v", a.id, ent.Counters)
		}
		want = append(want, ent)
	}
	got := m.e.AuditReport()
	if !slices.EqualFunc(got, want, func(g, w AuditEntry) bool {
		return g.Aggregate == w.Aggregate && g.Counters == w.Counters &&
			sameDigest(g.Slack, w.Slack) && sameDigest(g.RateErr, w.RateErr)
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

// Script helpers.
func op(code int, a, b, c byte) []byte  { return []byte{byte(code), a, b, c} }
func add(id, spec, flags byte) []byte   { return op(opAdd, id, spec, flags) }
func submit(id, h, n byte) []byte       { return op(opSubmit, id, h, n) }
func local(id, h, n byte) []byte        { return op(opSubmit, id, h, n|2<<6) }
func setRate(id, c byte) []byte         { return op(opSetRate, id, 0, c) }
func arm(id, mode byte) []byte          { return op(opArmAudit, id, mode, 0) }
func onShard(s byte) byte               { return pin | s<<2 }
func times(n int, ops ...[]byte) []byte { return bytes.Repeat(slices.Concat(ops...), n) }
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
	// NoHandle and an out-of-range handle on both ingresses, and Lookup of
	// the removed id.
	"AddRemove": script(oneShard, add(0, kTBF, 0), add(0, kTBF, 0), add(1, kNil, 0), submit(0, 0, 1),
		op(opRemove, 0, 0, 0), op(opRemove, 0, 0, 0), submit(0, 0, 1), local(0, 0, 1),
		submit(0xf1, 0, 1), submit(0xf1, 1, 1), op(opLookup, 0, 0, 0)),
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
	// ErrNotReconfigurable, an unknown id, a negative rate, and a rate
	// change that takes.
	"UpdateErrors": script(oneShard, add(0, kMute, 0), add(1, kTBF, 0),
		setRate(0, 125), setRate(5, 125), setRate(1, 0), setRate(1, 125)),
	// A saturated bucket re-rated in-band next to a panicking neighbour: the
	// rebased honest envelope stays clean, and the twin re-rated in place
	// agrees packet for packet.
	"ChaosRateChangePiecewiseTBF": script(oneShard, add(0, kTBF, hook), add(1, kTBF|fPanic, hook),
		op(opArmAudit, 0, 0, 0), times(30, ms1, submit(0, 0, 32), submit(1, 0, 4)),
		setRate(0, 31), times(30, ms1, submit(0, 0, 32), submit(1, 0, 4))),
	"ChaosRateChangePreservesPhantomOccupancy": script(oneShard, add(0, kBCPQP, hook), op(opArmAudit, 0, 0, 0),
		times(40, ms1, submit(0, 0, 32)), setRate(0, 31), times(60, ms1, submit(0, 0, 32))),
	// Every snapshottable kind restarts seconds into the run, then a snapshot
	// of everything, a restore across kinds, into a vacant id and in place.
	"SnapshotRestoreReplayByteIdentical": script(observed, add(0, kBCPQP, hook), add(1, kTBF, hook),
		add(2, kFair, hook), add(3, kRED, hook), add(4, kTree, hook),
		times(19, ms1, submit(0, 0, 24), submit(1, 0, 24), submit(2, 0, 24), submit(3, 0, 24), submit(4, 1, 8)),
		long, op(opRestart, 0, 0, 0),
		times(19, ms1, submit(0, 0, 24), submit(1, 0, 24), submit(2, 0, 24), submit(3, 0, 24), submit(4, 1, 8)),
		op(opSnapshot, 0x80, 0, 0), op(opRestore, 0, 1, 0), op(opRestore, 0, 5, 0), op(opRestore, 1, 1, 0)),
	"SnapshotErrNoSnapshot": script(oneShard, add(0, kMute, 0), add(1, kTBF|fPanic, 0), op(opSnapshot, 0, 0, 0),
		op(opSnapshot, 1, 0, 0), op(opRestore, 2, 0, 0), op(opSnapshot, 0x80, 0, 0), op(opRestart, 0, 0, 0),
		submit(0, 0, 4)),
	"TreeSnapshotThroughEngine": script(oneShard, add(0, kTree, hook),
		times(30, ms1, submit(0, 0, 6), submit(0, 0, 6), submit(0, 0, 4)), long, op(opRestart, 0, 0, 0),
		times(30, ms1, submit(0, 0, 6), submit(0, 0, 6), submit(0, 0, 4))),
	// Ring and inline bursts interleaved on one shard, into a flat aggregate
	// and a tree routing them to its leaves.
	"LocalSubmitEquivalentToRing": script(twoShards, add(0, kTBF, hook|onShard(1)), add(1, kTree, hook|onShard(1)),
		times(40, ms1, submit(0, 0, 9), local(0, 0, 9), submit(1, 0, 7), local(1, 0, 7), local(1, 0, 5))),
	// A LocalSubmitter on the wrong shard, on an out-of-range one, and
	// AddPinned out of range.
	"LocalSubmitWrongShard": script(twoShards, add(0, kTBF, onShard(0)), add(1, kTBF, onShard(1)),
		add(2, kTBF, onShard(2)), op(opSubmit, 0, 0, 4|3<<6), op(opSubmit, 1, 0, 4|3<<6), local(0, 0, 4)),
	"LocalSubmitStaleHandle": script(oneShard, add(0, kTBF, 0), op(opRemove, 0, 0, 0), local(0, 0, 4)),
	// A tree and a flat aggregate are addressed alike: Lookup gives Add's
	// handle, SetRate takes the id (a tree's root ceiling, and one wrapped
	// in a fault injector that forwards no reconfiguration), and Remove and
	// re-Add revive no handle on either ingress.
	"AddTreeAndLeafResolution": script(oneShard, add(0, kTree, 0), op(opLookup, 0, 0, 0), add(1, kTBF, 0),
		op(opLookup, 1, 0, 0), add(2, kTree|fPanic, 0), setRate(0, 125), setRate(1, 125), setRate(2, 125),
		op(opRemove, 0, 0, 0), add(0, kTree, 0), op(opLookup, 0, 0, 0),
		submit(0xf0, 0, 1), submit(0xf0, 1, 1), local(0xf0, 1, 1), local(0xf0, 2, 1), submit(0, 0, 1)),
	// A tree fed through Engine.SubmitBatch and through a LocalSubmitter
	// routes each packet to its leaf exactly as its twin's own SubmitBatch
	// does at the same clock: verdicts, emits, Stats and every node's
	// counters agree.
	"LeafSubmissionRoutesToNodes": script(twoShards, add(0, kTree, hook|onShard(1)),
		times(50, op(opClock, 49, 0, 0), submit(0, 0, 8), local(0, 0, 1), submit(0, 0, 3), local(0, 0, 9))),
	// SetRate on a tree retargets its root ceiling in-band, below every leaf
	// ceiling, and rebases the honest envelope armed at the old rate.
	"SetRateAtNodeInBand": script(oneShard, add(0, kTree, hook), op(opArmAudit, 0, 0, 0),
		times(20, ms1, submit(0, 0, 16)), setRate(0, 31), times(100, ms1, submit(0, 0, 16))),
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
		times(5, times(10, op(opClock, 199, 0, 0), submit(0, 0, 48)), setRate(0, 31),
			times(10, op(opClock, 199, 0, 0), submit(0, 0, 48)), setRate(0, 250))),
	"RateChangeRebasesEveryEnvelope/flat/SetRate": script(oneShard, add(0, kTBF, 0), op(opArmAudit, 0, 0, 0),
		setRate(0, 160), times(100, ms1, submit(0, 0, 7))),
	"RateChangeRebasesEveryEnvelope/flat/ApplyShare": script(oneShard, add(0, kTBF, 0), op(opArmAudit, 0, 0, 0),
		op(opApplyShare, 0, 0, 160), times(100, ms1, submit(0, 0, 7))),
	"RateChangeRebasesEveryEnvelope/tree/root/SetRate": script(oneShard, add(0, kTree, 0),
		op(opArmAudit, 0, 0, 0), setRate(0, 250), times(80, ms1, submit(0, 0, 6), submit(0, 0, 3))),
	"RateChangeRebasesEveryEnvelope/tree/root/ApplyShare": script(oneShard, add(0, kTree, 0),
		op(opArmAudit, 0, 0, 0), op(opApplyShare, 0, 1, 250), times(80, ms1, submit(0, 0, 6), submit(0, 0, 3))),
	// The root re-rated below every leaf ceiling, so that the root binds
	// where the leaves did.
	"RateChangeRebasesEveryEnvelope/tree/leaf/SetRate": script(oneShard, add(0, kTree, 0),
		op(opArmAudit, 0, 0, 0), setRate(0, 30), times(80, ms1, submit(0, 0, 6), submit(0, 0, 3))),
	// A tight envelope on one tree breaches while the honest one on its twin
	// stays clean.
	"AuditTreeRollup": script(oneShard, add(0, kTree, 0), add(1, kTree, 0), arm(0, 1), arm(1, 0),
		times(60, ms1, submit(0, 0, 6), submit(1, 0, 6))),
	// A tree's envelope is credited by every burst the tree routes, through
	// the ring and inline alike.
	"NodeAuditCreditedAtOrBelowIngress": script(twoShards, add(0, kTree, onShard(0)), arm(0, 0),
		times(40, ms1, submit(0, 0, 6), local(0, 0, 6), submit(0, 0, 1))),
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
		add(3, kFair|fCorrupt, hook), add(4, kCycle, hook),
		op(opArmAudit, 0, 0, 0), arm(1, 1),
		times(8, ms1, submit(0, 0, 20), local(0, 0, 12), submit(1, 0, 9), local(1, 0, 5), submit(2, 0, 16),
			submit(3, 0, 8), submit(4, 0, 5)),
		setRate(0, 2), setRate(3, 2), setRate(1, 60),
		op(opApplyShare, 0, 1, 90), op(opClock, 50, 3, 1), op(opSnapshot, 0x80, 0, 0), long,
		op(opRestart, 0, 0, 0), op(opArmAudit, 1, 0, 0), op(opRestore, 0, 2, 0),
		times(8, ms1, submit(0, 0, 20), submit(1, 0, 9), submit(2, 0, 16), submit(3, 0, 8)),
		op(opRemove, 4, 0, 0), add(4, kTree|fPanic, 0), submit(4, 0, 8), op(opFlush, 2, 0, 0),
		op(opClose, 0, 0, 0)),
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

// TestLeafSubmissionRoutesToNodes also demands both ingresses, and traffic
// at more than one leaf.
func TestLeafSubmissionRoutesToNodes(t *testing.T) {
	m := runModel(t, modelScenarios["LeafSubmissionRoutesToNodes"])
	tr, busy := m.aggs[0].twin.(*ptree.Tree), 0
	for _, leaf := range tr.Leaves() {
		if st, _ := tr.NodeStats(leaf); st.AcceptedPackets > 0 {
			busy++
		}
	}
	if m.inline == 0 || m.sh[1].claimed == 0 || busy < 2 {
		t.Fatalf("%d inline and %d ring bursts, %d leaves admitting: want both ingresses and several leaves",
			m.inline, m.sh[1].claimed, busy)
	}
}

// TestSetRateAtNodeInBand also holds the envelope to the new rate: the root
// ceiling it rebased to admitted traffic under it, with no violation (an
// honest envelope is checked clean after every op).
func TestSetRateAtNodeInBand(t *testing.T) {
	m := runModel(t, modelScenarios["SetRateAtNodeInBand"])
	if c := m.aggs[0].audit.Snapshot(); c.RateBps != int64(31*64*units.Kbps) || c.AcceptedBytes == 0 {
		t.Fatalf("envelope %+v: want it rebased to %d b/s and crediting traffic", c, int64(31*64*units.Kbps))
	}
}

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

// TestNodeAuditCreditedAtOrBelowIngress also demands that the envelope,
// armed before any traffic, credited every byte the tree accepted.
func TestNodeAuditCreditedAtOrBelowIngress(t *testing.T) {
	m := runModel(t, modelScenarios["NodeAuditCreditedAtOrBelowIngress"])
	a := m.aggs[0]
	if got, want := a.audit.Snapshot().AcceptedBytes, a.twin.(*ptree.Tree).EnforcerStats().AcceptedBytes; got != want || got == 0 {
		t.Fatalf("envelope credited %d bytes, the tree accepted %d", got, want)
	}
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
	if m := runModel(t, modelScenarios["AuditInjectedOverAdmissionExact"]); m.aggs[0].audit.Snapshot().Violations == 0 {
		t.Fatal("over-admission produced no violation")
	}
}

func TestRateChangeRebasesEveryEnvelope(t *testing.T) {
	for _, name := range []string{"flat/SetRate", "flat/ApplyShare", "tree/root/SetRate", "tree/root/ApplyShare", "tree/leaf/SetRate"} {
		t.Run(name, func(t *testing.T) { runModel(t, modelScenarios["RateChangeRebasesEveryEnvelope/"+name]) })
	}
}

func TestAuditTreeRollup(t *testing.T) {
	if m := runModel(t, modelScenarios["AuditTreeRollup"]); m.aggs[0].audit.Snapshot().Violations == 0 {
		t.Fatal("the tight tree envelope saw no violation")
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
