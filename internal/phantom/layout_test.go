package phantom

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// TestQueueLayout pins the shape the package doc promises: a queue is two
// cache lines, and everything an accept, a drop or a drain touches is in the
// first.
func TestQueueLayout(t *testing.T) {
	var q queue
	if got := unsafe.Sizeof(q); got != 128 {
		t.Fatalf("queue is %d bytes, want 128", got)
	}
	if got := unsafe.Offsetof(q.tail) + unsafe.Sizeof(q.tail); got > 64 || unsafe.Offsetof(q.open) >= 64 {
		t.Fatalf("hot fields end at byte %d, want within the first 64", got)
	}
	if got := unsafe.Offsetof(q.ring); got != 64 {
		t.Fatalf("FIFO starts at byte %d, want 64", got)
	}
	if ringCap&(ringCap-1) != 0 {
		t.Fatalf("ringCap %d is not a power of two", ringCap)
	}
	// 288 B is a malloc size class; a byte more and every subscriber (and
	// every relay-table entry) pays for 320.
	if got := unsafe.Sizeof(PQP{}); got > 288 {
		t.Fatalf("PQP is %d bytes, want ≤ 288", got)
	}
}

// diffPolicies are the rate-sharing policies the differential cycles
// through; each call builds a fresh tree, since policies carry scratch.
var diffPolicies = []func() *sched.Policy{
	func() *sched.Policy { return nil },
	func() *sched.Policy { return sched.WeightedFair(1, 2, 3, 0.5) },
	func() *sched.Policy { return sched.StrictPriority(4) },
	func() *sched.Policy {
		return sched.MustNew(sched.Priority(
			sched.Weighted(sched.Leaf(0).WithWeight(2), sched.Leaf(1)),
			sched.Weighted(sched.Leaf(2), sched.Leaf(3))))
	},
	func() *sched.Policy { return sched.Fair(4) },
}

// layoutDiff drives the flat layout and the reference side by side.
type layoutDiff struct {
	t        *testing.T
	cfg      Config // as given to New; Policy is set per construction
	policies []func() *sched.Policy
	policy   int // index into policies
	rate     units.Rate
	p        *PQP
	ref      *refPQP
	now      time.Duration
	hook     func(Event) // attached to p and to every twin a round trip builds

	// batched sends arrivals through SubmitBatch: a packet with no gap
	// joins the burst the previous one started, and anything else — a gap,
	// a tick, a reconfiguration — submits what is pending first. hashed
	// leaves every packet's class to its flow key. lazy checks after each
	// step only what a queue's first line holds and leaves the runs and the
	// magic total, which cannot be read without bringing the FIFO up to
	// date, to a snapshot round trip, the end of the run and wherever the
	// test calls fifo: in between, the only syncs are the enforcer's own.
	batched, hashed, lazy bool
	pending               []packet.Packet
	verdicts              []enforcer.Verdict
}

func newLayoutDiff(t *testing.T, cfg Config, policy int, policies ...func() *sched.Policy) *layoutDiff {
	if policies == nil {
		policies = diffPolicies
	}
	d := &layoutDiff{t: t, cfg: cfg, policies: policies, policy: policy % len(policies), rate: cfg.Rate}
	d.p = d.build()
	d.ref = newRef(d.p, policies[d.policy]())
	return d
}

// build makes a fresh PQP under the current rate and policy.
func (d *layoutDiff) build() *PQP {
	cfg := d.cfg
	cfg.Rate = d.rate
	cfg.Policy = d.policies[d.policy]()
	p := MustNew(cfg)
	p.SetOnEvent(d.hook)
	return p
}

// watch attaches hook to the enforcer under test, now and after every round
// trip.
func (d *layoutDiff) watch(hook func(Event)) {
	d.hook = hook
	d.p.SetOnEvent(hook)
}

func (d *layoutDiff) submit(gap time.Duration, class, size int, ect bool) {
	pkt := packet.Packet{Key: packet.FlowKey{SrcPort: uint16(class)}, Class: class, Size: size, ECT: ect}
	if d.hashed {
		pkt.Class = packet.NoClass
	}
	if d.batched {
		if gap > 0 {
			d.flush()
		}
		d.now += gap
		d.pending = append(d.pending, pkt)
		return
	}
	d.now += gap
	if got, want := d.p.Submit(d.now, pkt), d.ref.Submit(d.now, pkt); got != want {
		d.t.Fatalf("t=%v class %d size %d: verdict %v, reference %v", d.now, class, size, got, want)
	}
	d.compare("submit")
}

// burst submits pkts as one SubmitBatch call, gap after whatever came last.
func (d *layoutDiff) burst(gap time.Duration, pkts ...packet.Packet) {
	d.flush()
	d.now += gap
	d.pending = append(d.pending, pkts...)
	d.flush()
}

// flush hands the pending burst to SubmitBatch, and to the reference packet
// by packet.
func (d *layoutDiff) flush() {
	if len(d.pending) == 0 {
		return
	}
	d.t.Helper()
	if cap(d.verdicts) < len(d.pending) {
		d.verdicts = make([]enforcer.Verdict, len(d.pending))
	}
	v := d.verdicts[:len(d.pending)]
	d.p.SubmitBatch(d.now, d.pending, v)
	for i, pkt := range d.pending {
		if want := d.ref.Submit(d.now, pkt); v[i] != want {
			d.t.Fatalf("t=%v burst packet %d of %d (class %d size %d): verdict %v, reference %v",
				d.now, i, len(d.pending), pkt.Class, pkt.Size, v[i], want)
		}
	}
	d.pending = d.pending[:0]
	d.compare("burst")
}

func (d *layoutDiff) tick(gap time.Duration) {
	d.flush()
	d.now += gap
	d.p.Tick(d.now)
	d.ref.Tick(d.now)
	d.compare("tick")
}

func (d *layoutDiff) setRate(rate units.Rate) {
	d.flush()
	d.rate = rate
	if err := d.p.SetRate(d.now, rate); err != nil {
		d.t.Fatal(err)
	}
	d.ref.SetRate(d.now, rate)
	d.compare("set-rate")
}

func (d *layoutDiff) nextPolicy() {
	d.flush()
	d.policy = (d.policy + 1) % len(d.policies)
	if err := d.p.SetPolicy(d.now, d.policies[d.policy]()); err != nil {
		d.t.Fatal(err)
	}
	d.ref.SetPolicy(d.now, d.policies[d.policy]())
	d.compare("set-policy")
}

// roundTrip replaces the flat-layout enforcer with a twin restored from its
// snapshot; the reference carries on untouched.
func (d *layoutDiff) roundTrip() {
	d.flush()
	blob, err := d.p.SnapshotState(d.now)
	if err != nil {
		d.t.Fatal(err)
	}
	twin := d.build()
	if err := twin.RestoreState(d.now, blob); err != nil {
		d.t.Fatalf("t=%v: twin rejected snapshot: %v", d.now, err)
	}
	again, err := twin.SnapshotState(d.now)
	if err != nil {
		d.t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		d.t.Fatalf("t=%v: snapshot changed across a restore", d.now)
	}
	d.p = twin
	d.compare("restore")
	d.fifo("restore")
}

// compare checks everything observable after a step; the FIFOs too unless
// the run is lazy.
func (d *layoutDiff) compare(after string) {
	d.t.Helper()
	if got, want := d.p.EnforcerStats(), d.ref.stats; got != want {
		d.t.Fatalf("t=%v after %s: stats %+v, reference %+v", d.now, after, got, want)
	}
	for c := range d.ref.queues {
		q, r := &d.p.queues[c], &d.ref.queues[c]
		if q.length != r.length {
			d.t.Fatalf("t=%v after %s: class %d length %d, reference %d", d.now, after, c, q.length, r.length)
		}
		ap, ab, dp, db := d.p.ClassStats(c)
		if ap != r.acceptedPackets || ab != r.acceptedBytes || dp != r.droppedPackets || db != r.droppedBytes {
			d.t.Fatalf("t=%v after %s: class %d stats differ from reference", d.now, after, c)
		}
		if q.open != r.windowOpen || q.accepted != r.accepted || (q.open && q.windowStart != r.windowStart) {
			d.t.Fatalf("t=%v after %s: class %d window differs from reference", d.now, after, c)
		}
		if d.p.isOccupied(c) != (r.length > 0) {
			d.t.Fatalf("t=%v after %s: class %d occupied bit %v at length %d", d.now, after, c, d.p.isOccupied(c), r.length)
		}
	}
	if !d.lazy {
		d.fifo(after)
	}
}

// fifo brings every FIFO up to date and checks it, run by run and in its
// magic total, against the reference's.
func (d *layoutDiff) fifo(after string) {
	d.t.Helper()
	for c := range d.ref.queues {
		q, r := &d.p.queues[c], &d.ref.queues[c]
		if got := d.p.MagicBytes(c); got != r.magic {
			d.t.Fatalf("t=%v after %s: class %d holds %d magic bytes, reference %d", d.now, after, c, got, r.magic)
		}
		// The reference keeps the zero-byte run a zero-size accept leaves in
		// an empty queue or behind a magic tail; the FIFO never holds one,
		// so the runs are compared without them.
		var live []refSegment
		for _, s := range r.segs[r.head:] {
			if s.bytes != 0 {
				live = append(live, s)
			}
		}
		if n := d.p.numRuns(c); n != len(live) {
			d.t.Fatalf("t=%v after %s: class %d has %d runs, reference %d", d.now, after, c, n, len(live))
		}
		if q.spilled != (d.p.spills != nil && d.p.spills[c] != nil) {
			d.t.Fatalf("t=%v after %s: class %d spilled flag %v disagrees with the spill table", d.now, after, c, q.spilled)
		}
		for i, s := range live {
			want := s.bytes
			if s.magic {
				want = -want
			}
			if got := d.p.run(c, i); got != want {
				d.t.Fatalf("t=%v after %s: class %d run %d is %d, reference %d", d.now, after, c, i, got, want)
			}
		}
	}
}

// Flag bits of the fuzzers' flag byte that diffConfig does not read: how the
// arrivals are delivered, not what enforces them.
const (
	flagBatched = 16 // through SubmitBatch, gap-less packets sharing a burst
	flagHashed  = 32 // classified by flow key
	flagLazy    = 64 // FIFOs checked at round trips and at the end only
)

// diffConfig decodes the fuzzers' flag byte. The differential was written
// for a 10 ms window at 4 Mbps; it runs at a tenth of that rate, and every
// clock step in it is ten times as long, so at T = 100 ms r·T and the drain
// between two arrivals are the bytes they were.
func diffConfig(flags byte) Config {
	cfg := Config{
		Rate:         400 * units.Kbps,
		Queues:       4,
		QueueSize:    40 * units.MSS,
		BurstControl: flags&1 == 0,
	}
	if flags&2 != 0 {
		// Runs of 2 GiB and more do not fit a ring slot.
		cfg.QueueSize = 3 << 30
	}
	if flags&4 != 0 {
		cfg.RED = &REDConfig{MinBytes: 10 * units.MSS, MaxBytes: 35 * units.MSS, Seed: 7, MarkECN: flags&8 != 0}
	}
	return cfg
}

// run interprets ops as (gap, op, arg) triples.
func (d *layoutDiff) run(ops []byte) {
	for i := 0; i+2 < len(ops); i += 3 {
		gap := time.Duration(ops[i]) * 370 * time.Microsecond
		op, arg := ops[i+1], ops[i+2]
		switch op % 16 {
		case 15:
			d.tick(gap + time.Duration(arg)*10*time.Millisecond)
		case 14:
			d.setRate(units.Rate(1+int(arg)%32) * 100 * units.Kbps)
		case 13:
			d.nextPolicy()
		case 12:
			d.roundTrip()
		case 11:
			d.submit(gap, int(arg)%4, 0, false)
		default:
			d.submit(gap, int(op)%4, 40+int(arg)*8, arg&1 != 0)
		}
	}
	d.flush()
	d.fifo("the last op")
}

// FuzzLayoutEquivalence is the flat layout's differential: arbitrary
// arrivals, ticks, rate and policy changes and snapshot round trips, with
// RED, ECN marking, burst control and huge queues switched by the input,
// must leave the flat layout and the segment-deque reference agreeing on
// every verdict, counter, window and FIFO run.
func FuzzLayoutEquivalence(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 200, 3, 12, 0})
	f.Add(byte(1), byte(4), []byte{0, 0, 255, 0, 1, 255, 200, 14, 9, 0, 13, 0, 90, 2, 255})
	f.Add(byte(3), byte(12), []byte{7, 0, 7, 0, 7, 0, 200, 15, 200, 1, 12, 1, 3, 3, 3})
	f.Add(byte(0), byte(0), []byte{1, 0, 100, 1, 11, 0, 255, 15, 9, 0, 11, 0, 0, 11, 1, 3, 0, 50, 0, 11, 0})
	f.Add(byte(0), byte(2), alternation(40))
	f.Add(byte(1), byte(0), alternation(40))
	// The same through SubmitBatch: a seventeenth run and a 3 GiB one reach
	// the ring's fast paths and must be handed to the spill path.
	f.Add(byte(0), byte(flagBatched), alternation(40))
	f.Add(byte(1), byte(flagBatched|2), alternation(40))
	// A burst that carries class 0 four times across a window boundary,
	// twice: the first roll restarts the flood's window, the second finds
	// it quiet and reclaims the magic, and neither may happen again within
	// its burst.
	f.Add(byte(0), byte(flagBatched), append(alternation(0),
		255, 1, 182, 255, 0, 182, 0, 0, 182, 0, 0, 182, 0, 2, 182, 0, 0, 182,
		255, 1, 182, 255, 0, 182, 0, 0, 182, 0, 3, 182, 0, 0, 182, 0, 0, 182))
	// Unequal weights, a short queue and three long ones: pass 1 of the
	// drain empties the short one and the budget changes under the others.
	f.Add(byte(1), byte(flagBatched|1), []byte{
		0, 0, 0, 0, 1, 182, 0, 1, 182, 0, 2, 182, 0, 2, 182, 0, 3, 182, 0, 3, 182,
		27, 15, 0, 0, 0, 0, 0, 1, 182, 27, 15, 1})
	// Rate, policy and snapshot round trips between bursts: r_i* is
	// memoised per occupied set and must not outlive any of them.
	f.Add(byte(0), byte(flagBatched), []byte{
		1, 0, 182, 0, 0, 182, 0, 1, 182, 0, 14, 31, 9, 0, 182, 0, 0, 182, 0, 0, 182, 0, 0, 182, 0, 0, 182, 0, 0, 182,
		0, 13, 0, 9, 1, 182, 0, 1, 182, 0, 1, 182, 0, 12, 0, 9, 2, 182, 0, 2, 182, 0, 14, 0, 9, 2, 182, 0, 2, 182})
	// Zero-size and hash-classified packets inside bursts.
	f.Add(byte(0), byte(flagBatched|flagHashed), []byte{
		1, 11, 0, 0, 0, 100, 0, 11, 0, 0, 11, 1, 0, 1, 100, 0, 11, 1, 200, 15, 9, 0, 11, 0, 0, 3, 50})
	// The FIFOs left alone between the enforcer's own syncs: drains pending
	// over stale runs and tails waiting while bursts, ticks, round trips and
	// reconfigurations go by, with 3 GiB queues and through SubmitBatch.
	f.Add(byte(0), byte(flagLazy), alternation(40))
	f.Add(byte(1), byte(flagLazy|flagBatched|2), alternation(40))
	f.Add(byte(0), byte(flagLazy|flagBatched), []byte{
		1, 0, 182, 0, 0, 182, 0, 1, 182, 0, 14, 31, 9, 0, 182, 0, 0, 182, 0, 0, 182, 0, 0, 182, 0, 0, 182, 0, 0, 182,
		0, 13, 0, 9, 1, 182, 0, 1, 182, 0, 1, 182, 0, 12, 0, 9, 2, 182, 0, 2, 182, 0, 14, 0, 9, 2, 182, 0, 2, 182})
	// Empty and refill, a drain that stops inside the magic run, zero-size
	// accepts and a round trip, all with the runs unread until the end.
	f.Add(byte(0), byte(flagLazy), append(alternation(0),
		255, 15, 3, 1, 0, 182, 1, 11, 0, 255, 15, 40, 1, 0, 100, 1, 11, 0, 1, 0, 100, 200, 15, 1, 1, 0, 50, 0, 12, 0, 1, 0, 50))
	f.Add(byte(1), byte(flagLazy|1), []byte{
		1, 0, 182, 1, 1, 182, 255, 15, 100, 1, 0, 100, 1, 0, 100, 100, 15, 1, 1, 0, 100, 1, 1, 100, 0, 12, 0, 255, 15, 100, 1, 1, 7})
	// ECT packets flooding a full queue under RED with ECN marking: a mark
	// must not exempt a packet from drop-tail, one at a time or in a burst.
	f.Add(byte(0), byte(4|8), ectFlood(400))
	f.Add(byte(0), byte(flagBatched|4|8), ectFlood(400))
	f.Fuzz(func(t *testing.T, policy, flags byte, ops []byte) {
		d := newLayoutDiff(t, diffConfig(flags), int(policy))
		d.batched, d.hashed, d.lazy = flags&flagBatched != 0, flags&flagHashed != 0, flags&flagLazy != 0
		d.run(ops)
	})
}

// alternation is an op stream that leaves a real and a magic run behind per
// round: class 0 floods until burst control fills it with magic, then each
// round lets a packet's worth drain and refills the space, all within the
// window whose θ⁺ threshold the flood crossed.
func alternation(rounds int) []byte {
	var ops []byte
	for i := 0; i < 60; i++ {
		ops = append(ops, 1, 0, 182) // MSS-sized
	}
	for r := 0; r < rounds; r++ {
		ops = append(ops, 84, 0, 100) // 31 ms drains 1.5 kB; 840 B refill it
		ops = append(ops, 0, 0, 100)
	}
	return ops
}

// ectFlood is an op stream of n ECT packets of 2080 B for class 0 at one
// instant: the queue fills within the first thirty, and the rest arrive at a
// full queue while RED's slow average climbs into its marking band.
func ectFlood(n int) []byte {
	var ops []byte
	for i := 0; i < n; i++ {
		ops = append(ops, 0, 0, 255)
	}
	return ops
}

// altConfig is diffConfig(0) at 2 Mbps, where r·T is 25 kB: a flood of
// sixty MSS packets crosses θ⁺ at its twenty-sixth and leaves a real run and
// a magic one, and the window holds sixteen of alternate's rounds.
func altConfig() Config {
	cfg := diffConfig(0)
	cfg.Rate = 2 * units.Mbps
	return cfg
}

// alternate does what alternation does for the fuzzers, inside the window of
// an altConfig differential: class 0 floods until burst control fills it
// with magic, then each round a Tick 6 ms on drains 1.5 kB, an 840 B packet
// takes part of the room and magic the rest, and a second one is dropped,
// leaving a real and a magic run behind. The Tick spends the drain budget
// whatever the drain batch; a drain on arrival waits for 6 kB of it.
func alternate(d *layoutDiff, rounds int) {
	for i := 0; i < 60; i++ {
		d.submit(10*time.Microsecond, 0, units.MSS, false)
	}
	for r := 0; r < rounds; r++ {
		d.tick(6 * time.Millisecond)
		d.submit(0, 0, 840, false)
		d.submit(0, 0, 840, false)
	}
}

// TestRingSpillAndReturn drives a queue's FIFO past the inline ring and
// back, checking against the reference at every step and that the heap
// deque is held only while it is needed.
func TestRingSpillAndReturn(t *testing.T) {
	d := newLayoutDiff(t, altConfig(), 0)
	alternate(d, 14)
	q := &d.p.queues[0]
	if !q.spilled || d.p.numRuns(0) <= ringCap {
		t.Fatalf("alternation left %d runs (spilled %v); the test no longer exercises the spill", d.p.numRuns(0), q.spilled)
	}
	// Quiet: the runs drain out, and the FIFO returns to the ring.
	for q.length > 0 {
		d.tick(5 * time.Millisecond)
		if n := d.p.numRuns(0); q.spilled && n <= ringCap/2 {
			t.Fatalf("%d runs still on the heap", n)
		}
	}
	if q.spilled || q.n != 0 || d.p.spills[0] != nil {
		t.Fatalf("empty queue: spilled %v, n %d, deque held %v", q.spilled, q.n, d.p.spills[0] != nil)
	}
	// A run of 2 GiB spills whatever the run count, and reclaiming it
	// brings the FIFO back.
	d = newLayoutDiff(t, diffConfig(2), 0)
	for i := 0; i < 400; i++ {
		d.submit(10*time.Microsecond, 0, units.MSS, false)
	}
	q = &d.p.queues[0]
	if !q.spilled || d.p.MagicBytes(0) < 2<<30 {
		t.Fatalf("no wide magic run: spilled %v, magic %d", q.spilled, d.p.MagicBytes(0))
	}
	d.tick(10 * time.Second) // closes the flood's window
	d.tick(10 * time.Second) // closes a quiet one: reclaim
	if q.spilled || d.p.spills[0] != nil || d.p.MagicBytes(0) != 0 {
		t.Fatalf("after reclaim: spilled %v, magic %d", q.spilled, d.p.MagicBytes(0))
	}
}

// TestBurstShortcuts aims the differential at each thing SubmitBatch and the
// drain skip, hoist or remember, one scenario apiece, and checks that the
// scenario really gets there. Every scenario runs twice: bare, where a burst
// counts its statistics in locals, and with an event hook, where it writes
// them through.
func TestBurstShortcuts(t *testing.T) {
	mss := func(class, n int) []packet.Packet {
		pkts := make([]packet.Packet, n)
		for i := range pkts {
			pkts[i] = packet.Packet{Class: class, Size: units.MSS}
		}
		return pkts
	}
	sized := func(class, size int) packet.Packet { return packet.Packet{Class: class, Size: size} }
	fair := func() *sched.Policy { return nil }

	scenarios := []struct {
		name string
		run  func(t *testing.T, hook func(Event))
	}{
		// No rolled mask: a window is closed by the first packet of the
		// burst that finds it due and by none after it. The flood's window
		// is restarted by a lone packet, stays quiet, and the next burst —
		// class 0 three times — closes it under θ⁻ and reclaims. Closing it
		// again for the second packet would zero the bytes the first added.
		{"one roll per class per burst", func(t *testing.T, hook func(Event)) {
			d := newLayoutDiff(t, diffConfig(0), 0, fair)
			d.watch(hook)
			d.burst(10*time.Microsecond, mss(0, 60)...)
			d.burst(120*time.Millisecond, mss(0, 1)...)
			if d.p.MagicBytes(0) == 0 {
				t.Fatal("the flood left no magic to reclaim")
			}
			d.burst(120*time.Millisecond, mss(0, 3)...)
			q := &d.p.queues[0]
			if d.p.MagicBytes(0) != 0 || !q.open || q.windowStart != d.now || q.accepted != 3*units.MSS {
				t.Fatalf("after the quiet window: magic %d, window open %v at %v holding %d B; want a reclaim and one restart at %v holding three packets",
					d.p.MagicBytes(0), q.open, q.windowStart, q.accepted, d.now)
			}
		}},
		// The drain's allocation memo is keyed on the budget as well as the
		// weight: pass 1 empties queue 0, the budget shrinks, and queue 1 —
		// same weight, a backlog between the old allocation and the new —
		// is measured against the new one, as are the long queues behind it.
		{"budget changes inside a drain pass", func(t *testing.T, hook func(Event)) {
			for _, tc := range []struct {
				weights []float64
				q1      int
			}{{[]float64{1, 1, 1, 1}, 120}, {[]float64{1, 1, 2, 2}, 80}} {
				d := newLayoutDiff(t, diffConfig(1), 0, func() *sched.Policy { return sched.WeightedFair(tc.weights...) })
				d.watch(hook)
				d.burst(10*time.Microsecond, sized(0, 40), sized(1, tc.q1), sized(2, 2*units.MSS), sized(3, 2*units.MSS))
				d.tick(10 * time.Millisecond) // 500 B of budget
				if q := d.p.queues; q[0].length != 0 || q[2].length == 0 || q[2].length == 2*units.MSS {
					t.Fatalf("weights %v: queues 0 and 2 hold %d and %d B; want 0 emptied by pass 1 and 2 part-drained by pass 2",
						tc.weights, q[0].length, q[2].length)
				}
			}
		}},
		// r_i*·T is remembered per occupied set and must not outlive a
		// rate change, a policy change or a restore. At 400 kbps the second
		// burst would cross θ⁺ and fill; at 3.2 Mbps it must not.
		{"share memo across reconfiguration", func(t *testing.T, hook func(Event)) {
			d := newLayoutDiff(t, diffConfig(0), 0)
			d.watch(hook)
			d.burst(10*time.Microsecond, mss(0, 3)...)
			d.setRate(3200 * units.Kbps)
			d.burst(10*time.Microsecond, mss(0, 8)...)
			if m := d.p.MagicBytes(0); m != 0 {
				t.Fatalf("%d magic bytes: the burst after SetRate was held to the old rate's θ⁺", m)
			}
			d.nextPolicy()
			d.burst(10*time.Microsecond, append(mss(1, 4), mss(0, 4)...)...)
			d.roundTrip()
			d.burst(10*time.Microsecond, append(mss(1, 4), mss(3, 4)...)...)
			d.setRate(100 * units.Kbps)
			d.burst(10*time.Microsecond, append(mss(1, 4), mss(3, 4)...)...)
		}},
		// The ring fast paths hand over to the spill path: a real tail run
		// that would pass 2 GiB, a packet that is itself past it, and a
		// seventeenth run.
		{"fast paths give way to the spill", func(t *testing.T, hook func(Event)) {
			d := newLayoutDiff(t, diffConfig(1|2), 0, fair)
			d.watch(hook)
			d.burst(10*time.Microsecond, sized(0, 1<<30), sized(0, 1<<30), sized(1, 1<<31), sized(0, 1<<30), sized(0, units.MSS))
			if q := d.p.queues; !q[0].spilled || !q[1].spilled || q[0].length != 3<<30 {
				t.Fatalf("queue 0 spilled %v holding %d B, queue 1 spilled %v; want both on the heap and queue 0 full", q[0].spilled, q[0].length, q[1].spilled)
			}
			d = newLayoutDiff(t, altConfig(), 0, fair)
			d.watch(hook)
			d.batched = true
			alternate(d, 14)
			if !d.p.queues[0].spilled || d.p.numRuns(0) <= ringCap {
				t.Fatalf("alternation left %d runs (spilled %v); it no longer reaches a seventeenth", d.p.numRuns(0), d.p.queues[0].spilled)
			}
		}},
		// Zero-size packets (into an empty queue, where r_i* counts the
		// class in without it being occupied, and behind a magic tail) and
		// packets classified by flow key, unset or out of range.
		{"zero-size and hash-classified packets", func(t *testing.T, hook func(Event)) {
			d := newLayoutDiff(t, diffConfig(0), 0, fair)
			d.watch(hook)
			keyed := func(class, port, size int) packet.Packet {
				return packet.Packet{Key: packet.FlowKey{SrcPort: uint16(port)}, Class: class, Size: size}
			}
			d.burst(10*time.Microsecond, sized(0, 0), sized(0, 0), sized(1, units.MSS), sized(2, 0),
				keyed(packet.NoClass, 7, units.MSS), keyed(4, 8, units.MSS), keyed(-7, 9, 0), keyed(99, 10, units.MSS))
			d.burst(10*time.Microsecond, mss(1, 60)...)
			if d.p.MagicBytes(1) == 0 {
				t.Fatal("the flood left no magic tail")
			}
			d.burst(120*time.Millisecond, sized(1, 0), sized(1, 0), keyed(packet.NoClass, 7, 0), sized(1, units.MSS))
		}},
		// The lazy FIFO, with no sync but the enforcer's own. A queue that
		// empties forgets its stored runs and its tail at once, the refill
		// accumulates in a fresh tail, and a drain takes its front off late.
		{"empty and refill between syncs", func(t *testing.T, hook func(Event)) {
			d := newLayoutDiff(t, diffConfig(1), 0, fair)
			d.watch(hook)
			d.lazy = true
			d.burst(10*time.Microsecond, mss(0, 5)...)
			d.fifo("the first burst")
			d.burst(10*time.Microsecond, mss(0, 2)...)
			d.tick(500 * time.Millisecond)
			if q := &d.p.queues[0]; q.length != 0 || q.n != 0 || q.tail != 0 {
				t.Fatalf("emptied queue: length %d, %d stored runs, tail %d; want all forgotten", q.length, q.n, q.tail)
			}
			d.burst(10*time.Microsecond, mss(0, 3)...)
			d.tick(20 * time.Millisecond)
			d.burst(10*time.Microsecond, mss(0, 2)...)
			if q := &d.p.queues[0]; q.n != 0 || q.tail != 5*units.MSS || q.length >= 5*units.MSS {
				t.Fatalf("refilled queue: %d stored runs, tail %d, length %d; want the refill in the tail and a drain pending", q.n, q.tail, q.length)
			}
		}},
		// Each thing that reads or appends runs brings the FIFO up to date
		// first. A flood leaves [real, magic]; two windows later a drain is
		// pending over both and a packet waits in the tail, and then the
		// sync comes from a magic fill, from a reclaim reached by an arrival,
		// by Tick, by SetRate and by SetPolicy, from a snapshot, and from
		// MagicBytes.
		{"every reader of runs syncs first", func(t *testing.T, hook func(Event)) {
			triggers := []struct {
				name string
				pull func(d *layoutDiff)
			}{
				{"fill", func(d *layoutDiff) { d.burst(10*time.Microsecond, mss(0, 5)...) }},
				{"reclaim on arrival", func(d *layoutDiff) { d.burst(120*time.Millisecond, sized(0, 0)) }},
				{"Tick", func(d *layoutDiff) { d.tick(120 * time.Millisecond) }},
				{"SetRate", func(d *layoutDiff) { d.now += 120 * time.Millisecond; d.setRate(800 * units.Kbps) }},
				{"SetPolicy", func(d *layoutDiff) { d.now += 120 * time.Millisecond; d.nextPolicy() }},
				{"SnapshotState", func(d *layoutDiff) {
					if _, err := d.p.SnapshotState(d.now); err != nil {
						t.Fatal(err)
					}
				}},
				{"MagicBytes", func(d *layoutDiff) { d.p.MagicBytes(0) }},
			}
			for _, tr := range triggers {
				d := newLayoutDiff(t, diffConfig(0), 0, fair, fair)
				d.watch(hook)
				d.lazy = true
				d.burst(10*time.Microsecond, mss(0, 10)...)
				d.tick(200 * time.Millisecond)
				d.burst(10*time.Millisecond, mss(0, 1)...)
				if q := &d.p.queues[0]; upToDate(d.p, 0) || q.tail != units.MSS || q.n != 2 {
					t.Fatalf("%s: set-up left %d stored runs and a tail of %d; want the flood's two, a drain pending and a packet waiting", tr.name, q.n, q.tail)
				}
				tr.pull(d)
				if !upToDate(d.p, 0) {
					t.Fatalf("%s left queue 0's FIFO stale", tr.name)
				}
				d.fifo(tr.name)
			}
		}},
		// The tail counts up to 2 GiB − 1. What would take it past that
		// goes to the runs first; a packet it cannot count at all goes
		// straight to the back; and the real run that grows past a ring slot
		// when the tail lands on it spills.
		{"the tail hands over at 2 GiB", func(t *testing.T, hook func(Event)) {
			d := newLayoutDiff(t, diffConfig(1|2), 0, fair)
			d.watch(hook)
			d.lazy = true
			d.burst(10*time.Microsecond, sized(0, 1<<30), sized(0, 1<<30))
			if q := &d.p.queues[0]; q.spilled || q.n != 1 || q.ring[0] != 1<<30 || q.tail != 1<<30 {
				t.Fatalf("after 2 GiB: spilled %v, %d stored runs, tail %d; want the first GiB handed over and the second waiting", q.spilled, q.n, q.tail)
			}
			d.tick(10 * time.Second) // 500 kB off the front, pending
			d.burst(10*time.Microsecond, sized(0, 1<<30), sized(1, 1<<31), sized(1, units.MSS))
			if q := d.p.queues; q[0].spilled || q[0].n != 1 || q[0].tail != 1<<30 || !q[1].spilled || q[1].tail != 0 {
				t.Fatalf("queue 0 spilled %v with %d runs and tail %d, queue 1 spilled %v with tail %d; want queue 0 in its ring after a second hand-over and queue 1 eager on the heap",
					q[0].spilled, q[0].n, q[0].tail, q[1].spilled, q[1].tail)
			}
			d.fifo("3 GiB")
			if q := &d.p.queues[0]; !q.spilled || d.p.numRuns(0) != 1 || q.length <= 2<<30 {
				t.Fatalf("queue 0 spilled %v holding %d B in %d runs; want one run past a ring slot", q.spilled, q.length, d.p.numRuns(0))
			}
		}},
		// A seventeenth run that appears only when the tail is appended: the
		// ring holds sixteen runs ending in magic, a packet that fills the
		// queue exactly is accepted with no fill behind it, and the sync
		// finds no slot for it. Quiet then drains the FIFO back into the
		// ring.
		{"a seventeenth run at sync time", func(t *testing.T, hook func(Event)) {
			cfg := altConfig()
			d := newLayoutDiff(t, cfg, 0, fair)
			d.watch(hook)
			alternate(d, 7)
			if q := &d.p.queues[0]; q.spilled || q.n != ringCap || d.p.run(0, ringCap-1) >= 0 {
				t.Fatalf("alternation left %d runs (spilled %v); want a full ring ending in magic", d.p.numRuns(0), q.spilled)
			}
			d.lazy = true
			d.tick(time.Millisecond)
			d.burst(0, sized(0, int(cfg.QueueSize-d.p.queues[0].length)))
			if q := &d.p.queues[0]; q.spilled || q.tail == 0 || q.length != cfg.QueueSize {
				t.Fatalf("exact fit: spilled %v, tail %d, length %d; want the packet waiting in the tail of a full queue", q.spilled, q.tail, q.length)
			}
			d.fifo("the seventeenth run")
			if q := &d.p.queues[0]; !q.spilled || d.p.numRuns(0) != ringCap+1 {
				t.Fatalf("after the sync: spilled %v with %d runs; want seventeen on the heap", q.spilled, d.p.numRuns(0))
			}
			for d.p.queues[0].spilled {
				d.tick(time.Millisecond)
			}
			d.fifo("the return to the ring")
			if n := d.p.numRuns(0); n == 0 || n > ringCap/2 {
				t.Fatalf("back in the ring with %d runs; want the half ring the return waits for", n)
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sc.run(t, nil)
			events := 0
			sc.run(t, func(Event) { events++ })
			if events == 0 {
				t.Fatal("the hooked run saw no events")
			}
		})
	}
}

// upToDate reports whether queue c's stored runs are its FIFO: no packet
// waits in the tail and no drain is pending.
func upToDate(p *PQP, c int) bool {
	var stored int64
	for i, n := 0, p.numRuns(c); i < n; i++ {
		v := p.run(c, i)
		stored += max(v, -v)
	}
	return p.queues[c].tail == 0 && stored == p.queues[c].length
}

// TestDrainLeavesFIFOLineUntouched: accepts that trigger no magic fill, drops
// and lazy drains of any size write nothing to a queue's second cache line.
// Four flows flood, are filled with magic, and then offer twice their share
// for windows on end — every burst drains, accepts and drops — while the
// drains eat through the stored real run, into the magic behind it and
// finally past it; the ring bytes stay as the last sync left them, and the
// FIFO they imply is the reference's whenever it is looked at.
//
// The flood runs at 8 Mbps, where θ⁺·r_i*·T is 37.5 kB: each queue fills
// with magic at its twenty-sixth packet and holds 39 kB real, 21 kB magic.
// The flood's window closes at 400 kbps, so the queues are still all but
// full when the bursts begin at 4 Mbps: a window of them then accepts about
// r_i*·T, between θ⁻ and θ⁺ of it, and neither fills nor reclaims.
func TestDrainLeavesFIFOLineUntouched(t *testing.T) {
	// Where the front of the FIFO stands after so many bursts: in the real
	// run, in the magic run, past every stored run.
	for _, tc := range []struct {
		bursts int
		front  string
	}{{10, "real"}, {30, "magic"}, {60, "tail"}} {
		var fills, reclaims int
		cfg := diffConfig(0)
		cfg.Rate = 8 * units.Mbps
		d := newLayoutDiff(t, cfg, 0, func() *sched.Policy { return nil })
		d.watch(func(e Event) {
			switch e.Kind {
			case EventMagicFill:
				fills++
			case EventMagicReclaim:
				reclaims++
			}
		})
		d.lazy = true
		var flood, pairs []packet.Packet
		for i := 0; i < 160; i++ {
			flood = append(flood, packet.Packet{Class: i % 4, Size: units.MSS})
		}
		for i := 0; i < 8; i++ {
			pairs = append(pairs, packet.Packet{Class: i % 4, Size: units.MSS})
		}
		d.burst(10*time.Microsecond, flood...)
		d.setRate(400 * units.Kbps)
		d.tick(101 * time.Millisecond) // closes the flood's window, busy: no reclaim
		d.setRate(4 * units.Mbps)
		d.fifo("the flood")
		if fills != 4 || reclaims != 0 {
			t.Fatalf("%d fills and %d reclaims after the flood, want one fill per queue", fills, reclaims)
		}
		var rings [4][ringCap]int32
		for c := range rings {
			if q := &d.p.queues[c]; q.n != 2 || q.ring[q.slot(0)] <= 0 || q.ring[q.slot(1)] >= 0 {
				t.Fatalf("queue %d holds %d runs after the flood, want a real and a magic one", c, q.n)
			}
			rings[c] = d.p.queues[c].ring
		}
		before := d.p.EnforcerStats()
		for b := 0; b < tc.bursts; b++ {
			d.burst(12*time.Millisecond, pairs...)
		}
		after := d.p.EnforcerStats()
		if after.AcceptedPackets == before.AcceptedPackets || after.DroppedPackets == before.DroppedPackets || fills != 4 || reclaims != 0 {
			t.Fatalf("%d bursts: %d accepts, %d drops, %d fills, %d reclaims; want accepts and drops and no fill or reclaim",
				tc.bursts, after.AcceptedPackets-before.AcceptedPackets, after.DroppedPackets-before.DroppedPackets, fills-4, reclaims)
		}
		for c := range rings {
			if q := &d.p.queues[c]; q.ring != rings[c] {
				t.Fatalf("%d bursts: queue %d's ring changed from %v to %v", tc.bursts, c, rings[c], q.ring)
			} else if upToDate(d.p, c) {
				t.Fatalf("%d bursts: queue %d has nothing pending; the test no longer exercises the lazy paths", tc.bursts, c)
			}
		}
		d.fifo("the bursts")
		front := "tail"
		if n := d.p.numRuns(0); n == 3 {
			front = "real"
		} else if n == 2 {
			front = "magic"
		}
		if front != tc.front || (front == "magic") != (d.p.run(0, 0) < 0) {
			t.Fatalf("%d bursts: the front of queue 0 stands in %s (%d runs, first %d), want %s", tc.bursts, front, d.p.numRuns(0), d.p.run(0, 0), tc.front)
		}
	}
}

// TestZeroSizeAcceptSnapshotRestores: a zero-size accept into an empty queue,
// or behind a magic tail, leaves no zero-byte run for SnapshotState to write
// and RestoreState to refuse.
func TestZeroSizeAcceptSnapshotRestores(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		d := newLayoutDiff(t, diffConfig(0), 0)
		d.lazy = lazy
		d.submit(10*time.Millisecond, 1, 0, false)
		d.roundTrip()
		for i := 0; i < 60; i++ {
			d.submit(10*time.Microsecond, 1, units.MSS, false)
		}
		d.submit(10*time.Microsecond, 1, 0, false)
		if q := &d.ref.queues[1]; q.segs[len(q.segs)-1] != (refSegment{}) || !q.segs[len(q.segs)-2].magic {
			t.Fatalf("the reference's queue ends in %+v; want a zero-byte run behind a magic one", q.segs[q.head:])
		}
		d.roundTrip()
		d.submit(120*time.Millisecond, 1, units.MSS, false)
	}
}

// TestBurstStatsVisibleToHooks: a burst counts its aggregate statistics in
// locals, except that whatever a Filter or SetOnEvent hook can see is already
// in EnforcerStats when the hook runs — every earlier packet for the filter,
// the event's own packet too for the event.
func TestBurstStatsVisibleToHooks(t *testing.T) {
	var p *PQP
	var filtered, decided int64
	total := func() int64 {
		st := p.EnforcerStats()
		return st.AcceptedPackets + st.DroppedPackets
	}
	cfg := diffConfig(0)
	cfg.Filter = func(pkt packet.Packet) bool {
		if got := total(); got != filtered {
			t.Fatalf("filter for packet %d sees %d packets counted", filtered, got)
		}
		filtered++
		return pkt.Size != 99
	}
	p = MustNew(cfg)
	p.SetOnEvent(func(e Event) {
		switch e.Kind {
		case EventAccept, EventDrop, EventMark:
			decided++
			if got := total(); got != decided {
				t.Fatalf("event %d (%v) sees %d packets counted", decided, e.Kind, got)
			}
		}
	})
	pkts := make([]packet.Packet, 64)
	for i := range pkts {
		pkts[i] = packet.Packet{Class: i % 2, Size: units.MSS}
		if i%7 == 3 {
			pkts[i].Size = 99
		}
	}
	verdicts := make([]enforcer.Verdict, len(pkts))
	for b := 0; b < 3; b++ {
		p.SubmitBatch(time.Duration(b)*120*time.Millisecond, pkts, verdicts)
	}
	if st := p.EnforcerStats(); filtered != 3*64 || decided != filtered || st.DroppedPackets == 0 || st.AcceptedPackets == 0 {
		t.Fatalf("%d filter calls, %d decisions, stats %+v", filtered, decided, st)
	}
}

// TestManyQueuesEquivalence runs the differential over 130 queues, so the
// occupied mask spans three words, under a fair, a weighted and a priority
// policy.
func TestManyQueuesEquivalence(t *testing.T) {
	const queues = 130
	weights := make([]float64, queues)
	for i := range weights {
		weights[i] = 0.3 + float64(i%7)/3
	}
	cfg := diffConfig(0)
	cfg.Queues = queues
	d := newLayoutDiff(t, cfg, 0,
		func() *sched.Policy { return nil },
		func() *sched.Policy { return sched.WeightedFair(weights...) },
		func() *sched.Policy { return sched.StrictPriority(queues) })
	pkts := make([]packet.Packet, 32)
	for step := 0; step < 6000; step++ {
		class := step * 37 % queues
		if step%5 == 0 {
			class = step / 5 % 3 * 64 // the first queue of each mask word
		}
		d.submit(time.Duration(step%29)*310*time.Microsecond, class, 100+step*613%1400, false)
		switch {
		case step%997 == 996:
			d.nextPolicy()
		case step%401 == 400:
			d.tick(time.Duration(step%50) * 10 * time.Millisecond)
		case step%211 == 210:
			// A burst through SubmitBatch, checked against the reference
			// packet by packet.
			for i := range pkts {
				pkts[i] = packet.Packet{Class: (step + i*41) % queues, Size: units.MSS}
			}
			d.burst(0, pkts...)
		}
	}
	if d.p.EnforcerStats().DroppedPackets == 0 || d.ref.stats.AcceptedPackets == 0 {
		t.Fatalf("trace did not both accept and drop: %+v", d.ref.stats)
	}
}

// benchSubscriber is the benchmark's engine-workload subscriber: a 20 Mbps
// plan over sixteen queues at the recommended queue size (ten times the Reno
// requirement at 100 ms).
func benchSubscriber(onEvent func(Event)) *PQP {
	p := MustNew(Config{
		Rate:         20 * units.Mbps,
		Queues:       16,
		QueueSize:    10 * units.RenoPhantomRequirement(20*units.Mbps, 100*time.Millisecond),
		BurstControl: true,
	})
	p.SetOnEvent(onEvent)
	return p
}

// TestBytesPerSubscriber pins the memory a warmed-up subscriber holds. The
// warm-up is the benchmark's: bursts of 32 MSS packets 7.68 ms apart, the
// sixteen flows offering 1×, 1.2×, … 4× a fair share (2.5× the plan in
// all), sixteen bursts — one burst-control window and a half, during which
// every queue above θ⁺ is filled with magic and then collects a real and a
// sub-MSS magic run per drain. The budget is 2,048 B of queues, 288 B of
// PQP, 8 B of mask and what the few queues past sixteen runs spill.
func TestBytesPerSubscriber(t *testing.T) {
	const subs, bursts, burstLen = 1024, 16, 32
	pkts := make([]packet.Packet, burstLen)
	verdicts := make([]enforcer.Verdict, burstLen)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: what earlier tests left for the sweeper
	runtime.ReadMemStats(&before)
	table := make([]*PQP, subs)
	for s := range table {
		p := benchSubscriber(nil)
		var credit [16]float64
		for b := 1; b <= bursts; b++ {
			for i := range pkts {
				// Smooth weighted round-robin over weights 1, 1.2, … 4.
				best := 0
				for f := range credit {
					credit[f] += 1 + 0.2*float64(f)
					if credit[f] > credit[best] {
						best = f
					}
				}
				credit[best] -= 40
				pkts[i] = packet.Packet{Class: best, Size: units.MSS}
			}
			p.SubmitBatch(time.Duration(b)*7680*time.Microsecond, pkts, verdicts)
		}
		table[s] = p
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / subs
	var runs, spilled int
	for _, p := range table {
		for i := range p.queues {
			p.sync(i)
			runs += p.numRuns(i)
			if p.queues[i].spilled {
				spilled++
			}
		}
	}
	t.Logf("%.0f B per subscriber; %.1f runs per queue, %d of %d queues spilled", per, float64(runs)/(subs*16), spilled, subs*16)
	if per > 2600 {
		t.Errorf("a warmed-up 16-queue subscriber holds %.0f B, want ≤ 2600", per)
	}
	if runs < 2*subs*16 {
		t.Errorf("warm-up left %.1f runs per queue: it no longer exercises burst control", float64(runs)/(subs*16))
	}
	runtime.KeepAlive(table)
}

// TestSteadyStateAllocs: once a subscriber is running, nothing on the
// enforcement path allocates — including a magic fill, the drains through
// it, and the reclaim when the flow goes quiet.
func TestSteadyStateAllocs(t *testing.T) {
	var fills, reclaims int
	p := benchSubscriber(func(e Event) {
		switch e.Kind {
		case EventMagicFill:
			fills++
		case EventMagicReclaim:
			reclaims++
		}
	})
	pkts := make([]packet.Packet, 32)
	for i := range pkts {
		pkts[i] = packet.Packet{Class: 3, Size: units.MSS}
	}
	verdicts := make([]enforcer.Verdict, len(pkts))
	now := time.Duration(0)
	cycle := func() {
		// One flow at twice the plan for 150 ms: its eighth burst crosses
		// θ⁺ and fills the queue with magic, the rest drain through it.
		for b := 0; b < 15; b++ {
			now += 10 * time.Millisecond
			p.SubmitBatch(now, pkts, verdicts)
		}
		// Quiet for three windows: the second closes under θ⁻ and
		// reclaims.
		for w := 0; w < 3; w++ {
			now += Window
			p.Tick(now)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("%v allocs per fill-drain-reclaim cycle, want 0", allocs)
	}
	if fills < 22 || reclaims < 22 {
		t.Errorf("%d fills and %d reclaims over 22 cycles: the cycle no longer exercises burst control", fills, reclaims)
	}
}
