package ptree

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/rng"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// TestNodeLayout pins the record: one cache line, nothing for the garbage
// collector to scan.
func TestNodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 64 {
		t.Errorf("node is %d bytes, want 64", size)
	}
	typ := reflect.TypeOf(node{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint32, reflect.Int64, reflect.Float64:
		default:
			t.Errorf("node.%s is a %s: the record must hold plain numbers only", f.Name, f.Type.Kind())
		}
	}
}

// heapAfter returns the live heap once build's result is the only new thing
// reachable.
func heapAfter(build func() *Tree) (tr *Tree, grown int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr = build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return tr, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestSparseNames: a name costs the node that has one, not every node.
func TestSparseNames(t *testing.T) {
	spec := millionLeafSpec(100, 1000)
	anon, base := heapAfter(func() *Tree { return MustNew(spec) })
	spec[0].Name, spec[70_000].Name = "root", "subscriber"
	named, withNames := heapAfter(func() *Tree { return MustNew(spec) })
	if extra := withNames - base; extra >= 1024 {
		t.Errorf("naming two of %d nodes costs %d bytes, want < 1 KB", len(spec), extra)
	}
	for node, want := range map[enforcer.NodeID]string{0: "root", 1: "node1", 69_999: "node69999", 70_000: "subscriber", 70_001: "node70001"} {
		if got := named.NodeLabel(node); got != want {
			t.Errorf("NodeLabel(%d) = %q, want %q", node, got, want)
		}
	}
	runtime.KeepAlive(anon)
}

// TestWholeBurstDropKeepsRefillClock: a burst no ceiling lets through never
// reaches the borrow layer, so it must not move the refill clocks on its
// path. Refilling on entry would, and r·d₁ + r·d₂ is not r·(d₁+d₂) in floating
// point.
func TestWholeBurstDropKeepsRefillClock(t *testing.T) {
	tr := MustNew([]NodeSpec{
		{Parent: -1, Stage: tbf.MustNew(3*units.Mbps, 4*units.MSS)},
		{Parent: 0, Assured: 7 * units.Mbps / 3},
	})
	burst := make([]packet.Packet, 8)
	for i := range burst {
		burst[i] = pkt(0, units.MSS)
	}
	verdicts := make([]enforcer.Verdict, len(burst))
	tr.SubmitBatchAt(time.Millisecond, 1, burst, verdicts) // empties the ceiling
	if last, _ := tr.nodes[1].clock.Last(); last != time.Millisecond {
		t.Fatalf("first burst left the refill clock at %v", last)
	}
	tr.SubmitBatchAt(1300*time.Microsecond, 1, burst, verdicts)
	for i, v := range verdicts {
		if v != enforcer.Drop {
			t.Fatalf("packet %d of the second burst passed a drained ceiling", i)
		}
	}
	if got, _ := tr.nodes[1].clock.Last(); got != time.Millisecond {
		t.Errorf("a burst dropped whole at the ceiling moved the leaf's refill clock to %v", got)
	}
	if got, _ := tr.nodes[0].clock.Last(); got != time.Millisecond {
		t.Errorf("a burst dropped whole at the ceiling moved the pool's refill clock to %v", got)
	}
}

// panicStage is a ceiling that passes packets through to a token bucket
// behind enforcer.Stage, so the tree calls it rather than borrowing the
// bucket, and panics at its n-th Probe or Commit (0: never), remembering the
// packet it was handed.
type panicStage struct {
	inner    *tbf.Policer
	onCommit bool
	n        int
	inFlight packet.Packet
}

func (s *panicStage) call(pkt *packet.Packet) {
	if s.n--; s.n == 0 {
		s.inFlight = *pkt
		panic("ceiling failed")
	}
}

func (s *panicStage) Probe(now time.Duration, pkt *packet.Packet) bool {
	if !s.onCommit {
		s.call(pkt)
	}
	return s.inner.Probe(now, pkt)
}

func (s *panicStage) Commit(now time.Duration, pkt *packet.Packet) {
	if s.onCommit {
		s.call(pkt)
	}
	s.inner.Commit(now, pkt)
}

// TestStagePanicMidBurst pins what a ceiling Stage that panics mid-burst
// leaves behind: every lent bucket written back, and the counters, stats,
// assured buckets and loans of exactly the packets whose admission
// completed — the state of a twin tree offered only those packets. The
// panicking Stage sits between two token buckets, so one loan is open below
// it and one above.
func TestStagePanicMidBurst(t *testing.T) {
	type tree struct {
		tr         *Tree
		root, leaf *tbf.Policer
		mid        *panicStage
	}
	build := func(onCommit bool, n int) tree {
		x := tree{
			root: tbf.MustNew(20*units.Mbps, 8*units.MSS),
			leaf: tbf.MustNew(30*units.Mbps, 10*units.MSS),
			mid:  &panicStage{inner: tbf.MustNew(10*units.Mbps, 6*units.MSS), onCommit: onCommit, n: n},
		}
		x.tr = MustNew([]NodeSpec{
			{Parent: -1, Stage: x.root},
			{Parent: 0, Stage: x.mid, Assured: 4 * units.Mbps},
			{Parent: 1, Stage: x.leaf, Assured: 3 * units.Mbps},
			{Parent: 1, Assured: units.Mbps},
		})
		return x
	}
	// Each packet's class is its index, so the routed case alternates
	// leaves; sizes vary so that the burst outruns the middle ceiling.
	burst := make([]packet.Packet, 16)
	for i := range burst {
		burst[i] = pkt(i, 300+(i*577)%1200)
		burst[i].Class = i
	}
	submit := func(tr *Tree, routed bool, now time.Duration, pkts []packet.Packet) []enforcer.Verdict {
		v := make([]enforcer.Verdict, len(pkts))
		if routed {
			tr.SubmitBatch(now, pkts, v)
		} else {
			tr.SubmitBatchAt(now, 2, pkts, v)
		}
		return v
	}
	const at = 5 * time.Millisecond
	for _, tc := range []struct {
		name     string
		onCommit bool
		n        int
		routed   bool
	}{
		{"probe", false, 7, false},
		{"commit", true, 4, false},
		{"routed probe", false, 5, true},
		{"routed commit", true, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failing := build(tc.onCommit, tc.n)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the ceiling never panicked")
					}
				}()
				submit(failing.tr, tc.routed, at, burst)
			}()
			done := failing.mid.inFlight.Class // packets before it completed
			if done == 0 {
				t.Fatal("the first packet panicked: nothing to compare")
			}
			twin := build(false, 0)
			submit(twin.tr, tc.routed, at, burst[:done])

			if len(failing.tr.touched) != 0 {
				t.Errorf("%d ceilings still hold burst state after the panic", len(failing.tr.touched))
			}
			for i := range failing.tr.ceilings {
				c := &failing.tr.ceilings[i]
				if c.open || c.accPkts != 0 || c.drpPkts != 0 {
					t.Errorf("ceiling %d not written back: %+v", i, *c)
				}
			}
			compareTrees(t, failing.tr, twin.tr)
			for name, pair := range map[string][2]*tbf.Policer{
				"root": {failing.root, twin.root}, "leaf": {failing.leaf, twin.leaf}, "middle": {failing.mid.inner, twin.mid.inner},
			} {
				got, _ := pair[0].SnapshotState(at)
				want, _ := pair[1].SnapshotState(at)
				if !bytes.Equal(got, want) {
					t.Errorf("%s bucket: %x, twin %x", name, got, want)
				}
			}
			// Both carry on alike.
			later := at + 3*time.Millisecond
			if got, want := submit(failing.tr, tc.routed, later, burst), submit(twin.tr, tc.routed, later, burst); !reflect.DeepEqual(got, want) {
				t.Errorf("after the panic: %v, twin %v", got, want)
			}
			compareTrees(t, failing.tr, twin.tr)
		})
	}
}

// compareTrees fails unless two trees agree on their stats, every node's
// counters, token level and refill clock.
func compareTrees(t *testing.T, got, want *Tree) {
	t.Helper()
	if g, w := got.EnforcerStats(), want.EnforcerStats(); g != w {
		t.Errorf("stats %+v, twin %+v", g, w)
	}
	for i := range got.nodes {
		g, _ := got.NodeStats(enforcer.NodeID(i))
		w, _ := want.NodeStats(enforcer.NodeID(i))
		gn, wn := &got.nodes[i], &want.nodes[i]
		if g != w || gn.tokens != wn.tokens || gn.clock != wn.clock {
			gl, _ := gn.clock.Last()
			wl, _ := wn.clock.Last()
			t.Errorf("node %d: %+v tokens %v filled %v, twin %+v %v %v", i, g, gn.tokens, gl, w, wn.tokens, wl)
		}
	}
}

// TestSubmitAllocs: no submission path allocates — node-addressed or
// class-routed, one packet or a burst, including a burst that mixes leaves.
func TestSubmitAllocs(t *testing.T) {
	tr := tenantPlanSub()
	burst := make([]packet.Packet, 32)
	for i := range burst {
		burst[i] = pkt(i, 400)
	}
	mixed := make([]packet.Packet, 32)
	for i := range mixed {
		mixed[i] = pkt(i/3%4, 400) // runs of three, cycling over the four leaves
	}
	verdicts := make([]enforcer.Verdict, len(burst))
	now := time.Duration(0)
	if avg := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		tr.SubmitBatchAt(now, 4, burst, verdicts)
		tr.SubmitAt(now, 5, burst[0])
		tr.SubmitBatch(now, burst[1:2], verdicts[:1])
		tr.SubmitBatch(now, mixed, verdicts)
	}); avg != 0 {
		t.Errorf("submission allocates %.1f times per round, want 0", avg)
	}
}

// TestSnapshotStagesNothing: a snapshot is allocated once at its final size,
// and a restore validates and applies straight from the blob — neither
// stages per-node temporaries (restore used to hold 80 B per node).
func TestSnapshotStagesNothing(t *testing.T) {
	spec := millionLeafSpec(100, 1000)
	warm, cold := MustNew(spec), MustNew(millionLeafSpec(100, 1000))
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	var blob []byte
	var err error
	if got := allocated(func() { blob, err = warm.SnapshotState(0) }); err != nil || got > int64(len(blob))+256<<10 {
		t.Errorf("SnapshotState allocated %d bytes for a %d-byte blob (err %v)", got, len(blob), err)
	}
	if got := allocated(func() { err = cold.RestoreState(0, blob) }); err != nil || got > int64(len(spec)) {
		t.Errorf("RestoreState allocated %d bytes for %d nodes, want under a byte per node (err %v)", got, len(spec), err)
	}
}

// layoutDiff drives a Tree and the struct-of-arrays reference through the
// same operations and fails on the first difference.
type layoutDiff struct {
	t   *testing.T
	tr  *Tree
	ref *refTree
	n   int
	now time.Duration

	pkts     []packet.Packet
	got, exp []enforcer.Verdict
}

// diffSpec draws a topology from shape: 1–25 nodes at most 1–6 deep;
// token-bucket and phantom ceilings with buckets small enough to drop whole
// bursts, on any node including leaves; one token bucket shared by two
// nodes on different paths; own-assured, pooled and unassured nodes;
// explicit bursts. Ceilings hold state, so each tree gets its own spec from
// the same shape.
func diffSpec(shape uint64) []NodeSpec {
	r := rng.New(shape)
	n := 1 + r.IntN(25)
	maxDepth := 1 + r.IntN(6)
	spec := make([]NodeSpec, 0, n)
	depth := make([]int, 0, n)
	for i := 0; i < n; i++ {
		s, d := NodeSpec{Parent: -1}, 1
		if i > 0 {
			if maxDepth == 1 {
				break
			}
			for {
				if s.Parent = r.IntN(i); depth[s.Parent] < maxDepth {
					break
				}
			}
			d = depth[s.Parent] + 1
		}
		rate := units.Rate(1+r.IntN(20)) * units.Mbps
		switch r.IntN(4) {
		case 2:
			s.Stage = tbf.MustNew(rate, int64(1+r.IntN(6))*units.MSS)
		case 3:
			s.Stage = phantom.MustNew(phantom.Config{
				Rate:         rate,
				Queues:       1 + r.IntN(3),
				QueueSize:    int64(2+r.IntN(8)) * units.MSS,
				BurstControl: r.IntN(2) == 0,
			})
		}
		if r.IntN(3) > 0 {
			s.Assured = units.Rate(1+r.IntN(16)) * units.Mbps / 3
			if r.IntN(3) == 0 {
				s.Burst = int64(1+r.IntN(20)) * units.MSS
			}
		} else if r.IntN(8) == 0 {
			s.Burst = 5 * units.MSS // valid only if the subtree has an assured rate
		}
		spec = append(spec, s)
		depth = append(depth, d)
	}
	// New refuses one token bucket at two nodes of one path, which these
	// draws once built; they stay, unused, so that every shape keeps the
	// topology and ceilings the named seeds were chosen for.
	if len(spec) > 1 && r.IntN(3) == 0 {
		r.IntN(depth[1+r.IntN(len(spec)-1)] - 1)
	}
	// One token bucket at two nodes neither of which is the other's
	// ancestor, such as two sibling pools: a burst through the second
	// charges the loan held at the first's slot, off its own path.
	if len(spec) > 2 && r.IntN(3) == 0 {
		a, b := r.IntN(len(spec)), r.IntN(len(spec))
		if a != b && !ancestor(spec, a, b) && !ancestor(spec, b, a) {
			stage := tbf.MustNew(units.Rate(1+r.IntN(20))*units.Mbps, int64(1+r.IntN(6))*units.MSS)
			spec[a].Stage, spec[b].Stage = stage, stage
		}
	}
	return spec
}

// ancestor reports whether node a is on node b's path to the root.
func ancestor(spec []NodeSpec, a, b int) bool {
	for ; b >= 0; b = spec[b].Parent {
		if b == a {
			return true
		}
	}
	return false
}

func newLayoutDiff(t *testing.T, shape uint64) *layoutDiff {
	tr, err := New(diffSpec(shape))
	ref, refErr := newRefTree(diffSpec(shape))
	if (err != nil) != (refErr != nil) {
		t.Fatalf("shape %d: New says %v, the reference %v", shape, err, refErr)
	}
	if err != nil {
		return nil
	}
	d := &layoutDiff{t: t, tr: tr, ref: ref, n: tr.NumNodes(),
		pkts: make([]packet.Packet, 12), got: make([]enforcer.Verdict, 12), exp: make([]enforcer.Verdict, 12)}
	if !reflect.DeepEqual(tr.Leaves(), ref.leaves) {
		t.Fatalf("leaves %v, reference %v", tr.Leaves(), ref.leaves)
	}
	if cap(tr.plan.buckets) != ref.maxDepth {
		t.Fatalf("plan scratch holds %d buckets, the deepest path has %d nodes", cap(tr.plan.buckets), ref.maxDepth)
	}
	for i := 0; i < d.n; i++ {
		id := enforcer.NodeID(i)
		if tr.Parent(id) != enforcer.NodeID(ref.parent[i]) || tr.IsLeaf(id) != (ref.firstChild[i] == -1) {
			t.Fatalf("node %d: parent %d leaf %v, reference parent %d first child %d",
				i, tr.Parent(id), tr.IsLeaf(id), ref.parent[i], ref.firstChild[i])
		}
	}
	d.compare("build")
	return d
}

// compare checks everything observable at every node, and the record
// against the reference's arrays bit for bit.
func (d *layoutDiff) compare(after string) {
	d.t.Helper()
	if got, want := d.tr.EnforcerStats(), d.ref.EnforcerStats(); got != want {
		d.t.Fatalf("after %s: stats %+v, reference %+v", after, got, want)
	}
	for i := 0; i < d.n; i++ {
		id := enforcer.NodeID(i)
		got, _ := d.tr.NodeStats(id)
		want, _ := d.ref.NodeStats(id)
		if got != want {
			d.t.Fatalf("after %s: node %d stats %+v, reference %+v", after, i, got, want)
		}
		gc, ge := d.tr.AssuredRate(id)
		wc, we := d.ref.AssuredRate(id)
		if gc != wc || ge != we {
			d.t.Fatalf("after %s: node %d assured (%v, %v), reference (%v, %v)", after, i, gc, ge, wc, we)
		}
		n := &d.tr.nodes[i]
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if last, _ := n.clock.Last(); !same(n.tokens, d.ref.tokens[i]) || !same(n.burst, d.ref.burst[i]) || last != d.ref.lastFill[i] {
			d.t.Fatalf("after %s: node %d tokens %v burst %v filled %v, reference %v %v %v", after, i,
				n.tokens, n.burst, last, d.ref.tokens[i], d.ref.burst[i], d.ref.lastFill[i])
		}
		// The reference stores -0 as an emptied pool's floor where the
		// record derives it; the two are one floor.
		if n.floor() != d.ref.floor[i] {
			d.t.Fatalf("after %s: node %d floor %v, reference %v", after, i, n.floor(), d.ref.floor[i])
		}
	}
}

// snapshot compares the two blobs and restores each tree from the other's.
func (d *layoutDiff) snapshot() {
	d.t.Helper()
	got, err := d.tr.SnapshotState(d.now)
	want, refErr := d.ref.SnapshotState(d.now)
	if err != nil || refErr != nil {
		d.t.Fatalf("snapshot: %v, reference %v", err, refErr)
	}
	if !bytes.Equal(got, want) {
		d.t.Fatalf("snapshot differs from the reference's:\n got %x\nwant %x", got, want)
	}
	err, refErr = d.tr.RestoreState(d.now, want), d.ref.RestoreState(d.now, got)
	if (err != nil) != (refErr != nil) {
		d.t.Fatalf("restore: %v, reference %v", err, refErr)
	}
	d.compare("restore")
}

// Op bits beside the operation (op%8) and the clock's direction (op ≥ 128):
// an op with both opShaped bits set, one random op in four, shapes its
// packets' sizes by bits 4–5. The step-down and alternating shapes apply to
// a node-addressed burst, whose sizes otherwise step through the size table
// seven entries at a time.
const (
	opShaped       = 0x48            // bits 3 and 6
	opTiny         = opShaped        // sizes 0–60 B in steps of 4, not 64–1504 B in steps of 96
	opStepDown     = opShaped | 0x10 // the burst is one size, but its last packet a quarter of it
	opAlternate    = opShaped | 0x20 // the burst alternates between one size and a quarter of it
	opTinyStepDown = opShaped | 0x30 // opStepDown over opTiny's sizes
)

// opShape reads an op's size shape.
func opShape(op byte) (tiny, stepDown, alternate bool) {
	if op&opShaped != opShaped {
		return false, false, false
	}
	switch op & 0x30 {
	case 0x00:
		return true, false, false
	case 0x10:
		return false, true, false
	case 0x20:
		return false, false, true
	}
	return true, true, false
}

// opSize draws a packet size from x's low nibble.
func opSize(op byte, x int) int {
	if tiny, _, _ := opShape(op); tiny {
		return (x & 15) * 4
	}
	return 64 + (x&15)*96
}

// run interprets ops three bytes at a time: an operation, a target and an
// argument whose high nibble also moves the clock — backwards for odd
// operations in the upper half.
func (d *layoutDiff) run(ops []byte) {
	for ; len(ops) >= 3; ops = ops[3:] {
		op, a, b := ops[0], int(ops[1]), int(ops[2])
		if dt := time.Duration(b>>4) * 130 * time.Microsecond; op >= 128 && op&1 == 1 {
			d.now = max(d.now-dt, 0)
		} else {
			d.now += dt
		}
		node := enforcer.NodeID(a % (d.n + 1)) // d.n itself is out of range: fails closed
		size := opSize(op, b)
		switch op % 8 {
		case 0, 1:
			p := pkt(a%5, size)
			if got, want := d.tr.SubmitAt(d.now, node, p), d.ref.SubmitAt(d.now, node, p); got != want {
				d.t.Fatalf("SubmitAt(%v, %d, %d B) = %v, reference %v", d.now, node, size, got, want)
			}
		case 2, 3, 4:
			burst := d.pkts[:1+b%len(d.pkts)]
			_, stepDown, alternate := opShape(op)
			for k := range burst {
				burst[k] = pkt((a+k)%5, opSize(op, b+k*7))
				switch {
				case stepDown && k == len(burst)-1, alternate && k%2 == 1:
					burst[k].Size = size / 4
				case stepDown || alternate:
					burst[k].Size = size
				}
			}
			d.tr.SubmitBatchAt(d.now, node, burst, d.got)
			d.ref.SubmitBatchAt(d.now, node, burst, d.exp)
			if !reflect.DeepEqual(d.got[:len(burst)], d.exp[:len(burst)]) {
				d.t.Fatalf("SubmitBatchAt(%v, %d, %d pkts) = %v, reference %v",
					d.now, node, len(burst), d.got[:len(burst)], d.exp[:len(burst)])
			}
		case 5:
			// Routed by class: explicit, or hashed from the flow key.
			p := pkt(a, size)
			if a&1 == 1 {
				p.Class = packet.NoClass
			}
			if got, want := submitOne(d.tr, d.now, p), d.ref.Submit(d.now, p); got != want {
				d.t.Fatalf("Submit(%v, class %d) = %v, reference %v", d.now, p.Class, got, want)
			}
		case 6:
			// Routed by class, a burst at a time: runs of 1–4 packets bound
			// for one leaf, the leaf changing from run to run.
			burst := d.pkts[:1+b%len(d.pkts)]
			for k, run := 0, 0; k < len(burst); run++ {
				for n := 1 + (a+run)%4; n > 0 && k < len(burst); n-- {
					burst[k] = pkt(a+run, opSize(op, b+k*7))
					k++
				}
			}
			d.tr.SubmitBatch(d.now, burst, d.got)
			d.ref.SubmitBatch(d.now, burst, d.exp)
			if !reflect.DeepEqual(d.got[:len(burst)], d.exp[:len(burst)]) {
				d.t.Fatalf("SubmitBatch(%v, %d pkts) = %v, reference %v",
					d.now, len(burst), d.got[:len(burst)], d.exp[:len(burst)])
			}
		case 7:
			if b&1 == 1 {
				d.snapshot()
				continue
			}
			rate := units.Rate(1+b&15) * units.Mbps
			err, refErr := setRateAt(d.tr, d.now, node, rate), d.ref.setRateAt(d.now, node, rate)
			if (err != nil) != (refErr != nil) {
				d.t.Fatalf("SetRate at node %d, %v: %v, reference %v", node, rate, err, refErr)
			}
		}
		d.compare("an operation")
	}
	d.snapshot()
}

// wholeBurstDrops is an op stream of full bursts at one node with the clock
// creeping forward a few hundred microseconds at a time: small ceilings
// drain and then turn whole bursts away between the ones they let through.
func wholeBurstDrops(node byte, rounds int) []byte {
	var ops []byte
	for i := 0; i < rounds; i++ {
		ops = append(ops, 2, node, byte(16+(i%3)*32+11), 6, node, byte(i%16))
	}
	return ops
}

// emptyMidBurst is an op stream of twelve-packet bursts at one node, the
// clock stepping 0.26–1.4 ms between them, each burst followed by a single
// packet at the root: a small token bucket at that node runs dry part-way
// through a burst, and lets the next one start again.
func emptyMidBurst(node byte, rounds int) []byte {
	var ops []byte
	for i := 0; i < rounds; i++ {
		ops = append(ops, 2, node, byte(35+(i%4)*48), 0, 0, byte(i%16))
	}
	return ops
}

// routedRuns is an op stream of class-routed bursts of 4–12 packets whose
// leaf changes every 1–4 packets.
func routedRuns(rounds int) []byte {
	var ops []byte
	for i := 0; i < rounds; i++ {
		ops = append(ops, 6, byte(i*5), byte(3+(i%3)*4+(i%5)*16))
	}
	return ops
}

// equalThenSmaller is an op stream of bursts at one node, each twelve
// 1504 B packets but for a last one of 376 B, the clock stepping 0.26–1.04
// ms between them: a token bucket runs dry part-way through the equal
// sizes, and the smaller last packet may still fit what is left.
func equalThenSmaller(node byte, rounds int) []byte {
	var ops []byte
	for i := 0; i < rounds; i++ {
		ops = append(ops, 2|opStepDown, node, byte(0x2F+(i%3)*0x30))
	}
	return ops
}

// zeroBytes is an op stream at one node of a burst that drains its token
// buckets, then at the same instant a burst of 0–60 B packets with one of
// zero bytes among them, and 130 µs later five zero-byte packets: a packet
// of no bytes fits an empty bucket.
func zeroBytes(node byte, rounds int) []byte {
	var ops []byte
	for i := 0; i < rounds; i++ {
		ops = append(ops, 2|opStepDown, node, byte(0x2F+(i%3)*0x30), 2|opTiny, node, 11, 2|opTinyStepDown, node, 0x10)
	}
	return ops
}

// ownerMoves is an op stream that drains the root's ceiling with bursts at
// the root, then offers a burst alternating 1312 B and 328 B packets at one
// node, so that a large packet refused high on the path can be followed by
// a small one that passes and a large one refused lower down, where the
// small one left too little.
func ownerMoves(node byte, rounds int) []byte {
	var ops []byte
	for i := 0; i < rounds; i++ {
		ops = append(ops, 2, 0, byte(0x1F+(i%4)*0x10), 2|opAlternate, node, byte(0x2D+(i%2)*0x30))
	}
	return ops
}

// drawDown is an op stream of rounds of twelve-packet bursts, 1504 B but
// for a last one of 376 B, one burst at each of nodes 260 µs apart, then
// gap ops that each move the clock 1.95 ms with a packet at node idle, which
// is out of the tree's range and fails closed: between rounds the nodes'
// guarantees refill by gap·1.95 ms of their assured rates.
func drawDown(nodes []byte, idle byte, gap, rounds int) []byte {
	var ops []byte
	for i := 0; i < rounds; i++ {
		for _, n := range nodes {
			ops = append(ops, 2|opStepDown, n, 0x2F)
		}
		for k := 0; k < gap; k++ {
			ops = append(ops, 0, idle, 0xF0)
		}
	}
	return ops
}

// layoutSeeds are the differential's named op streams: the fuzz target's
// seed corpus, and the first thing TestTreeLayoutEquivalence runs.
var layoutSeeds = []struct {
	name  string
	shape uint64
	ops   []byte
}{
	{"mixed", 1, []byte{0, 1, 40, 2, 3, 200, 5, 0, 17, 6, 2, 3, 7, 0, 1, 131, 4, 250}},
	// Shapes whose ceilings turn these bursts away whole: an eager refill
	// on entry fails both.
	{"whole-burst-drops", 1, wholeBurstDrops(12, 40)},
	{"whole-burst-drops-4", 4, wholeBurstDrops(6, 40)},
	{"routed-12", 12, []byte{6, 0, 0, 6, 1, 0, 2, 5, 255, 6, 1, 9, 129, 1, 255, 3, 5, 75, 7, 0, 1}},
	// Shape 1's leaves 2 and 5 hold token buckets under a phantom root: the
	// buckets empty mid-burst while the root keeps admitting.
	{"empty-mid-burst-2", 1, emptyMidBurst(2, 40)},
	{"empty-mid-burst-5", 1, emptyMidBurst(5, 40)},
	// Routed bursts alternating leaves, over shape 1 and over shapes 21 and
	// 25, where one token bucket caps a node and one of its ancestors, and
	// shape 26, where one caps sibling leaves 7 and 10 (shape 21 also
	// shares one between its leaves 1 and 3).
	{"routed-runs", 1, routedRuns(60)},
	{"routed-runs-21", 21, routedRuns(60)},
	{"routed-runs-26", 26, routedRuns(60)},
	{"routed-then-empty-25", 25, append(routedRuns(40), emptyMidBurst(4, 20)...)},
	// The run's headroom at its edges. Shape 23 is one node under a 4500 B
	// bucket: two 1504 B packets fit, the next ten are refused at the
	// bucket, and the 376 B one after them fits.
	{"equal-then-smaller", 23, equalThenSmaller(0, 30)},
	// Shape 72's leaf 2 sits under one 9000 B bucket.
	{"zero-bytes", 72, zeroBytes(2, 30)},
	// Shape 8's leaf 2 sits under a 1500 B bucket at node 1 and a 6000 B one
	// at the root.
	{"owner-moves", 8, ownerMoves(2, 40)},
	// Phantom queues below token buckets: shape 22's leaf 2 (a phantom
	// queue under the root's bucket) and shape 30's node 9 (one under two
	// buckets), where which ceiling owns a drop depends on path order.
	{"phantom-below-bucket-22", 22, append(wholeBurstDrops(2, 40), equalThenSmaller(2, 20)...)},
	{"phantom-below-buckets-30", 30, append(emptyMidBurst(9, 40), equalThenSmaller(9, 20)...)},
	// Shape 335's leaves 2 and 6 hold 33375 and 8333 B guarantees under a
	// 62.5 KB root pool that their idle siblings feed too. At one instant,
	// leaf 2's bursts draw the pool down to within a packet of leaf 6's
	// guarantee, and leaf 6's run then spends both: a packet that walks
	// after the run's fast-path accepts finds less in the two than its
	// size. After that, each run at leaf 6 begins within its guarantee,
	// runs it dry part-way, and borrows the rest from the pool.
	{"borrow-mid-run", 335, append(append(bytes.Repeat([]byte{2, 2, 15}, 14), 2|opStepDown, 6, 0x0B),
		drawDown([]byte{6, 2}, 7, 40, 8)...)},
	// Shape 357's root has its own 333 kbit/s, far below its leaves' 8.67
	// Mbit/s, and a 4167 B pool beside leaf 1's 62.5 KB guarantee: the pool
	// goes into debt, down to its floor, while the leaf still covers.
	{"pool-in-debt", 357, drawDown([]byte{1}, 3, 3, 40)},
}

// FuzzTreeLayoutEquivalence is the record layout's differential: arbitrary
// topologies and arbitrary single, burst and class-routed submissions at any
// node, clock steps in both directions, ceiling-rate changes and snapshot
// round trips must leave the tree and the struct-of-arrays reference
// agreeing on every verdict, counter, rate, token level, refill clock and
// snapshot byte.
func FuzzTreeLayoutEquivalence(f *testing.F) {
	for _, seed := range layoutSeeds {
		f.Add(seed.shape, seed.ops)
	}
	f.Fuzz(func(t *testing.T, shape uint64, ops []byte) {
		if d := newLayoutDiff(t, shape); d != nil {
			d.run(ops)
		}
	})
}

// TestTreeLayoutEquivalence runs the differential's named seeds, then a few
// hundred drawn topologies with long random op streams, so plain `go test`
// covers what the fuzz target's seed corpus only samples.
func TestTreeLayoutEquivalence(t *testing.T) {
	for _, seed := range layoutSeeds {
		t.Run(seed.name, func(t *testing.T) {
			if d := newLayoutDiff(t, seed.shape); d != nil {
				d.run(seed.ops)
			}
		})
	}
	r := rng.New(2024)
	ops := make([]byte, 3*400)
	for shape := uint64(0); shape < 300; shape++ {
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		if d := newLayoutDiff(t, shape); d != nil {
			d.run(ops)
			d.run(wholeBurstDrops(byte(shape), 30))
			d.run(routedRuns(30))
		}
	}
}
