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
	if tr.nodes[1].lastFill != time.Millisecond {
		t.Fatalf("first burst left the refill clock at %v", tr.nodes[1].lastFill)
	}
	tr.SubmitBatchAt(1300*time.Microsecond, 1, burst, verdicts)
	for i, v := range verdicts {
		if v != enforcer.Drop {
			t.Fatalf("packet %d of the second burst passed a drained ceiling", i)
		}
	}
	if got := tr.nodes[1].lastFill; got != time.Millisecond {
		t.Errorf("a burst dropped whole at the ceiling moved the leaf's refill clock to %v", got)
	}
	if got := tr.nodes[0].lastFill; got != time.Millisecond {
		t.Errorf("a burst dropped whole at the ceiling moved the pool's refill clock to %v", got)
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
		tr.Submit(now, burst[1])
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
// bursts, on any node including leaves; own-assured, pooled and unassured
// nodes; explicit bursts. Ceilings hold state, so each tree gets its own
// spec from the same shape.
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
	return spec
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
	if cap(tr.path) != ref.maxDepth {
		t.Fatalf("path scratch holds %d hops, the deepest path has %d", cap(tr.path), ref.maxDepth)
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
		if !same(n.tokens, d.ref.tokens[i]) || !same(n.burst, d.ref.burst[i]) || n.lastFill != d.ref.lastFill[i] {
			d.t.Fatalf("after %s: node %d tokens %v burst %v filled %v, reference %v %v %v", after, i,
				n.tokens, n.burst, n.lastFill, d.ref.tokens[i], d.ref.burst[i], d.ref.lastFill[i])
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
		size := 64 + (b&15)*96
		switch op % 8 {
		case 0, 1:
			p := pkt(a%5, size)
			if got, want := d.tr.SubmitAt(d.now, node, p), d.ref.SubmitAt(d.now, node, p); got != want {
				d.t.Fatalf("SubmitAt(%v, %d, %d B) = %v, reference %v", d.now, node, size, got, want)
			}
		case 2, 3, 4:
			burst := d.pkts[:1+b%len(d.pkts)]
			for k := range burst {
				burst[k] = pkt((a+k)%5, 64+((b+k*7)&15)*96)
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
			if got, want := d.tr.Submit(d.now, p), d.ref.Submit(d.now, p); got != want {
				d.t.Fatalf("Submit(%v, class %d) = %v, reference %v", d.now, p.Class, got, want)
			}
		case 6:
			rate := units.Rate(b&15) * units.Mbps / 2 // 0 takes the node out of the layer
			err, refErr := d.tr.SetNodeAssured(d.now, node, rate), d.ref.SetNodeAssured(d.now, node, rate)
			if (err != nil) != (refErr != nil) {
				d.t.Fatalf("SetNodeAssured(%d, %v): %v, reference %v", node, rate, err, refErr)
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

// FuzzTreeLayoutEquivalence is the record layout's differential: arbitrary
// topologies and arbitrary single, burst and class-routed submissions at any
// node, clock steps in both directions, assured-rate and ceiling-rate
// changes and snapshot round trips must leave the tree and the
// struct-of-arrays reference agreeing on every verdict, counter, rate,
// token level, refill clock and snapshot byte.
func FuzzTreeLayoutEquivalence(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 40, 2, 3, 200, 5, 0, 17, 6, 2, 3, 7, 0, 1, 131, 4, 250})
	// Shapes whose ceilings turn these bursts away whole: an eager refill
	// on entry fails both.
	f.Add(uint64(1), wholeBurstDrops(12, 40))
	f.Add(uint64(4), wholeBurstDrops(6, 40))
	f.Add(uint64(12), []byte{6, 0, 0, 6, 1, 0, 2, 5, 255, 6, 1, 9, 129, 1, 255, 3, 5, 75, 7, 0, 1})
	f.Fuzz(func(t *testing.T, shape uint64, ops []byte) {
		if d := newLayoutDiff(t, shape); d != nil {
			d.run(ops)
		}
	})
}

// TestTreeLayoutEquivalence runs the differential over a few hundred drawn
// topologies with long random op streams, so plain `go test` covers what the
// fuzz target's seed corpus only samples.
func TestTreeLayoutEquivalence(t *testing.T) {
	r := rng.New(2024)
	ops := make([]byte, 3*400)
	for shape := uint64(0); shape < 300; shape++ {
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		if d := newLayoutDiff(t, shape); d != nil {
			d.run(ops)
			d.run(wholeBurstDrops(byte(shape), 30))
		}
	}
}
