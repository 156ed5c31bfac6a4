package ptree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
	"bcpqp/internal/units"
)

// runTraffic pushes a deterministic randomized load through the tree so
// snapshots carry non-trivial state.
func runTraffic(tr *Tree, seed uint64, horizon time.Duration) {
	r := rng.New(seed)
	leaves := tr.Leaves()
	now := time.Duration(0)
	for now < horizon {
		leaf := leaves[r.IntN(len(leaves))]
		for k, np := 0, 1+r.IntN(16); k < np; k++ {
			tr.SubmitAt(now, leaf, pkt(int(leaf), 64+r.IntN(units.MSS-64)))
		}
		now += time.Duration(r.IntN(int(2 * time.Millisecond)))
	}
}

// TestSnapshotRoundTrip: a warm tree's state moves onto an identically
// configured cold tree whose clock starts again at zero, as a restarted
// process's does, and which then produces byte-identical verdicts and
// snapshots to the warm tree carrying on along its own timeline.
func TestSnapshotRoundTrip(t *testing.T) {
	const shift = 2 * time.Second // the warm tree's clock minus the cold one's
	warm, cold := tenantPlanSub(), tenantPlanSub()
	runTraffic(warm, 99, 2*time.Second)
	blob, err := warm.SnapshotState(shift)
	if err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	if err := cold.RestoreState(0, blob); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if ws, cs := warm.EnforcerStats(), cold.EnforcerStats(); ws != cs {
		t.Fatalf("restored stats %+v, want %+v", cs, ws)
	}
	for i := 0; i < warm.NumNodes(); i++ {
		ws, _ := warm.NodeStats(enforcer.NodeID(i))
		cs, _ := cold.NodeStats(enforcer.NodeID(i))
		if ws != cs {
			t.Fatalf("node %d restored stats %+v, want %+v", i, cs, ws)
		}
	}
	// Post-restore the two trees are the same machine on clocks shift
	// apart: identical verdicts on identical continued traffic, and
	// identical snapshots at the end.
	r := rng.New(7)
	leaves := warm.Leaves()
	now := shift
	for ; now < 3*time.Second; now += time.Duration(r.IntN(int(time.Millisecond))) {
		leaf := leaves[r.IntN(len(leaves))]
		p := pkt(int(leaf), 64+r.IntN(units.MSS-64))
		if vw, vc := warm.SubmitAt(now, leaf, p), cold.SubmitAt(now-shift, leaf, p); vw != vc {
			t.Fatalf("post-restore divergence at %v: warm %v, cold %v", now, vw, vc)
		}
	}
	wb, _ := warm.SnapshotState(now)
	cb, _ := cold.SnapshotState(now - shift)
	if !bytes.Equal(wb, cb) {
		t.Fatalf("snapshots diverged after the shifted restore:\nwarm %x\ncold %x", wb, cb)
	}
}

// mutateAt returns a copy of blob with one byte changed.
func mutateAt(blob []byte, off int, b byte) []byte {
	m := append([]byte(nil), blob...)
	m[off] = b
	return m
}

// TestSnapshotRejection: structurally broken blobs are rejected before any
// receiver state is touched.
func TestSnapshotRejection(t *testing.T) {
	warm := tenantPlanSub()
	runTraffic(warm, 5, time.Second)
	blob, err := warm.SnapshotState(time.Second)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, bad []byte) {
		t.Helper()
		cold := tenantPlanSub()
		before, _ := cold.SnapshotState(time.Second)
		if err := cold.RestoreState(time.Second, bad); err == nil {
			t.Errorf("%s: accepted", name)
			return
		}
		after, _ := cold.SnapshotState(time.Second)
		if string(before) != string(after) {
			t.Errorf("%s: rejected blob still mutated the receiver", name)
		}
	}

	check("empty", nil)
	check("bad version", mutateAt(blob, 0, treeSnapVersion+1))
	check("truncated", blob[:len(blob)-3])
	check("trailing garbage", append(append([]byte(nil), blob...), 0xff))
	// Node entry 0 carrying index 1 reads as a duplicate/out-of-order node.
	// Layout: u8 version, stats (4×i64 = 32 bytes), u32 count, then entries
	// beginning with their u32 index.
	check("duplicate node index", mutateAt(blob, 1+32+4, 1))
	// Topology echo mismatches: node 1's parent field (i64 after its u32
	// index). Entry 0 spans 4+8+8+8+4*8+4+len(rootBlob); find node 1's
	// parent by decoding offsets is brittle — instead flip entry 0's parent
	// from -1 to 0 (self-parent ⇒ cycle/second-root class rejections).
	check("root with parent", mutateAt(blob, 1+32+4+4, 0x00))
	// Entry 0's refill clock, an age after its index, parent and tokens: the
	// most negative one names an instant past the end of time.
	overflow := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(overflow[1+32+4+4+8+8:], 1<<63)
	check("refill-clock age overflows", overflow)

	// Wrong shape: a snapshot of a different topology never applies.
	other := MustNew([]NodeSpec{
		{Name: "root", Parent: -1, Stage: newTBF(20 * units.Mbps)},
		{Name: "leaf", Parent: 0, Assured: 5 * units.Mbps},
	})
	oblob, err := other.SnapshotState(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	check("node count mismatch", oblob)
}

// TestSnapshotPoolDebt: a borrow pool's negative ledger survives the round
// trip — and negative tokens on leaf guarantee buckets, or below a pool's
// -burst debt floor, are rejected.
func TestSnapshotPoolDebt(t *testing.T) {
	mk := func() *Tree {
		return MustNew([]NodeSpec{
			{Name: "root", Parent: -1},
			{Name: "x", Parent: 0, Assured: 5 * units.Mbps},
			{Name: "y", Parent: 0, Assured: 5 * units.Mbps},
		})
	}
	warm := mk()
	// Engineer a debt moment: empty x's bucket and the pool, then wait
	// 900µs — x's bucket holds 562 B, the pool 1125 B, together covering
	// one MSS — and send one packet. The commit charges the pool the full
	// packet size, driving its ledger negative (x's guarantee clamps at
	// zero).
	warm.nodes[0].tokens, warm.nodes[1].tokens = 0, 0
	if v := warm.SubmitAt(900*time.Microsecond, 1, pkt(1, units.MSS)); v != enforcer.Transmit {
		t.Fatalf("engineered borrow packet dropped")
	}
	if warm.nodes[0].tokens >= 0 {
		t.Fatalf("expected root pool in debt, tokens = %g", warm.nodes[0].tokens)
	}
	blob, err := warm.SnapshotState(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cold := mk()
	if err := cold.RestoreState(time.Second, blob); err != nil {
		t.Fatalf("RestoreState rejected legitimate pool debt: %v", err)
	}
	if cold.nodes[0].tokens != warm.nodes[0].tokens {
		t.Errorf("debt not restored: %g, want %g", cold.nodes[0].tokens, warm.nodes[0].tokens)
	}

	// An interior node with its own assured rate is still a ledger, so
	// the same debt applies to a guarded variant of the tree too.
	guarded := MustNew([]NodeSpec{
		{Name: "root", Parent: -1, Assured: 10 * units.Mbps},
		{Name: "x", Parent: 0, Assured: 5 * units.Mbps},
		{Name: "y", Parent: 0, Assured: 5 * units.Mbps},
	})
	if err := guarded.RestoreState(time.Second, blob); err != nil {
		t.Errorf("RestoreState rejected pool debt on an own-assured interior node: %v", err)
	}

	// Debt is only legal on interior pools, and only down to -burst: a
	// leaf guarantee bucket in debt and a below-floor ledger are both
	// rejected before any state is touched.
	warm.nodes[1].tokens = -100
	leafDebt, err := warm.SnapshotState(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := mk().RestoreState(time.Second, leafDebt); err == nil {
		t.Error("negative tokens accepted on a leaf guarantee bucket")
	}
	warm.nodes[1].tokens = 0
	warm.nodes[0].tokens = warm.nodes[0].floor() - 1
	deepDebt, err := warm.SnapshotState(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := mk().RestoreState(time.Second, deepDebt); err == nil {
		t.Error("tokens below the -burst debt floor accepted")
	}
}

// TestSnapshotCeilingMismatch: per-node ceiling blobs only apply to nodes
// that actually carry a ceiling.
func TestSnapshotCeilingMismatch(t *testing.T) {
	warm := tenantPlanSub()
	blob, err := warm.SnapshotState(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bare := MustNew([]NodeSpec{
		{Name: "link", Parent: -1}, // no ceiling here
		{Name: "planA", Parent: 0, Stage: newTBF(12 * units.Mbps)},
		{Name: "planB", Parent: 0, Stage: newTBF(12 * units.Mbps)},
		{Name: "a1", Parent: 1, Assured: 4 * units.Mbps},
		{Name: "a2", Parent: 1, Assured: 4 * units.Mbps},
		{Name: "b1", Parent: 2, Assured: 4 * units.Mbps},
		{Name: "b2", Parent: 2, Assured: 4 * units.Mbps},
	})
	if err := bare.RestoreState(time.Second, blob); err == nil {
		t.Error("ceiling blob accepted by a ceiling-less node")
	}
}

// TestSnapshotErrNotSnapshottable: a tree with a non-snapshottable ceiling
// refuses to snapshot with the typed sentinel.
type opaqueStage struct{}

func (opaqueStage) Probe(time.Duration, *packet.Packet) bool { return true }
func (opaqueStage) Commit(time.Duration, *packet.Packet)     {}

func TestSnapshotErrNotSnapshottable(t *testing.T) {
	tr := MustNew([]NodeSpec{{Parent: -1, Stage: opaqueStage{}}})
	if _, err := tr.SnapshotState(time.Second); !errors.Is(err, enforcer.ErrNotSnapshottable) {
		t.Errorf("SnapshotState: %v, want ErrNotSnapshottable", err)
	}
	if _, err := tr.NodeSnapshotter(0); !errors.Is(err, enforcer.ErrNotSnapshottable) {
		t.Errorf("NodeSnapshotter: %v, want ErrNotSnapshottable", err)
	}
}
