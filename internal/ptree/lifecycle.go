package ptree

import (
	"fmt"
	"math"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/units"
)

// treeSnapVersion is the format version of Tree snapshot blobs.
const treeSnapVersion = 2

// nodeReconfigurer returns the node's ceiling stage as a Reconfigurer, for
// in-place rate changes.
func (t *Tree) nodeReconfigurer(node enforcer.NodeID) (enforcer.Reconfigurer, error) {
	if !t.inRange(node) {
		return nil, t.errBadNode(node)
	}
	stage := t.ceiling(&t.nodes[node])
	r, ok := stage.(enforcer.Reconfigurer)
	if !ok {
		return nil, fmt.Errorf("ptree: node %d (%T): %w", node, stage, enforcer.ErrNotReconfigurable)
	}
	return r, nil
}

// SetRate implements enforcer.Reconfigurer by forwarding to the root
// ceiling — retargeting the whole tree's aggregate limit, the operation a
// link-capacity change maps to. Like every Reconfigurer, the old
// rate's accounting is settled first, so acceptance over any
// reconfiguration obeys the piecewise bound r₁·Δt₁ + r₂·Δt₂ + B.
func (t *Tree) SetRate(now time.Duration, rate units.Rate) error {
	r, err := t.nodeReconfigurer(enforcer.Root)
	if err != nil {
		return err
	}
	return r.SetRate(now, rate)
}

// SnapshotState implements enforcer.Snapshotter: the tree's verdict
// accounting plus every node's borrow-layer state, counters and ceiling
// blob, in index order.
//
// Layout: u8 version (=2), stats, u32 node count, then per node: u32
// index, i64 parent, f64 tokens, dur lastFill age at now (0 under a full
// bucket, where refill ignores it), i64 ×4 (accepted pkts/bytes, dropped
// pkts/bytes), length-prefixed ceiling blob taken at the same now (empty
// for stageless nodes). The index and parent fields are config echo: they
// let the decoder structurally validate an untrusted blob — ordering,
// duplicate nodes, cycles — before trusting any of it.
func (t *Tree) SnapshotState(now time.Duration) ([]byte, error) {
	// Ceiling blobs first: with their lengths the encoder is sized exactly
	// and never regrown.
	blobs := make([][]byte, len(t.ceilings))
	size := snapHeaderBytes + len(t.nodes)*snapEntryBytes
	for i := range t.nodes {
		c := t.nodes[i].ceiling
		if c < 0 {
			continue
		}
		snap, ok := t.ceilings[c].stage.(enforcer.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("ptree: node %d (%T): %w", i, t.ceilings[c].stage, enforcer.ErrNotSnapshottable)
		}
		var err error
		if blobs[c], err = snap.SnapshotState(now); err != nil {
			return nil, fmt.Errorf("ptree: snapshotting node %d: %w", i, err)
		}
		size += len(blobs[c])
	}
	var e enforcer.Enc
	e.Grow(size)
	e.U8(treeSnapVersion)
	e.Stats(t.stats)
	e.U32(uint32(len(t.nodes)))
	for i := range t.nodes {
		n := &t.nodes[i]
		e.U32(uint32(i))
		e.I64(int64(n.parent))
		e.F64(n.tokens)
		e.Age(now, n.lastFill, n.tokens < n.burst)
		e.I64(n.accPkts)
		e.I64(n.accBytes)
		e.I64(t.drpPkts[i])
		e.I64(t.drpBytes[i])
		if n.ceiling >= 0 {
			e.Bytes(blobs[n.ceiling])
		} else {
			e.Bytes(nil)
		}
	}
	return e.Out(), nil
}

// Encoded sizes: the header (version, stats, node count) and one node entry
// with an empty ceiling blob.
const (
	snapHeaderBytes = 1 + 4*8 + 4
	snapEntryBytes  = 4 + 8 + 8 + 8 + 4*8 + 4
)

// snapEntry is one decoded node entry; blob aliases the input.
type snapEntry struct {
	parent   int64
	tokens   float64
	lastFill time.Duration
	accPkts  int64
	accBytes int64
	drpPkts  int64
	drpBytes int64
	blob     []byte
}

// snapHeader decodes a blob's header against the receiver's node count.
func (t *Tree) snapHeader(d *enforcer.Dec) enforcer.Stats {
	if v := d.U8(); d.Err() == nil && v != treeSnapVersion {
		d.Fail("ptree: unsupported snapshot version %d (want %d)", v, treeSnapVersion)
	}
	stats := d.Stats()
	if cnt := d.U32(); d.Err() == nil && int(cnt) != len(t.nodes) {
		d.Fail("ptree: snapshot has %d nodes, tree has %d", cnt, len(t.nodes))
	}
	return stats
}

// snapNode decodes entry i at the receiver's now and checks it: against the
// blob's own framing (index order, a parent that precedes its child — a blob
// whose parents all do cannot hold a cycle or a second root), against the
// receiver's topology and ceilings, and against the ranges node i's state
// can take. The refill clock is an age (enforcer.Dec.Instant): a negative
// rebuilt clock is legal, an age whose clock overflows is not.
func (t *Tree) snapNode(d *enforcer.Dec, now time.Duration, i int) snapEntry {
	idx := d.U32()
	if d.Err() == nil && int(idx) != i {
		d.Fail("ptree: node entry %d carries index %d (duplicate, out-of-order, or out-of-range node)", i, idx)
	}
	e := snapEntry{
		parent: d.I64(), tokens: d.F64(), lastFill: d.Instant(now),
		accPkts: d.I64(), accBytes: d.I64(), drpPkts: d.I64(), drpBytes: d.I64(),
		blob: d.Bytes(),
	}
	if d.Err() != nil {
		return e
	}
	n := &t.nodes[i]
	switch p := e.parent; {
	case i == 0 && p != -1:
		d.Fail("ptree: root entry has parent %d (want -1)", p)
	case i > 0 && p == -1:
		d.Fail("ptree: node %d claims to be a second root", i)
	case i > 0 && (p < 0 || p >= int64(len(t.nodes))):
		d.Fail("ptree: node %d parent %d out of range [0,%d)", i, p, len(t.nodes))
	case p >= int64(i):
		d.Fail("ptree: node %d parent %d does not precede it (self-parented, cyclic or unordered topology)", i, p)
	case p != int64(n.parent):
		d.Fail("ptree: snapshot node %d has parent %d, tree has %d", i, p, n.parent)
	case math.IsNaN(e.tokens) || math.IsInf(e.tokens, 0) || e.tokens > n.burst:
		d.Fail("ptree: node %d tokens %g above capacity %g (or not finite)", i, e.tokens, n.burst)
	case e.tokens < 0 && (!n.interior() || n.effRate == 0):
		// Only interior borrow pools may carry debt; leaf guarantee
		// buckets clamp at zero and non-participating nodes hold none.
		d.Fail("ptree: node %d negative tokens %g on a non-pool node", i, e.tokens)
	case e.tokens < n.floor():
		d.Fail("ptree: node %d tokens %g below the pool debt floor %g", i, e.tokens, n.floor())
	case e.accPkts < 0 || e.accBytes < 0 || e.drpPkts < 0 || e.drpBytes < 0:
		d.Fail("ptree: node %d negative counters", i)
	case n.ceiling < 0:
		if len(e.blob) > 0 {
			d.Fail("ptree: snapshot node %d carries a ceiling blob, tree node has no ceiling", i)
		}
	default:
		// Every ceiling must be snapshottable before any is restored, so a
		// structural mismatch cannot leave the tree half-restored.
		if _, ok := t.ceilings[n.ceiling].stage.(enforcer.Snapshotter); !ok {
			d.Fail("ptree: node %d (%T): %w", i, t.ceilings[n.ceiling].stage, enforcer.ErrNotSnapshottable)
		}
	}
	return e
}

// RestoreState implements enforcer.Snapshotter. The receiver must be built
// over the same topology and per-node configuration. The blob is decoded
// twice and nothing n-sized is staged: a first pass validates all of it —
// node ordering, duplicates, parent range, multiple roots, cycles, the
// receiver's topology, token ranges, refill-clock ages — before any receiver
// state is touched, and a second applies it; only per-node ceiling blob
// errors can interrupt that (after which, like every Snapshotter, the
// receiver is discardable).
func (t *Tree) RestoreState(now time.Duration, data []byte) error {
	d := enforcer.NewDec(data)
	t.snapHeader(d)
	for i := 0; i < len(t.nodes) && d.Err() == nil; i++ {
		t.snapNode(d, now, i)
	}
	if err := d.Finish(); err != nil {
		return err
	}

	d = enforcer.NewDec(data)
	stats := t.snapHeader(d)
	for i := range t.nodes {
		e := t.snapNode(d, now, i)
		n := &t.nodes[i]
		if n.ceiling >= 0 {
			if err := t.ceilings[n.ceiling].stage.(enforcer.Snapshotter).RestoreState(now, e.blob); err != nil {
				return fmt.Errorf("ptree: restoring node %d: %w", i, err)
			}
		}
		n.tokens, n.lastFill = e.tokens, e.lastFill
		n.accPkts, n.accBytes = e.accPkts, e.accBytes
		t.drpPkts[i], t.drpBytes[i] = e.drpPkts, e.drpBytes
	}
	t.stats = stats
	return nil
}

var _ enforcer.Reconfigurer = (*Tree)(nil)
var _ enforcer.Snapshotter = (*Tree)(nil)
