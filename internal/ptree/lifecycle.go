package ptree

import (
	"fmt"
	"math"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// treeSnapVersion is the format version of Tree snapshot blobs.
const treeSnapVersion = 1

// NodeReconfigurer implements enforcer.TreeEnforcer, exposing the node's
// ceiling stage for in-place rate/policy changes.
func (t *Tree) NodeReconfigurer(node enforcer.NodeID) (enforcer.Reconfigurer, error) {
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

// SetNodeRate changes one node's ceiling rate in place. Like every
// Reconfigurer, the old rate's accounting is settled first, so acceptance
// over any reconfiguration obeys the piecewise bound r₁·Δt₁ + r₂·Δt₂ + B.
func (t *Tree) SetNodeRate(now time.Duration, node enforcer.NodeID, rate units.Rate) error {
	r, err := t.NodeReconfigurer(node)
	if err != nil {
		return err
	}
	return r.SetRate(now, rate)
}

// SetNodePolicy changes one node's ceiling rate-sharing policy in place.
func (t *Tree) SetNodePolicy(now time.Duration, node enforcer.NodeID, policy *sched.Policy) error {
	r, err := t.NodeReconfigurer(node)
	if err != nil {
		return err
	}
	return r.SetPolicy(now, policy)
}

// setEffRate retargets one node's effective refill rate, settling accrued
// income at the old rate first (the same settle-then-switch discipline as
// tbf.SetRate). A node joining the assured layer gets a fresh full default
// bucket; one leaving it drops its bucket entirely.
func (n *node) setEffRate(now time.Duration, eff float64) {
	if eff == n.effRate {
		return
	}
	if n.effRate > 0 {
		n.refill(now)
	}
	n.effRate = eff
	switch {
	case eff == 0:
		n.burst, n.tokens = 0, 0
	case n.burst == 0:
		n.burst = defaultBurst(eff)
		n.tokens = n.burst
		n.lastFill = now
	}
	if floor := n.floor(); n.tokens < floor {
		n.tokens = floor
	}
}

// childEffSum is an interior node's lend rate: the sum of its children's
// effective rates, in index order.
func (t *Tree) childEffSum(n int32) float64 {
	var s float64
	for c := t.firstChild[n]; c >= 0; c = t.nodes[c].next {
		s += t.nodes[c].effRate
	}
	return s
}

// SetNodeAssured changes one node's assured rate in place and re-derives
// the lend rates of every ancestor pool that inherits from its children
// (propagation stops at the first ancestor with its own assured rate).
// Every touched bucket settles income at its old rate before switching, so
// borrow-layer admission obeys the same piecewise bound as ceiling
// reconfiguration. Zero removes the node from the assured layer.
func (t *Tree) SetNodeAssured(now time.Duration, node enforcer.NodeID, rate units.Rate) error {
	if !t.inRange(node) {
		return t.errBadNode(node)
	}
	if rate < 0 {
		return fmt.Errorf("ptree: node %d: negative assured rate %v", node, rate)
	}
	n := &t.nodes[node]
	eff := rate.BytesPerSecond()
	if eff > 0 {
		n.flags |= flagOwn
	} else {
		n.flags &^= flagOwn
		eff = t.childEffSum(int32(node))
	}
	n.setEffRate(now, eff)
	for p := n.parent; p >= 0; {
		pool := &t.nodes[p]
		if pool.own() {
			break
		}
		pool.setEffRate(now, t.childEffSum(p))
		p = pool.parent
	}
	return nil
}

// SetRate implements enforcer.Reconfigurer by forwarding to the root
// ceiling — retargeting the whole tree's aggregate limit, the operation a
// link-capacity change maps to. Per-node changes go through SetNodeRate.
func (t *Tree) SetRate(now time.Duration, rate units.Rate) error {
	return t.SetNodeRate(now, 0, rate)
}

// SetPolicy implements enforcer.Reconfigurer by forwarding to the root
// ceiling (see SetRate for why).
func (t *Tree) SetPolicy(now time.Duration, policy *sched.Policy) error {
	return t.SetNodePolicy(now, 0, policy)
}

// NodeSnapshotter implements enforcer.TreeEnforcer, exposing the node's
// ceiling stage for per-node state capture.
func (t *Tree) NodeSnapshotter(node enforcer.NodeID) (enforcer.Snapshotter, error) {
	if !t.inRange(node) {
		return nil, t.errBadNode(node)
	}
	stage := t.ceiling(&t.nodes[node])
	snap, ok := stage.(enforcer.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("ptree: node %d (%T): %w", node, stage, enforcer.ErrNotSnapshottable)
	}
	return snap, nil
}

// SnapshotState implements enforcer.Snapshotter: the tree's verdict
// accounting plus every node's borrow-layer state, counters and ceiling
// blob, in index order.
//
// Layout: u8 version, stats, u32 node count, then per node: u32 index,
// i64 parent, f64 tokens, dur lastFill, i64 ×4 (accepted pkts/bytes,
// dropped pkts/bytes), length-prefixed ceiling blob (empty for stageless
// nodes). The index and parent fields are config echo: they let the
// decoder structurally validate an untrusted blob — ordering, duplicate
// nodes, cycles — before trusting any of it.
func (t *Tree) SnapshotState() ([]byte, error) {
	// Ceiling blobs first: with their lengths the encoder is sized exactly
	// and never regrown.
	blobs := make([][]byte, len(t.ceilings))
	size := snapHeaderBytes + len(t.nodes)*snapEntryBytes
	for i := range t.nodes {
		c := t.nodes[i].ceiling
		if c < 0 {
			continue
		}
		snap, ok := t.ceilings[c].(enforcer.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("ptree: node %d (%T): %w", i, t.ceilings[c], enforcer.ErrNotSnapshottable)
		}
		var err error
		if blobs[c], err = snap.SnapshotState(); err != nil {
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
		e.Dur(n.lastFill)
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

// snapNode decodes entry i and checks it: against the blob's own framing
// (index order, a parent that precedes its child — a blob whose parents all
// do cannot hold a cycle or a second root), against the receiver's topology
// and ceilings, and against the ranges node i's state can take.
func (t *Tree) snapNode(d *enforcer.Dec, i int) snapEntry {
	idx := d.U32()
	if d.Err() == nil && int(idx) != i {
		d.Fail("ptree: node entry %d carries index %d (duplicate, out-of-order, or out-of-range node)", i, idx)
	}
	e := snapEntry{
		parent: d.I64(), tokens: d.F64(), lastFill: d.Dur(),
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
	case e.lastFill < 0:
		d.Fail("ptree: node %d negative refill clock %v", i, e.lastFill)
	case e.accPkts < 0 || e.accBytes < 0 || e.drpPkts < 0 || e.drpBytes < 0:
		d.Fail("ptree: node %d negative counters", i)
	case n.ceiling < 0:
		if len(e.blob) > 0 {
			d.Fail("ptree: snapshot node %d carries a ceiling blob, tree node has no ceiling", i)
		}
	default:
		// Every ceiling must be snapshottable before any is restored, so a
		// structural mismatch cannot leave the tree half-restored.
		if _, ok := t.ceilings[n.ceiling].(enforcer.Snapshotter); !ok {
			d.Fail("ptree: node %d (%T): %w", i, t.ceilings[n.ceiling], enforcer.ErrNotSnapshottable)
		}
	}
	return e
}

// RestoreState implements enforcer.Snapshotter. The receiver must be built
// over the same topology and per-node configuration. The blob is decoded
// twice and nothing n-sized is staged: a first pass validates all of it —
// node ordering, duplicates, parent range, multiple roots, cycles, the
// receiver's topology, token ranges — before any receiver state is touched,
// and a second applies it; only per-node ceiling blob errors can interrupt
// that (after which, like every Snapshotter, the receiver is discardable).
func (t *Tree) RestoreState(data []byte) error {
	d := enforcer.NewDec(data)
	t.snapHeader(d)
	for i := 0; i < len(t.nodes) && d.Err() == nil; i++ {
		t.snapNode(d, i)
	}
	if err := d.Finish(); err != nil {
		return err
	}

	d = enforcer.NewDec(data)
	stats := t.snapHeader(d)
	for i := range t.nodes {
		e := t.snapNode(d, i)
		n := &t.nodes[i]
		if n.ceiling >= 0 {
			if err := t.ceilings[n.ceiling].(enforcer.Snapshotter).RestoreState(e.blob); err != nil {
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
