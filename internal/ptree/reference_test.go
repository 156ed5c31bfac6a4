package ptree

import (
	"fmt"
	"math"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

// refTree is the tree as it was before node state moved into one record per
// node: fourteen parallel n-long slices, floor and ownAssured stored rather
// than derived, the path re-walked and every assured bucket re-refilled for
// each packet. It is kept, logic untouched, as the reference model that
// FuzzTreeLayoutEquivalence compares Tree against; only what the comparison
// never calls (labels, per-node reconfigurer/snapshotter access, the root
// Reconfigurer forwarding) is gone.
type refTree struct {
	parent      []int32
	firstChild  []int32 // -1 = leaf
	nextSibling []int32 // -1 = last sibling
	stages      []enforcer.Stage
	leaves      []enforcer.NodeID
	maxDepth    int

	ownAssured []float64 // configured, bytes/sec
	effRate    []float64 // effective refill, bytes/sec
	burst      []float64 // bucket/pool capacity, bytes
	floor      []float64 // token floor: 0 for leaf buckets, -burst for pools
	tokens     []float64
	lastFill   []time.Duration

	accPkts  []int64
	accBytes []int64
	drpPkts  []int64
	drpBytes []int64

	stats enforcer.Stats

	path []int32
}

// refChain is two-phase admission at its plainest: probe every stage,
// outermost first, and commit to all only when all accept. droppedAt counts
// the drops of the first stage that refused. It is the reference
// TestChainEquivalence holds a unary Tree to.
type refChain struct {
	stages    []enforcer.Stage
	droppedAt []int64
	stats     enforcer.Stats
}

func newRefChain(stages []enforcer.Stage) *refChain {
	return &refChain{stages: stages, droppedAt: make([]int64, len(stages))}
}

func (c *refChain) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	for i, s := range c.stages {
		if !s.Probe(now, pkt) {
			c.droppedAt[i]++
			c.stats.Reject(pkt.Size)
			return enforcer.Drop
		}
	}
	for _, s := range c.stages {
		s.Commit(now, pkt)
	}
	c.stats.Accept(pkt.Size)
	return enforcer.Transmit
}

func newRefTree(spec []NodeSpec) (*refTree, error) {
	n := len(spec)
	if n == 0 {
		return nil, fmt.Errorf("ptree: empty spec")
	}
	if spec[0].Parent != -1 {
		return nil, fmt.Errorf("ptree: spec[0] must be the root (Parent -1, got %d)", spec[0].Parent)
	}
	t := &refTree{
		parent:      make([]int32, n),
		firstChild:  make([]int32, n),
		nextSibling: make([]int32, n),
		stages:      make([]enforcer.Stage, n),
		ownAssured:  make([]float64, n),
		effRate:     make([]float64, n),
		burst:       make([]float64, n),
		floor:       make([]float64, n),
		tokens:      make([]float64, n),
		lastFill:    make([]time.Duration, n),
		accPkts:     make([]int64, n),
		accBytes:    make([]int64, n),
		drpPkts:     make([]int64, n),
		drpBytes:    make([]int64, n),
	}
	for i, s := range spec {
		if i > 0 && (s.Parent < 0 || s.Parent >= i) {
			return nil, fmt.Errorf("ptree: node %d: parent %d not topologically ordered (want [0,%d))",
				i, s.Parent, i)
		}
		if s.Assured < 0 {
			return nil, fmt.Errorf("ptree: node %d: negative assured rate %v", i, s.Assured)
		}
		if s.Burst < 0 {
			return nil, fmt.Errorf("ptree: node %d: negative burst %d", i, s.Burst)
		}
		if s.Burst > 0 && s.Burst < units.MSS {
			return nil, fmt.Errorf("ptree: node %d: burst %d below one MSS", i, s.Burst)
		}
		t.parent[i] = int32(s.Parent)
		t.firstChild[i] = -1
		t.nextSibling[i] = -1
		t.stages[i] = s.Stage
		t.ownAssured[i] = s.Assured.BytesPerSecond()
	}
	t.parent[0] = -1
	for i := n - 1; i >= 1; i-- {
		p := t.parent[i]
		t.nextSibling[i] = t.firstChild[p]
		t.firstChild[p] = int32(i)
	}
	for i := n - 1; i >= 0; i-- {
		if t.ownAssured[i] > 0 {
			t.effRate[i] = t.ownAssured[i]
		}
		if p := t.parent[i]; p >= 0 && t.ownAssured[p] == 0 {
			t.effRate[p] += t.effRate[i]
		}
	}
	for i := 0; i < n; i++ {
		if spec[i].Burst > 0 && t.effRate[i] == 0 {
			return nil, fmt.Errorf("ptree: node %d: burst %d without an assured rate in its subtree",
				i, spec[i].Burst)
		}
		if t.effRate[i] == 0 {
			continue
		}
		if spec[i].Burst > 0 {
			t.burst[i] = float64(spec[i].Burst)
		} else {
			t.burst[i] = t.effRate[i] * DefaultBurstWindow.Seconds()
			if t.burst[i] < units.MSS {
				t.burst[i] = units.MSS
			}
		}
		t.tokens[i] = t.burst[i]
		if t.firstChild[i] != -1 {
			t.floor[i] = -t.burst[i]
		}
	}
	for i := 0; i < n; i++ {
		if t.firstChild[i] != -1 {
			continue
		}
		t.leaves = append(t.leaves, enforcer.NodeID(i))
		depth := 0
		for v := int32(i); v >= 0; v = t.parent[v] {
			depth++
		}
		if depth > t.maxDepth {
			t.maxDepth = depth
		}
	}
	t.path = make([]int32, 0, t.maxDepth)
	return t, nil
}

func (t *refTree) AssuredRate(node enforcer.NodeID) (configured, effective units.Rate) {
	if int(node) < 0 || int(node) >= len(t.parent) {
		return 0, 0
	}
	return units.Rate(t.ownAssured[node] * 8), units.Rate(t.effRate[node] * 8)
}

func (t *refTree) NodeStats(node enforcer.NodeID) (enforcer.Stats, error) {
	if int(node) < 0 || int(node) >= len(t.parent) {
		return enforcer.Stats{}, fmt.Errorf("ptree: node %d out of range [0,%d): %w",
			node, len(t.parent), enforcer.ErrBadNode)
	}
	return enforcer.Stats{
		AcceptedPackets: t.accPkts[node],
		AcceptedBytes:   t.accBytes[node],
		DroppedPackets:  t.drpPkts[node],
		DroppedBytes:    t.drpBytes[node],
	}, nil
}

func (t *refTree) EnforcerStats() enforcer.Stats { return t.stats }

func (t *refTree) fillPath(node enforcer.NodeID) []int32 {
	p := t.path[:0]
	for v := int32(node); v >= 0; v = t.parent[v] {
		p = append(p, v)
	}
	return p
}

func (t *refTree) refillNode(n int32, now time.Duration) {
	last := t.lastFill[n]
	if now <= last {
		return
	}
	t.lastFill[n] = now
	tok := t.tokens[n] + t.effRate[n]*(now-last).Seconds()
	if tok > t.burst[n] {
		tok = t.burst[n]
	}
	t.tokens[n] = tok
}

func (t *refTree) admit(now time.Duration, path []int32, pkt packet.Packet) enforcer.Verdict {
	for _, n := range path {
		if s := t.stages[n]; s != nil && !s.Probe(now, pkt) {
			t.drpPkts[n]++
			t.drpBytes[n] += int64(pkt.Size)
			t.stats.Reject(pkt.Size)
			return enforcer.Drop
		}
	}
	need := float64(pkt.Size)
	assured := false
	for _, n := range path {
		if t.effRate[n] <= 0 {
			continue
		}
		assured = true
		t.refillNode(n, now)
		if tok := t.tokens[n]; need > 0 && tok > 0 {
			if tok >= need {
				need = 0
			} else {
				need -= tok
			}
		}
	}
	if assured && need > 0 {
		n := path[0]
		t.drpPkts[n]++
		t.drpBytes[n] += int64(pkt.Size)
		t.stats.Reject(pkt.Size)
		return enforcer.Drop
	}
	for _, n := range path {
		if s := t.stages[n]; s != nil {
			s.Commit(now, pkt)
		}
		if t.effRate[n] > 0 {
			t.tokens[n] -= float64(pkt.Size)
			if floor := t.floor[n]; t.tokens[n] < floor {
				t.tokens[n] = floor
			}
		}
		t.accPkts[n]++
		t.accBytes[n] += int64(pkt.Size)
	}
	t.stats.Accept(pkt.Size)
	return enforcer.Transmit
}

func (t *refTree) SubmitAt(now time.Duration, node enforcer.NodeID, pkt packet.Packet) enforcer.Verdict {
	if int(node) < 0 || int(node) >= len(t.parent) {
		t.stats.Reject(pkt.Size)
		return enforcer.Drop
	}
	return t.admit(now, t.fillPath(node), pkt)
}

func (t *refTree) SubmitBatchAt(now time.Duration, node enforcer.NodeID, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	if int(node) < 0 || int(node) >= len(t.parent) {
		for i := range pkts {
			t.stats.Reject(pkts[i].Size)
			verdicts[i] = enforcer.Drop
		}
		return
	}
	path := t.fillPath(node)
	for i := range pkts {
		verdicts[i] = t.admit(now, path, pkts[i])
	}
}

func (t *refTree) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	return t.SubmitAt(now, t.leaves[pkt.ClassIn(len(t.leaves))], pkt)
}

func (t *refTree) SetNodeRate(now time.Duration, node enforcer.NodeID, rate units.Rate) error {
	if int(node) < 0 || int(node) >= len(t.parent) {
		return fmt.Errorf("ptree: node %d out of range [0,%d): %w",
			node, len(t.parent), enforcer.ErrBadNode)
	}
	r, ok := t.stages[node].(enforcer.Reconfigurer)
	if !ok || t.stages[node] == nil {
		return fmt.Errorf("ptree: node %d (%T): %w",
			node, t.stages[node], enforcer.ErrNotReconfigurable)
	}
	return r.SetRate(now, rate)
}

func (t *refTree) setEffRate(now time.Duration, n int32, eff float64) {
	if eff == t.effRate[n] {
		return
	}
	if t.effRate[n] > 0 {
		t.refillNode(n, now)
	}
	t.effRate[n] = eff
	switch {
	case eff == 0:
		t.burst[n], t.tokens[n] = 0, 0
	case t.burst[n] == 0:
		b := eff * DefaultBurstWindow.Seconds()
		if b < units.MSS {
			b = units.MSS
		}
		t.burst[n], t.tokens[n] = b, b
		t.lastFill[n] = now
	}
	t.floor[n] = 0
	if t.firstChild[n] != -1 {
		t.floor[n] = -t.burst[n]
	}
	if t.tokens[n] < t.floor[n] {
		t.tokens[n] = t.floor[n]
	}
}

func (t *refTree) childEffSum(n int32) float64 {
	var s float64
	for c := t.firstChild[n]; c >= 0; c = t.nextSibling[c] {
		s += t.effRate[c]
	}
	return s
}

func (t *refTree) SetNodeAssured(now time.Duration, node enforcer.NodeID, rate units.Rate) error {
	if int(node) < 0 || int(node) >= len(t.parent) {
		return fmt.Errorf("ptree: node %d out of range [0,%d): %w",
			node, len(t.parent), enforcer.ErrBadNode)
	}
	if rate < 0 {
		return fmt.Errorf("ptree: node %d: negative assured rate %v", node, rate)
	}
	n := int32(node)
	t.ownAssured[n] = rate.BytesPerSecond()
	eff := t.ownAssured[n]
	if eff == 0 {
		eff = t.childEffSum(n)
	}
	t.setEffRate(now, n, eff)
	for p := t.parent[n]; p >= 0; p = t.parent[p] {
		if t.ownAssured[p] > 0 {
			break
		}
		t.setEffRate(now, p, t.childEffSum(p))
	}
	return nil
}

func (t *refTree) SnapshotState() ([]byte, error) {
	var e enforcer.Enc
	e.U8(treeSnapVersion)
	e.Stats(t.stats)
	e.U32(uint32(len(t.parent)))
	for i := range t.parent {
		var blob []byte
		if s := t.stages[i]; s != nil {
			snap, ok := s.(enforcer.Snapshotter)
			if !ok {
				return nil, fmt.Errorf("ptree: node %d (%T): %w", i, s, enforcer.ErrNotSnapshottable)
			}
			var err error
			if blob, err = snap.SnapshotState(); err != nil {
				return nil, fmt.Errorf("ptree: snapshotting node %d: %w", i, err)
			}
		}
		e.U32(uint32(i))
		e.I64(int64(t.parent[i]))
		e.F64(t.tokens[i])
		e.Dur(t.lastFill[i])
		e.I64(t.accPkts[i])
		e.I64(t.accBytes[i])
		e.I64(t.drpPkts[i])
		e.I64(t.drpBytes[i])
		e.Bytes(blob)
	}
	return e.Out(), nil
}

func (t *refTree) RestoreState(data []byte) error {
	d := enforcer.NewDec(data)
	if v := d.U8(); d.Err() == nil && v != treeSnapVersion {
		d.Fail("ptree: unsupported snapshot version %d (want %d)", v, treeSnapVersion)
	}
	stats := d.Stats()
	n := len(t.parent)
	if cnt := d.U32(); d.Err() == nil && int(cnt) != n {
		d.Fail("ptree: snapshot has %d nodes, tree has %d", cnt, n)
	}
	if d.Err() != nil {
		return d.Err()
	}
	parents := make([]int64, n)
	tokens := make([]float64, n)
	lastFill := make([]time.Duration, n)
	counters := make([][4]int64, n)
	blobs := make([][]byte, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		idx := d.U32()
		if d.Err() == nil && int(idx) != i {
			d.Fail("ptree: node entry %d carries index %d (duplicate, out-of-order, or out-of-range node)", i, idx)
		}
		parents[i] = d.I64()
		tokens[i] = d.F64()
		lastFill[i] = d.Dur()
		for k := 0; k < 4; k++ {
			counters[i][k] = d.I64()
		}
		blobs[i] = d.Bytes()
		if d.Err() != nil {
			break
		}
		switch p := parents[i]; {
		case i == 0 && p != -1:
			d.Fail("ptree: root entry has parent %d (want -1)", p)
		case i > 0 && p == -1:
			d.Fail("ptree: node %d claims to be a second root", i)
		case i > 0 && (p < 0 || p >= int64(n)):
			d.Fail("ptree: node %d parent %d out of range [0,%d)", i, p, n)
		case p == int64(i):
			d.Fail("ptree: node %d is its own parent", i)
		case math.IsNaN(tokens[i]) || math.IsInf(tokens[i], 0) || tokens[i] > t.burst[i]:
			d.Fail("ptree: node %d tokens %g above capacity %g (or not finite)", i, tokens[i], t.burst[i])
		case tokens[i] < 0 && (t.firstChild[i] == -1 || t.effRate[i] == 0):
			d.Fail("ptree: node %d negative tokens %g on a non-pool node", i, tokens[i])
		case tokens[i] < t.floor[i]:
			d.Fail("ptree: node %d tokens %g below the pool debt floor %g", i, tokens[i], t.floor[i])
		case lastFill[i] < 0:
			d.Fail("ptree: node %d negative refill clock %v", i, lastFill[i])
		case counters[i][0] < 0 || counters[i][1] < 0 || counters[i][2] < 0 || counters[i][3] < 0:
			d.Fail("ptree: node %d negative counters", i)
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		steps := 0
		for v := int64(i); v >= 0; v = parents[v] {
			if steps++; steps > n {
				return fmt.Errorf("ptree: snapshot topology has a cycle through node %d", i)
			}
		}
	}
	for i := 0; i < n; i++ {
		if parents[i] != int64(t.parent[i]) {
			return fmt.Errorf("ptree: snapshot node %d has parent %d, tree has %d",
				i, parents[i], t.parent[i])
		}
		if t.stages[i] == nil && len(blobs[i]) > 0 {
			return fmt.Errorf("ptree: snapshot node %d carries a ceiling blob, tree node has no ceiling", i)
		}
	}
	snaps := make([]enforcer.Snapshotter, n)
	for i, s := range t.stages {
		if s == nil {
			continue
		}
		snap, ok := s.(enforcer.Snapshotter)
		if !ok {
			return fmt.Errorf("ptree: node %d (%T): %w", i, s, enforcer.ErrNotSnapshottable)
		}
		snaps[i] = snap
	}
	for i, snap := range snaps {
		if snap == nil {
			continue
		}
		if err := snap.RestoreState(blobs[i]); err != nil {
			return fmt.Errorf("ptree: restoring node %d: %w", i, err)
		}
	}
	t.stats = stats
	for i := 0; i < n; i++ {
		t.tokens[i] = tokens[i]
		t.lastFill[i] = lastFill[i]
		t.accPkts[i] = counters[i][0]
		t.accBytes[i] = counters[i][1]
		t.drpPkts[i] = counters[i][2]
		t.drpBytes[i] = counters[i][3]
	}
	return nil
}
