package main

import (
	"runtime"
	"time"

	"bcpqp"
)

// tree_deep: PolicyTree.SubmitBatchAt on a three-level HTB-shaped tree —
// root ceiling → pool ceiling → assured leaf — with a seeded random leaf per
// burst. The root ceiling is the level that binds: leaves are offered 2× the
// root's rate in total, spread evenly, while pool ceilings and leaf
// guarantees leave headroom, so about half of every burst is policed at the
// root after walking the whole path.

const (
	treePools        = 1000
	treeLeavesPer    = 1000
	treeRootRate     = 400 * bcpqp.Gbps
	treePoolRate     = 1 * bcpqp.Gbps
	treeLeafAssured  = 10 * bcpqp.Mbps
	treeLoad         = 2.0
	treeRootBucketMs = 10 // root token bucket, in ms at the root rate
)

type treeRig struct {
	latencyBuf
	tree     *bcpqp.PolicyTree
	pools    int
	leafBase int
	leaves   int
	clk      vclock
	stepNs   int64
	arr      *arrivals
	tmpl     [skewSlots][]bcpqp.Packet
	verdicts []bcpqp.Verdict
	tr       *tracer

	offered   int64
	delivered int64
	bucket    int64 // root bucket: the Theorem 1 allowance
	nodeBytes float64
	buildNs   int64
}

// buildTree makes a pools × leavesPer tree; cfg.div shrinks both sides.
func buildTree(cfg buildCfg, pools, leavesPer int) (*treeRig, error) {
	r := &treeRig{
		pools:    pools,
		leafBase: 1 + pools,
		leaves:   pools * leavesPer,
		verdicts: make([]bcpqp.Verdict, burstLen),
		tr:       cfg.tr,
	}
	// The root's rate scales with the tree so that every size runs the same
	// per-leaf load.
	rootRate := treeRootRate * bcpqp.Rate(r.leaves) / (treePools * treeLeavesPer)
	// A scaled-down tree's root still has to hold a few whole bursts.
	r.bucket = max(int64(float64(rootRate)/8*treeRootBucketMs/1e3), 8*burstLen*bcpqp.MSS)
	r.arr = newArrivals(cfg.seed, r.leaves)
	r.tmpl = burstTemplates(r.arr, burstLen, bcpqp.MSS, nil)
	r.stepNs = virtualStep(burstLen*bcpqp.MSS, 1, rootRate, treeLoad)

	var before runtime.MemStats
	if cfg.tr != nil {
		runtime.GC()
		runtime.GC() // twice: sync.Pool victims of engines closed earlier
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	r.tr.begin(layerTreeBuild)
	ceiling := func(rate bcpqp.Rate, bucket int64) (bcpqp.CascadeStage, error) {
		return bcpqp.NewPolicer(rate, bucket, maxRTT)
	}
	spec := make([]bcpqp.PolicyTreeNode, 0, 1+pools+r.leaves)
	root, err := ceiling(rootRate, r.bucket)
	if err != nil {
		return nil, err
	}
	spec = append(spec, bcpqp.PolicyTreeNode{Name: "root", Parent: -1, Stage: root})
	for p := 0; p < pools; p++ {
		pool, err := ceiling(treePoolRate, 0)
		if err != nil {
			return nil, err
		}
		spec = append(spec, bcpqp.PolicyTreeNode{Parent: 0, Stage: pool})
	}
	for l := 0; l < r.leaves; l++ {
		spec = append(spec, bcpqp.PolicyTreeNode{Parent: 1 + l/leavesPer, Assured: treeLeafAssured})
	}
	r.tree, err = bcpqp.NewPolicyTree(spec)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.buildNs = int64(time.Since(t0))
	if cfg.tr != nil {
		spec = nil // the spec is build-time garbage, not node state
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		r.nodeBytes = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(r.tree.NumNodes())
	}
	return r, nil
}

func (r *treeRig) step(timed bool) {
	leaf, base := r.arr.next(burstLen)
	pkts := r.tmpl[base]
	now := r.clk.advance(r.stepNs)
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	r.tr.begin(layerTree)
	r.tree.SubmitBatchAt(now, bcpqp.NodeID(r.leafBase+leaf), pkts, r.verdicts)
	r.tr.end()
	if timed {
		r.lat = append(r.lat, int64(time.Since(t0)))
	}
	r.offered += burstLen
	for _, v := range r.verdicts {
		if v == bcpqp.Transmit {
			r.delivered++
		}
	}
}

func (r *treeRig) settle() {}

func (r *treeRig) tally() tally {
	s := r.tree.EnforcerStats()
	root, _ := r.tree.NodeStats(0)
	t := tally{
		offered:       r.offered,
		offeredBytes:  r.offered * bcpqp.MSS,
		accepted:      s.AcceptedPackets,
		acceptedBytes: root.AcceptedBytes,
		dropped:       s.DroppedPackets,
		delivered:     r.delivered,
		virtualNs:     r.clk.now.Load(),
		rateBps:       float64(treeRootRate) * float64(r.leaves) / (treePools * treeLeavesPer),
		allowance:     r.bucket,
	}
	// Fairness across pools: every pool is offered the same load, so the
	// root's policing should leave them equal shares.
	perPool := make([]float64, r.pools)
	d := newDigest()
	for p := range perPool {
		ps, _ := r.tree.NodeStats(bcpqp.NodeID(1 + p))
		perPool[p] = float64(ps.AcceptedBytes)
		d.add(ps.AcceptedPackets)
		d.add(ps.DroppedPackets)
	}
	t.jain = meanJain([][]float64{perPool})
	t.digest = d.sum()
	return t
}

func (r *treeRig) close() error { return nil }
