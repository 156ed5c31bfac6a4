package main

import (
	"errors"
	"fmt"
	"time"

	"bcpqp"
	"bcpqp/internal/shaper"
	"bcpqp/internal/timerwheel"
)

// Engine workloads: no sockets, a table of BC-PQP subscribers on one shard,
// bursts of 32 MSS packets for a seeded random subscriber.

const (
	// subscriberRate is every engine-workload subscriber's plan. It sets the
	// virtual time between one subscriber's bursts, 48 kB / (2.5 × rate) ≈
	// 7.7 ms: a dozen bursts per 100 ms burst-control window, which is what
	// BC-PQP's accept-rate accounting needs to see a flow as continuous. (At
	// 1 Mbps the gap is 154 ms, every window holds one burst, magic bytes are
	// reclaimed every other burst and goodput falls to 0.64.)
	subscriberRate = 20 * bcpqp.Mbps
	maxRTT         = 100 * time.Millisecond
	// engineAggs is the engine workloads' subscriber count.
	engineAggs = 4096
	// ringWindow is how many bursts the ring producer submits between
	// in-band Flush barriers. The shard ring holds 1024 bursts, so a window
	// never overflows it and nothing is shed.
	ringWindow = 256
)

// burstTemplates precomputes the packets of every distinct burst the skew
// sequence can produce: the flow cursor advances by n per burst, so only
// skewSlots/gcd(n, skewSlots) windows exist and steady-state generation
// copies nothing. Index with the cursor base.
func burstTemplates(a *arrivals, n, size int, payload []byte) [skewSlots][]bcpqp.Packet {
	var t [skewSlots][]bcpqp.Packet
	for base := 0; ; {
		pkts := make([]bcpqp.Packet, n)
		for i := range pkts {
			f := a.flowAt(base, i)
			pkts[i] = bcpqp.Packet{
				Key:     bcpqp.FlowKey{SrcIP: 10, DstIP: 20, SrcPort: uint16(f + 1), DstPort: 443, Proto: 17},
				Size:    size,
				Class:   f,
				Payload: payload,
			}
		}
		t[base] = pkts
		if base = (base + n) % skewSlots; t[base] != nil {
			return t
		}
	}
}

// virtualStep is the virtual time between bursts that makes targets
// subscribers of rate each see load × their rate in total.
func virtualStep(burstBytes, targets int, rate bcpqp.Rate, load float64) int64 {
	return int64(float64(burstBytes) * 8e9 / (load * float64(targets) * float64(rate)))
}

// engineOpts selects the datapath an engineRig drives.
type engineOpts struct {
	ring    bool // Engine.SubmitBatch through the shard ring; else LocalSubmitter
	observe bool // bcpqp.Observe with default options
	audit   bool // ArmAudit on every aggregate
}

type engineRig struct {
	latencyBuf
	table
	opts   engineOpts
	ls     *bcpqp.LocalSubmitter
	clk    *vclock
	stepNs int64
	arr    *arrivals
	tmpl   [skewSlots][]bcpqp.Packet
	stamp  []bcpqp.Packet // scratch for a latency-stamped ring burst

	shardTr  *tracer // traced ring workload: the shard goroutine's own tracer
	seen     int64   // bursts the shard-side timing wrapper has spanned
	base     time.Time
	inWindow int

	offered   int64
	refused   int64 // packets in bursts a submit call returned an error for
	delivered int64 // emit hook; written by whichever goroutine enforces
	lastStamp int64
}

func buildEngine(cfg buildCfg, opts engineOpts) (rig, error) {
	aggs := cfg.scaled(engineAggs)
	r := &engineRig{
		table: table{tr: cfg.tr, enfTr: cfg.tr},
		opts:  opts,
		clk:   &vclock{},
		arr:   newArrivals(cfg.seed, aggs),
		base:  time.Now(),
	}
	r.stepNs = virtualStep(burstLen*bcpqp.MSS, aggs, subscriberRate, offeredLoad)
	r.tmpl = burstTemplates(r.arr, burstLen, bcpqp.MSS, make([]byte, bcpqp.MSS))
	r.stamp = make([]bcpqp.Packet, burstLen)
	if opts.ring {
		r.clk.auto = r.stepNs
		if cfg.tr != nil {
			// The shard goroutine enforces, so it gets a tracer of its own.
			r.shardTr = newTracer()
			r.enfTr, r.table.seen = r.shardTr, &r.seen
		}
	}

	mcfg := bcpqp.MiddleboxConfig{Shards: 1, Clock: r.clk.read}
	if opts.observe {
		bcpqp.Observe(&mcfg, bcpqp.ObserveOptions{})
	}
	r.mb = bcpqp.NewMiddlebox(mcfg)
	err := r.subscribe(aggs, subscriberRate, 0, opts.audit, r.emit)
	if err != nil {
		r.mb.Close()
		return nil, err
	}
	if r.ls, err = r.mb.LocalShard(0); err != nil {
		r.mb.Close()
		return nil, err
	}
	return r, nil
}

// table is a subscriber table on one engine shard. In a traced run tr spans
// every Add, and every enforcer is wrapped in the timing BatchSubmitter
// recording on enfTr — the goroutine that enforces may not be the one that
// adds — with seen as its burst counter (nil when the rig tags bursts).
type table struct {
	tr        *tracer
	enfTr     *tracer
	seen      *int64
	mb        *bcpqp.Middlebox
	ids       []string
	handles   []bcpqp.AggregateHandle
	pqps      []*bcpqp.PQP
	rate      bcpqp.Rate
	allowance int64 // Σ phantom capacity: the Theorem 1 burst allowance B
}

// subscribe registers n BC-PQP aggregates of the given plan pinned to shard
// 0. queueSize 0 takes the paper's recommended size; audit arms the proxy's
// conformance envelope (twice the phantom capacity) on each.
func (t *table) subscribe(n int, rate bcpqp.Rate, queueSize int64, audit bool, emit bcpqp.EmitFunc) error {
	t.ids = make([]string, n)
	t.handles = make([]bcpqp.AggregateHandle, n)
	t.pqps = make([]*bcpqp.PQP, n)
	t.rate = rate
	capacity := queueSize
	if capacity == 0 {
		capacity = bcpqp.RecommendedQueueSize(rate, maxRTT)
	}
	t.allowance = int64(n) * flows * capacity
	for i := 0; i < n; i++ {
		pq, err := bcpqp.NewBCPQP(bcpqp.BCPQPConfig{Rate: rate, Queues: flows, MaxRTT: maxRTT, QueueSize: queueSize})
		if err != nil {
			return err
		}
		var enf bcpqp.Enforcer = pq
		if t.enfTr != nil {
			enf = timedEnforcer{inner: pq, tr: t.enfTr, seen: t.seen}
		}
		id := fmt.Sprintf("sub-%05d", i)
		t.tr.begin(layerAdd)
		h, err := t.mb.AddPinned(id, 0, enf, emit)
		t.tr.end()
		if err != nil {
			return err
		}
		if audit {
			if err := t.mb.ArmAudit(id, rate, 2*flows*capacity); err != nil {
				return err
			}
		}
		t.ids[i], t.handles[i], t.pqps[i] = id, h, pq
	}
	return nil
}

// tally fills in what the engine and the enforcers counted: totals, the
// Theorem 1 terms, per-flow fairness and the accept/drop digest.
func (t *table) tally(out *tally) {
	out.shed = t.mb.Overloaded.Load() + t.mb.OverloadShed.Load()
	out.fallbacks = t.mb.InlineFallbacks.Load()
	out.violations = t.mb.AuditViolations()
	out.rateBps = float64(len(t.pqps)) * float64(t.rate)
	out.allowance = t.allowance
	groups := make([][]float64, len(t.pqps))
	perFlow := make([]float64, len(t.pqps)*flows)
	d := newDigest()
	for i, pq := range t.pqps {
		s := pq.EnforcerStats()
		out.accepted += s.AcceptedPackets
		out.acceptedBytes += s.AcceptedBytes
		out.dropped += s.DroppedPackets
		d.add(s.AcceptedPackets)
		d.add(s.DroppedPackets)
		g := perFlow[i*flows : (i+1)*flows]
		for f := range g {
			_, bytes, _, _ := pq.ClassStats(f)
			g[f] = float64(bytes)
		}
		groups[i] = g
	}
	out.jain = meanJain(groups)
	out.digest = d.sum()
}

func (t *table) close() error {
	if rep := t.mb.Close(); !rep.Clean {
		return fmt.Errorf("engine close: abandoned %d shards, shed %d packets", rep.AbandonedShards, rep.ShedPackets)
	}
	return nil
}

// emit is the engine workloads' sink: it counts what the engine forwards
// and, on the ring workload, takes the submit → first-verdict latency of a
// stamped burst from Packet.Seq.
func (r *engineRig) emit(p bcpqp.Packet) {
	r.delivered++
	if p.Seq != 0 && p.Seq != r.lastStamp {
		r.lastStamp = p.Seq
		r.lat = append(r.lat, int64(time.Since(r.base))-p.Seq)
	}
}

func (r *engineRig) step(timed bool) {
	agg, base := r.arr.next(burstLen)
	pkts := r.tmpl[base]
	r.offered += burstLen
	if r.opts.ring {
		if timed {
			copy(r.stamp, pkts)
			now := int64(time.Since(r.base))
			for i := range r.stamp {
				r.stamp[i].Seq = now
			}
			pkts = r.stamp
		}
		r.tr.begin(layerRing)
		err := r.mb.SubmitBatch(r.handles[agg], pkts)
		r.tr.end()
		r.refuse(err, burstLen)
		if r.inWindow++; r.inWindow == ringWindow {
			r.settle()
		}
		return
	}
	r.clk.advance(r.stepNs)
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	r.tr.begin(layerInline)
	err := r.ls.SubmitBatch(r.handles[agg], pkts)
	r.tr.end()
	if timed {
		r.lat = append(r.lat, int64(time.Since(t0)))
	}
	r.refuse(err, burstLen)
}

// refuse counts a submit error's packets as failed. A saturated shard has
// already counted them in Engine.Overloaded, which tally reads as shed.
func (r *engineRig) refuse(err error, pkts int) {
	if err != nil && !errors.Is(err, bcpqp.ErrShardSaturated) {
		r.refused += int64(pkts)
	}
}

// settle is the ring workload's in-band barrier: a no-op control item that
// the shard runs after every burst queued before it.
func (r *engineRig) settle() {
	if !r.opts.ring || r.inWindow == 0 {
		return
	}
	r.inWindow = 0
	r.tr.begin(layerBarrier)
	err := r.mb.Flush(r.ids[0], func(bcpqp.Enforcer) {})
	r.tr.end()
	// A barrier that did not run leaves verdicts outstanding, which the
	// conservation check then reports; count it so failed is not 0 either.
	r.refuse(err, 1)
	if r.shardTr != nil && err == nil {
		r.tr.absorb(r.shardTr) // the shard is idle behind the barrier
	}
}

func (r *engineRig) tally() tally {
	t := tally{
		offered:      r.offered,
		offeredBytes: r.offered * bcpqp.MSS,
		delivered:    r.delivered,
		virtualNs:    r.clk.now.Load(),
		clockReads:   r.clk.reads.Load(),
	}
	r.table.tally(&t)
	t.failed = r.refused + t.shed
	return t
}

func (r *engineRig) close() error { return r.table.close() }

// bareRig is one rung of the Fig 5 ladder: the same arrivals as
// engine_inline handed straight to a table of enforcers, no engine at all.
type bareRig struct {
	latencyBuf
	enfs     []bcpqp.BatchSubmitter
	stats    []bcpqp.StatsReader
	wheel    *timerwheel.Wheel // shaper only: its dequeue scheduler
	clk      vclock
	stepNs   int64
	arr      *arrivals
	tmpl     [skewSlots][]bcpqp.Packet
	verdicts []bcpqp.Verdict
	offered  int64
}

// buildBare makes a rung from a per-subscriber constructor.
func buildBare(cfg buildCfg, mk func(r *bareRig) (bcpqp.Enforcer, error)) (*bareRig, error) {
	aggs := cfg.scaled(engineAggs)
	r := &bareRig{
		arr:      newArrivals(cfg.seed, aggs),
		verdicts: make([]bcpqp.Verdict, burstLen),
	}
	r.stepNs = virtualStep(burstLen*bcpqp.MSS, aggs, subscriberRate, offeredLoad)
	r.tmpl = burstTemplates(r.arr, burstLen, bcpqp.MSS, make([]byte, bcpqp.MSS))
	for i := 0; i < aggs; i++ {
		enf, err := mk(r)
		if err != nil {
			return nil, err
		}
		r.enfs = append(r.enfs, bcpqp.Batched(enf))
		r.stats = append(r.stats, enf.(bcpqp.StatsReader))
	}
	return r, nil
}

func (r *bareRig) step(bool) {
	agg, base := r.arr.next(burstLen)
	now := r.clk.advance(r.stepNs)
	r.enfs[agg].SubmitBatch(now, r.tmpl[base], r.verdicts)
	if r.wheel != nil {
		r.wheel.Advance(now)
	}
	r.offered += burstLen
}

func (r *bareRig) settle() {}

func (r *bareRig) tally() tally {
	t := tally{offered: r.offered, offeredBytes: r.offered * bcpqp.MSS, virtualNs: r.clk.now.Load()}
	for _, s := range r.stats {
		st := s.EnforcerStats()
		t.accepted += st.AcceptedPackets
		t.acceptedBytes += st.AcceptedBytes
		t.dropped += st.DroppedPackets
	}
	return t
}

func (r *bareRig) close() error { return nil }

// The four Fig 5 schemes, each sized the way the paper's evaluation (and
// the proxy) sizes it for a subscriberRate plan. cost divides the rung's
// packet count: the shaper is some twenty times dearer per packet.
var bareSchemes = []struct {
	name string
	cost int
	mk   func(r *bareRig) (bcpqp.Enforcer, error)
}{
	{"phantom", 1, func(*bareRig) (bcpqp.Enforcer, error) {
		return bcpqp.NewBCPQP(bcpqp.BCPQPConfig{Rate: subscriberRate, Queues: flows, MaxRTT: maxRTT})
	}},
	{"tbf", 1, func(*bareRig) (bcpqp.Enforcer, error) {
		return bcpqp.NewPolicer(subscriberRate, 0, maxRTT)
	}},
	{"fairpolicer", 1, func(*bareRig) (bcpqp.Enforcer, error) {
		return bcpqp.NewFairPolicer(bcpqp.FairPolicerConfig{
			Rate: subscriberRate, Bucket: bcpqp.RenoQueueRequirement(subscriberRate, maxRTT), Flows: flows,
		})
	}},
	{"shaper", 20, func(r *bareRig) (bcpqp.Enforcer, error) {
		if r.wheel == nil {
			// One timing wheel serves every shaper, as one would per core. A
			// 1 Mbps shaper dequeues every 12 ms; 1 ms ticks × 1024 slots
			// cover that with room to spare.
			w, err := timerwheel.New(time.Millisecond, 1024)
			if err != nil {
				return nil, err
			}
			r.wheel = w
		}
		return bcpqp.NewShaper(bcpqp.ShaperConfig{
			Rate: subscriberRate, Queues: flows,
			QueueSize: int64(float64(subscriberRate) / 8 * maxRTT.Seconds()),
			Scheduler: shaper.SchedulerFunc(func(at time.Duration, fn func()) { r.wheel.Schedule(at, fn) }),
			Sink:      func(time.Duration, bcpqp.Packet) {},
		})
	}},
}
