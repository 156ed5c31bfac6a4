package mbox

import (
	"strconv"
	"strings"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
)

// TraceEvent is one flight-recorder event with the aggregate handle
// resolved back to its string id where possible.
type TraceEvent struct {
	obs.Event
	// AggID is the aggregate's id when its handle still resolves against
	// the current registry; empty for engine-level events and for
	// aggregates removed or evicted since the event was recorded.
	AggID string
	// NodePath is the root→node label path ("tenant/plan/sub") of the
	// event's tree node when the event is node-attributed (Node >= 0) and
	// the aggregate still resolves to a tree; empty otherwise.
	NodePath string
}

// nodePath renders the root→node label path. Topology accessors are
// immutable after construction, so this is safe against a live tree.
func nodePath(tree enforcer.TreeEnforcer, node enforcer.NodeID) string {
	if int(node) < 0 || int(node) >= tree.NumNodes() {
		return ""
	}
	var labels []string
	for v := node; v != enforcer.NoNode; v = tree.Parent(v) {
		labels = append(labels, tree.NodeLabel(v))
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	return strings.Join(labels, "/")
}

// TraceDump snapshots every flight-recorder ring without stopping the
// datapath and returns the merged events ordered by global sequence,
// oldest first. Writers are never blocked: each ring slot is read through
// a seqlock and slots caught mid-write are discarded. It returns nil when
// the engine has no Observer.
func (e *Engine) TraceDump() []TraceEvent {
	c := e.cfg.Observer
	if c == nil {
		return nil
	}
	evs := c.Events()
	t := e.table.Load()
	out := make([]TraceEvent, len(evs))
	for i, ev := range evs {
		te := TraceEvent{Event: ev}
		if h := Handle(ev.Agg); h > 0 && h.slot() < len(t.slots) {
			if agg := t.slots[h.slot()].Load(); agg != nil && agg.h == h {
				te.AggID = agg.id
				if agg.tree != nil && ev.Node >= 0 {
					te.NodePath = nodePath(agg.tree, enforcer.NodeID(ev.Node))
				}
			}
		}
		out[i] = te
	}
	return out
}

// Metrics builds a point-in-time export snapshot of the engine: the
// engine-wide fault counters, per-shard health gauges, per-aggregate
// traffic and fault state, and the merged burst-enforcement latency
// histogram. It reads only atomics and registry snapshots (the same data
// Health reads), so it is safe to call at any scrape rate during full-rate
// traffic. Families derived from the Observer (traffic counters, rate
// meters, the latency histogram, trace totals) are omitted when the engine
// has none; fault-plane families are always present.
func (e *Engine) Metrics() obs.Snapshot {
	var fams []obs.Family
	counter := func(name, help string, v float64) {
		fams = append(fams, obs.Family{Name: name, Help: help, Type: "counter",
			Samples: []obs.Sample{{Value: v}}})
	}
	gauge := func(name, help string, v float64) {
		fams = append(fams, obs.Family{Name: name, Help: help, Type: "gauge",
			Samples: []obs.Sample{{Value: v}}})
	}

	t := e.table.Load()
	gauge("bcpqp_aggregates", "registered aggregates", float64(e.Len()))
	counter("bcpqp_panics_total", "recovered enforcer/emit panics", float64(e.Panics.Load()))
	counter("bcpqp_degraded_drops_total", "packets dropped for quarantined fail-closed aggregates", float64(e.DegradedDrops.Load()))
	counter("bcpqp_degraded_passes_total", "packets passed unenforced for quarantined fail-open aggregates", float64(e.DegradedPasses.Load()))
	counter("bcpqp_bad_verdicts_total", "out-of-range verdicts coerced to drop", float64(e.BadVerdicts.Load()))
	counter("bcpqp_overloaded_packets_total", "packets shed at full shard rings", float64(e.Overloaded.Load()))
	counter("bcpqp_evicted_total", "aggregates evicted by the idle-TTL sweeper", float64(e.Evicted.Load()))
	counter("bcpqp_inline_bursts_total", "bursts enforced through the ring-bypass fast path", float64(e.InlineBursts.Load()))
	counter("bcpqp_inline_fallbacks_total", "ring-bypass submissions that fell back to shedding on a wedged shard", float64(e.InlineFallbacks.Load()))

	if p := e.overload; p != nil {
		active := 0.0
		if p.active.Load() {
			active = 1
		}
		gauge("bcpqp_overload_pressure", "composite overload pressure: max of ring occupancy, table fill and shed-rate components", float64(p.pressureMilli.Load())/1000)
		gauge("bcpqp_overload_active", "1 while the overload shed plane is engaged", active)
		gauge("bcpqp_overload_ring_pressure", "worst shard ring occupancy fraction", float64(p.ringMilli.Load())/1000)
		gauge("bcpqp_overload_table_fill", "aggregate table fill fraction of MaxAggregates", float64(p.fillMilli.Load())/1000)
		gauge("bcpqp_overload_shed_rate_pps", "shed-rate EWMA over the 250ms window, packets/sec", float64(p.shedRate.Load()))
		counter("bcpqp_overload_shed_packets_total", "packets shed proactively by the priority shed policy", float64(e.OverloadShed.Load()))
		counter("bcpqp_overload_admission_evictions_total", "aggregates evicted on the Add path to admit new ones", float64(e.AdmissionEvictions.Load()))
		counter("bcpqp_overload_transitions_total", "overload plane activation and deactivation edges", float64(p.transitions.Load()))
	}

	// The heartbeat age reads up to 500µs high (coarseWall).
	now := time.Now().UnixNano()
	shardFams := []obs.Family{
		{Name: "bcpqp_shard_state", Help: "watchdog state (0 healthy, 1 degraded, 2 wedged)", Type: "gauge"},
		{Name: "bcpqp_shard_queue_depth", Help: "bursts and control items queued on the shard ring", Type: "gauge"},
		{Name: "bcpqp_shard_heartbeat_age_seconds", Help: "time since the shard last made progress", Type: "gauge"},
		{Name: "bcpqp_shard_processed_total", Help: "items completed by the shard", Type: "counter"},
		{Name: "bcpqp_shard_panics_total", Help: "panics recovered on the shard", Type: "counter"},
		{Name: "bcpqp_shard_shed_packets_total", Help: "packets shed at the shard ring", Type: "counter"},
	}
	for i, s := range e.shards {
		lbl := []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}
		vals := []float64{
			float64(s.state.Load()),
			float64(len(s.in)),
			float64(now-s.heartbeat.Load()) / 1e9,
			float64(s.processed.Load()),
			float64(s.panics.Load()),
			float64(s.shed.Load()),
		}
		for j := range shardFams {
			shardFams[j].Samples = append(shardFams[j].Samples,
				obs.Sample{Labels: lbl, Value: vals[j]})
		}
	}
	fams = append(fams, shardFams...)
	bursts := obs.Family{Name: "bcpqp_shard_bursts_total", Help: "SubmitBatch bursts served, by who served them: the submitting caller on an idle shard, or the shard goroutine from the ring", Type: "counter"}
	for i, s := range e.shards {
		shard := obs.Label{Name: "shard", Value: strconv.Itoa(i)}
		bursts.Samples = append(bursts.Samples,
			obs.Sample{Labels: []obs.Label{shard, {Name: "served", Value: "caller"}}, Value: float64(s.claimed.Load())},
			obs.Sample{Labels: []obs.Label{shard, {Name: "served", Value: "shard"}}, Value: float64(s.queued.Load())})
	}
	fams = append(fams, bursts)

	aggFams := []obs.Family{
		{Name: "bcpqp_aggregate_quarantined", Help: "1 when the aggregate's circuit breaker is open", Type: "gauge"},
		{Name: "bcpqp_aggregate_panics_total", Help: "recovered panics attributed to the aggregate", Type: "counter"},
		{Name: "bcpqp_aggregate_shed_packets_total", Help: "packets shed proactively from the aggregate by the overload plane", Type: "counter"},
		{Name: "bcpqp_aggregate_accepted_packets_total", Help: "packets the enforcer admitted", Type: "counter"},
		{Name: "bcpqp_aggregate_accepted_bytes_total", Help: "bytes the enforcer admitted", Type: "counter"},
		{Name: "bcpqp_aggregate_dropped_packets_total", Help: "packets the enforcer rejected", Type: "counter"},
		{Name: "bcpqp_aggregate_dropped_bytes_total", Help: "bytes the enforcer rejected", Type: "counter"},
		{Name: "bcpqp_aggregate_rate_bps", Help: "accepted throughput over the last measurement window", Type: "gauge"},
	}
	const nFault = 3 // families exported even without per-aggregate obs
	for i := range t.slots {
		agg := t.slots[i].Load()
		if agg == nil {
			continue
		}
		lbl := []obs.Label{{Name: "aggregate", Value: agg.id}}
		q := 0.0
		if agg.quarantined.Load() {
			q = 1
		}
		vals := []float64{q, float64(agg.panics.Load()), float64(agg.shed.Load())}
		if agg.obs != nil {
			s := agg.obs.Snapshot()
			vals = append(vals,
				float64(s.AcceptedPackets), float64(s.AcceptedBytes),
				float64(s.DroppedPackets), float64(s.DroppedBytes),
				s.Rate)
		}
		for j := range vals {
			aggFams[j].Samples = append(aggFams[j].Samples,
				obs.Sample{Labels: lbl, Value: vals[j]})
		}
	}
	if e.cfg.Observer != nil {
		fams = append(fams, aggFams...)
	} else {
		fams = append(fams, aggFams[:nFault]...)
	}

	fams = append(fams, e.auditFamilies(t)...)

	if c := e.cfg.Observer; c != nil {
		counter("bcpqp_trace_events_total", "flight-recorder events recorded (including overwritten)", float64(c.EventsRecorded()))
		counter("bcpqp_bursts_enforced_total", "enforced bursts observed across all shards", float64(c.Bursts()))
		// Both latency families are the one per-shard digest: the first
		// name predates it and dashboards still ask for it.
		h := c.BurstHist()
		fams = append(fams, obs.Family{
			Name:    "bcpqp_burst_enforce_seconds",
			Help:    "per-burst enforcement latency, whichever goroutine served the burst",
			Type:    "histogram",
			Samples: []obs.Sample{{Hist: &h}},
		}, obs.Family{
			Name:    "bcpqp_burst_enforce_latency_digest_seconds",
			Help:    "per-burst enforcement latency as a mergeable relative-error quantile digest",
			Type:    "histogram",
			Samples: []obs.Sample{{Hist: &h}},
		})
	}

	e.extraMu.Lock()
	sources := e.extraMetrics
	e.extraMu.Unlock()
	for _, src := range sources {
		fams = append(fams, src()...)
	}
	return obs.Snapshot{Families: fams}
}

// auditFamilies builds the conformance-audit metric families: one sample
// per armed auditor (whole-aggregate envelopes labelled {aggregate},
// per-node envelopes {aggregate,node,path}) plus the slack and rate-error
// quantile digests merged across every armed auditor. Empty when nothing
// is armed, so unaudited deployments pay nothing in exposition size.
func (e *Engine) auditFamilies(t *registry) []obs.Family {
	af := []obs.Family{
		{Name: "bcpqp_conformance_violations_total", Help: "audited runs that breached the Theorem-1 envelope r*dt+B", Type: "counter"},
		{Name: "bcpqp_conformance_envelope_bps", Help: "audited envelope rate", Type: "gauge"},
		{Name: "bcpqp_conformance_allowed_bytes_total", Help: "allowance accrued by the audited envelope, excluding the burst term", Type: "counter"},
		{Name: "bcpqp_conformance_accepted_bytes_total", Help: "bytes accepted under audit", Type: "counter"},
		{Name: "bcpqp_conformance_slack_bytes", Help: "current envelope slack including the burst allowance (negative = in breach)", Type: "gauge"},
		{Name: "bcpqp_conformance_min_slack_bytes", Help: "worst envelope slack ever observed", Type: "gauge"},
		{Name: "bcpqp_conformance_max_deficit_bytes", Help: "deepest envelope breach observed", Type: "gauge"},
		{Name: "bcpqp_conformance_windows_total", Help: "completed rate-error measurement windows with traffic", Type: "counter"},
	}
	var slackAcc, errAcc obs.Digest
	armed := 0
	e.eachAudit(t, func(agg *aggregate, node enforcer.NodeID, a *obs.Audit) {
		armed++
		lbl := []obs.Label{{Name: "aggregate", Value: agg.id}}
		if node != enforcer.NoNode {
			lbl = append(lbl, obs.Label{Name: "node", Value: strconv.Itoa(int(node))})
			if agg.tree != nil {
				lbl = append(lbl, obs.Label{Name: "path", Value: nodePath(agg.tree, node)})
			}
		}
		c := a.Snapshot()
		a.MergeSlack(&slackAcc)
		a.MergeRateErr(&errAcc)
		vals := []float64{
			float64(c.Violations), float64(c.RateBps),
			float64(c.AllowedBytes), float64(c.AcceptedBytes),
			float64(c.SlackBytes), float64(c.MinSlackBytes),
			float64(c.MaxDeficit), float64(c.Windows),
		}
		for j := range vals {
			af[j].Samples = append(af[j].Samples, obs.Sample{Labels: lbl, Value: vals[j]})
		}
	})
	if armed == 0 {
		return nil
	}
	sh := slackAcc.Snapshot().Hist(1)
	eh := errAcc.Snapshot().Hist(1)
	return append(af,
		obs.Family{Name: "bcpqp_conformance_slack_distribution_bytes",
			Help: "per-run envelope slack across all armed auditors (breaching runs record 0)",
			Type: "histogram", Samples: []obs.Sample{{Hist: &sh}}},
		obs.Family{Name: "bcpqp_conformance_rate_error_permille",
			Help: "per-window absolute rate error across all armed auditors, permille of the enforced rate",
			Type: "histogram", Samples: []obs.Sample{{Hist: &eh}}},
	)
}

// AttachMetricSource registers an additional metric-family source whose
// output Metrics appends to every snapshot — how layered subsystems (the
// cluster budget exchange) join the engine's /metrics exposition without
// the engine depending on them. Sources must be safe to call from any
// goroutine and are never detached.
func (e *Engine) AttachMetricSource(src func() []obs.Family) {
	if src == nil {
		return
	}
	e.extraMu.Lock()
	e.extraMetrics = append(e.extraMetrics, src)
	e.extraMu.Unlock()
}

// maxNodeMetricSamples bounds how many nodes one NodeMetrics call exports:
// a million-leaf tree cannot ship a million label sets to a scraper. Nodes
// are exported in index order — topological, parents before children — and
// leaves are skipped entirely when the tree exceeds the cap, so the upper
// layers (tenant, plan) always make the cut and the truncation is visible
// through bcpqp_tree_nodes vs bcpqp_tree_nodes_exported.
const maxNodeMetricSamples = 1024

// NodeMetrics builds an export snapshot of one aggregate's per-node
// accounting: per-node accepted/dropped counters labelled with the node
// index and its root→node label path, plus tree-size gauges. Unlike
// Metrics — which reads only atomics and is safe at any scrape rate — the
// node counters live in the tree's shard-owned arrays, so this read rides
// an in-band control barrier: it is consistent (a point-in-time cut
// between bursts, reflecting every packet submitted before the call) but
// costs one shard round-trip and should be scraped accordingly. A flat
// aggregate exports its single enforcer as node 0.
func (e *Engine) NodeMetrics(id string) (obs.Snapshot, error) {
	agg, err := e.aggByID(id)
	if err != nil {
		return obs.Snapshot{}, err
	}
	type row struct {
		node  int32
		path  string
		stats enforcer.Stats
	}
	var rows []row
	total := 1
	err = e.controlAgg(agg, func(enf enforcer.Enforcer) {
		tree := agg.tree
		if tree == nil {
			if sr, ok := enf.(enforcer.StatsReader); ok {
				rows = append(rows, row{node: 0, path: id, stats: sr.EnforcerStats()})
			}
			return
		}
		n := tree.NumNodes()
		total = n
		skipLeaves := n > maxNodeMetricSamples
		for i := 0; i < n && len(rows) < maxNodeMetricSamples; i++ {
			node := enforcer.NodeID(i)
			if skipLeaves && tree.IsLeaf(node) {
				continue
			}
			st, serr := tree.NodeStats(node)
			if serr != nil {
				continue
			}
			rows = append(rows, row{node: int32(i), path: nodePath(tree, node), stats: st})
		}
	})
	if err != nil {
		return obs.Snapshot{}, err
	}
	aggLbl := obs.Label{Name: "aggregate", Value: id}
	fams := []obs.Family{
		{Name: "bcpqp_tree_nodes", Help: "nodes in the aggregate's policy tree", Type: "gauge",
			Samples: []obs.Sample{{Labels: []obs.Label{aggLbl}, Value: float64(total)}}},
		{Name: "bcpqp_tree_nodes_exported", Help: "nodes included in this per-node export", Type: "gauge",
			Samples: []obs.Sample{{Labels: []obs.Label{aggLbl}, Value: float64(len(rows))}}},
		{Name: "bcpqp_node_accepted_packets_total", Help: "packets admitted through the node's subtree", Type: "counter"},
		{Name: "bcpqp_node_accepted_bytes_total", Help: "bytes admitted through the node's subtree", Type: "counter"},
		{Name: "bcpqp_node_dropped_packets_total", Help: "packets dropped attributed to the node", Type: "counter"},
		{Name: "bcpqp_node_dropped_bytes_total", Help: "bytes dropped attributed to the node", Type: "counter"},
	}
	for _, r := range rows {
		lbl := []obs.Label{aggLbl,
			{Name: "node", Value: strconv.Itoa(int(r.node))},
			{Name: "path", Value: r.path}}
		vals := []float64{
			float64(r.stats.AcceptedPackets), float64(r.stats.AcceptedBytes),
			float64(r.stats.DroppedPackets), float64(r.stats.DroppedBytes),
		}
		for j := range vals {
			fams[2+j].Samples = append(fams[2+j].Samples, obs.Sample{Labels: lbl, Value: vals[j]})
		}
	}
	return obs.Snapshot{Families: fams}, nil
}
