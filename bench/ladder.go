package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"bcpqp"
)

// The traced run: every workload runs with spans on — the selected one at
// full length, the others at 1/reducedDiv of it — and the Fig 5, ring and
// tree-size rungs run beside the workload that owns them, so one traced run
// prices every layer. Table sizes are never reduced: per-packet cost depends
// on the working set.

const (
	reducedDiv = 5  // phase length of the workloads that were not selected
	rungDiv    = 10 // rungs run a tenth of their workload's traced phase
)

// tracedRun is one workload's traced result.
type tracedRun struct {
	w        workload
	tr       *tracer
	untraced phase // a quarter-length phase on the same instance, spans off
	traced   phase
	rig      rig
	div      int      // phase-length divisor this workload ran at
	bad      []string // failed output checks
}

// layerSet collects per-layer metrics by name.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, unit string) { l[name] = metric{name, v, unit} }

// layerMetricNames is every per-layer metric, in report order; it is the
// per_layer list of BENCHMARK.json.
var layerMetricNames = []string{
	"netio.rx_ns_per_pkt", "netio.tx_ns_per_pkt", "netio.pkts_per_rx_call", "netio.pkts_per_tx_call", "netio.kernel_drops",
	"mbox.inline_self_ns_per_pkt", "mbox.clock_reads_per_burst", "mbox.inline_fallbacks",
	"mbox.ring_self_ns_per_pkt", "mbox.ring_barrier_wait_ns_per_burst", "mbox.shed_pkts", "mbox.add_us_per_agg",
	"obs.observe_ns_per_pkt", "obs.audit_ns_per_pkt", "obs.audit_violations",
	"phantom.ns_per_pkt", "phantom.drop_share", "phantom.bytes_per_agg",
	"tbf.ns_per_pkt", "fairpolicer.ns_per_pkt", "shaper.ns_per_pkt", "fig5.bcpqp_over_policer", "fig5.shaper_over_bcpqp",
	"ptree.ns_per_pkt_1m", "ptree.ns_per_pkt_1k", "ptree.bytes_per_node", "ptree.build_us_per_kleaf",
	"lat_p99_us", "alloc_kb_per_mpkt", "bench.feed_ns_per_pkt", "bench.sink_ns_per_pkt", "bench.slice_iqr_pct", "bench.trace_overhead_pct",
}

// runTraced runs the traced side and writes per-layer metrics and one trace
// file per selected workload.
func runTraced(out io.Writer, o options) error {
	selected := func(w workload) bool { return o.workload == "all" || o.workload == w.name }
	runs := make(map[string]*tracedRun)
	for _, w := range workloads {
		div := o.div
		if !selected(w) {
			div *= reducedDiv
		}
		run, err := traceWorkload(w, o, div)
		if err != nil {
			return err
		}
		runs[w.name] = run
		if !selected(w) {
			continue
		}
		path, err := run.tr.write(o.outDir, w.name, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# %s: %d spans in %s (%d more counted, not retained)\n", w.name, len(run.tr.spans), path, run.tr.lost)
	}

	layers := make(layerSet)
	// netio and the harness's own share come from the relay workload that
	// was asked for, relay_flood otherwise.
	relay := runs["relay_flood"]
	if o.workload == "relay_single" {
		relay = runs["relay_single"]
	}
	relayLayers(layers, relay)
	if err := inlineLayers(out, layers, runs["engine_inline"], o); err != nil {
		return err
	}
	if err := ringLayers(out, layers, runs["engine_ring"], o); err != nil {
		return err
	}
	if err := treeLayers(layers, runs["tree_deep"], o); err != nil {
		return err
	}

	var failed []string
	for _, w := range workloads {
		if !selected(w) {
			continue
		}
		run := runs[w.name]
		// The harness's own noise and cost on this workload.
		layers.set("lat_p99_us", quantile(run.traced.latUs, 0.99), "us")
		layers.set("alloc_kb_per_mpkt", float64(run.untraced.allocated)/1e3/(float64(run.untraced.pkts)/1e6), "kB/Mpkt")
		layers.set("bench.slice_iqr_pct", iqrPct(run.traced.slicePPS), "%")
		layers.set("bench.trace_overhead_pct", 100*(run.traced.nsPerPkt()/run.untraced.nsPerPkt()-1), "%")

		rep := report{
			Correct:   len(run.bad) == 0,
			Attempted: run.traced.after.offered,
			Failed:    run.traced.after.failed,
			Metrics:   make(map[string]jsonMetric, len(layerMetricNames)),
		}
		ms := make([]metric, 0, len(layerMetricNames))
		for _, name := range layerMetricNames {
			m, ok := layers[name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", name)
			}
			ms = append(ms, m)
			rep.Metrics[name] = jsonMetric{m.value, m.unit}
		}
		printMetrics(out, w.name, ms)
		for _, b := range run.bad {
			fmt.Fprintf(out, "# FAIL %s: %s\n", w.name, b)
			failed = append(failed, w.name+": "+b)
		}
		if err := json.NewEncoder(out).Encode(rep); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d output checks failed, first: %s", len(failed), failed[0])
	}
	return nil
}

// traceWorkload sets w up once with a tracer, measures a quarter-length
// phase with spans off and a full one with spans on, and checks the outputs
// of the traced phase.
func traceWorkload(w workload, o options, div int) (*tracedRun, error) {
	w.setProcs()
	tr := newTracer()
	r, _, err := w.setUp(buildCfg{seed: o.seed, div: o.div, tr: tr})
	if err != nil {
		return nil, err
	}
	run := &tracedRun{w: w, tr: tr, rig: r, div: div}
	tr.on = false
	run.untraced = measure(r, w, w.shape(o.seconds, 4*div), tr)
	tr.on = true
	run.traced = measure(r, w, w.shape(o.seconds, div), tr)
	run.bad = run.traced.verify()
	if err := r.close(); err != nil {
		run.bad = append(run.bad, err.Error())
	}
	if w.name == "relay_flood" {
		// The relay's spans tile the whole round, so over the traced phase the
		// layers' self times must add up to the wall time; on relay_flood a
		// round is long enough for the gaps between spans not to matter. (Both
		// sides come from one phase: comparing against the untraced phase would
		// mostly compare the host at two different moments. That difference
		// is reported, as bench.trace_overhead_pct.)
		covered := float64(run.traced.selfNs) / float64(run.traced.wallNs)
		if covered < 0.9 || covered > 1.1 {
			run.bad = append(run.bad, fmt.Sprintf("layer self times cover %.1f%% of the traced phase", 100*covered))
		}
	}
	return run, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// relayLayers prices netio and the harness's feeder and sink from a relay
// workload's spans.
func relayLayers(l layerSet, run *tracedRun) {
	p, a, b := run.traced, run.traced.after, run.traced.before
	l.set("netio.rx_ns_per_pkt", p.selfPerPkt(layerRx), "ns")
	l.set("netio.tx_ns_per_pkt", p.selfPerPkt(layerTxQueue)+p.selfPerPkt(layerTxFlush), "ns")
	l.set("netio.pkts_per_rx_call", ratio(a.rxPkts-b.rxPkts, a.rxCalls-b.rxCalls), "count")
	l.set("netio.pkts_per_tx_call", ratio(a.txPkts-b.txPkts, a.txCalls-b.txCalls), "count")
	l.set("netio.kernel_drops", float64(a.kernelDrops), "count")
	l.set("bench.feed_ns_per_pkt", p.selfPerPkt(layerFeed), "ns")
	l.set("bench.sink_ns_per_pkt", p.selfPerPkt(layerSink), "ns")
}

// inlineLayers prices mbox's inline path from engine_inline's spans and runs
// the Fig 5 rungs: the same arrivals handed to bare enforcers.
func inlineLayers(out io.Writer, l layerSet, run *tracedRun, o options) error {
	p, a, b := run.traced, run.traced.after, run.traced.before
	adds := run.tr.total[layerAdd]
	l.set("mbox.inline_self_ns_per_pkt", p.selfPerPkt(layerInline), "ns")
	l.set("mbox.clock_reads_per_burst", ratio(a.clockReads-b.clockReads, p.pkts/burstLen), "count")
	l.set("mbox.inline_fallbacks", float64(a.fallbacks), "count")
	l.set("mbox.add_us_per_agg", float64(adds.Total)/1e3/float64(adds.Count), "us")
	l.set("phantom.drop_share", ratio(a.dropped-b.dropped, p.pkts), "ratio")

	bare := make(map[string]phase)
	for _, s := range bareSchemes {
		sh := run.w.shape(o.seconds, run.div*rungDiv*s.cost)
		p, bytesPer, err := runBare(run.w, buildCfg{seed: o.seed, div: o.div}, s.mk, sh)
		if err != nil {
			return err
		}
		bare[s.name] = p
		l.set(s.name+".ns_per_pkt", p.nsPerPkt(), "ns")
		if s.name == "phantom" {
			l.set("phantom.bytes_per_agg", bytesPer, "B")
		}
	}
	l.set("fig5.bcpqp_over_policer", bare["phantom"].nsPerPkt()/bare["tbf"].nsPerPkt(), "ratio")
	l.set("fig5.shaper_over_bcpqp", bare["shaper"].nsPerPkt()/bare["phantom"].nsPerPkt(), "ratio")
	ladder(out, "engine_inline", []rung{
		{"bare phantom", bare["phantom"]},
		{"inline (LocalSubmitter)", run.untraced},
	})
	return nil
}

// runBare measures one Fig 5 rung and the heap its enforcers hold.
func runBare(w workload, cfg buildCfg, mk func(*bareRig) (bcpqp.Enforcer, error), sh shape) (phase, float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: sync.Pool victims of engines closed earlier
	runtime.ReadMemStats(&before)
	r, err := buildBare(cfg, mk)
	if err != nil {
		return phase{}, 0, err
	}
	for i, n := 0, cfg.scaled(w.warm); i < n; i++ {
		r.step(false)
	}
	p := measure(r, w, sh, nil)
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesPer := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(r.enfs))
	runtime.KeepAlive(r)
	return p, bytesPer, nil
}

// ringLayers prices the ring, observation and audit. engine_ring itself is
// the +audit rung; the two rungs below it are the same rig with audit, then
// observe, taken away. Every rung runs with the timing wrappers in place, so
// the deltas are between like and like.
func ringLayers(out io.Writer, l layerSet, run *tracedRun, o options) error {
	sh := run.w.shape(o.seconds, run.div*rungDiv)
	var below [2]phase
	for i, opts := range []engineOpts{{ring: true}, {ring: true, observe: true}} {
		w := run.w
		w.build = func(c buildCfg) (rig, error) { return buildEngine(c, opts) }
		tr := newTracer()
		r, _, err := w.setUp(buildCfg{seed: o.seed, div: o.div, tr: tr})
		if err != nil {
			return err
		}
		below[i] = measure(r, w, sh, tr)
		if err := r.close(); err != nil {
			return err
		}
	}
	bareRing, observed, audited := below[0], below[1], run.traced
	l.set("mbox.ring_self_ns_per_pkt", bareRing.nsPerPkt()-bareRing.selfPerPkt(layerEnforcer), "ns")
	l.set("mbox.ring_barrier_wait_ns_per_burst", float64(audited.layers[layerBarrier].Total)/float64(audited.pkts/burstLen), "ns")
	l.set("mbox.shed_pkts", float64(audited.after.shed), "count")
	l.set("obs.observe_ns_per_pkt", observed.nsPerPkt()-bareRing.nsPerPkt(), "ns")
	l.set("obs.audit_ns_per_pkt", audited.nsPerPkt()-observed.nsPerPkt(), "ns")
	l.set("obs.audit_violations", float64(audited.after.violations), "count")
	ladder(out, "engine_ring", []rung{{"ring bare", bareRing}, {"+observe", observed}, {"+audit", audited}})
	return nil
}

// treeLayers prices ptree: the million-leaf tree, and the same code on a
// thousand-leaf tree that stays in cache.
func treeLayers(l layerSet, run *tracedRun, o options) error {
	big := run.rig.(*treeRig)
	l.set("ptree.ns_per_pkt_1m", run.untraced.nsPerPkt(), "ns")
	l.set("ptree.bytes_per_node", big.nodeBytes, "B")
	l.set("ptree.build_us_per_kleaf", float64(big.buildNs)/1e3/(float64(big.leaves)/1e3), "us")
	small := run.w
	small.build = func(c buildCfg) (rig, error) { return buildTree(c, c.scaled(10), c.scaled(100)) }
	r, _, err := small.setUp(buildCfg{seed: o.seed, div: o.div})
	if err != nil {
		return err
	}
	l.set("ptree.ns_per_pkt_1k", measure(r, small, run.w.shape(o.seconds, run.div*rungDiv), nil).nsPerPkt(), "ns")
	return r.close()
}

// rung is one step of a cost ladder.
type rung struct {
	name string
	p    phase
}

// ladder prints a cost ladder and reports — rather than hides — any rung
// that measured cheaper than the one below it, with both rungs' spread.
func ladder(out io.Writer, workload string, rungs []rung) {
	for i, r := range rungs {
		fmt.Fprintf(out, "# ladder %s: %-24s %8.2f ns/pkt (slice IQR %.1f%%)\n", workload, r.name, r.p.nsPerPkt(), iqrPct(r.p.slicePPS))
		if i > 0 && r.p.nsPerPkt() < rungs[i-1].p.nsPerPkt() {
			fmt.Fprintf(out, "# ladder %s: INVERSION: %q measured %.2f ns/pkt below %q\n",
				workload, r.name, rungs[i-1].p.nsPerPkt()-r.p.nsPerPkt(), rungs[i-1].name)
		}
	}
}
