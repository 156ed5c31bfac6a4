package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.99, 50}, {1, 50},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
	// p99 of 1000 samples has ten samples beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedianAndIQR(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	// 1..8: q25 = 2, q75 = 6, median 4.5.
	if got, want := iqrPct([]float64{1, 2, 3, 4, 5, 6, 7, 8}), 100*4/4.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("iqrPct = %v, want %v", got, want)
	}
}

// The reported throughput, CPU and latency are medians over the fastest 1 %
// of slices.
func TestPickFastestSlices(t *testing.T) {
	// 300 slices: the fastest three are 10, 200 and 299.
	p := phase{slicePPS: make([]float64, 300), sliceCPU: make([]float64, 300)}
	latEnd := make([]int, 300)
	for i := range p.slicePPS {
		p.slicePPS[i], p.sliceCPU[i] = 100+float64(i%7), 50
		p.latUs = append(p.latUs, 9, 9) // two samples per slice
		latEnd[i] = len(p.latUs)
	}
	for _, f := range []struct {
		i             int
		pps, cpu, lat float64
	}{{10, 900, 3, 4}, {200, 700, 1, 6}, {299, 800, 2, 5}} {
		p.slicePPS[f.i], p.sliceCPU[f.i] = f.pps, f.cpu
		p.latUs[2*f.i], p.latUs[2*f.i+1] = f.lat, f.lat
	}
	p.pickFastest(latEnd)
	if p.pps != 800 || p.cpu != 2 || p.latP50 != 5 {
		t.Fatalf("pps %v cpu %v lat %v, want the medians 800, 2, 5 of the three fastest slices", p.pps, p.cpu, p.latP50)
	}
	if got := p.nsPerPkt(); math.Abs(got-1e9/800) > 1e-6 {
		t.Errorf("nsPerPkt = %v", got)
	}

	// Fewer than 100 slices: the single fastest; without samples of its
	// own, the latency falls back to the whole phase.
	q := phase{slicePPS: []float64{100, 300, 200}, sliceCPU: []float64{9, 3, 1}, latUs: []float64{50, 60, 90}}
	q.pickFastest([]int{2, 2, 3})
	if q.pps != 300 || q.cpu != 3 || q.latP50 != 60 {
		t.Errorf("pps %v cpu %v lat %v, want 300, 3 and the phase median 60", q.pps, q.cpu, q.latP50)
	}
}

func TestMeanJain(t *testing.T) {
	equal := []float64{5, 5, 5, 5}
	hog := []float64{8, 0, 0, 0}
	idle := []float64{0, 0, 0, 0}
	if got := meanJain([][]float64{equal}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares: %v", got)
	}
	if got := meanJain([][]float64{hog}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("one of four takes all: %v, want 1/4", got)
	}
	if got := meanJain([][]float64{equal, hog, idle}); math.Abs(got-0.625) > 1e-12 {
		t.Errorf("mean over active aggregates: %v, want (1+0.25)/2", got)
	}
	if got := meanJain([][]float64{idle}); got != 1 {
		t.Errorf("nothing accepted anywhere: %v, want 1", got)
	}
	// The offered skew itself: what a policer blind to flows would score.
	w := make([]float64, flows)
	for f := range w {
		w[f] = float64(5 + f)
	}
	if got := meanJain([][]float64{w}); got < 0.87 || got > 0.89 {
		t.Errorf("Jain of the 1×–4× skew = %v, want ≈ 0.88", got)
	}
}

func TestFoldRatio(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{1, 1}, {0.5, 0.5}, {2, 0.5}, {0, 0}, {-1, 0}} {
		if got := foldRatio(c.in); got != c.want {
			t.Errorf("foldRatio(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// fakeClock hands the tracer scripted readings.
func fakeClock(ts ...int64) func() int64 {
	i := 0
	return func() int64 {
		v := ts[i]
		i++
		return v
	}
}

func TestSpanSelfTimeNestedAndAdjacent(t *testing.T) {
	// feed [0,100] ⊃ rx [10,30], inline [30,80] ⊃ enforcer [40,70]; then an
	// adjacent top-level sink [100,150].
	tr := newTracer()
	tr.now = fakeClock(0, 10, 30, 30, 40, 70, 80, 100, 100, 150)
	tr.setBurst(7)
	tr.begin(layerFeed)
	tr.begin(layerRx)
	tr.end()
	tr.begin(layerInline)
	tr.begin(layerEnforcer)
	tr.end()
	tr.end()
	tr.end()
	tr.begin(layerSink)
	tr.end()

	want := map[layer][2]int64{ // total, self
		layerFeed:     {100, 30}, // 100 − rx 20 − inline 50
		layerRx:       {20, 20},
		layerInline:   {50, 20}, // 50 − enforcer 30
		layerEnforcer: {30, 30},
		layerSink:     {50, 50},
	}
	for l, w := range want {
		if got := tr.total[l]; got.Total != w[0] || got.SelfNs != w[1] || got.Count != 1 {
			t.Errorf("%s: %+v, want total %d self %d", layerNames[l], got, w[0], w[1])
		}
	}
	if tr.selfNs != 150 {
		t.Errorf("Σ self = %d, want the 150 ns the top-level spans cover", tr.selfNs)
	}
	parents := []int32{-1, 0, 0, 2, -1}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Burst != 7 {
			t.Errorf("span %d (%s): parent %d burst %d", i, layerNames[s.Layer], s.Parent, s.Burst)
		}
	}

	// Off means off, for a nil tracer too.
	tr.on = false
	tr.begin(layerFeed)
	tr.end()
	var none *tracer
	none.begin(layerFeed)
	none.end()
	none.setBurst(1)
	if tr.total[layerFeed].Count != 1 {
		t.Error("a span was recorded while tracing was off")
	}
}

func TestTracerAbsorbAndSince(t *testing.T) {
	main, shard := newTracer(), newTracer()
	main.now = fakeClock(0, 5)
	shard.now = fakeClock(100, 130, 200, 210)
	main.begin(layerRing)
	main.end()
	before := main.total
	shard.begin(layerEnforcer)
	shard.end()
	main.absorb(shard)
	shard.begin(layerEnforcer)
	shard.end()
	main.absorb(shard)
	if got := main.total[layerEnforcer]; got.Count != 2 || got.SelfNs != 40 {
		t.Errorf("absorbed enforcer totals %+v", got)
	}
	if shard.total[layerEnforcer].Count != 0 || len(shard.spans) != 0 {
		t.Error("absorb left records behind")
	}
	d := main.since(before)
	if d[layerRing].Count != 0 || d[layerEnforcer].Count != 2 {
		t.Errorf("since: %+v", d)
	}
	if len(main.spans) != 3 {
		t.Errorf("%d spans retained, want 3", len(main.spans))
	}
}

func TestArrivalsDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) (targets []int, fl []int) {
		a := newArrivals(seed, 4096)
		for i := 0; i < 500; i++ {
			tgt, base := a.next(burstLen)
			targets = append(targets, tgt)
			for j := 0; j < burstLen; j++ {
				fl = append(fl, a.flowAt(base, j))
			}
		}
		return
	}
	t1, f1 := draw(42)
	t2, f2 := draw(42)
	t3, f3 := draw(43)
	same := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(t1, t2) || !same(f1, f2) {
		t.Error("one seed produced two arrival sequences")
	}
	if same(t1, t3) || same(f1, f3) {
		t.Error("two seeds produced one arrival sequence")
	}
	seen := make(map[int]bool)
	for _, tgt := range t1 {
		if tgt < 0 || tgt >= 4096 {
			t.Fatalf("target %d out of range", tgt)
		}
		seen[tgt] = true
	}
	if len(seen) < 400 {
		t.Errorf("500 draws hit only %d of 4096 targets", len(seen))
	}
}

func TestSkewSequence(t *testing.T) {
	seq := skewSequence(0)
	var count [flows]int
	for _, f := range seq {
		count[f]++
	}
	for f, c := range count {
		if c != 5+f {
			t.Errorf("flow %d holds %d slots, want %d", f, c, 5+f)
		}
	}
	if offeredLoad != 2.5 {
		t.Errorf("offered load %v, want 2.5× (sixteen flows at 1×–4× a fair share)", offeredLoad)
	}
	// Smooth: every 32-slot burst carries the heaviest flow 2–4 times and
	// the lightest at most once.
	for base := 0; base < skewSlots; base += 8 {
		var c [flows]int
		for i := 0; i < burstLen; i++ {
			c[seq[(base+i)%skewSlots]]++
		}
		if c[flows-1] < 2 || c[flows-1] > 4 || c[0] > 1 {
			t.Errorf("burst at %d: heaviest ×%d, lightest ×%d", base, c[flows-1], c[0])
		}
	}
	rot := skewSequence(3)
	for i := range rot {
		if rot[i] != seq[(i+3)%skewSlots] {
			t.Fatal("rotation is not a rotation")
		}
	}
}

func TestBurstTemplatesCoverEveryCursor(t *testing.T) {
	a := newArrivals(1, 8)
	tmpl := burstTemplates(a, burstLen, 1500, nil)
	for i := 0; i < 1000; i++ {
		_, base := a.next(burstLen)
		pkts := tmpl[base]
		if len(pkts) != burstLen {
			t.Fatalf("cursor %d has no template", base)
		}
		for j, p := range pkts {
			if p.Class != a.flowAt(base, j) || p.Size != 1500 {
				t.Fatalf("template %d packet %d: class %d size %d", base, j, p.Class, p.Size)
			}
		}
	}
	one := burstTemplates(a, 1, 64, nil)
	for base := range one {
		if len(one[base]) != 1 {
			t.Fatalf("single-packet template missing at %d", base)
		}
	}
}

func TestShape(t *testing.T) {
	w := workload{pps: 20e6, burst: 32, round: 1}
	if sh := w.shape(10, 1); sh.slices != 2000 || sh.steps != 3125 {
		t.Errorf("ten seconds: %+v, want 2000 slices of 5 ms", sh)
	}
	if sh := w.shape(10, smokeDiv); sh.slices != minSlices || sh.steps != 781 {
		t.Errorf("smoke: %+v", sh)
	}
	w.round = ringWindow
	if sh := w.shape(10, 1); sh.steps%ringWindow != 0 || sh.steps < 3125 {
		t.Errorf("ring slices must end on a barrier: %+v", sh)
	}
	w = workload{pps: 100, burst: 32, round: 1}
	if sh := w.shape(1, smokeDiv); sh.steps != 1 || sh.slices != minSlices {
		t.Errorf("tiny phase: %+v", sh)
	}
}

func TestVerifyCatchesBrokenBooks(t *testing.T) {
	good := tally{offered: 100, accepted: 40, dropped: 60, delivered: 40,
		offeredBytes: 100_000, acceptedBytes: 40_000, virtualNs: 1e9, rateBps: 8 * 40_000, allowance: 1000}
	p := phase{after: good}
	if bad := p.verify(); len(bad) != 0 {
		t.Fatalf("clean books rejected: %v", bad)
	}
	for name, mutate := range map[string]func(*tally){
		"conservation":           func(t *tally) { t.dropped-- },
		"sink":                   func(t *tally) { t.delivered-- },
		"not the ones forwarded": func(t *tally) { t.mismatched = 1 },
		"audit_violations":       func(t *tally) { t.violations = 1 },
		"shed_pkts":              func(t *tally) { t.shed = 1 },
		"Theorem 1":              func(t *tally) { t.acceptedBytes += 2000 },
	} {
		q := phase{after: good}
		mutate(&q.after)
		bad := q.verify()
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, ";"), name) {
			t.Errorf("%s: not reported, got %v", name, bad)
		}
	}
}

// BENCHMARK.json is written by hand; the driver refuses a run whose metric
// names differ from it.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q, implemented %q", i, d.Name, w.name)
		}
	}

	o := options{workload: "tree_deep", seed: 1, seconds: 10, div: smokeDiv, outDir: t.TempDir()}
	for _, c := range []struct {
		trace bool
		decl  []struct{ Name, Unit string }
	}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
		o.trace = c.trace
		var out strings.Builder
		if err := run(&out, o); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Metrics) != len(c.decl) {
			t.Errorf("trace=%v: %d metrics reported, %d declared", c.trace, len(rep.Metrics), len(c.decl))
		}
		for _, d := range c.decl {
			if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: %s declared in %q, reported %+v (present %v)", c.trace, d.Name, d.Unit, m, ok)
			}
		}
	}
}

// TestSmoke is the harness end to end at 1/200 scale: every workload runs,
// every output check passes, two runs of a seed agree on every count, and
// the traced run prices every layer and writes a readable trace.
func TestSmoke(t *testing.T) {
	o := options{workload: "all", seed: 3, seconds: 10, div: smokeDiv, outDir: t.TempDir()}
	if err := run(io.Discard, o); err != nil {
		t.Fatalf("untraced: %v", err)
	}
	o.trace = true
	var out strings.Builder
	if err := run(&out, o); err != nil {
		t.Fatalf("traced: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the report: %v", err)
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("report %+v", rep)
	}
	for _, name := range layerMetricNames {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	for _, w := range workloads {
		raw, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("%s trace: %v", w.name, err)
		}
		if tf.Workload != w.name || len(tf.Spans) == 0 || len(tf.Layers) == 0 {
			t.Errorf("%s trace: %d spans, %d layers", w.name, len(tf.Spans), len(tf.Layers))
		}
		for i, s := range tf.Spans {
			if s.End < s.Start || int(s.Parent) >= i {
				t.Fatalf("%s span %d: %+v", w.name, i, s)
			}
		}
	}
}
