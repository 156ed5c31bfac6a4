package mbox

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/ptree"
	"bcpqp/internal/rng"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// TestAuditChainsMatchReference: for drawn scripts over flat aggregates and
// policy trees — arms and re-arms with honest and tight envelopes, rate
// changes and cluster shares, bursts through the ring and inline, clock
// steps — each aggregate's one envelope credits exactly what the model's
// ledger credits, run for run, whichever leaves a tree routed the run to,
// and an honest envelope over a conformant enforcer never breaches:
// runModel checks both after every op.
func TestAuditChainsMatchReference(t *testing.T) {
	r := rng.New(16)
	kinds := []byte{kTBF, kBCPQP, kTree, kTree | fOverAdmit}
	for round := 0; round < 100; round++ {
		sc := []byte{byte(r.IntN(3))}
		for id := byte(0); id < 3; id++ {
			sc = append(sc, add(id, kinds[r.IntN(len(kinds))], hook)...)
		}
		for step := 0; step < 40; step++ {
			id, n := byte(r.IntN(3)), byte(1+r.IntN(32))
			switch r.IntN(6) {
			case 0:
				sc = append(sc, arm(id, byte(r.IntN(2)))...)
			case 1:
				sc = append(sc, setRate(id, byte(1+r.IntN(250)))...)
			case 2:
				sc = append(sc, op(opApplyShare, id, byte(r.IntN(2)), byte(1+r.IntN(250)))...)
			case 3:
				sc = append(sc, local(id, 0, n)...)
			case 4:
				sc = append(sc, op(opClock, byte(r.IntN(256)), byte(r.IntN(6)), 0)...)
			default:
				sc = append(sc, submit(id, 0, n)...)
			}
		}
		runModel(t, sc)
	}
}

// allocatedBy returns the bytes and objects the whole process allocated
// while fn ran (the shard goroutine runs arming closures, so per-goroutine
// accounting would miss them).
func allocatedBy(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestArmAuditIsNotTreeSized is the regression test for arming being O(tree
// size): on a 100,101-node tree, arming the envelope allocates under 4 KB (it
// once allocated a slot and a chain per node, ≈ 4 MB and 100 k objects, on
// every arm and re-arm). The envelope is credited by the bursts the tree
// routes, every accepted byte once.
func TestArmAuditIsNotTreeSized(t *testing.T) {
	const pools, leaves = 100, 1000
	spec := []ptree.NodeSpec{{Parent: -1, Stage: tbf.MustNew(10*units.Gbps, 1<<20)}}
	for p := 0; p < pools; p++ {
		pidx := len(spec)
		spec = append(spec, ptree.NodeSpec{Parent: 0, Stage: tbf.MustNew(100*units.Mbps, 1<<18)})
		for l := 0; l < leaves; l++ {
			spec = append(spec, ptree.NodeSpec{Parent: pidx, Assured: 64 * units.Kbps})
		}
	}
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read})
	defer e.Close()
	h, err := e.Add("big", ptree.MustNew(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // arm, then re-arm
		bytes, objects := allocatedBy(func() {
			if err := e.ArmAudit("big", 10*units.Gbps, 1<<20); err != nil {
				t.Fatal(err)
			}
		})
		if bytes >= 4096 {
			t.Errorf("ArmAudit on a %d-node tree allocated %d bytes in %d objects, want < 4 KB", len(spec), bytes, objects)
		}
	}

	batch := []packet.Packet{pkt(0), pkt(1), pkt(57), pkt(123456)}
	for i := 0; i < 2; i++ {
		clk.add(time.Millisecond)
		if err := e.SubmitBatch(h, batch); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.Stats("big")
	if err != nil {
		t.Fatal(err)
	}
	rep := e.AuditReport()
	if len(rep) != 1 || st.AcceptedBytes == 0 || rep[0].Counters.AcceptedBytes != st.AcceptedBytes {
		t.Errorf("audit report %+v for a tree that accepted %d bytes: want one envelope crediting them all", rep, st.AcceptedBytes)
	}
}

// watchedTable registers n saturable token-bucket aggregates pinned to
// shard 0 and, when watch is set, arms the conformance envelope on each.
func watchedTable(t testing.TB, e *Engine, n int, watch bool) []Handle {
	t.Helper()
	handles := make([]Handle, n)
	for i := range handles {
		id := fmt.Sprintf("sub-%04d", i)
		h, err := e.AddPinned(id, 0, tbf.MustNew(2*units.Mbps, 64<<10), nil)
		if err != nil {
			t.Fatal(err)
		}
		if watch {
			if err := e.ArmAudit(id, 2*units.Mbps, 128<<10); err != nil {
				t.Fatal(err)
			}
		}
		handles[i] = h
	}
	return handles
}

// liveHeap returns HeapAlloc after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: what earlier tests left for the sweeper
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestBytesPerWatchedAggregate pins what watching costs per flat aggregate
// — the AggObs block and its meter, the audit record, both digest spans —
// as the difference between a table with Observe + ArmAudit and the same
// table with neither. Right after arming, which is where the benchmark
// reads heap_mb (its 0.12 virtual seconds of warm-up close no rate-error
// window): ≤ 1,024 B. And in steady state, where it does not look: after
// 1,000 rate-error windows of saturating bursts at jittered intervals, so
// the accept rate of each window is off by up to tens of percent and the
// rate-error digest spreads over its fifty-odd buckets: ≤ 1,536 B.
func TestBytesPerWatchedAggregate(t *testing.T) {
	const subs = 1024
	if sz := unsafe.Sizeof(aggAudit{}); sz > 160 {
		t.Errorf("audit record is %d bytes, want ≤ 160 (one size class above the 144-byte obs.Audit)", sz)
	}
	if sz := unsafe.Sizeof(obs.AggObs{}); sz != 64 {
		t.Errorf("AggObs is %d bytes, want one 64-byte line", sz)
	}
	build := func(watch bool) (*Engine, *manualClock, []Handle) {
		clk := &manualClock{}
		cfg := Config{Shards: 1, Clock: clk.read}
		if watch {
			// Minimal rings: the flight recorder is per shard, not per
			// aggregate, and is not what is being weighed.
			cfg.Observer = obs.NewCollector(obs.Options{RingDepth: 2})
		}
		e := New(cfg)
		return e, clk, watchedTable(t, e, subs, watch)
	}
	h0 := liveHeap()
	bare, _, _ := build(false)
	h1 := liveHeap()
	watched, clk, handles := build(true)
	h2 := liveHeap()
	defer bare.Close()
	defer watched.Close()
	armed := float64((h2-h1)-(h1-h0)) / subs
	t.Logf("%.0f B of watcher state per aggregate right after arming", armed)
	if armed > 1024 {
		t.Errorf("a watched aggregate costs %.0f B right after arming, want ≤ 1024", armed)
	}

	ls, err := watched.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	// Thirty-two packets per burst against a 2 Mbps, 64 kB bucket, 40 to
	// 160 ms apart: each burst offers more than has refilled, so the bucket
	// empties every time and a window's accepted bytes depend on where its
	// bursts fell. The packet size is redrawn per round so accepted bytes
	// are not multiples of one size.
	batch := make([]packet.Packet, 32)
	r := rng.New(7)
	for clk.read() < 1000*250*time.Millisecond+time.Second {
		clk.add(time.Duration(40+r.IntN(120)) * time.Millisecond)
		size := 1300 + r.IntN(700)
		for i := range batch {
			batch[i].Size = size
		}
		for _, h := range handles {
			if err := ls.SubmitBatch(h, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	steady := float64((liveHeap()-h1)-(h1-h0)) / subs
	var windows, errBuckets, slackBuckets int
	for _, ent := range watched.AuditReport() {
		if ent.Counters.Violations != 0 {
			t.Fatalf("%s breached its envelope: %+v", ent.Aggregate, ent.Counters)
		}
		windows += int(ent.Counters.Windows)
		errBuckets += populated(ent.RateErr)
		slackBuckets += populated(ent.Slack)
	}
	t.Logf("%.0f B per aggregate after %d rate-error windows each; %.1f rate-error and %.1f slack buckets populated",
		steady, windows/subs, float64(errBuckets)/subs, float64(slackBuckets)/subs)
	if steady > 1536 {
		t.Errorf("a watched aggregate costs %.0f B in steady state, want ≤ 1536", steady)
	}
	if windows < 1000*subs || errBuckets < 15*subs {
		t.Errorf("%d windows and %.1f rate-error buckets per aggregate: the run no longer spreads the digest", windows/subs, float64(errBuckets)/subs)
	}
	runtime.KeepAlive(bare)
}

func populated(s obs.DigestSnapshot) (n int) {
	for _, c := range s.Counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// TestWatchedSteadyStateAllocs: once its digests have found their spans, an
// observed + audited burst allocates nothing — across hundreds of meter and
// rate-error windows, where the old meter appended a slot per window and
// rebuilt its map every 64th.
func TestWatchedSteadyStateAllocs(t *testing.T) {
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read, Observer: obs.NewCollector(obs.Options{})})
	defer e.Close()
	handles := watchedTable(t, e, 4, true)
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]packet.Packet, 8)
	for i := range batch {
		batch[i] = packet.Packet{Size: 8000}
	}
	r := rng.New(3)
	round := func() {
		clk.add(time.Duration(40+r.IntN(120)) * time.Millisecond)
		for _, h := range handles {
			if err := ls.SubmitBatch(h, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3000; i++ { // ≈ 1,200 windows: every span has grown to size
		round()
	}
	start := clk.read()
	const rounds = 1000
	_, objects := allocatedBy(func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	})
	if windows := (clk.read() - start) / (250 * time.Millisecond); windows < 200 {
		t.Fatalf("measured only %d meter windows, want ≥ 200", windows)
	}
	// The process is not quiet (watchdog and wall tickers run), so allow
	// a handful; one allocation per window, let alone per burst, is ≥ 200.
	if objects > 20 {
		t.Errorf("%d observed + audited bursts allocated %d objects, want none", rounds*len(handles), objects)
	}
}

// TestMetricsScrapeAllocations bounds a scrape over 4,096 armed auditors:
// a fixed number of label and sample allocations per auditor and two
// span-sized accumulators in all, where merging used to walk 2 × 488
// atomics per auditor into dense accumulators.
func TestMetricsScrapeAllocations(t *testing.T) {
	const subs = 4096
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read, Observer: obs.NewCollector(obs.Options{})})
	defer e.Close()
	handles := watchedTable(t, e, subs, true)
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	batch := []packet.Packet{{Size: 8000}, {Size: 8000}}
	for i := 0; i < 5; i++ {
		clk.add(130 * time.Millisecond)
		for _, h := range handles {
			if err := ls.SubmitBatch(h, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snap obs.Snapshot
	bytes, objects := allocatedBy(func() { snap = e.Metrics() })
	t.Logf("scrape over %d auditors: %d objects, %d bytes (%.1f objects, %.0f B per auditor)",
		subs, objects, bytes, float64(objects)/subs, float64(bytes)/subs)
	if objects > 8*subs {
		t.Errorf("a scrape allocated %.1f objects per auditor, want ≤ 8", float64(objects)/subs)
	}
	for _, f := range snap.Families {
		if f.Name == "bcpqp_conformance_slack_distribution_bytes" {
			if got := f.Samples[0].Hist.Count; got != 5*subs {
				t.Errorf("merged slack digest holds %d runs, want %d", got, 5*subs)
			}
			return
		}
	}
	t.Error("merged slack digest missing from the scrape")
}
