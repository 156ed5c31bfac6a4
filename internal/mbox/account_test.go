package mbox

// Forward first, account after: a run's packets reach the emit hook before
// the run is tallied, observed and audited. These tests pin the order, that
// every enforced run is accounted exactly once (an emit hook that panics
// included), that out-of-range verdicts are counted whatever the emit hook,
// and that the latency digest times every burst.

import (
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// cycleEnforcer answers packet i with vs[i % len(vs)], counting across calls.
type cycleEnforcer struct {
	vs []enforcer.Verdict
	i  int
}

func (c *cycleEnforcer) Submit(time.Duration, packet.Packet) enforcer.Verdict {
	v := c.vs[c.i%len(c.vs)]
	c.i++
	return v
}

// TestTallyCountsVerdicts pins tallyRun's masks against every in-range
// verdict and out-of-range ones on both sides, negative included.
func TestTallyCountsVerdicts(t *testing.T) {
	vs := []enforcer.Verdict{
		enforcer.Transmit, enforcer.Drop, enforcer.Queued, enforcer.TransmitCE,
		-1, 4, 63, 64, 0xBAD, -1 << 62,
	}
	pkts := make([]packet.Packet, len(vs))
	for i := range pkts {
		pkts[i].Size = 1 << i
	}
	got := tallyRun(pkts, vs)
	want := runTally{
		pkts: int64(len(vs)), bytes: 1<<len(vs) - 1,
		accPkts: 3, accBytes: 1<<0 | 1<<2 | 1<<3,
		bad: int64(len(vs)) - 4,
	}
	if got != want {
		t.Errorf("tallyRun = %+v, want %+v", got, want)
	}
}

// TestBadVerdictsCountedWithoutEmitHook: an out-of-range verdict is coerced
// to Drop and counted in BadVerdicts whether or not its aggregate has an emit
// hook (the emit loop, which an aggregate without one skips, used to be the
// only place that counted them) and whether or not the engine is observed,
// and an observed aggregate tallies it as a drop.
func TestBadVerdictsCountedWithoutEmitHook(t *testing.T) {
	verdicts := []enforcer.Verdict{
		enforcer.Transmit, 0xBAD, enforcer.Drop, -1, enforcer.Queued, enforcer.TransmitCE, 4,
	}
	const bad, accepted = 3, 3
	n := len(verdicts)
	for _, observer := range []*obs.Collector{nil, obs.NewCollector(obs.Options{})} {
		observed := observer != nil
		e := New(Config{Shards: 1, Observer: observer})
		defer e.Close()
		hSilent, err := e.Add("silent", &cycleEnforcer{vs: verdicts}, nil)
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		hHooked, err := e.Add("hooked", &cycleEnforcer{vs: verdicts}, func(packet.Packet) { emitted++ })
		if err != nil {
			t.Fatal(err)
		}

		// On an idle shard SubmitBatch serves the burst before it returns.
		if err := e.SubmitBatch(hSilent, burstOf(n, 0)); err != nil {
			t.Fatal(err)
		}
		if got := e.BadVerdicts.Load(); got != bad {
			t.Errorf("observed=%v: BadVerdicts = %d after a run with no emit hook, want %d", observed, got, bad)
		}
		if err := e.SubmitBatch(hHooked, burstOf(n, 0)); err != nil {
			t.Fatal(err)
		}
		if got := e.Health().BadVerdicts; got != 2*bad {
			t.Errorf("observed=%v: BadVerdicts = %d after both runs, want %d", observed, got, 2*bad)
		}
		if emitted != 2 {
			t.Errorf("observed=%v: emit hook saw %d packets, want 2 (Transmit and TransmitCE)", observed, emitted)
		}
		if !observed {
			continue
		}
		for _, id := range []string{"silent", "hooked"} {
			agg, err := e.aggByID(id)
			if err != nil {
				t.Fatal(err)
			}
			c := agg.obs.Snapshot()
			if c.AcceptedPackets != accepted || c.DroppedPackets != int64(n-accepted) {
				t.Errorf("%s: tallied %d accepted, %d dropped, want %d and %d",
					id, c.AcceptedPackets, c.DroppedPackets, accepted, n-accepted)
			}
		}
	}
}

// TestEmitPanicAccountedOnce: an observed, audited aggregate whose emit hook
// panics at packet k of a run. The barrier accounts the run once, in full —
// its verdicts stand — and degrades the un-emitted tail as it always has.
func TestEmitPanicAccountedOnce(t *testing.T) {
	const n, k = 8, 3
	c := obs.NewCollector(obs.Options{})
	e := New(Config{Shards: 1, Observer: c, Clock: func() time.Duration { return time.Second }})
	defer e.Close()
	emitted := 0
	h, err := e.Add("a", tbf.MustNew(units.Mbps, 100*units.MSS), func(packet.Packet) {
		if emitted == k {
			panic("emit: injected fault")
		}
		emitted++
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("a", units.Mbps, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch(h, burstOf(n, 0)); err != nil {
		t.Fatal(err)
	}
	st, err := e.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.AcceptedPackets != n {
		t.Fatalf("enforcer accepted %d of %d packets; the test needs all of them", st.AcceptedPackets, n)
	}

	if got := e.Panics.Load(); got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
	if emitted != k {
		t.Errorf("emit hook passed %d packets before the fault, want %d", emitted, k)
	}
	fr, err := e.Faults("a")
	if err != nil {
		t.Fatal(err)
	}
	if fr.DegradedDrops != n-k-1 || !fr.Quarantined {
		t.Errorf("faults = %+v, want %d degraded drops (the tail past packet %d) and quarantine", fr, n-k-1, k)
	}
	agg, err := e.aggByID("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.obs.Snapshot(); got.AcceptedPackets != n || got.AcceptedBytes != n*units.MSS || got.DroppedPackets != 0 {
		t.Errorf("AggObs = %+v, want the run once: %d packets, %d bytes accepted", got, n, n*units.MSS)
	}
	report := e.AuditReport()
	if len(report) != 1 || report[0].Counters.AcceptedBytes != n*units.MSS {
		t.Fatalf("audit report %+v, want one envelope with %d accepted bytes", report, n*units.MSS)
	}
	if got := c.Bursts(); got != 1 {
		t.Errorf("Collector.Bursts = %d, want 1", got)
	}
}

// TestEmitRunsBeforeObserve pins the order: an emit hook that reads its own
// aggregate's counters and audit envelope sees the totals of the runs before
// its own, never its own run's.
func TestEmitRunsBeforeObserve(t *testing.T) {
	const bursts, n = 5, 4
	e := New(Config{Shards: 1, Observer: obs.NewCollector(obs.Options{}),
		Clock: func() time.Duration { return time.Second }})
	defer e.Close()
	var agg *aggregate
	type seen struct{ pkts, auditBytes int64 }
	var seenAt []seen
	h, err := e.Add("a", tbf.MustNew(units.Mbps, 100*units.MSS), func(packet.Packet) {
		seenAt = append(seenAt, seen{
			agg.obs.Snapshot().AcceptedPackets,
			agg.audit.Load().whole.Snapshot().AcceptedBytes,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("a", units.Mbps, 1<<30); err != nil {
		t.Fatal(err)
	}
	if agg, err = e.aggByID("a"); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < bursts; b++ {
		if err := e.SubmitBatch(h, burstOf(n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush("a", func(enforcer.Enforcer) {}); err != nil {
		t.Fatal(err)
	}
	if len(seenAt) != bursts*n {
		t.Fatalf("emit hook ran %d times, want %d", len(seenAt), bursts*n)
	}
	for i, s := range seenAt {
		before := int64(i / n * n) // packets accepted by the earlier runs
		if s != (seen{before, before * units.MSS}) {
			t.Fatalf("packet %d (run %d) saw %d packets / %d audited bytes, want the earlier runs' %d / %d",
				i, i/n, s.pkts, s.auditBytes, before, before*units.MSS)
		}
	}
}

// TestLatencyDigestTimesEveryBurst: whoever serves a burst — its submitter,
// the shard goroutine behind a held shard, a LocalSubmitter — and whether it
// is enforced or degraded, the latency digest times it, so after N bursts its
// count is Collector.Bursts() and both are N.
func TestLatencyDigestTimesEveryBurst(t *testing.T) {
	const perPath = 25
	c := obs.NewCollector(obs.Options{})
	e := New(Config{Shards: 1, Observer: c})
	defer e.Close()
	h, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), func(packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	hBomb, err := e.Add("bomb", bombEnforcer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(submit func(Handle, []packet.Packet) error, h Handle) {
		t.Helper()
		for i := 0; i < perPath; i++ {
			if err := submit(h, burstOf(4, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(e.SubmitBatch, h)     // served by the caller
	submit(ls.SubmitBatch, h)    // inline
	submit(e.SubmitBatch, hBomb) // one panics, the rest degrade
	release := holdShard(t, e, "a")
	submit(e.SubmitBatch, h) // queued for the shard goroutine
	release()
	if err := e.Flush("a", func(enforcer.Enforcer) {}); err != nil {
		t.Fatal(err)
	}
	const want = 4 * perPath
	if got := c.Bursts(); got != want {
		t.Errorf("Collector.Bursts = %d, want %d", got, want)
	}
	if got := c.BurstLatencyDigest().Total(); got != want {
		t.Errorf("latency digest holds %d bursts, want %d", got, want)
	}
	if sh := e.Health().Shards[0]; sh.Queued != perPath {
		t.Errorf("shard goroutine served %d bursts, want %d", sh.Queued, perPath)
	}
}
