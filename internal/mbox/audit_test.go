package mbox

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/faultinject"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// manualClock is a virtual clock the test sets explicitly: every engine
// read returns the last value stored, so the (now, bytes) tuples the
// auditor sees are fully under test control and a shadow obs.Audit fed the
// same tuples must agree bit-for-bit.
type manualClock struct{ ns atomic.Int64 }

func (c *manualClock) read() time.Duration { return time.Duration(c.ns.Load()) }
func (c *manualClock) set(d time.Duration) { c.ns.Store(int64(d)) }
func (c *manualClock) add(d time.Duration) { c.ns.Add(int64(d)) }

// TestAuditMetricsExport: armed auditors surface in Metrics() — the
// conformance families plus the always-on inline ring-bypass counters.
func TestAuditMetricsExport(t *testing.T) {
	clk := &manualClock{}
	e := New(Config{Shards: 1, Clock: clk.read, QueueDepth: 1 << 12})
	defer e.Close()
	h, err := e.Add("m", tbf.MustNew(units.Mbps, 4*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Unarmed: no conformance families, but inline counters always export.
	names := map[string]int{}
	for _, f := range e.Metrics().Families {
		names[f.Name] = len(f.Samples)
	}
	if _, ok := names["bcpqp_inline_bursts_total"]; !ok {
		t.Fatal("bcpqp_inline_bursts_total missing from export")
	}
	if _, ok := names["bcpqp_inline_fallbacks_total"]; !ok {
		t.Fatal("bcpqp_inline_fallbacks_total missing from export")
	}
	if _, ok := names["bcpqp_conformance_violations_total"]; ok {
		t.Fatal("conformance families exported with nothing armed")
	}

	if err := e.ArmAudit("m", units.Mbps/10, 0); err != nil { // understated: violates
		t.Fatal(err)
	}
	batch := make([]packet.Packet, 32)
	for i := range batch {
		batch[i] = pkt(i)
	}
	clk.add(time.Millisecond)
	if err := e.SubmitBatch(h, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Stats("m"); err != nil {
		t.Fatal(err)
	}
	var vio float64
	found := map[string]bool{}
	for _, f := range e.Metrics().Families {
		found[f.Name] = true
		if f.Name == "bcpqp_conformance_violations_total" {
			for _, s := range f.Samples {
				vio += s.Value
			}
		}
	}
	for _, want := range []string{
		"bcpqp_conformance_violations_total", "bcpqp_conformance_envelope_bps",
		"bcpqp_conformance_slack_bytes", "bcpqp_conformance_min_slack_bytes",
		"bcpqp_conformance_max_deficit_bytes", "bcpqp_conformance_windows_total",
		"bcpqp_conformance_slack_distribution_bytes", "bcpqp_conformance_rate_error_permille",
	} {
		if !found[want] {
			t.Fatalf("family %s missing from export", want)
		}
	}
	if vio == 0 {
		t.Fatal("deliberate violation did not light bcpqp_conformance_violations_total")
	}
}

// TestAuditChurnReconciliation is the -race chaos test: concurrent
// submitters, live rate churn, scrapes and an over-admitting injector, and
// at quiesce the auditor's accepted bytes still reconcile exactly against
// enforcer stats + injector ground truth (no audited byte lost or double
// counted under concurrency).
func TestAuditChurnReconciliation(t *testing.T) {
	clk := &fakeClock{step: 10 * time.Microsecond}
	e := New(Config{Shards: 2, Clock: clk.now, QueueDepth: 1 << 14})
	defer e.Close()

	const rate = 8 * units.Mbps
	inj := faultinject.New(tbf.MustNew(rate, 16*units.MSS), faultinject.Plan{
		Seed:      7,
		OverAdmit: 0.1,
	})
	h, err := e.Add("racy", inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ArmAudit("racy", rate, 16*units.MSS); err != nil {
		t.Fatal(err)
	}

	var producers, scraper sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			batch := make([]packet.Packet, 16)
			for i := range batch {
				batch[i] = pkt(w*16 + i)
			}
			for i := 0; i < 400; i++ {
				if err := e.SubmitBatch(h, batch); err != nil {
					return
				}
			}
		}(w)
	}
	producers.Add(1)
	go func() { // control churn: rebases race the datapath
		defer producers.Done()
		rates := []units.Rate{4 * units.Mbps, 12 * units.Mbps, 8 * units.Mbps}
		for i := 0; i < 60; i++ {
			if err := e.SetRate("racy", rates[i%len(rates)]); err != nil {
				return
			}
		}
	}()
	scraper.Add(1)
	go func() { // scrapes race everything
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Metrics()
				e.AuditReport()
			}
		}
	}()
	producers.Wait()
	close(stop)
	scraper.Wait()

	st, err := e.Stats("racy") // barrier: every queued burst audited
	if err != nil {
		t.Fatal(err)
	}
	rep := e.AuditReport()
	if len(rep) != 1 {
		t.Fatalf("AuditReport has %d entries", len(rep))
	}
	got := rep[0].Counters.AcceptedBytes
	want := st.AcceptedBytes + inj.OverAdmittedBytes.Load()
	if got != want {
		t.Fatalf("audited accepted bytes %d != enforcer %d + injected flips %d",
			got, st.AcceptedBytes, inj.OverAdmittedBytes.Load())
	}
	if got == 0 {
		t.Fatal("no bytes audited")
	}
}
