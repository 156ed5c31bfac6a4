package mbox

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// metricValue extracts one sample from a metrics snapshot: the sample of
// family name whose first label value is labelVal ("" for unlabeled).
func metricValue(t *testing.T, snap obs.Snapshot, name, labelVal string) float64 {
	t.Helper()
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if labelVal == "" && len(s.Labels) == 0 {
				return s.Value
			}
			if len(s.Labels) > 0 && s.Labels[0].Value == labelVal {
				return s.Value
			}
		}
	}
	t.Fatalf("metric %s{%q} not found", name, labelVal)
	return 0
}

// bombEnforcer panics on every Submit.
type bombEnforcer struct{}

func (bombEnforcer) Submit(time.Duration, packet.Packet) enforcer.Verdict {
	panic("observe: injected fault")
}

func TestTraceDumpLifecycleKinds(t *testing.T) {
	c := obs.NewCollector(obs.Options{SampleEvery: 1})
	e := New(Config{Shards: 1, Observer: c})
	defer e.Close()

	if _, err := e.Add("victim", bombEnforcer{}, nil); err != nil {
		t.Fatal(err)
	}
	hv, _ := e.Lookup("victim")
	if err := e.SubmitBatch(hv, []packet.Packet{pkt(0)}); err != nil {
		t.Fatal(err)
	}
	// Flush rides behind the burst: once it returns, the panic is recorded.
	if err := e.Flush("victim", func(enforcer.Enforcer) {}); err != nil {
		t.Fatal(err)
	}
	if f, err := faults(e, "victim"); err != nil || !f.Quarantined {
		t.Fatalf("victim not quarantined after its burst: %+v, %v", f, err)
	}

	if _, err := e.Add("plan", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRate("plan", 2*units.Mbps); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Remove("plan"); err != nil {
		t.Fatal(err)
	}

	want := map[obs.Kind]bool{
		obs.KindPanic:      false,
		obs.KindQuarantine: false,
		obs.KindRateUpdate: false,
		obs.KindRemove:     false,
	}
	for _, ev := range e.TraceDump() {
		if _, ok := want[ev.Kind]; ok {
			want[ev.Kind] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("trace missing %v event", k)
		}
	}

	// The quarantine event's aggregate resolves while registered; the
	// removed aggregate's handle must NOT resolve (no slot aliasing).
	for _, ev := range e.TraceDump() {
		switch ev.Kind {
		case obs.KindQuarantine:
			if ev.AggID != "victim" {
				t.Errorf("quarantine event AggID = %q, want victim", ev.AggID)
			}
		case obs.KindRemove:
			if ev.AggID != "" && ev.AggID != "plan" {
				t.Errorf("remove event resolved to wrong aggregate %q", ev.AggID)
			}
		}
	}
}

func TestMetricsPrometheusExport(t *testing.T) {
	c := obs.NewCollector(obs.Options{SampleEvery: 1})
	e := New(Config{Shards: 2, Observer: c})
	defer e.Close()
	h, err := e.Add("sub \"42\"", tbf.MustNew(units.Mbps, 10*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch(h, []packet.Packet{pkt(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Stats("sub \"42\""); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, e.Metrics()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE bcpqp_aggregates gauge",
		"bcpqp_shard_state{shard=\"0\"}",
		"bcpqp_shard_state{shard=\"1\"}",
		`bcpqp_aggregate_accepted_packets_total{aggregate="sub \"42\""} 1`,
		"# TYPE bcpqp_burst_enforce_seconds histogram",
		"bcpqp_burst_enforce_seconds_count",
		"bcpqp_trace_events_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// A quarantined aggregate's traffic is dropped, never passed unenforced:
	// drops are the only degraded family.
	var degraded []string
	for _, f := range e.Metrics().Families {
		if strings.HasPrefix(f.Name, "bcpqp_degraded_") {
			degraded = append(degraded, f.Name)
		}
	}
	if !slices.Equal(degraded, []string{"bcpqp_degraded_drops_total"}) {
		t.Errorf("degraded families = %q, want only bcpqp_degraded_drops_total", degraded)
	}
}

func TestMetricsWithoutObserver(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	if _, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics()
	if v := metricValue(t, snap, "bcpqp_aggregates", ""); v != 1 {
		t.Errorf("bcpqp_aggregates = %g, want 1", v)
	}
	if v := metricValue(t, snap, "bcpqp_aggregate_quarantined", "a"); v != 0 {
		t.Errorf("quarantined gauge = %g, want 0", v)
	}
	for _, f := range snap.Families {
		if f.Name == "bcpqp_burst_enforce_seconds" || f.Name == "bcpqp_aggregate_rate_bps" {
			t.Errorf("observer-derived family %s exported without an Observer", f.Name)
		}
	}
	if e.TraceDump() != nil {
		t.Error("TraceDump without Observer should be nil")
	}
}

// TestObserveConcurrentChurn is the -race guarantee: Health, TraceDump,
// Metrics, Stats (including the ErrNoStats path) and SubmitBatch all run
// concurrently against a churning registry. Nothing may race, and no
// reader may observe a half-published aggregate (every error from Stats
// on a churned id is one of the published outcomes, never junk). Every
// worker runs until the churner has added and removed churns aggregates.
func TestObserveConcurrentChurn(t *testing.T) {
	c := obs.NewCollector(obs.Options{SampleEvery: 4, RingDepth: 256})
	e := New(Config{Shards: 2, Observer: c, QueueDepth: 1 << 12})
	defer e.Close()

	steady, err := e.Add("steady", tbf.MustNew(8*units.Mbps, 100*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add("mute", statlessEnforcer{}, nil); err != nil {
		t.Fatal(err)
	}

	const churns = 2000
	var churned atomic.Int64
	var wg sync.WaitGroup
	start := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for churned.Load() < churns {
				fn()
			}
		}()
	}

	// Churn: add/remove a fresh aggregate as fast as possible.
	start(func() {
		n := int(churned.Add(1))
		id := fmt.Sprintf("churn-%d", n)
		h, err := e.Add(id, tbf.MustNew(units.Mbps, 10*units.MSS), nil)
		if err != nil {
			t.Error(err)
			return
		}
		_ = e.SubmitBatch(h, []packet.Packet{pkt(n)})
		if _, err := e.Remove(id); err != nil {
			t.Error(err)
		}
	})
	// Traffic on the steady aggregate.
	start(func() {
		_ = e.SubmitBatch(steady, []packet.Packet{pkt(0), pkt(1), pkt(2), pkt(3)})
	})
	// Health / trace / metrics scrapers.
	start(func() {
		h := e.Health()
		if len(h.Shards) != 2 {
			t.Errorf("Health shards = %d", len(h.Shards))
		}
	})
	start(func() {
		for _, ev := range e.TraceDump() {
			if ev.Seq == 0 {
				t.Error("trace event with zero sequence (torn read leaked)")
			}
		}
	})
	start(func() {
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, e.Metrics()); err != nil {
			t.Error(err)
		}
	})
	// Stats: the steady aggregate must always resolve; the stats-less one
	// must always report exactly ErrNoStats.
	start(func() {
		if _, err := e.Stats("steady"); err != nil && !errors.Is(err, ErrSaturated) {
			t.Errorf("steady stats: %v", err)
		}
		if _, err := e.Stats("mute"); err == nil ||
			(!errors.Is(err, ErrNoStats) && !errors.Is(err, ErrSaturated)) {
			t.Errorf("mute stats: %v, want ErrNoStats", err)
		}
	})

	wg.Wait()
}
