package mbox

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens (run at the commit whose output is the reference)")

// goldenWatchRun drives an observed engine with an envelope armed on two
// flat aggregates and a policy tree through a fixed trace on a manual clock,
// with rate changes and a re-arm on the way, and renders everything the
// watcher exports: the conformance and per-aggregate /metrics families and
// the audit report with both digests in BQAD form.
func goldenWatchRun(t *testing.T) string {
	t.Helper()
	clk := &manualClock{}
	c := obs.NewCollector(obs.Options{MeterWindow: 25 * time.Millisecond})
	e := New(Config{Shards: 1, Clock: clk.read, Observer: c})
	defer e.Close()

	flat, err := e.Add("flat", tbf.MustNew(8*units.Mbps, 16*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	flat0, err := e.Add("flat0", tbf.MustNew(3*units.Mbps, 8*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := e.Add("tenant", newTestTree(), nil)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.ArmAudit("flat", 8*units.Mbps, 16*units.MSS))
	must(e.ArmAudit("flat0", 3*units.Mbps, 8*units.MSS))
	must(e.ArmAudit("tenant", 20*units.Mbps, 1<<20))

	batch := make([]packet.Packet, 48)
	for i := range batch {
		batch[i] = pkt(i)
		batch[i].Size = 200 + (i*613)%1300
	}
	for i := 0; i < 1500; i++ {
		clk.add(time.Duration(137+(i*7919)%1500) * time.Microsecond)
		n := 1 + (i*31)%len(batch)
		switch i % 5 {
		case 0, 1:
			must(e.SubmitBatch(flat, batch[:n]))
		case 2:
			must(e.SubmitBatch(flat0, batch[:n]))
		default:
			must(e.SubmitBatch(tree, batch[:n]))
		}
		// The shard reads the clock when it runs the burst: settle each one
		// before the clock moves again.
		if _, err := e.Stats("flat"); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 400:
			must(e.SetRate("flat", 5*units.Mbps))
		case 700:
			must(e.SetRate("tenant", 12*units.Mbps))
		case 900:
			must(e.ArmAudit("tenant", 12*units.Mbps, 1<<18)) // re-arm: a fresh envelope
		case 1100:
			must(e.SetRate("flat", 9*units.Mbps))
		}
	}
	var out strings.Builder
	var prom bytes.Buffer
	must(obs.WritePrometheus(&prom, e.Metrics()))
	for _, line := range strings.Split(prom.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if strings.HasPrefix(name, "bcpqp_conformance_") || strings.HasPrefix(name, "bcpqp_aggregate_") {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	// The node=-1 label="" columns are what entries printed when an envelope
	// could be armed on a tree node; kept, the lines of the envelopes that
	// did not change compare byte for byte with earlier goldens.
	for _, ent := range e.AuditReport() {
		fmt.Fprintf(&out, "audit %s node=-1 label=\"\" %+v\n  slack   %x\n  rateerr %x\n",
			ent.Aggregate, ent.Counters, ent.Slack.Encode(), ent.RateErr.Encode())
	}
	fmt.Fprintf(&out, "violations %d\n", e.AuditViolations())
	if n := c.Bursts(); n != 1500 {
		t.Errorf("Collector.Bursts = %d, want 1500", n)
	}
	// One burst in SampleEvery (16) is timed, the first of each stretch.
	if lat := e.BurstLatency(); lat.Total() != (1500+15)/16 {
		t.Errorf("burst latency digest counted %d bursts, want %d", lat.Total(), (1500+15)/16)
	}
	return out.String()
}

// TestWatcherExportGolden pins the watcher's export — /metrics families,
// AuditReport counters, BQAD digests — to what the commit before the span
// store, the two-window meter and the flat audit record wrote for the same
// trace, with two exceptions. The tenant's envelope follows the root ceiling
// to 12 Mb/s at i == 700 (it used to stay at the 20 Mb/s it was armed with,
// see TestRateChangeRebasesEveryEnvelope). And envelopes are no longer armed
// on tree nodes or on a flat aggregate's node 0, and the tenant's bursts all
// enter through its one handle: the node-labelled lines went, the tenant's
// lines changed, and so did the distributions merged across envelopes and
// the violations total. The lines of flat and of flat0's envelope did not.
func TestWatcherExportGolden(t *testing.T) {
	got := goldenWatchRun(t)
	path := filepath.Join("testdata", "watch_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("watcher export differs from the parent commit's (%s):\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, gl, wl)
		}
	}
	return "(identical)"
}
