package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens (run at the commit whose output is the reference)")

// TestDebugAuditGolden pins the /debug/audit body, byte for byte, to what
// the commit before the span-sized digests and the flat audit record served
// for the same trace: two audited aggregates on a virtual clock, one inside
// its envelope and one deliberately understated, with a rate change on the
// way. No Observer is attached, so nothing wall-clock reaches the body.
func TestDebugAuditGolden(t *testing.T) {
	var clk atomic.Int64
	mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{
		Shards: 1, QueueDepth: 256,
		Clock: func() time.Duration { return time.Duration(clk.Load()) },
	})
	defer mb.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var handles []bcpqp.AggregateHandle
	for _, id := range []string{"plan-a", "plan-b"} {
		enf, err := buildEnforcer("bc-pqp", 20*bcpqp.Mbps, 8)
		must(err)
		h, err := mb.Add(id, enf, func(bcpqp.Packet) {})
		must(err)
		handles = append(handles, h)
	}
	must(mb.ArmAudit("plan-a", 20*bcpqp.Mbps, auditEnvelope("bc-pqp", 20*bcpqp.Mbps, 8)))
	must(mb.ArmAudit("plan-b", 2*bcpqp.Mbps, 3000)) // understated: breaches

	pkts := make([]bcpqp.Packet, 32)
	for i := range pkts {
		pkts[i] = bcpqp.Packet{Key: bcpqp.FlowKey{SrcIP: uint32(i), Proto: 17}, Size: 300 + (i*389)%1200, Class: i % 8}
	}
	for i := 0; i < 4000; i++ {
		clk.Add(int64(time.Duration(211+(i*7919)%900) * time.Microsecond))
		must(mb.SubmitBatch(handles[i%2], pkts[:1+(i*13)%len(pkts)]))
		mb.Stats("plan-a") // in-band barrier: the burst is enforced before the clock moves
		if i == 2500 {
			must(mb.SetRate("plan-a", 12*bcpqp.Mbps))
		}
	}

	srv := httptest.NewServer(newAdminMux(mb, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/audit")
	must(err)
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	must(err)

	path := filepath.Join("testdata", "debug_audit_golden.json")
	if *updateGolden {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(path, got, 0o644))
		return
	}
	want, err := os.ReadFile(path)
	must(err)
	if string(got) != string(want) {
		t.Fatalf("/debug/audit body differs from the parent commit's (%s):\n got %s\nwant %s", path, got, want)
	}
}
