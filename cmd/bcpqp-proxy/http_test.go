package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"bcpqp"
	"bcpqp/internal/faultinject"
)

// TestAdminEndpointsEndToEnd runs the full proxy (serve, engine datapath,
// admin listener) over loopback and scrapes every admin endpoint the way an
// operator's curl would: /healthz must go 200 with a JSON body, /metrics
// must expose the engine families in Prometheus text format, /debug/trace
// must return the flight recorder as JSON, /debug/vars must be valid
// expvar output, and /debug/pprof must serve its index. SIGTERM must still
// drain to exit 0 with the admin server attached.
func TestAdminEndpointsEndToEnd(t *testing.T) {
	forward, _ := startSink(t, nil)
	p := startServe(t, proxyOpts{
		forward: forward, scheme: "bc-pqp", rate: bcpqp.Mbps, admin: adminListener(t),
	})
	get := func(path string) (int, string) { return p.get(t, path) }

	// Offered load far beyond the 1 Mbps plan, so the trace and counters
	// have drops to show.
	conn := p.dial(t)
	payload := make([]byte, 1200)
	for i := 0; i < 200; i++ {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	healthStatus, healthBody := get("/healthz")
	if healthStatus != http.StatusOK {
		t.Fatalf("/healthz = %d, body %s", healthStatus, healthBody)
	}
	var health struct {
		Healthy bool `json:"healthy"`
		Shards  []struct {
			State string `json:"state"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(healthBody), &health); err != nil {
		t.Fatalf("/healthz body not JSON: %v\n%s", err, healthBody)
	}
	if !health.Healthy || len(health.Shards) == 0 {
		t.Errorf("/healthz = %+v, want healthy with shards", health)
	}

	// /debug/trace: the flight recorder decodes and holds sampled bursts
	// for the proxy aggregate — once the worker has enforced one, which a
	// scrape may be ahead of; the scrapes after this one are not.
	waitFor(t, "a sampled burst in /debug/trace", func() bool {
		status, trace := get("/debug/trace")
		if status != http.StatusOK {
			t.Fatalf("/debug/trace = %d", status)
		}
		var dump struct {
			Events []struct {
				Kind      string `json:"kind"`
				Aggregate string `json:"aggregate"`
			} `json:"events"`
		}
		if err := json.Unmarshal([]byte(trace), &dump); err != nil {
			t.Fatalf("/debug/trace body not JSON: %v", err)
		}
		for _, ev := range dump.Events {
			if ev.Kind == "burst" && ev.Aggregate == proxyAggregate {
				return true
			}
		}
		return false
	})

	// /metrics: Prometheus exposition with engine, shard and aggregate
	// families, and only finite sample values.
	status, metrics := get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	for _, want := range []string{
		"bcpqp_aggregates",
		`bcpqp_shard_state{shard="0"}`,
		`bcpqp_aggregate_accepted_packets_total{aggregate="proxy"}`,
		"bcpqp_burst_enforce_seconds_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(metrics, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		if val == "NaN" || strings.HasSuffix(val, "Inf") {
			t.Errorf("/metrics non-finite value: %q", line)
		}
	}

	// /debug/vars: valid expvar JSON including the published engine metrics.
	status, vars := get("/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("/debug/vars = %d", status)
	}
	var varsDoc map[string]any
	if err := json.Unmarshal([]byte(vars), &varsDoc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := varsDoc["bcpqp"]; !ok {
		t.Error("/debug/vars missing published bcpqp metrics")
	}

	// /debug/pprof: index page served off the private mux.
	status, index := get("/debug/pprof/")
	if status != http.StatusOK || !strings.Contains(index, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want profile index", status)
	}

	// Graceful drain still works with the admin server attached.
	p.stop(t, syscall.SIGTERM)
}

// TestHealthzOverloadDegradedBut200 pins the load-balancer contract during
// an overload: a shard whose ring is packed behind a slow holder, but which
// is not wedged, reads "degraded" in its own /healthz entry while the status
// stays 200 — evicting a shedding node would hand the flood to a
// healthier-looking peer and take that one down too. Only a wedged shard
// (has work, no progress for 1 s) turns /healthz 503. The body's
// top-level keys are pinned: there is no overload block, and the top-level
// degraded flag is left to cluster fallback and quarantine.
func TestHealthzOverloadDegradedBut200(t *testing.T) {
	gate := make(chan struct{})
	mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{
		Shards:       1,
		QueueDepth:   8,
		CloseTimeout: 5 * time.Second,
	})
	defer mb.Close()
	defer close(gate) // LIFO: unblock the emit BEFORE Close so the drain is fast
	enf, err := buildEnforcer("bc-pqp", bcpqp.Rate(1000)*bcpqp.Mbps, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mb.Add("plug", enf, func(p bcpqp.Packet) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	// Pack the shard ring behind the blocked emit: 16 one-packet bursts fill
	// it and the rest shed. The emit blocks whoever serves the burst, and on an idle
	// shard that is the submitter: wedge from a helper goroutine.
	pkt := [1]bcpqp.Packet{{Key: bcpqp.FlowKey{SrcIP: 1, Proto: 17}, Size: bcpqp.MSS}}
	go func(first [1]bcpqp.Packet) { mb.SubmitBatch(h, first[:]) }(pkt)
	waitFor(t, "the blocked emit to hold the shard", func() bool { return mb.Health().Shards[0].Busy })
	for i := 0; i < 16; i++ {
		mb.SubmitBatch(h, pkt[:])
	}
	// Health classifies as it reads: the packed ring is degraded at once.
	if st := mb.Health().Shards[0].State; st != bcpqp.ShardDegraded {
		t.Fatalf("packed shard reads %v on the first Health read, want degraded", st)
	}

	srv := httptest.NewServer(newAdminMux(mb, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during overload = %d, want 200 (degraded, not down)", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Healthy    bool  `json:"healthy"`
		Degraded   bool  `json:"degraded"`
		Overloaded int64 `json:"overloaded_packets"`
		Shards     []struct {
			State      string `json:"state"`
			QueueDepth int    `json:"queue_depth"`
		} `json:"shards"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{"degraded", "healthy", "overloaded_packets", "panics", "shards"}
	if !slices.Equal(got, want) {
		t.Errorf("/healthz keys = %q, want %q", got, want)
	}
	if !body.Healthy || body.Degraded {
		t.Errorf("healthy=%v degraded=%v, want true/false: no fallback, no quarantine", body.Healthy, body.Degraded)
	}
	// The shard goroutine may hold one burst out of the ring, parked on the
	// occupancy word, so the ring reads 7 or 8 and 7 or 8 bursts shed.
	if len(body.Shards) != 1 || body.Shards[0].State != "degraded" || body.Shards[0].QueueDepth < 7 {
		t.Errorf("shards = %+v, want one degraded shard with its 8-deep ring packed", body.Shards)
	}
	if body.Overloaded < 7 {
		t.Errorf("overloaded_packets = %d, want ≥ 7 (the bursts past the full ring)", body.Overloaded)
	}
}

// TestHealthzQuarantineDegradedBut200 pins /healthz for a quarantined core: a
// core whose enforcer panicked drops its share of sources until the process
// restarts, so the body says degraded=true and names it, while the status
// stays 200 because no shard is wedged and the other cores serve.
func TestHealthzQuarantineDegradedBut200(t *testing.T) {
	mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{Shards: 1})
	defer mb.Close()
	enf, err := buildEnforcer("bc-pqp", bcpqp.Mbps, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mb.Add("proxy/core0", faultinject.New(enf, faultinject.Plan{Seed: 1, Panic: 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt := [1]bcpqp.Packet{{Key: bcpqp.FlowKey{SrcIP: 1, Proto: 17}, Size: bcpqp.MSS}}
	if err := mb.SubmitBatch(h, pkt[:]); err != nil {
		t.Fatal(err)
	}
	if q := mb.Health().Quarantined; !slices.Equal(q, []string{"proxy/core0"}) {
		t.Fatalf("quarantined = %q after an injected panic, want [proxy/core0]", q)
	}

	srv := httptest.NewServer(newAdminMux(mb, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz with a quarantined core = %d, want 200 (degraded, not down)", resp.StatusCode)
	}
	var body struct {
		Healthy     bool     `json:"healthy"`
		Degraded    bool     `json:"degraded"`
		Quarantined []string `json:"quarantined"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Healthy || !body.Degraded || !slices.Equal(body.Quarantined, []string{"proxy/core0"}) {
		t.Errorf("/healthz = %+v, want healthy, degraded and quarantined [proxy/core0]", body)
	}
}

// TestFaultLogRateLimits pins the structured fault log's cadence: first
// occurrence always logs, then every 64th, independently per key.
func TestFaultLogRateLimits(t *testing.T) {
	var l faultLog
	var logged int
	for i := 0; i < 2*faultLogEvery; i++ {
		if ok, _ := l.note("agg-a"); ok {
			logged++
		}
	}
	if logged != 3 { // 1st, 64th, 128th
		t.Errorf("agg-a logged %d times over %d faults, want 3", logged, 2*faultLogEvery)
	}
	if ok, n := l.note("agg-b"); !ok || n != 1 {
		t.Errorf("first fault of a new key: log=%v n=%d, want true 1", ok, n)
	}
}

// TestDebugAuditEndpoint arms a conformance auditor with a deliberately
// understated envelope, pushes traffic through, and asserts /debug/audit
// reports the armed auditor with nonzero violations and exact counters.
func TestDebugAuditEndpoint(t *testing.T) {
	mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{Shards: 1, QueueDepth: 256})
	defer mb.Close()
	enf, err := buildEnforcer("tbf", bcpqp.Rate(100)*bcpqp.Mbps, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mb.Add("audited", enf, func(bcpqp.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	// Envelope claims 1 kbps with a tiny burst while the enforcer admits
	// 100 Mbps: every accepted burst breaches it.
	if err := mb.ArmAudit("audited", bcpqp.Rate(1000), 64); err != nil {
		t.Fatal(err)
	}
	pkts := make([]bcpqp.Packet, 64)
	for i := range pkts {
		pkts[i] = bcpqp.Packet{Key: bcpqp.FlowKey{SrcIP: uint32(i), Proto: 17}, Size: bcpqp.MSS}
	}
	for i := 0; i < 20; i++ {
		if err := mb.SubmitBatch(h, pkts); err != nil {
			t.Fatal(err)
		}
	}
	mb.Stats("audited") // in-band barrier: all submitted batches enforced

	srv := httptest.NewServer(newAdminMux(mb, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/audit = %d", resp.StatusCode)
	}
	var body struct {
		Armed           int   `json:"armed"`
		ViolationsTotal int64 `json:"violations_total"`
		BurstLatencyNS  *struct {
			Count uint64 `json:"count"`
			P99   int64  `json:"p99"`
		} `json:"burst_enforce_latency_ns"`
		Audits []struct {
			Aggregate     string `json:"aggregate"`
			EnvelopeBps   int64  `json:"envelope_bps"`
			AcceptedBytes int64  `json:"accepted_bytes"`
			Violations    int64  `json:"violations"`
		} `json:"audits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Armed != 1 || len(body.Audits) != 1 {
		t.Fatalf("armed=%d audits=%d, want 1/1", body.Armed, len(body.Audits))
	}
	a := body.Audits[0]
	if a.Aggregate != "audited" || a.EnvelopeBps != 1000 {
		t.Errorf("audit row %+v, want the aggregate's envelope at 1000 bps", a)
	}
	if a.Violations == 0 || body.ViolationsTotal != a.Violations {
		t.Errorf("violations=%d total=%d, want nonzero and equal", a.Violations, body.ViolationsTotal)
	}
	st, err := mb.Stats("audited")
	if err != nil {
		t.Fatal(err)
	}
	if a.AcceptedBytes != st.AcceptedBytes {
		t.Errorf("audited accepted %d bytes, engine counted %d", a.AcceptedBytes, st.AcceptedBytes)
	}
	// No Observer is attached, so the latency digest must be omitted rather
	// than rendered as a zero-count object.
	if body.BurstLatencyNS != nil {
		t.Errorf("burst_enforce_latency_ns = %+v, want omitted without an Observer", body.BurstLatencyNS)
	}
}
