// Admin HTTP surface for bcpqp-proxy (-http): a read-only operational
// endpoint set served off a dedicated listener, separate from the datapath
// socket, so scraping metrics or grabbing a profile can never contend with
// packet relaying.
//
//	/metrics      Prometheus text exposition of the engine's metric families
//	/metrics/tree per-node counters of the policy tree (node + path labels)
//	/healthz      200 when no shard is wedged, 503 otherwise (JSON body)
//	/debug/audit  JSON conformance-audit report (armed auditors + latency digest)
//	/debug/trace  JSON dump of the flight recorder (most recent events)
//	/debug/vars   expvar, including the engine metrics under "bcpqp"
//	/debug/pprof  the standard Go profiling handlers
//
// /healthz body schema (stable; all fields always present unless marked):
//
//	{
//	  "healthy":  bool,       // no shard wedged — mirrors the HTTP status
//	  "degraded": bool,       // serving, but on a conservative posture:
//	                          // cluster fallback share and/or a quarantined
//	                          // aggregate (its traffic dropped until Remove
//	                          // or restart)
//	  "panics": int, "overloaded_packets": int,
//	  "quarantined": [ids],   // omitted when empty
//	  "shards": [{"shard",
//	              "state",    // "healthy", "degraded" (recent panic or shed,
//	                          // or ring ≥ 3/4 full) or "wedged"
//	              "queue_depth","queue_cap",
//	              "heartbeat_age","processed","panics","shed_packets"}],
//	  "cluster": {            // omitted when cluster mode is off
//	    "degraded": bool,     // any shared aggregate on its fallback floor
//	    "fallback_aggregates": [ids],  // omitted when empty
//	    "max_report_age": "4.2s"}      // "never" before the first report
//	}
package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bcpqp"
)

// publishMetricsVar exposes the engine metrics under /debug/vars exactly
// once per process: expvar.Publish panics on duplicate names, and tests run
// serve more than once in one process. Later engines re-point the published
// Var at themselves.
var publishMetricsVar = func() func(mb *bcpqp.Middlebox) {
	var once sync.Once
	var mu sync.Mutex
	var current *bcpqp.Middlebox
	return func(mb *bcpqp.Middlebox) {
		mu.Lock()
		current = mb
		mu.Unlock()
		once.Do(func() {
			expvar.Publish("bcpqp", jsonVar(func() string {
				mu.Lock()
				mb := current
				mu.Unlock()
				return bcpqp.MetricsVar(mb).String()
			}))
		})
	}
}()

// jsonVar is an expvar.Var whose function already renders JSON.
type jsonVar func() string

func (f jsonVar) String() string { return f() }

// newAdminMux builds the admin endpoint set for one engine. node is the
// cluster exchange node, or nil when the proxy runs standalone; ids are the
// cores' aggregates, whose policy trees /metrics/tree exports.
func newAdminMux(mb *bcpqp.Middlebox, node *bcpqp.ClusterNode, ids []string) *http.ServeMux {
	publishMetricsVar(mb)
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := bcpqp.WritePrometheus(w, mb.Metrics()); err != nil {
			// Headers are gone; all we can do is note it server-side.
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: /metrics write: %v\n", err)
		}
	})

	mux.HandleFunc("/metrics/tree", func(w http.ResponseWriter, r *http.Request) {
		// Per-node counters of every core's policy tree, with node index
		// and root→node path labels. Works on a flat aggregate too (one
		// node); bounded export — very large trees report leaf omission
		// through bcpqp_tree_nodes vs bcpqp_tree_nodes_exported.
		var snap bcpqp.MetricsSnapshot
		for i, id := range ids {
			core, err := mb.NodeMetrics(id)
			if err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			if i == 0 {
				snap = core
				continue
			}
			// Every aggregate reports the same families in the same
			// order; the aggregate label tells the cores' samples apart.
			for j, f := range core.Families {
				snap.Families[j].Samples = append(snap.Families[j].Samples, f.Samples...)
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := bcpqp.WritePrometheus(w, snap); err != nil {
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: /metrics/tree write: %v\n", err)
		}
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := mb.Health()
		w.Header().Set("Content-Type", "application/json")
		// Cluster fallback shares are DEGRADED, not down: the node is
		// enforcing its conservative static r/N share, which is safe and
		// serving traffic — a 503 here would make load balancers evict
		// exactly the nodes that are behaving correctly under partition. A
		// quarantined core drops its share of sources until the process
		// restarts, which is degraded too, while the other cores serve. A
		// shard under load reports itself in its own state ("degraded" on
		// a packed ring or a recent shed, "wedged" past the 1 s wedge timeout).
		degraded := (node != nil && node.Degraded()) || len(h.Quarantined) > 0
		if h.Wedged() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		type shardz struct {
			Shard        int    `json:"shard"`
			State        string `json:"state"`
			QueueDepth   int    `json:"queue_depth"`
			QueueCap     int    `json:"queue_cap"`
			HeartbeatAge string `json:"heartbeat_age"`
			Processed    int64  `json:"processed"`
			Panics       int64  `json:"panics"`
			Shed         int64  `json:"shed_packets"`
		}
		type clusterz struct {
			Degraded           bool     `json:"degraded"`
			FallbackAggregates []string `json:"fallback_aggregates,omitempty"`
			MaxReportAge       string   `json:"max_report_age"`
		}
		body := struct {
			Healthy     bool      `json:"healthy"`
			Degraded    bool      `json:"degraded"`
			Shards      []shardz  `json:"shards"`
			Quarantined []string  `json:"quarantined,omitempty"`
			Panics      int64     `json:"panics"`
			Overloaded  int64     `json:"overloaded_packets"`
			Cluster     *clusterz `json:"cluster,omitempty"`
		}{
			Healthy:     !h.Wedged(),
			Degraded:    degraded,
			Panics:      h.Panics,
			Overloaded:  h.Overloaded,
			Quarantined: h.Quarantined,
		}
		if node != nil {
			st := node.Status()
			cz := &clusterz{Degraded: st.Degraded, MaxReportAge: "never"}
			if st.MaxReportAge >= 0 {
				cz.MaxReportAge = st.MaxReportAge.String()
			}
			for _, a := range st.Shared {
				if a.Fallback {
					cz.FallbackAggregates = append(cz.FallbackAggregates, a.ID)
				}
			}
			body.Cluster = cz
		}
		for _, s := range h.Shards {
			body.Shards = append(body.Shards, shardz{
				Shard:        s.Shard,
				State:        s.State.String(),
				QueueDepth:   s.QueueDepth,
				QueueCap:     s.QueueCap,
				HeartbeatAge: s.HeartbeatAge.String(),
				Processed:    s.Processed,
				Panics:       s.Panics,
				Shed:         s.Shed,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})

	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		if node == nil {
			http.Error(w, "cluster mode disabled (no -node-id)", http.StatusNotFound)
			return
		}
		st := node.Status()
		type peerz struct {
			ID              string `json:"id"`
			State           string `json:"state"`
			LastExchangeAge string `json:"last_exchange_age"`
			LastSeq         uint64 `json:"last_seq"`
			Reports         int64  `json:"reports"`
			Stale           int64  `json:"stale_reports"`
		}
		type aggz struct {
			ID            string  `json:"id"`
			RateBps       float64 `json:"rate_bps"`
			FloorBps      float64 `json:"floor_bps"`
			ObservedBps   float64 `json:"observed_bps"`
			AppliedBps    float64 `json:"applied_bps"`
			GrantedInBps  float64 `json:"granted_in_bps"`
			GrantedOutBps float64 `json:"granted_out_bps"`
			Fallback      bool    `json:"fallback"`
		}
		body := struct {
			Self      string  `json:"self"`
			Seq       uint64  `json:"seq"`
			Window    string  `json:"window"`
			Degraded  bool    `json:"degraded"`
			BadFrames int64   `json:"bad_frames"`
			Peers     []peerz `json:"peers"`
			Shared    []aggz  `json:"shared"`
		}{
			Self: st.Self, Seq: st.Seq, Window: st.Window.String(),
			Degraded: st.Degraded, BadFrames: st.BadFrames,
		}
		for _, p := range st.Peers {
			age := "never"
			if p.LastExchangeAge >= 0 {
				age = p.LastExchangeAge.String()
			}
			body.Peers = append(body.Peers, peerz{
				ID: p.ID, State: p.State.String(), LastExchangeAge: age,
				LastSeq: p.LastSeq, Reports: p.Reports, Stale: p.Stale,
			})
		}
		for _, a := range st.Shared {
			body.Shared = append(body.Shared, aggz{
				ID: a.ID, RateBps: float64(a.Rate), FloorBps: float64(a.Floor),
				ObservedBps: float64(a.Observed), AppliedBps: float64(a.Applied),
				GrantedInBps: float64(a.GrantedIn), GrantedOutBps: float64(a.GrantedOut),
				Fallback: a.Fallback,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})

	mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, r *http.Request) {
		// Conformance-audit report: every armed auditor's exact envelope
		// counters plus quantiles from the mergeable digests. Quantiles
		// carry the digest's ≤12.5% relative error; the counters are exact.
		rep := mb.AuditReport()
		type digestz struct {
			Count uint64 `json:"count"`
			P50   int64  `json:"p50"`
			P90   int64  `json:"p90"`
			P99   int64  `json:"p99"`
			Max   int64  `json:"max"`
		}
		quant := func(d bcpqp.DigestSnapshot) *digestz {
			if d.Total() == 0 {
				return nil
			}
			return &digestz{
				Count: d.Total(),
				P50:   d.Quantile(0.50),
				P90:   d.Quantile(0.90),
				P99:   d.Quantile(0.99),
				Max:   d.Quantile(1),
			}
		}
		type auditz struct {
			Aggregate     string   `json:"aggregate"`
			EnvelopeBps   int64    `json:"envelope_bps"`
			BurstBytes    int64    `json:"burst_bytes"`
			AllowedBytes  int64    `json:"allowed_bytes"`
			AcceptedBytes int64    `json:"accepted_bytes"`
			SlackBytes    int64    `json:"slack_bytes"`
			MinSlackBytes int64    `json:"min_slack_bytes"`
			MaxDeficit    int64    `json:"max_deficit_bytes"`
			Violations    int64    `json:"violations"`
			Windows       int64    `json:"windows"`
			SlackBytesQ   *digestz `json:"slack_distribution_bytes,omitempty"`
			RateErrQ      *digestz `json:"rate_error_permille,omitempty"`
		}
		body := struct {
			Armed           int      `json:"armed"`
			ViolationsTotal int64    `json:"violations_total"`
			BurstLatencyNS  *digestz `json:"burst_enforce_latency_ns,omitempty"`
			Audits          []auditz `json:"audits"`
		}{
			Armed:           len(rep),
			ViolationsTotal: mb.AuditViolations(),
			BurstLatencyNS:  quant(mb.BurstLatency()),
			Audits:          make([]auditz, 0, len(rep)),
		}
		for _, e := range rep {
			c := e.Counters
			body.Audits = append(body.Audits, auditz{
				Aggregate: e.Aggregate, EnvelopeBps: c.RateBps, BurstBytes: c.BurstBytes,
				AllowedBytes: c.AllowedBytes, AcceptedBytes: c.AcceptedBytes,
				SlackBytes: c.SlackBytes, MinSlackBytes: c.MinSlackBytes,
				MaxDeficit: c.MaxDeficit, Violations: c.Violations, Windows: c.Windows,
				SlackBytesQ: quant(e.Slack), RateErrQ: quant(e.RateErr),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})

	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		events := mb.TraceDump()
		w.Header().Set("Content-Type", "application/json")
		type eventz struct {
			Seq       uint64 `json:"seq"`
			Wall      string `json:"wall,omitempty"`
			VirtualNS int64  `json:"virtual_ns"`
			Kind      string `json:"kind"`
			Shard     int32  `json:"shard"`
			Aggregate string `json:"aggregate,omitempty"`
			A         int64  `json:"a"`
			B         int64  `json:"b"`
			C         int64  `json:"c"`
		}
		out := struct {
			Events []eventz `json:"events"`
		}{Events: make([]eventz, 0, len(events))}
		for _, ev := range events {
			ez := eventz{
				Seq:       ev.Seq,
				VirtualNS: ev.VT,
				Kind:      ev.Kind.String(),
				Shard:     ev.Shard,
				Aggregate: ev.AggID,
				A:         ev.A,
				B:         ev.B,
				C:         ev.C,
			}
			if ev.Wall != 0 {
				ez.Wall = time.Unix(0, ev.Wall).UTC().Format(time.RFC3339Nano)
			}
			out.Events = append(out.Events, ez)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})

	mux.Handle("/debug/vars", expvar.Handler())

	// pprof registers itself only on http.DefaultServeMux; the admin mux is
	// private, so wire the handlers explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// startAdmin serves the admin mux on ln until the returned server is
// closed. Serve errors after shutdown are expected and discarded.
func startAdmin(ln net.Listener, mb *bcpqp.Middlebox, node *bcpqp.ClusterNode, ids []string) *http.Server {
	srv := &http.Server{Handler: newAdminMux(mb, node, ids), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: admin listener: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "bcpqp-proxy: admin endpoints on http://%s (/metrics /metrics/tree /healthz /cluster /debug/audit /debug/trace /debug/vars /debug/pprof)\n",
		ln.Addr())
	return srv
}

// faultLog emits one structured line per noteworthy fault-plane event,
// rate-limited so a crash-looping enforcer cannot flood the log: the first
// occurrence always logs, then every faultLogEvery-th. It is called from
// shard goroutines (Config.OnFault contract: fast, non-blocking, no calls
// back into the engine), so it only bumps an atomic and writes stderr.
type faultLog struct {
	faults sync.Map // aggregate id -> *faultCount
}

const faultLogEvery = 64

// note records one fault for id and reports (shouldLog, occurrence count).
func (l *faultLog) note(id string) (bool, int64) {
	v, _ := l.faults.LoadOrStore(id, new(atomic.Int64))
	n := v.(*atomic.Int64).Add(1)
	return n == 1 || n%faultLogEvery == 0, n
}
