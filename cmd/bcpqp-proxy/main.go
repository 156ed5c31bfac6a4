// Command bcpqp-proxy is a live (non-simulated) rate-enforcing UDP relay:
// the low-rate real-traffic counterpart of the paper's DPDK middlebox that
// a pure-Go build can provide. Datagrams arriving on the listen socket are
// classified by source address into phantom queues and either relayed to
// the forward address or dropped, according to the selected scheme.
//
// Usage:
//
//	bcpqp-proxy -listen :9000 -forward 127.0.0.1:9001 -rate 5 -scheme bc-pqp
//
// A built-in demonstration needs no external tooling:
//
//	bcpqp-proxy -selftest
//
// runs a sink, the proxy, and two competing UDP senders (one paced at its
// fair share, one greedy) over loopback for a few seconds and reports the
// goodput each flow achieved through the enforcer.
//
// The proxy is a well-behaved middlebox process:
//
//   - SIGTERM/SIGINT drain gracefully: in-flight bursts are enforced, the
//     engine's deadline-bounded Close runs (-drain-timeout), its report is
//     logged, and the exit status is nonzero if the shutdown was unclean.
//   - SIGHUP writes a warm-restart snapshot to the -snapshot path
//     (atomic temp-file + rename); at startup an existing snapshot there
//     is restored, so a restarted proxy resumes with the enforcement state
//     (phantom occupancy, burst windows, token levels) it had.
//
// Bufferless schemes only (policer, policer+, fairpolicer, pqp, bc-pqp):
// a relay cannot hold datagrams the way a shaper holds packets.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"bcpqp"
)

func main() {
	var (
		listen   = flag.String("listen", ":9000", "UDP address to listen on")
		forward  = flag.String("forward", "127.0.0.1:9001", "UDP address to relay to")
		rateMbps = flag.Float64("rate", 5, "enforced rate in Mbps")
		scheme   = flag.String("scheme", "bc-pqp", "enforcement scheme (policer|policer+|fairpolicer|pqp|bc-pqp)")
		queues   = flag.Int("queues", 16, "phantom queues / flow buckets")
		treePath = flag.String("tree", "", "policy-tree JSON spec file: hierarchical ceilings and assured rates enforced instead of the flat -rate/-scheme enforcer (see treespec.go for the format)")
		snapPath = flag.String("snapshot", "", "warm-restart snapshot file: restored at startup if present, written on SIGHUP")
		httpAddr = flag.String("http", "", "admin HTTP listener address serving /metrics, /healthz, /cluster, /debug/trace, /debug/vars and /debug/pprof (disabled when empty)")
		nodeID   = flag.String("node-id", "", "cluster node id: enables the peer budget exchange (requires -cluster-listen)")
		peerSpec = flag.String("peers", "", "cluster peers as id=host:port,id2=host:port (exchange addresses, not datapath)")
		clListen = flag.String("cluster-listen", "", "UDP address the budget exchange listens on (e.g. :7400)")
		clKey    = flag.String("cluster-key", "", "shared secret authenticating budget-exchange frames (HMAC-SHA256); all peers must agree. Empty sends frames unauthenticated — only safe on a trusted network")
		sharedFl = flag.Bool("shared", false, "enforce -rate as the CLUSTER-WIDE bound for the proxy aggregate: start at the static r/N share and let the budget exchange reclaim idle peers' headroom")
		overload = flag.Bool("overload", false, "enable the overload-control plane: pressure-driven priority shedding, tightened idle eviction and admission-eviction under table pressure; /healthz reports an active plane as degraded (still 200)")
		datapath = flag.String("datapath", "ring", "datapath mode: ring (shared socket, engine shard ring) or percore (per-core run-to-completion: SO_REUSEPORT batched sockets, ring-bypass inline enforcement at rate/N per core)")
		coresFl  = flag.Int("cores", 0, "percore datapath worker count (0 = GOMAXPROCS); each core enforces rate/cores")
		drain    = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain deadline on SIGTERM/SIGINT")
		selftest = flag.Bool("selftest", false, "run the loopback demonstration and exit")
		duration = flag.Duration("selftest-duration", 5*time.Second, "selftest run length")
	)
	flag.Parse()

	if *selftest {
		if err := runSelfTest(*rateMbps, *scheme, *queues, *duration); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		return
	}

	if *datapath == "percore" {
		// The percore plane is deliberately narrow: flat enforcers split
		// rate/N across pinned cores; the tree, snapshot and cluster
		// planes stay ring-mode features.
		for flagName, set := range map[string]bool{
			"-tree": *treePath != "", "-snapshot": *snapPath != "",
			"-node-id": *nodeID != "", "-peers": *peerSpec != "",
			"-cluster-listen": *clListen != "", "-shared": *sharedFl,
		} {
			if set {
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: %s is not supported with -datapath percore\n", flagName)
				os.Exit(1)
			}
		}
		var admin net.Listener
		var err error
		if *httpAddr != "" {
			if admin, err = net.Listen("tcp", *httpAddr); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer admin.Close()
		}
		sigc := make(chan os.Signal, 4)
		signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
		os.Exit(servePerCore(perCoreOpts{
			cores:        *coresFl,
			listen:       *listen,
			forward:      *forward,
			scheme:       *scheme,
			rate:         bcpqp.Rate(*rateMbps) * bcpqp.Mbps,
			queues:       *queues,
			drainTimeout: *drain,
			sig:          sigc,
			admin:        admin,
			overload:     *overload,
		}))
	} else if *datapath != "ring" {
		fmt.Fprintf(os.Stderr, "bcpqp-proxy: unknown -datapath %q (ring|percore)\n", *datapath)
		os.Exit(1)
	}

	var clOpts clusterOpts
	if *nodeID != "" || *peerSpec != "" || *clListen != "" || *sharedFl {
		peers, err := parsePeers(*peerSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcpqp-proxy:", err)
			os.Exit(1)
		}
		if *nodeID == "" || *clListen == "" {
			fmt.Fprintln(os.Stderr, "bcpqp-proxy: cluster mode needs both -node-id and -cluster-listen")
			os.Exit(1)
		}
		if _, self := peers[*nodeID]; self {
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: -peers must not include this node's own id %q\n", *nodeID)
			os.Exit(1)
		}
		clOpts = clusterOpts{
			nodeID: *nodeID,
			peers:  peers,
			listen: *clListen,
			shared: *sharedFl,
			rate:   bcpqp.Rate(*rateMbps) * bcpqp.Mbps,
			key:    *clKey,
		}
	}

	var enf bcpqp.Enforcer
	var err error
	if *treePath != "" {
		enf, err = loadTreeSpec(*treePath, *queues)
	} else {
		enf, err = buildEnforcer(*scheme, bcpqp.Rate(*rateMbps)*bcpqp.Mbps, *queues)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	in, err := net.ListenPacket("udp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer in.Close()
	var admin net.Listener
	if *httpAddr != "" {
		admin, err = net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer admin.Close()
	}
	sigc := make(chan os.Signal, 4)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	auditBurst := int64(0)
	if *treePath == "" {
		auditBurst = auditEnvelope(*scheme, bcpqp.Rate(*rateMbps)*bcpqp.Mbps, *queues)
	}
	os.Exit(serve(in, *forward, enf, proxyOpts{
		snapshotPath: *snapPath,
		drainTimeout: *drain,
		sig:          sigc,
		admin:        admin,
		cluster:      clOpts,
		overload:     *overload,
		auditRate:    bcpqp.Rate(*rateMbps) * bcpqp.Mbps,
		auditBurst:   auditBurst,
	}))
}

// proxyAggregate is the id the proxy registers its single enforcer under on
// the middlebox engine; snapshots key on it, so a restarted proxy restores
// into the same id.
const proxyAggregate = "proxy"

// proxyOpts parameterizes serve. sig delivers shutdown and snapshot
// requests; in production it is a signal.Notify channel, in tests a plain
// channel fed directly.
type proxyOpts struct {
	snapshotPath string
	drainTimeout time.Duration
	sig          <-chan os.Signal
	// admin, when non-nil, serves the observability endpoints (/metrics,
	// /healthz, /cluster, /debug/trace, /debug/vars, /debug/pprof) until
	// shutdown; serve closes it. It also switches the engine's trace
	// collector on.
	admin net.Listener
	// cluster, when enabled, joins the peer budget exchange (and, with
	// shared set, enforces the proxy aggregate's rate cluster-wide).
	cluster clusterOpts
	// overload enables the engine's overload-control plane (defaults:
	// pressure thresholds, harmonic shed classes, admission eviction).
	overload bool
	// auditRate/auditBurst, when burst > 0, arm the always-on conformance
	// auditor on the proxy aggregate: every enforced burst is checked
	// against the Theorem-1 envelope auditRate·Δt + auditBurst.
	auditRate  bcpqp.Rate
	auditBurst int64
}

// auditEnvelope sizes the plan-rate conformance envelope for a scheme: the
// plan rate plus a burst term covering the scheme's worst-case buffering
// (phantom capacity or bucket depth) with 2× slop, so a correct enforcer
// can never trip it while real over-admission — which grows without bound —
// still does. Returns burst 0 (audit off) for unknown schemes and policy
// trees, whose per-node ceilings are armed individually via ArmNodeAudit.
func auditEnvelope(name string, rate bcpqp.Rate, queues int) int64 {
	scheme, err := bcpqp.ParseScheme(name)
	if err != nil {
		return 0
	}
	const maxRTT = 100 * time.Millisecond
	switch scheme {
	case bcpqp.SchemeBCPQP:
		return 2 * int64(queues) * bcpqp.RecommendedQueueSize(rate, maxRTT)
	case bcpqp.SchemePQP:
		return 2 * int64(queues) * bcpqp.RenoQueueRequirement(rate, maxRTT)
	case bcpqp.SchemePolicer, bcpqp.SchemePolicerPlus, bcpqp.SchemeFairPolicer:
		bdp := int64(float64(rate) / 8 * maxRTT.Seconds())
		reno := bcpqp.RenoQueueRequirement(rate, maxRTT)
		if reno > bdp {
			bdp = reno
		}
		return 2 * (bdp + int64(bcpqp.MSS))
	default:
		return 0
	}
}

// serve runs the engine-hosted datapath until SIGTERM/SIGINT, then drains
// gracefully: the middlebox Close is deadline-bounded (drainTimeout), its
// CloseReport is logged, and the exit code is nonzero when the shutdown was
// unclean (wedged shards abandoned or queued packets shed). SIGHUP writes a
// warm-restart snapshot to snapshotPath (temp file + atomic rename); at
// startup an existing snapshot at that path is restored, so a restarted
// proxy resumes enforcement with the phantom occupancy, burst-control
// windows and token levels it had — instead of re-admitting a burst storm
// from every subscriber at once.
func serve(in net.PacketConn, forward string, enf bcpqp.Enforcer, opts proxyOpts) int {
	dst, err := net.ResolveUDPAddr("udp", forward)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcpqp-proxy:", err)
		return 1
	}
	out, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcpqp-proxy:", err)
		return 1
	}
	defer out.Close()

	var writeDropped, writeErrs atomic.Int64
	// Structured, rate-limited fault-plane logging: one line on the first
	// enforcer panic / eviction per aggregate, then every 64th, so a
	// crash-looping enforcer cannot flood stderr. Both hooks run on shard
	// goroutines and must not call back into the engine.
	var flog faultLog
	cfg := bcpqp.MiddleboxConfig{
		CloseTimeout: opts.drainTimeout,
		OnFault: func(id string, recovered any, _ []byte) {
			if id == "" {
				id = "(unattributed)"
			}
			if log, n := flog.note(id); log {
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: event=fault aggregate=%q reason=%q count=%d\n",
					id, fmt.Sprint(recovered), n)
			}
		},
		OnEvict: func(id string, final bcpqp.Stats) {
			if log, n := flog.note("evict:" + id); log {
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: event=evict aggregate=%q reason=%q count=%d accepted=%d dropped=%d\n",
					id, "idle-ttl", n, final.AcceptedPackets, final.DroppedPackets)
			}
		},
	}
	if opts.overload {
		cfg.Overload = bcpqp.OverloadConfig{Enabled: true, EvictOnFull: true}
	}
	// The admin listener switches the trace collector on: flight-recorder
	// rings, burst-latency histograms and per-aggregate meters feed
	// /metrics and /debug/trace. Without -http the engine runs unobserved
	// (fault counters still exist — they are engine-native).
	var col *bcpqp.Collector
	if opts.admin != nil {
		col = bcpqp.Observe(&cfg, bcpqp.ObserveOptions{})
	}
	mb := bcpqp.NewMiddlebox(cfg)
	emit := func(p bcpqp.Packet) {
		if err := writeTransient(out, p.Payload); err != nil {
			writeDropped.Add(1)
			if n := writeErrs.Add(1); n == 1 || n%1024 == 0 {
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: transient write error (%d so far, dropping): %v\n", n, err)
			}
		}
	}
	// Add registers a policy tree node-addressable (per-node stats, in-band
	// node reconfiguration, the /metrics/tree export); a flat enforcer is
	// the degenerate one-node aggregate.
	h, err := mb.Add(proxyAggregate, enf, emit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcpqp-proxy:", err)
		return 1
	}
	if col != nil {
		// Wire enforcer-internal events (drops with reason, ECN marks,
		// magic fill/reclaim) into the flight recorder. Token-bucket
		// schemes expose no event hook; that only thins the trace.
		if err := bcpqp.ObserveAggregate(mb, proxyAggregate, col); err != nil && !errors.Is(err, bcpqp.ErrNotObservable) {
			fmt.Fprintln(os.Stderr, "bcpqp-proxy: observe:", err)
		}
	}
	if opts.auditBurst > 0 {
		// Always-on conformance audit: the plan envelope (with the
		// scheme's buffering slop) is live from the first packet, so
		// bcpqp_conformance_violations_total staying at zero is a
		// continuously-checked claim, not an assumption.
		if err := mb.ArmAudit(proxyAggregate, opts.auditRate, opts.auditBurst); err != nil {
			fmt.Fprintln(os.Stderr, "bcpqp-proxy: audit:", err)
		}
	}

	if opts.snapshotPath != "" {
		switch err := restoreSnapshot(mb, opts.snapshotPath); {
		case err == nil:
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: warm restart from %s\n", opts.snapshotPath)
		case os.IsNotExist(err):
			// First start: nothing to restore.
		default:
			// A stale or incompatible snapshot must not block startup:
			// log and start cold.
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: snapshot restore failed, starting cold: %v\n", err)
		}
	}

	// Cluster exchange: joined after the warm restart so the exchange
	// observes restored counters, and before traffic so a shared aggregate
	// starts at its conservative r/N share, never the full global rate.
	var node *bcpqp.ClusterNode
	if opts.cluster.enabled() {
		var stopCluster func()
		node, stopCluster, err = startCluster(mb, col, opts.cluster)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcpqp-proxy: cluster:", err)
			return 1
		}
		defer stopCluster()
		fmt.Fprintf(os.Stderr, "bcpqp-proxy: cluster node %q: %d peers, shared=%v\n",
			opts.cluster.nodeID, len(opts.cluster.peers), opts.cluster.shared)
	}
	if col != nil {
		defer startAdmin(opts.admin, mb, node).Close()
	}

	var stopping atomic.Bool
	sigDone := make(chan struct{})
	go func() {
		defer close(sigDone)
		for s := range opts.sig {
			switch s {
			case syscall.SIGHUP:
				if opts.snapshotPath == "" {
					fmt.Fprintln(os.Stderr, "bcpqp-proxy: SIGHUP ignored (no -snapshot path)")
					continue
				}
				if err := writeSnapshot(mb, opts.snapshotPath); err != nil {
					fmt.Fprintf(os.Stderr, "bcpqp-proxy: snapshot failed: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "bcpqp-proxy: snapshot written to %s\n", opts.snapshotPath)
				}
			default: // SIGTERM, SIGINT
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: %v: draining\n", s)
				stopping.Store(true)
				return
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "bcpqp-proxy: %s -> %s (engine datapath)\n", in.LocalAddr(), dst)
	var (
		bufs [bcpqp.DefaultBurst][]byte
		pkts [bcpqp.DefaultBurst]bcpqp.Packet
	)
	for i := range bufs {
		bufs[i] = make([]byte, 65536)
	}
	readErr := func(err error) bool { // true = fatal
		var ne net.Error
		return !(errors.As(err, &ne) && ne.Timeout())
	}
	var kc keyCache
	exit := 0
	for !stopping.Load() {
		// First datagram of the burst: block briefly, then re-check the
		// stop flag so a signal is honoured within ~100ms even when idle.
		if err := in.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
			fmt.Fprintln(os.Stderr, "bcpqp-proxy: set read deadline:", err)
			exit = 1
			break
		}
		n, from, err := in.ReadFrom(bufs[0])
		if err != nil {
			if readErr(err) {
				fmt.Fprintln(os.Stderr, "bcpqp-proxy: read:", err)
				exit = 1
				break
			}
			continue
		}
		// Each datagram's payload is copied out of the reusable read
		// buffer: the engine enforces asynchronously and the emit hook
		// relays from Packet.Payload.
		pkts[0] = bcpqp.Packet{
			Key:     kc.keyFor(from),
			Size:    n,
			Class:   bcpqp.NoClass,
			Payload: append([]byte(nil), bufs[0][:n]...),
		}
		count := 1
		// Opportunistic drain under ONE absolute deadline for the whole
		// burst: re-arming the deadline before every drain read costs a
		// timer update per datagram and lets a slow trickle stretch the
		// window far past drainDeadline.
		if err := in.SetReadDeadline(time.Now().Add(drainDeadline)); err == nil {
			for count < len(bufs) {
				n, from, err = in.ReadFrom(bufs[count])
				if err != nil {
					break
				}
				pkts[count] = bcpqp.Packet{
					Key:     kc.keyFor(from),
					Size:    n,
					Class:   bcpqp.NoClass,
					Payload: append([]byte(nil), bufs[count][:n]...),
				}
				count++
			}
		}
		if err := mb.SubmitBatch(h, pkts[:count]); err != nil {
			fmt.Fprintln(os.Stderr, "bcpqp-proxy: submit:", err)
			exit = 1
			break
		}
	}

	// Graceful drain: Remove's final-stats barrier enforces every burst
	// submitted above, then the deadline-bounded Close stops the shards.
	final, statErr := mb.Remove(proxyAggregate)
	rep := mb.Close()
	if statErr == nil {
		fmt.Fprintf(os.Stderr, "bcpqp-proxy: final stats: accepted %d (%d bytes), dropped %d, write-dropped %d\n",
			final.AcceptedPackets, final.AcceptedBytes, final.DroppedPackets, writeDropped.Load())
	}
	fmt.Fprintf(os.Stderr, "bcpqp-proxy: close report: clean=%v abandoned-shards=%d shed-packets=%d\n",
		rep.Clean, rep.AbandonedShards, rep.ShedPackets)
	if !rep.Clean {
		exit = 1
	}
	return exit
}

// writeSnapshot captures a warm-restart image of the engine and persists it
// atomically: temp file in the same directory, then rename, so a crash
// mid-write can never corrupt the previous snapshot.
func writeSnapshot(mb *bcpqp.Middlebox, path string) error {
	snap, err := mb.Snapshot()
	if err != nil {
		return err
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// restoreSnapshot loads a snapshot file into the engine. The error is
// os.IsNotExist-compatible when no snapshot exists yet.
func restoreSnapshot(mb *bcpqp.Middlebox, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap bcpqp.MiddleboxSnapshot
	if err := snap.UnmarshalBinary(blob); err != nil {
		return err
	}
	return mb.Restore(&snap)
}

// buildEnforcer constructs a bufferless enforcer for live traffic.
func buildEnforcer(name string, rate bcpqp.Rate, queues int) (bcpqp.Enforcer, error) {
	scheme, err := bcpqp.ParseScheme(name)
	if err != nil {
		return nil, err
	}
	const maxRTT = 100 * time.Millisecond
	switch scheme {
	case bcpqp.SchemeBCPQP:
		return bcpqp.NewBCPQP(bcpqp.BCPQPConfig{Rate: rate, Queues: queues, MaxRTT: maxRTT})
	case bcpqp.SchemePQP:
		return bcpqp.NewPQP(rate, queues, nil, 0, maxRTT)
	case bcpqp.SchemePolicer, bcpqp.SchemePolicerPlus:
		return bcpqp.NewPolicer(rate, 0, maxRTT)
	case bcpqp.SchemeFairPolicer:
		return bcpqp.NewFairPolicer(bcpqp.FairPolicerConfig{
			Rate: rate, Bucket: bcpqp.RenoQueueRequirement(rate, maxRTT), Flows: queues,
		})
	default:
		return nil, fmt.Errorf("scheme %v buffers packets and cannot run as a bufferless relay", scheme)
	}
}

// drainDeadline bounds the opportunistic follow-up reads that assemble a
// burst: after the first (blocking) datagram of a burst arrives, the relay
// keeps reading until the socket is empty for this long or the burst is
// full. It trades ≤200µs of added relay latency for batch amortization of
// the enforcer datapath — the userspace analogue of a DPDK rx_burst.
const drainDeadline = 200 * time.Microsecond

// relayRetries bounds how many times a transiently failing write to the
// out-socket is retried (with a short backoff) before the datagram is
// dropped and counted; the relay itself keeps running either way.
const (
	relayRetries    = 3
	relayRetryDelay = 200 * time.Microsecond
)

// transientNetErr reports whether a socket error is transient for a live
// relay: an ICMP-induced ECONNREFUSED on the connected out-socket (the
// forward target briefly down), an unreachable network/host during a
// routing flap, exhausted socket buffers, or a plain timeout. A policer
// must degrade on these — drop and count — not exit.
func transientNetErr(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ENETUNREACH) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.EAGAIN) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// relay runs the datapath over the already-open listen socket until the
// socket closes. The caller owns in (passing it open avoids any
// close-and-rebind race for callers that need to learn the bound address
// first). stop, when non-nil, is polled to terminate gracefully (used by
// the selftest).
//
// Datagrams are received in bursts of up to bcpqp.DefaultBurst: one
// blocking read, then opportunistic reads that drain whatever the kernel
// has already queued. The whole burst is pushed through the enforcer with
// a single SubmitBatch call at one arrival timestamp — the same burst
// granularity a polling middlebox observes — and accepted datagrams are
// relayed in order.
//
// Transient errors on the connected out-socket (ECONNREFUSED from ICMP
// port-unreachable, ENETUNREACH, full socket buffers) are retried a bounded
// number of times and then dropped and counted — the relay only exits on
// hard errors or when its listen socket is closed.
func relay(in net.PacketConn, forward string, enf bcpqp.Enforcer, stop *atomic.Bool) error {
	dst, err := net.ResolveUDPAddr("udp", forward)
	if err != nil {
		return err
	}
	out, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		return err
	}
	defer out.Close()

	fmt.Fprintf(os.Stderr, "bcpqp-proxy: %s -> %s\n", in.LocalAddr(), dst)
	var (
		bufs     [bcpqp.DefaultBurst][]byte
		lens     [bcpqp.DefaultBurst]int
		pkts     [bcpqp.DefaultBurst]bcpqp.Packet
		verdicts [bcpqp.DefaultBurst]bcpqp.Verdict
	)
	for i := range bufs {
		bufs[i] = make([]byte, 65536)
	}
	start := time.Now()
	var kc keyCache
	var accepted, dropped, writeDropped, writeErrs int64
	for {
		if stop != nil && stop.Load() {
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: accepted %d, dropped %d, write-dropped %d\n",
				accepted, dropped, writeDropped)
			return nil
		}
		// First datagram of the burst: wait for traffic (polling the
		// stop flag when one is wired up).
		var deadline time.Time
		if stop != nil {
			deadline = time.Now().Add(100 * time.Millisecond)
		}
		if err := in.SetReadDeadline(deadline); err != nil {
			return fmt.Errorf("set read deadline: %w", err)
		}
		n, from, err := in.ReadFrom(bufs[0])
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		lens[0] = n
		pkts[0] = bcpqp.Packet{Key: kc.keyFor(from), Size: n, Class: bcpqp.NoClass}
		count := 1
		// Opportunistic drain: collect datagrams the kernel already
		// buffered, under ONE absolute deadline for the whole burst (a
		// per-read deadline would cost a timer update per datagram and let
		// a trickle stretch the window far past drainDeadline).
		if err := in.SetReadDeadline(time.Now().Add(drainDeadline)); err != nil {
			return fmt.Errorf("set read deadline: %w", err)
		}
		for count < len(bufs) {
			n, from, err = in.ReadFrom(bufs[count])
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break
				}
				return err
			}
			lens[count] = n
			pkts[count] = bcpqp.Packet{Key: kc.keyFor(from), Size: n, Class: bcpqp.NoClass}
			count++
		}
		bcpqp.SubmitBatch(enf, time.Since(start), pkts[:count], verdicts[:count])
		for i := 0; i < count; i++ {
			switch verdicts[i] {
			case bcpqp.Transmit, bcpqp.TransmitCE:
				accepted++
				if err := writeTransient(out, bufs[i][:lens[i]]); err != nil {
					if !transientNetErr(err) {
						return fmt.Errorf("relay write: %w", err)
					}
					// Still failing after bounded retries: shed the
					// datagram, keep the relay alive, and say so
					// (first occurrence, then every 1024th).
					writeDropped++
					if writeErrs++; writeErrs == 1 || writeErrs%1024 == 0 {
						fmt.Fprintf(os.Stderr,
							"bcpqp-proxy: transient write error (%d so far, dropping): %v\n",
							writeErrs, err)
					}
				}
			default:
				dropped++
			}
		}
	}
}

// writeTransient writes one datagram with a bounded retry on transient
// errors; the final error (nil on success) is returned for accounting.
func writeTransient(out *net.UDPConn, buf []byte) error {
	var err error
	for attempt := 0; attempt <= relayRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(relayRetryDelay)
		}
		if _, err = out.Write(buf); err == nil || !transientNetErr(err) {
			return err
		}
	}
	return err
}

// keyFor derives a flow key from a UDP source address.
func keyFor(addr net.Addr) bcpqp.FlowKey {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return bcpqp.FlowKey{}
	}
	var ip uint32
	if v4 := ua.IP.To4(); v4 != nil {
		ip = uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3])
	}
	return bcpqp.FlowKey{SrcIP: ip, SrcPort: uint16(ua.Port), Proto: 17}
}

// keyCache memoizes the last resolved source address → flow key: within a
// burst, consecutive datagrams overwhelmingly share a sender, so the common
// case is one port compare and one IP compare against a reused buffer
// instead of re-deriving the key per datagram. Single-goroutine, like the
// read loop that owns it.
type keyCache struct {
	ip   net.IP
	port int
	key  bcpqp.FlowKey
	ok   bool
}

func (c *keyCache) keyFor(addr net.Addr) bcpqp.FlowKey {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return bcpqp.FlowKey{}
	}
	if c.ok && ua.Port == c.port && ua.IP.Equal(c.ip) {
		return c.key
	}
	c.ip = append(c.ip[:0], ua.IP...)
	c.port = ua.Port
	c.key = keyFor(ua)
	c.ok = true
	return c.key
}

// runSelfTest demonstrates live enforcement over loopback: two senders — a
// greedy one and one paced at its fair share — push datagrams through the
// proxy to a counting sink.
func runSelfTest(rateMbps float64, scheme string, queues int, dur time.Duration) error {
	rate := bcpqp.Rate(rateMbps) * bcpqp.Mbps

	// Sink: counts received bytes per sending flow (first payload byte
	// carries the flow id).
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer sink.Close()
	var got [2]atomic.Int64
	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := sink.ReadFrom(buf)
			if err != nil {
				return
			}
			if n > 0 && buf[0] < 2 {
				got[buf[0]].Add(int64(n))
			}
		}
	}()

	enf, err := buildEnforcer(scheme, rate, queues)
	if err != nil {
		return err
	}
	var stop atomic.Bool
	// Bind the proxy socket once and hand it to the relay still open: the
	// senders learn the bound address from the same socket the relay reads,
	// so there is no close-and-rebind window in which another process could
	// grab the port (or early datagrams could be lost).
	in, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer in.Close()
	listenAddr := in.LocalAddr().String()
	proxyDone := make(chan error, 1)
	go func() {
		proxyDone <- relay(in, sink.LocalAddr().String(), enf, &stop)
	}()
	time.Sleep(50 * time.Millisecond)

	// Sender 0: greedy, sends as fast as pacing at 2× the full rate.
	// Sender 1: well-behaved, paced at half the enforced rate.
	send := func(flow byte, pace time.Duration) {
		conn, err := net.Dial("udp", listenAddr)
		if err != nil {
			return
		}
		defer conn.Close()
		payload := make([]byte, 1200)
		payload[0] = flow
		deadline := time.Now().Add(dur)
		ticker := time.NewTicker(pace)
		defer ticker.Stop()
		for time.Now().Before(deadline) {
			<-ticker.C
			conn.Write(payload)
		}
	}
	fullGap := rate.DurationForBytes(1200)
	go send(0, fullGap/2) // 2× the enforced rate
	done := make(chan struct{})
	go func() { send(1, 2*fullGap); close(done) }() // half the rate (its fair share)

	<-done
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	<-proxyDone

	fmt.Printf("enforced %.1f Mbps via %s for %v over loopback\n", rateMbps, scheme, dur)
	for f := 0; f < 2; f++ {
		mbps := float64(got[f].Load()) * 8 / dur.Seconds() / 1e6
		role := "greedy (2x rate)"
		if f == 1 {
			role = "paced (0.5x rate)"
		}
		fmt.Printf("  flow %d %-18s delivered %.2f Mbps\n", f, role, mbps)
	}
	total := float64(got[0].Load()+got[1].Load()) * 8 / dur.Seconds() / 1e6
	fmt.Printf("  total %.2f Mbps (enforced %.1f)\n", total, rateMbps)
	return nil
}
