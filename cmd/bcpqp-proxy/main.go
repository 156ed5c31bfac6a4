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
// There is one datapath: -cores workers (default 1), each running
// relayLoop over its own batched socket. With -cores N > 1 the kernel
// hashes sources over N SO_REUSEPORT listeners and each core enforces 1/N
// of the plan — the flat -rate, or every rate and burst of a -tree spec —
// on its own aggregate (DESIGN.md "Datapath" says why a static split
// suffices). Every other feature works the same at any core count.
//
// The proxy is a well-behaved middlebox process:
//
//   - SIGTERM/SIGINT drain gracefully: in-flight bursts are enforced, the
//     engine's deadline-bounded Close runs (-drain-timeout), its report is
//     logged, and the exit status is nonzero if the shutdown was unclean.
//   - SIGHUP writes a warm-restart snapshot to the -snapshot path
//     (atomic temp-file + rename); at startup an existing snapshot there
//     is restored, so a restarted proxy resumes with the enforcement state
//     (phantom occupancy, burst windows, token levels) it had. A snapshot
//     taken at a different -cores does not fit and the proxy starts cold.
//   - Every run ends with one cycle-accounting line per core, the summed
//     final stats and a reconciliation line (kernel drops at the sockets
//     plus what the engine saw is what the wire offered); with -http the
//     per-core numbers are the bcpqp_core_* families on /metrics.
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
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bcpqp"
	"bcpqp/internal/harness"
	"bcpqp/internal/netio"
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
		coresFl  = flag.Int("cores", 1, "datapath workers, each with its own SO_REUSEPORT socket and 1/cores of the plan (0 = GOMAXPROCS)")
		drain    = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain deadline on SIGTERM/SIGINT")
		selftest = flag.Bool("selftest", false, "run the loopback demonstration and exit")
		duration = flag.Duration("selftest-duration", 5*time.Second, "selftest run length")
	)
	flag.Parse()
	rate := bcpqp.Rate(*rateMbps) * bcpqp.Mbps

	if *selftest {
		if err := runSelfTest(rate, *scheme, *queues, *duration); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		return
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
			key:    *clKey,
		}
	}

	var admin net.Listener
	if *httpAddr != "" {
		var err error
		if admin, err = net.Listen("tcp", *httpAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	sigc := make(chan os.Signal, 4)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	os.Exit(serve(proxyOpts{
		listen:       *listen,
		forward:      *forward,
		cores:        *coresFl,
		scheme:       *scheme,
		rate:         rate,
		queues:       *queues,
		treePath:     *treePath,
		snapshotPath: *snapPath,
		drainTimeout: *drain,
		sig:          sigc,
		admin:        admin,
		cluster:      clOpts,
	}))
}

// proxyAggregate is the engine id of a one-core proxy's enforcer and the
// prefix of the per-core ids otherwise; snapshots key on these.
const proxyAggregate = "proxy"

// coreAggregate names core i's aggregate. One core keeps the bare id, so a
// default run writes the snapshots and metric series it always has.
func coreAggregate(i, cores int) string {
	if cores == 1 {
		return proxyAggregate
	}
	return fmt.Sprintf("%s/core%d", proxyAggregate, i)
}

// proxyOpts parameterizes serve.
type proxyOpts struct {
	listen  string
	forward string
	// cores is the worker count (0 = GOMAXPROCS). Each core enforces
	// 1/cores of the plan below.
	cores int
	// The plan: a flat scheme at rate over queues flow buckets, or, when
	// treePath is set, the policy tree in that spec file (queues is then
	// the default for ceilings that name none).
	scheme   string
	rate     bcpqp.Rate
	queues   int
	treePath string

	snapshotPath string
	drainTimeout time.Duration
	// sig delivers shutdown and snapshot requests; in production it is a
	// signal.Notify channel, in tests and the selftest a plain channel fed
	// directly.
	sig <-chan os.Signal
	// admin, when non-nil, serves the observability endpoints (/metrics,
	// /healthz, /cluster, /debug/trace, /debug/vars, /debug/pprof) until
	// shutdown. It also switches the engine's trace collector on.
	admin net.Listener
	// cluster, when enabled, joins the peer budget exchange (and, with
	// shared set, enforces the plan rate cluster-wide).
	cluster clusterOpts
	// forceSingle selects netio's portable single-datagram backend (tests
	// run both on any platform); it cannot share a port, so: one core.
	forceSingle bool
	// ready, when non-nil, receives the bound listen address once every
	// core is up (tests and the selftest listen on :0).
	ready chan<- string
}

// maxRTT is the round trip the enforcers and their audit envelopes are sized for.
const maxRTT = 100 * time.Millisecond

// auditEnvelope sizes the plan-rate conformance envelope for a scheme: the
// plan rate plus a burst term of 2× the scheme's worst-case buffering — every
// phantom queue full, or the token bucket and one packet — from the scheme
// table (harness.Buffer) at maxRTT, so a correct enforcer can never trip it
// while real over-admission, which grows without bound, still does. Returns
// burst 0 (audit off) for unknown schemes. A policy tree is not audited: the
// proxy arms no envelope on it. Its per-node limits are the tree's own, and
// /metrics/tree exports what each node admitted and dropped.
func auditEnvelope(name string, rate bcpqp.Rate, queues int) int64 {
	scheme, err := bcpqp.ParseScheme(name)
	if err != nil {
		return 0
	}
	buf := harness.Buffer(scheme, rate, maxRTT)
	switch scheme {
	case bcpqp.SchemeBCPQP, bcpqp.SchemePQP:
		return 2 * int64(queues) * buf
	case bcpqp.SchemePolicer, bcpqp.SchemePolicerPlus, bcpqp.SchemeFairPolicer:
		return 2 * (buf + bcpqp.MSS)
	default:
		return 0
	}
}

// rxBufBytes sizes a receive slot for the largest UDP datagram (2 MB of
// slots per core), so every datagram is relayed, and charged, whole.
const rxBufBytes = 65536

// core is one worker's sockets, aggregate (on its own shard) and counters.
type core struct {
	rx, tx *netio.Conn
	h      bcpqp.AggregateHandle
	ls     *bcpqp.LocalSubmitter
	coreStats
}

// serve runs the proxy until SIGTERM/SIGINT, snapshotting on SIGHUP (the
// package comment has the protocol), then drains: the workers finish the
// burst they hold, the cores' final stats are summed and logged with the
// deadline-bounded Close's report, and the exit code is nonzero when a
// worker failed or the shutdown was unclean (wedged shards abandoned).
func serve(opts proxyOpts) int {
	cores := opts.cores
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	if cores > 1 && (opts.forceSingle || !netio.SupportsBatch()) {
		fmt.Fprintln(os.Stderr, "bcpqp-proxy: -cores > 1 needs SO_REUSEPORT (linux amd64/arm64); falling back to 1 core")
		cores = 1
	}

	// Structured, rate-limited fault-plane logging: one line on the first
	// enforcer panic per aggregate, then every 64th, so a crash-looping
	// enforcer cannot flood stderr. The hook must not call back into the
	// engine.
	var flog faultLog
	cfg := bcpqp.MiddleboxConfig{
		Shards:       cores,
		CloseTimeout: opts.drainTimeout,
		OnFault: func(id string, recovered any) {
			if id == "" {
				id = "(unattributed)"
			}
			if log, n := flog.note(id); log {
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: event=fault aggregate=%q reason=%q count=%d\n",
					id, fmt.Sprint(recovered), n)
			}
		},
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

	var cs []*core
	var ids []string
	var conns []*netio.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bcpqp-proxy:", err)
		mb.Close()
		return 1
	}
	// One core's enforcer, at 1/cores of the plan. Rates split linearly the
	// way HTB's do: every ceiling, assured rate and burst of a tree scales
	// by the same factor, so borrowing ratios are those of the whole plan.
	coreRate := opts.rate / bcpqp.Rate(cores)
	build := func() (bcpqp.Enforcer, error) {
		if opts.treePath != "" {
			return loadTreeSpec(opts.treePath, opts.queues, cores)
		}
		return buildEnforcer(opts.scheme, coreRate, opts.queues)
	}
	listen := opts.listen
	for i := 0; i < cores; i++ {
		c, id := new(core), coreAggregate(i, cores)
		cs, ids = append(cs, c), append(ids, id)
		enf, err := build()
		if err != nil {
			return fail(err)
		}
		c.rx, err = netio.Listen(listen, netio.Config{
			BufBytes: rxBufBytes, ReusePort: cores > 1, ForceSingle: opts.forceSingle,
		})
		if err != nil {
			return fail(fmt.Errorf("core %d listen: %w", i, err))
		}
		// A REUSEPORT group binds one address: later cores follow the
		// first socket's choice when the listen address was :0 style.
		conns, listen = append(conns, c.rx), c.rx.LocalAddr().String()
		if c.tx, err = netio.Dial(opts.forward, netio.Config{ForceSingle: opts.forceSingle}); err != nil {
			return fail(fmt.Errorf("core %d dial: %w", i, err))
		}
		conns = append(conns, c.tx)
		tx, st := c.tx, &c.coreStats
		emit := func(p bcpqp.Packet) {
			// Runs inline in the worker's SubmitBatch: the payload is queued
			// by reference and leaves in FlushTx, before rx reuses it.
			if !tx.QueueTx(p.Payload) {
				st.writeDropped.Add(1)
			}
		}
		// A policy tree is one aggregate like any enforcer: it routes each
		// packet to a leaf itself, and /metrics/tree exports its per-node
		// counters (a flat enforcer exports as node 0).
		if c.h, err = mb.AddPinned(id, i, enf, emit); err != nil {
			return fail(err)
		}
		if c.ls, err = mb.LocalShard(i); err != nil {
			return fail(err)
		}
		if col != nil {
			// Wire enforcer-internal events (drops with reason, ECN marks,
			// magic fill/reclaim) into the flight recorder. Token-bucket
			// schemes expose no event hook; that only thins the trace.
			if err := bcpqp.ObserveAggregate(mb, id, col); err != nil && !errors.Is(err, bcpqp.ErrNotObservable) {
				fmt.Fprintln(os.Stderr, "bcpqp-proxy: observe:", err)
			}
		}
		// Always-on conformance audit of a flat plan: the core's envelope
		// (with the scheme's buffering slop) is live from the first packet,
		// so bcpqp_conformance_violations_total staying at zero is a
		// continuously-checked claim, not an assumption.
		if burst := auditEnvelope(opts.scheme, coreRate, opts.queues); opts.treePath == "" && burst > 0 {
			if err := mb.ArmAudit(id, coreRate, burst); err != nil {
				fmt.Fprintln(os.Stderr, "bcpqp-proxy: audit:", err)
			}
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
	// observes restored counters, and before traffic so a shared plan
	// starts at its conservative r/N share, never the full global rate.
	var node *bcpqp.ClusterNode
	if opts.cluster.enabled() {
		var stopCluster func()
		var err error
		node, stopCluster, err = startCluster(mb, col, ids, opts.rate, opts.cluster)
		if err != nil {
			return fail(fmt.Errorf("cluster: %w", err))
		}
		defer stopCluster()
		fmt.Fprintf(os.Stderr, "bcpqp-proxy: cluster node %q: %d peers, shared=%v\n",
			opts.cluster.nodeID, len(opts.cluster.peers), opts.cluster.shared)
	}
	if col != nil {
		// Per-core cycle telemetry joins the engine's /metrics exposition:
		// one bcpqp_core_* sample per core, plus the kernel's own
		// receive-drop counter so a scrape can reconcile offered load
		// against what the datapath actually saw.
		mb.AttachMetricSource(func() []bcpqp.MetricsFamily {
			b := newCoreFamilies()
			for i, c := range cs {
				drops, haveDrops := c.rx.KernelDrops()
				b.add(i, &c.coreStats, drops, haveDrops)
			}
			return b.render()
		})
		defer startAdmin(opts.admin, mb, node, ids).Close()
	}

	var stopping atomic.Bool
	go func() {
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

	// segment-offload is what the forward sockets start out doing; a route
	// that turns it down says so in one line from the flush that found out.
	fmt.Fprintf(os.Stderr, "bcpqp-proxy: %s -> %s (cores=%d, batched=%v, segment-offload=%v)\n",
		listen, opts.forward, cores, cs[0].rx.Batched(), cs[0].tx.SegmentOffload())
	if opts.ready != nil {
		opts.ready <- listen
	}

	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Run-to-completion: pin the worker to an OS thread so the
			// scheduler never migrates its socket wakeups mid-burst.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if err := relayLoop(c.rx, c.tx, c.ls, c.h, &c.coreStats, &stopping); err != nil {
				// It takes the proxy down with it: its share of the sources
				// would otherwise be black-holed behind a live process.
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: core %d %v\n", i, err)
				failed.Store(true)
				stopping.Store(true)
			}
		}()
	}
	wg.Wait()

	// Every burst a worker received has been enforced and flushed by the
	// time it returned; Remove reads each core's final stats, then the
	// deadline-bounded Close stops the shards.
	var total bcpqp.Stats
	var shed, writeDropped, kernelDrops int64
	kernelDropsKnown := true
	for i, c := range cs {
		if final, err := mb.Remove(ids[i]); err == nil {
			total.AcceptedPackets += final.AcceptedPackets
			total.AcceptedBytes += final.AcceptedBytes
			total.DroppedPackets += final.DroppedPackets
		}
		shed += c.shed.Load()
		writeDropped += c.writeDropped.Load()
		// recvPkts + kernel drops = what the wire offered this core.
		drops, ok := c.rx.KernelDrops()
		kernelDrops += drops
		kernelDropsKnown = kernelDropsKnown && ok
		pps := 0.0
		if calls := c.recvCalls.Load(); calls > 0 {
			pps = float64(c.recvPkts.Load()) / float64(calls)
		}
		fmt.Fprintf(os.Stderr, "bcpqp-proxy: core %d: recv %d pkts in %d syscalls (%.1f pkts/syscall), truncated %d, tx %d pkts in %d msgs and %d flushes, kernel-drops %d, busy rx=%v enforce=%v flush=%v\n",
			i, c.recvPkts.Load(), c.recvCalls.Load(), pps, c.rxTruncated.Load(),
			c.txPkts.Load(), c.txMsgs.Load(), c.txFlushes.Load(), drops,
			time.Duration(c.rxWaitNs.Load()).Round(time.Millisecond),
			time.Duration(c.enforceNs.Load()).Round(time.Millisecond),
			time.Duration(c.flushNs.Load()).Round(time.Millisecond))
	}
	rep := mb.Close()
	fmt.Fprintf(os.Stderr, "bcpqp-proxy: final stats: accepted %d (%d bytes), dropped %d, shed %d, write-dropped %d\n",
		total.AcceptedPackets, total.AcceptedBytes, total.DroppedPackets, shed, writeDropped)
	if kernelDropsKnown {
		fmt.Fprintf(os.Stderr, "bcpqp-proxy: reconciliation: kernel dropped %d datagrams before the datapath (engine saw offered minus exactly these)\n",
			kernelDrops)
	}
	fmt.Fprintf(os.Stderr, "bcpqp-proxy: close report: clean=%v abandoned-shards=%d\n",
		rep.Clean, rep.AbandonedShards)
	if failed.Load() || !rep.Clean {
		return 1
	}
	return 0
}

// snapshotBlob is the BQSN-framed image of every snapshottable aggregate:
// what writeSnapshot persists on SIGHUP. UnmarshalBinary and Restore load it.
func snapshotBlob(mb *bcpqp.Middlebox) ([]byte, error) {
	snap, err := mb.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.MarshalBinary()
}

// writeSnapshot captures a warm-restart image of the engine and persists it
// atomically: temp file in the same directory, then rename, so a crash
// mid-write can never corrupt the previous snapshot.
func writeSnapshot(mb *bcpqp.Middlebox, path string) error {
	blob, err := snapshotBlob(mb)
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
	// The aggregates are the cores, each built at 1/cores of the plan: an
	// image of a different number of them fits none of these enforcers.
	if n := len(snap.Aggregates); n != mb.Len() {
		return fmt.Errorf("snapshot holds %d aggregates, this run has %d (taken at a different -cores?)", n, mb.Len())
	}
	return mb.Restore(&snap)
}

// buildEnforcer constructs a bufferless enforcer for live traffic from the
// scheme table (harness.BuildEnforcer), sized at maxRTT.
func buildEnforcer(name string, rate bcpqp.Rate, queues int) (bcpqp.Enforcer, error) {
	scheme, err := bcpqp.ParseScheme(name)
	if err != nil {
		return nil, err
	}
	if scheme == bcpqp.SchemeShaper || scheme == bcpqp.SchemeSingleShaper {
		return nil, fmt.Errorf("scheme %v buffers packets and cannot run as a bufferless relay", scheme)
	}
	return harness.BuildEnforcer(harness.Config{Scheme: scheme, Rate: rate, MaxRTT: maxRTT, Queues: queues}, nil, nil)
}

// runSelfTest demonstrates live enforcement over loopback: two senders — a
// greedy one and one paced at its fair share — push datagrams through the
// proxy to a counting sink.
func runSelfTest(rate bcpqp.Rate, scheme string, queues int, dur time.Duration) error {
	// Sink: counts received bytes per sending flow (first payload byte
	// carries the flow id).
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer sink.Close()
	var got [2]atomic.Int64
	sinkDone := make(chan struct{})
	go func() {
		defer close(sinkDone)
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

	// The proxy itself, on one core so the two flows contend for one
	// enforcer: it binds :0 and reports the address it got, so there is no
	// close-and-rebind window in which early datagrams could be lost.
	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	code := make(chan int, 1)
	go func() {
		code <- serve(proxyOpts{
			listen: "127.0.0.1:0", forward: sink.LocalAddr().String(), cores: 1,
			scheme: scheme, rate: rate, queues: queues,
			drainTimeout: 5 * time.Second, sig: sig, ready: ready,
		})
	}()
	var listenAddr string
	select {
	case listenAddr = <-ready:
	case c := <-code:
		return fmt.Errorf("proxy exited %d before serving", c)
	}

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
	sig <- syscall.SIGTERM
	if c := <-code; c != 0 {
		return fmt.Errorf("proxy drain exited %d", c)
	}
	// Everything the proxy relayed is in the sink's socket buffer by now:
	// the reader counts it and stops at the first idle read.
	sink.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	<-sinkDone

	fmt.Printf("enforced %.1f Mbps via %s for %v over loopback\n", rate.Mbps(), scheme, dur)
	for f := 0; f < 2; f++ {
		mbps := float64(got[f].Load()) * 8 / dur.Seconds() / 1e6
		role := "greedy (2x rate)"
		if f == 1 {
			role = "paced (0.5x rate)"
		}
		fmt.Printf("  flow %d %-18s delivered %.2f Mbps\n", f, role, mbps)
	}
	total := float64(got[0].Load()+got[1].Load()) * 8 / dur.Seconds() / 1e6
	fmt.Printf("  total %.2f Mbps (enforced %.1f)\n", total, rate.Mbps())
	return nil
}
