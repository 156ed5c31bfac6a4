// Package cluster turns N independent bcpqp engines into one logical
// enforcer for aggregates whose traffic spans machines.
//
// An aggregate marked shared is enforced at every node at once. A
// budget-exchange protocol on the paper's 250 ms window splits its global
// drain rate r into per-node shares r_i with Σ r_i ≤ r at all times, even
// while messages are lost, duplicated, reordered, delayed, or one-way
// partitioned. See rebalance.go for the share calculus and the safety
// argument.
//
// One Node runs per engine, over a static peer set: it runs the exchange,
// decides which peers' grants it honors, and drives the engine's in-band
// rate-update lane through the SharedAggregate.Apply callback — the
// cluster layer never touches the datapath directly.
//
// The package deliberately depends only on internal/enforcer (wire codec
// helpers), internal/metrics (the default window), internal/obs (trace
// events) and internal/units; engines plug in through the SharedAggregate
// callbacks, so cluster logic is testable without a datapath.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bcpqp/internal/metrics"
	"bcpqp/internal/obs"
	"bcpqp/internal/units"
)

// Transport delivers an encoded frame to a peer by node ID. Send may be
// called concurrently and must not retain the frame. A transport is dumb on
// purpose: liveness and validation live in the Node, and a failed send is
// left to the next tick, so a UDP socket, a TCP dialer and an in-memory
// fault-injected bus are interchangeable.
type Transport interface {
	Send(peer string, frame []byte) error
}

// SharedAggregate wires one cluster-enforced aggregate to the local engine.
// All callbacks are invoked outside the Node's lock and must be safe for
// use from the exchange goroutine.
type SharedAggregate struct {
	// ID names the aggregate — identical across all nodes.
	ID string
	// Rate is the GLOBAL bound r the cluster enforces for this aggregate.
	Rate units.Rate
	// Observed returns the engine's cumulative accepted byte count for the
	// aggregate (e.g. Engine.Stats(id).AcceptedBytes). ok=false skips the
	// sample (aggregate not registered yet).
	Observed func() (bytes int64, ok bool)
	// Apply enforces a recomputed share, typically Engine.ApplyShare →
	// the in-band SetRate lane. fallback is true when the node is on its
	// conservative static floor because the exchange is degraded.
	Apply func(share units.Rate, fallback bool) error
}

// Config configures a Node. A send that fails is not retried: the next
// tick's report is the retry, as it is for a frame lost on the wire.
type Config struct {
	// Self is this node's ID; Peers are the OTHER members (Self excluded,
	// though its presence is tolerated). The peer set is fixed for the
	// node's lifetime.
	Self  string
	Peers []string

	// Window is the exchange period (default metrics.DefaultWindow, the
	// paper's 250 ms).
	Window time.Duration

	// Transport sends frames to peers. Required.
	Transport Transport
	// Clock supplies virtual time (default: monotonic since New). Tests
	// drive a fake clock for deterministic chaos runs.
	Clock func() time.Duration

	// Recorder receives KindShareApply trace events (e.g. the engine's
	// obs.Collector). Optional.
	Recorder obs.Recorder

	// Key, when non-empty, seals every frame with a truncated HMAC-SHA256
	// tag and rejects inbound frames that fail verification. All peers
	// must share the key. An empty key sends frames in the clear and
	// accepts them from anyone who can reach the socket — sound only on a
	// trusted network (DESIGN.md "Distributed enforcement").
	Key []byte

	// Epoch identifies this boot on the wire. Sequence numbers restart at
	// zero on every process start, so peers use the epoch to tell a
	// rebooted node (epoch advanced, accept and reset) from a replayed or
	// stale report (epoch behind, drop). Zero (the default) derives the
	// epoch from the wall clock at New, which is strictly increasing
	// across restarts; tests pin it for reproducibility.
	Epoch uint64
}

// shared is the node-local exchange state for one shared aggregate.
type shared struct {
	cfg   SharedAggregate
	floor units.Rate

	haveLast  bool
	lastBytes int64
	lastAt    time.Duration
	observed  units.Rate // accept rate over the last completed window

	applied   units.Rate
	fallback  bool
	synced    bool       // first Rebalance must Apply even when unchanged
	grantedIn units.Rate // honored inbound at last rebalance

	grantOut []units.Rate // [peer][holdTicks] hold ring
	grants   []grant      // wire scratch for this tick's outbound grants

	// Conformance roll-up (ISSUE: cluster-wide audit). All updated inside
	// Rebalance under the node lock, alloc-free.
	prevGrant   []units.Rate  // last tick's planned grant per peer, for churn detection
	grantChurn  int64         // ticks×peers where the planned grant changed
	sumApplied  units.Rate    // local applied + Σ newest peer-reported applied
	overcommits int64         // ticks where sumApplied exceeded rate (+0.1% tolerance)
	unstable    bool          // share changed last tick; convergence episode open
	unstableAt  time.Duration // when the open episode started
	convD       *obs.Digest   // convergence episode durations, nanoseconds
}

// Node runs the exchange for one engine. Safe for concurrent use.
type Node struct {
	cfg     Config
	peerIDs []string // sorted, Self excluded

	epoch uint64 // this boot's incarnation, carried in every frame

	mu        sync.Mutex
	seq       uint64 // report sequence, one per tick
	tickIdx   int    // seq % holdTicks, the hold-ring slot
	peers     map[string]*peer
	peerList  []*peer // sorted by ID
	shared    map[string]*shared
	sharedIDs []string // sorted, for deterministic reports
	badFrames int64    // undecodable or unattributable frames
	started   time.Time

	// Scratch reused every tick so rebalancing allocates nothing.
	demand   []peerDemand
	echoes   []echo
	aggRpts  []aggReport
	applyOps []applyOp

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

type applyOp struct {
	fn       func(share units.Rate, fallback bool) error
	share    units.Rate
	fallback bool
}

// New builds a Node. The shared aggregate set is fixed at construction.
func New(cfg Config, aggs []SharedAggregate) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("cluster: Config.Transport is required")
	}
	if cfg.Window <= 0 {
		cfg.Window = metrics.DefaultWindow
	}
	n := &Node{
		cfg:     cfg,
		epoch:   cfg.Epoch,
		peers:   make(map[string]*peer),
		shared:  make(map[string]*shared),
		started: time.Now(),
		done:    make(chan struct{}),
	}
	if n.epoch == 0 {
		n.epoch = uint64(n.started.UnixNano())
	}
	if cfg.Clock == nil {
		n.cfg.Clock = func() time.Duration { return time.Since(n.started) }
	}
	seen := map[string]bool{cfg.Self: true}
	for _, id := range cfg.Peers {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		n.peerIDs = append(n.peerIDs, id)
	}
	sort.Strings(n.peerIDs)
	for _, id := range n.peerIDs {
		p := &peer{id: id, aggs: make(map[string]*peerAgg)}
		n.peers[id] = p
		n.peerList = append(n.peerList, p)
	}
	nFloor := len(n.peerIDs) + 1
	for _, a := range aggs {
		if a.ID == "" || a.Observed == nil || a.Apply == nil {
			return nil, fmt.Errorf("cluster: shared aggregate %q needs ID, Observed and Apply", a.ID)
		}
		if a.Rate <= 0 {
			return nil, fmt.Errorf("cluster: shared aggregate %q needs a positive global rate", a.ID)
		}
		if _, dup := n.shared[a.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate shared aggregate %q", a.ID)
		}
		s := &shared{
			cfg:       a,
			floor:     a.Rate / units.Rate(nFloor),
			grantOut:  make([]units.Rate, len(n.peerIDs)*holdTicks),
			grants:    make([]grant, 0, len(n.peerIDs)),
			prevGrant: make([]units.Rate, len(n.peerIDs)),
			convD:     obs.NewDigest(),
		}
		s.applied = s.floor
		s.fallback = len(n.peerIDs) > 0 // degraded until peers are heard
		n.shared[a.ID] = s
		n.sharedIDs = append(n.sharedIDs, a.ID)
	}
	sort.Strings(n.sharedIDs)
	n.demand = make([]peerDemand, len(n.peerIDs))
	n.echoes = make([]echo, 0, len(n.peerIDs))
	n.aggRpts = make([]aggReport, 0, len(n.sharedIDs))
	n.applyOps = make([]applyOp, 0, len(n.sharedIDs))
	return n, nil
}

// tick runs one full exchange round at virtual time now: sample observed
// rates, rebalance shares, apply them, and broadcast this node's report.
// Run calls it on the window cadence; tests call it directly under a
// virtual clock.
func (n *Node) tick(now time.Duration) {
	n.observe(now)
	n.Rebalance(now)
	n.broadcast(now)
}

// observe samples every shared aggregate's cumulative accepted bytes and
// folds them into windowed accept rates. Callbacks run outside the lock.
func (n *Node) observe(now time.Duration) {
	n.mu.Lock()
	ids := n.sharedIDs
	n.mu.Unlock()
	for _, id := range ids {
		s := n.shared[id] // shared map is immutable after New
		bytes, ok := s.cfg.Observed()
		if !ok {
			continue
		}
		n.mu.Lock()
		if s.haveLast && now > s.lastAt {
			delta := bytes - s.lastBytes
			if delta < 0 {
				delta = 0 // engine restarted underneath us
			}
			s.observed = units.Rate(delta) * 8 * units.Rate(time.Second) / units.Rate(now-s.lastAt)
		}
		s.haveLast = true
		s.lastBytes = bytes
		s.lastAt = now
		n.mu.Unlock()
	}
}

// Rebalance advances the exchange one tick: decides which peers it honors,
// recomputes every shared aggregate's share from the grant calculus, and
// applies changed shares through the Apply callbacks. It allocates nothing
// on the recompute path (BenchmarkClusterRebalance holds it to 0
// allocs/op); callbacks and trace recording run after the lock is dropped.
func (n *Node) Rebalance(now time.Duration) {
	n.mu.Lock()
	n.seq++
	n.tickIdx = int(n.seq % holdTicks)
	mySeq := n.seq

	// The one liveness test: a peer's grants count this tick only while its
	// newest report is fresh and echo-valid. Status reports this view.
	allHonored := true
	for _, p := range n.peerList {
		p.honored = p.fresh(now, n.cfg.Window, mySeq)
		allHonored = allHonored && p.honored
	}

	// Per-aggregate share calculus.
	n.applyOps = n.applyOps[:0]
	for _, id := range n.sharedIDs {
		s := n.shared[id]
		var honoredIn, peerApplied units.Rate
		for k, p := range n.peerList {
			d := &n.demand[k]
			d.honored = p.honored
			d.observed = 0
			if pa := p.aggs[id]; pa != nil {
				d.observed = pa.observed
				peerApplied += pa.applied
				if d.honored {
					honoredIn += pa.grantToMe
				}
			}
		}
		// Plan this tick's outbound grants straight into the hold ring.
		planGrants(s.floor, s.observed, n.demand, s.grantOut, n.tickIdx)
		// Conformance: grant churn is every (tick, peer) slot whose planned
		// grant differs from the previous tick's plan — the stability signal
		// for the grant calculus (a healthy steady state re-plans the same
		// grants every window).
		for k := range n.peerIDs {
			if g := s.grantOut[k*holdTicks+n.tickIdx]; g != s.prevGrant[k] {
				s.grantChurn++
				s.prevGrant[k] = g
			}
		}
		held := heldOut(s.grantOut, len(n.peerList))
		share := applyBound(s.floor, held, honoredIn, s.cfg.Rate)
		fallback := !allHonored
		s.grantedIn = honoredIn
		// Conformance: cluster-wide Σ applied vs the global bound r. Peer
		// applied values are the newest reported (one exchange window old at
		// worst for fresh peers, staler across partitions — exactly the
		// regime where transient overcommit is possible and worth counting).
		// Tolerance r/1000 forgives float share arithmetic.
		s.sumApplied = share + peerApplied
		if s.sumApplied > s.cfg.Rate+s.cfg.Rate/1000 {
			s.overcommits++
		}
		// Conformance: convergence episodes. A share change opens (or
		// extends) an episode; the first unchanged tick closes it and its
		// duration enters the convergence digest.
		if share != s.applied || fallback != s.fallback || !s.synced {
			if !s.unstable {
				s.unstable = true
				s.unstableAt = now
			}
		} else if s.unstable {
			s.unstable = false
			s.convD.Observe(int64(now - s.unstableAt))
		}
		// The first tick applies unconditionally: the engine may still be
		// enforcing the full global rate from its own configuration, and a
		// node that starts partitioned would otherwise never pull it down
		// to the safe floor (no change → no Apply).
		if !s.synced || share != s.applied || fallback != s.fallback {
			s.applied, s.fallback, s.synced = share, fallback, true
			n.applyOps = append(n.applyOps, applyOp{fn: s.cfg.Apply, share: share, fallback: fallback})
		}
		// Refresh the wire scratch: current grants for the report.
		s.grants = s.grants[:0]
		for k, pid := range n.peerIDs {
			if g := s.grantOut[k*holdTicks+n.tickIdx]; g > 0 {
				s.grants = append(s.grants, grant{To: pid, Bps: g})
			}
		}
	}
	rec := n.cfg.Recorder
	n.mu.Unlock()

	for _, op := range n.applyOps {
		fb := int64(0)
		if op.fallback {
			fb = 1
		}
		if rec != nil {
			rec.Record(obs.Event{Kind: obs.KindShareApply, Shard: -1, Agg: -1,
				VT: int64(now), A: int64(op.share), B: fb})
		}
		// Apply errors are not fatal to the exchange: the engine keeps its
		// previous (never larger-sum) share and the next tick retries.
		_ = op.fn(op.share, op.fallback)
	}
}

// broadcast encodes this node's report and sends it once to every peer. A
// transport error is dropped like a frame lost on the wire: the next tick's
// report supersedes this one, and since peers honour a report for 1.5
// windows, a receiver that misses one spends at most one tick on its safe
// floor before it hears the next.
func (n *Node) broadcast(now time.Duration) {
	n.mu.Lock()
	n.echoes = n.echoes[:0]
	for _, p := range n.peerList {
		if p.everHeard {
			n.echoes = append(n.echoes, echo{Peer: p.id, Epoch: p.epoch, Seq: p.lastSeq})
		}
	}
	n.aggRpts = n.aggRpts[:0]
	for _, id := range n.sharedIDs {
		s := n.shared[id]
		n.aggRpts = append(n.aggRpts, aggReport{
			ID: id, Observed: s.observed, Applied: s.applied, Grants: s.grants,
		})
	}
	frame := sealFrame(n.cfg.Key, encodeReport(n.cfg.Self, n.epoch, n.seq, n.echoes, n.aggRpts))
	n.mu.Unlock()

	for _, id := range n.peerIDs {
		_ = n.cfg.Transport.Send(id, frame)
	}
}

// Deliver ingests one frame from the transport. Unauthenticated (when a
// key is configured), malformed, unknown-sender, and stale frames are all
// counted and dropped — every rejection degrades to the silence path the
// protocol already survives. The returned error is for transport-level
// logging only.
func (n *Node) Deliver(frame []byte) error {
	body, err := openFrame(n.cfg.Key, frame)
	if err != nil {
		n.mu.Lock()
		n.badFrames++
		n.mu.Unlock()
		return err
	}
	f, err := decodeFrame(body)
	if err != nil {
		n.mu.Lock()
		n.badFrames++
		n.mu.Unlock()
		return err
	}
	return n.deliverReport(f, n.cfg.Clock())
}

func (n *Node) deliverReport(f *frame, now time.Duration) error {
	n.mu.Lock()
	p := n.peers[f.Sender]
	if p == nil {
		n.badFrames++
		n.mu.Unlock()
		return fmt.Errorf("cluster: report from unknown peer %q", f.Sender)
	}
	if p.everHeard && f.Epoch < p.epoch {
		p.stale++
		n.mu.Unlock()
		return nil // frame from a previous incarnation of the peer
	}
	if p.everHeard && f.Epoch == p.epoch && f.Seq <= p.lastSeq {
		p.stale++
		n.mu.Unlock()
		return nil // duplicate or reordered-behind: already superseded
	}
	if !p.everHeard || f.Epoch > p.epoch {
		// First contact, or the peer rebooted: its sequence space restarted,
		// so everything remembered about the old incarnation — the echo of
		// our seq it last carried and all per-aggregate state — is void.
		// Without this reset a restarted peer's low post-boot seqs would be
		// dropped as "stale" until they re-exceeded the pre-restart value,
		// pinning the whole cluster in fallback for the old uptime.
		p.epoch = f.Epoch
		p.echoOfMe = 0
		for _, pa := range p.aggs {
			pa.observed, pa.applied, pa.grantToMe = 0, 0, 0
		}
	}
	p.everHeard = true
	p.lastSeq = f.Seq
	p.lastHeard = now
	p.reports++
	for _, e := range f.Echoes {
		// Only an echo of THIS boot's sequence space proves recency; an
		// echoed pre-restart seq would spuriously satisfy the fresh() check.
		if e.Peer == n.cfg.Self && e.Epoch == n.epoch && e.Seq > p.echoOfMe {
			p.echoOfMe = e.Seq
		}
	}
	for i := range f.Aggs {
		a := &f.Aggs[i]
		if n.shared[a.ID] == nil {
			continue // not shared here; a config-skew report is not an error
		}
		pa := p.aggs[a.ID]
		if pa == nil {
			pa = &peerAgg{}
			p.aggs[a.ID] = pa
		}
		pa.stamp = p.reports
		pa.observed, pa.applied, pa.grantToMe = a.Observed, a.Applied, 0
		for _, g := range a.Grants {
			if g.To == n.cfg.Self {
				pa.grantToMe += g.Bps
			}
		}
	}
	// A fresh report that omits an aggregate revokes any standing grant for
	// it: after config skew (e.g. a restart with a different shared set) the
	// grantor no longer holds anything back, so honoring the old grant would
	// over-admit — and the per-peer freshness check alone cannot catch it.
	for _, pa := range p.aggs {
		if pa.stamp != p.reports {
			pa.grantToMe = 0
		}
	}
	n.mu.Unlock()
	return nil
}

// Run starts the exchange loop on the window cadence until Close. The
// transport's receive path must already be wired to Deliver. The first
// tick runs synchronously before Run returns: a cold node must pull the
// engine down to its conservative share immediately, not after one full
// window during which the engine would still enforce whatever rate it was
// built with (up to N·r cluster-wide).
func (n *Node) Run() {
	n.tick(n.cfg.Clock())
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.cfg.Window)
		defer t.Stop()
		for {
			select {
			case <-n.done:
				return
			case <-t.C:
				n.tick(n.cfg.Clock())
			}
		}
	}()
}

// Close stops the exchange loop. Idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.done) })
	n.wg.Wait()
}
