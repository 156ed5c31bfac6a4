// Node: the per-process half of the cluster. One Node per bcpqp engine,
// configured with a static peer set; it runs the budget exchange on the
// paper's 250 ms window, tracks peer liveness, and drives the engine's
// in-band rate-update lane through the SharedAggregate.Apply callback —
// the cluster layer never touches the datapath directly.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bcpqp/internal/metrics"
	"bcpqp/internal/obs"
	"bcpqp/internal/rng"
	"bcpqp/internal/units"
)

// Transport delivers an encoded frame to a peer by node ID. Send may be
// called concurrently and must not retain the frame. A transport is dumb on
// purpose: retries, liveness and validation all live in the Node, so a UDP
// socket, a TCP dialer and an in-memory fault-injected bus are
// interchangeable.
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
	// Snapshot, when non-nil, serializes the aggregate's state for live
	// migration handoffs: a BQSN-framed engine snapshot
	// (Engine.Snapshot(id) then MarshalBinary), which the new owner loads
	// with UnmarshalBinary and Engine.Restore.
	Snapshot func() ([]byte, error)
}

// Config configures a Node.
type Config struct {
	// Self is this node's ID; Peers are the OTHER members (Self excluded,
	// though its presence is tolerated). The peer set is fixed for the
	// node's lifetime; ring changes are a restart plus Migrate.
	Self  string
	Peers []string

	// Window is the exchange period (default metrics.DefaultWindow, the
	// paper's 250 ms).
	Window time.Duration
	// SuspectAfter / DeadAfter are silence thresholds for the peer ladder
	// (defaults 3 and 10 windows).
	SuspectAfter time.Duration
	DeadAfter    time.Duration

	// Transport sends frames to peers. Required.
	Transport Transport
	// Clock supplies virtual time (default: monotonic since New). Tests
	// drive a fake clock for deterministic chaos runs.
	Clock func() time.Duration

	// Recorder receives KindPeerState / KindShareApply trace events
	// (e.g. the engine's obs.Collector). Optional.
	Recorder obs.Recorder
	// OnPeerState observes liveness transitions. Optional; called outside
	// the node lock.
	OnPeerState func(peer string, from, to PeerState)
	// OnTakeover consumes a migration handoff: the aggregate's snapshot
	// blob as produced by SharedAggregate.Snapshot on the old owner.
	// Optional; handoffs without a consumer are counted and dropped.
	OnTakeover func(aggID string, state []byte) error

	// RetryMax / RetryBase bound the jittered exponential backoff used
	// when Transport.Send fails (defaults 3 and 10 ms). At most one retry
	// loop runs per peer at a time; the tick cadence is the outer retry.
	RetryMax  int
	RetryBase time.Duration

	// Seed feeds retry jitter (deterministic per node).
	Seed uint64

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
	grants   []Grant      // wire scratch for this tick's outbound grants

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
	ring    *Ring    // over Self + Peers

	epoch uint64 // this boot's incarnation, carried in every frame

	mu         sync.Mutex
	seq        uint64 // report sequence, one per tick
	handoffSeq uint64 // separate space for handoff frames (never echoed)
	tickIdx    int    // seq % holdTicks, the hold-ring slot
	peers      map[string]*peer
	peerList   []*peer // sorted by ID
	shared     map[string]*shared
	sharedIDs  []string // sorted, for deterministic reports
	badFrames  int64    // undecodable or unattributable frames
	handoffs   int64    // takeover frames consumed
	jitter     *rng.Source
	started    time.Time

	// Scratch reused every tick so rebalancing allocates nothing.
	demand   []peerDemand
	echoes   []Echo
	aggRpts  []AggReport
	applyOps []applyOp
	transits []transition

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

type applyOp struct {
	fn       func(share units.Rate, fallback bool) error
	share    units.Rate
	fallback bool
}

type transition struct {
	peer     string
	index    int
	from, to PeerState
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
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3 * cfg.Window
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 10 * cfg.Window
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 10 * time.Millisecond
	}
	n := &Node{
		cfg:     cfg,
		epoch:   cfg.Epoch,
		peers:   make(map[string]*peer),
		shared:  make(map[string]*shared),
		jitter:  rng.New(cfg.Seed ^ hash64(cfg.Self)),
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
	n.ring = NewRing(append([]string{cfg.Self}, n.peerIDs...))
	for i, id := range n.peerIDs {
		p := &peer{id: id, index: i, state: PeerSuspect, aggs: make(map[string]*peerAgg)}
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
			grants:    make([]Grant, 0, len(n.peerIDs)),
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
	n.echoes = make([]Echo, 0, len(n.peerIDs))
	n.aggRpts = make([]AggReport, 0, len(n.sharedIDs))
	n.applyOps = make([]applyOp, 0, len(n.sharedIDs))
	n.transits = make([]transition, 0, len(n.peerIDs))
	return n, nil
}

// Ring returns the node's placement ring (Self + Peers).
func (n *Node) Ring() *Ring { return n.ring }

// Self returns this node's ID.
func (n *Node) Self() string { return n.cfg.Self }

// Owns reports whether this node owns key on the cluster ring.
func (n *Node) Owns(key string) bool { return n.ring.Owns(n.cfg.Self, key) }

// Tick runs one full exchange round at virtual time now: sample observed
// rates, rebalance shares, apply them, and broadcast this node's report.
// Run calls it on the window cadence; tests call it directly under a
// virtual clock.
func (n *Node) Tick(now time.Duration) {
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

// Rebalance advances the exchange one tick: classifies peers, recomputes
// every shared aggregate's share from the grant calculus, and applies
// changed shares through the Apply callbacks. It allocates nothing on the
// recompute path (BenchmarkClusterRebalance holds it to 0 allocs/op);
// callbacks and trace recording run after the lock is dropped.
func (n *Node) Rebalance(now time.Duration) {
	n.mu.Lock()
	n.seq++
	n.tickIdx = int(n.seq % holdTicks)
	mySeq := n.seq

	// Peer liveness ladder.
	n.transits = n.transits[:0]
	for _, p := range n.peerList {
		last := p.lastHeard
		if !p.everHeard {
			last = 0
		}
		next := classify(now-last, n.cfg.SuspectAfter, n.cfg.DeadAfter)
		if next != p.state {
			n.transits = append(n.transits, transition{peer: p.id, index: p.index, from: p.state, to: next})
			p.state = next
		}
	}

	// Per-aggregate share calculus.
	n.applyOps = n.applyOps[:0]
	for _, id := range n.sharedIDs {
		s := n.shared[id]
		allFresh := true
		var honoredIn, peerApplied units.Rate
		for k, p := range n.peerList {
			d := &n.demand[k]
			d.honored = p.fresh(now, n.cfg.Window, mySeq)
			if !d.honored {
				allFresh = false
			}
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
		fallback := !allFresh && len(n.peerList) > 0
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
				s.grants = append(s.grants, Grant{To: pid, Bps: g})
			}
		}
	}
	rec := n.cfg.Recorder
	n.mu.Unlock()

	for _, t := range n.transits {
		if rec != nil {
			rec.Record(obs.Event{Kind: obs.KindPeerState, Shard: -1, Agg: -1, Node: -1,
				VT: int64(now), A: int64(t.from), B: int64(t.to), C: int64(t.index)})
		}
		if n.cfg.OnPeerState != nil {
			n.cfg.OnPeerState(t.peer, t.from, t.to)
		}
	}
	for _, op := range n.applyOps {
		fb := int64(0)
		if op.fallback {
			fb = 1
		}
		if rec != nil {
			rec.Record(obs.Event{Kind: obs.KindShareApply, Shard: -1, Agg: -1, Node: -1,
				VT: int64(now), A: int64(op.share), B: fb})
		}
		// Apply errors are not fatal to the exchange: the engine keeps its
		// previous (never larger-sum) share and the next tick retries.
		_ = op.fn(op.share, op.fallback)
	}
}

// broadcast encodes this node's report and sends it to every peer, with a
// bounded jittered-exponential retry loop per peer on transport errors.
func (n *Node) broadcast(now time.Duration) {
	n.mu.Lock()
	n.echoes = n.echoes[:0]
	for _, p := range n.peerList {
		if p.everHeard {
			n.echoes = append(n.echoes, Echo{Peer: p.id, Epoch: p.epoch, Seq: p.lastSeq})
		}
	}
	n.aggRpts = n.aggRpts[:0]
	for _, id := range n.sharedIDs {
		s := n.shared[id]
		n.aggRpts = append(n.aggRpts, AggReport{
			ID: id, Observed: s.observed, Applied: s.applied, Grants: s.grants,
		})
	}
	frame := sealFrame(n.cfg.Key, EncodeReport(n.cfg.Self, n.epoch, n.seq, n.echoes, n.aggRpts))
	n.mu.Unlock()

	for _, id := range n.peerIDs {
		n.sendWithRetry(id, frame)
	}
}

// sendWithRetry sends one frame; on a transport error it starts (at most
// one per peer) a background retry loop with jittered exponential backoff.
// The next tick's report supersedes this frame anyway, so retries are a
// bounded best effort, not a delivery guarantee — the protocol tolerates
// loss by design.
func (n *Node) sendWithRetry(peerID string, frame []byte) {
	if n.cfg.Transport.Send(peerID, frame) == nil {
		return
	}
	n.mu.Lock()
	p := n.peers[peerID]
	if p == nil || p.retrying {
		n.mu.Unlock()
		return
	}
	p.retrying = true
	src := n.jitter.Split(hash64(peerID))
	n.mu.Unlock()

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer func() {
			n.mu.Lock()
			p.retrying = false
			n.mu.Unlock()
		}()
		backoff := n.cfg.RetryBase
		for attempt := 0; attempt < n.cfg.RetryMax; attempt++ {
			// Full jitter: sleep in [backoff/2, backoff).
			d := backoff/2 + time.Duration(src.Int64N(int64(backoff/2)+1))
			select {
			case <-n.done:
				return
			case <-time.After(d):
			}
			if n.cfg.Transport.Send(peerID, frame) == nil {
				return
			}
			backoff *= 2
		}
	}()
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
	f, err := DecodeFrame(body)
	if err != nil {
		n.mu.Lock()
		n.badFrames++
		n.mu.Unlock()
		return err
	}
	now := n.cfg.Clock()
	switch f.Type {
	case typeReport:
		return n.deliverReport(f, now)
	case typeHandoff:
		return n.deliverHandoff(f)
	}
	return nil // unreachable: DecodeFrame rejects unknown types
}

func (n *Node) deliverReport(f *Frame, now time.Duration) error {
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
	var tr *transition
	if p.state != PeerAlive {
		tr = &transition{peer: p.id, index: p.index, from: p.state, to: PeerAlive}
		p.state = PeerAlive
	}
	rec := n.cfg.Recorder
	n.mu.Unlock()

	if tr != nil {
		if rec != nil {
			rec.Record(obs.Event{Kind: obs.KindPeerState, Shard: -1, Agg: -1, Node: -1,
				VT: int64(now), A: int64(tr.from), B: int64(tr.to), C: int64(tr.index)})
		}
		if n.cfg.OnPeerState != nil {
			n.cfg.OnPeerState(tr.peer, tr.from, tr.to)
		}
	}
	return nil
}

func (n *Node) deliverHandoff(f *Frame) error {
	n.mu.Lock()
	known := n.peers[f.Sender] != nil
	if !known {
		n.badFrames++
	} else {
		n.handoffs++
	}
	n.mu.Unlock()
	if !known {
		return fmt.Errorf("cluster: handoff from unknown peer %q", f.Sender)
	}
	if n.cfg.OnTakeover == nil {
		return nil
	}
	return n.cfg.OnTakeover(f.AggID, f.State)
}

// Migrate compares a previous ring against the current one and hands off
// every aggregate in ids that moved away from this node: its state is
// serialized via snap and sent to the new owner in a handoff frame. Used
// after a peer-set change (restart with different -peers) to move
// enforcement state instead of re-admitting a full burst on the new owner.
func (n *Node) Migrate(prev *Ring, ids []string, snap func(id string) ([]byte, error)) (sent int, firstErr error) {
	for _, id := range ids {
		if prev != nil && prev.Owner(id) != n.cfg.Self {
			continue // was not ours to hand off
		}
		newOwner := n.ring.Owner(id)
		if newOwner == n.cfg.Self || newOwner == "" {
			continue // still ours
		}
		state, err := snap(id)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: snapshot %q: %w", id, err)
			}
			continue
		}
		// Handoff frames use their own sequence space: receivers never echo
		// them, and bumping the report seq here would make every peer's echo
		// look stale for echoSlack ticks (full fallback for a round trip)
		// whenever more than a couple of aggregates migrate at once.
		n.mu.Lock()
		n.handoffSeq++
		frame := sealFrame(n.cfg.Key, EncodeHandoff(n.cfg.Self, n.epoch, n.handoffSeq, id, state))
		n.mu.Unlock()
		n.sendWithRetry(newOwner, frame)
		sent++
	}
	return sent, firstErr
}

// Run starts the exchange loop on the window cadence until Close. The
// transport's receive path must already be wired to Deliver. The first
// tick runs synchronously before Run returns: a cold node must pull the
// engine down to its conservative share immediately, not after one full
// window during which the engine would still enforce whatever rate it was
// built with (up to N·r cluster-wide).
func (n *Node) Run() {
	n.Tick(n.cfg.Clock())
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
				n.Tick(n.cfg.Clock())
			}
		}
	}()
}

// Close stops the exchange loop and retry goroutines. Idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.done) })
	n.wg.Wait()
}

// Degraded reports whether any shared aggregate is currently enforcing its
// conservative fallback share because the exchange is impaired.
func (n *Node) Degraded() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range n.sharedIDs {
		if n.shared[id].fallback {
			return true
		}
	}
	return false
}
