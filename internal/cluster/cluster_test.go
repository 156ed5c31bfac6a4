package cluster

// Node-level exchange tests on a deterministic in-memory network: a
// virtual clock, synchronous delivery through faultinject.NetLink (so the
// chaos suite reuses the same harness with fault plans), and a fluid
// traffic model — each simulated node accepts min(demand, applied share)
// during every window, which is exactly the regime the share calculus
// reasons about.

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"bcpqp/internal/faultinject"
	"bcpqp/internal/units"
)

const (
	simWindow = 250 * time.Millisecond
	simRate   = units.Rate(90e6) // global bound r: 90 Mbit/s
	simAgg    = "tenant-1"
)

// simNode is one simulated cluster member: a Node plus the fluid traffic
// model feeding its Observed callback.
type simNode struct {
	node     *Node
	epoch    uint64     // boot incarnation, advanced by restart
	down     bool       // stopped by stop(); skipped by step until restart
	demand   units.Rate // offered load
	applied  units.Rate // share the exchange last applied
	fallback bool
	accepted float64 // cumulative accepted bytes (fluid)
}

// memTransport routes frames from one sender through per-direction
// NetLinks straight into the receivers' Deliver.
type memTransport struct {
	from string
	sim  *clusterSim
}

func (m *memTransport) Send(peer string, frame []byte) error {
	link := m.sim.links[m.from][peer]
	if link == nil {
		return fmt.Errorf("no link %s→%s", m.from, peer)
	}
	link.Send(m.sim.now, frame)
	return nil
}

// clusterSim is a virtual-time cluster of simNodes. Everything runs on the
// test goroutine: Send delivers synchronously (possibly through fault
// injectors), so runs are bit-for-bit reproducible per seed.
type clusterSim struct {
	t     *testing.T
	now   time.Duration
	ids   []string
	nodes map[string]*simNode
	links map[string]map[string]*faultinject.NetLink // sender → receiver
}

// newClusterSim builds n nodes named node-0..n-1 sharing one aggregate at
// simRate, every directional link wrapped in a NetLink with plan(sender,
// receiver).
func newClusterSim(t *testing.T, n int, plan func(from, to string) faultinject.NetPlan) *clusterSim {
	t.Helper()
	sim := &clusterSim{
		t:     t,
		nodes: make(map[string]*simNode),
		links: make(map[string]map[string]*faultinject.NetLink),
	}
	for i := 0; i < n; i++ {
		sim.ids = append(sim.ids, fmt.Sprintf("node-%d", i))
	}
	for _, id := range sim.ids {
		sn := &simNode{epoch: 1}
		sim.nodes[id] = sn
		sn.node = sim.makeNode(id, sn)
	}
	for _, from := range sim.ids {
		sim.links[from] = make(map[string]*faultinject.NetLink)
		for _, to := range sim.ids {
			if from == to {
				continue
			}
			to := to
			p := faultinject.NetPlan{}
			if plan != nil {
				p = plan(from, to)
			}
			// Look the receiver up at delivery time, not link-creation time,
			// so restart() can swap a node's incarnation under live links.
			sim.links[from][to] = faultinject.NewNetLink(func(f []byte) { sim.nodes[to].node.Deliver(f) }, p)
		}
	}
	t.Cleanup(func() {
		for _, sn := range sim.nodes {
			sn.node.Close()
		}
	})
	return sim
}

// makeNode builds one incarnation of a sim member at sn's current epoch.
func (s *clusterSim) makeNode(id string, sn *simNode) *Node {
	s.t.Helper()
	peers := make([]string, 0, len(s.ids)-1)
	for _, p := range s.ids {
		if p != id {
			peers = append(peers, p)
		}
	}
	node, err := New(Config{
		Self:      id,
		Peers:     peers,
		Window:    simWindow,
		Transport: &memTransport{from: id, sim: s},
		Clock:     func() time.Duration { return s.now },
		Epoch:     sn.epoch,
	}, []SharedAggregate{{
		ID:   simAgg,
		Rate: simRate,
		Observed: func() (int64, bool) {
			return int64(sn.accepted), true
		},
		Apply: func(share units.Rate, fallback bool) error {
			sn.applied, sn.fallback = share, fallback
			return nil
		},
	}})
	if err != nil {
		s.t.Fatal(err)
	}
	return node
}

// stop takes id down: its Node is closed and step stops ticking it, as if
// the process exited.
func (s *clusterSim) stop(id string) {
	s.nodes[id].down = true
	s.nodes[id].node.Close()
}

// restart brings id back as a fresh incarnation — sequence numbers back to
// zero under an advanced epoch. The engine-side byte counter (sn.accepted)
// survives, as the real engine's would across a cluster-layer restart.
func (s *clusterSim) restart(id string) {
	sn := s.nodes[id]
	if !sn.down {
		sn.node.Close()
	}
	sn.epoch++
	sn.node = s.makeNode(id, sn)
	sn.down = false
}

// step advances one window: accrue fluid traffic, advance virtual time
// (releasing delayed frames), and tick every node.
func (s *clusterSim) step() {
	for _, id := range s.ids {
		sn := s.nodes[id]
		rate := sn.demand
		if sn.applied < rate {
			rate = sn.applied
		}
		sn.accepted += float64(rate) / 8 * simWindow.Seconds()
	}
	s.now += simWindow
	for _, m := range s.links {
		for _, l := range m {
			l.Advance(s.now)
		}
	}
	for _, id := range s.ids {
		if sn := s.nodes[id]; !sn.down {
			sn.node.tick(s.now)
		}
	}
}

// appliedSum returns Σ applied across the cluster.
func (s *clusterSim) appliedSum() units.Rate {
	var sum units.Rate
	for _, id := range s.ids {
		sum += s.nodes[id].applied
	}
	return sum
}

// assertInvariant fails the test if the cluster-wide share sum exceeds the
// global bound (tiny float epsilon only).
func (s *clusterSim) assertInvariant() {
	s.t.Helper()
	if sum := s.appliedSum(); float64(sum) > float64(simRate)*(1+1e-9) {
		s.t.Fatalf("t=%v: Σ applied = %.0f exceeds r = %.0f", s.now, float64(sum), float64(simRate))
	}
}

// cutAll opens one-way partitions for every link touching id in the given
// directions.
func (s *clusterSim) cutAll(id string, outbound, inbound bool) {
	for _, other := range s.ids {
		if other == id {
			continue
		}
		if outbound {
			s.links[id][other].Cut()
		}
		if inbound {
			s.links[other][id].Cut()
		}
	}
}

func (s *clusterSim) healAll(id string) {
	for _, other := range s.ids {
		if other == id {
			continue
		}
		s.links[id][other].Heal()
		s.links[other][id].Heal()
	}
}

// TestClusterConvergence: on a clean network, surplus nodes cede budget to
// the loaded node within a few windows, the loaded node's share rises well
// above the static floor, and the sum never exceeds r.
func TestClusterConvergence(t *testing.T) {
	sim := newClusterSim(t, 3, nil)
	floor := simRate / 3
	sim.nodes["node-0"].demand = 80e6 // hot node; the others are idle
	for i := 0; i < 40; i++ {
		sim.step()
		sim.assertInvariant()
	}
	hot := sim.nodes["node-0"]
	if hot.fallback {
		t.Fatal("hot node still in fallback on a clean network")
	}
	if hot.applied < floor*2 {
		t.Fatalf("hot node share %.0f never grew past 2×floor (floor %.0f)", float64(hot.applied), float64(floor))
	}
	// The hot node's demand is satisfiable: 80 Mbit/s < r.
	if hot.applied < hot.demand*95/100 {
		t.Fatalf("hot node share %.0f does not cover demand %.0f", float64(hot.applied), float64(hot.demand))
	}
	for _, id := range []string{"node-1", "node-2"} {
		if sn := sim.nodes[id]; sn.applied > floor {
			t.Fatalf("%s idle but share %.0f exceeds floor %.0f", id, float64(sn.applied), float64(floor))
		}
	}
}

// TestClusterFallbackWithinOneWindow: after a full partition of the hot
// node, every surviving node stops honoring its grants within one window
// of the first missed exchange (≤ 2 ticks), lands back at ≤ floor, and
// reports fallback. On heal the exchange re-establishes.
func TestClusterFallbackWithinOneWindow(t *testing.T) {
	sim := newClusterSim(t, 3, nil)
	floor := simRate / 3
	sim.nodes["node-0"].demand = 80e6
	for i := 0; i < 20; i++ {
		sim.step()
		sim.assertInvariant()
	}
	if sim.nodes["node-0"].applied <= floor {
		t.Fatal("setup: grants never flowed")
	}

	sim.cutAll("node-0", true, true)
	// Tick 1 after the cut: node-0's last report is one window old — still
	// within freshFor. Tick 2: stale everywhere. That is one window after
	// the first missed exchange, the ISSUE's bound.
	for i := 0; i < 2; i++ {
		sim.step()
		sim.assertInvariant()
	}
	hot := sim.nodes["node-0"]
	if !hot.fallback {
		t.Fatal("partitioned node not in fallback after 2 ticks")
	}
	if hot.applied > floor*(1+1e-9) {
		t.Fatalf("partitioned node still enforcing %.0f > floor %.0f", float64(hot.applied), float64(floor))
	}
	for _, id := range []string{"node-1", "node-2"} {
		sn := sim.nodes[id]
		if !sn.fallback {
			t.Fatalf("%s not in fallback though node-0 is silent", id)
		}
	}
	// Survivors must keep the sum bounded through the hold window drain.
	for i := 0; i < holdTicks+2; i++ {
		sim.step()
		sim.assertInvariant()
	}

	sim.healAll("node-0")
	for i := 0; i < 10; i++ {
		sim.step()
		sim.assertInvariant()
	}
	if sim.nodes["node-0"].fallback {
		t.Fatal("exchange did not re-establish after heal")
	}
	if sim.nodes["node-0"].applied <= floor {
		t.Fatal("grants did not resume after heal")
	}
}

// TestClusterSilentPeerDegradeLadder: a peer that stops ticking walks
// alive → suspect → dead after 3 and 10 silent windows, and its state is
// visible in Status.
func TestClusterSilentPeerDegradeLadder(t *testing.T) {
	sim := newClusterSim(t, 2, nil)
	for i := 0; i < 3; i++ {
		sim.step()
	}
	st := sim.nodes["node-0"].node.Status()
	if st.Peers[0].State != PeerAlive {
		t.Fatalf("peer state %v after clean exchange, want alive", st.Peers[0].State)
	}

	// Silence node-1: it stops ticking (no reports) but node-0 keeps going.
	silent := 0
	for i := 0; i < 12; i++ {
		for _, id := range sim.ids {
			sn := sim.nodes[id]
			rate := sn.demand
			if sn.applied < rate {
				rate = sn.applied
			}
			sn.accepted += float64(rate) / 8 * simWindow.Seconds()
		}
		sim.now += simWindow
		sim.nodes["node-0"].node.tick(sim.now)
		silent++
		st = sim.nodes["node-0"].node.Status()
		state := st.Peers[0].State
		age := time.Duration(silent) * simWindow
		want := classify(age, simWindow)
		if state != want {
			t.Fatalf("after %d silent windows: state %v, want %v", silent, state, want)
		}
	}
	if st.Peers[0].State != PeerDead {
		t.Fatalf("peer never reached dead: %v", st.Peers[0].State)
	}
	if !st.Degraded {
		t.Fatal("node not degraded with a dead peer")
	}

	// Resurrection: one tick from the silent peer revives it.
	sim.nodes["node-1"].node.tick(sim.now)
	st = sim.nodes["node-0"].node.Status()
	if st.Peers[0].State != PeerAlive {
		t.Fatalf("peer not resurrected by a valid report: %v", st.Peers[0].State)
	}
}

// TestClusterStaleAndCorruptFrames: duplicates are dropped by sequence
// number, corrupted frames and a known peer's handoff frame from the
// earlier two-type wire are counted and ignored, and none disturbs the
// shares or the share invariant.
func TestClusterStaleAndCorruptFrames(t *testing.T) {
	sim := newClusterSim(t, 2, nil)
	for i := 0; i < 5; i++ {
		sim.step()
		sim.assertInvariant()
	}
	n0 := sim.nodes["node-0"].node

	// Replay node-1's current report twice by hand.
	frame := encodeReport("node-1", 1, 3, nil, nil) // seq 3 < current (5): stale
	if err := n0.Deliver(frame); err != nil {
		t.Fatalf("stale frame returned delivery error: %v", err)
	}
	st := n0.Status()
	if st.Peers[0].Stale == 0 {
		t.Fatal("stale replay not counted")
	}

	// A frame from a PREVIOUS incarnation is stale no matter how high its
	// seq: epoch 0 predates node-1's current boot (epoch 1).
	staleBefore := st.Peers[0].Stale
	if err := n0.Deliver(encodeReport("node-1", 0, 999, nil, nil)); err != nil {
		t.Fatalf("old-incarnation frame returned delivery error: %v", err)
	}
	st = n0.Status()
	if st.Peers[0].Stale != staleBefore+1 {
		t.Fatal("old-incarnation replay not dropped as stale")
	}
	if st.Peers[0].LastSeq == 999 {
		t.Fatal("old-incarnation seq 999 overwrote the live sequence")
	}

	if err := n0.Deliver([]byte("garbage-not-a-frame")); err == nil {
		t.Fatal("garbage frame accepted")
	}
	if err := n0.Deliver(encodeReport("node-9", 1, 99, nil, nil)); err == nil {
		t.Fatal("unknown-sender frame accepted")
	}
	st = n0.Status()
	if st.BadFrames != 2 {
		t.Fatalf("BadFrames = %d, want 2", st.BadFrames)
	}

	if err := n0.Deliver(handoffFrame("node-1")); !errors.Is(err, errBadFrame) {
		t.Fatalf("handoff frame: Deliver error %v, want ErrBadFrame", err)
	}
	after := n0.Status()
	if after.BadFrames != 3 {
		t.Fatalf("BadFrames = %d after the handoff frame, want 3", after.BadFrames)
	}
	after.BadFrames = st.BadFrames
	if !reflect.DeepEqual(after, st) {
		t.Fatalf("handoff frame changed the node:\nbefore %+v\nafter  %+v", st, after)
	}
	for i := 0; i < 5; i++ {
		sim.step()
		sim.assertInvariant()
	}
}

// transportFunc adapts a function to the Transport interface.
type transportFunc func(peer string, frame []byte) error

func (f transportFunc) Send(peer string, frame []byte) error { return f(peer, frame) }

// TestClusterSendRetryBackoff: a failed send is not retried out of band.
// Under the fake clock a transport that fails gets exactly one send per peer
// per Tick, the next Tick being the retry, and the first Tick after it heals
// delivers; a transport that never heals costs one send per Tick and no
// more. Nothing runs between Ticks, so Close has nothing to wait for.
func TestClusterSendRetryBackoff(t *testing.T) {
	const ticks = 6
	for _, tc := range []struct {
		name  string
		fails int // sends that fail before the transport heals; -1 never
	}{
		{"transient", 2},
		{"dead", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var now time.Duration
			clock := func() time.Duration { return now }
			b, err := New(Config{Self: "b", Peers: []string{"a"}, Clock: clock,
				Transport: transportFunc(func(string, []byte) error { return nil })}, nil)
			if err != nil {
				t.Fatal(err)
			}
			sends := 0
			tr := transportFunc(func(peer string, frame []byte) error {
				if sends++; tc.fails < 0 || sends <= tc.fails {
					return errors.New("send failed")
				}
				return b.Deliver(frame)
			})
			a, err := New(Config{Self: "a", Peers: []string{"b"}, Transport: tr, Clock: clock}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for tick := 1; tick <= ticks; tick++ {
				now += a.cfg.Window
				a.tick(now)
				want := 0
				if tc.fails >= 0 {
					want = max(tick-tc.fails, 0)
				}
				if heard := b.Status().Peers[0].Reports; sends != tick || heard != int64(want) {
					t.Fatalf("after tick %d: %d sends and %d reports delivered, want %d and %d",
						tick, sends, heard, tick, want)
				}
			}
			a.Close()
			b.Close()
		})
	}
}

// TestClusterMetricsFamilies: the exported families carry per-peer and
// per-aggregate samples with the expected names.
func TestClusterMetricsFamilies(t *testing.T) {
	sim := newClusterSim(t, 3, nil)
	for i := 0; i < 5; i++ {
		sim.step()
	}
	fams := sim.nodes["node-0"].node.MetricFamilies()
	byName := map[string]int{}
	for _, f := range fams {
		byName[f.Name] = len(f.Samples)
	}
	for name, want := range map[string]int{
		"bcpqp_peer_state":                     2,
		"bcpqp_peer_last_exchange_age_seconds": 2,
		"bcpqp_peer_reports_total":             2,
		"bcpqp_cluster_share_bps":              1,
		"bcpqp_cluster_fallback":               1,
		"bcpqp_cluster_bad_frames_total":       1,
	} {
		if byName[name] != want {
			t.Fatalf("family %s has %d samples, want %d (families: %v)", name, byName[name], want, byName)
		}
	}
	if _, ok := byName["bcpqp_cluster_handoffs_total"]; ok {
		t.Fatal("bcpqp_cluster_handoffs_total is still exported: there are no handoffs")
	}
}

// TestClusterConfigValidation: the constructor rejects unusable configs.
func TestClusterConfigValidation(t *testing.T) {
	tr := transportFunc(func(string, []byte) error { return nil })
	if _, err := New(Config{Transport: tr}, nil); err == nil {
		t.Fatal("missing Self accepted")
	}
	if _, err := New(Config{Self: "a"}, nil); err == nil {
		t.Fatal("missing Transport accepted")
	}
	if _, err := New(Config{Self: "a", Transport: tr},
		[]SharedAggregate{{ID: "x"}}); err == nil {
		t.Fatal("shared aggregate without callbacks accepted")
	}
	if _, err := New(Config{Self: "a", Transport: tr},
		[]SharedAggregate{{ID: "x",
			Observed: func() (int64, bool) { return 0, true },
			Apply:    func(units.Rate, bool) error { return nil }}}); err == nil {
		t.Fatal("shared aggregate without a positive rate accepted")
	}
}

// TestClusterPeerRestartResync: a restarted peer (sequence numbers back to
// zero under a fresh boot epoch) is re-accepted by the cluster within a
// round trip. Without the epoch in the wire protocol its post-restart
// reports would all fail the seq-monotonic stale check until the new seq
// re-exceeded the pre-restart value — pinning every node at its r/N floor
// for roughly the peer's previous uptime.
func TestClusterPeerRestartResync(t *testing.T) {
	sim := newClusterSim(t, 3, nil)
	floor := simRate / 3
	sim.nodes["node-0"].demand = 80e6
	for i := 0; i < 30; i++ { // node-1's seq climbs to ~30
		sim.step()
		sim.assertInvariant()
	}
	if sim.nodes["node-0"].applied <= floor {
		t.Fatal("setup: grants never flowed")
	}

	// node-1 crashes; its grants age out on the freshness horizon and the
	// cluster degrades to floors.
	sim.stop("node-1")
	for i := 0; i < 3; i++ {
		sim.step()
		sim.assertInvariant()
	}
	if !sim.nodes["node-0"].fallback {
		t.Fatal("setup: cluster not degraded while node-1 is down")
	}

	// node-1 comes back: epoch 2, seq restarting at 1.
	sim.restart("node-1")
	for i := 0; i < 4; i++ {
		sim.step()
		sim.assertInvariant()
	}
	st := sim.nodes["node-0"].node.Status()
	for _, p := range st.Peers {
		if p.ID != "node-1" {
			continue
		}
		if p.State != PeerAlive {
			t.Fatalf("restarted peer is %v on node-0, want alive", p.State)
		}
		if p.Epoch != 2 {
			t.Fatalf("node-0 tracks node-1 epoch %d, want 2", p.Epoch)
		}
		if p.LastSeq >= 30 {
			t.Fatalf("node-0 still holds pre-restart seq %d for node-1", p.LastSeq)
		}
	}
	for _, id := range sim.ids {
		if sim.nodes[id].fallback {
			t.Fatalf("%s still in fallback 4 windows after node-1 restarted", id)
		}
	}
	// And the grant flow re-establishes, not just liveness.
	for i := 0; i < 20; i++ {
		sim.step()
		sim.assertInvariant()
	}
	if sim.nodes["node-0"].applied <= floor {
		t.Fatal("grants never resumed after peer restart")
	}
}

// TestClusterOmittedAggregateRevokesGrant: a fresh report that no longer
// carries an aggregate revokes any standing grant for it. Otherwise config
// skew (a peer restarted with a different shared set) leaves the grantee
// honoring a grant the grantor no longer holds back — over-admission the
// per-peer freshness check cannot see.
func TestClusterOmittedAggregateRevokesGrant(t *testing.T) {
	var now time.Duration
	var mu sync.Mutex
	var applied units.Rate
	a, err := New(Config{
		Self: "a", Peers: []string{"b"}, Window: simWindow,
		Transport: transportFunc(func(string, []byte) error { return nil }),
		Clock:     func() time.Duration { return now },
		Epoch:     7,
	}, []SharedAggregate{{
		ID: simAgg, Rate: simRate,
		Observed: func() (int64, bool) { return 0, true },
		Apply: func(s units.Rate, fb bool) error {
			mu.Lock()
			applied = s
			mu.Unlock()
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	floor := simRate / 2
	got := func() units.Rate {
		mu.Lock()
		defer mu.Unlock()
		return applied
	}
	deliver := func(seq uint64, aggs []aggReport) {
		echo := []echo{{Peer: "a", Epoch: 7, Seq: a.Status().Seq}}
		if err := a.Deliver(encodeReport("b", 5, seq, echo, aggs)); err != nil {
			t.Fatal(err)
		}
	}

	a.tick(now) // seq 1
	deliver(1, []aggReport{{ID: simAgg, Grants: []grant{{To: "a", Bps: 10e6}}}})
	now += simWindow
	a.tick(now)
	if want := floor + 10e6; got() != want {
		t.Fatalf("granted share %.0f, want %.0f", float64(got()), float64(want))
	}

	// b's next report is fresh and echo-valid but omits the aggregate.
	deliver(2, nil)
	now += simWindow
	a.tick(now)
	if got() > floor {
		t.Fatalf("share %.0f still honors the revoked grant (floor %.0f)", float64(got()), float64(floor))
	}
}

// TestClusterRunAppliesInitialShare: Run's first tick is synchronous, so a
// library user gets the conservative floor applied before Run returns — not
// after one full window during which the engine would keep enforcing the
// full configured rate (transient N·r over-admission).
func TestClusterRunAppliesInitialShare(t *testing.T) {
	var mu sync.Mutex
	var applied units.Rate
	var fallback bool
	calls := 0
	n, err := New(Config{
		Self: "a", Peers: []string{"b"},
		Transport: transportFunc(func(string, []byte) error { return nil }),
		Clock:     func() time.Duration { return 0 },
	}, []SharedAggregate{{
		ID: simAgg, Rate: simRate,
		Observed: func() (int64, bool) { return 0, true },
		Apply: func(s units.Rate, fb bool) error {
			mu.Lock()
			applied, fallback, calls = s, fb, calls+1
			mu.Unlock()
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	mu.Lock()
	if calls == 0 {
		t.Fatal("Run returned without applying an initial share")
	}
	if applied != simRate/2 {
		t.Fatalf("initial share %.0f, want the floor %.0f", float64(applied), float64(simRate/2))
	}
	if !fallback {
		t.Fatal("initial share not marked fallback with unheard peers")
	}
	mu.Unlock()
	n.Close()
}
