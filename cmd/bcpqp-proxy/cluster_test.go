package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bcpqp"
	"bcpqp/internal/netio"
)

// freeUDPPort reserves an OS-assigned UDP port and releases it for the
// caller to bind. The tiny close-and-rebind race is the standard trade for
// needing the address BEFORE the component that binds it exists (both ends
// of the exchange must know each other's port up front).
func freeUDPPort(t *testing.T) string {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := c.LocalAddr().String()
	c.Close()
	return addr
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("b=10.0.0.2:7400, c=10.0.0.3:7400,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers["b"] != "10.0.0.2:7400" || peers["c"] != "10.0.0.3:7400" {
		t.Fatalf("parsed %v", peers)
	}
	for _, bad := range []string{"nocolonhere", "=addr", "id=", "b=x,b=y"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
	if peers, err := parsePeers(""); err != nil || len(peers) != 0 {
		t.Errorf("empty spec: %v, %v", peers, err)
	}
}

// TestSnapshotBlobRestoresEnforcement: the blob SIGHUP writes is a
// BQSN-framed engine snapshot. An engine hosting the same plan loads it with
// UnmarshalBinary and Restore, and then enforces exactly as the one that
// wrote it: the same bursts leave both with the same Stats.
func TestSnapshotBlobRestoresEnforcement(t *testing.T) {
	var now atomic.Int64 // both engines' clock, set before every burst
	start := func() *bcpqp.Middlebox {
		mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{
			Shards: 1,
			Clock:  func() time.Duration { return time.Duration(now.Load()) },
		})
		t.Cleanup(func() { mb.Close() })
		enf, err := buildEnforcer("bc-pqp", 8*bcpqp.Mbps, 16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mb.Add(proxyAggregate, enf, nil); err != nil {
			t.Fatal(err)
		}
		return mb
	}
	var pkts [32]bcpqp.Packet
	for i := range pkts {
		pkts[i] = bcpqp.Packet{Key: bcpqp.FlowKey{SrcIP: uint32(i % 4), Proto: 17}, Size: bcpqp.MSS}
	}
	// feed offers one 32-packet burst per millisecond, far past the 8 Mbps
	// plan, so the enforcer both admits and drops.
	feed := func(mb *bcpqp.Middlebox, from, to int) bcpqp.Stats {
		h, err := mb.Lookup(proxyAggregate)
		if err != nil {
			t.Fatal(err)
		}
		for i := from; i < to; i++ {
			now.Store(int64(i) * int64(time.Millisecond))
			if err := mb.SubmitBatch(h, pkts[:]); err != nil {
				t.Fatal(err)
			}
		}
		st, err := mb.Stats(proxyAggregate)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	sender := start()
	feed(sender, 0, 200)
	blob, err := snapshotBlob(sender)
	if err != nil {
		t.Fatal(err)
	}
	var snap bcpqp.MiddleboxSnapshot
	if err := snap.UnmarshalBinary(blob); err != nil {
		t.Fatalf("snapshot blob is not a BQSN snapshot: %v", err)
	}
	receiver := start()
	if err := receiver.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	sent, received := feed(sender, 200, 400), feed(receiver, 200, 400)
	if sent != received {
		t.Errorf("after the restore the same bursts left the sender at %+v, the receiver at %+v", sent, received)
	}
	if sent.AcceptedPackets == 0 || sent.DroppedPackets == 0 {
		t.Errorf("workload too tame to compare: %+v", sent)
	}
}

// TestClusterProxyEndToEnd: a full proxy in cluster mode (serve, engine,
// admin endpoints, UDP exchange transport) peered over loopback with a
// facade-level cluster node, on one core and on two. The proxy must start
// degraded on its conservative share — r/N, split evenly over its cores —
// report that on /healthz with a 200 (degraded, not down), establish the
// exchange once the peer speaks, take the idle peer's grant (again split
// evenly over its cores), show the peer honored on /cluster and the cluster
// metric families on /metrics, and still drain to exit 0 on SIGTERM.
func TestClusterProxyEndToEnd(t *testing.T) {
	for _, cores := range []int{1, 2} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			if cores > 1 && !netio.SupportsBatch() {
				t.Skip("several cores need SO_REUSEPORT")
			}
			clusterProxyEndToEnd(t, cores)
		})
	}
}

func clusterProxyEndToEnd(t *testing.T, cores int) {
	const rate = 8 * bcpqp.Mbps
	forward, _ := startSink(t, nil)
	addrA, addrB := freeUDPPort(t), freeUDPPort(t)
	p := startServe(t, proxyOpts{
		forward: forward, cores: cores, scheme: "bc-pqp", rate: rate, admin: adminListener(t),
		cluster: clusterOpts{
			nodeID: "a",
			peers:  map[string]string{"b": addrB},
			listen: addrA,
			shared: true,
			key:    "proxy-e2e-secret",
		},
	})
	get := func(path string) (int, []byte) {
		t.Helper()
		status, body := p.get(t, path)
		return status, []byte(body)
	}
	// coreRates reads the rate each core enforces off its armed audit
	// envelope, which every ApplyShare rebases.
	coreRates := func() []float64 {
		t.Helper()
		var audit struct {
			Audits []struct {
				Aggregate   string  `json:"aggregate"`
				EnvelopeBps float64 `json:"envelope_bps"`
			} `json:"audits"`
		}
		_, body := get("/debug/audit")
		if err := json.Unmarshal(body, &audit); err != nil {
			t.Fatalf("/debug/audit body: %v", err)
		}
		rates := make([]float64, cores)
		for i := range rates {
			for _, a := range audit.Audits {
				if a.Aggregate == coreAggregate(i, cores) {
					rates[i] = a.EnvelopeBps
				}
			}
		}
		return rates
	}
	// splits reports whether every core enforces share/cores (to the bit
	// per second the envelope is kept in).
	splits := func(share float64) bool {
		for _, r := range coreRates() {
			if math.Abs(r-share/float64(cores)) > 1 {
				return false
			}
		}
		return true
	}

	// Alone, the proxy must be on its conservative fallback share: healthy
	// (200) but degraded, with the peer not yet heard.
	var hz struct {
		Healthy  bool `json:"healthy"`
		Degraded bool `json:"degraded"`
	}
	status, body := get("/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz = %d before peer: %s", status, body)
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz body: %v", err)
	}
	if !hz.Healthy || !hz.Degraded {
		t.Fatalf("/healthz before peer: %+v (want healthy AND degraded)", hz)
	}
	var cl struct {
		Self     string `json:"self"`
		Degraded bool   `json:"degraded"`
		Peers    []struct {
			ID      string `json:"id"`
			Honored bool   `json:"honored"`
		} `json:"peers"`
		Shared []struct {
			ID         string  `json:"id"`
			FloorBps   float64 `json:"floor_bps"`
			AppliedBps float64 `json:"applied_bps"`
			Fallback   bool    `json:"fallback"`
		} `json:"shared"`
	}
	_, body = get("/cluster")
	if err := json.Unmarshal(body, &cl); err != nil {
		t.Fatalf("/cluster body: %v\n%s", err, body)
	}
	if cl.Self != "a" || len(cl.Peers) != 1 || cl.Peers[0].ID != "b" || len(cl.Shared) != 1 {
		t.Fatalf("/cluster: %s", body)
	}
	if !cl.Shared[0].Fallback || cl.Shared[0].ID != proxyAggregate {
		t.Fatalf("/cluster shared before peer: %s", body)
	}
	if floor := float64(rate) / 2; !splits(floor) {
		t.Fatalf("before the peer speaks the cores enforce %v bps, want the r/N floor %v split %d ways",
			coreRates(), floor, cores)
	}

	// Bring up peer b (idle: observed 0, surplus to grant).
	trB, err := bcpqp.NewClusterTransport(addrB, map[string]string{"a": addrA})
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	var bShare atomic.Int64
	nodeB, err := bcpqp.NewClusterNode(bcpqp.ClusterConfig{
		Self: "b", Peers: []string{"a"}, Transport: trB,
		Key: []byte("proxy-e2e-secret"),
	}, []bcpqp.SharedAggregate{{
		ID:       proxyAggregate,
		Rate:     bcpqp.Rate(8) * bcpqp.Mbps,
		Observed: func() (int64, bool) { return 0, true },
		Apply: func(r bcpqp.Rate, fb bool) error {
			bShare.Store(int64(r))
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	trB.Start(nodeB.Deliver)
	nodeB.Run()

	// Demand at a, so idle b has someone to grant its headroom to — from
	// sixteen sources, because a's demand is what its cores accept and the
	// kernel's source hash must not leave one of them idle.
	stopSend := make(chan struct{})
	defer close(stopSend)
	for s := 0; s < 16; s++ {
		conn := p.dial(t)
		go func() {
			payload := make([]byte, 1200)
			for tick := time.NewTicker(2 * time.Millisecond); ; {
				select {
				case <-stopSend:
					tick.Stop()
					return
				case <-tick.C:
					conn.Write(payload)
				}
			}
		}()
	}

	// The exchange establishes within a few 250 ms windows, and a's share
	// then grows past its floor by what b grants.
	deadline := time.Now().Add(8 * time.Second)
	for {
		_, body = get("/cluster")
		if err := json.Unmarshal(body, &cl); err != nil {
			t.Fatalf("/cluster body: %v", err)
		}
		if !cl.Degraded && cl.Peers[0].Honored && cl.Shared[0].AppliedBps > cl.Shared[0].FloorBps {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("exchange never established a grant: %s", body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	waitFor(t, "the granted share split over the cores", func() bool {
		_, body = get("/cluster")
		if err := json.Unmarshal(body, &cl); err != nil {
			t.Fatalf("/cluster body: %v", err)
		}
		return splits(cl.Shared[0].AppliedBps)
	})
	status, body = get("/healthz")
	if err := json.Unmarshal(body, &hz); err != nil || status != http.StatusOK {
		t.Fatalf("/healthz after peer: %d %v", status, err)
	}
	if !hz.Healthy || hz.Degraded {
		t.Fatalf("/healthz after peer: %+v (want healthy, not degraded)", hz)
	}

	// The engine /metrics exposition now carries the cluster families.
	_, body = get("/metrics")
	for _, fam := range []string{"bcpqp_peer_honored", "bcpqp_cluster_share_bps", "bcpqp_cluster_fallback"} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}

	p.stop(t, syscall.SIGTERM)
}
