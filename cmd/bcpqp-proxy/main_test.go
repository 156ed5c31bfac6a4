package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bcpqp"
	"bcpqp/internal/netio"
	"bcpqp/internal/tbf"
)

// TestBuildEnforcer builds every bufferless scheme and pins how much each
// may buffer: policer+ and fairpolicer get the paper's §6.1 bucket
// (tbf.PlusBucket, as the simulator sizes them), which policer's one-BDP
// bucket is not, and every scheme's audit envelope is at least twice what
// the enforcer admits in one instant, so a correct enforcer cannot trip it.
func TestBuildEnforcer(t *testing.T) {
	const rate, queues = 5 * bcpqp.Mbps, 8
	built := map[string]bcpqp.Enforcer{}
	for _, name := range []string{"policer", "policer+", "fairpolicer", "pqp", "bc-pqp"} {
		enf, err := buildEnforcer(name, rate, queues)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if enf == nil {
			t.Errorf("%s: nil enforcer", name)
			continue
		}
		built[name] = enf
	}
	if _, err := buildEnforcer("shaper", rate, queues); err == nil {
		t.Error("buffering scheme accepted for a bufferless relay")
	}
	if _, err := buildEnforcer("nope", rate, queues); err == nil {
		t.Error("unknown scheme accepted")
	}

	plus := tbf.PlusBucket(rate, maxRTT)
	policer, _ := built["policer"].(*bcpqp.Policer)
	policerPlus, _ := built["policer+"].(*bcpqp.Policer)
	fair, _ := built["fairpolicer"].(*bcpqp.FairPolicer)
	if policer == nil || policerPlus == nil || fair == nil {
		t.Fatalf("policer family built as %T, %T, %T", built["policer"], built["policer+"], built["fairpolicer"])
	}
	if got := policerPlus.Bucket(); got != plus {
		t.Errorf("policer+ bucket = %d bytes, want tbf.PlusBucket = %d", got, plus)
	}
	if policerPlus.Bucket() == policer.Bucket() {
		t.Errorf("policer+ and policer share a %d-byte bucket", policer.Bucket())
	}
	if got := fair.MainTokens(); got != float64(plus) {
		t.Errorf("fairpolicer bucket = %v bytes, want tbf.PlusBucket = %d", got, plus)
	}

	// What each enforcer admits at one instant — its bucket, or its phantom
	// queues' capacity: MSS packets round-robin over the classes until every
	// class has dropped in a row.
	for name, enf := range built {
		var admitted int64
		for i, drops := 0, 0; drops < 2*queues; i++ {
			if i == 100_000 {
				t.Fatalf("%s: still admitting after %d packets at one instant", name, i)
			}
			if enf.Submit(0, bcpqp.Packet{Size: bcpqp.MSS, Class: i % queues}) == bcpqp.Drop {
				drops++
				continue
			}
			drops = 0
			admitted += bcpqp.MSS
		}
		if burst := auditEnvelope(name, rate, queues); burst < 2*admitted {
			t.Errorf("%s: audit envelope burst %d bytes < 2 × the %d bytes it admits at once", name, burst, admitted)
		}
	}
}

// TestSelfTestLoopback runs the full live datapath (sink, proxy, two
// senders) over loopback for a short real-time window.
func TestSelfTestLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time loopback test")
	}
	if err := runSelfTest(5*bcpqp.Mbps, "bc-pqp", 8, 1500*time.Millisecond); err != nil {
		t.Fatalf("selftest: %v", err)
	}
}

// TestTransientNetErrClassification pins which socket errors the relay
// treats as survivable (drop and count) versus fatal (exit).
func TestTransientNetErrClassification(t *testing.T) {
	transient := []error{
		syscall.ECONNREFUSED,
		syscall.ENETUNREACH,
		syscall.EHOSTUNREACH,
		syscall.ENOBUFS,
		syscall.EAGAIN,
		fmt.Errorf("write udp: %w", syscall.ECONNREFUSED), // wrapped, as net.OpError yields
		&net.OpError{Op: "write", Err: timeoutErr{}},
	}
	for _, err := range transient {
		if !transientNetErr(err) {
			t.Errorf("transientNetErr(%v) = false, want true", err)
		}
	}
	fatal := []error{
		nil,
		syscall.EBADF,
		syscall.EINVAL,
		errors.New("use of closed network connection"),
	}
	for _, err := range fatal {
		if transientNetErr(err) {
			t.Errorf("transientNetErr(%v) = true, want false", err)
		}
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// backends are the netio backends a datapath test runs on: the batched one
// where the platform has it, and the portable fallback everywhere.
func backends() map[string]bool {
	b := map[string]bool{"fallback": true}
	if netio.SupportsBatch() {
		b["batched"] = false
	}
	return b
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// startSink binds a loopback UDP socket that counts the bytes it receives
// and hands each datagram to got when that is non-nil.
func startSink(t *testing.T, got func([]byte)) (addr string, sunk *atomic.Int64) {
	t.Helper()
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	sunk = new(atomic.Int64)
	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := sink.ReadFrom(buf)
			if err != nil {
				return
			}
			if got != nil {
				got(buf[:n])
			}
			sunk.Add(int64(n))
		}
	}()
	return sink.LocalAddr().String(), sunk
}

// closedPort reserves a loopback UDP port and releases it, so nothing
// listens there.
func closedPort(t *testing.T) string {
	t.Helper()
	hole, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	return hole.LocalAddr().String()
}

// proxyRun is a serve under test.
type proxyRun struct {
	addr string // the bound listen address
	base string // the admin endpoints' URL, when opts.admin was set
	sig  chan os.Signal
	code chan int
}

// startServe launches serve on a loopback port of the kernel's choosing with
// a test-fed signal channel and waits until every core is up. Unset fields
// of opts default to one core enforcing 50 Mbps of bc-pqp.
func startServe(t *testing.T, opts proxyOpts) *proxyRun {
	t.Helper()
	if opts.cores == 0 {
		opts.cores = 1
	}
	if opts.scheme == "" && opts.treePath == "" {
		opts.scheme, opts.rate = "bc-pqp", 50*bcpqp.Mbps
	}
	if opts.queues == 0 {
		opts.queues = 8
	}
	ready := make(chan string, 1)
	p := &proxyRun{sig: make(chan os.Signal, 4), code: make(chan int, 1)}
	opts.listen, opts.drainTimeout, opts.sig, opts.ready = "127.0.0.1:0", 5*time.Second, p.sig, ready
	if opts.admin != nil {
		p.base = "http://" + opts.admin.Addr().String()
	}
	go func() { p.code <- serve(opts) }()
	select {
	case p.addr = <-ready:
	case c := <-p.code:
		t.Fatalf("serve exited %d before it was up", c)
	case <-time.After(5 * time.Second):
		t.Fatal("serve never came up")
	}
	return p
}

// adminListener binds the admin endpoints' TCP port for a startServe.
func adminListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// stop delivers sig and requires a graceful drain: exit status 0.
func (p *proxyRun) stop(t *testing.T, sig os.Signal) {
	t.Helper()
	p.sig <- sig
	select {
	case c := <-p.code:
		if c != 0 {
			t.Fatalf("drain on %v exited %d, want 0", sig, c)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("proxy did not exit within 10s of %v", sig)
	}
}

// dial opens a sender socket to the proxy.
func (p *proxyRun) dial(t *testing.T) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// get fetches an admin endpoint. The admin server comes up with serve, a
// moment after the datapath, so a refused connection is retried.
func (p *proxyRun) get(t *testing.T, path string) (int, string) {
	t.Helper()
	var resp *http.Response
	waitFor(t, "GET "+path, func() bool {
		var err error
		resp, err = http.Get(p.base + path)
		return err == nil
	})
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// metric sums a /metrics family's samples over all label sets.
func (p *proxyRun) metric(t *testing.T, family string) int64 {
	t.Helper()
	_, body := p.get(t, "/metrics")
	var sum float64
	for _, m := range regexp.MustCompile(`(?m)^`+family+`(?:\{[^}]*\})? (\S+)$`).FindAllStringSubmatch(body, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("%s: sample %q: %v", family, m[1], err)
		}
		sum += v
	}
	return int64(sum)
}

// TestRelaySurvivesUnreachableForward aims the proxy at a loopback port with
// no listener — a relayed datagram draws an ICMP port-unreachable, which
// surfaces as ECONNREFUSED on the connected socket's next send — and checks
// the books, on both backends: every datagram the enforcer accepted either
// left the socket or is counted write-dropped, exactly, however the refusals
// fall within a burst; and the relay neither exits nor stalls, it keeps
// serving until asked to stop.
func TestRelaySurvivesUnreachableForward(t *testing.T) {
	for name, forceSingle := range backends() {
		t.Run(name, func(t *testing.T) {
			p := startServe(t, proxyOpts{
				forward: closedPort(t), scheme: "policer", rate: 100 * bcpqp.Mbps,
				forceSingle: forceSingle, admin: adminListener(t),
			})
			conn := p.dial(t)
			payload := make([]byte, 256)
			sent := int64(0)
			// Bursts of eight, so refusals land mid-burst on the batched
			// backend; the books must balance after each round.
			for round := 0; round < 3; round++ {
				for i := 0; i < 40; i++ {
					if _, err := conn.Write(payload); err != nil {
						t.Fatal(err)
					}
					sent++
					if i%8 == 7 {
						time.Sleep(time.Millisecond)
					}
				}
				var accepted, relayed, writeDropped int64
				waitFor(t, "accepted == relayed + write-dropped", func() bool {
					if p.metric(t, "bcpqp_core_recv_packets_total") != sent {
						return false
					}
					accepted = p.metric(t, "bcpqp_aggregate_accepted_packets_total")
					relayed = p.metric(t, "bcpqp_core_tx_packets_total")
					writeDropped = p.metric(t, "bcpqp_core_write_dropped_total")
					return accepted == sent && accepted == relayed+writeDropped
				})
				if relayed == 0 || writeDropped == 0 {
					t.Errorf("round %d: relayed %d, write-dropped %d of %d accepted: want both nonzero against a closed port",
						round, relayed, writeDropped, accepted)
				}
			}
			select {
			case c := <-p.code:
				t.Fatalf("proxy exited (%d) on transient write errors", c)
			default:
			}
			p.stop(t, syscall.SIGTERM)
		})
	}
}

// TestServeRelaysJumboDatagram sends one 9,000-byte datagram through the
// proxy on both backends: it must reach the sink whole, byte for byte, not
// cut to a receive slot's size.
func TestServeRelaysJumboDatagram(t *testing.T) {
	want := make([]byte, 9000)
	for i := range want {
		want[i] = byte(i*31 + i>>8)
	}
	for name, forceSingle := range backends() {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var got []byte
			forward, sunk := startSink(t, func(p []byte) {
				mu.Lock()
				got = append([]byte(nil), p...)
				mu.Unlock()
			})
			p := startServe(t, proxyOpts{forward: forward, forceSingle: forceSingle})
			if _, err := p.dial(t).Write(want); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the datagram at the sink", func() bool { return sunk.Load() > 0 })
			mu.Lock()
			defer mu.Unlock()
			if len(got) != len(want) {
				t.Fatalf("sink received %d bytes, want %d", len(got), len(want))
			}
			if !bytes.Equal(got, want) {
				t.Fatal("sink received the right length but different bytes")
			}
			p.stop(t, syscall.SIGTERM)
		})
	}
}

// tightTreeSpec is a plan small enough for a short blast to overrun: a
// 5 Mbps tenant ceiling over two assured leaves.
const tightTreeSpec = `[
  {"name": "tenant", "ceiling": {"scheme": "bc-pqp", "rate_mbps": 5}},
  {"name": "alice", "assured_mbps": 2},
  {"name": "bob",   "assured_mbps": 2}
]`

// writeSpec puts a -tree spec in a file.
func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := t.TempDir() + "/tree.json"
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeEnforces drives the datapath end to end over loopback: four
// senders overdrive a 5 Mbps plan tenfold, the sink counts what gets
// through, and SIGTERM must drain cleanly — on several cores, on the
// fallback backend, and with the plan a policy tree split over two cores.
func TestServeEnforces(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback datapath test")
	}
	flat := proxyOpts{scheme: "bc-pqp", rate: 5 * bcpqp.Mbps, queues: 16}
	for _, tc := range []struct {
		name        string
		cores       int
		forceSingle bool
		tree        string
	}{
		{name: "cores=2", cores: 2},
		{name: "fallback", cores: 1, forceSingle: true},
		{name: "cores=2,tree", cores: 2, tree: tightTreeSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cores > 1 && !netio.SupportsBatch() {
				t.Skip("several cores need SO_REUSEPORT")
			}
			forward, sunk := startSink(t, nil)
			opts := flat
			if tc.tree != "" {
				opts = proxyOpts{treePath: writeSpec(t, tc.tree)}
			}
			opts.forward, opts.cores, opts.forceSingle = forward, tc.cores, tc.forceSingle
			p := startServe(t, opts)

			// 4 sources × 500 × 1200 B over ~200 ms ≈ 50+ Mbps against the
			// 5 Mbps bound — the enforcer must shed most of it.
			const senders, perSender, size = 4, 500, 1200
			var sent atomic.Int64
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				conn := p.dial(t)
				wg.Add(1)
				go func() {
					defer wg.Done()
					payload := make([]byte, size)
					for i := 0; i < perSender; i++ {
						if _, err := conn.Write(payload); err == nil {
							sent.Add(size)
						}
						if i%25 == 0 {
							time.Sleep(10 * time.Millisecond)
						}
					}
				}()
			}
			wg.Wait()
			p.stop(t, syscall.SIGTERM)

			got, offered := sunk.Load(), sent.Load()
			if got == 0 {
				t.Fatalf("sink received nothing (offered %d bytes)", offered)
			}
			if got >= offered*3/4 {
				t.Fatalf("sink received %d of %d offered bytes — enforcement did not bite", got, offered)
			}
			t.Logf("offered %d bytes, delivered %d", offered, got)
		})
	}
}

func TestServeFailsFastOnBadScheme(t *testing.T) {
	done := make(chan int, 1)
	go func() {
		done <- serve(proxyOpts{
			cores: 1, listen: "127.0.0.1:0", forward: "127.0.0.1:9",
			scheme: "no-such-scheme", rate: bcpqp.Mbps, queues: 4,
			sig: make(chan os.Signal),
		})
	}()
	select {
	case code := <-done:
		if code != 1 {
			t.Fatalf("exit code %d, want 1", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("serve with a bad scheme did not fail fast")
	}
}

// TestServeGracefulDrainAndSnapshot exercises the proxy's full signal
// protocol over loopback, on one core and on two: traffic relays, SIGHUP
// persists a decodable warm-restart snapshot with one aggregate per core,
// SIGTERM drains gracefully with exit status 0, a second proxy started on
// the same snapshot path warm-restarts from it, and one started at another
// core count — whose enforcers the image does not fit — starts cold instead
// of failing.
func TestServeGracefulDrainAndSnapshot(t *testing.T) {
	for _, cores := range []int{1, 2} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			if cores > 1 && !netio.SupportsBatch() {
				t.Skip("several cores need SO_REUSEPORT")
			}
			forward, sunk := startSink(t, nil)
			snapPath := t.TempDir() + "/proxy.snap"
			p := startServe(t, proxyOpts{forward: forward, snapshotPath: snapPath, cores: cores})

			// relays sends from enough sources to reach every core and
			// waits for the sink to see some of it.
			payload := make([]byte, 600)
			relays := func(p *proxyRun) {
				t.Helper()
				before := sunk.Load()
				for s := 0; s < 8; s++ {
					conn := p.dial(t)
					for i := 0; i < 6; i++ {
						if _, err := conn.Write(payload); err != nil {
							t.Fatal(err)
						}
					}
				}
				waitFor(t, "relayed traffic at the sink", func() bool { return sunk.Load() > before })
			}
			relays(p)

			// SIGHUP: snapshot written, proxy keeps serving.
			p.sig <- syscall.SIGHUP
			var blob []byte
			waitFor(t, "the SIGHUP snapshot file", func() bool {
				var err error
				blob, err = os.ReadFile(snapPath)
				return err == nil
			})
			var snap bcpqp.MiddleboxSnapshot
			if err := snap.UnmarshalBinary(blob); err != nil {
				t.Fatalf("snapshot file does not decode: %v", err)
			}
			if len(snap.Aggregates) != cores {
				t.Fatalf("snapshot holds %d aggregates, want %d", len(snap.Aggregates), cores)
			}
			ids := map[string]bool{}
			for _, a := range snap.Aggregates {
				ids[a.ID] = true
			}
			for i := 0; i < cores; i++ {
				if !ids[coreAggregate(i, cores)] {
					t.Fatalf("snapshot aggregates %v lack %q", ids, coreAggregate(i, cores))
				}
			}
			select {
			case c := <-p.code:
				t.Fatalf("proxy exited (%d) on SIGHUP", c)
			default:
			}
			p.stop(t, syscall.SIGTERM)

			// The image fits an engine of the same cores and no other.
			fits := func(cores int) error {
				mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{Shards: cores})
				defer mb.Close()
				for i := 0; i < cores; i++ {
					enf, err := buildEnforcer("bc-pqp", 50*bcpqp.Mbps/bcpqp.Rate(cores), 8)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := mb.AddPinned(coreAggregate(i, cores), i, enf, nil); err != nil {
						t.Fatal(err)
					}
				}
				return restoreSnapshot(mb, snapPath)
			}
			other := 3 - cores
			if err := fits(cores); err != nil {
				t.Errorf("snapshot does not restore at the cores it was taken at: %v", err)
			}
			if err := fits(other); err == nil {
				t.Errorf("snapshot taken at -cores %d restored at -cores %d", cores, other)
			}

			// Warm restart on the same path, then a start at the other core
			// count: both relay and drain with exit 0.
			for _, c := range []int{cores, other} {
				if c > 1 && !netio.SupportsBatch() {
					continue
				}
				p := startServe(t, proxyOpts{forward: forward, snapshotPath: snapPath, cores: c})
				relays(p)
				p.stop(t, syscall.SIGINT)
			}
		})
	}
}

// TestRestoreSnapshotCorruptFile pins startup behaviour on a bad snapshot:
// restoreSnapshot must reject it (the caller then starts cold) rather than
// panic or half-restore.
func TestRestoreSnapshotCorruptFile(t *testing.T) {
	path := t.TempDir() + "/bad.snap"
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{Shards: 1})
	defer mb.Close()
	if err := restoreSnapshot(mb, path); err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
	if err := restoreSnapshot(mb, path+".missing"); !os.IsNotExist(err) {
		t.Fatalf("missing snapshot: err = %v, want IsNotExist", err)
	}
}
