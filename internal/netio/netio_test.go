package netio

import (
	"net"
	"testing"
	"time"
)

// exchange pushes k datagrams through a loopback pair and asserts payload
// bytes and extracted sources survive the trip, for whichever backend cfg
// selects.
func exchange(t *testing.T, cfg Config, k int) {
	t.Helper()
	rx, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer rx.Close()
	tx, err := Dial(rx.LocalAddr().String(), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tx.Close()

	txPort := tx.LocalAddr().(*net.UDPAddr).Port
	payload := make([][]byte, k)
	for i := range payload {
		payload[i] = []byte{byte(i), byte(i >> 8), 0xbc, byte(100 + i%7)}
		if !tx.QueueTx(payload[i]) {
			if err := tx.FlushTx(); err != nil {
				t.Fatalf("FlushTx: %v", err)
			}
			tx.QueueTx(payload[i])
		}
	}
	if err := tx.FlushTx(); err != nil {
		t.Fatalf("FlushTx: %v", err)
	}

	rx.SetReadDeadline(time.Now().Add(2 * time.Second))
	seen := make(map[byte]bool)
	got := 0
	for got < k {
		n, err := rx.RecvBatch()
		if err != nil {
			t.Fatalf("RecvBatch after %d/%d datagrams: %v", got, k, err)
		}
		for i := 0; i < n; i++ {
			p := rx.Payload(i)
			if len(p) != 4 || p[2] != 0xbc {
				t.Fatalf("datagram %d: bad payload %v", got, p)
			}
			idx := int(p[0]) | int(p[1])<<8
			if want := byte(100 + idx%7); p[3] != want {
				t.Fatalf("datagram idx %d: payload byte %d, want %d", idx, p[3], want)
			}
			seen[p[0]] = true
			ip, port := rx.Src(i)
			if ip != 0x7f000001 {
				t.Fatalf("datagram idx %d: src ip %#x, want 127.0.0.1", idx, ip)
			}
			if int(port) != txPort {
				t.Fatalf("datagram idx %d: src port %d, want %d", idx, port, txPort)
			}
			got++
		}
	}
	if len(seen) != k && k <= 256 {
		t.Fatalf("received %d distinct datagrams, want %d", len(seen), k)
	}
}

func TestExchangeFallback(t *testing.T) {
	exchange(t, Config{Batch: 8, ForceSingle: true}, 20)
}

func TestExchangeBatched(t *testing.T) {
	if !SupportsBatch() {
		t.Skip("batched backend not supported on this platform")
	}
	cfg := Config{Batch: 8}
	exchange(t, cfg, 20)

	rx, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer rx.Close()
	if !rx.Batched() {
		t.Fatalf("expected batched backend on this platform")
	}
}

func TestReadDeadline(t *testing.T) {
	for _, force := range []bool{true, false} {
		if !force && !SupportsBatch() {
			continue
		}
		rx, err := Listen("127.0.0.1:0", Config{Batch: 4, ForceSingle: force})
		if err != nil {
			t.Fatalf("Listen(force=%v): %v", force, err)
		}
		rx.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		_, err = rx.RecvBatch()
		ne, ok := err.(net.Error)
		if !ok || !ne.Timeout() {
			t.Fatalf("RecvBatch(force=%v) = %v, want net.Error timeout", force, err)
		}
		rx.Close()
	}
}

func TestReusePort(t *testing.T) {
	if !SupportsBatch() {
		t.Skip("SO_REUSEPORT requires the batched backend")
	}
	cfg := Config{Batch: 4, ReusePort: true}
	a, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen a: %v", err)
	}
	defer a.Close()
	b, err := Listen(a.LocalAddr().String(), cfg)
	if err != nil {
		t.Fatalf("Listen b on same address: %v", err)
	}
	defer b.Close()

	// Kernel hashes flows across the two sockets; with many distinct
	// source sockets at least one datagram must land on each... is not
	// guaranteed for small counts, so just assert everything arrives.
	const senders = 16
	for i := 0; i < senders; i++ {
		tx, err := Dial(a.LocalAddr().String(), cfg)
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		tx.QueueTx([]byte{byte(i)})
		if err := tx.FlushTx(); err != nil {
			t.Fatalf("FlushTx %d: %v", i, err)
		}
		tx.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	a.SetReadDeadline(deadline)
	b.SetReadDeadline(deadline)
	got := 0
	for _, rx := range []*Conn{a, b} {
		for got < senders {
			rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			n, err := rx.RecvBatch()
			if err != nil {
				break // drained this socket; the rest are on the other
			}
			got += n
		}
	}
	if got != senders {
		t.Fatalf("received %d datagrams across the REUSEPORT pair, want %d", got, senders)
	}
}

func TestReusePortRefusedOnFallback(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", Config{ReusePort: true, ForceSingle: true}); err == nil {
		t.Fatalf("Listen with ReusePort+ForceSingle succeeded, want error")
	}
}

// TestSteadyStateAllocs locks in the 0 allocs/op contract on the receive
// and transmit hot paths, for both backends — on the batched one with the
// flush going out as one segmented message.
func TestSteadyStateAllocs(t *testing.T) {
	for _, force := range []bool{true, false} {
		if !force && !SupportsBatch() {
			continue
		}
		cfg := Config{Batch: 8, ForceSingle: force}
		rx, err := Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("Listen(force=%v): %v", force, err)
		}
		tx, err := Dial(rx.LocalAddr().String(), cfg)
		if err != nil {
			t.Fatalf("Dial(force=%v): %v", force, err)
		}
		p := []byte{1, 2, 3, 4}
		rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		const burst = 4
		cycle := func() {
			for i := 0; i < burst; i++ {
				tx.QueueTx(p)
			}
			if err := tx.FlushTx(); err != nil {
				t.Fatalf("FlushTx: %v", err)
			}
			for got := 0; got < burst; {
				n, err := rx.RecvBatch()
				if err != nil {
					t.Fatalf("RecvBatch: %v", err)
				}
				got += n
			}
		}
		cycle() // warm up poller timers and lazy paths
		if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
			t.Errorf("force=%v: %.2f allocs per rx/tx cycle, want 0", force, allocs)
		}
		if st := tx.TxStats(); !force && st.Messages*burst != st.Datagrams {
			t.Errorf("batched: %d datagrams left in %d messages, want %d to a message", st.Datagrams, st.Messages, burst)
		}
		rx.Close()
		tx.Close()
	}
}

// TestFlushTxSkipsRefusedDatagram: a connected UDP socket reports the ICMP
// port-unreachable an earlier datagram drew as ECONNREFUSED on a later send,
// and that send's datagram is not transmitted. On both backends the refusal
// must cost that one datagram and be counted: a flush of eight towards a
// port that has just come back delivers exactly eight minus FailedTx, and
// FailedTx is at most the one pending refusal.
func TestFlushTxSkipsRefusedDatagram(t *testing.T) {
	for _, force := range []bool{true, false} {
		if !force && !SupportsBatch() {
			continue
		}
		cfg := Config{Batch: 8, ForceSingle: force}
		rx, err := Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("Listen(force=%v): %v", force, err)
		}
		addr := rx.LocalAddr().String()
		tx, err := Dial(addr, cfg)
		if err != nil {
			t.Fatalf("Dial(force=%v): %v", force, err)
		}
		rx.Close()

		// Nobody listens: keep flushing bursts until one is refused
		// mid-way, which must not take the datagrams behind it along.
		refused := false
		for deadline := time.Now().Add(5 * time.Second); !refused; {
			if time.Now().After(deadline) {
				t.Fatalf("force=%v: no send to a closed port was ever refused", force)
			}
			for i := 0; i < 8; i++ {
				tx.QueueTx([]byte{byte(i)})
			}
			err := tx.FlushTx()
			if failed := tx.FailedTx(); err != nil {
				if failed == 0 || failed == 8 {
					t.Fatalf("force=%v: FlushTx = %v with %d of 8 failed, want some but not all", force, err, failed)
				}
				refused = true
			} else if failed != 0 {
				t.Fatalf("force=%v: FlushTx = nil with %d failed", force, failed)
			}
		}

		// The port comes back (the tiny close-and-rebind race is the
		// standard trade). At most one refusal is still pending.
		rx, err = Listen(addr, cfg)
		if err != nil {
			t.Fatalf("re-Listen(force=%v): %v", force, err)
		}
		for i := 0; i < 8; i++ {
			tx.QueueTx([]byte{0xaa, byte(i)})
		}
		tx.FlushTx()
		failed := tx.FailedTx()
		if failed > 1 {
			t.Fatalf("force=%v: %d of 8 failed towards an open port, want at most the one pending refusal", force, failed)
		}
		rx.SetReadDeadline(time.Now().Add(2 * time.Second))
		for got := 0; got < 8-failed; {
			n, err := rx.RecvBatch()
			if err != nil {
				t.Fatalf("force=%v: received %d of the %d datagrams sent: %v", force, got, 8-failed, err)
			}
			got += n
		}
		rx.Close()
		tx.Close()
	}
}

// TestTruncationCounted: a datagram longer than BufBytes arrives cut to the
// buffer, and says so — flagged on its slot and counted on the Conn — while
// the datagram behind it is whole. Both backends.
func TestTruncationCounted(t *testing.T) {
	for _, force := range []bool{true, false} {
		if !force && !SupportsBatch() {
			continue
		}
		cfg := Config{Batch: 8, ForceSingle: force}
		rx, err := Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("Listen(force=%v): %v", force, err)
		}
		tx, err := Dial(rx.LocalAddr().String(), cfg)
		if err != nil {
			t.Fatalf("Dial(force=%v): %v", force, err)
		}
		tx.QueueTx(make([]byte, 3000))
		tx.QueueTx([]byte{1, 2, 3})
		if err := tx.FlushTx(); err != nil {
			t.Fatalf("force=%v: FlushTx: %v", force, err)
		}
		rx.SetReadDeadline(time.Now().Add(2 * time.Second))
		var lens []int
		var trunc []bool
		for len(lens) < 2 {
			n, err := rx.RecvBatch()
			if err != nil {
				t.Fatalf("force=%v: RecvBatch after %d datagrams: %v", force, len(lens), err)
			}
			for i := 0; i < n; i++ {
				lens, trunc = append(lens, len(rx.Payload(i))), append(trunc, rx.IsTruncated(i))
			}
		}
		if lens[0] != defaultBufBytes || !trunc[0] || lens[1] != 3 || trunc[1] {
			t.Errorf("force=%v: got lengths %v truncated %v, want [%d 3] [true false]", force, lens, trunc, defaultBufBytes)
		}
		if got := rx.Truncated(); got != 1 {
			t.Errorf("force=%v: Truncated() = %d, want 1", force, got)
		}
		rx.Close()
		tx.Close()
	}
}

// TestConnServesOneDirection: a Conn holds the state of the direction it was
// opened for, and the other direction's calls say no instead of panicking.
func TestConnServesOneDirection(t *testing.T) {
	for _, force := range []bool{true, false} {
		if !force && !SupportsBatch() {
			continue
		}
		cfg := Config{Batch: 4, ForceSingle: force}
		rx, err := Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("Listen(force=%v): %v", force, err)
		}
		tx, err := Dial(rx.LocalAddr().String(), cfg)
		if err != nil {
			t.Fatalf("Dial(force=%v): %v", force, err)
		}
		if rx.QueueTx([]byte{1}) {
			t.Errorf("force=%v: QueueTx on a listening Conn = true", force)
		}
		if err := rx.FlushTx(); err != nil || rx.QueuedTx() != 0 {
			t.Errorf("force=%v: FlushTx on a listening Conn = %v with %d queued", force, err, rx.QueuedTx())
		}
		if n, err := tx.RecvBatch(); err == nil {
			t.Errorf("force=%v: RecvBatch on a dialed Conn = %d, nil; want an error", force, n)
		}
		if got := tx.Truncated(); got != 0 {
			t.Errorf("force=%v: Truncated() on a dialed Conn = %d", force, got)
		}
		rx.Close()
		tx.Close()
	}
}
