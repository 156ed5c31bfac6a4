package main

import (
	"sync/atomic"
	"testing"
	"time"

	"bcpqp"
	"bcpqp/internal/netio"
)

// TestRelayDropsTruncatedDatagram runs relayLoop on a listener whose receive
// slots are smaller than one of the datagrams sent to it (serve's never are:
// rxBufBytes holds any datagram). The cut datagram must be counted and go no
// further — not policed at the slot's size, not forwarded as its own head —
// while the whole ones around it are relayed, in as many kernel messages as
// netio says it took. Both backends.
func TestRelayDropsTruncatedDatagram(t *testing.T) {
	for name, forceSingle := range backends() {
		t.Run(name, func(t *testing.T) {
			var sizes []int
			var sunk atomic.Int64 // datagrams at the sink; orders the reads of sizes below
			forward, _ := startSink(t, func(p []byte) {
				sizes = append(sizes, len(p))
				sunk.Add(1)
			})
			cfg := netio.Config{ForceSingle: forceSingle}
			r := startRelay(t, cfg, forward)
			r.send(t, 100, 100, 3000, 100)
			waitFor(t, "three datagrams at the sink and one counted truncated", func() bool {
				return sunk.Load() == 3 && r.st.rxTruncated.Load() == 1
			})
			r.stop(t)
			for _, n := range sizes {
				if n != 100 {
					t.Errorf("sink received a %d-byte datagram; want only the three whole 100-byte ones", n)
				}
			}
			if got := r.st.recvPkts.Load(); got != 4 {
				t.Errorf("recvPkts = %d, want 4", got)
			}
			final, err := r.mb.Remove("proxy")
			if err != nil {
				t.Fatal(err)
			}
			if final.AcceptedPackets != 3 || final.AcceptedBytes != 300 {
				t.Errorf("enforcer accepted %d packets, %d bytes; want 3 and 300 (the truncated one unpoliced)",
					final.AcceptedPackets, final.AcceptedBytes)
			}
			pkts, msgs := r.st.txPkts.Load(), r.st.txMsgs.Load()
			if pkts != 3 || msgs < 1 || msgs > pkts || msgs != r.tx.TxStats().Messages {
				t.Errorf("txPkts %d in txMsgs %d (netio says %d); want 3 datagrams in 1 to 3 messages", pkts, msgs, r.tx.TxStats().Messages)
			}
			if forceSingle && msgs != pkts {
				t.Errorf("fallback: %d messages for %d datagrams, want one each", msgs, pkts)
			}
		})
	}
}

// TestRelayPhasesSumToRunTime: each clock reading in relayLoop ends one phase
// and starts the next, so over a short run — two bursts with an idle
// stretch between them long enough for a read deadline to expire —
// rx-wait + enforce + flush is the loop's own run time to within 1 ms, and
// a stop set while idle is noticed within the 100 ms deadline (plus
// scheduling slack).
func TestRelayPhasesSumToRunTime(t *testing.T) {
	forward, sunk := startSink(t, nil) // sunk counts bytes
	r := startRelay(t, netio.Config{}, forward)
	r.send(t, 100, 200, 300)
	waitFor(t, "the first burst at the sink", func() bool { return sunk.Load() == 600 })
	time.Sleep(150 * time.Millisecond)
	r.send(t, 400)
	waitFor(t, "the second burst at the sink", func() bool { return sunk.Load() == 1000 })
	time.Sleep(20 * time.Millisecond)
	stopped := time.Now()
	ran := r.stop(t)
	if wait := time.Since(stopped); wait > 200*time.Millisecond {
		t.Errorf("relayLoop took %v to notice stop, want within its 100 ms read deadline", wait)
	}
	if n := r.st.rxTimeouts.Load(); n < 1 {
		t.Errorf("%d read deadlines expired over a 150 ms idle stretch, want at least one", n)
	}
	sum := time.Duration(r.st.rxWaitNs.Load() + r.st.enforceNs.Load() + r.st.flushNs.Load())
	if d := ran - sum; d < 0 || d > time.Millisecond {
		t.Errorf("rx-wait + enforce + flush = %v, relayLoop ran %v: want the sum within 1 ms below it", sum, ran)
	}
}

// relayRig is relayLoop running between a fresh listener and a forward
// address on one pinned 100 Mb/s policer aggregate.
type relayRig struct {
	mb   *bcpqp.Middlebox
	tx   *netio.Conn
	src  *netio.Conn // a sender dialed to the listener
	st   coreStats
	halt atomic.Bool
	done chan error
	ran  time.Duration // relayLoop's run time, once done
}

func startRelay(t *testing.T, cfg netio.Config, forward string) *relayRig {
	t.Helper()
	rx, err := netio.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rx.Close() })
	tx, err := netio.Dial(forward, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{Shards: 1})
	t.Cleanup(func() { mb.Close() })
	enf, err := buildEnforcer("policer", 100*bcpqp.Mbps, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mb.AddPinned("proxy", 0, enf, func(p bcpqp.Packet) { tx.QueueTx(p.Payload) })
	if err != nil {
		t.Fatal(err)
	}
	ls, err := mb.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	r := &relayRig{mb: mb, tx: tx, done: make(chan error, 1)}
	go func() {
		start := time.Now()
		err := relayLoop(rx, tx, ls, h, &r.st, &r.halt)
		r.ran = time.Since(start)
		r.done <- err
	}()
	if r.src, err = netio.Dial(rx.LocalAddr().String(), cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.src.Close() })
	return r
}

// send sends one datagram of each size to the listener in one flush.
func (r *relayRig) send(t *testing.T, sizes ...int) {
	t.Helper()
	for _, n := range sizes {
		r.src.QueueTx(make([]byte, n))
	}
	if err := r.src.FlushTx(); err != nil {
		t.Fatal(err)
	}
}

// stop stops relayLoop, fails the test on its error, and returns its run
// time.
func (r *relayRig) stop(t *testing.T) time.Duration {
	t.Helper()
	r.halt.Store(true)
	if err := <-r.done; err != nil {
		t.Fatalf("relayLoop: %v", err)
	}
	return r.ran
}
