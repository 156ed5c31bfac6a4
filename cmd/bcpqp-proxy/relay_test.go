package main

import (
	"sync/atomic"
	"testing"

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
			rx, err := netio.Listen("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			tx, err := netio.Dial(forward, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()

			mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{Shards: 1})
			defer mb.Close()
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
			var st coreStats
			var stop atomic.Bool
			done := make(chan error, 1)
			go func() { done <- relayLoop(rx, tx, ls, h, &st, &stop) }()

			src, err := netio.Dial(rx.LocalAddr().String(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			for _, n := range []int{100, 100, 3000, 100} {
				src.QueueTx(make([]byte, n))
			}
			if err := src.FlushTx(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "three datagrams at the sink and one counted truncated", func() bool {
				return sunk.Load() == 3 && st.rxTruncated.Load() == 1
			})
			stop.Store(true)
			if err := <-done; err != nil {
				t.Fatalf("relayLoop: %v", err)
			}
			for _, n := range sizes {
				if n != 100 {
					t.Errorf("sink received a %d-byte datagram; want only the three whole 100-byte ones", n)
				}
			}
			if got := st.recvPkts.Load(); got != 4 {
				t.Errorf("recvPkts = %d, want 4", got)
			}
			final, err := mb.Remove("proxy")
			if err != nil {
				t.Fatal(err)
			}
			if final.AcceptedPackets != 3 || final.AcceptedBytes != 300 {
				t.Errorf("enforcer accepted %d packets, %d bytes; want 3 and 300 (the truncated one unpoliced)",
					final.AcceptedPackets, final.AcceptedBytes)
			}
			pkts, msgs := st.txPkts.Load(), st.txMsgs.Load()
			if pkts != 3 || msgs < 1 || msgs > pkts || msgs != tx.TxStats().Messages {
				t.Errorf("txPkts %d in txMsgs %d (netio says %d); want 3 datagrams in 1 to 3 messages", pkts, msgs, tx.TxStats().Messages)
			}
			if forceSingle && msgs != pkts {
				t.Errorf("fallback: %d messages for %d datagrams, want one each", msgs, pkts)
			}
		})
	}
}
