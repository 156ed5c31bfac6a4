package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"bcpqp"
	"bcpqp/internal/netio"
)

// relayLoop is the proxy's one datapath: a run-to-completion loop that owns
// a burst from the wire to the wire, the proxy-speed analogue of the DPDK
// deployment the paper benchmarks. recvmmsg fills rx's pinned buffers, the
// LocalSubmitter enforces inline (h's emit hook has queued the
// accepted payloads on tx, by reference, when SubmitBatch returns), and one
// sendmmsg flushes them before the buffers are reused: no copy, no handoff,
// no allocation. A datagram that arrived longer than rx's receive slots is
// neither whole nor of known size: it is counted in st.rxTruncated and goes
// no further.
//
// It returns nil once stop is set (noticed within 100 ms when idle) and an
// error when the sockets or the engine can no longer serve. A datagram the
// forward socket refuses (see transientNetErr) is shed and counted in
// st.writeDropped, never retried: the relay degrades, it does not exit or
// stall the bursts behind it.
//
// The clock is read three times a burst: each reading ends one phase in st —
// rx-wait, enforce, flush — and starts the next, so the three sum to the
// loop's wall time. The read deadline is re-armed 100 ms out only once less
// than 50 ms of it remain, not on every burst.
func relayLoop(rx, tx *netio.Conn, ls *bcpqp.LocalSubmitter, h bcpqp.AggregateHandle, st *coreStats, stop *atomic.Bool) error {
	pkts := make([]bcpqp.Packet, rx.Batch())
	segmenting := tx.SegmentOffload()
	var deadline time.Time
	t := time.Now() // the end of the last phase
	lap := func(phase *atomic.Int64) {
		now := time.Now()
		phase.Add(now.Sub(t).Nanoseconds())
		t = now
	}
	for !stop.Load() {
		if deadline.Sub(t) < 50*time.Millisecond {
			deadline = t.Add(100 * time.Millisecond)
			rx.SetReadDeadline(deadline)
		}
		n, err := rx.RecvBatch()
		lap(&st.rxWaitNs)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				st.rxTimeouts.Add(1)
				continue
			}
			return fmt.Errorf("read: %w", err)
		}
		m := 0
		for j := 0; j < n; j++ {
			if rx.IsTruncated(j) {
				continue
			}
			ip, port := rx.Src(j)
			pl := rx.Payload(j)
			pkts[m] = bcpqp.Packet{
				Key:     bcpqp.FlowKey{SrcIP: ip, SrcPort: port, Proto: 17},
				Size:    len(pl),
				Class:   bcpqp.NoClass,
				Payload: pl,
			}
			m++
		}
		st.recvCalls.Add(1)
		st.recvPkts.Add(int64(n))
		if m < n {
			st.rxTruncated.Store(rx.Truncated())
			if m == 0 {
				continue
			}
		}

		err = ls.SubmitBatch(h, pkts[:m])
		lap(&st.enforceNs)
		if errors.Is(err, bcpqp.ErrShardSaturated) {
			st.shed.Add(int64(m))
			continue
		}
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}

		queued := tx.QueuedTx()
		err = tx.FlushTx()
		lap(&st.flushNs)
		failed := tx.FailedTx()
		st.writeDropped.Add(int64(failed))
		if sent := queued - failed; sent > 0 {
			st.txFlushes.Add(1)
			st.txPkts.Add(int64(sent))
			st.txMsgs.Store(tx.TxStats().Messages)
		}
		if segmenting && !tx.SegmentOffload() {
			segmenting = false
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: forward socket %v: no checksum offload on the route, segment-offload=false from here on (no datagram lost)\n",
				tx.LocalAddr())
		}
		if err != nil && !transientNetErr(err) {
			return fmt.Errorf("write: %w", err)
		}
	}
	return nil
}

// transientNetErr reports whether a socket error is transient for a live
// relay: an ICMP-induced ECONNREFUSED on the connected out-socket (the
// forward target briefly down), an unreachable network/host during a
// routing flap, exhausted socket buffers, or a plain timeout. A policer
// must degrade on these — shed and count — not exit.
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
