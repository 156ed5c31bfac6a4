package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"bcpqp"
	"bcpqp/internal/netio"
)

// Relay workloads: the per-core proxy's datapath over loopback UDP, driven
// in lockstep from one goroutine.
//
//	feeder netio.Dial ──▶ relay netio.Listen ─▶ LocalSubmitter.SubmitBatch
//	                                             └ emit: QueueTx ─▶ FlushTx ──▶ sink netio.Listen
//
// One burst is in flight at a time: the feeder sends it, the relay receives
// all of it, enforces and forwards, the sink receives exactly what was
// forwarded, and only then is the next burst built. No goroutine ever waits
// on another, so a round's wall time is the program's and the kernel's
// socket path and nothing else.

const (
	// relayAggs is the relay workloads' subscriber count.
	relayAggs = 1024
	// relayRate is each relay subscriber's plan: at 64-byte datagrams a
	// 2 kB burst every 2048 B / (2.5 × rate) ≈ 6.6 ms of virtual time.
	relayRate = 1 * bcpqp.Mbps
	// relayPayload is the datagram size: the smallest the stamp fits in
	// with room to spare, where per-packet cost dominates.
	relayPayload = 64
	// relayQueue is the phantom queue size in bytes. The paper's
	// recommended size assumes MSS packets; for 64-byte datagrams a queue of
	// 64 packets keeps B (16 queues × 4 kB) small against the ≈ 75 kB each
	// subscriber is allowed in a ten-second phase.
	relayQueue = 64 * relayPayload
	// roundTimeout bounds how long a round waits for a datagram that
	// loopback lost. It is a safety net, renewed every deadlineEvery rounds
	// to keep the timer off the per-round path, and never reached in a
	// healthy run.
	roundTimeout  = 10 * time.Second
	deadlineEvery = 256
)

// Datagram stamp: subscriber, flow and round, so the relay can classify
// from the payload and the sink can tell a forwarded datagram from a stray.
const (
	offSub   = 0 // uint32
	offFlow  = 4 // uint8
	offRound = 8 // uint64
)

type relayRig struct {
	latencyBuf
	table
	ls     *bcpqp.LocalSubmitter
	clk    *vclock
	stepNs int64
	arr    *arrivals
	burst  int

	feeder, rx, tx, sink *netio.Conn
	feedBufs             [][]byte
	pkts                 []bcpqp.Packet

	round     int64
	forwarded int // datagrams the emit hook queued this round
	offered   int64
	lost      int64 // offered but never seen by the relay, or refused
	delivered int64
	stray     int64
	rxCalls   int64
	rxPkts    int64
	txCalls   int64
	txPkts    int64
}

// buildRelay makes the rig for relay_flood (burst 32, 2.5× load) or
// relay_single (burst 1, 0.5× load).
func buildRelay(cfg buildCfg, burst int, load float64) (rig, error) {
	aggs := cfg.scaled(relayAggs)
	r := &relayRig{
		table: table{tr: cfg.tr, enfTr: cfg.tr},
		clk:   &vclock{},
		arr:   newArrivals(cfg.seed, aggs),
		burst: burst,
		pkts:  make([]bcpqp.Packet, netio.DefaultBatch),
	}
	r.stepNs = virtualStep(burst*relayPayload, aggs, relayRate, load)
	if err := r.open(); err != nil {
		r.close()
		return nil, err
	}
	r.mb = bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{Shards: 1, Clock: r.clk.read})
	err := r.subscribe(aggs, relayRate, relayQueue, false, r.emit)
	if err == nil {
		r.ls, err = r.mb.LocalShard(0)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// open binds the three loopback sockets and connects them.
func (r *relayRig) open() error {
	ncfg := netio.Config{}
	var err error
	if r.sink, err = netio.Listen("127.0.0.1:0", ncfg); err != nil {
		return err
	}
	if r.rx, err = netio.Listen("127.0.0.1:0", ncfg); err != nil {
		return err
	}
	if r.tx, err = netio.Dial(r.sink.LocalAddr().String(), ncfg); err != nil {
		return err
	}
	if r.feeder, err = netio.Dial(r.rx.LocalAddr().String(), ncfg); err != nil {
		return err
	}
	r.feedBufs = make([][]byte, r.burst)
	for i := range r.feedBufs {
		r.feedBufs[i] = make([]byte, relayPayload)
	}
	return nil
}

// emit queues an accepted datagram's payload by reference; it leaves in the
// round's FlushTx, before the receive buffers are reused.
func (r *relayRig) emit(p bcpqp.Packet) {
	r.tr.begin(layerTxQueue)
	ok := r.tx.QueueTx(p.Payload)
	r.tr.end()
	if ok {
		r.forwarded++
	}
}

func (r *relayRig) step(timed bool) {
	r.round++
	n := r.burst

	// Feeder: stamp and send one burst for one subscriber.
	r.tr.begin(layerFeed)
	sub, base := r.arr.next(n)
	for i := 0; i < n; i++ {
		b := r.feedBufs[i]
		binary.LittleEndian.PutUint32(b[offSub:], uint32(sub))
		b[offFlow] = byte(r.arr.flowAt(base, i))
		binary.LittleEndian.PutUint64(b[offRound:], uint64(r.round))
		r.feeder.QueueTx(b)
	}
	if r.round%deadlineEvery == 1 {
		deadline := time.Now().Add(roundTimeout)
		r.rx.SetReadDeadline(deadline)
		r.sink.SetReadDeadline(deadline)
	}
	t0 := time.Now()
	err := r.feeder.FlushTx()
	r.tr.end()
	r.offered += int64(n)
	if err != nil {
		r.lost += int64(n)
		return
	}

	// Relay: receive the whole burst, enforce inline, forward.
	r.clk.advance(r.stepNs)
	r.forwarded = 0
	for got := 0; got < n; {
		r.tr.begin(layerRx)
		m, err := r.rx.RecvBatch()
		r.tr.end()
		if err != nil {
			r.lost += int64(n - got)
			break
		}
		r.rxCalls++
		r.rxPkts += int64(m)
		got += m
		r.enforce(m)
		queued := r.tx.QueuedTx()
		r.tr.begin(layerTxFlush)
		err = r.tx.FlushTx()
		r.tr.end()
		if queued > 0 {
			r.txCalls++
			r.txPkts += int64(queued)
		}
		if err != nil {
			r.forwarded -= queued // the sink will not see these
		}
	}

	// Sink: exactly what was forwarded this round.
	r.tr.begin(layerSink)
	for got := 0; got < r.forwarded; {
		m, err := r.sink.RecvBatch()
		if err != nil {
			break
		}
		for j := 0; j < m; j++ {
			p := r.sink.Payload(j)
			if len(p) != relayPayload || binary.LittleEndian.Uint64(p[offRound:]) != uint64(r.round) ||
				binary.LittleEndian.Uint32(p[offSub:]) != uint32(sub) {
				r.stray++
			}
		}
		got += m
		r.delivered += int64(m)
	}
	r.tr.end()
	// Latency is feeder-send → last sink receive, on rounds that forwarded
	// something; a burst policed away entirely has no packet to time.
	if timed && r.forwarded > 0 {
		r.lat = append(r.lat, int64(time.Since(t0)))
	}
}

// enforce classifies the m datagrams just received from their stamps and
// submits each run of one subscriber's datagrams inline.
func (r *relayRig) enforce(m int) {
	for j := 0; j < m; j++ {
		pl := r.rx.Payload(j)
		var sub uint32 = ^uint32(0)
		var flow uint8
		if len(pl) == relayPayload {
			sub, flow = binary.LittleEndian.Uint32(pl[offSub:]), pl[offFlow]
		}
		r.pkts[j] = bcpqp.Packet{
			Key:     bcpqp.FlowKey{SrcIP: sub, SrcPort: uint16(flow), Proto: 17},
			Size:    len(pl),
			Class:   int(flow),
			Payload: pl,
		}
	}
	for i := 0; i < m; {
		sub := r.pkts[i].Key.SrcIP
		j := i + 1
		for j < m && r.pkts[j].Key.SrcIP == sub {
			j++
		}
		if int(sub) >= len(r.handles) {
			r.lost += int64(j - i) // not a datagram the feeder stamped
		} else {
			r.tr.begin(layerInline)
			err := r.ls.SubmitBatch(r.handles[sub], r.pkts[i:j])
			r.tr.end()
			// A saturated shard has counted its packets in Engine.Overloaded.
			if err != nil && !errors.Is(err, bcpqp.ErrShardSaturated) {
				r.lost += int64(j - i)
			}
		}
		i = j
	}
}

func (r *relayRig) settle() {}

func (r *relayRig) tally() tally {
	t := tally{
		offered:      r.offered,
		offeredBytes: r.offered * relayPayload,
		delivered:    r.delivered,
		mismatched:   r.stray,
		virtualNs:    r.clk.now.Load(),
		clockReads:   r.clk.reads.Load(),
		rxCalls:      r.rxCalls,
		rxPkts:       r.rxPkts,
		txCalls:      r.txCalls,
		txPkts:       r.txPkts,
	}
	r.table.tally(&t)
	t.failed = r.lost + t.shed
	for _, c := range []*netio.Conn{r.rx, r.sink} {
		if d, ok := c.KernelDrops(); ok {
			t.kernelDrops += d
		}
	}
	return t
}

func (r *relayRig) close() error {
	var first error
	for _, c := range []*netio.Conn{r.feeder, r.rx, r.tx, r.sink} {
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = fmt.Errorf("close socket: %w", err)
			}
		}
	}
	if r.mb != nil {
		if err := r.table.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
