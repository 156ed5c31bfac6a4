package main

import (
	"strconv"
	"sync/atomic"

	"bcpqp"
)

// coreStats is one worker's cycle accounting. The worker (and the emit hook
// it runs inline) is the only writer; scrapes and the final report read
// concurrently, hence atomics.
// Busy time is split into the three phases of a burst — waiting in the
// receive call, enforcing inline, flushing the transmit queue — by one clock
// reading per phase boundary, so rx-wait + enforce + flush is the worker's
// wall time in relayLoop (TestRelayPhasesSumToRunTime).
type coreStats struct {
	recvCalls  atomic.Int64 // receive syscalls that returned datagrams
	recvPkts   atomic.Int64 // datagrams they returned
	rxTimeouts atomic.Int64 // receive deadlines that expired idle
	txFlushes  atomic.Int64 // transmit flushes that sent something
	txPkts     atomic.Int64 // datagrams they sent
	txMsgs     atomic.Int64 // kernel messages that carried them (netio.TxStats)
	// rxTruncated: received longer than a receive slot, so dropped unpoliced.
	// shed: received, but the core's shard could not be claimed. writeDropped:
	// accepted, but refused by the forward socket (accepted = txPkts + it).
	rxTruncated  atomic.Int64
	shed         atomic.Int64
	writeDropped atomic.Int64
	rxWaitNs     atomic.Int64
	enforceNs    atomic.Int64
	flushNs      atomic.Int64
}

// coreFamilies builds the bcpqp_core_* metric families, one sample per core
// in each.
type coreFamilies struct {
	fams []bcpqp.MetricsFamily
}

// Indices into coreFamilies.fams.
const (
	famRecvCalls = iota
	famRecvPkts
	famPktsPerRecv
	famRxTimeouts
	famTxFlushes
	famTxPkts
	famTxMsgs
	famRxWait
	famEnforce
	famFlush
	famRxTruncated
	famShed
	famWriteDropped
	famKernelDrops
)

func newCoreFamilies() *coreFamilies {
	return &coreFamilies{fams: []bcpqp.MetricsFamily{
		famRecvCalls:    {Name: "bcpqp_core_recv_syscalls_total", Help: "receive syscalls that returned datagrams", Type: "counter"},
		famRecvPkts:     {Name: "bcpqp_core_recv_packets_total", Help: "datagrams received", Type: "counter"},
		famPktsPerRecv:  {Name: "bcpqp_core_packets_per_recv_syscall", Help: "mean datagrams per receive syscall since start", Type: "gauge"},
		famRxTimeouts:   {Name: "bcpqp_core_recv_timeouts_total", Help: "receive deadlines that expired with nothing to read", Type: "counter"},
		famTxFlushes:    {Name: "bcpqp_core_tx_flushes_total", Help: "transmit flushes that sent datagrams", Type: "counter"},
		famTxPkts:       {Name: "bcpqp_core_tx_packets_total", Help: "datagrams transmitted", Type: "counter"},
		famTxMsgs:       {Name: "bcpqp_core_tx_msgs_total", Help: "kernel messages that carried the transmitted datagrams (fewer than the datagrams where segmentation offload groups them)", Type: "counter"},
		famRxWait:       {Name: "bcpqp_core_rx_wait_seconds_total", Help: "time spent in the receive call, blocked or reading", Type: "counter"},
		famEnforce:      {Name: "bcpqp_core_enforce_seconds_total", Help: "time spent enforcing bursts inline", Type: "counter"},
		famFlush:        {Name: "bcpqp_core_flush_seconds_total", Help: "time spent flushing the transmit queue", Type: "counter"},
		famRxTruncated:  {Name: "bcpqp_core_rx_truncated_total", Help: "datagrams received longer than a receive slot and dropped without being policed", Type: "counter"},
		famShed:         {Name: "bcpqp_core_shed_packets_total", Help: "datagrams shed because the core's shard could not be claimed", Type: "counter"},
		famWriteDropped: {Name: "bcpqp_core_write_dropped_total", Help: "accepted datagrams the forward socket refused (shed, not retried)", Type: "counter"},
		famKernelDrops:  {Name: "bcpqp_core_kernel_drops_total", Help: "datagrams the kernel dropped at the core's socket before the datapath saw them", Type: "counter"},
	}}
}

// add appends core i's samples. The kernel-drop sample is omitted when the
// platform cannot read the socket's drop counter.
func (b *coreFamilies) add(i int, s *coreStats, kernelDrops int64, haveDrops bool) {
	lbl := []bcpqp.MetricsLabel{{Name: "core", Value: strconv.Itoa(i)}}
	put := func(fam int, v float64) {
		b.fams[fam].Samples = append(b.fams[fam].Samples, bcpqp.MetricsSample{Labels: lbl, Value: v})
	}
	calls, pkts := s.recvCalls.Load(), s.recvPkts.Load()
	put(famRecvCalls, float64(calls))
	put(famRecvPkts, float64(pkts))
	if calls > 0 {
		put(famPktsPerRecv, float64(pkts)/float64(calls))
	}
	put(famRxTimeouts, float64(s.rxTimeouts.Load()))
	put(famTxFlushes, float64(s.txFlushes.Load()))
	put(famTxPkts, float64(s.txPkts.Load()))
	put(famTxMsgs, float64(s.txMsgs.Load()))
	put(famRxWait, float64(s.rxWaitNs.Load())/1e9)
	put(famEnforce, float64(s.enforceNs.Load())/1e9)
	put(famFlush, float64(s.flushNs.Load())/1e9)
	put(famRxTruncated, float64(s.rxTruncated.Load()))
	put(famShed, float64(s.shed.Load()))
	put(famWriteDropped, float64(s.writeDropped.Load()))
	if haveDrops {
		put(famKernelDrops, float64(kernelDrops))
	}
}

// render returns the families that have samples.
func (b *coreFamilies) render() []bcpqp.MetricsFamily {
	out := b.fams[:0]
	for _, f := range b.fams {
		if len(f.Samples) > 0 {
			out = append(out, f)
		}
	}
	return out
}
