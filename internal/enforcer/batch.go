package enforcer

import (
	"time"

	"bcpqp/internal/packet"
)

// DefaultBurst is the burst size the datapath is tuned for: the rx_burst
// size of a DPDK-style middlebox (packets arrive from the NIC 32 at a
// time, not one channel send at a time). Callers may use any burst size;
// this is the recommended amortization window.
const DefaultBurst = 32

// BatchSubmitter is the burst-oriented capability interface: enforcers that
// implement it amortize per-packet overhead (clock handling, lazy drains,
// token refills, burst-control window checks) across a whole burst.
//
// SubmitBatch submits pkts, all arriving at virtual time now, and writes
// one verdict per packet into verdicts (which must have len(pkts) capacity;
// it is an out-parameter so steady-state burst processing performs no
// allocation). The verdicts are byte-identical to calling Submit(now, pkt)
// for each packet in order at the same now — batching is an efficiency
// transformation, never a semantic one. An enforcer with a native burst path
// has one admission loop, and its Submit is a burst of one through it, so
// the contract reads "a burst of N decides as N bursts of one".
type BatchSubmitter interface {
	SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []Verdict)
}

// SubmitBatch drives enf over a burst: natively when enf implements
// BatchSubmitter, otherwise through the generic per-packet fallback loop.
// verdicts must have at least len(pkts) elements.
func SubmitBatch(enf Enforcer, now time.Duration, pkts []packet.Packet, verdicts []Verdict) {
	if bs, ok := enf.(BatchSubmitter); ok {
		bs.SubmitBatch(now, pkts, verdicts)
		return
	}
	verdicts = verdicts[:len(pkts)]
	for i := range pkts {
		verdicts[i] = enf.Submit(now, pkts[i])
	}
}

// Batched adapts any Enforcer to BatchSubmitter: enforcers with a native
// burst path are returned unchanged, everything else is wrapped in a
// fallback that loops single Submits. The wrapper forwards Submit too, so
// it can stand in wherever an Enforcer is expected.
func Batched(enf Enforcer) BatchSubmitter {
	if bs, ok := enf.(BatchSubmitter); ok {
		return bs
	}
	return loopBatcher{enf}
}

// loopBatcher is the generic fallback wrapper around a batch-unaware
// enforcer.
type loopBatcher struct {
	Enforcer
}

// SubmitBatch implements BatchSubmitter by looping single Submits.
func (l loopBatcher) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []Verdict) {
	verdicts = verdicts[:len(pkts)]
	for i := range pkts {
		verdicts[i] = l.Submit(now, pkts[i])
	}
}
