package phantom

import (
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
)

// SubmitBatch implements enforcer.BatchSubmitter: it submits a burst of
// packets all arriving at virtual time now and writes one verdict per
// packet into verdicts, producing byte-identical verdicts, statistics and
// queue state to calling Submit for each packet in order at the same now.
//
// The burst amortizations, each proved equivalent to the per-packet path:
//
//   - One drain-credit probe per burst. At a fixed now the batched lazy
//     drain (advance) can fire at most once: after it runs, lastDrain ==
//     now and the fractional carried credit is below one byte (always
//     under DrainBatch ≥ MSS); if it did not fire, the credit cannot grow
//     without time passing. Either way every later per-packet re-check is
//     a guaranteed no-op, so the batch path evaluates the credit condition
//     only the first time a packet finds its queue (apparently) full.
//
//   - One burst-control window roll per class per burst. rollWindow at a
//     fixed now is idempotent: the first call either no-ops or re-opens
//     the window with windowStart = now, and now < now + T makes every
//     repeat a no-op. A per-burst bitmask marks the classes already rolled.
//
//   - One started/lastDrain initialization per burst.
//
// The per-packet decision logic (RED, filter, drop-tail admission,
// accept/window accounting) is unchanged — it is identical statement-for-
// statement with Submit, which the cross-scheme equivalence tests enforce.
func (p *PQP) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	if len(pkts) == 0 {
		return
	}
	if !p.started {
		p.started = true
		p.lastDrain = now
	}
	for c := 0; c < len(p.queues); c += 64 {
		*p.rolledWord(c) = 0
	}
	drainProbed := false
	for i := range pkts {
		pkt := &pkts[i]
		class := pkt.ClassIn(p.cfg.Queues)
		q := &p.queues[class]
		size := int64(pkt.Size)

		if p.cfg.Filter != nil && !p.cfg.Filter(*pkt) {
			q.droppedPackets++
			q.droppedBytes += size
			p.stats.Reject(pkt.Size)
			p.emitDrop(now, class, size, q.length, DropFilter)
			verdicts[i] = enforcer.Drop
			continue
		}

		if p.cfg.BurstControl {
			if w, bit := p.rolledWord(class), uint64(1)<<(class&63); *w&bit == 0 {
				*w |= bit
				p.rollWindow(now, class)
			}
		}

		if q.length+size > p.cfg.QueueSize || p.red != nil {
			if !drainProbed {
				drainProbed = true
				if p.drainCredit+p.cfg.Rate.Bytes(now-p.lastDrain) >= float64(p.cfg.DrainBatch) {
					p.advance(now)
				}
			}
		}
		markCE := false
		if p.red != nil && p.red[class].early(p.cfg.RED, q.length) {
			if p.cfg.RED.MarkECN && pkt.ECT {
				markCE = true
			} else {
				q.droppedPackets++
				q.droppedBytes += size
				p.stats.Reject(pkt.Size)
				p.emitDrop(now, class, size, q.length, DropRED)
				verdicts[i] = enforcer.Drop
				continue
			}
		}
		if q.length+size > p.cfg.QueueSize {
			q.droppedPackets++
			q.droppedBytes += size
			p.stats.Reject(pkt.Size)
			p.emitDrop(now, class, size, q.length, DropQueueFull)
			verdicts[i] = enforcer.Drop
			continue
		}

		p.accept(now, class, q, size)
		if markCE {
			p.emit(now, class, EventMark, size, q.length)
			verdicts[i] = enforcer.TransmitCE
			continue
		}
		p.emit(now, class, EventAccept, size, q.length)
		verdicts[i] = enforcer.Transmit
	}
}

var _ enforcer.BatchSubmitter = (*PQP)(nil)
