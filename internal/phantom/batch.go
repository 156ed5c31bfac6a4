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
// What a burst pays once instead of per packet, each proved equivalent to
// the per-packet path:
//
//   - One drain-credit probe. At a fixed now the batched lazy drain
//     (advance) can fire at most once: after it runs, lastDrain == now and
//     the fractional carried credit is below one byte (always under
//     DrainBatch ≥ MSS); if it did not fire, the credit cannot grow without
//     time passing. Either way every later per-packet re-check is a
//     guaranteed no-op, so the batch path evaluates the credit condition
//     only the first time a packet finds its queue (apparently) full.
//
//   - One started/lastDrain initialization, and one read of the
//     configuration the loop tests (queue array and size, burst control and
//     its window, filter, RED, whether events are wanted): nothing a burst
//     can run changes them.
//
//   - One update of the aggregate statistics, counted in locals meanwhile.
//     Only a Filter or OnEvent hook could see (or, panicking, strand) the
//     difference, so with either installed each count is written through
//     before a hook can run.
//
// Window rolls are not on the list: closeWindow leaves a window shut or
// restarted at now, so for the rest of the burst windowDue — two loads and a
// compare on the queue line the decision reads anyway — is false, which is
// cheaper than remembering which classes have been looked at.
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
	var (
		queues       = p.queues
		queueSize    = p.cfg.QueueSize
		burstControl = p.cfg.BurstControl
		window       = p.cfg.Window
		filter       = p.cfg.Filter
		red          = p.red
		traced       = p.cfg.OnEvent != nil
		hooks        = traced || filter != nil
		drainProbed  = false
		st           enforcer.Stats // counted, not yet in p.stats; empty when a hook runs
	)
	for i := range pkts {
		pkt := &pkts[i]
		class := pkt.ClassIn(len(queues))
		q := &queues[class]
		size := int64(pkt.Size)

		if filter != nil && !filter(*pkt) {
			q.droppedPackets++
			q.droppedBytes += size
			p.stats.Reject(pkt.Size) // st is empty: a filter is a hook
			p.emitDrop(now, class, size, q.length, DropFilter)
			verdicts[i] = enforcer.Drop
			continue
		}

		if burstControl && q.windowDue(now, window) {
			p.closeWindow(now, class, q)
		}

		if q.length+size > queueSize || red != nil {
			if !drainProbed {
				drainProbed = true
				if p.drainCredit+p.cfg.Rate.Bytes(now-p.lastDrain) >= float64(p.cfg.DrainBatch) {
					p.advance(now)
				}
			}
		}
		markCE := false
		if red != nil && red[class].early(p.cfg.RED, q.length) {
			if p.cfg.RED.MarkECN && pkt.ECT {
				markCE = true
			} else {
				q.droppedPackets++
				q.droppedBytes += size
				st.DroppedPackets++
				st.DroppedBytes += size
				if hooks {
					st = p.addStats(st)
					p.emitDrop(now, class, size, q.length, DropRED)
				}
				verdicts[i] = enforcer.Drop
				continue
			}
		}
		if q.length+size > queueSize {
			q.droppedPackets++
			q.droppedBytes += size
			st.DroppedPackets++
			st.DroppedBytes += size
			if hooks {
				st = p.addStats(st)
				p.emitDrop(now, class, size, q.length, DropQueueFull)
			}
			verdicts[i] = enforcer.Drop
			continue
		}

		st.AcceptedPackets++
		st.AcceptedBytes += size
		if hooks {
			st = p.addStats(st)
		}
		p.accept(now, class, q, size)
		if markCE {
			p.emit(now, class, EventMark, size, q.length)
			verdicts[i] = enforcer.TransmitCE
			continue
		}
		if traced {
			p.emit(now, class, EventAccept, size, q.length)
		}
		verdicts[i] = enforcer.Transmit
	}
	p.addStats(st)
}

// addStats adds what a burst has counted to the aggregate statistics and
// returns the empty count to carry on with.
func (p *PQP) addStats(st enforcer.Stats) enforcer.Stats {
	p.stats.AcceptedPackets += st.AcceptedPackets
	p.stats.AcceptedBytes += st.AcceptedBytes
	p.stats.DroppedPackets += st.DroppedPackets
	p.stats.DroppedBytes += st.DroppedBytes
	return enforcer.Stats{}
}

var _ enforcer.BatchSubmitter = (*PQP)(nil)
