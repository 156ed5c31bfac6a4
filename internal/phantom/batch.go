package phantom

import (
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
)

// SubmitBatch implements enforcer.Enforcer: it submits a burst of
// packets all arriving at virtual time now and writes one verdict per
// packet into verdicts. It is PQP's one admission loop: Submit is a burst of
// one. A burst must leave byte-identical verdicts, statistics and queue
// state to the same packets submitted as bursts of one at the same now,
// which the cross-scheme equivalence tests enforce.
//
// Each packet passes, in order: the access-control filter, which rejects on
// arrival by arbitrary criteria before any queue accounting (§3.3); a
// burst-control window roll; the batched lazy drain (advance); RED's early
// signal on the averaged simulated occupancy, a drop or, for an ECN-capable
// packet, a congestion-experienced mark (§3.3 AQM); and drop-tail admission
// on the simulated buffer.
//
// What a burst pays once instead of per packet, each proved equivalent to
// bursts of one:
//
//   - One drain-credit probe. At a fixed now the batched lazy drain
//     (advance) can fire at most once: after it runs, the drain clock reads
//     now and the fractional carried credit is below one byte (always under
//     drainBatch ≥ MSS); if it did not fire, the credit cannot grow without
//     time passing. Either way every later per-packet re-check is a
//     guaranteed no-op, so the loop evaluates the credit condition only the
//     first time a packet finds its queue (apparently) full.
//
//   - One drain-clock start, and one read of the configuration the loop
//     tests (queue array and size, burst control, filter, RED, whether
//     events are wanted): nothing a burst can run changes them.
//
//   - One update of the aggregate statistics, counted in locals meanwhile.
//     Only a Filter or SetOnEvent hook could see (or, panicking, strand) the
//     difference, so with either installed each count is written through
//     before a hook can run.
//
// Window rolls are not on the list: closeWindow leaves a window shut or
// restarted at now, so for the rest of the burst windowDue — two loads and a
// compare on the queue line the decision reads anyway — is false, which is
// cheaper than remembering which classes have been looked at.
func (p *PQP) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	if len(pkts) == 0 {
		return
	}
	// The drain accrues from the first arrival, not from the first drain,
	// which may come much later.
	if _, started := p.drainClock.Last(); !started {
		p.drainClock.Start(now)
	}
	var (
		queues       = p.queues
		queueSize    = p.cfg.QueueSize
		burstControl = p.cfg.BurstControl
		filter       = p.cfg.Filter
		red          = p.red
		traced       = p.onEvent != nil
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

		if burstControl && q.windowDue(now) {
			p.closeWindow(now, class, q)
		}

		if q.length+size > queueSize || red != nil {
			if !drainProbed {
				drainProbed = true
				if p.drainClock.Peek(now, p.cfg.Rate, p.drainCredit) >= float64(p.drainBatch) {
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
			p.emit(now, class, eventAccept, size, q.length)
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
