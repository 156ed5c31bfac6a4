// Package tcp implements the event-driven reliable transport that drives
// the congestion controllers of internal/cc through the simulated network.
//
// Each Flow bundles a sender and a receiver. Reliability uses selective
// acknowledgments: the receiver acknowledges every arriving segment
// individually (alongside the cumulative point), and the sender keeps a
// SACK scoreboard with an RFC 6675-style pipe model — a segment is marked
// lost once three segments sent after it have been acknowledged, losses are
// retransmitted from a queue, and a retransmission timeout remains as the
// last resort. This matches the Linux-kernel senders used in the paper's
// testbed, whose policer experiments depend on SACK surviving the long
// consecutive drop runs an empty token bucket produces.
//
// Segments are MSS-sized; flow sizes round up to whole segments. ACKs
// travel over the flow's reverse propagation delay and are not enforced
// (the middlebox polices one direction, as in the paper's testbed).
package tcp

import (
	"fmt"
	"time"

	"bcpqp/internal/cc"
	"bcpqp/internal/netem"
	"bcpqp/internal/packet"
	"bcpqp/internal/sim"
	"bcpqp/internal/units"
)

// dupThresh is the reordering tolerance: a segment is deemed lost once this
// many segments sent after it have been SACKed (RFC 6675 DupThresh).
const dupThresh = 3

// Config describes one flow.
type Config struct {
	// Loop is the event loop the flow runs on.
	Loop *sim.Loop
	// Key is the flow's 5-tuple, used by enforcers for classification.
	Key packet.FlowKey
	// Class optionally pins the flow to an explicit enforcer class
	// (queue index); packet.NoClass classifies by Key hash.
	Class int
	// CC is the flow's congestion controller.
	CC cc.Controller
	// RTT is the two-way propagation delay (no queueing component).
	RTT time.Duration
	// Path is the forward path from sender to receiver. The harness must
	// end the path at this flow's Deliver method.
	Path netem.Forward
	// Size is the number of bytes to send; 0 means backlogged (send
	// until the run ends). More data can be added later with AddData.
	Size int64
	// ECN marks outgoing segments ECN-capable; congestion-experienced
	// marks from AQM hops are echoed back and trigger the controller's
	// OnECN response (once per window, RFC 3168 style).
	ECN bool
	// DelayedAcks makes the receiver acknowledge every second in-order
	// segment (or after a 40 ms timer, or immediately on out-of-order
	// arrival), as kernel receivers do by default. Off by default: the
	// paper's policing dynamics are clearest with per-segment ACKs.
	DelayedAcks bool
	// OnDeliver, if set, is called for every data segment arriving at
	// the receiver (receiver-side throughput metering).
	OnDeliver func(now time.Duration, bytes int)
	// OnAcked, if set, is called whenever the cumulative acknowledgment
	// point advances, with the new prefix byte count.
	OnAcked func(now time.Duration, totalAcked int64)
	// OnComplete, if set, is called when a finite flow's last byte is
	// acknowledged.
	OnComplete func(now time.Duration)
}

// segState is the per-segment scoreboard entry.
type segState struct {
	sentAt          time.Duration
	deliveredAtSend int64
	sent            bool
	acked           bool
	lost            bool // marked lost and queued for retransmission
	retransmitted   bool
}

// Flow is one simulated TCP connection.
type Flow struct {
	cfg Config

	// Sender state. Sequence numbers count MSS-sized segments.
	sndUna     int64 // first unacknowledged segment
	sndNxt     int64 // next new segment to send
	limit      int64 // segments available to send (grows via AddData)
	backlogged bool

	board     ring  // SACK scoreboard
	maxSacked int64 // highest SACKed segment + 1 (loss-detection frontier)
	lossScan  int64 // first segment not yet examined for loss marking
	pipeSegs  int64 // segments believed in flight

	// RACK state (RFC 8985): the latest send time among delivered
	// segments. Any un-SACKed segment sent a reordering-window earlier
	// than this is lost — the rule that recovers mass tail drops, which
	// the DupThresh rule cannot see (no later segments to SACK).
	rackXmit    time.Duration
	rackScanned time.Duration
	minRTT      time.Duration // smallest RTT sample seen (ambiguity guard)

	inRecovery  bool
	recoveryEnd int64
	prrQuota    int64   // segments sendable during recovery (PRR, RFC 6937)
	ecnEnd      int64   // end of the current ECN response window
	rtx         []int64 // segments queued for retransmission

	delivered int64 // cumulative bytes acked (rate-sample baseline)

	// RTO state.
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoBackoff   int
	rtoTimer     *sim.Event
	tlpTimer     *sim.Event
	tlpCount     int // consecutive probes without cumulative progress

	// Pacing state.
	nextSendAt  time.Duration
	paceTimer   *sim.Event
	sendPending bool

	// Receiver state.
	rcvNxt int64
	ooo    map[int64]struct{}

	// Delayed-ACK state.
	unacked    int   // in-order segments received since the last ACK
	ceSinceAck bool  // CE seen since the last ACK
	lastSeq    int64 // newest segment received (SACK payload)
	delayTimer *sim.Event

	started  bool
	finished bool

	// Counters.
	SentSegments  int64
	RtxSegments   int64
	Timeouts      int64
	FastRetx      int64
	TLPProbes     int64
	ECNSignals    int64 // once-per-window congestion responses to CE
	CEMarks       int64 // CE-marked segments seen at the receiver
	DeliveredData int64 // bytes arrived at receiver (any order)
	ackEvents     int64 // acknowledgments generated by the receiver
}

// NewFlow validates cfg and returns a Flow. Call Start (or schedule it) to
// begin transmission.
func NewFlow(cfg Config) (*Flow, error) {
	if cfg.Loop == nil {
		return nil, fmt.Errorf("tcp: nil loop")
	}
	if cfg.CC == nil {
		return nil, fmt.Errorf("tcp: nil congestion controller")
	}
	if cfg.RTT <= 0 {
		return nil, fmt.Errorf("tcp: non-positive RTT %v", cfg.RTT)
	}
	if cfg.Path == nil {
		return nil, fmt.Errorf("tcp: nil path")
	}
	f := &Flow{
		cfg: cfg,
		ooo: make(map[int64]struct{}),
		rto: time.Second,
	}
	if cfg.Size == 0 {
		f.backlogged = true
		f.limit = 1 << 62
	} else {
		f.limit = (cfg.Size + units.MSS - 1) / units.MSS
	}
	return f, nil
}

// Start begins transmission at the loop's current time.
func (f *Flow) Start() {
	if f.started {
		return
	}
	f.started = true
	f.trySend(f.cfg.Loop.Now())
}

// AddData extends a finite flow by n bytes (rounded up to whole segments)
// and resumes sending. Used by application models for chunked transfers
// over a persistent connection.
func (f *Flow) AddData(n int64) {
	if f.backlogged || n <= 0 {
		return
	}
	f.limit += (n + units.MSS - 1) / units.MSS
	f.finished = false
	if f.started {
		f.trySend(f.cfg.Loop.Now())
	}
}

// pipeBytes returns the congestion-accounted bytes in flight.
func (f *Flow) pipeBytes() int64 { return f.pipeSegs * units.MSS }

// trySend transmits as much as the window (and pacing) allows,
// retransmissions first.
func (f *Flow) trySend(now time.Duration) {
	if f.finished || !f.started {
		return
	}
	for {
		seq, isRtx, ok := f.nextToSend()
		if !ok {
			return
		}
		if f.pipeBytes() >= f.cfg.CC.CongestionWindow() {
			return
		}
		// Proportional rate reduction (RFC 6937, conservation mode):
		// during loss recovery, transmissions are clocked by
		// deliveries rather than the full window, so a sender whose
		// retransmissions are themselves being dropped cannot keep
		// offering a multiple of the enforced rate.
		if f.inRecovery {
			if f.prrQuota <= 0 {
				return
			}
			f.prrQuota--
		}
		// Pacing: space transmissions at the controller's rate.
		if rate, paced := f.cfg.CC.PacingRate(); paced && rate > 0 {
			if now < f.nextSendAt {
				f.armPacing(now)
				return
			}
			gap := rate.DurationForBytes(units.MSS)
			if f.nextSendAt < now {
				f.nextSendAt = now
			}
			f.nextSendAt += gap
		}
		f.popSend(isRtx)
		f.transmit(now, seq, isRtx)
	}
}

// nextToSend picks the next segment (retransmissions first) without
// consuming it.
func (f *Flow) nextToSend() (seq int64, isRtx, ok bool) {
	for len(f.rtx) > 0 {
		s := f.rtx[0]
		if st, exists := f.board.get(s); exists && !st.acked {
			return s, true, true
		}
		f.rtx = f.rtx[1:] // already acked; discard
	}
	if f.sndNxt < f.limit {
		return f.sndNxt, false, true
	}
	return 0, false, false
}

// popSend consumes the segment chosen by nextToSend.
func (f *Flow) popSend(isRtx bool) {
	if isRtx {
		f.rtx = f.rtx[1:]
	} else {
		f.sndNxt++
	}
}

// transmit sends one segment into the path and arms the RTO.
func (f *Flow) transmit(now time.Duration, seq int64, isRtx bool) {
	f.SentSegments++
	if isRtx {
		f.RtxSegments++
	}
	f.board.put(seq, segState{
		sentAt:          now,
		deliveredAtSend: f.delivered,
		sent:            true,
		retransmitted:   isRtx,
	})
	f.pipeSegs++
	pkt := packet.Packet{
		Key:   f.cfg.Key,
		Size:  units.MSS,
		Class: f.cfg.Class,
		Seq:   seq,
		ECT:   f.cfg.ECN,
	}
	f.armRTO(now)
	f.cfg.Path(now, pkt)
}

// armPacing schedules the pacing-gated send.
func (f *Flow) armPacing(now time.Duration) {
	if f.sendPending {
		return
	}
	f.sendPending = true
	at := f.nextSendAt
	if at < now {
		at = now
	}
	f.paceTimer = f.cfg.Loop.At(at, func() {
		f.sendPending = false
		f.trySend(at)
	})
}

// Deliver is the receiver's entry point; harness paths must terminate here.
func (f *Flow) Deliver(now time.Duration, pkt packet.Packet) {
	f.DeliveredData += int64(pkt.Size)
	if f.cfg.OnDeliver != nil {
		f.cfg.OnDeliver(now, pkt.Size)
	}
	seq := pkt.Seq
	wasExpected := seq == f.rcvNxt
	if seq >= f.rcvNxt {
		if _, dup := f.ooo[seq]; !dup {
			f.ooo[seq] = struct{}{}
			for {
				if _, ok := f.ooo[f.rcvNxt]; !ok {
					break
				}
				delete(f.ooo, f.rcvNxt)
				f.rcvNxt++
			}
		}
	}
	if pkt.CE {
		f.CEMarks++
		f.ceSinceAck = true
	}
	f.lastSeq = seq

	if !f.cfg.DelayedAcks {
		f.sendAck(now, seq)
		return
	}
	// Delayed ACKs (RFC 1122): every second in-order segment, any
	// out-of-order arrival, or the 40 ms delayed-ACK timer.
	f.unacked++
	if !wasExpected || f.unacked >= 2 {
		f.sendAck(now, seq)
		return
	}
	if f.delayTimer == nil || f.delayTimer.Cancelled() {
		f.delayTimer = f.cfg.Loop.At(now+40*time.Millisecond, func() {
			if f.unacked > 0 {
				f.sendAck(f.cfg.Loop.Now(), f.lastSeq)
			}
		})
	}
}

// sendAck emits one acknowledgment (cumulative point + SACK of seq + ECN
// echo) over the reverse propagation delay.
func (f *Flow) sendAck(now time.Duration, seq int64) {
	f.ackEvents++
	f.unacked = 0
	ce := f.ceSinceAck
	f.ceSinceAck = false
	f.cfg.Loop.Cancel(f.delayTimer)
	cum := f.rcvNxt
	ackAt := now + f.cfg.RTT/2
	f.cfg.Loop.At(ackAt, func() { f.onAck(ackAt, cum, seq, ce) })
}

// onAck processes one acknowledgment at the sender. cum is the receiver's
// cumulative point; sack is the individual segment being acknowledged; ce
// echoes the segment's ECN congestion-experienced mark.
func (f *Flow) onAck(now time.Duration, cum, sack int64, ce bool) {
	if f.finished {
		return
	}
	// ECN response, once per window of data (RFC 3168).
	if ce && sack >= f.ecnEnd {
		f.ecnEnd = f.sndNxt
		f.ECNSignals++
		f.cfg.CC.OnECN(now)
	}
	var ackedBytes int64
	var rttSample time.Duration
	var bwSample units.Rate

	if st, ok := f.board.get(sack); ok && st.sent && !st.acked {
		if !st.lost {
			f.pipeSegs--
		}
		f.delivered += units.MSS
		ackedBytes = units.MSS
		if !st.retransmitted {
			rttSample = now - st.sentAt
			if dt := now - st.sentAt; dt > 0 {
				bwSample = units.Rate(float64(f.delivered-st.deliveredAtSend) * 8 / dt.Seconds())
			}
		}
		st.acked = true
		st.lost = false
		f.board.update(sack, st)
		if sack >= f.maxSacked {
			f.maxSacked = sack + 1
		}
		// RACK ambiguity guard (RFC 8985 §6.1): for a retransmitted
		// segment, the ACK may be for the original transmission. If it
		// returned faster than the minimum path RTT it cannot be for
		// the retransmission, so its send time must not advance the
		// RACK clock (doing so would spuriously mark the whole window
		// lost and trigger retransmission storms).
		ambiguous := st.retransmitted && f.minRTT > 0 && now-st.sentAt < f.minRTT
		if st.sentAt > f.rackXmit && !ambiguous {
			f.rackXmit = st.sentAt
		}
	}

	// Advance the cumulative point, freeing scoreboard entries.
	prevUna := f.sndUna
	if cum > prevUna {
		f.tlpCount = 0
	}
	target := cum
	if target > f.sndNxt {
		target = f.sndNxt
	}
	for f.sndUna < target {
		st, ok := f.board.get(f.sndUna)
		if ok && !st.acked {
			// Cumulative point says delivered but we never saw the
			// per-segment ack (possible after a timeout rewind):
			// account it now.
			if st.sent && !st.lost {
				f.pipeSegs--
			}
			f.delivered += units.MSS
		}
		f.board.clear(f.sndUna)
		f.sndUna++
	}
	if f.lossScan < f.sndUna {
		f.lossScan = f.sndUna
	}

	f.markLosses(now)
	f.rackScan(now)

	if f.inRecovery && f.sndUna >= f.recoveryEnd {
		f.inRecovery = false
	}

	if rttSample > 0 {
		f.updateRTO(rttSample)
		if f.minRTT == 0 || rttSample < f.minRTT {
			f.minRTT = rttSample
		}
	}
	if ackedBytes > 0 {
		if f.inRecovery {
			f.prrQuota++
		}
		f.rtoBackoff = 0
		f.cfg.CC.OnAck(cc.Ack{
			Now:             now,
			RTT:             rttSample,
			Acked:           ackedBytes,
			Inflight:        f.pipeBytes(),
			BandwidthSample: bwSample,
		})
	}
	if f.sndUna > prevUna && f.cfg.OnAcked != nil {
		f.cfg.OnAcked(now, f.sndUna*units.MSS)
	}

	if !f.backlogged && f.sndUna >= f.limit {
		f.complete(now)
		return
	}
	f.armRTO(now)
	f.trySend(now)
}

// markLosses applies the RFC 6675 rule: every sent, un-SACKed segment with
// at least dupThresh SACKed segments after it is lost. The scan frontier
// advances monotonically so each segment is examined once per epoch.
func (f *Flow) markLosses(now time.Duration) {
	frontier := f.maxSacked - dupThresh
	if frontier > f.sndNxt {
		frontier = f.sndNxt
	}
	newLoss := false
	for s := f.lossScan; s < frontier; s++ {
		st, ok := f.board.get(s)
		if !ok || !st.sent || st.acked || st.lost {
			continue
		}
		st.lost = true
		f.board.update(s, st)
		f.pipeSegs--
		f.rtx = append(f.rtx, s)
		newLoss = true
	}
	if frontier > f.lossScan {
		f.lossScan = frontier
	}
	if newLoss {
		f.enterRecovery(now)
	}
}

// rackScan applies the RACK rule: any sent, un-SACKed, un-marked segment
// whose (re)transmission happened more than a reordering window before the
// newest delivered segment's send time is lost. The scan is rate-limited to
// once per reordering window of virtual time to keep per-ack cost constant.
func (f *Flow) rackScan(now time.Duration) {
	if f.rackXmit == 0 {
		return
	}
	reoWnd := f.srtt / 4
	if reoWnd < time.Millisecond {
		reoWnd = time.Millisecond
	}
	if now < f.rackScanned+reoWnd {
		return
	}
	f.rackScanned = now
	threshold := f.rackXmit - reoWnd
	newLoss := false
	for s := f.sndUna; s < f.sndNxt; s++ {
		st, ok := f.board.get(s)
		if !ok || !st.sent || st.acked || st.lost {
			continue
		}
		if st.sentAt >= threshold {
			continue
		}
		st.lost = true
		f.board.update(s, st)
		f.pipeSegs--
		f.rtx = append(f.rtx, s)
		newLoss = true
	}
	if newLoss {
		f.enterRecovery(now)
	}
}

// enterRecovery counts a fast-retransmit event and signals the controller
// once per window of data.
func (f *Flow) enterRecovery(now time.Duration) {
	f.FastRetx++
	if !f.inRecovery {
		f.inRecovery = true
		f.recoveryEnd = f.sndNxt
		f.prrQuota = 1 // allow the first retransmission out immediately
		f.cfg.CC.OnLoss(now)
	}
}

// updateRTO maintains SRTT/RTTVAR per RFC 6298 with a 200 ms floor
// (Linux's minimum).
func (f *Flow) updateRTO(sample time.Duration) {
	if f.srtt == 0 {
		f.srtt = sample
		f.rttvar = sample / 2
	} else {
		d := f.srtt - sample
		if d < 0 {
			d = -d
		}
		f.rttvar = (3*f.rttvar + d) / 4
		f.srtt = (7*f.srtt + sample) / 8
	}
	f.rto = f.srtt + 4*f.rttvar
	if f.rto < 200*time.Millisecond {
		f.rto = 200 * time.Millisecond
	}
}

// outstanding reports whether any data is unacknowledged or queued.
func (f *Flow) outstanding() bool {
	return f.sndUna < f.sndNxt || len(f.rtx) > 0
}

// armRTO (re)schedules the retransmission and tail-loss-probe timers.
func (f *Flow) armRTO(now time.Duration) {
	f.cfg.Loop.Cancel(f.rtoTimer)
	f.cfg.Loop.Cancel(f.tlpTimer)
	if !f.outstanding() {
		f.rtoTimer = nil
		f.tlpTimer = nil
		return
	}
	d := f.rto << f.rtoBackoff
	if d > time.Minute {
		d = time.Minute
	}
	f.rtoTimer = f.cfg.Loop.At(now+d, func() { f.onTimeout(now + d) })

	// Tail loss probe (RFC 8985 / Linux TLP): if acknowledgments go
	// silent for ~2 SRTT while data is outstanding — the window-limited
	// tail-drop case where no later segments exist to trigger SACK loss
	// detection — retransmit the first hole without collapsing the
	// window. At most two consecutive probes fire without cumulative
	// progress; after that the RTO takes over (probing a path that is
	// dropping retransmissions too must not starve full recovery).
	p := 2 * f.srtt
	if p < 10*time.Millisecond {
		p = 10 * time.Millisecond
	}
	if f.srtt > 0 && p < d && f.tlpCount < 2 {
		f.tlpTimer = f.cfg.Loop.At(now+p, func() { f.onTLP(now + p) })
	}
}

// onTLP retransmits the first unacknowledged segment as a loss probe. The
// probe is sent regardless of the congestion window (as Linux TLP does):
// when the entire tail of the window was dropped, the pipe estimate stays
// pinned at the window and a window-gated probe could never leave.
func (f *Flow) onTLP(now time.Duration) {
	if f.finished || !f.outstanding() {
		return
	}
	f.TLPProbes++
	f.tlpCount++
	probe := f.sndUna
	if st, ok := f.board.get(probe); ok && st.sent && !st.acked {
		if !st.lost {
			st.lost = true
			f.board.update(probe, st)
			f.pipeSegs--
		}
		// Drop a queued copy so the probe is not sent twice.
		for i, s := range f.rtx {
			if s == probe {
				f.rtx = append(f.rtx[:i], f.rtx[i+1:]...)
				break
			}
		}
		f.transmit(now, probe, true) // re-arms RTO and TLP
		return
	}
	f.trySend(now)
	if f.outstanding() && (f.tlpTimer == nil || f.tlpTimer.Cancelled()) {
		p := 2 * f.srtt
		if p < 10*time.Millisecond {
			p = 10 * time.Millisecond
		}
		f.tlpTimer = f.cfg.Loop.At(now+p, func() { f.onTLP(now + p) })
	}
}

// onTimeout retransmits everything outstanding (the scoreboard equivalent
// of go-back-N) after collapsing the window.
func (f *Flow) onTimeout(now time.Duration) {
	if f.finished || !f.outstanding() {
		return
	}
	f.Timeouts++
	f.rtx = f.rtx[:0]
	f.pipeSegs = 0
	for s := f.sndUna; s < f.sndNxt; s++ {
		st, ok := f.board.get(s)
		if !ok || st.acked {
			continue
		}
		st.lost = true
		f.board.update(s, st)
		f.rtx = append(f.rtx, s)
	}
	f.lossScan = f.sndUna
	f.inRecovery = false
	f.tlpCount = 0
	f.rtoBackoff++
	if f.rtoBackoff > 6 {
		f.rtoBackoff = 6
	}
	f.cfg.CC.OnTimeout(now)
	f.armRTO(now)
	f.trySend(now)
}

// complete finalizes a finite flow.
func (f *Flow) complete(now time.Duration) {
	f.finished = true
	f.cfg.Loop.Cancel(f.rtoTimer)
	f.cfg.Loop.Cancel(f.paceTimer)
	f.sendPending = false
	if f.cfg.OnComplete != nil {
		f.cfg.OnComplete(now)
	}
}

// ring is a growable circular buffer of scoreboard entries indexed by
// segment sequence number. It avoids per-segment map allocation on the hot
// path.
type ring struct {
	recs  []segState
	used  []bool
	base  int64 // lowest sequence number retained
	limit int64 // highest stored sequence + 1
}

func (r *ring) ensure(seq int64) {
	if r.recs == nil {
		r.recs = make([]segState, 512)
		r.used = make([]bool, 512)
		r.base = seq
		r.limit = seq
	}
	for seq-r.base >= int64(len(r.recs)) {
		r.grow()
	}
}

func (r *ring) put(seq int64, st segState) {
	r.ensure(seq)
	if seq < r.base {
		return // too old to track
	}
	i := seq % int64(len(r.recs))
	r.recs[i] = st
	r.used[i] = true
	if seq+1 > r.limit {
		r.limit = seq + 1
	}
}

func (r *ring) update(seq int64, st segState) { r.put(seq, st) }

func (r *ring) get(seq int64) (segState, bool) {
	if r.recs == nil || seq < r.base || seq >= r.limit {
		return segState{}, false
	}
	i := seq % int64(len(r.recs))
	if !r.used[i] {
		return segState{}, false
	}
	return r.recs[i], true
}

func (r *ring) clear(seq int64) {
	if r.recs == nil || seq < r.base || seq >= r.limit {
		return
	}
	i := seq % int64(len(r.recs))
	r.recs[i] = segState{}
	r.used[i] = false
	for r.base < r.limit {
		j := r.base % int64(len(r.recs))
		if r.used[j] {
			break
		}
		r.base++
	}
}

func (r *ring) grow() {
	oldRecs, oldUsed := r.recs, r.used
	n := int64(len(oldRecs))
	recs := make([]segState, 2*n)
	used := make([]bool, 2*n)
	for seq := r.base; seq < r.limit; seq++ {
		if oldUsed[seq%n] {
			recs[seq%(2*n)] = oldRecs[seq%n]
			used[seq%(2*n)] = true
		}
	}
	r.recs = recs
	r.used = used
}
