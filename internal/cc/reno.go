package cc

import (
	"time"

	"bcpqp/internal/units"
)

// reno implements TCP New Reno congestion control (RFC 5681/6582 core
// behaviour): slow start doubling per RTT, additive increase of one MSS per
// RTT in congestion avoidance, and multiplicative decrease to half on loss.
//
// The paper's Appendix A analysis of phantom-queue sizing is written against
// this algorithm: in steady state against a phantom queue drained at rate r,
// Reno's instantaneous rate oscillates between 2r/3 and 4r/3.
type reno struct {
	cwnd     int64
	ssthresh int64
	// acc accumulates acked bytes in congestion avoidance; each time it
	// crosses cwnd the window grows by one MSS (byte-counting form of
	// the cwnd += 1/cwnd rule).
	acc int64
}

// newReno returns a New Reno controller with the standard initial window.
func newReno() *reno {
	return &reno{cwnd: initialWindow, ssthresh: 1 << 62}
}

// Name implements Controller.
func (r *reno) Name() string { return "reno" }

// OnAck implements Controller.
func (r *reno) OnAck(a Ack) {
	if r.cwnd < r.ssthresh {
		// Slow start: grow by the acked bytes (doubles per RTT).
		r.cwnd += a.Acked
		if r.cwnd > r.ssthresh {
			r.cwnd = r.ssthresh
		}
		return
	}
	// Congestion avoidance: one MSS per window of acked data.
	r.acc += a.Acked
	for r.acc >= r.cwnd {
		r.acc -= r.cwnd
		r.cwnd += units.MSS
	}
}

// OnLoss implements Controller: halve the window (New Reno fast recovery
// sets cwnd to ssthresh on recovery; the transport signals loss once per
// window).
func (r *reno) OnLoss(time.Duration) {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < minWindow {
		r.ssthresh = minWindow
	}
	r.cwnd = r.ssthresh
	r.acc = 0
}

// OnECN implements Controller: RFC 3168 — respond as to loss.
func (r *reno) OnECN(now time.Duration) { r.OnLoss(now) }

// OnTimeout implements Controller: collapse to one segment and re-enter
// slow start.
func (r *reno) OnTimeout(time.Duration) {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < minWindow {
		r.ssthresh = minWindow
	}
	r.cwnd = units.MSS
	r.acc = 0
}

// CongestionWindow implements Controller.
func (r *reno) CongestionWindow() int64 { return r.cwnd }

// PacingRate implements Controller; Reno is purely ack-clocked.
func (r *reno) PacingRate() (units.Rate, bool) { return 0, false }

var _ Controller = (*reno)(nil)
