package cc

import (
	"time"

	"bcpqp/internal/units"
)

// vegas implements TCP Vegas (Brakmo & Peterson 1994): a delay-based
// algorithm that keeps between alpha and beta segments queued at the
// bottleneck by comparing expected (cwnd/baseRTT) and actual (cwnd/RTT)
// throughput once per round trip.
//
// Vegas matters to the evaluation because it backs off on queueing delay:
// through a buffering shaper it is the least aggressive competitor, while
// the bufferless phantom-queue policer adds no delay and lets it keep its
// fair share.
type vegas struct {
	cwnd     int64
	ssthresh int64

	baseRTT time.Duration
	lastRTT time.Duration

	epochStart time.Duration
	ssToggle   bool // slow start doubles every other RTT
}

// Vegas thresholds in segments.
const (
	vegasAlpha = 2
	vegasBeta  = 4
	vegasGamma = 1
)

// newVegas returns a Vegas controller.
func newVegas() *vegas {
	return &vegas{cwnd: initialWindow, ssthresh: 1 << 62}
}

// Name implements Controller.
func (v *vegas) Name() string { return "vegas" }

// OnAck implements Controller.
func (v *vegas) OnAck(a Ack) {
	if a.RTT > 0 {
		v.lastRTT = a.RTT
		if v.baseRTT == 0 || a.RTT < v.baseRTT {
			v.baseRTT = a.RTT
		}
	}
	if v.baseRTT == 0 || v.lastRTT == 0 {
		return
	}
	// Adjust once per round trip.
	if v.epochStart == 0 {
		v.epochStart = a.Now
		return
	}
	if a.Now-v.epochStart < v.lastRTT {
		return
	}
	v.epochStart = a.Now

	// diff = (expected − actual) × baseRTT, in segments: the number of
	// segments this flow keeps queued at the bottleneck.
	cwndSeg := float64(v.cwnd) / units.MSS
	expected := cwndSeg / v.baseRTT.Seconds()
	actual := cwndSeg / v.lastRTT.Seconds()
	diff := (expected - actual) * v.baseRTT.Seconds()

	if v.cwnd < v.ssthresh {
		// Slow start: double every other RTT while diff stays small.
		if diff > vegasGamma {
			v.ssthresh = v.cwnd
			v.cwnd -= int64(diff * units.MSS)
			if v.cwnd < minWindow {
				v.cwnd = minWindow
			}
			return
		}
		v.ssToggle = !v.ssToggle
		if v.ssToggle {
			v.cwnd *= 2
		}
		return
	}

	switch {
	case diff < vegasAlpha:
		v.cwnd += units.MSS
	case diff > vegasBeta:
		v.cwnd -= units.MSS
	}
	if v.cwnd < minWindow {
		v.cwnd = minWindow
	}
}

// OnLoss implements Controller: Vegas falls back to Reno-style halving on
// packet loss.
func (v *vegas) OnLoss(time.Duration) {
	v.cwnd /= 2
	if v.cwnd < minWindow {
		v.cwnd = minWindow
	}
	v.ssthresh = v.cwnd
}

// OnECN implements Controller: RFC 3168 — respond as to loss.
func (v *vegas) OnECN(now time.Duration) { v.OnLoss(now) }

// OnTimeout implements Controller.
func (v *vegas) OnTimeout(time.Duration) {
	v.ssthresh = v.cwnd / 2
	if v.ssthresh < minWindow {
		v.ssthresh = minWindow
	}
	v.cwnd = units.MSS
}

// CongestionWindow implements Controller.
func (v *vegas) CongestionWindow() int64 { return v.cwnd }

// PacingRate implements Controller; Vegas is ack-clocked.
func (v *vegas) PacingRate() (units.Rate, bool) { return 0, false }

var _ Controller = (*vegas)(nil)
