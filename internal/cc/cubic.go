package cc

import (
	"math"
	"time"

	"bcpqp/internal/units"
)

// cubic implements TCP Cubic (Ha, Rhee, Xu 2008; RFC 8312): window growth
// follows W(t) = C(t−K)³ + Wmax between loss events, with a TCP-friendly
// region matching Reno's throughput at small BDPs, multiplicative decrease
// by β = 0.7, and fast convergence.
type cubic struct {
	cwnd     int64
	ssthresh int64

	wMax       float64 // window before the last reduction, in MSS
	epochStart time.Duration
	epochSet   bool
	k          float64 // seconds until the plateau
	originW    float64 // window at epoch start, in MSS

	wEst   float64 // TCP-friendly (Reno-tracking) estimate, in MSS
	ackCnt float64

	lastRTT time.Duration
}

// Cubic constants per RFC 8312.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// newCubic returns a Cubic controller with the standard initial window.
func newCubic() *cubic {
	return &cubic{cwnd: initialWindow, ssthresh: 1 << 62}
}

// Name implements Controller.
func (c *cubic) Name() string { return "cubic" }

// OnAck implements Controller.
func (c *cubic) OnAck(a Ack) {
	if a.RTT > 0 {
		c.lastRTT = a.RTT
	}
	if c.cwnd < c.ssthresh {
		c.cwnd += a.Acked
		if c.cwnd > c.ssthresh {
			c.cwnd = c.ssthresh
		}
		return
	}
	c.update(a.Now, a.Acked)
}

// update advances the cubic function and grows cwnd toward its target.
func (c *cubic) update(now time.Duration, acked int64) {
	cwndPkts := float64(c.cwnd) / units.MSS
	if !c.epochSet {
		c.epochSet = true
		c.epochStart = now
		if cwndPkts < c.wMax {
			c.k = math.Cbrt((c.wMax - cwndPkts) / cubicC)
		} else {
			c.k = 0
			c.wMax = cwndPkts
		}
		c.originW = cwndPkts
		c.wEst = cwndPkts
		c.ackCnt = 0
	}

	rtt := c.lastRTT
	if rtt <= 0 {
		rtt = 100 * time.Millisecond
	}
	t := (now - c.epochStart + rtt).Seconds()
	target := cubicC*math.Pow(t-c.k, 3) + c.wMax

	// TCP-friendly region (RFC 8312 §4.2): track what Reno would reach.
	c.ackCnt += float64(acked) / units.MSS
	for c.ackCnt >= c.wEst {
		// Growth factor 3β/(2−β) per RFC's AIMD-friendly rate.
		c.ackCnt -= c.wEst
		c.wEst += 3 * (1 - cubicBeta) / (1 + cubicBeta)
	}
	if target < c.wEst {
		target = c.wEst
	}

	if target > cwndPkts {
		// Grow toward the target over the next RTT.
		inc := (target - cwndPkts) / cwndPkts * float64(acked)
		c.cwnd += int64(inc)
	} else {
		// Plateau: tiny growth keeps the clock moving.
		c.cwnd += int64(float64(acked) / (100 * cwndPkts))
	}
	if c.cwnd < minWindow {
		c.cwnd = minWindow
	}
}

// OnLoss implements Controller: multiplicative decrease with fast
// convergence.
func (c *cubic) OnLoss(time.Duration) {
	cwndPkts := float64(c.cwnd) / units.MSS
	if cwndPkts < c.wMax {
		// Fast convergence: release bandwidth faster when a flow's
		// share is shrinking.
		c.wMax = cwndPkts * (2 - cubicBeta) / 2
	} else {
		c.wMax = cwndPkts
	}
	c.cwnd = int64(cwndPkts * cubicBeta * units.MSS)
	if c.cwnd < minWindow {
		c.cwnd = minWindow
	}
	c.ssthresh = c.cwnd
	c.epochSet = false
}

// OnECN implements Controller: RFC 3168 — respond as to loss.
func (c *cubic) OnECN(now time.Duration) { c.OnLoss(now) }

// OnTimeout implements Controller.
func (c *cubic) OnTimeout(time.Duration) {
	c.OnLoss(0)
	c.cwnd = units.MSS
}

// CongestionWindow implements Controller.
func (c *cubic) CongestionWindow() int64 { return c.cwnd }

// PacingRate implements Controller; Cubic is ack-clocked here.
func (c *cubic) PacingRate() (units.Rate, bool) { return 0, false }

var _ Controller = (*cubic)(nil)
