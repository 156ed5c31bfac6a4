package phantom

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/units"
)

// SetRate implements enforcer.Reconfigurer: it changes the enforced
// aggregate rate in place, preserving phantom-queue occupancy (real and
// magic bytes), burst-control windows, and statistics.
//
// Order matters for the Theorem 1 piecewise bound: all lazy time-driven
// state is settled at the OLD rate first — the batched phantom drain
// consumes the budget accrued since the drain clock's last read at the rate
// that was in force while that time elapsed, and any expired burst-control
// windows are rolled against the old r_i*. Only then does the new rate take
// effect, so accepted bytes over an interval spanning the change stay within
// r_old·Δt_old + r_new·Δt_new + B. Resetting the queues instead (the
// teardown-and-re-add alternative) would re-admit up to B bytes instantly.
func (p *PQP) SetRate(now time.Duration, rate units.Rate) error {
	if rate <= 0 {
		return fmt.Errorf("phantom: non-positive rate %v", rate)
	}
	p.Tick(now) // settle drains and windows at the old rate
	p.cfg.Rate = rate
	p.sharesValid = false // r_i* shares scale with the aggregate rate
	return nil
}

var _ enforcer.Reconfigurer = (*PQP)(nil)
