package phantom

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// SetRate implements enforcer.Reconfigurer: it changes the enforced
// aggregate rate in place, preserving phantom-queue occupancy (real and
// magic bytes), burst-control windows, and statistics.
//
// Order matters for the Theorem 1 piecewise bound: all lazy time-driven
// state is settled at the OLD rate first — the batched phantom drain
// consumes the budget accrued since lastDrain at the rate that was in force
// while that time elapsed, and any expired burst-control windows are rolled
// against the old r_i*. Only then does the new rate take effect, so
// accepted bytes over an interval spanning the change stay within
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

// SetPolicy implements enforcer.Reconfigurer: it swaps the intra-aggregate
// rate-sharing policy in place. The new policy must cover exactly the
// configured number of queues; nil selects per-flow fairness. Queue
// occupancy is untouched — bytes already admitted under the old policy
// drain under the new one, exactly as a shaper's queued packets would be
// served by a reconfigured scheduler. The enforcer takes ownership of the
// policy object (policies carry scratch state and are not concurrency-safe).
func (p *PQP) SetPolicy(now time.Duration, policy *sched.Policy) error {
	if policy != nil && policy.NumClasses() != p.cfg.Queues {
		return fmt.Errorf("phantom: policy covers %d classes but enforcer has %d queues",
			policy.NumClasses(), p.cfg.Queues)
	}
	p.Tick(now) // settle drains and windows under the old policy
	p.installPolicy(policy)
	return nil
}

var _ enforcer.Reconfigurer = (*PQP)(nil)
