package enforcer

import (
	"time"

	"bcpqp/internal/units"
)

// Reconfigurer is the live-reconfiguration capability: enforcers that
// implement it can change their enforced rate *in place*, preserving all
// admission state — phantom queue occupancy (real and magic bytes),
// burst-control window accounting, token levels, and statistics. This is
// what makes a subscriber's rate-plan change a control-plane operation
// instead of a teardown: tearing an aggregate down and re-adding it resets
// its enforcer to the empty state, which briefly voids the Theorem 1 bound
// (an empty phantom queue or a full token bucket re-admits a
// slow-start-sized burst). The rate-sharing policy is part of how an
// enforcer is built and does not change while it runs.
//
// SetRate takes the current virtual time so the enforcer can settle
// time-driven state (lazy phantom drains, token refills) at the OLD rate
// before switching: elapsed virtual time is always accounted at the rate
// that was in force while it elapsed, which is exactly what makes the
// Theorem 1 admission bound hold piecewise across a change — accepted bytes
// over [t0, t2] with a change at t1 stay within r1·(t1−t0) + r2·(t2−t1) + B.
//
// Reconfiguration is NOT safe concurrently with Submit: callers must
// serialize it onto the enforcer's execution domain, exactly as the mbox
// engine's SetRate does (the change rides the shard ring in-band, so no
// partially applied configuration is ever visible to a running batch).
type Reconfigurer interface {
	// SetRate changes the enforced aggregate rate at virtual time now.
	// The rate must be positive.
	SetRate(now time.Duration, rate units.Rate) error
}
