// Cluster share application: the one engine entry point the distributed
// budget exchange is allowed to use. A rebalanced share travels through the
// exact same in-band lane as an operator SetRate — serialized onto the
// aggregate's shard between bursts, admission state preserved — so the
// piecewise Theorem-1 bound holds through every rebalance, and a
// misbehaving exchange can never do anything a hot reconfiguration could
// not. The only addition is attribution: a KindShareApply trace event
// distinguishes cluster rebalances from operator changes in the flight
// recorder.
package mbox

import (
	"bcpqp/internal/obs"
	"bcpqp/internal/units"
)

// ApplyShare applies a cluster-rebalanced share to aggregate id via the
// in-band SetRate lane and records a KindShareApply trace event (A = the
// share in bits/sec, B = 1 when it is the conservative fallback floor).
// Errors are SetRate's: unknown aggregate, ErrNotReconfigurable,
// ErrSaturated.
func (e *Engine) ApplyShare(id string, share units.Rate, fallback bool) error {
	if err := e.SetRate(id, share); err != nil {
		return err
	}
	ev := obs.Event{Kind: obs.KindShareApply, A: int64(share)}
	if fallback {
		ev.B = 1
	}
	e.recordControl(id, ev)
	return nil
}
