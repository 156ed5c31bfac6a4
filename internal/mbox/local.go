package mbox

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
)

// The occupancy word, and who runs a unit of shard work.
//
// Safety comes from a single CAS-guarded occupancy word per shard: whoever
// holds it has exclusive use of the shard's enforcement state (enforcers,
// verdict scratch, trace sampling state), and the CAS/Store pair carries the
// happens-before edge, so bursts, control operations, watchdog reads and
// Close interleave race-free whichever goroutine runs them. Three kinds of
// holder take it, all through claim:
//
//   - Engine.SubmitBatch, SubmitLeafBatch and every control call (claimIdle):
//     whoever finds the shard idle serves it. When the word is free AND no
//     earlier item is still pending, the caller runs the serve / runControl
//     body itself, on its own packets — no pooled burst, no copy, no channel,
//     no wake-up. Otherwise the unit is queued exactly as before and the
//     shard goroutine, the drainer of whatever was queued under contention,
//     serves it in order.
//   - The shard goroutine (acquire), around every item it pops.
//   - LocalSubmitter (tryAcquire): a run-to-completion datapath (the DPDK
//     deployment model the paper benchmarks against) that owns its shard
//     never queues: it waits up to ControlTimeout for the word and enforces
//     in place, or sheds.
//
// Ordering: a unit run by its caller is synchronous — when the call returns,
// the burst has been enforced and emitted — so it is strictly ordered with
// everything the same goroutine does before and after. claimIdle keeps the
// ring's order too: shard.pending counts the items sent and not yet
// completed, so a producer whose earlier burst is still queued (or popped but
// not yet served) queues behind it instead of overtaking it. Between a
// LocalSubmitter and bursts already queued on the shard ring there is no
// ordering: feed one aggregate through one ingress mode at a time (the
// per-core proxy pins one aggregate per core and never mixes).

// occupancy word states. occFree must be zero (the shard's zero value);
// occLocal is any holder other than the shard goroutine.
const (
	occFree  int32 = 0
	occShard int32 = 1
	occLocal int32 = 2
)

// ErrWrongShard reports a LocalSubmitter used against an aggregate owned by
// a different shard. Pin the aggregate to the submitter's shard with
// AddPinned. Test with errors.Is.
var ErrWrongShard = errors.New("aggregate not owned by this submitter's shard")

// claim takes the shard's occupancy word for who if it is free right now.
func (s *shard) claim(who int32) bool {
	return s.occ.CompareAndSwap(occFree, who)
}

// claimIdle claims the word for the calling goroutine when the shard is idle:
// the word is free and nothing is pending. The pending count, not the ring's
// length, is what keeps one producer's bursts in order: run pops an item
// before process acquires the word, so in between the ring is empty and the
// word free while the item has yet to be served.
func (s *shard) claimIdle() bool {
	return s.pending.Load() == 0 && s.claim(occLocal)
}

// acquire claims the shard's occupancy word for who, however long that takes.
func (s *shard) acquire(who int32) {
	s.tryAcquire(who, math.MaxInt64)
}

// claimSpins is how many yields a waiter spends on the word before it reads
// the clock and, from the second round on, sleeps; claimNapMax caps the sleep.
const (
	claimSpins  = 64
	claimNapMax = time.Millisecond
)

// tryAcquire waits for the word with a deadline: false means it could not be
// claimed within timeout (a wedged or abandoned holder), so the caller can
// degrade instead of waiting forever. The common contention — one burst or
// control item in flight — resolves in well under a microsecond, so the wait
// starts as a yielding spin. A holder that outlasts a round of spins is in
// user code (an emit hook doing I/O, or wedged): from then on the waiter
// sleeps between rounds, 1 µs doubling to 1 ms, so a shard goroutine behind a
// slow submitter costs a wake-up per millisecond, not a core.
func (s *shard) tryAcquire(who int32, timeout time.Duration) bool {
	if s.claim(who) {
		return true
	}
	var start time.Time
	var nap time.Duration
	for {
		for i := 0; i < claimSpins; i++ {
			runtime.Gosched()
			if s.claim(who) {
				return true
			}
		}
		now := time.Now()
		if start.IsZero() {
			start = now
		}
		left := timeout - now.Sub(start)
		if left <= 0 {
			return false
		}
		time.Sleep(min(nap, left))
		nap = min(max(2*nap, time.Microsecond), claimNapMax)
	}
}

// release frees the shard's occupancy word.
func (s *shard) release() {
	s.occ.Store(occFree)
}

// LocalSubmitter is a shard-affinity handle for ring-bypass burst
// submission. It is minted by Engine.LocalShard for one shard and may only
// submit to aggregates owned by that shard (AddPinned pins an aggregate to
// a chosen shard so a per-core worker can own core, shard, and aggregates
// together).
//
// A LocalSubmitter is a single-goroutine object: one worker drives one
// submitter. Distinct submitters for distinct shards run fully in parallel;
// two submitters for the same shard serialize on the occupancy word.
type LocalSubmitter struct {
	e *Engine
	s *shard
}

// LocalShard returns a ring-bypass submitter bound to shard index shard
// (pair with AddPinned, which places aggregates on chosen shards).
func (e *Engine) LocalShard(shard int) (*LocalSubmitter, error) {
	if shard < 0 || shard >= len(e.shards) {
		return nil, fmt.Errorf("mbox: shard %d out of range [0,%d)", shard, len(e.shards))
	}
	return &LocalSubmitter{e: e, s: e.shards[shard]}, nil
}

// Shard reports the index of the shard this submitter is bound to.
func (l *LocalSubmitter) Shard() int { return l.s.idx }

// SubmitBatch enforces one burst for h inline on the calling goroutine —
// no ring, no handoff, no copy: the engine never retains pkts (or their
// payloads) past the call, so the caller may reuse the backing buffers
// immediately, which is what makes a zero-copy rx→enforce→tx loop possible.
//
// The run is the ring path's (the same admit gate in front, the same serve
// body behind): same overload shed gate, same panic barrier and
// quarantine/degrade handling, same verdict tallies and trace sampling, same
// one-clock-read-per-burst arrival stamping — so a core that only ever
// submits inline still reads as alive to the watchdog, and its aggregates as
// active to the idle-TTL sweeper. Verdicts reach the aggregate's emit hook
// before SubmitBatch returns.
//
// Errors: ErrStale/invalid handle as usual; ErrWrongShard when h lives on a
// different shard; ErrSaturated when the shard's occupancy word could not
// be claimed within ControlTimeout (a wedged holder — the burst is counted
// shed, mirroring what a full ring does to the queued path).
func (l *LocalSubmitter) SubmitBatch(h Handle, pkts []packet.Packet) error {
	e, s := l.e, l.s
	agg, err := e.admit(h, len(pkts), s)
	if agg == nil {
		return err
	}
	if !s.tryAcquire(occLocal, e.cfg.ControlTimeout) {
		n := int64(len(pkts))
		e.Overloaded.Add(n)
		s.shed.Add(n)
		s.inlineFallbacks.Add(1)
		return fmt.Errorf("mbox: aggregate %q: %w", agg.id, ErrSaturated)
	}
	defer s.release()
	e.serve(s, agg, enforcer.NoNode, pkts)
	s.inlineBursts.Add(1)
	return nil
}
