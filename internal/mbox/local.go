package mbox

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"bcpqp/internal/packet"
)

// The occupancy word, and who runs a unit of shard work.
//
// Safety comes from a single CAS-guarded occupancy word per shard: whoever
// holds it has exclusive use of the shard's enforcement state (enforcers,
// verdict scratch, trace sampling state), and the CAS/Store pair carries the
// happens-before edge, so bursts, control operations, health reads and
// Close interleave race-free whichever goroutine runs them. Every unit of
// shard work is served by the goroutine that brings it, by one rule:
// Engine.SubmitBatch, LocalSubmitter.SubmitBatch (Engine.submit) and every
// control call (Engine.controlAgg) wait for the word (tryAcquire), run the
// serve / serveControl body on their own goroutine and their own packets —
// no copy, no channel, no wake-up — and let the word go. The wait gives up
// only once the shard reads wedged (shard.wedged): a burst is then refused
// and counted, a control call reports ErrSaturated. This is the
// run-to-completion datapath of the DPDK deployment model the paper
// benchmarks against.
//
// Ordering: a unit is synchronous — when the call returns, the burst has
// been enforced and emitted — so it is strictly ordered with everything the
// same goroutine does before and after. Units from different goroutines are
// served in the order they take the word.

// ErrWrongShard reports a LocalSubmitter used against an aggregate owned by
// a different shard. Pin the aggregate to the submitter's shard with
// AddPinned. Test with errors.Is.
var ErrWrongShard = errors.New("aggregate not owned by this submitter's shard")

// claim takes the shard's occupancy word if it is free right now.
func (s *shard) claim() bool {
	return s.occ.CompareAndSwap(false, true)
}

// claimSpins is how many yields a waiter spends on the word before it reads
// the clock and, from the second round on, sleeps; claimNapMax caps the sleep.
const (
	claimSpins  = 64
	claimNapMax = time.Millisecond
)

// tryAcquire waits for the word until giveUp, asked once per round with the
// wall clock in Unix nanoseconds, says to stop: false means the word was not
// claimed, so the caller can degrade instead of waiting forever. Submitters
// and control calls give up only on a wedged shard (shard.wedged), Close at
// its deadline. The common contention — one burst or control call in
// flight — resolves in well under a microsecond, so the wait starts as a
// yielding spin. A holder that outlasts a round of spins is in user code (an
// emit hook doing I/O, or wedged): from then on the waiter sleeps between
// rounds, 1 µs doubling to 1 ms, so a goroutine behind a slow holder costs a
// wake-up per millisecond, not a core.
func (s *shard) tryAcquire(giveUp func(now int64) bool) bool {
	if s.claim() {
		return true
	}
	var nap time.Duration
	for {
		for i := 0; i < claimSpins; i++ {
			runtime.Gosched()
			if s.claim() {
				return true
			}
		}
		if giveUp(time.Now().UnixNano()) {
			return false
		}
		time.Sleep(nap)
		nap = min(max(2*nap, time.Microsecond), claimNapMax)
	}
}

// release frees the shard's occupancy word.
func (s *shard) release() {
	s.occ.Store(false)
}

// LocalSubmitter is a shard-affinity handle for burst submission. It is
// minted by Engine.LocalShard for one shard and may only submit to
// aggregates owned by that shard (AddPinned pins an aggregate to a chosen
// shard so a per-core worker can own core, shard, and aggregates together).
//
// A LocalSubmitter is a single-goroutine object: one worker drives one
// submitter. Distinct submitters for distinct shards run fully in parallel;
// two submitters for the same shard serialize on the occupancy word.
type LocalSubmitter struct {
	e *Engine
	s *shard
}

// LocalShard returns a submitter bound to shard index shard (pair with
// AddPinned, which places aggregates on chosen shards).
func (e *Engine) LocalShard(shard int) (*LocalSubmitter, error) {
	if shard < 0 || shard >= len(e.shards) {
		return nil, fmt.Errorf("mbox: shard %d out of range [0,%d)", shard, len(e.shards))
	}
	return &LocalSubmitter{e: e, s: e.shards[shard]}, nil
}

// SubmitBatch is Engine.SubmitBatch for an aggregate on the submitter's
// shard: the same admit gate in front, the same wait for the occupancy word
// and the same serve body behind, counted in Engine.InlineBursts. The engine
// never retains pkts (or their payloads) past the call, so the caller may
// reuse the backing buffers immediately, which is what makes a zero-copy
// rx→enforce→tx loop possible, and verdicts reach the aggregate's emit hook
// before SubmitBatch returns.
//
// Errors: ErrStale/invalid handle as usual; ErrWrongShard when h lives on a
// different shard; ErrSaturated when the shard reads wedged while the call
// waits for its occupancy word (the burst is counted in Engine.Overloaded).
func (l *LocalSubmitter) SubmitBatch(h Handle, pkts []packet.Packet) error {
	agg, err := l.e.admit(h, len(pkts), l.s)
	if agg == nil {
		return err
	}
	if err := l.e.submit(agg, pkts); err != nil {
		return err
	}
	l.s.inlineBursts.Add(1)
	return nil
}
