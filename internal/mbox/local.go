package mbox

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
)

// Ring-bypass fast path: per-core run-to-completion submission.
//
// The shard ring decouples producers from enforcement at the cost of one
// channel operation and one cross-core handoff per burst. A run-to-completion
// datapath (the DPDK deployment model the paper benchmarks against) has no
// one to hand off to: the goroutine that read the burst off the wire owns the
// shard and should enforce in place. LocalSubmitter is that path — the caller
// claims the target shard's occupancy word and runs the engine's existing
// enforcement body (panic barrier, quarantine/degrade, observability tallies,
// overload shed gate) inline on its own goroutine, with no channel send.
//
// Safety comes from a single CAS-guarded occupancy word per shard: the shard
// goroutine acquires it around every ring item (data bursts AND in-band
// control operations), and a LocalSubmitter acquires it around every inline
// run. Whoever holds the word has exclusive use of the shard's enforcement
// state (enforcers, verdict scratch, trace sampling state), and the
// CAS/Store pair carries the happens-before edge, so ring items, control
// operations, watchdog reads, Close, and inline runs interleave race-free.
//
// Ordering: an inline submission is synchronous — when SubmitBatch returns,
// the burst has been enforced and emitted — so it is strictly ordered with
// everything the same goroutine does before and after (in particular, a
// control operation issued after an inline submit observes it). Between an
// inline submitter and bursts already queued on the shard ring there is no
// ordering: feed one aggregate through one ingress mode at a time (the
// per-core proxy pins one aggregate per core and never mixes).

// occupancy word states. occFree must be zero (the shard's zero value).
const (
	occFree  int32 = 0
	occShard int32 = 1
	occLocal int32 = 2
)

// ErrWrongShard reports a LocalSubmitter used against an aggregate owned by
// a different shard. Pin the aggregate to the submitter's shard with
// AddPinned. Test with errors.Is.
var ErrWrongShard = errors.New("aggregate not owned by this submitter's shard")

// acquire claims the shard's occupancy word for who, spinning until it is
// free. Holders are short-lived (one burst or one control item), so the spin
// yields rather than parks.
func (s *shard) acquire(who int32) {
	for !s.occ.CompareAndSwap(occFree, who) {
		runtime.Gosched()
	}
}

// tryAcquire is acquire with a deadline: false means the word could not be
// claimed within timeout (a wedged or abandoned holder), so the caller can
// degrade instead of spinning forever.
func (s *shard) tryAcquire(who int32, timeout time.Duration) bool {
	if s.occ.CompareAndSwap(occFree, who) {
		return true
	}
	var start time.Time
	for spins := 0; ; spins++ {
		runtime.Gosched()
		if s.occ.CompareAndSwap(occFree, who) {
			return true
		}
		// Read the clock every 64 spins, not every miss: the common
		// contention (a burst in flight on the shard goroutine) resolves
		// in well under a microsecond.
		if spins&63 == 0 {
			now := time.Now()
			if start.IsZero() {
				start = now
			} else if now.Sub(start) > timeout {
				return false
			}
		}
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
		e.InlineFallbacks.Add(1)
		return fmt.Errorf("mbox: aggregate %q: %w", agg.id, ErrSaturated)
	}
	defer s.release()
	e.serve(s, agg, enforcer.NoNode, pkts)
	e.InlineBursts.Add(1)
	return nil
}
