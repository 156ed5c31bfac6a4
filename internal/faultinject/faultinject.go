// Package faultinject provides deterministic, seeded fault-injecting
// enforcer wrappers for chaos-testing the middlebox runtime.
//
// An Injector wraps any enforcer.Enforcer and, driven by an internal/rng
// stream, injects the fault classes a production policer must survive:
//
//   - panics (the wrapped enforcer "crashes" mid-burst),
//   - verdict corruption (an out-of-range verdict, as a memory-corrupting
//     or buggy enforcer would produce),
//   - processing stalls (the enforcer blocks the shard goroutine),
//   - clock skew (the enforcer observes a jumped-forward arrival time;
//     skew is clamped monotone so the Enforcer contract's non-decreasing
//     virtual time still holds and only genuinely injected faults fire), and
//   - over-admission (Drop verdicts flipped to Transmit — the
//     bound-breaking bug class only a conformance auditor catches).
//
// Fault draws are deterministic in (seed, call sequence): the same seed
// over the same submission sequence injects the same faults, so chaos tests
// reproduce exactly. Injected faults are counted on the injector, letting
// tests reconcile engine-side fault counters against ground truth.
//
// An Injector is driven from a single goroutine at a time, exactly the
// discipline the mbox shard datapath guarantees; it is not safe for
// concurrent Submit calls (the fault counters, read from other goroutines,
// are atomics).
package faultinject

import (
	"errors"
	"sync/atomic"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
)

// errInjectedPanic is the value injected panics carry, so recovery sites
// and chaos tests can tell an injected fault from an organic bug. Test
// with errors.Is on the recovered value.
var errInjectedPanic = errors.New("faultinject: injected panic")

// CorruptVerdict is the out-of-range verdict injected by verdict
// corruption — far outside the defined enforcer.Verdict range, as a buggy
// or corrupted enforcer would produce.
const CorruptVerdict = enforcer.Verdict(0xBAD)

// Plan configures which faults an Injector injects and how often. All
// probabilities are per enforcement call (one Submit or one SubmitBatch),
// drawn independently in a fixed order.
type Plan struct {
	// Seed selects the deterministic fault stream.
	Seed uint64

	// Panic is the per-call probability of panicking with
	// errInjectedPanic before the wrapped enforcer runs.
	Panic float64
	// MaxPanics bounds the total number of injected panics (0 = no
	// bound). A bound of 1 models a transient crash: after it fires the
	// enforcer behaves again, so tests can show that the engine's quarantine
	// holds until Remove whatever the enforcer does next.
	MaxPanics int64

	// Corrupt is the per-call probability of overwriting one verdict of
	// the call with CorruptVerdict after the wrapped enforcer ran.
	Corrupt float64

	// Stall is the per-call probability of sleeping StallFor before the
	// wrapped enforcer runs, wedging the calling goroutine.
	Stall float64
	// StallFor is the stall duration (default 1ms when Stall > 0).
	StallFor time.Duration

	// Skew is the per-call probability of adding SkewBy to the arrival
	// time passed to the wrapped enforcer. The skewed clock is clamped
	// monotone across calls.
	Skew float64
	// SkewBy is the forward clock jump (default 10ms when Skew > 0).
	SkewBy time.Duration

	// OverAdmit is the per-call probability of flipping every Drop
	// verdict of the call to Transmit after the wrapped enforcer ran —
	// the admission-bound-breaking bug class: a broken enforcer letting
	// traffic through above its configured rate. Unlike Corrupt (whose
	// out-of-range verdict the engine coerces to Drop, i.e. an
	// under-admission), an over-admission is invisible to verdict
	// validation and only a conformance auditor catches it. The exact
	// flipped packet and byte counts are recorded so audit tests can
	// reconcile violations against ground truth.
	OverAdmit float64
}

// Injector wraps an enforcer with seeded fault injection. It implements
// enforcer.Enforcer, enforcer.BatchSubmitter, and enforcer.StatsReader
// (delegating to the wrapped enforcer when it implements StatsReader, zero
// stats otherwise).
type Injector struct {
	inner enforcer.Enforcer
	src   *rng.Source
	plan  Plan

	lastNow time.Duration // monotone clamp for skewed time

	// Injected-fault ground truth, readable from any goroutine.
	Panics      atomic.Int64
	Corruptions atomic.Int64
	Stalls      atomic.Int64
	Skews       atomic.Int64
	// OverAdmits counts calls whose Drop verdicts were flipped;
	// OverAdmittedPackets/Bytes total exactly what the flips let through
	// beyond the wrapped enforcer's admissions.
	OverAdmits          atomic.Int64
	OverAdmittedPackets atomic.Int64
	OverAdmittedBytes   atomic.Int64
}

// New wraps inner with the given fault plan.
func New(inner enforcer.Enforcer, plan Plan) *Injector {
	if plan.Stall > 0 && plan.StallFor <= 0 {
		plan.StallFor = time.Millisecond
	}
	if plan.Skew > 0 && plan.SkewBy <= 0 {
		plan.SkewBy = 10 * time.Millisecond
	}
	return &Injector{
		inner: inner,
		src:   rng.New(plan.Seed),
		plan:  plan,
	}
}

// Submit enforces one packet through the wrapped enforcer with faults
// applied per the plan.
func (f *Injector) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	now = f.preFaults(now)
	v := f.inner.Submit(now, pkt)
	if f.plan.Corrupt > 0 && f.src.Float64() < f.plan.Corrupt {
		f.Corruptions.Add(1)
		v = CorruptVerdict
	}
	if f.plan.OverAdmit > 0 && f.src.Float64() < f.plan.OverAdmit {
		f.OverAdmits.Add(1)
		if v == enforcer.Drop {
			f.OverAdmittedPackets.Add(1)
			f.OverAdmittedBytes.Add(int64(pkt.Size))
			v = enforcer.Transmit
		}
	}
	return v
}

// SubmitBatch enforces a burst through the wrapped enforcer's batch path
// with faults applied per the plan. Verdict corruption overwrites one
// uniformly chosen verdict of the burst.
func (f *Injector) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	now = f.preFaults(now)
	enforcer.SubmitBatch(f.inner, now, pkts, verdicts)
	if f.plan.Corrupt > 0 && len(verdicts) > 0 && f.src.Float64() < f.plan.Corrupt {
		f.Corruptions.Add(1)
		verdicts[f.src.IntN(len(verdicts))] = CorruptVerdict
	}
	if f.plan.OverAdmit > 0 && len(verdicts) > 0 && f.src.Float64() < f.plan.OverAdmit {
		f.OverAdmits.Add(1)
		var pktsFlipped, bytesFlipped int64
		for i := range verdicts[:len(pkts)] {
			if verdicts[i] == enforcer.Drop {
				verdicts[i] = enforcer.Transmit
				pktsFlipped++
				bytesFlipped += int64(pkts[i].Size)
			}
		}
		f.OverAdmittedPackets.Add(pktsFlipped)
		f.OverAdmittedBytes.Add(bytesFlipped)
	}
}

// preFaults draws the pre-call faults (skew, stall, panic) in a fixed
// order and returns the (possibly skewed, always monotone) arrival time.
func (f *Injector) preFaults(now time.Duration) time.Duration {
	if f.plan.Skew > 0 && f.src.Float64() < f.plan.Skew {
		f.Skews.Add(1)
		now += f.plan.SkewBy
	}
	// Monotone clamp: a skewed call must not make a later unskewed call
	// appear to travel back in time.
	if now < f.lastNow {
		now = f.lastNow
	}
	f.lastNow = now
	if f.plan.Stall > 0 && f.src.Float64() < f.plan.Stall {
		f.Stalls.Add(1)
		time.Sleep(f.plan.StallFor)
	}
	if f.plan.Panic > 0 && f.src.Float64() < f.plan.Panic {
		if f.plan.MaxPanics <= 0 || f.Panics.Load() < f.plan.MaxPanics {
			f.Panics.Add(1)
			panic(errInjectedPanic)
		}
	}
	return now
}

// EnforcerStats delegates to the wrapped enforcer when it reads stats.
func (f *Injector) EnforcerStats() enforcer.Stats {
	if sr, ok := f.inner.(enforcer.StatsReader); ok {
		return sr.EnforcerStats()
	}
	return enforcer.Stats{}
}
