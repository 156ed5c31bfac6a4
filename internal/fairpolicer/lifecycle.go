package fairpolicer

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/units"
)

// snapVersion is the format version of FairPolicer snapshot blobs.
const snapVersion = 2

// SetRate implements enforcer.Reconfigurer: flow buckets, the shared main
// bucket and statistics survive the change. Token generation for the time
// already elapsed is settled at the old rate first (generateExpireCap at
// now), so admission across the change respects the piecewise bound; only
// time after the call accrues tokens at the new rate.
func (f *FairPolicer) SetRate(now time.Duration, rate units.Rate) error {
	if rate <= 0 {
		return fmt.Errorf("fairpolicer: non-positive rate %v", rate)
	}
	f.generateExpireCap(now) // settle elapsed time at the old rate
	f.cfg.Rate = rate
	return nil
}

// SnapshotState implements enforcer.Snapshotter.
//
// Layout: u8 version (=2), bool started, i64 generation-clock age at now
// (ns; 0 until started), f64 main, stats, u32 flow count, then per flow: f64
// tokens, i64 lastSeen age at now (ns; 0 while inactive), bool active, 4×i64
// counters.
func (f *FairPolicer) SnapshotState(now time.Duration) ([]byte, error) {
	var e enforcer.Enc
	e.U8(snapVersion)
	last, started := f.clock.Last()
	e.Bool(started)
	e.Age(now, last, started)
	e.F64(f.main)
	e.Stats(f.stats)
	e.U32(uint32(len(f.flows)))
	for i := range f.flows {
		fb := &f.flows[i]
		e.F64(fb.tokens)
		e.Age(now, fb.lastSeen, fb.active)
		e.Bool(fb.active)
		e.I64(fb.acceptedPackets)
		e.I64(fb.acceptedBytes)
		e.I64(fb.droppedPackets)
		e.I64(fb.droppedBytes)
	}
	return e.Out(), nil
}

// RestoreState implements enforcer.Snapshotter. Token levels must be
// non-negative and their total must fit the configured bucket (the same
// invariant generateExpireCap maintains), so a forged blob cannot grant an
// over-budget token supply.
func (f *FairPolicer) RestoreState(now time.Duration, data []byte) error {
	d := enforcer.NewDec(data)
	if v := d.U8(); d.Err() == nil && v != snapVersion {
		d.Fail("fairpolicer: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	started := d.Bool()
	last := d.Instant(now)
	main := d.F64()
	if d.Err() == nil && main < 0 {
		d.Fail("fairpolicer: negative main bucket %v", main)
	}
	stats := d.Stats()
	if n := d.U32(); d.Err() == nil && int(n) != f.cfg.Flows {
		d.Fail("fairpolicer: snapshot has %d flow buckets, enforcer has %d", n, f.cfg.Flows)
	}
	if d.Err() != nil {
		return d.Err()
	}
	flows := make([]flowBucket, f.cfg.Flows)
	total := main
	for i := range flows {
		fb := &flows[i]
		fb.tokens = d.F64()
		fb.lastSeen = d.Instant(now)
		fb.active = d.Bool()
		fb.acceptedPackets = d.I64()
		fb.acceptedBytes = d.I64()
		fb.droppedPackets = d.I64()
		fb.droppedBytes = d.I64()
		if d.Err() == nil && (fb.tokens < 0 || fb.acceptedPackets < 0 || fb.acceptedBytes < 0 ||
			fb.droppedPackets < 0 || fb.droppedBytes < 0) {
			d.Fail("fairpolicer: invalid flow bucket %d in snapshot", i)
		}
		total += fb.tokens
	}
	// Tolerate a hair of float accumulation slack above B, nothing more. The
	// product is rounded, never fused.
	if d.Err() == nil && total > float64(float64(f.cfg.Bucket)*(1+1e-9))+1 {
		d.Fail("fairpolicer: snapshot token total %v exceeds bucket %d", total, f.cfg.Bucket)
	}
	if err := d.Finish(); err != nil {
		return err
	}
	f.clock.Set(last, started)
	f.main = main
	f.stats = stats
	f.flows = flows
	return nil
}

var _ enforcer.Reconfigurer = (*FairPolicer)(nil)
var _ enforcer.Snapshotter = (*FairPolicer)(nil)
