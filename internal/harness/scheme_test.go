package harness

import (
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/fairpolicer"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/shaper"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// TestSchemeSizing pins the scheme table to the paper's §6.1 sizing rules,
// written out here from the Appendix A requirements, at a point where the
// shaper's 16-MSS floor binds and at one where one BDP does. It also checks
// that BuildEnforcer builds each scheme with the size Buffer gives it.
func TestSchemeSizing(t *testing.T) {
	points := []struct {
		rate units.Rate
		rtt  time.Duration
	}{
		{units.Mbps, 100 * time.Millisecond},
		{50 * units.Mbps, 50 * time.Millisecond},
	}
	for _, pt := range points {
		bdp := int64(float64(pt.rate) / 8 * pt.rtt.Seconds())
		reno := units.RenoPhantomRequirement(pt.rate, pt.rtt)
		plus := max(reno, units.CubicPhantomRequirement(pt.rate, pt.rtt))
		if plus == bdp {
			t.Fatalf("%v at %v: max(Reno, Cubic) = one BDP = %d, so policer+ and policer cannot be told apart", pt.rate, pt.rtt, bdp)
		}
		want := map[Scheme]int64{
			SchemeShaper:       max(bdp, 16*units.MSS),
			SchemeSingleShaper: max(bdp, 16*units.MSS),
			SchemePolicer:      bdp,
			SchemePolicerPlus:  plus,
			SchemeFairPolicer:  plus,
			SchemePQP:          reno,
			SchemeBCPQP:        10 * plus,
		}
		for scheme, size := range want {
			if got := Buffer(scheme, pt.rate, pt.rtt); got != size {
				t.Errorf("Buffer(%v, %v, %v) = %d, want %d", scheme, pt.rate, pt.rtt, got, size)
			}
			cfg := Config{Scheme: scheme, Rate: pt.rate, MaxRTT: pt.rtt, Queues: 4}
			enf, err := BuildEnforcer(cfg, shaper.SchedulerFunc(func(time.Duration, func()) {}), func(time.Duration, packet.Packet) {})
			if err != nil {
				t.Fatalf("BuildEnforcer(%v): %v", scheme, err)
			}
			got, whole := built(t, enf)
			if got != size && !(whole && got <= size && got > size-units.MSS) {
				t.Errorf("BuildEnforcer(%v) at %v, %v holds %d bytes, want %d", scheme, pt.rate, pt.rtt, got, size)
			}
			// Queue 0 is full: a packet of another class finds a queue of
			// its own in the shaper, and none in the single shaper.
			if scheme == SchemeShaper || scheme == SchemeSingleShaper {
				dropped := submitOne(enf, packet.Packet{Size: units.MSS, Class: 1}) == enforcer.Drop
				if dropped != (scheme == SchemeSingleShaper) {
					t.Errorf("%v: second class dropped = %v behind a full first class", scheme, dropped)
				}
			}
		}
	}
	if got := Buffer(Scheme(99), units.Mbps, time.Second); got != 0 {
		t.Errorf("Buffer(unknown scheme) = %d, want 0", got)
	}
}

// built reports the buffer enf was built with: a policer's bucket exactly,
// or, whole = true, the length of queue 0 of a shaper or phantom queue once
// MSS packets at one instant fill it, which falls short of its size by less
// than one packet.
func built(t *testing.T, enf enforcer.Enforcer) (size int64, whole bool) {
	t.Helper()
	switch e := enf.(type) {
	case *tbf.Policer:
		return e.Bucket(), false
	case *fairpolicer.FairPolicer:
		return int64(e.MainTokens()), false
	}
	for submitOne(enf, packet.Packet{Size: units.MSS, Class: 0}) != enforcer.Drop {
	}
	switch e := enf.(type) {
	case *shaper.Shaper:
		size = e.QueuedBytes(0)
	case *phantom.PQP:
		size = e.QueueLength(0)
	default:
		t.Fatalf("unexpected enforcer %T", enf)
	}
	return size, true
}

// submitOne decides one packet at time zero as a burst of one.
func submitOne(enf enforcer.Enforcer, p packet.Packet) enforcer.Verdict {
	var v [1]enforcer.Verdict
	enf.SubmitBatch(0, []packet.Packet{p}, v[:])
	return v[0]
}
