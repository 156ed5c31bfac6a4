package units

import (
	"math"
	"time"
)

// Clock is the instant at which a rate's accrual was last read. Its reads
// are the one place an enforcer turns elapsed time into bytes, r·Δt: the
// token buckets (tbf, ptree's assured layer, FairPolicer's generator) take
// the fractional read Bytes, and the two drains (phantom's, the shaper's)
// take the whole-byte read Whole, which carries the fraction, and phantom's
// batching takes the Peek that does not move the clock.
//
// Every read follows one protocol. The zero Clock has not started, and its
// first read starts it at now and accrues nothing. A read at or before the
// clock's instant accrues nothing and leaves the clock where it was, so time
// never runs backwards. A gap longer than a Duration holds (now − last
// overflows int64, as it can after a snapshot restores a very old instant)
// is read as the unsigned difference it is, so the read is a very long
// refill or drain, never a negative one.
//
// A Clock is one int64 word, so it fits in records of plain numbers. The
// word holds the instant with its sign bit flipped: read as unsigned, words
// order as their instants do, and the zero word, the instant −2⁶³, means
// "not started". Start moves that one instant a nanosecond later, and a read
// at it leaves an unstarted clock unstarted.
type Clock int64

// Start sets the clock to t, started, whatever it read before.
func (c *Clock) Start(t time.Duration) {
	*c = Clock(max(t, math.MinInt64+1) ^ math.MinInt64)
}

// Last returns the clock's instant and whether it has started.
func (c Clock) Last() (time.Duration, bool) {
	return time.Duration(c ^ math.MinInt64), c != 0
}

// Set sets the clock to what Last read: t if started, else not started.
func (c *Clock) Set(t time.Duration, started bool) {
	*c = 0
	if started {
		c.Start(t)
	}
}

// Bytes reads the clock at now: the fractional bytes rate r accrued since
// the last read, and the clock moves to now. now − last is taken unsigned
// (see Clock), and its seconds and nanoseconds each fit an int64, whose
// conversion is one instruction. The product is Rate.Bytes's, bit for bit,
// rounded with an explicit conversion so that no compiler fuses it into the
// caller's add (scripts/check-fma.sh). Bytes must stay within the inliner's
// budget: tbf's and ptree's refills inline it into the policy tree's
// admission loop, where a call would spill the loop's registers.
func (c *Clock) Bytes(now time.Duration, r Rate) float64 {
	was, n := uint64(*c), uint64(now^math.MinInt64)
	if n <= was {
		return 0 // at or before the clock
	}
	*c = Clock(n)
	if was == 0 {
		return 0 // the first read
	}
	gap := n - was
	return float64(float64(r) / 8 * (float64(int64(gap/1e9)) + float64(int64(gap%1e9))/1e9))
}

// maxWhole caps a whole-byte read: far more than any queue holds, yet small
// enough that a drain can scale it by a weight share in float64 and convert
// the result back to int64.
const maxWhole = 1 << 62

// Whole reads the clock at now for a drain: the whole bytes of *carry plus
// what rate r accrued since the last read, with the fraction left in
// *carry, in [0, 1), for the next read. A read that accrues nothing leaves
// *carry as it was. A budget past maxWhole (only a gap of centuries gets
// there) returns maxWhole and carries nothing.
func (c *Clock) Whole(now time.Duration, r Rate, carry *float64) int64 {
	budget := min(*carry+c.Bytes(now, r), maxWhole)
	whole := int64(budget)
	*carry = budget - float64(whole)
	return whole
}

// Peek returns the budget a Whole read at now would split, carry plus r·Δt,
// and moves nothing: a drain that runs only once enough budget has accrued
// tests it first.
func (c Clock) Peek(now time.Duration, r Rate, carry float64) float64 {
	return carry + c.Bytes(now, r) // c is a copy
}
