package units

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// TestClockFirstReadStarts: every read of an unstarted clock starts it at
// now and accrues nothing, and a whole read leaves the carry alone.
func TestClockFirstReadStarts(t *testing.T) {
	const now = 3 * time.Second
	var c Clock
	if _, ok := c.Last(); ok {
		t.Fatal("the zero Clock reads started")
	}
	if got := c.Peek(now, Gbps, 0.25); got != 0.25 {
		t.Errorf("peek of an unstarted clock = %v, want the carry 0.25", got)
	}
	if got := c.Bytes(now, Gbps); got != 0 {
		t.Errorf("first fractional read accrued %v", got)
	}
	if last, ok := c.Last(); !ok || last != now {
		t.Errorf("after the first read the clock reads (%v, %v), want (%v, true)", last, ok, now)
	}
	var w Clock
	carry := 0.5
	if got := w.Whole(now, Gbps, &carry); got != 0 || carry != 0.5 {
		t.Errorf("first whole read = %d with carry %v, want 0 and the carry 0.5 untouched", got, carry)
	}
	if last, ok := w.Last(); !ok || last != now {
		t.Errorf("after the first whole read the clock reads (%v, %v), want (%v, true)", last, ok, now)
	}
}

// TestClockBackwardRead: a read at or before the clock accrues nothing and
// leaves the clock, and the carry, where they were.
func TestClockBackwardRead(t *testing.T) {
	for _, now := range []time.Duration{time.Second, time.Second - 1, -time.Hour, math.MinInt64} {
		var c Clock
		c.Start(time.Second)
		carry := 0.75
		if got := c.Bytes(now, Mbps); got != 0 {
			t.Errorf("fractional read at %v accrued %v", now, got)
		}
		if got := c.Whole(now, Mbps, &carry); got != 0 || carry != 0.75 {
			t.Errorf("whole read at %v = %d, carry %v", now, got, carry)
		}
		if got := c.Peek(now, Mbps, carry); got != carry {
			t.Errorf("peek at %v = %v, want the carry %v", now, got, carry)
		}
		if last, _ := c.Last(); last != time.Second {
			t.Errorf("a read at %v moved the clock to %v", now, last)
		}
	}
}

// TestClockStartRange: the clock holds every instant but −2⁶³, the word
// that means "not started", which Start moves a nanosecond later.
func TestClockStartRange(t *testing.T) {
	for _, at := range []time.Duration{0, -1, 1, math.MaxInt64, math.MinInt64 + 1} {
		var c Clock
		c.Start(at)
		if last, ok := c.Last(); !ok || last != at {
			t.Errorf("Start(%v) reads (%v, %v)", at, last, ok)
		}
	}
	var c Clock
	c.Start(math.MinInt64)
	if last, ok := c.Last(); !ok || last != math.MinInt64+1 {
		t.Errorf("Start(MinInt64) reads (%v, %v), want (MinInt64+1, true)", last, ok)
	}
}

// TestClockWholeCarries: over many reads the carry stays in [0, 1), and the
// whole bytes handed out plus the carry are exactly the budget a single read
// over the whole span would give, up to float rounding: nothing is lost.
func TestClockWholeCarries(t *testing.T) {
	src := rand.New(rand.NewPCG(1, 2))
	const rate = 7*Mbps + 333
	var c Clock
	c.Start(0)
	now := time.Duration(0)
	var carry float64
	var whole int64
	for i := 0; i < 100_000; i++ {
		now += time.Duration(src.Int64N(int64(50 * time.Microsecond)))
		whole += c.Whole(now, rate, &carry)
		if carry < 0 || carry >= 1 {
			t.Fatalf("read %d: carry %v outside [0, 1)", i, carry)
		}
	}
	want := rate.Bytes(now)
	if got := float64(whole) + carry; math.Abs(got-want) > 1e-9*want {
		t.Errorf("reads handed out %d + carry %v = %v bytes, one read over the span %v", whole, carry, got, want)
	}
}

// TestClockPeekIsNextWhole: the peek at now is the budget the next whole
// read at now splits, whole bytes plus carry, bit for bit, and moves
// nothing.
func TestClockPeekIsNextWhole(t *testing.T) {
	src := rand.New(rand.NewPCG(3, 4))
	var c Clock
	c.Start(0)
	now := time.Duration(0)
	carry := 0.0
	for i := 0; i < 10_000; i++ {
		now += time.Duration(src.Int64N(int64(time.Millisecond))) - 100*time.Microsecond
		rate := Rate(math.Exp(src.Float64()*math.Log(4e11/1e3))) * 1e3
		before := c
		peek := c.Peek(now, rate, carry)
		if c != before {
			t.Fatalf("peek %d moved the clock", i)
		}
		was := carry
		whole := c.Whole(now, rate, &carry)
		if got := float64(whole) + carry; got != peek {
			t.Fatalf("read %d at %v (carry %v): peek %v, whole read %d + carry %v = %v",
				i, now, was, peek, whole, carry, got)
		}
	}
}

// TestClockLongGap: a gap longer than a Duration holds (now − last
// overflows int64) reads as the unsigned gap it is, so buckets refill and
// drains empty, and the whole read returns maxWhole with no carry instead of
// converting an out-of-range float.
func TestClockLongGap(t *testing.T) {
	const from, to = math.MinInt64 + 1000, time.Second
	const gap = uint64(1<<63) - 1000 + uint64(time.Second) // ns, exactly
	for _, r := range []Rate{10 * Mbps, 100 * Gbps} {
		var c Clock
		c.Start(from)
		want := float64(r) / 8 * (float64(gap) / 1e9)
		if got := c.Peek(to, r, 0); math.Abs(got-want) > 1e-12*want {
			t.Errorf("%v: peek across the long gap = %v, want %v", r, got, want)
		}
		if got := c.Bytes(to, r); math.Abs(got-want) > 1e-12*want {
			t.Errorf("%v: fractional read across the long gap = %v, want %v", r, got, want)
		}
		if last, _ := c.Last(); last != to {
			t.Errorf("%v: the read left the clock at %v, want %v", r, last, to)
		}
	}
	var c Clock
	c.Start(from)
	carry := 0.5
	if got := c.Whole(to, 100*Gbps, &carry); got != maxWhole || carry != 0 {
		t.Errorf("whole read across the long gap = %d, carry %v; want %d, 0", got, carry, int64(maxWhole))
	}
	// At 8 kbps, 1,000 B/s, the budget fits an int64 and the read is exact.
	c.Start(from)
	carry = 0
	if got, want := c.Whole(to, 8*Kbps, &carry), int64(gap/1e6); got != want {
		t.Errorf("whole read at 8 kbps across the long gap = %d, want %d", got, want)
	}
}

// refSites are the five enforcers' accrual formulas as they were written
// inline before Clock, kept here as the reference Clock must read bit for
// bit: tbf's and FairPolicer's refill (start at the first read, nothing at
// or before last), ptree's (its clock starts at 0, effRate in bytes/s),
// phantom's drain and its batching probe, and the shaper's service (its
// clock is started when service is armed).
type refSites struct {
	started bool
	last    time.Duration // tbf, FairPolicer
	fill    time.Duration // ptree, from 0
	drain   time.Duration // phantom
	dstart  bool
	credit  float64
	svc     time.Duration // shaper
	svcCred float64
}

func (r *refSites) tbf(now time.Duration, rate Rate) float64 {
	if !r.started {
		r.started = true
		r.last = now
		return 0
	}
	if now <= r.last {
		return 0
	}
	b := rate.Bytes(now - r.last)
	r.last = now
	return b
}

func (r *refSites) ptree(now time.Duration, effRate float64) float64 {
	last := r.fill
	if now <= last {
		return 0
	}
	r.fill = now
	return float64(effRate * (now - last).Seconds())
}

func (r *refSites) probe(now time.Duration, rate Rate) float64 {
	return r.credit + rate.Bytes(now-r.drain)
}

func (r *refSites) advance(now time.Duration, rate Rate) int64 {
	if !r.dstart {
		r.dstart = true
		r.drain = now
		return 0
	}
	if now <= r.drain {
		return 0
	}
	budget := r.credit + rate.Bytes(now-r.drain)
	r.drain = now
	whole := int64(budget)
	r.credit = budget - float64(whole)
	return whole
}

func (r *refSites) service(now time.Duration, rate Rate) int64 {
	budget := r.svcCred + rate.Bytes(now-r.svc)
	r.svc = now
	whole := int64(budget)
	r.svcCred = budget - float64(whole)
	return whole
}

// TestClockMatchesInlineFormulas drives Clock and the reference formulas
// with random rates (log-uniform from 1 kbps to 400 Gbps, changing between
// reads) and random clock steps, a tenth of them backwards and one in a
// hundred up to 2⁵⁰ ns (13 days) long, and demands the same bits from every
// read and the same instant on every clock. The read's product, which
// takes the gap unsigned, must also have Rate.Bytes's bits on gaps up to the
// longest Duration.
func TestClockMatchesInlineFormulas(t *testing.T) {
	src := rand.New(rand.NewPCG(0xACC, 0))
	for i := 0; i < 100_000; i++ {
		d := time.Duration(src.Int64N(math.MaxInt64)>>src.IntN(63)) + 1
		r := Rate(math.Exp(src.Float64()*math.Log(4e8))) * Kbps
		var c Clock
		c.Start(0)
		if got, want := c.Bytes(d, r), r.Bytes(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("a %v read over %d ns = %v, Rate.Bytes %v", r, d, got, want)
		}
	}
	for seed := uint64(0); seed < 20; seed++ {
		src := rand.New(rand.NewPCG(seed, 0xC10C))
		var ref refSites
		var tb, pt, ph, sh Clock
		pt.Start(0)
		var credit, svcCred float64
		now := time.Duration(src.Int64N(int64(time.Hour))) - 30*time.Minute
		rate := func() Rate { return Rate(math.Exp(src.Float64()*math.Log(4e8))) * Kbps }
		r := rate()
		for i := 0; i < 5000; i++ {
			step := time.Duration(src.Int64N(int64(20 * time.Millisecond)))
			if src.IntN(100) == 0 {
				step = time.Duration(src.Int64N(1 << 50))
			}
			if src.IntN(10) == 0 {
				step = -step
			}
			now += step
			if src.IntN(4) == 0 {
				r = rate()
			}
			fail := func(site string, got, want any) {
				t.Fatalf("seed %d read %d at %v, rate %v: %s reads %v, inline formula %v", seed, i, now, r, site, got, want)
			}
			if got, want := tb.Bytes(now, r), ref.tbf(now, r); math.Float64bits(got) != math.Float64bits(want) {
				fail("tbf/fairpolicer", got, want)
			}
			effRate := float64(r) / 3 // bytes/s, any float
			if got, want := pt.Bytes(now, Rate(8*effRate)), ref.ptree(now, effRate); math.Float64bits(got) != math.Float64bits(want) {
				fail("ptree", got, want)
			}
			// phantom: the probe guards the drain once the clock has
			// started; Tick drains unguarded.
			if ref.dstart {
				got, want := ph.Peek(now, r, credit) >= 4*MSS, ref.probe(now, r) >= 4*MSS
				if got != want {
					fail("phantom probe", got, want)
				}
			}
			if got, want := ph.Whole(now, r, &credit), ref.advance(now, r); got != want || credit != ref.credit {
				fail("phantom drain", [2]any{got, credit}, [2]any{want, ref.credit})
			}
			// shaper: service runs at or after its clock, which arming
			// restarts with no carry.
			if src.IntN(50) == 0 || i == 0 {
				sh.Start(now)
				svcCred, ref.svc, ref.svcCred = 0, now, 0
			}
			if last, _ := sh.Last(); now >= last {
				if got, want := sh.Whole(now, r, &svcCred), ref.service(now, r); got != want || svcCred != ref.svcCred {
					fail("shaper service", [2]any{got, svcCred}, [2]any{want, ref.svcCred})
				}
			}
			for _, c := range []struct {
				site  string
				clock Clock
				want  time.Duration
			}{{"tbf", tb, ref.last}, {"ptree", pt, ref.fill}, {"phantom", ph, ref.drain}, {"shaper", sh, ref.svc}} {
				if last, _ := c.clock.Last(); last != c.want {
					fail(c.site+" clock", last, c.want)
				}
			}
		}
	}
}
