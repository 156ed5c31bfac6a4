package obs

import (
	"math"
	"math/bits"
	"testing"
	"time"
)

// TestAuditEnvelopeExact pins the allowance arithmetic: at r bits/sec the
// accrual over Δt is exactly r·Δt/8e9 bytes with the sub-byte remainder
// carried, so an enforcer that admits precisely the allowance never trips
// the auditor and one extra byte does.
func TestAuditEnvelopeExact(t *testing.T) {
	const r = 20_000_000 // 20 Mbit/s → 2.5 MB/s
	a := NewAudit(0, r, 0, 0)
	// After 1s the allowance is exactly 2_500_000 bytes.
	if d := a.Observe(time.Second, 2_500_000); d != 0 {
		t.Fatalf("exact-allowance observe returned deficit %d", d)
	}
	if d := a.Observe(time.Second, 1); d != 1 {
		t.Fatalf("one byte over should breach by 1, got %d", d)
	}
	s := a.Snapshot()
	if s.Violations != 1 || s.MaxDeficit != 1 {
		t.Fatalf("snapshot = %+v, want 1 violation, max deficit 1", s)
	}
	if s.AllowedBytes != 2_500_000 || s.AcceptedBytes != 2_500_001 {
		t.Fatalf("allowed/accepted = %d/%d", s.AllowedBytes, s.AcceptedBytes)
	}
	if s.MinSlackBytes != -1 {
		t.Fatalf("min slack = %d, want -1", s.MinSlackBytes)
	}
}

// TestAuditFracCarry pins the remainder carry: 1 bit/s accrues one byte
// every 8 seconds exactly, never early, never losing the fraction across
// many small advances.
func TestAuditFracCarry(t *testing.T) {
	a := NewAudit(0, 1, 0, 0)
	// Advance in 1ms steps for 8s: 8000 advances of 125_000 bit·ns each.
	for i := 1; i <= 8000; i++ {
		a.Observe(time.Duration(i)*time.Millisecond, 0)
	}
	if s := a.Snapshot(); s.AllowedBytes != 1 {
		t.Fatalf("1 bit/s over 8s accrued %d bytes, want exactly 1", s.AllowedBytes)
	}
	a2 := NewAudit(0, 1, 0, 0)
	a2.Observe(8*time.Second-time.Nanosecond, 0)
	if s := a2.Snapshot(); s.AllowedBytes != 0 {
		t.Fatalf("1 bit/s just before 8s accrued %d bytes, want 0", s.AllowedBytes)
	}
}

// TestAuditBurstAllowance: the envelope is r·Δt + B; a line-rate burst of
// exactly B at t=0 is conformant, B+1 is not.
func TestAuditBurstAllowance(t *testing.T) {
	a := NewAudit(0, 8_000_000, 1500, 0)
	if d := a.Observe(0, 1500); d != 0 {
		t.Fatalf("burst of B bytes breached by %d", d)
	}
	if d := a.Observe(0, 1); d != 1 {
		t.Fatalf("B+1 should breach by 1, got %d", d)
	}
}

// TestAuditRebase pins the piecewise envelope: allowance accrued under the
// old rate survives a rate change, and subsequent accrual uses the new
// rate — the shadow of the engine's in-band SetRate.
func TestAuditRebase(t *testing.T) {
	a := NewAudit(0, 80_000_000, 0, 0) // 10 MB/s
	a.Observe(time.Second, 0)          // 10 MB allowed
	a.Rebase(time.Second, 8_000_000)   // drop to 1 MB/s
	a.Observe(2*time.Second, 0)        // +1 MB
	if s := a.Snapshot(); s.AllowedBytes != 11_000_000 {
		t.Fatalf("piecewise allowance = %d, want 11_000_000", s.AllowedBytes)
	}
	if s := a.Snapshot(); s.RateBps != 8_000_000 {
		t.Fatalf("rate after rebase = %d", s.RateBps)
	}
	// Rebase to zero freezes accrual.
	a.Rebase(2*time.Second, 0)
	a.Observe(10*time.Second, 0)
	if s := a.Snapshot(); s.AllowedBytes != 11_000_000 {
		t.Fatalf("zero-rate envelope still accrued: %d", s.AllowedBytes)
	}
}

// TestAuditShadowDeterminism: two auditors fed the identical (now, bytes)
// sequence agree bit-for-bit on every counter — the property the chaos
// reconciliation tests lean on.
func TestAuditShadowDeterminism(t *testing.T) {
	mk := func() *Audit { return NewAudit(0, 13_337_331, 4096, 0) }
	a, b := mk(), mk()
	now := time.Duration(0)
	seq := []struct {
		dt    time.Duration
		bytes int64
	}{}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		seq = append(seq, struct {
			dt    time.Duration
			bytes int64
		}{time.Duration(x % uint64(3*time.Millisecond)), int64(x % 9000)})
	}
	for i, s := range seq {
		now += s.dt
		a.Observe(now, s.bytes)
		b.Observe(now, s.bytes)
		if i%971 == 0 {
			a.Rebase(now, int64(7_000_000+i))
			b.Rebase(now, int64(7_000_000+i))
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa != sb {
		t.Fatalf("shadow auditors diverged:\n%+v\n%+v", sa, sb)
	}
	if sa.Violations == 0 {
		t.Fatalf("sequence expected to produce violations (avg ~4500B/1.5ms vs ~1.6KB allowance)")
	}
}

// TestAuditRateErrorWindows pins the tumbling-window rate-error digest:
// exact-rate traffic records ~0 permille, double-rate traffic ~1000, and
// idle gaps don't synthesize empty windows.
func TestAuditRateErrorWindows(t *testing.T) {
	const r = 8_000_000 // 1 MB/s → 250 KB per 250ms window
	a := NewAudit(0, r, 1<<40, 0)
	now := time.Duration(0)
	for i := 0; i < 40; i++ { // 10 windows of 4 observes each
		now += 62500 * time.Microsecond
		a.Observe(now, 62_500)
	}
	s := a.Snapshot()
	if s.Windows < 9 {
		t.Fatalf("windows = %d, want ≥ 9", s.Windows)
	}
	if q := a.RateErrDigest().Quantile(0.99); q > 10 {
		t.Fatalf("exact-rate p99 error = %d permille", q)
	}
	// Jump across an idle gap: no phantom windows.
	wBefore := a.Snapshot().Windows
	now += 10 * time.Second
	a.Observe(now, 1)
	if w := a.Snapshot().Windows; w > wBefore+1 {
		t.Fatalf("idle gap synthesized %d windows", w-wBefore)
	}
	// Double-rate traffic: error ≈ 1000 permille.
	b := NewAudit(0, r, 1<<40, 0)
	now = 0
	for i := 0; i < 40; i++ {
		now += 62500 * time.Microsecond
		b.Observe(now, 125_000)
	}
	if q := b.RateErrDigest().Quantile(0.5); q < 900 || q > 1200 {
		t.Fatalf("double-rate median error = %d permille, want ~1000", q)
	}
}

// TestAuditSaturation: huge rates over long gaps saturate the allowance at
// MaxInt64 instead of wrapping, and the auditor keeps functioning.
func TestAuditSaturation(t *testing.T) {
	a := NewAudit(0, math.MaxInt64, 0, 0)
	a.Observe(time.Duration(math.MaxInt64), 1<<40)
	s := a.Snapshot()
	if s.AllowedBytes != math.MaxInt64 {
		t.Fatalf("allowance = %d, want saturated MaxInt64", s.AllowedBytes)
	}
	if s.Violations != 0 {
		t.Fatalf("saturated envelope reported %d violations", s.Violations)
	}
	if d := a.Observe(time.Duration(math.MaxInt64), 1); d != 0 {
		t.Fatalf("post-saturation observe deficit %d", d)
	}
}

// TestAuditSlackDigest: slack observations land in the digest (clamped at
// zero for breaches) and merge into roll-ups.
func TestAuditSlackDigest(t *testing.T) {
	a := NewAudit(0, 8_000_000, 1000, 0)
	a.Observe(0, 500) // slack 500
	a.Observe(0, 499) // slack 1
	a.Observe(0, 100) // breach by 99 → slack digest records 0
	s := a.SlackDigest()
	if got := s.Total(); got != 3 {
		t.Fatalf("slack digest total = %d", got)
	}
	acc := NewDigest()
	a.MergeSlack(acc)
	if acc.Snapshot().Total() != 3 {
		t.Fatalf("MergeSlack lost observations")
	}
	if a.Snapshot().Violations != 1 {
		t.Fatalf("violations = %d", a.Snapshot().Violations)
	}
}

// advance128 is Audit.advance's accrual with the 128-bit divide taken on every
// call: the reference the 64-bit fast path must match. It returns the new
// allowance and sub-byte remainder.
func advance128(allowed int64, frac uint64, rate, dt int64) (int64, uint64) {
	hi, lo := bits.Mul64(uint64(rate), uint64(dt))
	lo, carry := bits.Add64(lo, frac, 0)
	hi += carry
	if hi < envDen {
		if quo, rem := bits.Div64(hi, lo, envDen); quo <= uint64(math.MaxInt64-allowed) {
			return allowed + int64(quo), rem
		}
	}
	return math.MaxInt64, 0
}

// TestAuditAdvanceMatches128 is the differential test of the accrual's 64-bit
// fast path: on random (rate, Δt, frac, allowance) and on the edges — a
// product just below and just above 2^64, a remainder whose carry lifts the
// sum into the high word, the quotient overflowing 64 bits, saturation at
// MaxInt64 and one byte short of it — advance leaves the allowance and
// remainder the 128-bit divide gives.
func TestAuditAdvanceMatches128(t *testing.T) {
	type tc struct {
		allowed int64
		frac    uint64
		rate    int64
		dt      int64
	}
	const m32 = 1<<32 - 1
	cases := []tc{
		{0, 0, m32, m32 + 2},                      // (2^32−1)(2^32+1) = 2^64−1: the largest 64-bit product
		{0, 0, 1 << 32, 1 << 32},                  // 2^64: the smallest that needs the high word
		{0, 1, m32, m32 + 2},                      // frac carries 2^64−1 into the high word
		{0, envDen - 1, m32, m32 + 2},             // the same with the largest remainder
		{0, envDen - 1, 1 << 31, 1<<33 - 1},       // 2^64−2^31 plus a remainder: carry
		{0, 0, math.MaxInt64, math.MaxInt64},      // quotient overflows: saturate
		{math.MaxInt64 - 1, 0, 8, 1_000_000_000},  // exactly one byte: reaches MaxInt64
		{math.MaxInt64 - 1, 0, 16, 1_000_000_000}, // two bytes: saturates
		{math.MaxInt64 - 1, envDen - 1, 8, 1},     // the remainder completes the last byte
		{math.MaxInt64 - 10, 0, 1 << 32, 1 << 32}, // 128-bit path, saturating
		{0, 0, 100_000_000_000, 184_467_440},      // 100 Gbit/s just under 2^64
		{0, 0, 100_000_000_000, 184_467_441},      // and just over
	}
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 200_000; i++ {
		// Log-uniform magnitudes reach both sides of 2^64 as often as not.
		cases = append(cases, tc{
			allowed: int64(next() >> (1 + next()%63)),
			frac:    next() % envDen,
			rate:    1 + int64(next()>>(1+next()%63)),
			dt:      1 + int64(next()>>(1+next()%63)),
		})
	}
	var fast, wide int
	for _, c := range cases {
		if c.allowed == math.MaxInt64 {
			continue // advance returns before dividing
		}
		hi, lo := bits.Mul64(uint64(c.rate), uint64(c.dt))
		if _, carry := bits.Add64(lo, c.frac, 0); hi+carry == 0 {
			fast++
		} else {
			wide++
		}
		var a Audit
		a.allowed.Store(c.allowed)
		a.rateBps.Store(c.rate)
		a.frac = c.frac
		got := a.advance(time.Duration(c.dt))
		want, wantFrac := advance128(c.allowed, c.frac, c.rate, c.dt)
		if got != want || a.allowed.Load() != want || a.frac != wantFrac {
			t.Fatalf("advance%+v = %d (stored %d, frac %d), want %d (frac %d)",
				c, got, a.allowed.Load(), a.frac, want, wantFrac)
		}
	}
	if fast < 1000 || wide < 1000 {
		t.Errorf("cases took the 64-bit path %d times and the 128-bit one %d: both want ≥ 1000", fast, wide)
	}
}

// BenchmarkAuditObserve pins the audit hot path: 0 allocs/op.
func BenchmarkAuditObserve(b *testing.B) {
	a := NewAudit(0, 100_000_000, 1<<16, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Observe(time.Duration(i)*time.Microsecond, 1500)
	}
}
