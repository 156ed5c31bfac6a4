package faultinject

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// collect builds a NetLink whose deliveries append to a shared slice.
func collect(plan NetPlan) (*NetLink, *[][]byte) {
	var got [][]byte
	l := NewNetLink(func(f []byte) { got = append(got, f) }, plan)
	return l, &got
}

func frames(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("frame-%03d", i))
	}
	return out
}

// TestNetFaultPassthrough: a zero plan delivers every frame, in order,
// with zero injected faults.
func TestNetFaultPassthrough(t *testing.T) {
	l, got := collect(NetPlan{Seed: 1})
	in := frames(50)
	for i, f := range in {
		l.Send(time.Duration(i)*time.Millisecond, f)
	}
	if len(*got) != len(in) {
		t.Fatalf("delivered %d of %d frames", len(*got), len(in))
	}
	for i, f := range *got {
		if !bytes.Equal(f, in[i]) {
			t.Fatalf("frame %d: got %q want %q", i, f, in[i])
		}
	}
	if n := l.InjectedNet(); n != 0 {
		t.Fatalf("injected %d faults with a zero plan", n)
	}
	if n := l.Delivered.Load(); n != int64(len(in)) {
		t.Fatalf("Delivered = %d, want %d", n, len(in))
	}
}

// TestNetFaultCopiesFrames: the caller's buffer may be reused after Send.
func TestNetFaultCopiesFrames(t *testing.T) {
	l, got := collect(NetPlan{Seed: 1})
	buf := []byte("original")
	l.Send(0, buf)
	copy(buf, "CLOBBER!")
	if !bytes.Equal((*got)[0], []byte("original")) {
		t.Fatalf("delivered frame aliases the caller's buffer: %q", (*got)[0])
	}
}

// TestNetFaultDeterministic: identical (plan, send sequence) pairs produce
// identical deliveries and identical exact counters.
func TestNetFaultDeterministic(t *testing.T) {
	plan := NetPlan{Seed: 42, Drop: 0.2, Duplicate: 0.1, Delay: 0.15, DelayBy: 7 * time.Millisecond, Reorder: 0.1}
	run := func() ([][]byte, [5]int64) {
		l, got := collect(plan)
		for i, f := range frames(400) {
			now := time.Duration(i) * time.Millisecond
			l.Send(now, f)
			l.Advance(now)
		}
		l.flush()
		return *got, [5]int64{
			l.Dropped.Load(), l.Duplicated.Load(), l.Delayed.Load(),
			l.Reordered.Load(), l.CutDropped.Load(),
		}
	}
	a, ca := run()
	b, cb := run()
	if ca != cb {
		t.Fatalf("counters differ across identical runs: %v vs %v", ca, cb)
	}
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("delivery %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	// The exact counters for this (seed, sequence) are part of the
	// reproducibility contract: a PCG or draw-order change must be noticed.
	want := [5]int64{80, 27, 57, 31, 0}
	if ca != want {
		t.Fatalf("counters = %v, want %v (seeded stream changed)", ca, want)
	}
}

// TestNetFaultDropAccounting: sent = delivered + dropped + parked, exactly.
func TestNetFaultDropAccounting(t *testing.T) {
	plan := NetPlan{Seed: 7, Drop: 0.5}
	l, got := collect(plan)
	const n = 1000
	for i, f := range frames(n) {
		l.Send(time.Duration(i)*time.Millisecond, f)
	}
	if int64(len(*got))+l.Dropped.Load() != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", len(*got), l.Dropped.Load(), n)
	}
	if l.Dropped.Load() == 0 || l.Dropped.Load() == n {
		t.Fatalf("drop fault never/always fired: %d of %d", l.Dropped.Load(), n)
	}
}

// TestNetFaultDuplicate: duplicates add exactly Duplicated extra deliveries.
func TestNetFaultDuplicate(t *testing.T) {
	plan := NetPlan{Seed: 9, Duplicate: 0.3}
	l, got := collect(plan)
	const n = 500
	for i, f := range frames(n) {
		l.Send(time.Duration(i)*time.Millisecond, f)
	}
	if int64(len(*got)) != n+l.Duplicated.Load() {
		t.Fatalf("delivered %d, want %d + %d duplicates", len(*got), n, l.Duplicated.Load())
	}
	if l.Duplicated.Load() == 0 {
		t.Fatal("duplicate fault never fired")
	}
}

// TestNetFaultDelay: delayed frames stay parked until Advance passes their
// due time, then arrive in due order.
func TestNetFaultDelay(t *testing.T) {
	plan := NetPlan{Seed: 3, Delay: 1.0, DelayBy: 10 * time.Millisecond}
	l, got := collect(plan)
	l.Send(0, []byte("a"))
	l.Send(2*time.Millisecond, []byte("b"))
	if len(*got) != 0 {
		t.Fatalf("delayed frames delivered early: %d", len(*got))
	}
	if l.pending() != 2 {
		t.Fatalf("Pending = %d, want 2", l.pending())
	}
	l.Advance(9 * time.Millisecond)
	if len(*got) != 0 {
		t.Fatalf("frame released before due time")
	}
	l.Advance(10 * time.Millisecond) // a due at 10ms, b due at 12ms
	if len(*got) != 1 || !bytes.Equal((*got)[0], []byte("a")) {
		t.Fatalf("after 10ms got %q, want [a]", *got)
	}
	l.Advance(12 * time.Millisecond)
	if len(*got) != 2 || !bytes.Equal((*got)[1], []byte("b")) {
		t.Fatalf("after 12ms got %q, want [a b]", *got)
	}
	if l.Delayed.Load() != 2 {
		t.Fatalf("Delayed = %d, want 2", l.Delayed.Load())
	}
}

// TestNetFaultReorder: a held frame is delivered after the next clean one.
func TestNetFaultReorder(t *testing.T) {
	// Seed chosen so the first draw reorders and the second does not; assert
	// on observed behavior rather than hardcoding which seed does what.
	for seed := uint64(0); seed < 64; seed++ {
		l, got := collect(NetPlan{Seed: seed, Reorder: 0.5})
		l.Send(0, []byte("first"))
		l.Send(0, []byte("second"))
		l.flush()
		if l.Reordered.Load() == 1 && len(*got) == 2 &&
			bytes.Equal((*got)[0], []byte("second")) && bytes.Equal((*got)[1], []byte("first")) {
			return // observed a genuine inversion
		}
	}
	t.Fatal("no seed in [0,64) produced a first-frame reorder inversion")
}

// TestNetFaultCut: a one-way partition swallows everything until Heal, and
// only the cut direction is affected.
func TestNetFaultCut(t *testing.T) {
	l, got := collect(NetPlan{Seed: 1})
	l.Send(0, []byte("pre"))
	l.Cut()
	for i, f := range frames(10) {
		l.Send(time.Duration(i)*time.Millisecond, f)
	}
	if l.CutDropped.Load() != 10 {
		t.Fatalf("CutDropped = %d, want 10", l.CutDropped.Load())
	}
	l.Heal()
	l.Send(20*time.Millisecond, []byte("post"))
	if len(*got) != 2 || !bytes.Equal((*got)[0], []byte("pre")) || !bytes.Equal((*got)[1], []byte("post")) {
		t.Fatalf("got %q, want [pre post]", *got)
	}
}

// TestNetFaultFlush: Flush drains every parked frame exactly once.
func TestNetFaultFlush(t *testing.T) {
	plan := NetPlan{Seed: 11, Delay: 0.5, DelayBy: time.Hour, Reorder: 0.5}
	l, got := collect(plan)
	const n = 200
	for i, f := range frames(n) {
		l.Send(time.Duration(i)*time.Millisecond, f)
	}
	l.flush()
	if l.pending() != 0 {
		t.Fatalf("Pending = %d after Flush", l.pending())
	}
	if int64(len(*got)) != n+l.Duplicated.Load()-l.Dropped.Load() {
		t.Fatalf("delivered %d of %d after Flush (dup %d, drop %d)",
			len(*got), n, l.Duplicated.Load(), l.Dropped.Load())
	}
}

// flush delivers everything still parked (reorder holds first, then delayed
// frames in due order) regardless of time — the end-of-test drain.
func (l *NetLink) flush() {
	l.Advance(1 << 62)
	l.mu.Lock()
	l.flushHeldLocked()
	l.mu.Unlock()
}

// pending reports how many frames are parked (reorder holds + delayed).
func (l *NetLink) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held) + len(l.delayed)
}
