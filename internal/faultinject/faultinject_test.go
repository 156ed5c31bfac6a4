package faultinject

import (
	"errors"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

func pkt(i int) packet.Packet {
	return packet.Packet{
		Key:  packet.FlowKey{SrcPort: uint16(i + 1), Proto: 17},
		Size: units.MSS,
	}
}

// recording wraps an enforcer and logs the arrival times it observes.
type recording struct {
	inner enforcer.Enforcer
	times []time.Duration
}

func (r *recording) Submit(now time.Duration, p packet.Packet) enforcer.Verdict {
	r.times = append(r.times, now)
	return r.inner.Submit(now, p)
}

// run drives an injector over n bursts, recovering injected panics, and
// returns the fault sequence (which calls panicked) for determinism checks.
func run(t *testing.T, inj *Injector, n int) []bool {
	t.Helper()
	panicked := make([]bool, n)
	verdicts := make([]enforcer.Verdict, 4)
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if !ok || !errors.Is(err, errInjectedPanic) {
						t.Fatalf("unexpected panic value: %v", r)
					}
					panicked[i] = true
				}
			}()
			pkts := []packet.Packet{pkt(i), pkt(i + 1), pkt(i + 2), pkt(i + 3)}
			inj.SubmitBatch(time.Duration(i)*time.Millisecond, pkts, verdicts)
		}()
	}
	return panicked
}

func TestDeterministicFaultSequence(t *testing.T) {
	plan := Plan{Seed: 42, Panic: 0.3, Corrupt: 0.2, Skew: 0.2, SkewBy: 5 * time.Millisecond}
	a := New(tbf.MustNew(units.Mbps, 10*units.MSS), plan)
	b := New(tbf.MustNew(units.Mbps, 10*units.MSS), plan)
	const n = 200
	seqA, seqB := run(t, a, n), run(t, b, n)
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("fault sequences diverge at call %d with identical seeds", i)
		}
	}
	if a.Panics.Load() == 0 {
		t.Fatal("panic probability 0.3 over 200 calls injected nothing")
	}
	if a.Panics.Load() != b.Panics.Load() || a.Corruptions.Load() != b.Corruptions.Load() ||
		a.Skews.Load() != b.Skews.Load() {
		t.Fatalf("fault counters diverge: %d/%d/%d vs %d/%d/%d",
			a.Panics.Load(), a.Corruptions.Load(), a.Skews.Load(),
			b.Panics.Load(), b.Corruptions.Load(), b.Skews.Load())
	}
	c := New(tbf.MustNew(units.Mbps, 10*units.MSS), Plan{Seed: 43, Panic: 0.3, Corrupt: 0.2, Skew: 0.2, SkewBy: 5 * time.Millisecond})
	seqC := run(t, c, n)
	same := true
	for i := range seqA {
		if seqA[i] != seqC[i] {
			same = false
			break
		}
	}
	if same && a.Panics.Load() == c.Panics.Load() {
		t.Error("different seeds produced an identical fault sequence")
	}
}

func TestMaxPanicsBoundsInjection(t *testing.T) {
	inj := New(tbf.MustNew(units.Mbps, 10*units.MSS), Plan{Seed: 7, Panic: 1, MaxPanics: 3})
	run(t, inj, 50)
	if got := inj.Panics.Load(); got != 3 {
		t.Errorf("injected %d panics, want exactly MaxPanics=3", got)
	}
}

func TestSkewStaysMonotone(t *testing.T) {
	rec := &recording{inner: tbf.MustNew(units.Mbps, 10*units.MSS)}
	inj := New(rec, Plan{Seed: 11, Skew: 0.5, SkewBy: 50 * time.Millisecond})
	for i := 0; i < 200; i++ {
		inj.Submit(time.Duration(i)*time.Millisecond, pkt(i))
	}
	if inj.Skews.Load() == 0 {
		t.Fatal("skew probability 0.5 over 200 calls injected nothing")
	}
	for i := 1; i < len(rec.times); i++ {
		if rec.times[i] < rec.times[i-1] {
			t.Fatalf("observed time went backwards at call %d: %v < %v",
				i, rec.times[i], rec.times[i-1])
		}
	}
}

func TestCorruptionProducesOutOfRangeVerdict(t *testing.T) {
	inj := New(tbf.MustNew(units.Mbps, 1000*units.MSS), Plan{Seed: 3, Corrupt: 1})
	verdicts := make([]enforcer.Verdict, 4)
	inj.SubmitBatch(0, []packet.Packet{pkt(0), pkt(1), pkt(2), pkt(3)}, verdicts)
	if inj.Corruptions.Load() != 1 {
		t.Fatalf("corruptions = %d, want 1 per batch", inj.Corruptions.Load())
	}
	found := false
	for _, v := range verdicts {
		if v == CorruptVerdict {
			found = true
		}
	}
	if !found {
		t.Errorf("no corrupted verdict in %v", verdicts)
	}
	if v := inj.Submit(0, pkt(0)); v != CorruptVerdict {
		t.Errorf("single-submit corruption: verdict %v, want %v", v, CorruptVerdict)
	}
}

func TestStallInjection(t *testing.T) {
	inj := New(tbf.MustNew(units.Mbps, 10*units.MSS), Plan{Seed: 5, Stall: 1, StallFor: 2 * time.Millisecond})
	start := time.Now()
	inj.Submit(0, pkt(0))
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("stall of 2ms took only %v", elapsed)
	}
	if inj.Stalls.Load() != 1 {
		t.Errorf("stalls = %d, want 1", inj.Stalls.Load())
	}
}

func TestStatsDelegation(t *testing.T) {
	inner := tbf.MustNew(units.Mbps, 10*units.MSS)
	inj := New(inner, Plan{Seed: 1})
	inj.Submit(0, pkt(0))
	st := inj.EnforcerStats()
	if p, _ := st.Totals(); p != 1 {
		t.Errorf("delegated stats saw %d packets, want 1", p)
	}
}
