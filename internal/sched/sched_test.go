package sched

import (
	"math"
	"testing"
	"testing/quick"
)

func allActive(int) bool  { return true }
func noneActive(int) bool { return false }

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		root *Node
		ok   bool
	}{
		{"nil root", nil, false},
		{"single leaf", Leaf(0), true},
		{"fair pair", Weighted(Leaf(0), Leaf(1)), true},
		{"duplicate class", Weighted(Leaf(0), Leaf(0)), false},
		{"missing class", Weighted(Leaf(0), Leaf(2)), false},
		{"negative class", Leaf(-1), false},
		{"zero weight", Weighted(Leaf(0).WithWeight(0), Leaf(1)), false},
		{"empty internal", Weighted(), false},
		{"nested ok", Priority(Weighted(Leaf(0), Leaf(1)), Leaf(2)), true},
	}
	for _, tc := range cases {
		_, err := New(tc.root)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestFairShares(t *testing.T) {
	p := Fair(4)
	out := make([]float64, 4)
	p.Shares(100, allActive, out)
	for i, s := range out {
		if math.Abs(s-25) > 1e-9 {
			t.Errorf("class %d share = %v, want 25", i, s)
		}
	}
	// Only classes 1 and 3 active: each gets half.
	p.Shares(100, func(c int) bool { return c == 1 || c == 3 }, out)
	want := []float64{0, 50, 0, 50}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Errorf("class %d share = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestWeightedShares(t *testing.T) {
	p := WeightedFair(1, 2, 3, 4)
	out := make([]float64, 4)
	p.Shares(100, allActive, out)
	want := []float64{10, 20, 30, 40}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Errorf("class %d share = %v, want %v", i, out[i], want[i])
		}
	}
	// Class 3 leaves: remaining renormalize to 1:2:3.
	p.Shares(60, func(c int) bool { return c < 3 }, out)
	want = []float64{10, 20, 30, 0}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Errorf("after departure: class %d share = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestPriorityShares(t *testing.T) {
	p := StrictPriority(3)
	out := make([]float64, 3)
	p.Shares(100, allActive, out)
	if out[0] != 100 || out[1] != 0 || out[2] != 0 {
		t.Errorf("priority shares = %v, want [100 0 0]", out)
	}
	p.Shares(100, func(c int) bool { return c >= 1 }, out)
	if out[0] != 0 || out[1] != 100 || out[2] != 0 {
		t.Errorf("priority shares with 0 idle = %v, want [0 100 0]", out)
	}
	p.Shares(100, noneActive, out)
	if out[0] != 0 || out[1] != 0 || out[2] != 0 {
		t.Errorf("all-idle shares = %v, want zeros", out)
	}
}

func TestNestedShares(t *testing.T) {
	// The paper's example: two classes, first with 2× the weight of the
	// second, per-flow fairness within each class.
	p := MustNew(Weighted(
		Weighted(Leaf(0), Leaf(1)).WithWeight(2),
		Weighted(Leaf(2), Leaf(3)).WithWeight(1),
	))
	out := make([]float64, 4)
	p.Shares(90, allActive, out)
	want := []float64{30, 30, 15, 15}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Errorf("class %d share = %v, want %v", i, out[i], want[i])
		}
	}
	// One flow in the heavy class: it takes the full class share.
	p.Shares(90, func(c int) bool { return c != 1 }, out)
	want = []float64{60, 0, 15, 15}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Errorf("class %d share = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestPriorityOverWeighted(t *testing.T) {
	// Fig 6d: p1 = 3 weighted flows (high priority), p2 = 1 backlogged.
	p := MustNew(Priority(
		Weighted(Leaf(0).WithWeight(3), Leaf(1).WithWeight(2), Leaf(2).WithWeight(1)),
		Leaf(3),
	))
	out := make([]float64, 4)
	p.Shares(60, allActive, out)
	want := []float64{30, 20, 10, 0}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Errorf("class %d share = %v, want %v", i, out[i], want[i])
		}
	}
	// p1 idle: p2 gets everything.
	p.Shares(60, func(c int) bool { return c == 3 }, out)
	if out[3] != 60 {
		t.Errorf("p2 share = %v, want 60", out[3])
	}
}

// drainHarness runs Drain against in-memory queue lengths.
type drainHarness struct {
	lens []int64
}

func (h *drainHarness) length(c int) int64 { return h.lens[c] }
func (h *drainHarness) drain(c int, n int64) {
	if n > h.lens[c] {
		panic("over-drain")
	}
	h.lens[c] -= n
}

func TestDrainFairEqualBacklogs(t *testing.T) {
	p := Fair(4)
	h := &drainHarness{lens: []int64{1000, 1000, 1000, 1000}}
	got := p.Drain(2000, h.length, h.drain)
	if got != 2000 {
		t.Errorf("drained %d, want 2000", got)
	}
	for i, l := range h.lens {
		if l != 500 {
			t.Errorf("queue %d left %d, want 500", i, l)
		}
	}
}

func TestDrainWorkConserving(t *testing.T) {
	p := Fair(3)
	// Queue 0 has little; its slack must go to the others.
	h := &drainHarness{lens: []int64{100, 5000, 5000}}
	got := p.Drain(3100, h.length, h.drain)
	if got != 3100 {
		t.Errorf("drained %d, want 3100", got)
	}
	if h.lens[0] != 0 {
		t.Errorf("queue 0 left %d, want 0", h.lens[0])
	}
	if h.lens[1] != 3500 || h.lens[2] != 3500 {
		t.Errorf("queues left %v, want [0 3500 3500]", h.lens)
	}
}

func TestDrainWeighted(t *testing.T) {
	p := WeightedFair(3, 1)
	h := &drainHarness{lens: []int64{10000, 10000}}
	p.Drain(4000, h.length, h.drain)
	if h.lens[0] != 7000 || h.lens[1] != 9000 {
		t.Errorf("weighted drain left %v, want [7000 9000]", h.lens)
	}
}

func TestDrainPriority(t *testing.T) {
	p := StrictPriority(3)
	h := &drainHarness{lens: []int64{500, 1000, 1000}}
	p.Drain(1200, h.length, h.drain)
	if h.lens[0] != 0 || h.lens[1] != 300 || h.lens[2] != 1000 {
		t.Errorf("priority drain left %v, want [0 300 1000]", h.lens)
	}
}

func TestDrainBudgetExceedsBacklog(t *testing.T) {
	p := Fair(2)
	h := &drainHarness{lens: []int64{100, 200}}
	got := p.Drain(1000, h.length, h.drain)
	if got != 300 {
		t.Errorf("drained %d, want 300", got)
	}
	if h.lens[0] != 0 || h.lens[1] != 0 {
		t.Errorf("queues not emptied: %v", h.lens)
	}
}

func TestDrainZeroBudget(t *testing.T) {
	p := Fair(2)
	h := &drainHarness{lens: []int64{100, 200}}
	if got := p.Drain(0, h.length, h.drain); got != 0 {
		t.Errorf("drained %d on zero budget", got)
	}
	if got := p.Drain(-5, h.length, h.drain); got != 0 {
		t.Errorf("drained %d on negative budget", got)
	}
}

func TestDrainNested(t *testing.T) {
	p := MustNew(Priority(
		Weighted(Leaf(0), Leaf(1)),
		Leaf(2),
	))
	h := &drainHarness{lens: []int64{300, 300, 1000}}
	p.Drain(1000, h.length, h.drain)
	// High-priority group drains fully (600), remainder to low priority.
	if h.lens[0] != 0 || h.lens[1] != 0 || h.lens[2] != 600 {
		t.Errorf("nested drain left %v, want [0 0 600]", h.lens)
	}
}

// Property: Drain consumes exactly min(budget, total backlog), never
// over-drains a queue, and never leaves budget unused while backlog remains.
func TestDrainConservationProperty(t *testing.T) {
	policies := []*Policy{
		Fair(5),
		WeightedFair(1, 2, 3, 4, 5),
		StrictPriority(5),
		MustNew(Priority(
			Weighted(Leaf(0).WithWeight(2), Leaf(1)),
			Weighted(Leaf(2), Leaf(3), Leaf(4)),
		)),
	}
	f := func(lens [5]uint32, budget uint32) bool {
		for _, p := range policies {
			h := &drainHarness{lens: make([]int64, 5)}
			var total int64
			for i, l := range lens {
				h.lens[i] = int64(l % 100000)
				total += h.lens[i]
			}
			b := int64(budget % 200000)
			want := b
			if total < b {
				want = total
			}
			got := p.Drain(b, h.length, h.drain)
			if got != want {
				return false
			}
			var left int64
			for _, l := range h.lens {
				if l < 0 {
					return false
				}
				left += l
			}
			if left != total-got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Shares sums to the offered rate whenever any class is active,
// and inactive classes get zero.
func TestSharesConservationProperty(t *testing.T) {
	policies := []*Policy{
		Fair(6),
		WeightedFair(5, 4, 3, 2, 1, 1),
		StrictPriority(6),
		MustNew(Weighted(
			Priority(Leaf(0), Leaf(1)).WithWeight(3),
			Weighted(Leaf(2), Leaf(3).WithWeight(7)).WithWeight(2),
			Leaf(4).WithWeight(1),
			Leaf(5).WithWeight(1),
		)),
	}
	f := func(mask uint8) bool {
		active := func(c int) bool { return mask&(1<<uint(c)) != 0 }
		anyActive := mask&0x3f != 0
		for _, p := range policies {
			out := make([]float64, 6)
			p.Shares(120, active, out)
			var sum float64
			for c, s := range out {
				if s < 0 {
					return false
				}
				if !active(c) && s != 0 {
					return false
				}
				sum += s
			}
			if anyActive && math.Abs(sum-120) > 1e-6 {
				return false
			}
			if !anyActive && sum != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256}); err != nil {
		t.Error(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on invalid policy")
		}
	}()
	MustNew(Weighted(Leaf(0), Leaf(0)))
}

func TestNumClasses(t *testing.T) {
	if got := Fair(7).NumClasses(); got != 7 {
		t.Errorf("NumClasses = %d, want 7", got)
	}
}

// TestFlatWeighted: single-level weighted policies reduce to their weights
// by class; equal weights are the one shared slice, whatever the class count
// asked for first; anything with depth or priority does not reduce.
func TestFlatWeighted(t *testing.T) {
	if got := WeightedFair(1, 2, 0.5).FlatWeighted(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 0.5 {
		t.Errorf("WeightedFair(1, 2, 0.5) → %v", got)
	}
	permuted := MustNew(Weighted(Leaf(2).WithWeight(3), Leaf(0), Leaf(1).WithWeight(2)))
	if got := permuted.FlatWeighted(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("weights are not indexed by class: %v", got)
	}
	big, small := Fair(200).FlatWeighted(), Fair(16).FlatWeighted()
	if len(big) != 200 || len(small) != 16 || cap(small) != 16 {
		t.Fatalf("Fair → %d and %d weights (cap %d)", len(big), len(small), cap(small))
	}
	for _, w := range big {
		if w != 1 {
			t.Fatalf("Fair(200) has weight %v", w)
		}
	}
	if &small[0] != &EqualWeights(16)[0] || &small[0] != &Fair(16).FlatWeighted()[0] || &small[0] != &big[0] {
		t.Error("equal weights are not one shared slice")
	}
	if got := MustNew(Leaf(0).WithWeight(0.3)).FlatWeighted(); len(got) != 1 || got[0] != 1 {
		t.Errorf("lone leaf → %v, want [1]", got)
	}
	for name, p := range map[string]*Policy{
		"priority": StrictPriority(3),
		"nested":   MustNew(Weighted(Leaf(0), Weighted(Leaf(1), Leaf(2)))),
	} {
		if got := p.FlatWeighted(); got != nil {
			t.Errorf("%s policy reduced to %v", name, got)
		}
	}
}
