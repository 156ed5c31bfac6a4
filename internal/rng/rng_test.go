package rng

import (
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws from different seeds", same)
	}
}

func TestSplitIndependentOfDrawOrder(t *testing.T) {
	a := New(7)
	b := New(7)
	// Consume values from b before splitting; children must match.
	for i := 0; i < 13; i++ {
		b.Float64()
	}
	ca, cb := a.Split(3), b.Split(3)
	for i := 0; i < 50; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("Split depends on parent draw order")
		}
	}
}

func TestSplitLabelsDiverge(t *testing.T) {
	s := New(9)
	c1, c2 := s.Split(1), s.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws from sibling splits", same)
	}
}

func TestAdjacentLabelsDiverge(t *testing.T) {
	s := New(0)
	c1, c2 := s.Split(0), s.Split(1)
	if c1.Uint64() == c2.Uint64() {
		t.Error("adjacent labels produced identical first draws")
	}
}

func TestRangeBounds(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		v := s.Range(2, 50)
		if v < 2 || v >= 50 {
			t.Fatalf("Range(2,50) = %v out of bounds", v)
		}
	}
}

func TestIntNBounds(t *testing.T) {
	s := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntN(4)
		if v < 0 || v >= 4 {
			t.Fatalf("IntN(4) = %d out of bounds", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("IntN(4) only produced %d distinct values in 1000 draws", len(seen))
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(11)
	for i := 0; i < 100; i++ {
		if v := s.LogNormal(10, 1.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestExpMeanRoughlyOne(t *testing.T) {
	s := New(13)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.exp()
	}
	mean := sum / n
	if mean < 0.95 || mean > 1.05 {
		t.Errorf("Exp mean = %v, want ≈1", mean)
	}
}

func TestPerm(t *testing.T) {
	s := New(17)
	p := s.perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}
