package obs

import (
	"sync"
	"testing"
	"time"
)

func TestRingRecordSnapshot(t *testing.T) {
	c := NewCollector(Options{RingDepth: 16})
	for i := 0; i < 10; i++ {
		c.Record(Event{Kind: KindShed, Shard: -1, Agg: -1, A: int64(i)})
	}
	evs := c.Events()
	if len(evs) != 10 {
		t.Fatalf("Events() = %d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d (sorted by global sequence)", i, e.Seq, i+1)
		}
		if e.A != int64(i) {
			t.Errorf("event %d: A = %d, want %d", i, e.A, i)
		}
		if e.Wall == 0 {
			t.Errorf("event %d: wall timestamp not stamped", i)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	c := NewCollector(Options{RingDepth: 16})
	for i := 0; i < 100; i++ {
		c.Record(Event{Kind: KindShed, Shard: -1, Agg: -1, A: int64(i)})
	}
	evs := c.Events()
	if len(evs) != 16 {
		t.Fatalf("ring of 16 holds %d events", len(evs))
	}
	if evs[0].A != 84 || evs[len(evs)-1].A != 99 {
		t.Errorf("ring holds A=%d..%d, want 84..99", evs[0].A, evs[len(evs)-1].A)
	}
	if got := c.EventsRecorded(); got != 100 {
		t.Errorf("EventsRecorded = %d, want 100", got)
	}
}

// TestRingConcurrentSnapshot hammers a ring with concurrent writers while
// snapshotting: every returned event must be internally consistent (the
// writer stores A == B), which the per-slot seqlock guarantees.
func TestRingConcurrentSnapshot(t *testing.T) {
	c := NewCollector(Options{RingDepth: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := int64(w*1_000_000 + i)
				c.Record(Event{Kind: KindBurst, Shard: -1, Agg: -1, A: v, B: v})
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, e := range c.Events() {
			if e.A != e.B {
				t.Fatalf("torn event: A=%d B=%d", e.A, e.B)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardRecordStampsShard(t *testing.T) {
	c := NewCollector(Options{RingDepth: 16})
	s := c.Shard(3)
	s.Record(Event{Kind: KindPanic, Agg: 7, A: 1})
	evs := c.Events()
	if len(evs) != 1 || evs[0].Shard != 3 || evs[0].Agg != 7 {
		t.Fatalf("shard event = %+v", evs)
	}
}

func TestSampleBurst(t *testing.T) {
	c := NewCollector(Options{SampleEvery: 4})
	s := c.Shard(0)
	var hits int
	for i := 0; i < 16; i++ {
		if s.SampleBurst() {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("SampleEvery=4 over 16 bursts sampled %d, want 4", hits)
	}
}

func TestHistQuantile(t *testing.T) {
	if q := latencyHist().quantile(0.5); q != 0 {
		t.Errorf("empty hist quantile = %g, want 0", q)
	}
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = 1000 // 1 µs
	}
	s := latencyHist(ns...)
	if q := s.quantile(0.5); q < 0.9e-6 || q > 1.2e-6 {
		t.Errorf("p50 of 1µs = %g s", q)
	}
	if s.Count != 1000 || s.Sum < 0.999e-3 || s.Sum > 1.001e-3 {
		t.Errorf("Count %d Sum %g, want 1000 and 1e-3", s.Count, s.Sum)
	}
}

// newRateMeter returns a meter with the given window, as a collector sets
// one up for each aggregate.
func newRateMeter(window time.Duration) *rateMeter {
	r := new(rateMeter)
	r.init(window)
	return r
}

func TestRateMeter(t *testing.T) {
	m := newRateMeter(100 * time.Millisecond)
	if r := m.rate(); r != 0 {
		t.Errorf("empty meter Rate = %v, want 0", r)
	}
	// 12500 bytes into the first window = 1 Mbps at 100 ms windows: read
	// off the partial window while it is the only one, off the completed
	// window once the next has begun.
	m.add(10*time.Millisecond, 12500)
	if r := float64(m.rate()); r != 1e6 {
		t.Errorf("partial first window Rate = %g bps, want 1e6", r)
	}
	m.add(150*time.Millisecond, 1) // advance into window 1
	if r := float64(m.rate()); r != 1e6 {
		t.Errorf("Rate = %g bps, want 1e6", r)
	}
	m.add(460*time.Millisecond, 1) // windows 2 and 3 saw nothing
	if r := m.rate(); r != 0 {
		t.Errorf("Rate after an idle gap = %v, want 0", r)
	}
}

// TestRateMeterLongRun walks far past where the old meter rebased: two
// windows of state keep working, at the same size, for ever.
func TestRateMeterLongRun(t *testing.T) {
	m := newRateMeter(time.Millisecond)
	for i := 0; i < 10_000; i++ {
		m.add(time.Duration(i)*time.Millisecond, 125)
		if i > 0 && m.rate() != 1e6 {
			t.Fatalf("steady 1 Mbps reads %v bps at window %d", m.rate(), i)
		}
	}
	// Time regression counts into the current window instead of panicking.
	m.add(0, 10)
	m.add(10_000*time.Millisecond, 1)
	if r := float64(m.rate()); r != 135*8e3 {
		t.Errorf("Rate = %g, want the regressed bytes counted into the last window", r)
	}
	if n := testing.AllocsPerRun(100, func() { m.add(20_000*time.Millisecond, 1); _ = m.rate() }); n != 0 {
		t.Errorf("Add+Rate allocates %v times", n)
	}
}

func TestAggObsCount(t *testing.T) {
	c := NewCollector(Options{})
	a := c.NewAggObs()
	a.Count(10, 15000, 2, 3000, 50*time.Millisecond)
	a.Count(5, 7500, 0, 0, 60*time.Millisecond)
	s := a.Snapshot()
	if s.AcceptedPackets != 15 || s.AcceptedBytes != 22500 ||
		s.DroppedPackets != 2 || s.DroppedBytes != 3000 {
		t.Errorf("Snapshot = %+v", s)
	}
}

// TestCollectorBurstHistMerge: the burst count sums every shard's bursts,
// untimed ones (a negative elapsed) included; the merged histogram holds
// the timed ones.
func TestCollectorBurstHistMerge(t *testing.T) {
	c := NewCollector(Options{})
	c.Shard(0).ObserveBurst(1000)
	c.Shard(1).ObserveBurst(2000)
	c.Shard(1).ObserveBurst(3000)
	c.Shard(1).ObserveBurst(-1)
	if got := c.Bursts(); got != 4 {
		t.Errorf("Bursts = %d, want 4", got)
	}
	if s := c.BurstHist(); s.Count != 3 {
		t.Errorf("merged hist Count = %d, want 3", s.Count)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindBurst; k <= KindViolation; k++ {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Errorf("Kind(%d).String() = %q", k, s)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("unknown kind string = %q", Kind(200).String())
	}
}
