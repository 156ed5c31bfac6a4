package workload

import (
	"testing"
	"time"

	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
	"bcpqp/internal/units"
)

// drain pulls the whole schedule from a Source, asserting monotone arrival
// times, and returns the bursts as (at, n) pairs.
func drain(t *testing.T, s Source) (ats []time.Duration, ns []int) {
	t.Helper()
	var buf [64]packet.Packet
	last := time.Duration(-1)
	for {
		at, n, ok := s.Next(buf[:])
		if !ok {
			return
		}
		if n <= 0 {
			t.Fatalf("empty burst at %v", at)
		}
		if at < last {
			t.Fatalf("arrival times not monotone: %v after %v", at, last)
		}
		last = at
		ats = append(ats, at)
		ns = append(ns, n)
		if len(ats) > 1_000_000 {
			t.Fatal("schedule did not terminate")
		}
	}
}

func TestFloodConstantRate(t *testing.T) {
	f := NewFlood(FloodConfig{Rate: 100 * units.Mbps, Duration: 200 * time.Millisecond})
	ats, _ := drain(t, f)
	pkts, bytes := f.Offered()
	if pkts == 0 || bytes != pkts*units.MSS {
		t.Fatalf("offered accounting: pkts=%d bytes=%d", pkts, bytes)
	}
	// Offered rate must track the configured rate: bytes over the span
	// within 5%.
	span := ats[len(ats)-1]
	want := (100 * units.Mbps).Bytes(span)
	got := float64(bytes)
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("offered %v bytes over %v, want ≈%v", got, span, want)
	}
}

func TestFloodBurstyDutyCycle(t *testing.T) {
	cfg := FloodConfig{
		Rate:     50 * units.Mbps,
		Duration: 400 * time.Millisecond,
		Period:   100 * time.Millisecond,
		Duty:     0.25,
	}
	f := NewFlood(cfg)
	ats, _ := drain(t, f)
	// Every arrival must land inside the first Duty fraction of its
	// period — the off-phase is silent.
	on := time.Duration(float64(cfg.Period) * cfg.Duty)
	for _, at := range ats {
		if phase := at % cfg.Period; phase >= on {
			t.Fatalf("arrival %v in off-phase (phase %v ≥ on %v)", at, phase, on)
		}
	}
	// The average offered rate still approximates Rate (it is sent at
	// Rate/Duty during on-phases).
	_, bytes := f.Offered()
	want := cfg.Rate.Bytes(cfg.Duration)
	if f := float64(bytes); f < want*0.7 || f > want*1.3 {
		t.Fatalf("bursty flood offered %v bytes, want ≈%v", f, want)
	}
}

func TestFloodDeterministic(t *testing.T) {
	mk := func() ([]time.Duration, []int) {
		return drain(t, NewFlood(FloodConfig{Rate: 80 * units.Mbps,
			Duration: 50 * time.Millisecond, Period: 10 * time.Millisecond, Duty: 0.5}))
	}
	a1, n1 := mk()
	a2, n2 := mk()
	if len(a1) != len(a2) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] || n1[i] != n2[i] {
			t.Fatalf("schedule diverges at burst %d", i)
		}
	}
}

func TestFlashCrowdSchedule(t *testing.T) {
	src := rng.New(42)
	c := NewFlashCrowd(src, FlashCrowdConfig{Aggregates: 1000, Window: time.Second})
	seen := make(map[string]bool, 1000)
	last := time.Duration(-1)
	n := 0
	for {
		a, ok := c.NextArrival()
		if !ok {
			break
		}
		n++
		if a.At < last {
			t.Fatalf("arrivals out of order: %v after %v", a.At, last)
		}
		last = a.At
		if a.At < 0 || a.At >= time.Second {
			t.Fatalf("arrival %v outside window", a.At)
		}
		if seen[a.ID] {
			t.Fatalf("duplicate aggregate id %q", a.ID)
		}
		seen[a.ID] = true
		var buf [8]packet.Packet
		if got := c.HelloBurst(a.Index, buf[:]); got != 4 {
			t.Fatalf("hello burst = %d, want 4", got)
		}
	}
	if n != 1000 {
		t.Fatalf("arrivals = %d, want 1000", n)
	}
	if c.Remaining() != 0 {
		t.Fatalf("Remaining = %d after drain", c.Remaining())
	}
	pkts, _ := c.Offered()
	if pkts != 4000 {
		t.Fatalf("offered pkts = %d, want 4000", pkts)
	}
}

func TestFlashCrowdDeterministic(t *testing.T) {
	ids := func(seed uint64) []time.Duration {
		c := NewFlashCrowd(rng.New(seed), FlashCrowdConfig{Aggregates: 200})
		var out []time.Duration
		for {
			a, ok := c.NextArrival()
			if !ok {
				return out
			}
			out = append(out, a.At)
		}
	}
	a, b := ids(7), ids(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d", i)
		}
	}
	c := ids(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestSwarmMixedRTT(t *testing.T) {
	s := NewSwarm(rng.New(1), SwarmConfig{Flows: 32, Duration: 300 * time.Millisecond})
	drain(t, s)
	// The swarm must actually mix RTTs: spread between fastest and
	// slowest pacing intervals should cover most of the 2–50 ms range.
	lo, hi := s.flows[0].rtt, s.flows[0].rtt
	for _, f := range s.flows {
		if f.rtt < lo {
			lo = f.rtt
		}
		if f.rtt > hi {
			hi = f.rtt
		}
	}
	if lo < 2*time.Millisecond || hi > 50*time.Millisecond {
		t.Fatalf("RTTs outside configured range: [%v, %v]", lo, hi)
	}
	if hi < 5*lo {
		t.Fatalf("RTT spread too narrow: [%v, %v]", lo, hi)
	}
	pkts, _ := s.Offered()
	if pkts == 0 {
		t.Fatal("swarm offered nothing")
	}
}

func TestStormSlowStartRamp(t *testing.T) {
	// One slot, huge flow: the per-round burst must double each round
	// (4, 8, 16, 32 capped by buffer).
	s := NewStorm(rng.New(3), StormConfig{
		Concurrency: 1,
		Duration:    time.Second,
		MinSize:     10 * units.MB,
		MaxSize:     11 * units.MB,
	})
	var buf [256]packet.Packet
	var sizes []int
	for i := 0; i < 4; i++ {
		_, n, ok := s.Next(buf[:])
		if !ok {
			t.Fatal("storm ended early")
		}
		sizes = append(sizes, n)
	}
	for i, want := range []int{4, 8, 16, 32} {
		if sizes[i] != want {
			t.Fatalf("round %d burst = %d, want %d (slow start doubling)", i, sizes[i], want)
		}
	}
}

func TestStormFlowTurnover(t *testing.T) {
	// Tiny flows: slots must recycle through many distinct flows, each
	// restarting from the initial window.
	s := NewStorm(rng.New(9), StormConfig{
		Concurrency: 4,
		Duration:    500 * time.Millisecond,
		MinSize:     6 * units.MSS,
		MaxSize:     12 * units.MSS,
	})
	var buf [64]packet.Packet
	keys := make(map[packet.FlowKey]bool)
	for {
		_, n, ok := s.Next(buf[:])
		if !ok {
			break
		}
		keys[buf[0].Key] = true
		if n > 16 {
			t.Fatalf("tiny flow emitted %d-packet round", n)
		}
	}
	if len(keys) < 20 {
		t.Fatalf("only %d distinct flows over 500ms of tiny flows", len(keys))
	}
}

func TestStormFlowSizesWithinRange(t *testing.T) {
	// Every flow a storm starts is sized inside [MinSize, MaxSize] as the
	// config resolves them: an unset MaxSize is max(500 KB, MinSize), and a
	// MaxSize below MinSize is raised to it.
	for _, tc := range []struct {
		name     string
		cfg      StormConfig
		min, max int64
	}{
		{"defaults", StormConfig{}, 10 * units.KB, 500 * units.KB},
		{"set range", StormConfig{MinSize: 6 * units.MSS, MaxSize: 12 * units.MSS}, 6 * units.MSS, 12 * units.MSS},
		{"min above default max", StormConfig{MinSize: units.MB}, units.MB, units.MB},
		{"max below min", StormConfig{MinSize: units.MB, MaxSize: 600 * units.KB}, units.MB, units.MB},
	} {
		cfg := tc.cfg
		cfg.Concurrency, cfg.Duration = 4, time.Second
		s := NewStorm(rng.New(11), cfg)
		check := func(i int) {
			if left := s.flows[i].left; left < tc.min || left > tc.max {
				t.Fatalf("%s: slot %d flow %d sized %d, want within [%d, %d]",
					tc.name, i, s.born[i], left, tc.min, tc.max)
			}
		}
		for i := range s.flows {
			check(i)
		}
		var buf [64]packet.Packet
		started := 0
		for {
			born := append([]int(nil), s.born...)
			if _, _, ok := s.Next(buf[:]); !ok {
				break
			}
			for i := range born {
				if s.born[i] != born[i] {
					check(i)
					started++
				}
			}
		}
		if started == 0 {
			t.Fatalf("%s: no flow completed in %v, so no restarted flow was checked", tc.name, cfg.Duration)
		}
	}
}

func TestSourcesOfferedMatchesEmitted(t *testing.T) {
	srcs := []Source{
		NewFlood(FloodConfig{Rate: 40 * units.Mbps, Duration: 100 * time.Millisecond}),
		NewSwarm(rng.New(5), SwarmConfig{Flows: 8, Duration: 100 * time.Millisecond}),
		NewStorm(rng.New(5), StormConfig{Concurrency: 4, Duration: 100 * time.Millisecond}),
	}
	for i, s := range srcs {
		var buf [64]packet.Packet
		var pkts, bytes int64
		for {
			_, n, ok := s.Next(buf[:])
			if !ok {
				break
			}
			pkts += int64(n)
			for j := 0; j < n; j++ {
				bytes += int64(buf[j].Size)
			}
		}
		gp, gb := s.Offered()
		if gp != pkts || gb != bytes {
			t.Fatalf("source %d: Offered()=(%d,%d), emitted (%d,%d)", i, gp, gb, pkts, bytes)
		}
	}
}
