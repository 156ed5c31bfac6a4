package mbox

import (
	"sync"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// waitFor polls cond up to timeout; false on deadline.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

func TestHarmonicLevels(t *testing.T) {
	const depth = 1024
	levels := harmonicLevels(4, depth)
	// Class 0 carries the never-shed sentinel.
	if levels[0] != 0 {
		t.Fatalf("levels[0] = %d, want 0 (never shed)", levels[0])
	}
	// Ceilings decrease with class, and even the last class keeps a
	// non-zero ceiling (never starved).
	for c := 2; c < len(levels); c++ {
		if levels[c] >= levels[c-1] {
			t.Fatalf("levels not decreasing: levels[%d]=%d ≥ levels[%d]=%d",
				c, levels[c], c-1, levels[c-1])
		}
	}
	if last := levels[len(levels)-1]; last < 1 {
		t.Fatalf("lowest class starved: ceiling %d", last)
	}
	// Spot-check the harmonic fractions for C=4, H=1+1/2+1/3+1/4=25/12:
	// F_1 = (1/2+1/3+1/4)/H = 13/25, F_2 = (1/3+1/4)/H = 7/25,
	// F_3 = (1/4)/H = 3/25.
	wants := []int32{0, 13 * depth / 25, 7 * depth / 25, 3 * depth / 25}
	for c, want := range wants {
		got := levels[c]
		if got < want-1 || got > want+1 {
			t.Errorf("levels[%d] = %d, want ≈%d", c, got, want)
		}
	}
	// Degenerate single-class config: nothing sheds proactively.
	if got := harmonicLevels(1, depth); len(got) != 1 || got[0] != 0 {
		t.Errorf("harmonicLevels(1) = %v, want [0]", got)
	}
}

// TestOverloadConfigDefaults pins the fixed parameters of what
// Config.Overload switches on.
func TestOverloadConfigDefaults(t *testing.T) {
	if shedClasses != 4 || pressureLo >= pressureHi || pressureLo <= 0 || pressureHi > 1 {
		t.Errorf("classes %d, hysteresis band [%v, %v] malformed", shedClasses, pressureLo, pressureHi)
	}
	if pressureWindow != 250*time.Millisecond {
		t.Errorf("window = %v, want the paper's 250ms", pressureWindow)
	}
}

func TestShedClassAPI(t *testing.T) {
	// Disabled plane: class operations are refused, health is zero.
	e := New(Config{Shards: 1})
	if _, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
		t.Fatal(err)
	}
	if err := e.SetShedClass("a", 1); err == nil {
		t.Error("SetShedClass accepted on a plane-less engine")
	}
	if h := e.Health(); h.Overload.Enabled {
		t.Error("Health reports overload enabled on a plane-less engine")
	}
	e.Close()

	e = New(Config{Shards: 1, Overload: true})
	defer e.Close()
	if _, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
		t.Fatal(err)
	}
	agg, err := e.aggByID("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.shedClass.Load(); got != 0 {
		t.Errorf("starting shed class = %d, want 0 (shed last)", got)
	}
	if err := e.SetShedClass("a", 3); err != nil {
		t.Fatal(err)
	}
	if got := agg.shedClass.Load(); got != 3 {
		t.Errorf("shed class = %d after SetShedClass(3)", got)
	}
	if err := e.SetShedClass("a", 4); err == nil {
		t.Error("out-of-range class accepted")
	}
	if err := e.SetShedClass("nope", 1); err == nil {
		t.Error("unknown aggregate accepted")
	}
	if h := e.Health(); !h.Overload.Enabled || h.Overload.Active {
		t.Errorf("Overload health = %+v, want enabled and inactive", h.Overload)
	}
}

// TestPriorityShedUnderPressure wedges a shard, engages the plane off ring
// pressure, and proves the shed policy is class-aware: the shed-first
// aggregate is dropped before the ring while the shed-last one still reaches
// the ring (and its enforcer, once unwedged). The watchdog never ticks: the
// test runs the pressure update itself with chosen readings of now.
func TestPriorityShedUnderPressure(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()

	c := obs.NewCollector(obs.Options{SampleEvery: 1})
	e := New(Config{
		Shards: 1, QueueDepth: 8,
		WatchdogInterval: time.Hour,
		CloseTimeout:     5 * time.Second,
		Observer:         c,
		Overload:         true,
	})
	now := time.Now().UnixNano()
	keep := &countingEnforcer{}
	victim := &countingEnforcer{}
	started := make(chan struct{}, 1)
	hKeep, err := e.Add("keep", keep, func(packet.Packet) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
	})
	if err != nil {
		t.Fatal(err)
	}
	hVictim, err := e.Add("victim", victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetShedClass("victim", 3); err != nil {
		t.Fatal(err)
	}

	// Wedge the consumer and fill the ring: pressure → 1.0.
	release := holdShard(t, e, "keep")
	if err := e.SubmitBatch(hKeep, burstOf(1, 0)); err != nil {
		t.Fatal(err)
	}
	release()
	<-started
	for i := 0; i < 64; i++ {
		_ = e.SubmitBatch(hKeep, burstOf(1, i))
	}
	e.updatePressure(now)
	if h := e.Health().Overload; !h.Active || h.Ring != 1 {
		t.Fatalf("plane did not engage on a full ring: %+v", h)
	}

	// Class 3's ceiling on an 8-deep ring is ⌊8·3/25⌋=0→clamped to 1
	// burst; the ring is full, so every victim submission sheds
	// proactively, before any ring slot and before the enforcer.
	// The inline ingress passes the same gate, before it would wait for
	// the word the wedged shard holds.
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, submit := range map[string]func([]packet.Packet) error{
		"SubmitBatch":    func(p []packet.Packet) error { return e.SubmitBatch(hVictim, p) },
		"LocalSubmitter": func(p []packet.Packet) error { return ls.SubmitBatch(hVictim, p) },
	} {
		shed0, over0 := e.OverloadShed.Load(), e.Overloaded.Load()
		for i := 0; i < 20; i++ {
			if err := submit(burstOf(1, i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := e.OverloadShed.Load() - shed0; got != 20 {
			t.Errorf("%s: OverloadShed grew %d, want 20", name, got)
		}
		if got := e.Overloaded.Load() - over0; got != 0 {
			t.Errorf("%s: Overloaded grew %d, want 0 (shed before the ring)", name, got)
		}
	}
	if f, err := e.Faults("victim"); err != nil {
		t.Fatal(err)
	} else if f.Quarantined {
		t.Error("proactive shed quarantined the victim")
	}
	// Class 0 is never shed proactively: its submissions still reach the
	// (full) ring and are counted as ring-full overload, not priority
	// shed.
	over0, pshed := e.Overloaded.Load(), e.OverloadShed.Load()
	_ = e.SubmitBatch(hKeep, burstOf(1, 99))
	if got := e.Overloaded.Load() - over0; got != 1 {
		t.Errorf("class-0 submission: Overloaded grew %d, want 1 (ring-full shed)", got)
	}
	if got := e.OverloadShed.Load() - pshed; got != 0 {
		t.Errorf("class-0 submission: OverloadShed grew %d, want 0", got)
	}

	// Unwedge and let the ring drain (Flush rides behind it): ten seconds
	// on, the few dozen packets shed read as a shed rate far below the
	// 100k/s reference, pressure falls, the plane disengages, and the
	// victim's traffic flows to its enforcer again.
	openGate()
	if err := e.Flush("keep", func(enforcer.Enforcer) {}); err != nil {
		t.Fatal(err)
	}
	e.updatePressure(now + int64(10*time.Second))
	if h := e.Health().Overload; h.Active || h.Pressure > pressureLo {
		t.Fatalf("plane did not disengage on a drained ring: %+v", h)
	}
	n0 := victim.n.Load()
	if err := e.SubmitBatch(hVictim, burstOf(4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush("victim", func(enforcer.Enforcer) {}); err != nil { // barrier
		t.Fatal(err)
	}
	if got := victim.n.Load(); got != n0+4 {
		t.Errorf("victim enforcer saw %d packets after the plane disengaged, want 4", got-n0)
	}

	// The transition pair is on the flight recorder.
	var on, off bool
	for _, ev := range e.TraceDump() {
		if ev.Kind == obs.KindOverload {
			if ev.A == 1 {
				on = true
			} else {
				off = true
			}
		}
	}
	if !on || !off {
		t.Errorf("KindOverload events: engage=%v disengage=%v, want both", on, off)
	}
	h := e.Health().Overload
	if h.PriorityShed < 20 || h.Transitions < 2 {
		t.Errorf("Overload health = %+v, want ≥20 priority sheds and ≥2 transitions", h)
	}
}

// TestOverloadMetricsExposition: the bcpqp_overload_* families are present
// exactly when the plane is enabled, the per-aggregate shed counter is
// exported alongside the other fault families, and no family of the removed
// eviction lifecycle is exported.
func TestOverloadMetricsExposition(t *testing.T) {
	names := func(e *Engine) map[string]bool {
		out := map[string]bool{}
		for _, f := range e.Metrics().Families {
			out[f.Name] = true
		}
		return out
	}
	e := New(Config{Shards: 1})
	if got := names(e); got["bcpqp_overload_pressure"] {
		t.Error("overload families exported by a plane-less engine")
	}
	e.Close()

	e = New(Config{Shards: 1, Overload: true})
	defer e.Close()
	if _, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
		t.Fatal(err)
	}
	got := names(e)
	for _, want := range []string{
		"bcpqp_overload_pressure", "bcpqp_overload_active",
		"bcpqp_overload_ring_pressure", "bcpqp_overload_shed_rate_pps",
		"bcpqp_overload_shed_packets_total", "bcpqp_overload_transitions_total",
		"bcpqp_aggregate_shed_packets_total",
	} {
		if !got[want] {
			t.Errorf("metric family %q missing", want)
		}
	}
	for _, gone := range []string{
		"bcpqp_evicted_total", "bcpqp_overload_table_fill",
		"bcpqp_overload_admission_evictions_total",
	} {
		if got[gone] {
			t.Errorf("metric family %q exported, want it absent", gone)
		}
	}
}
