package mbox

import (
	"errors"
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

// idleFor backdates id's activity stamp by d: the aggregate reads as idle d
// longer than it has been, with no clock waited on.
func idleFor(t testing.TB, e *Engine, id string, d time.Duration) {
	t.Helper()
	agg, err := e.aggByID(id)
	if err != nil {
		t.Fatal(err)
	}
	agg.lastActive.Add(-int64(d))
}

// TestOverloadConfigDefaults pins what Config.Overload switches on: the
// plane's fixed parameters, and the TTLs it derives from IdleTTL.
func TestOverloadConfigDefaults(t *testing.T) {
	if shedClasses != 4 || pressureLo >= pressureHi || pressureLo <= 0 || pressureHi > 1 {
		t.Errorf("classes %d, hysteresis band [%v, %v] malformed", shedClasses, pressureLo, pressureHi)
	}
	if pressureWindow != 250*time.Millisecond {
		t.Errorf("window = %v, want the paper's 250ms", pressureWindow)
	}
	for _, tc := range []struct{ idleTTL, minIdle, admission time.Duration }{
		{800 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond}, // IdleTTL/8
		{4 * time.Millisecond, time.Millisecond, time.Millisecond},               // floored at 1ms
		{0, 0, 10 * time.Millisecond},                                            // no sweeper
	} {
		p := newOverloadPlane(tc.idleTTL, 1024)
		if p.minIdleTTL != tc.minIdle || p.admissionTTL != tc.admission {
			t.Errorf("IdleTTL %v: minIdleTTL %v, admissionTTL %v; want %v, %v",
				tc.idleTTL, p.minIdleTTL, p.admissionTTL, tc.minIdle, tc.admission)
		}
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
	if got, _ := e.ShedClass("a"); got != 0 {
		t.Errorf("starting shed class = %d, want 0 (shed last)", got)
	}
	if err := e.SetShedClass("a", 3); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.ShedClass("a"); got != 3 {
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

// TestAddEvictsIdleWhenFull drives the Add path against a full table: with
// the plane on, the least-recently-active aggregate makes room (zero-Stats
// OnEvict, stale old handle); without an idle-enough victim Add degrades to
// ErrTableFull.
func TestAddEvictsIdleWhenFull(t *testing.T) {
	var mu sync.Mutex
	evicted := map[string]enforcer.Stats{}
	e := New(Config{
		Shards: 1, MaxAggregates: 3,
		OnEvict: func(id string, final enforcer.Stats) {
			mu.Lock()
			evicted[id] = final
			mu.Unlock()
		},
		Overload: true,
	})
	defer e.Close()

	mk := func() enforcer.Enforcer { return tbf.MustNew(units.Mbps, 10*units.MSS) }
	h0, err := e.Add("a0", mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	idleFor(t, e, "a0", time.Second) // a0 is now the LRU, idle past the 10ms admission TTL
	if _, err := e.Add("a1", mk(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add("a2", mk(), nil); err != nil {
		t.Fatal(err)
	}

	// Table full; a1/a2 are fresh. Only a0 is idle enough — it is evicted
	// and the Add succeeds.
	h3, err := e.Add("a3", mk(), nil)
	if err != nil {
		t.Fatalf("Add against full table with idle victim: %v", err)
	}
	if e.Len() != 3 {
		t.Errorf("Len = %d, want 3", e.Len())
	}
	if got := e.AdmissionEvictions.Load(); got != 1 {
		t.Errorf("AdmissionEvictions = %d, want 1", got)
	}
	if got := e.Evicted.Load(); got != 1 {
		t.Errorf("Evicted = %d, want 1", got)
	}
	mu.Lock()
	final, ok := evicted["a0"]
	mu.Unlock()
	if !ok {
		t.Fatal("OnEvict never saw a0")
	}
	if p, b := final.Totals(); p != 0 || b != 0 {
		t.Errorf("admission eviction reported non-zero Stats (%d pkts, %d bytes)", p, b)
	}
	// The victim's handle is stale; the new aggregate's works.
	if err := e.SubmitBatch(h0, burstOf(1, 0)); !errors.Is(err, ErrStale) {
		t.Errorf("evicted handle error = %v, want ErrStale", err)
	}
	if err := e.SubmitBatch(h3, burstOf(1, 0)); err != nil {
		t.Errorf("fresh handle error = %v", err)
	}

	// Everything now current (< admission TTL idle): the next Add degrades
	// to ErrTableFull — fast, no ring traffic.
	for _, id := range []string{"a1", "a2", "a3"} {
		if err := e.Update(id, func(time.Duration, enforcer.Enforcer) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Add("a4", mk(), nil); !errors.Is(err, ErrTableFull) {
		t.Errorf("Add with no idle victim = %v, want ErrTableFull", err)
	}
}

// TestEffectiveTTLTightens checks the pressure→TTL curve: IdleTTL until 50%
// fill, then linear down to IdleTTL/8 at 100%. The TTL is long enough that
// the sweeper (every second) finds nothing to evict while the test runs.
func TestEffectiveTTLTightens(t *testing.T) {
	e := New(Config{
		Shards: 1, MaxAggregates: 10,
		IdleTTL:  8 * time.Second,
		Overload: true,
	})
	defer e.Close()
	add := func(n int) {
		for i := e.Len(); i < n; i++ {
			id := string(rune('a' + i))
			if _, err := e.Add(id, tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(5) // fill 0.5: untightened
	if got := e.effectiveTTL(); got != 8*time.Second {
		t.Errorf("effectiveTTL at 50%% fill = %v, want 8s", got)
	}
	add(8) // fill 0.8: 8s - 0.6·7s = 3.8s
	if got := e.effectiveTTL(); got != 3800*time.Millisecond {
		t.Errorf("effectiveTTL at 80%% fill = %v, want 3.8s", got)
	}
	add(10) // fill 1.0: the floor, IdleTTL/8
	if got := e.effectiveTTL(); got != time.Second {
		t.Errorf("effectiveTTL at 100%% fill = %v, want 1s", got)
	}
}

// TestOverloadMetricsExposition: the bcpqp_overload_* families are present
// exactly when the plane is enabled, and the per-aggregate shed counter is
// exported alongside the other fault families.
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
		"bcpqp_overload_ring_pressure", "bcpqp_overload_table_fill",
		"bcpqp_overload_shed_rate_pps", "bcpqp_overload_shed_packets_total",
		"bcpqp_overload_admission_evictions_total", "bcpqp_overload_transitions_total",
		"bcpqp_aggregate_shed_packets_total",
	} {
		if !got[want] {
			t.Errorf("metric family %q missing", want)
		}
	}
}
