package mbox

// Lifecycle tests: bounded-memory aggregate churn, a warm restart into an
// engine whose clock starts at zero, the snapshot wire format, a -race churn
// test proving generation tags prevent cross-aggregate verdict bleed, and
// the registry growing under a live submitter. The single-goroutine
// lifecycle — Remove's final stats, reconfiguration, restarts — is the
// reference model's (model_test.go).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// ---------------------------------------------------------------------------
// Bounded-memory churn.

// TestChurnBoundedRegistry adds and removes 1e5 short-lived aggregates
// (with traffic) and asserts the registry does not grow: slots are
// recycled through the free list, the table's high-water mark stays at the
// peak live count, and the heap is stable.
func TestChurnBoundedRegistry(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()

	if _, err := e.Add("stable", tbf.MustNew(8*units.Mbps, 64*units.MSS), nil); err != nil {
		t.Fatal(err)
	}

	cycles := 100000
	if testing.Short() {
		cycles = 5000
	}

	// Warm up the slot table and pools, then measure heap growth across
	// the churn itself.
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("warm%d", i&7)
		h, err := e.Add(id, tbf.MustNew(units.Mbps, 50*units.MSS), nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = e.SubmitBatch(h, []packet.Packet{pkt(i)})
		if _, err := e.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for i := 0; i < cycles; i++ {
		id := fmt.Sprintf("churn%d", i&7)
		h, err := e.Add(id, tbf.MustNew(units.Mbps, 50*units.MSS), nil)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if i&63 == 0 {
			if err := e.SubmitBatch(h, []packet.Packet{pkt(i)}); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
		if _, err := e.Remove(id); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if got := e.Len(); got != 1 {
		t.Errorf("Len = %d after churn, want 1", got)
	}
	e.mu.Lock()
	hwm, free := len(e.slotGen), len(e.freeSlots)
	e.mu.Unlock()
	// Only one churn aggregate is ever live at a time on top of the
	// stable one and the 8-way warmup, so the high-water mark must stay
	// tiny — far below the cycle count.
	if hwm > 16 {
		t.Errorf("slot high-water mark = %d after %d cycles, want <= 16 (registry must not grow)", hwm, cycles)
	}
	if free > hwm {
		t.Errorf("free list %d exceeds slot table %d", free, hwm)
	}
	// Heap must be stable: all per-cycle state is garbage after Remove.
	// Allow generous slack for GC noise and pooled buffers.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 8<<20 {
		t.Errorf("heap grew %d bytes across %d churn cycles (leak)", grew, cycles)
	}
}

// ---------------------------------------------------------------------------
// Warm-restart snapshots.

// TestWarmRestartAtClockZero is a restarted proxy: a BC-PQP aggregate at
// 10 Mbps runs 60 s under twice its rate, is snapshotted, and is restored
// into an engine whose clock starts again at zero, as a new process's does.
// Over the next 5 s of the same load it must accept r·Δt ± B. A blob holding
// the old process's instants freezes every drain until the new clock catches
// up with them, and accepts nothing.
func TestWarmRestartAtClockZero(t *testing.T) {
	const rate = 10 * units.Mbps
	const b = 4 * 64 * units.MSS // four queues of 64 MSS
	clk := &manualClock{}
	start := func() (*Engine, Handle) {
		e := New(Config{Shards: 1, Clock: clk.read})
		h, err := e.Add("sub", phantom.MustNew(phantom.Config{
			Rate: rate, Queues: 4, QueueSize: 64 * units.MSS, BurstControl: true}), nil)
		if err != nil {
			t.Fatal(err)
		}
		return e, h
	}
	// offer runs d of 2·r: five MSS packets every 3 ms.
	offer := func(e *Engine, h Handle, d time.Duration) int64 {
		before, _ := e.Stats("sub")
		for end := clk.read() + d; clk.read() < end; {
			clk.add(3 * time.Millisecond)
			if err := e.SubmitBatch(h, burstOf(5, 0)); err != nil {
				t.Fatal(err)
			}
		}
		after, _ := e.Stats("sub")
		return after.AcceptedBytes - before.AcceptedBytes
	}
	old, h := start()
	offer(old, h, 60*time.Second)
	snap, err := old.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	old.Close()

	clk.set(0)
	e, h := start()
	defer e.Close()
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	want := int64(rate.Bytes(5 * time.Second))
	if got := offer(e, h, 5*time.Second); got < want-b || got > want+b {
		t.Fatalf("accepted %d B in the 5 s after a restart at clock 0, want %d ± %d", got, want, b)
	}
}

// TestEngineSnapshotMarshalRoundTrip: a snapshot of odd ids and states
// survives MarshalBinary then UnmarshalBinary. What UnmarshalBinary must
// reject is in FuzzSnapshotDecode's seeds.
func TestEngineSnapshotMarshalRoundTrip(t *testing.T) {
	in := &Snapshot{Aggregates: []AggregateSnapshot{
		{ID: "a", State: []byte{1, 2, 3}},
		{ID: "b", State: nil},
		{ID: "with\x00odd id", State: bytes.Repeat([]byte{0xfe}, 300)},
	}}
	blob, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Snapshot
	if err := out.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if len(out.Aggregates) != len(in.Aggregates) {
		t.Fatalf("round trip lost aggregates: %d != %d", len(out.Aggregates), len(in.Aggregates))
	}
	for i := range in.Aggregates {
		if out.Aggregates[i].ID != in.Aggregates[i].ID ||
			!bytes.Equal(out.Aggregates[i].State, in.Aggregates[i].State) {
			t.Errorf("aggregate %d mismatch: %+v != %+v", i, out.Aggregates[i], in.Aggregates[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Churn race: generation tags prevent cross-aggregate verdict bleed.

// incEnforcer is pinned to one incarnation of an aggregate id: it records
// how many packets it saw and flags any packet whose Seq does not carry its
// own incarnation number — which would mean a stale handle's traffic bled
// into a different aggregate.
type incEnforcer struct {
	inc   int64
	seen  atomic.Int64
	bleed atomic.Int64
}

func (c *incEnforcer) SubmitBatch(_ time.Duration, pkts []packet.Packet, v []enforcer.Verdict) {
	for i := range pkts {
		if pkts[i].Seq != c.inc {
			c.bleed.Add(1)
		}
		c.seen.Add(1)
		v[i] = enforcer.Transmit
	}
}

func (c *incEnforcer) EnforcerStats() enforcer.Stats {
	n := c.seen.Load()
	return enforcer.Stats{AcceptedPackets: n, AcceptedBytes: n * units.MSS}
}

// TestChurnRaceNoVerdictBleed re-creates ONE aggregate id over and over
// while producers hammer it with batches tagged with the incarnation they
// resolved, and concurrent SetRates reconfigure whatever incarnation is
// live. Invariants, checked exactly after a clean drain:
//
//   - no enforcer ever sees a packet tagged for a different incarnation
//     (generation-tagged handles cannot alias across recycled slots), and
//   - per incarnation, packets seen == packets successfully submitted:
//     a successful Submit is never silently dropped by churn, and a failed
//     one (ErrStale) never reaches any enforcer.
//
// Run under -race (the chaos CI target does).
func TestChurnRaceNoVerdictBleed(t *testing.T) {
	e := New(Config{Shards: 2, CloseTimeout: 10 * time.Second})

	type incarnation struct {
		h   Handle
		inc int64
		enf *incEnforcer
		ok  atomic.Int64 // packets successfully submitted to this incarnation
	}
	var cur atomic.Pointer[incarnation]
	var all []*incarnation

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var staleSeen atomic.Int64

	// Producers: resolve the current incarnation, tag the batch with it.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]packet.Packet, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Exact reconciliation needs a lossless run (no burst
				// refused at a wedged shard), which the test asserts.
				time.Sleep(10 * time.Microsecond)
				in := cur.Load()
				if in == nil {
					continue
				}
				for j := range buf {
					buf[j] = pkt(g*8 + j)
					buf[j].Seq = in.inc
				}
				// Counted before the submit and taken back if it fails: the
				// controller's Remove can read the enforcer between the burst
				// being served and SubmitBatch returning.
				in.ok.Add(int64(len(buf)))
				if err := e.SubmitBatch(in.h, buf); err != nil {
					in.ok.Add(-int64(len(buf)))
					if errors.Is(err, ErrStale) {
						staleSeen.Add(1)
					}
				}
			}
		}(g)
	}
	// Reconfigurer: hot updates against whatever incarnation is live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(25 * time.Microsecond)
			_ = e.SetRate("ag", (1+units.Rate(rng.Intn(8)))*units.Mbps) // may miss between incarnations
		}
	}()

	// Controller: churn the "ag" incarnations.
	const incarnations = 150
	for i := int64(1); i <= incarnations; i++ {
		in := &incarnation{inc: i, enf: &incEnforcer{inc: i}}
		h, err := e.Add("ag", in.enf, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.h = h
		all = append(all, in)
		cur.Store(in)
		time.Sleep(200 * time.Microsecond)
		cur.Store(nil)
		st, err := e.Remove("ag")
		if err != nil {
			t.Fatal(err)
		}
		// The final-stats barrier covers every burst served before the
		// removal; late bursts that won the resolve race are served later,
		// so at this point stats can only lag the eventual exact count.
		if st.AcceptedPackets > in.ok.Load() {
			t.Fatalf("incarnation %d: Remove stats %d > %d successful submissions",
				i, st.AcceptedPackets, in.ok.Load())
		}
	}
	close(stop)
	wg.Wait()
	rep := e.Close() // clean Close waits out every burst in flight
	if !rep.Clean || e.Overloaded.Load() != 0 {
		t.Fatalf("unclean drain (report %+v, overloaded %d); exact reconciliation needs a lossless run",
			rep, e.Overloaded.Load())
	}

	var total int64
	for _, in := range all {
		if b := in.enf.bleed.Load(); b != 0 {
			t.Errorf("incarnation %d: %d packets from another incarnation bled in", in.inc, b)
		}
		if seen, ok := in.enf.seen.Load(), in.ok.Load(); seen != ok {
			t.Errorf("incarnation %d: enforcer saw %d packets, %d were successfully submitted",
				in.inc, seen, ok)
		}
		total += in.enf.seen.Load()
	}
	if total == 0 {
		t.Fatal("race run enforced nothing")
	}
	if staleSeen.Load() == 0 {
		t.Log("note: no ErrStale observed this run (timing); bleed invariants still checked")
	}
}

// TestRegistryGrowsInPlace registers past several doublings of the slot
// array while a submitter keeps hitting the earliest handle: handles issued
// before a doubling stay valid across it, every registration is visible by
// handle and by id, removal and slot recycling work in the grown array, and
// the race detector sees the in-place slot stores against lock-free reads.
func TestRegistryGrowsInPlace(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()
	const n = 5*minSlots + 3
	first, err := e.Add("agg-0", tbf.MustNew(8*units.Mbps, 64*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var submitter sync.WaitGroup
	submitter.Add(1)
	go func() {
		defer submitter.Done()
		pkt := packet.Packet{Size: units.MSS}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.SubmitBatch(first, []packet.Packet{pkt}); err != nil {
				t.Errorf("submit through a handle issued before the table grew: %v", err)
				return
			}
		}
	}()
	handles := []Handle{first}
	for i := 1; i < n; i++ {
		h, err := e.Add(fmt.Sprintf("agg-%d", i), tbf.MustNew(8*units.Mbps, 64*units.MSS), nil)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	close(stop)
	submitter.Wait()

	if got := e.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if got := len(e.table.Load().slots); got != 8*minSlots {
		t.Errorf("slot array has %d slots for %d aggregates, want %d", got, n, 8*minSlots)
	}
	for i, h := range handles {
		agg, err := e.resolve(h)
		if err != nil || agg.id != fmt.Sprintf("agg-%d", i) {
			t.Fatalf("handle %d resolves to %v, %v", i, agg, err)
		}
		if got, err := e.Lookup(agg.id); err != nil || got != h {
			t.Fatalf("Lookup(%q) = %v, %v; want %v", agg.id, got, err, h)
		}
	}
	if _, err := e.Add("agg-7", tbf.MustNew(8*units.Mbps, 64*units.MSS), nil); err == nil {
		t.Error("duplicate id accepted")
	}
	// Recycling in the grown array: the freed slot is reused under a new
	// generation and the old handle goes stale.
	if _, err := e.Remove("agg-200"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.resolve(handles[200]); !errors.Is(err, ErrStale) {
		t.Errorf("removed handle resolves with %v, want ErrStale", err)
	}
	again, err := e.Add("agg-200b", tbf.MustNew(8*units.Mbps, 64*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.ref.slot() != handles[200].ref.slot() || again == handles[200] {
		t.Errorf("re-add got handle %v after removing %v: want the same slot under a new generation", again, handles[200])
	}
	if e.Len() != n {
		t.Errorf("Len = %d after remove and re-add, want %d", e.Len(), n)
	}
}
