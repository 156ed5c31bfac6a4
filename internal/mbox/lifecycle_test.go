package mbox

// Lifecycle and control-plane tests: bounded-memory aggregate churn,
// capacity caps, idle-TTL eviction, final-stats drain semantics, in-band
// hot reconfiguration (with the piecewise Theorem-1 bound across a rate
// change), warm-restart snapshots with byte-identical replay, and a -race
// churn test proving generation tags prevent cross-aggregate verdict bleed.

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
	"bcpqp/internal/faultinject"
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
	e := New(Config{Shards: 2, MaxAggregates: 64})
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
	// tiny — far below the cycle count and below the configured cap.
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

func TestAddTableFull(t *testing.T) {
	e := New(Config{Shards: 1, MaxAggregates: 2})
	defer e.Close()
	for i := 0; i < 2; i++ {
		if _, err := e.Add(fmt.Sprintf("a%d", i), tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Add("overflow", tbf.MustNew(units.Mbps, 10*units.MSS), nil); !errors.Is(err, ErrTableFull) {
		t.Fatalf("Add over capacity: err = %v, want ErrTableFull", err)
	}
	if _, err := e.Remove("a0"); err != nil {
		t.Fatal(err)
	}
	// Capacity is live count, not high-water mark: a freed slot is usable.
	if _, err := e.Add("again", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
		t.Fatalf("Add after Remove under cap: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Final stats on removal: drain semantics.

// TestRemoveReturnsFinalStats proves Remove's documented drain semantics:
// bursts submitted (successfully) before Remove are still enforced, and the
// returned Stats are the aggregate's complete final accounting.
func TestRemoveReturnsFinalStats(t *testing.T) {
	e := New(Config{Shards: 1, QueueDepth: 1 << 12})
	defer e.Close()
	h, err := e.Add("x", tbf.MustNew(50*units.Mbps, 1000*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	if err := e.SubmitBatch(h, burstOf(n, 0)); err != nil {
		t.Fatal(err)
	}
	// No barrier before Remove: the burst may still be queued. Remove's
	// final-stats read rides the ordered ring behind it.
	st, err := e.Remove("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.AcceptedPackets != n || st.AcceptedBytes != int64(n*units.MSS) {
		t.Errorf("final stats = %+v, want %d accepted packets / %d bytes", st, n, n*units.MSS)
	}
	if st.DroppedPackets != 0 {
		t.Errorf("final stats dropped %d packets, want 0 (bucket was deep)", st.DroppedPackets)
	}
	// Removal stands even when the enforcer exposes no stats; the error
	// qualifies the Stats, not the removal.
	if _, err := e.Add("mute", statlessEnforcer{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Remove("mute"); !errors.Is(err, ErrNoStats) {
		t.Errorf("Remove of stats-less enforcer: err = %v, want ErrNoStats", err)
	}
	if _, err := e.Lookup("mute"); err == nil {
		t.Error("stats-less aggregate still registered after Remove")
	}
}

// ---------------------------------------------------------------------------
// Idle-TTL eviction.

type eviction struct {
	id    string
	final enforcer.Stats
}

func TestIdleTTLEviction(t *testing.T) {
	evicted := make(chan eviction, 16)
	for ttl, want := range map[time.Duration]time.Duration{
		40 * time.Millisecond: 10 * time.Millisecond, // IdleTTL/4
		time.Millisecond:      time.Millisecond,      // floored
		time.Minute:           time.Second,           // capped
	} {
		if got := sweepInterval(ttl); got != want {
			t.Errorf("sweepInterval(%v) = %v, want %v", ttl, got, want)
		}
	}
	e := New(Config{
		Shards:  1,
		IdleTTL: 40 * time.Millisecond,
		OnEvict: func(id string, final enforcer.Stats) { evicted <- eviction{id, final} },
	})
	defer e.Close()

	hIdle, err := e.Add("idle", tbf.MustNew(50*units.Mbps, 1000*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}
	hBusy, err := e.Add("busy", tbf.MustNew(50*units.Mbps, 1000*units.MSS), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Give the idle aggregate some history, then let it go quiet while
	// the busy one keeps receiving traffic.
	const idlePkts = 7
	if err := e.SubmitBatch(hIdle, burstOf(idlePkts, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Stats("idle"); err != nil { // barrier: history processed
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var ev eviction
wait:
	for {
		select {
		case <-tick.C:
			_ = e.SubmitBatch(hBusy, []packet.Packet{pkt(1)}) // keep "busy" alive
		case ev = <-evicted:
			break wait
		case <-deadline:
			t.Fatal("idle aggregate never evicted")
		}
	}

	if ev.id != "idle" {
		t.Fatalf("evicted %q, want %q", ev.id, "idle")
	}
	if ev.final.AcceptedPackets != idlePkts {
		t.Errorf("eviction final stats = %+v, want %d accepted packets", ev.final, idlePkts)
	}
	if got := e.Evicted.Load(); got != 1 {
		t.Errorf("Evicted = %d, want 1", got)
	}
	if err := e.SubmitBatch(hIdle, []packet.Packet{pkt(0)}); !errors.Is(err, ErrStale) {
		t.Errorf("submit to evicted aggregate: err = %v, want ErrStale", err)
	}
	if _, err := e.Lookup("busy"); err != nil {
		t.Errorf("active aggregate evicted: %v", err)
	}
	// An Update counts as activity: reconfigure "busy", stop its traffic
	// briefly, and it must still be present within one more TTL window.
	if err := e.SetRate("busy", enforcer.Root, 10*units.Mbps); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // < IdleTTL since the Update
	if _, err := e.Lookup("busy"); err != nil {
		t.Errorf("aggregate evicted right after Update: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Hot reconfiguration error paths.

func TestUpdateErrors(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	if _, err := e.Add("mute", statlessEnforcer{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add("tb", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
		t.Fatal(err)
	}

	if err := e.SetRate("mute", enforcer.Root, units.Mbps); !errors.Is(err, ErrNotReconfigurable) {
		t.Errorf("SetRate on plain enforcer: err = %v, want ErrNotReconfigurable", err)
	}
	if err := e.SetPolicy("tb", enforcer.Root, nil); !errors.Is(err, enforcer.ErrNoPolicy) {
		t.Errorf("SetPolicy on token bucket: err = %v, want enforcer.ErrNoPolicy", err)
	}
	if err := e.SetRate("nope", enforcer.Root, units.Mbps); err == nil {
		t.Error("SetRate on unknown aggregate accepted")
	}
	if err := e.SetRate("tb", enforcer.Root, -units.Mbps); err == nil {
		t.Error("negative rate accepted")
	}
	// Update propagates fn's error verbatim.
	sentinel := errors.New("boom")
	if err := e.Update("tb", func(time.Duration, enforcer.Enforcer) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("Update error = %v, want sentinel", err)
	}
}

// ---------------------------------------------------------------------------
// Piecewise Theorem-1 bound across an in-band rate change.

// TestChaosRateChangePiecewiseTBF drives a saturating load through a token
// bucket, changes its rate in-band mid-trace, and asserts the admitted
// bytes obey the piecewise Theorem-1 bound
//
//	accepted <= B + r1·t_b + r2·(T - t_b) + slack
//
// with a SINGLE bucket B across the change. An implementation that tears
// the enforcer down and recreates it (or refills the bucket) would admit an
// extra ~B at the boundary and blow the bound — the load depletes the
// bucket before the switch precisely to make that visible. A seeded
// always-panicking neighbour shares the shard so the bound is proven under
// fault-isolation pressure, not just in a quiet engine.
func TestChaosRateChangePiecewiseTBF(t *testing.T) {
	const step = 100 * time.Microsecond
	clock := &fakeClock{step: step}
	e := New(Config{Shards: 1, Clock: clock.now, QueueDepth: 1 << 14, PanicThreshold: 1})
	defer e.Close()

	const (
		r1     = 16 * units.Mbps
		r2     = 4 * units.Mbps
		bucket = 64 * units.MSS
	)
	h, err := e.Add("sub", tbf.MustNew(r1, bucket), nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := faultinject.New(tbf.MustNew(8*units.Mbps, 10*units.MSS),
		faultinject.Plan{Seed: 7, Panic: 1})
	hv, err := e.Add("victim", victim, nil)
	if err != nil {
		t.Fatal(err)
	}

	const bursts, burstLen = 400, 32
	submit := func() {
		for i := 0; i < bursts; i++ {
			if err := e.SubmitBatch(h, burstOf(burstLen, i)); err != nil {
				t.Fatal(err)
			}
			if err := e.SubmitBatch(hv, burstOf(4, i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Stats("sub"); err != nil { // barrier, reads no clock
			t.Fatal(err)
		}
	}

	submit() // phase 1 at r1: saturating, bucket depleted
	// SetRate reads the clock exactly once, in-band on the shard; the
	// boundary time is that reading.
	tBoundary := time.Duration(clock.ticks.Load()+1) * step
	if err := e.SetRate("sub", enforcer.Root, r2); err != nil {
		t.Fatal(err)
	}
	submit() // phase 2 at r2
	st, err := e.Stats("sub")
	if err != nil {
		t.Fatal(err)
	}
	final := time.Duration(clock.ticks.Load()) * step

	if e.Overloaded.Load() != 0 {
		t.Fatalf("ring shed %d packets; bound accounting needs a lossless run", e.Overloaded.Load())
	}
	refilled := r1.Bytes(tBoundary) + r2.Bytes(final-tBoundary)
	upper := int64(refilled) + bucket + 2*units.MSS
	lower := int64(refilled) + bucket - 2*units.MSS
	if st.AcceptedBytes > upper {
		t.Errorf("accepted %d bytes > piecewise bound %d (rate change leaked a bucket refill?)",
			st.AcceptedBytes, upper)
	}
	if st.AcceptedBytes < lower {
		t.Errorf("accepted %d bytes < %d under saturating load (rate change lost admission state?)",
			st.AcceptedBytes, lower)
	}
	// The panicking neighbour was quarantined, not fatal, and did not
	// perturb the measured aggregate's accounting.
	if f, err := e.Faults("victim"); err != nil || !f.Quarantined {
		t.Errorf("Faults(victim) = %+v, %v; want quarantined", f, err)
	}
}

// TestChaosRateChangePreservesPhantomOccupancy is the phantom-queue variant:
// with the simulated queue FULL at the moment of an in-band SetRate, the
// bytes admitted afterwards are bounded by the new drain rate — the queue's
// occupancy survived the change. A reset (empty queue) would instantly
// re-admit ~QueueSize bytes, an order of magnitude above the bound.
func TestChaosRateChangePreservesPhantomOccupancy(t *testing.T) {
	const step = 100 * time.Microsecond
	clock := &fakeClock{step: step}
	e := New(Config{Shards: 1, Clock: clock.now, QueueDepth: 1 << 14})
	defer e.Close()

	const (
		r1    = 100 * units.Mbps
		r2    = 20 * units.Mbps
		qsize = 256 * units.MSS
	)
	pqp := phantom.MustNew(phantom.Config{Rate: r1, Queues: 1, QueueSize: qsize})
	h, err := e.Add("sub", pqp, nil)
	if err != nil {
		t.Fatal(err)
	}

	burst := make([]packet.Packet, 32)
	for i := range burst {
		p := pkt(0)
		p.Class = 0
		burst[i] = p
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := e.SubmitBatch(h, burst); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Stats("sub"); err != nil {
			t.Fatal(err)
		}
	}

	run(400) // fill the phantom queue at r1 (offered load >> r1)
	before, err := e.Stats("sub")
	if err != nil {
		t.Fatal(err)
	}
	tBoundary := time.Duration(clock.ticks.Load()+1) * step
	if err := e.SetRate("sub", enforcer.Root, r2); err != nil {
		t.Fatal(err)
	}
	run(800) // saturate at r2
	after, err := e.Stats("sub")
	if err != nil {
		t.Fatal(err)
	}
	final := time.Duration(clock.ticks.Load()) * step

	if e.Overloaded.Load() != 0 {
		t.Fatalf("ring shed %d packets; bound accounting needs a lossless run", e.Overloaded.Load())
	}
	admitted := after.AcceptedBytes - before.AcceptedBytes
	// Admissions after the change are bounded by what the (still full)
	// queue drained at r2, plus drain batching and packet rounding slack.
	slack := int64(8 * units.MSS)
	upper := int64(r2.Bytes(final-tBoundary)) + slack
	if admitted > upper {
		t.Errorf("admitted %d bytes after SetRate > bound %d (phantom occupancy reset would admit ~%d)",
			admitted, upper, qsize)
	}
	if lower := int64(r2.Bytes(final-tBoundary)) - slack; admitted < lower {
		t.Errorf("admitted %d bytes after SetRate < %d (drains stalled across the change?)",
			admitted, lower)
	}
}

// ---------------------------------------------------------------------------
// Warm-restart snapshots.

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

	for name, corrupt := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), blob[4:]...),
		"truncated": blob[:len(blob)-3],
		"trailing":  append(append([]byte{}, blob...), 0),
		"version":   append([]byte(snapshotMagic), 0xff, 0xff, 0xff, 0xff),
	} {
		var s Snapshot
		if err := s.UnmarshalBinary(corrupt); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
	// Duplicate aggregate ids are rejected.
	dup := &Snapshot{Aggregates: []AggregateSnapshot{{ID: "x"}, {ID: "x"}}}
	dblob, err := dup.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := s.UnmarshalBinary(dblob); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("duplicate id: err = %v, want ErrBadSnapshot", err)
	}
}

// seqRecorder records the Seq of every emitted packet, in emission order.
type seqRecorder struct {
	mu   sync.Mutex
	seqs []int64
}

func (r *seqRecorder) emit(p packet.Packet) {
	r.mu.Lock()
	r.seqs = append(r.seqs, p.Seq)
	r.mu.Unlock()
}

func (r *seqRecorder) snapshot() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.seqs...)
}

// TestSnapshotRestoreReplayByteIdentical is the warm-restart acceptance
// test: a BC-PQP aggregate processes a deterministic trace; a second engine
// processes the first half, snapshots (through the full MarshalBinary wire
// format), and a THIRD engine restores the snapshot and processes the
// second half. The third engine's emissions, final statistics and final
// enforcer state must be byte-identical to the uninterrupted run — the
// restored proxy resumes exactly where the snapshot was taken, with no
// re-admitted burst.
func TestSnapshotRestoreReplayByteIdentical(t *testing.T) {
	const (
		step     = 100 * time.Microsecond
		bursts   = 600
		splitAt  = 250
		burstLen = 24
		id       = "sub"
	)
	newEnf := func() *phantom.PQP {
		return phantom.MustNew(phantom.Config{
			Rate:         30 * units.Mbps,
			Queues:       4,
			QueueSize:    64 * units.MSS,
			BurstControl: true,
			Window:       5 * time.Millisecond,
		})
	}
	trace := func(i int) []packet.Packet {
		b := make([]packet.Packet, burstLen)
		for j := range b {
			p := pkt((i*7 + j) % 5)
			p.Class = (i + j) % 4
			p.Seq = int64(i*burstLen + j)
			b[j] = p
		}
		return b
	}
	start := func(ticks int64) (*Engine, Handle, *seqRecorder, *fakeClock) {
		clock := &fakeClock{step: step}
		clock.ticks.Store(ticks)
		e := New(Config{Shards: 1, Clock: clock.now, QueueDepth: 1 << 14})
		rec := &seqRecorder{}
		h, err := e.Add(id, newEnf(), rec.emit)
		if err != nil {
			t.Fatal(err)
		}
		return e, h, rec, clock
	}
	feed := func(e *Engine, h Handle, from, to int) {
		for i := from; i < to; i++ {
			if err := e.SubmitBatch(h, trace(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Stats(id); err != nil { // barrier, reads no clock
			t.Fatal(err)
		}
	}
	state := func(e *Engine) []byte {
		snap, err := e.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Aggregates) != 1 || snap.Aggregates[0].ID != id {
			t.Fatalf("Snapshot(%q) = %+v, want exactly that aggregate", id, snap.Aggregates)
		}
		return snap.Aggregates[0].State
	}

	// Run A: uninterrupted reference.
	eA, hA, recA, _ := start(0)
	feed(eA, hA, 0, bursts)
	statsA, err := eA.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	blobA := state(eA)
	eA.Close()

	// Run B: first half, then snapshot through the wire format.
	eB, hB, recB, _ := start(0)
	feed(eB, hB, 0, splitAt)
	snap, err := eB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	eB.Close()

	// Run C: fresh engine, clock pre-advanced to the split point (run B
	// consumed exactly one clock reading per burst), restore, second half.
	var decoded Snapshot
	if err := decoded.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	eC, hC, recC, _ := start(splitAt)
	if err := eC.Restore(&decoded); err != nil {
		t.Fatal(err)
	}
	feed(eC, hC, splitAt, bursts)
	statsC, err := eC.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	blobC := state(eC)
	eC.Close()

	// Emissions: A's trace must equal B's prefix followed by C's suffix,
	// element for element.
	a, b, c := recA.snapshot(), recB.snapshot(), recC.snapshot()
	if len(a) != len(b)+len(c) {
		t.Fatalf("emission counts: uninterrupted %d != %d (pre) + %d (post)", len(a), len(b), len(c))
	}
	for i, seq := range a {
		var got int64
		if i < len(b) {
			got = b[i]
		} else {
			got = c[i-len(b)]
		}
		if got != seq {
			t.Fatalf("emission %d: restored run emitted seq %d, uninterrupted %d", i, got, seq)
		}
	}
	// Final statistics and final serialized enforcer state are identical:
	// the restore reproduced occupancy, window and counter state exactly.
	// (Run C's enforcer counts only post-split packets, so compare the
	// uninterrupted totals against snapshot-time + post-split deltas via
	// the serialized state instead: the blobs embed the full counters.)
	if !bytes.Equal(blobA, blobC) {
		t.Errorf("final enforcer state diverged after restore:\nA: %x\nC: %x", blobA, blobC)
	}
	if statsA != statsC {
		t.Errorf("final stats diverged: uninterrupted %+v, restored %+v", statsA, statsC)
	}

	// Restoring into a mismatched receiver fails cleanly.
	eD := New(Config{Shards: 1})
	defer eD.Close()
	if _, err := eD.Add(id, tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
		t.Fatal(err)
	}
	if err := eD.Restore(&decoded); err == nil {
		t.Error("restore into a differently-configured aggregate succeeded")
	}
	if err := eD.Restore(&Snapshot{Aggregates: []AggregateSnapshot{{ID: "ghost"}}}); err == nil {
		t.Error("restore into unregistered aggregate succeeded")
	}
	if _, err := eD.Snapshot("ghost"); err == nil {
		t.Error("snapshot of an unregistered aggregate succeeded")
	}
}

func TestSnapshotErrNoSnapshot(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	if _, err := e.Add("mute", statlessEnforcer{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot("mute"); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("Snapshot(mute): err = %v, want ErrNoSnapshot", err)
	}
	mute := &Snapshot{Aggregates: []AggregateSnapshot{{ID: "mute", State: []byte{1}}}}
	if err := e.Restore(mute); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("Restore into mute: err = %v, want ErrNoSnapshot", err)
	}
	// A snapshot of everything skips it instead of failing.
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Aggregates) != 0 {
		t.Errorf("snapshot contains %d aggregates, want 0 (non-snapshottable skipped)", len(snap.Aggregates))
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

func (c *incEnforcer) Submit(_ time.Duration, p packet.Packet) enforcer.Verdict {
	if p.Seq != c.inc {
		c.bleed.Add(1)
	}
	c.seen.Add(1)
	return enforcer.Transmit
}

func (c *incEnforcer) EnforcerStats() enforcer.Stats {
	n := c.seen.Load()
	return enforcer.Stats{AcceptedPackets: n, AcceptedBytes: n * units.MSS}
}

// TestChurnRaceNoVerdictBleed re-creates ONE aggregate id over and over
// while producers hammer it with batches tagged with the incarnation they
// resolved, and concurrent Updates reconfigure whatever incarnation is
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
	e := New(Config{Shards: 2, QueueDepth: 1 << 15, CloseTimeout: 10 * time.Second})

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
				// Pace below shard capacity: exact reconciliation needs a
				// lossless run (no ring shedding), which the test asserts.
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
			_ = e.SetRate("ag", enforcer.Root, (1+units.Rate(rng.Intn(8)))*units.Mbps) // may miss between incarnations
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
		// The final-stats barrier covers every burst enqueued before the
		// removal; late bursts that won the resolve race drain later, so
		// at this point stats can only lag the eventual exact count.
		if st.AcceptedPackets > in.ok.Load() {
			t.Fatalf("incarnation %d: Remove stats %d > %d successful submissions",
				i, st.AcceptedPackets, in.ok.Load())
		}
	}
	close(stop)
	wg.Wait()
	rep := e.Close() // clean Close drains every queued burst through the enforcers
	if !rep.Clean || rep.ShedPackets != 0 || e.Overloaded.Load() != 0 {
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
