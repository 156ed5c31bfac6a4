package phantom

import (
	"testing"
	"testing/quick"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

func pkt(class, size int) packet.Packet {
	return packet.Packet{Key: packet.FlowKey{SrcPort: uint16(class + 1)}, Class: class, Size: size}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero rate", Config{Queues: 1, QueueSize: 10 * units.MSS}, false},
		{"no queues", Config{Rate: units.Mbps, QueueSize: 10 * units.MSS}, false},
		{"tiny queue", Config{Rate: units.Mbps, Queues: 1, QueueSize: 10}, false},
		{"ok", Config{Rate: units.Mbps, Queues: 2, QueueSize: 10 * units.MSS}, true},
		{"policy mismatch", Config{Rate: units.Mbps, Queues: 1, QueueSize: 10 * units.MSS,
			Policy: sched.Fair(4)}, false},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestSingleQueueMatchesTokenBucket verifies §3.1: a single phantom queue of
// size B served at rate r admits exactly the packets a token bucket of size
// B and rate r admits (inverted occupancy).
func TestSingleQueueMatchesTokenBucket(t *testing.T) {
	const B = 20 * units.MSS
	rate := 8 * units.Mbps // 1 MB/s

	// A Tick before every Submit spends all accrued drain budget: eager
	// dequeues, the exact §3.1 equivalence.
	q := MustNew(Config{Rate: rate, Queues: 1, QueueSize: B})

	// Token-bucket reference, starting full.
	tokens := float64(B)
	last := time.Duration(0)

	now := time.Duration(0)
	accepted, refAccepted := 0, 0
	for i := 0; i < 2000; i++ {
		// Bursty arrivals: clusters of 5 packets every 4 ms.
		if i%5 == 0 {
			now += 4 * time.Millisecond
		}
		p := pkt(0, units.MSS)

		tokens += rate.Bytes(now - last)
		last = now
		if tokens > float64(B) {
			tokens = float64(B)
		}
		if tokens >= float64(p.Size) {
			tokens -= float64(p.Size)
			refAccepted++
		}

		q.Tick(now)
		if q.Submit(now, p) == enforcer.Transmit {
			accepted++
		}
	}
	if accepted != refAccepted {
		t.Errorf("phantom queue accepted %d, token bucket %d", accepted, refAccepted)
	}
}

// TestBatchedDrainStaysNearEagerDrain verifies that the default batched
// dequeues (the §3.1 efficiency trick) admit the same traffic as eager
// dequeues to within the batch size.
func TestBatchedDrainStaysNearEagerDrain(t *testing.T) {
	const B = 40 * units.MSS
	rate := 8 * units.Mbps
	eager := MustNew(Config{Rate: rate, Queues: 1, QueueSize: B}) // Tick before each Submit
	batched := MustNew(Config{Rate: rate, Queues: 1, QueueSize: B})

	now := time.Duration(0)
	var accEager, accBatched int64
	for i := 0; i < 20000; i++ {
		now += 900 * time.Microsecond // ~1.7 MB/s offered vs 1 MB/s drained
		p := pkt(0, units.MSS)
		eager.Tick(now)
		if eager.Submit(now, p) == enforcer.Transmit {
			accEager++
		}
		if batched.Submit(now, p) == enforcer.Transmit {
			accBatched++
		}
	}
	diff := accEager - accBatched
	if diff < 0 {
		diff = -diff
	}
	// Long-run totals must agree to within a handful of batch quanta.
	if diff > 40 {
		t.Errorf("eager admitted %d, batched %d (diff %d > 40 packets)",
			accEager, accBatched, diff)
	}
}

// TestTheorem1Bounds checks Theorem 1: over any interval where the queue
// stays non-empty, accepted bytes are within (rΔt ± B).
func TestTheorem1Bounds(t *testing.T) {
	const B = 30 * units.MSS
	rate := 8 * units.Mbps
	q := MustNew(Config{Rate: rate, Queues: 1, QueueSize: B})

	now := time.Duration(0)
	var acceptedBytes int64
	start := now
	emptied := false
	// Offer heavily (2× rate) so the queue stays occupied.
	for i := 0; i < 10000; i++ {
		now += 750 * time.Microsecond // 2 MB/s offered
		if q.Submit(now, pkt(0, units.MSS)) == enforcer.Transmit {
			acceptedBytes += units.MSS
		}
		if q.QueueLength(0) == 0 && i > 0 {
			emptied = true
		}
	}
	if emptied {
		t.Fatal("queue emptied; bound precondition violated (offered load too low)")
	}
	dt := now - start
	lo := rate.Bytes(dt) - float64(B)
	hi := rate.Bytes(dt) + float64(B)
	if float64(acceptedBytes) < lo || float64(acceptedBytes) > hi {
		t.Errorf("accepted %d bytes over %v; Theorem 1 bounds [%v, %v]", acceptedBytes, dt, lo, hi)
	}
}

// TestDropWhenFull verifies drop-tail admission on the simulated buffer.
func TestDropWhenFull(t *testing.T) {
	q := MustNew(Config{Rate: units.Mbps, Queues: 1, QueueSize: 3 * units.MSS})
	now := time.Millisecond
	for i := 0; i < 3; i++ {
		if v := q.Submit(now, pkt(0, units.MSS)); v != enforcer.Transmit {
			t.Fatalf("packet %d: %v, want transmit", i, v)
		}
	}
	if v := q.Submit(now, pkt(0, units.MSS)); v != enforcer.Drop {
		t.Fatalf("4th packet: %v, want drop", v)
	}
	st := q.EnforcerStats()
	if st.AcceptedPackets != 3 || st.DroppedPackets != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestBatchedDrainFreesSpace verifies lazy dequeues: after enough virtual
// time, previously full queues accept again.
func TestBatchedDrainFreesSpace(t *testing.T) {
	rate := 8 * units.Mbps // 1 MB/s = 1500 B / 1.5 ms
	q := MustNew(Config{Rate: rate, Queues: 1, QueueSize: 2 * units.MSS})
	now := time.Millisecond
	q.Submit(now, pkt(0, units.MSS))
	q.Submit(now, pkt(0, units.MSS))
	if v := q.Submit(now, pkt(0, units.MSS)); v != enforcer.Drop {
		t.Fatal("queue should be full")
	}
	// After 1.5 ms one MSS drains.
	now += 1500 * time.Microsecond
	if v := q.Submit(now, pkt(0, units.MSS)); v != enforcer.Transmit {
		t.Fatal("drain did not free space")
	}
}

// TestFairDrain verifies that with two occupied queues the drain is split
// equally (per-flow fairness on phantom packets).
func TestFairDrain(t *testing.T) {
	rate := 8 * units.Mbps
	q := MustNew(Config{Rate: rate, Queues: 2, QueueSize: 100 * units.MSS})
	now := time.Millisecond
	for i := 0; i < 50; i++ {
		q.Submit(now, pkt(0, units.MSS))
		q.Submit(now, pkt(1, units.MSS))
	}
	l0, l1 := q.QueueLength(0), q.QueueLength(1)
	now += 30 * time.Millisecond // 30 KB of drain, 15 KB each
	q.Tick(now)
	d0, d1 := l0-q.QueueLength(0), l1-q.QueueLength(1)
	if d0 != d1 {
		t.Errorf("unequal drains: %d vs %d", d0, d1)
	}
	if d0+d1 != 30000 {
		t.Errorf("total drained %d, want 30000", d0+d1)
	}
}

// TestWeightedDrain verifies weighted sharing of the drain budget.
func TestWeightedDrain(t *testing.T) {
	rate := 8 * units.Mbps
	q := MustNew(Config{
		Rate: rate, Queues: 2, QueueSize: 1000 * units.MSS,
		Policy: sched.WeightedFair(3, 1),
	})
	now := time.Millisecond
	for i := 0; i < 400; i++ {
		q.Submit(now, pkt(0, units.MSS))
		q.Submit(now, pkt(1, units.MSS))
	}
	l0, l1 := q.QueueLength(0), q.QueueLength(1)
	now += 100 * time.Millisecond // 100 KB drain: 75/25 split
	q.Tick(now)
	d0, d1 := l0-q.QueueLength(0), l1-q.QueueLength(1)
	if d0+d1 != 100000 {
		t.Fatalf("total drained %d, want 100000", d0+d1)
	}
	ratio := float64(d0) / float64(d1)
	if ratio < 2.9 || ratio > 3.1 {
		t.Errorf("drain ratio %.2f, want 3.0", ratio)
	}
}

// TestPriorityDrain verifies that a high-priority queue drains first.
func TestPriorityDrain(t *testing.T) {
	rate := 8 * units.Mbps
	q := MustNew(Config{
		Rate: rate, Queues: 2, QueueSize: 100 * units.MSS,
		Policy: sched.StrictPriority(2),
	})
	now := time.Millisecond
	for i := 0; i < 10; i++ {
		q.Submit(now, pkt(0, units.MSS))
		q.Submit(now, pkt(1, units.MSS))
	}
	// 22.5 ms at 1 MB/s = 22500 B: the high-priority backlog (15000 B)
	// drains completely first, then 7500 B of the low-priority queue.
	now += 22500 * time.Microsecond
	q.Tick(now)
	if q.QueueLength(0) != 0 {
		t.Errorf("high-priority queue not drained first: %d left", q.QueueLength(0))
	}
	if q.QueueLength(1) != 7500 {
		t.Errorf("low-priority queue = %d, want 7500", q.QueueLength(1))
	}
}

// TestMagicFillOnBurst verifies the §4 high-threshold rule: accepting more
// than θ⁺·r_i*·T within a window fills the queue with magic bytes.
func TestMagicFillOnBurst(t *testing.T) {
	rate := 8 * units.Mbps // 1 MB/s
	q := MustNew(Config{
		Rate: rate, Queues: 1, QueueSize: 1000 * units.MSS,
		BurstControl: true,
	})
	// X = 100 KB per window; θ⁺X = 150 KB = 100 packets.
	now := time.Millisecond
	var filled bool
	for i := 0; i < 150; i++ {
		q.Submit(now, pkt(0, units.MSS))
		if q.MagicBytes(0) > 0 {
			filled = true
			break
		}
	}
	if !filled {
		t.Fatal("burst did not trigger magic fill")
	}
	if q.QueueLength(0) != 1000*units.MSS {
		t.Errorf("queue not filled to capacity: %d", q.QueueLength(0))
	}
	// Subsequent packets drop until drain frees space.
	if v := q.Submit(now, pkt(0, units.MSS)); v != enforcer.Drop {
		t.Error("packet after magic fill not dropped")
	}
}

// TestNoMagicFillAtModestRate verifies flows under θ⁺·r_i* are unaffected.
func TestNoMagicFillAtModestRate(t *testing.T) {
	rate := 8 * units.Mbps
	q := MustNew(Config{
		Rate: rate, Queues: 1, QueueSize: 1000 * units.MSS,
		BurstControl: true,
	})
	// Offer exactly r: 1 MSS per 1.5 ms.
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		now += 1500 * time.Microsecond
		q.Submit(now, pkt(0, units.MSS))
		if q.MagicBytes(0) > 0 {
			t.Fatalf("magic fill at offered rate = r (packet %d)", i)
		}
	}
}

// TestMagicReclaimOnIdle verifies the §4 low-threshold rule: when a queue's
// accept rate falls below θ⁻·r_i*·T, remaining magic bytes are reclaimed so
// the rate share frees immediately.
func TestMagicReclaimOnIdle(t *testing.T) {
	rate := 8 * units.Mbps
	q := MustNew(Config{
		Rate: rate, Queues: 1, QueueSize: 1000 * units.MSS,
		BurstControl: true,
	})
	now := time.Millisecond
	for i := 0; i < 150; i++ {
		q.Submit(now, pkt(0, units.MSS))
	}
	if q.MagicBytes(0) == 0 {
		t.Fatal("no magic to reclaim")
	}
	// Flow goes quiet. The first rollover closes the window that still
	// contains the burst's accepted bytes; the second observes an idle
	// window and reclaims.
	now += 150 * time.Millisecond
	q.Tick(now)
	now += 150 * time.Millisecond
	q.Tick(now)
	if q.MagicBytes(0) != 0 {
		t.Errorf("magic not reclaimed on idle: %d bytes", q.MagicBytes(0))
	}
}

// TestMagicDoesNotCorruptRealBytes: reclaiming magic must preserve the real
// phantom backlog exactly.
func TestMagicDoesNotCorruptRealBytes(t *testing.T) {
	rate := 8 * units.Mbps
	q := MustNew(Config{
		Rate: rate, Queues: 1, QueueSize: 500 * units.MSS,
		BurstControl: true,
	})
	now := time.Millisecond
	var accepted int64
	for i := 0; i < 200; i++ {
		if q.Submit(now, pkt(0, units.MSS)) == enforcer.Transmit {
			accepted += units.MSS
		}
	}
	magic := q.MagicBytes(0)
	real := q.QueueLength(0) - magic
	if real != accepted {
		t.Fatalf("real bytes %d != accepted %d", real, accepted)
	}
	now += 200 * time.Millisecond
	q.Tick(now)
	// All drains + reclaims must keep length ≥ 0 and magic ≤ length.
	if q.QueueLength(0) < 0 || q.MagicBytes(0) > q.QueueLength(0) {
		t.Errorf("invariant violated: len=%d magic=%d", q.QueueLength(0), q.MagicBytes(0))
	}
}

// TestBurstControlAutotunesShare: with two active queues, the fill threshold
// uses r/2, not r (r_i* estimation from the active set).
func TestBurstControlAutotunesShare(t *testing.T) {
	rate := 8 * units.Mbps
	q := MustNew(Config{
		Rate: rate, Queues: 2, QueueSize: 1000 * units.MSS,
		BurstControl: true,
	})
	now := time.Millisecond
	// Make queue 1 active with a small backlog.
	for i := 0; i < 20; i++ {
		q.Submit(now, pkt(1, units.MSS))
	}
	// Queue 0 bursting: with queue 1 active, r_0* = r/2 so θ⁺X = 75 KB
	// = 50 packets; sending 60 packets must trigger the fill, while with
	// r_0* = r it would not (threshold would be 100).
	for i := 0; i < 60; i++ {
		q.Submit(now, pkt(0, units.MSS))
	}
	if q.MagicBytes(0) == 0 {
		t.Error("burst control did not adapt threshold to the active set")
	}
}

// TestClassStats verifies per-queue accounting.
func TestClassStats(t *testing.T) {
	q := MustNew(Config{Rate: units.Mbps, Queues: 2, QueueSize: 2 * units.MSS})
	now := time.Millisecond
	q.Submit(now, pkt(0, units.MSS))
	q.Submit(now, pkt(0, units.MSS))
	q.Submit(now, pkt(0, units.MSS)) // dropped
	q.Submit(now, pkt(1, units.MSS))
	ap, ab, dp, db := q.ClassStats(0)
	if ap != 2 || ab != 2*units.MSS || dp != 1 || db != units.MSS {
		t.Errorf("class 0 stats = %d/%d/%d/%d", ap, ab, dp, db)
	}
	ap, _, dp, _ = q.ClassStats(1)
	if ap != 1 || dp != 0 {
		t.Errorf("class 1 stats = %d accepted, %d dropped", ap, dp)
	}
}

// TestHashClassification: packets without explicit class hash by flow key.
func TestHashClassification(t *testing.T) {
	q := MustNew(Config{Rate: units.Mbps, Queues: 8, QueueSize: 100 * units.MSS})
	now := time.Millisecond
	key := packet.FlowKey{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6, Proto: 6}
	q.Submit(now, packet.Packet{Key: key, Size: units.MSS, Class: packet.NoClass})
	want := key.Class(8)
	if q.QueueLength(want) != units.MSS {
		t.Errorf("packet not in hashed class %d", want)
	}
}

// TestSegmentInvariants is a property test over random submit/tick
// sequences: queue length equals the sum of segments, magic ≤ length,
// nothing goes negative, and length never exceeds B.
func TestSegmentInvariants(t *testing.T) {
	f := func(ops []uint16, burstControl bool) bool {
		// A fifth of the rate and five times the clock steps of a 20 ms
		// window's run: at T = 100 ms every byte count is the same.
		q := MustNew(Config{
			Rate: 1600 * units.Kbps, Queues: 4, QueueSize: 50 * units.MSS,
			BurstControl: burstControl,
		})
		now := time.Duration(0)
		for _, op := range ops {
			now += time.Duration(op%5000) * 5 * time.Microsecond
			class := int(op % 4)
			size := 100 + int(op%3)*700
			q.Submit(now, pkt(class, size))
			for c := 0; c < 4; c++ {
				l, m := q.QueueLength(c), q.MagicBytes(c)
				if l < 0 || m < 0 || m > l || l > 50*units.MSS {
					return false
				}
			}
			if op%7 == 0 {
				now += time.Duration(op%100) * 5 * time.Millisecond
				q.Tick(now)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAcceptedNeverExceedsDrainPlusB is the Theorem 1 upper bound as a
// property over random arrival patterns.
func TestAcceptedNeverExceedsDrainPlusB(t *testing.T) {
	f := func(gaps []uint16) bool {
		const B = 25 * units.MSS
		rate := 4 * units.Mbps
		q := MustNew(Config{Rate: rate, Queues: 1, QueueSize: B})
		now := time.Duration(0)
		var accepted int64
		for _, g := range gaps {
			now += time.Duration(g%3000) * time.Microsecond
			if q.Submit(now, pkt(0, units.MSS)) == enforcer.Transmit {
				accepted += units.MSS
			}
		}
		return float64(accepted) <= rate.Bytes(now)+float64(B)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAccessors(t *testing.T) {
	q := MustNew(Config{Rate: 3 * units.Mbps, Queues: 5, QueueSize: 10 * units.MSS})
	if q.NumQueues() != 5 {
		t.Errorf("NumQueues = %d", q.NumQueues())
	}
	if q.Rate() != 3*units.Mbps {
		t.Errorf("Rate = %v", q.Rate())
	}
}
