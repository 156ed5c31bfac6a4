package tbf

import (
	"testing"
	"testing/quick"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

func pkt(size int) packet.Packet {
	return packet.Packet{Key: packet.FlowKey{SrcPort: 1}, Class: 0, Size: size}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 10*units.MSS); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := New(units.Mbps, 10); err == nil {
		t.Error("sub-MSS bucket accepted")
	}
	if _, err := New(units.Mbps, 10*units.MSS); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestBucketStartsFull(t *testing.T) {
	p := MustNew(8*units.Mbps, 10*units.MSS)
	now := time.Millisecond
	for i := 0; i < 10; i++ {
		if p.Submit(now, pkt(units.MSS)) != enforcer.Transmit {
			t.Fatalf("packet %d dropped from a full bucket", i)
		}
	}
	if p.Submit(now, pkt(units.MSS)) != enforcer.Drop {
		t.Fatal("11th packet passed an exhausted bucket")
	}
}

func TestRefill(t *testing.T) {
	rate := 8 * units.Mbps // 1 MB/s
	p := MustNew(rate, 2*units.MSS)
	now := time.Millisecond
	p.Submit(now, pkt(units.MSS))
	p.Submit(now, pkt(units.MSS))
	if p.Submit(now, pkt(units.MSS)) != enforcer.Drop {
		t.Fatal("bucket not empty")
	}
	now += 1500 * time.Microsecond // exactly one MSS of tokens
	if p.Submit(now, pkt(units.MSS)) != enforcer.Transmit {
		t.Fatal("refill did not admit")
	}
	if p.Submit(now, pkt(units.MSS)) != enforcer.Drop {
		t.Fatal("admitted more than refill")
	}
}

func TestRefillCapsAtBucket(t *testing.T) {
	p := MustNew(8*units.Mbps, 4*units.MSS)
	now := time.Millisecond
	p.Submit(now, pkt(units.MSS)) // touch to start the clock
	now += time.Hour
	admitted := 0
	for i := 0; i < 100; i++ {
		if p.Submit(now, pkt(units.MSS)) == enforcer.Transmit {
			admitted++
		}
	}
	if admitted != 4 {
		t.Errorf("after long idle admitted %d, want bucket cap 4", admitted)
	}
}

func TestLongTermRateEnforced(t *testing.T) {
	rate := 8 * units.Mbps
	p := MustNew(rate, 20*units.MSS)
	now := time.Duration(0)
	var accepted int64
	// Offer 4× the rate for 10 seconds.
	for i := 0; i < 26667; i++ {
		now += 375 * time.Microsecond
		if p.Submit(now, pkt(units.MSS)) == enforcer.Transmit {
			accepted += units.MSS
		}
	}
	want := rate.Bytes(now)
	ratio := float64(accepted) / want
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("long-term accepted ratio %.4f, want ≈1 (±bucket)", ratio)
	}
}

func TestAcceptedBoundedProperty(t *testing.T) {
	f := func(gaps []uint16, bucketPkts uint8) bool {
		b := int64(bucketPkts%30+1) * units.MSS
		rate := 4 * units.Mbps
		p := MustNew(rate, b)
		now := time.Duration(0)
		var accepted int64
		for _, g := range gaps {
			now += time.Duration(g%2000) * time.Microsecond
			if p.Submit(now, pkt(units.MSS)) == enforcer.Transmit {
				accepted += units.MSS
			}
		}
		// Token-bucket upper bound: B + r·t.
		return float64(accepted) <= float64(b)+rate.Bytes(now)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVariablePacketSizes(t *testing.T) {
	p := MustNew(8*units.Mbps, 3000)
	now := time.Millisecond
	if p.Submit(now, pkt(2000)) != enforcer.Transmit {
		t.Fatal("2000B packet dropped with 3000 tokens")
	}
	if p.Submit(now, pkt(1001)) != enforcer.Drop {
		t.Fatal("1001B packet passed with 1000 tokens")
	}
	if p.Submit(now, pkt(1000)) != enforcer.Transmit {
		t.Fatal("1000B packet dropped with 1000 tokens")
	}
}

func TestBDPBucket(t *testing.T) {
	got := BDPBucket(10*units.Mbps, 100*time.Millisecond)
	if got != 125000 {
		t.Errorf("BDPBucket = %d, want 125000", got)
	}
	if got := BDPBucket(10*units.Kbps, time.Millisecond); got != units.MSS {
		t.Errorf("BDPBucket floor = %d, want one MSS", got)
	}
}

func TestPlusBucketIsMaxOfRequirements(t *testing.T) {
	rate := 10 * units.Mbps
	rtt := 100 * time.Millisecond
	got := PlusBucket(rate, rtt)
	reno := units.RenoPhantomRequirement(rate, rtt)
	cubic := units.CubicPhantomRequirement(rate, rtt)
	want := reno
	if cubic > want {
		want = cubic
	}
	if got != want {
		t.Errorf("PlusBucket = %d, want max(reno=%d, cubic=%d)", got, reno, cubic)
	}
	if got < BDPBucket(rate, rtt) {
		t.Errorf("PlusBucket (%d) smaller than one BDP (%d)", got, BDPBucket(rate, rtt))
	}
}

func TestStats(t *testing.T) {
	p := MustNew(units.Mbps, units.MSS)
	now := time.Millisecond
	p.Submit(now, pkt(units.MSS))
	p.Submit(now, pkt(units.MSS))
	st := p.EnforcerStats()
	if st.AcceptedPackets != 1 || st.DroppedPackets != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.DropRate() != 0.5 {
		t.Errorf("drop rate = %v, want 0.5", st.DropRate())
	}
}

func TestNonMonotonicTimeTolerated(t *testing.T) {
	p := MustNew(units.Mbps, 10*units.MSS)
	p.Submit(10*time.Millisecond, pkt(units.MSS))
	// A same-or-earlier timestamp must not refill or panic.
	p.Submit(5*time.Millisecond, pkt(units.MSS))
}

// TestProbeCommitEquivalence: probe+commit — the two-phase admission a policy
// tree drives a ceiling with — admits the same packets as plain Submit.
func TestProbeCommitEquivalence(t *testing.T) {
	plain := MustNew(8*units.Mbps, 10*units.MSS)
	staged := MustNew(8*units.Mbps, 10*units.MSS)
	now := time.Duration(0)
	for i := 0; i < 3000; i++ {
		now += 900 * time.Microsecond
		p := pkt(units.MSS)
		a := plain.Submit(now, p) == enforcer.Transmit
		b := staged.Probe(now, &p)
		if b {
			staged.Commit(now, &p)
		}
		if a != b {
			t.Fatalf("packet %d: plain=%v staged=%v", i, a, b)
		}
	}
}
