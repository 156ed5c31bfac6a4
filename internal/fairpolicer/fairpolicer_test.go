package fairpolicer

import (
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

// submitOne decides one packet as a burst of one.
func submitOne(f *FairPolicer, now time.Duration, p packet.Packet) enforcer.Verdict {
	var v [1]enforcer.Verdict
	f.SubmitBatch(now, []packet.Packet{p}, v[:])
	return v[0]
}

func pkt(flow, size int) packet.Packet {
	return packet.Packet{Key: packet.FlowKey{SrcPort: uint16(flow + 1)}, Class: flow, Size: size}
}

func TestValidation(t *testing.T) {
	base := Config{Rate: units.Mbps, Bucket: 100 * units.MSS, Flows: 4}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := base
	bad.Rate = 0
	if _, err := New(bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = base
	bad.Bucket = 10
	if _, err := New(bad); err == nil {
		t.Error("tiny bucket accepted")
	}
	bad = base
	bad.Flows = 0
	if _, err := New(bad); err == nil {
		t.Error("zero flows accepted")
	}
	bad = base
	bad.Weights = []float64{1, 2}
	if _, err := New(bad); err == nil {
		t.Error("weight/flow mismatch accepted")
	}
	bad = base
	bad.Weights = []float64{1, 2, -1, 1}
	if _, err := New(bad); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestLongTermRate(t *testing.T) {
	rate := 8 * units.Mbps
	f := MustNew(Config{Rate: rate, Bucket: 50 * units.MSS, Flows: 2})
	now := time.Duration(0)
	var accepted int64
	// Two flows each offering 2× the total rate.
	for i := 0; i < 20000; i++ {
		now += 375 * time.Microsecond
		if submitOne(f, now, pkt(i%2, units.MSS)) == enforcer.Transmit {
			accepted += units.MSS
		}
	}
	ratio := float64(accepted) / rate.Bytes(now)
	if ratio < 0.95 || ratio > 1.1 {
		t.Errorf("long-term accepted ratio %.3f, want ≈1", ratio)
	}
}

func TestFairSplitBetweenAggressiveFlows(t *testing.T) {
	rate := 8 * units.Mbps
	f := MustNew(Config{Rate: rate, Bucket: 50 * units.MSS, Flows: 2})
	now := time.Duration(0)
	// Flow 0 offers 4×, flow 1 offers 1× its fair share; with equal
	// token allocation flow 1 should still get close to its share.
	var acc [2]int64
	for i := 0; i < 40000; i++ {
		now += 250 * time.Microsecond
		// Flow 0 sends every step (6 Mbps×8 = 48 Mbps offered),
		// flow 1 every 5th step.
		if submitOne(f, now, pkt(0, units.MSS)) == enforcer.Transmit {
			acc[0] += units.MSS
		}
		if i%5 == 0 {
			if submitOne(f, now, pkt(1, units.MSS)) == enforcer.Transmit {
				acc[1] += units.MSS
			}
		}
	}
	share1 := float64(acc[1]) / float64(acc[0]+acc[1])
	if share1 < 0.35 {
		t.Errorf("meek flow got %.2f of the rate, want ≈0.5 (token distribution broken)", share1)
	}
}

func TestUnfairWithoutDistribution(t *testing.T) {
	// Sanity: a plain bucket (1 flow bucket) lets the aggressive flow
	// dominate; this is the contrast FairPolicer exists to fix.
	rate := 8 * units.Mbps
	f := MustNew(Config{Rate: rate, Bucket: 50 * units.MSS, Flows: 1})
	now := time.Duration(0)
	var acc [2]int64
	for i := 0; i < 40000; i++ {
		now += 250 * time.Microsecond
		if submitOne(f, now, pkt(0, units.MSS)) == enforcer.Transmit {
			acc[0] += units.MSS
		}
		if i%5 == 0 {
			if submitOne(f, now, pkt(0, units.MSS)) == enforcer.Transmit {
				acc[1] += units.MSS
			}
		}
	}
	// Both flows hash into one bucket; the 5× sender gets ~5× more.
	if acc[0] < 3*acc[1] {
		t.Errorf("shared bucket did not favor the aggressive sender: %v", acc)
	}
}

// TestWeightedAllocationFails reproduces the §6.3.2 finding: even with
// weighted token allocation, FairPolicer's dynamic-threshold rule gives
// every flow approximately the same bucket capacity, so backlogged flows
// end up with near-equal throughput despite a 3:1 weight configuration.
// ("It is not trivial to extend FP's bucket sizing algorithm to support
// arbitrary rate-sharing policies.")
func TestWeightedAllocationFails(t *testing.T) {
	rate := 8 * units.Mbps
	f := MustNew(Config{
		Rate: rate, Bucket: 50 * units.MSS, Flows: 2,
		Weights: []float64{3, 1},
	})
	now := time.Duration(0)
	var acc [2]int64
	// Both flows backlogged at far above their shares.
	for i := 0; i < 40000; i++ {
		now += 250 * time.Microsecond
		for fl := 0; fl < 2; fl++ {
			if submitOne(f, now, pkt(fl, units.MSS)) == enforcer.Transmit {
				acc[fl] += units.MSS
			}
		}
	}
	ratio := float64(acc[0]) / float64(acc[1])
	if ratio > 1.5 {
		t.Errorf("weighted allocation ratio %.2f; FP's dynamic threshold is expected "+
			"to blunt the 3:1 split toward ≈1 (the paper's Fig 6b failure)", ratio)
	}
	if ratio < 0.67 {
		t.Errorf("weighted allocation inverted: ratio %.2f", ratio)
	}
}

func TestIdleFlowTokensReturned(t *testing.T) {
	rate := 8 * units.Mbps
	f := MustNew(Config{Rate: rate, Bucket: 50 * units.MSS, Flows: 2})
	now := time.Millisecond
	// Flow 1 appears once, then goes idle.
	submitOne(f, now, pkt(1, units.MSS))
	// Flow 0 keeps sending; after flow 1 expires, flow 0 should receive
	// the full token rate again.
	var acceptedLate int64
	for i := 0; i < 8000; i++ {
		now += 250 * time.Microsecond
		v := submitOne(f, now, pkt(0, units.MSS))
		if i > 4000 && v == enforcer.Transmit {
			acceptedLate += units.MSS
		}
	}
	// Last second of the run: 4000 steps ≈ 1 s ≈ 1 MB at full rate.
	ratio := float64(acceptedLate) / rate.Bytes(time.Second)
	if ratio < 0.9 {
		t.Errorf("flow 0 got %.2f of rate after competitor left, want ≈1", ratio)
	}
}

func TestTotalTokensBounded(t *testing.T) {
	rate := 8 * units.Mbps
	bucket := int64(20 * units.MSS)
	f := MustNew(Config{Rate: rate, Bucket: bucket, Flows: 3})
	now := time.Millisecond
	for i := 0; i < 1000; i++ {
		now += time.Duration(i%50) * time.Millisecond
		submitOne(f, now, pkt(i%3, units.MSS))
		total := f.MainTokens()
		for fl := 0; fl < 3; fl++ {
			total += f.flows[fl].tokens
		}
		if total > float64(bucket)+1 {
			t.Fatalf("total tokens %v exceed bucket %d", total, bucket)
		}
	}
}

func TestFlowStats(t *testing.T) {
	f := MustNew(Config{Rate: units.Mbps, Bucket: 2 * units.MSS, Flows: 2})
	now := time.Millisecond
	submitOne(f, now, pkt(0, units.MSS))
	submitOne(f, now, pkt(0, 10*units.MSS)) // too big, dropped
	fb := &f.flows[0]
	ap, ab, dp, db := fb.acceptedPackets, fb.acceptedBytes, fb.droppedPackets, fb.droppedBytes
	if ap != 1 || ab != units.MSS || dp != 1 || db != 10*units.MSS {
		t.Errorf("flow stats = %d/%d/%d/%d", ap, ab, dp, db)
	}
}
