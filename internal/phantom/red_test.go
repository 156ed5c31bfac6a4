package phantom

import (
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

func redConfig(B int64) *REDConfig {
	return &REDConfig{
		MinBytes: B / 4,
		MaxBytes: 3 * B / 4,
		MaxProb:  0.2,
		Weight:   0.05, // fast EWMA so short tests converge
		Seed:     7,
	}
}

func TestREDValidation(t *testing.T) {
	base := Config{Rate: units.Mbps, Queues: 1, QueueSize: 100 * units.MSS}
	cases := []struct {
		name string
		red  REDConfig
		ok   bool
	}{
		{"ok", REDConfig{MinBytes: 10 * units.MSS, MaxBytes: 50 * units.MSS}, true},
		{"min>=max", REDConfig{MinBytes: 50 * units.MSS, MaxBytes: 50 * units.MSS}, false},
		{"zero min", REDConfig{MinBytes: 0, MaxBytes: 50 * units.MSS}, false},
		{"max>B", REDConfig{MinBytes: 10 * units.MSS, MaxBytes: 200 * units.MSS}, false},
		{"bad prob", REDConfig{MinBytes: 10 * units.MSS, MaxBytes: 50 * units.MSS, MaxProb: 1.5}, false},
		{"bad weight", REDConfig{MinBytes: 10 * units.MSS, MaxBytes: 50 * units.MSS, Weight: 2}, false},
	}
	for _, tc := range cases {
		cfg := base
		red := tc.red
		cfg.RED = &red
		_, err := New(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestREDNoDropsBelowMinThreshold(t *testing.T) {
	const B = 100 * units.MSS
	q := MustNew(Config{
		Rate: 8 * units.Mbps, Queues: 1, QueueSize: B,
		RED: redConfig(B),
	})
	// Offer exactly the drain rate: occupancy stays near zero.
	now := time.Duration(0)
	for i := 0; i < 2000; i++ {
		now += 1500 * time.Microsecond
		if q.Submit(now, pkt(0, units.MSS)) == enforcer.Drop {
			t.Fatalf("RED dropped packet %d with near-empty queue", i)
		}
	}
}

func TestREDDropsEarlyUnderOverload(t *testing.T) {
	const B = 100 * units.MSS
	dropTail := MustNew(Config{Rate: 8 * units.Mbps, Queues: 1, QueueSize: B})
	red := MustNew(Config{
		Rate: 8 * units.Mbps, Queues: 1, QueueSize: B,
		RED: redConfig(B),
	})
	// Offer 2× the rate: drop-tail admits until full; RED must start
	// dropping before the queue fills and keep occupancy below B.
	now := time.Duration(0)
	var firstREDDrop, firstTailDrop int = -1, -1
	for i := 0; i < 3000; i++ {
		now += 750 * time.Microsecond
		p := pkt(0, units.MSS)
		if red.Submit(now, p) == enforcer.Drop && firstREDDrop < 0 {
			firstREDDrop = i
		}
		if dropTail.Submit(now, p) == enforcer.Drop && firstTailDrop < 0 {
			firstTailDrop = i
		}
	}
	if firstREDDrop < 0 {
		t.Fatal("RED never dropped under 2x overload")
	}
	if firstTailDrop >= 0 && firstREDDrop >= firstTailDrop {
		t.Errorf("RED first drop at packet %d, not earlier than drop-tail's %d",
			firstREDDrop, firstTailDrop)
	}
	if red.QueueLength(0) >= B {
		t.Errorf("RED queue reached capacity (%d); early drops should prevent that", red.QueueLength(0))
	}
}

func TestREDStillEnforcesRate(t *testing.T) {
	const B = 200 * units.MSS
	rate := 8 * units.Mbps
	q := MustNew(Config{
		Rate: rate, Queues: 1, QueueSize: B,
		RED: redConfig(B),
	})
	now := time.Duration(0)
	var accepted int64
	for i := 0; i < 40000; i++ {
		now += 750 * time.Microsecond // 2× offered
		if q.Submit(now, pkt(0, units.MSS)) == enforcer.Transmit {
			accepted += units.MSS
		}
	}
	ratio := float64(accepted) / rate.Bytes(now)
	// RED keeps the average occupancy between its thresholds, so the
	// queue stays busy and the enforced rate holds.
	if ratio < 0.9 || ratio > 1.05 {
		t.Errorf("accepted %.3f of enforced rate under RED, want ≈1", ratio)
	}
}

func TestREDDeterministic(t *testing.T) {
	run := func() int64 {
		const B = 100 * units.MSS
		q := MustNew(Config{
			Rate: 8 * units.Mbps, Queues: 1, QueueSize: B,
			RED: redConfig(B),
		})
		now := time.Duration(0)
		var drops int64
		for i := 0; i < 5000; i++ {
			now += 750 * time.Microsecond
			if q.Submit(now, pkt(0, units.MSS)) == enforcer.Drop {
				drops++
			}
		}
		return drops
	}
	if a, b := run(), run(); a != b {
		t.Errorf("RED drops nondeterministic: %d vs %d", a, b)
	}
}

func TestREDSpreadsDrops(t *testing.T) {
	// Under sustained overload between thresholds, RED's drops should be
	// spread out rather than clustered back-to-back.
	const B = 400 * units.MSS
	q := MustNew(Config{
		Rate: 8 * units.Mbps, Queues: 1, QueueSize: B,
		RED: &REDConfig{
			MinBytes: 20 * units.MSS,
			MaxBytes: 390 * units.MSS,
			MaxProb:  0.3,
			Weight:   0.05,
			Seed:     3,
		},
	})
	now := time.Duration(0)
	var maxRun, run int
	for i := 0; i < 30000; i++ {
		now += 1100 * time.Microsecond // ≈1.36× offered
		if q.Submit(now, pkt(0, units.MSS)) == enforcer.Drop {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun > 60 {
		t.Errorf("longest consecutive RED drop run = %d; expected spread-out drops", maxRun)
	}
}

func TestArrivalFilter(t *testing.T) {
	blockedPort := uint16(666)
	q := MustNew(Config{
		Rate: units.Mbps, Queues: 2, QueueSize: 100 * units.MSS,
		Filter: func(p packet.Packet) bool {
			return p.Key.DstPort != blockedPort
		},
	})
	now := time.Millisecond
	ok := packet.Packet{Key: packet.FlowKey{DstPort: 80}, Size: units.MSS, Class: 0}
	blocked := packet.Packet{Key: packet.FlowKey{DstPort: blockedPort}, Size: units.MSS, Class: 1}
	if q.Submit(now, ok) != enforcer.Transmit {
		t.Error("allowed packet dropped")
	}
	if q.Submit(now, blocked) != enforcer.Drop {
		t.Error("filtered packet admitted")
	}
	// Filtered packets must not occupy the phantom queue.
	if q.QueueLength(1) != 0 {
		t.Errorf("filtered packet left %d bytes in the queue", q.QueueLength(1))
	}
	_, _, dp, _ := q.ClassStats(1)
	if dp != 1 {
		t.Errorf("filtered drop not accounted: %d", dp)
	}
}

// TestECNMarkNeverOverAdmits: a RED mark only turns an early drop into a CE
// mark, it does not exempt the packet from drop-tail. ECT packets offered at
// one instant to a queue whose RED average tracks its occupancy (weight 1,
// every arrival past MaxBytes marked) are marked once the queue passes
// MaxBytes, and dropped once it is full, through Submit and SubmitBatch
// alike: the queue never holds more than B (Theorem 1).
func TestECNMarkNeverOverAdmits(t *testing.T) {
	const B = 10 * units.MSS
	cfg := Config{
		Rate: units.Mbps, Queues: 1, QueueSize: B,
		RED: &REDConfig{MinBytes: units.MSS, MaxBytes: 2 * units.MSS, MaxProb: 1, Weight: 1, MarkECN: true, Seed: 7},
	}
	const offered = 3 * B / units.MSS
	arrivals := make([]packet.Packet, offered)
	for i := range arrivals {
		arrivals[i] = pkt(0, units.MSS)
		arrivals[i].ECT = true
	}
	for _, tc := range []struct {
		name   string
		submit func(q *PQP, v []enforcer.Verdict)
	}{
		{"Submit", func(q *PQP, v []enforcer.Verdict) {
			for i, p := range arrivals {
				v[i] = q.Submit(time.Millisecond, p)
			}
		}},
		{"SubmitBatch", func(q *PQP, v []enforcer.Verdict) {
			q.SubmitBatch(time.Millisecond, arrivals, v)
		}},
	} {
		q := MustNew(cfg)
		v := make([]enforcer.Verdict, offered)
		tc.submit(q, v)
		var accepted, marked int64
		over := -1 // the first arrival admitted past a full queue
		for i, verdict := range v {
			if verdict != enforcer.Transmit && verdict != enforcer.TransmitCE {
				continue
			}
			if accepted += units.MSS; accepted > B && over < 0 {
				over = i
			}
			if verdict == enforcer.TransmitCE {
				marked++
			}
		}
		if over >= 0 {
			t.Errorf("%s: arrival %d admitted (%v) past the full queue", tc.name, over, v[over])
		}
		if accepted != B || marked == 0 {
			t.Errorf("%s: %d B accepted, %d marked; want B = %d accepted, some marked", tc.name, accepted, marked, B)
		}
		if got := q.QueueLength(0); got > B {
			t.Errorf("%s: queue holds %d B, more than B = %d", tc.name, got, B)
		}
	}
}
