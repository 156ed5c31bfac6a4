package phantom

import (
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// FuzzSubmitInvariants feeds arbitrary byte strings as (gap, op, size)
// operation streams into a burst-controlled PQP with a nested policy. An op
// byte of 0xF0 or more changes the rate (odd doubles it, even halves it,
// within 64× of where it started); any other submits a packet of class
// op % 4. A gap that is a multiple of 11 is followed by a Tick that many
// tens of milliseconds later. After every operation it checks the
// structural invariants: non-negative lengths, magic ≤ length, length ≤ B,
// and drop/accept accounting that sums to the submitted totals. Over the
// whole stream it checks two more properties:
//
//   - SubmitBatch decides as Submit does: a twin is fed the same stream
//     through SubmitBatch, a packet with no gap joining the burst the one
//     before it started, and must give every packet the same verdict.
//   - Theorem 1: every accepted byte is audited by an obs.Audit against the
//     envelope r·Δt + N·B, rebased at each rate change, with the two MSS of
//     drain rounding FuzzEngineModel's honest envelope allows. It must see
//     no violation; a drain faster than r breaks it and nothing above does.
//
// Rate and clock steps are a tenth and ten times those of the 10 ms window
// the stream was first written for, so at T = 100 ms every byte count of
// the older seeds is what it was.
func FuzzSubmitInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248})
	f.Add([]byte{7, 0, 7, 0, 7, 0, 200, 200, 200})
	f.Add(saturation())

	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			B        = 40 * units.MSS
			base     = 400 * units.Kbps
			envelope = 4*B + 2*units.MSS
		)
		mk := func() *PQP {
			return MustNew(Config{
				Rate:      base,
				Queues:    4,
				QueueSize: B,
				Policy: sched.MustNew(sched.Priority(
					sched.Weighted(sched.Leaf(0).WithWeight(2), sched.Leaf(1)),
					sched.Weighted(sched.Leaf(2), sched.Leaf(3)),
				)),
				BurstControl: true,
			})
		}
		q, twin := mk(), mk()
		audit := obs.NewAudit(0, int64(base), envelope, 0)
		rate := base

		now := time.Duration(0)
		var (
			submitted, accepted, dropped int64
			pending                      []packet.Packet
			want, got                    []enforcer.Verdict
		)
		// flush submits the pending burst to the twin and compares its
		// verdicts with the ones Submit gave.
		flush := func() {
			if len(pending) == 0 {
				return
			}
			if cap(got) < len(pending) {
				got = make([]enforcer.Verdict, len(pending))
			}
			got = got[:len(pending)]
			twin.SubmitBatch(now, pending, got)
			for i := range pending {
				if got[i] != want[i] {
					t.Fatalf("t=%v burst packet %d of %d (class %d size %d): SubmitBatch %v, Submit %v",
						now, i, len(pending), pending[i].Class, pending[i].Size, got[i], want[i])
				}
			}
			pending, want = pending[:0], want[:0]
		}
		for i := 0; i+2 < len(ops); i += 3 {
			gap := time.Duration(ops[i]) * 370 * time.Microsecond
			if gap > 0 {
				flush()
			}
			now += gap
			if op := ops[i+1]; op >= 0xF0 {
				flush()
				if op&1 != 0 && rate < 64*base {
					rate *= 2
				} else if op&1 == 0 && rate > base/64 {
					rate /= 2
				}
				if err := q.SetRate(now, rate); err != nil {
					t.Fatal(err)
				}
				if err := twin.SetRate(now, rate); err != nil {
					t.Fatal(err)
				}
				audit.Rebase(now, int64(rate))
			} else {
				class := int(op) % 4
				pkt := packet.Packet{
					Key:   packet.FlowKey{SrcPort: uint16(class)},
					Class: class,
					Size:  40 + int(ops[i+2])*8,
				}
				v := q.Submit(now, pkt)
				pending, want = append(pending, pkt), append(want, v)
				submitted++
				switch v {
				case enforcer.Transmit:
					accepted++
					if deficit := audit.Observe(now, int64(pkt.Size)); deficit > 0 {
						c := audit.Snapshot()
						t.Fatalf("t=%v: accepted %d B against an allowance of %d B at %v: Theorem 1 envelope exceeded by %d B",
							now, c.AcceptedBytes, c.AllowedBytes+envelope, rate, deficit)
					}
				default:
					dropped++
				}
			}
			if ops[i] > 0 && ops[i]%11 == 0 {
				flush()
				now += time.Duration(ops[i]) * 10 * time.Millisecond
				q.Tick(now)
				twin.Tick(now)
			}
			for c := 0; c < 4; c++ {
				l, m := q.QueueLength(c), q.MagicBytes(c)
				if l < 0 {
					t.Fatalf("queue %d negative length %d", c, l)
				}
				if m < 0 || m > l {
					t.Fatalf("queue %d magic %d vs length %d", c, m, l)
				}
				if l > B {
					t.Fatalf("queue %d length %d exceeds B=%d", c, l, B)
				}
			}
		}
		flush()
		st := q.EnforcerStats()
		if st.AcceptedPackets != accepted || st.DroppedPackets != dropped {
			t.Fatalf("stats %d/%d vs observed %d/%d",
				st.AcceptedPackets, st.DroppedPackets, accepted, dropped)
		}
		if st.AcceptedPackets+st.DroppedPackets != submitted {
			t.Fatalf("accounting leak: %d+%d != %d",
				st.AcceptedPackets, st.DroppedPackets, submitted)
		}
		if tw := twin.EnforcerStats(); tw != st {
			t.Fatalf("SubmitBatch twin's stats %+v, Submit's %+v", tw, st)
		}
		if c := audit.Snapshot(); c.Violations != 0 {
			t.Fatalf("audit counted %d violations", c.Violations)
		}
	})
}

// saturation is an op stream that keeps every queue full for six seconds:
// bursts of four 2,080 B packets, one per class, every 7.4 ms — over twenty
// times the rate — with the rate doubled a second in and halved a second
// later.
func saturation() []byte {
	var ops []byte
	for i := 0; i < 800; i++ {
		ops = append(ops, 20, 0, 255, 0, 1, 255, 0, 2, 255, 0, 3, 255)
		switch i {
		case 135:
			ops = append(ops, 0, 0xF1, 0)
		case 270:
			ops = append(ops, 0, 0xF0, 0)
		}
	}
	return ops
}
