package enforcer_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/fairpolicer"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/ptree"
	"bcpqp/internal/rng"
	"bcpqp/internal/shaper"
	"bcpqp/internal/tbf"
	"bcpqp/internal/timerwheel"
	"bcpqp/internal/units"
)

// The batch datapath is an efficiency transformation, never a semantic one:
// SubmitBatch(now, pkts) must return byte-identical verdicts and leave
// byte-identical statistics to submitting the same packets as bursts of one
// at the same virtual time. These tests drive two freshly-built instances of
// every enforcer with the same randomized burst-structured traffic — one a
// packet at a time, one a burst at a time — and demand exact agreement.
//
// Each enforcer has one admission loop, so the tests keep their power to
// catch batching errors because a burst of N must still match N bursts of
// one: a burst of one probes the drain, refills the bucket, rolls the
// windows and adds the statistics once per packet, where a burst of N does
// each once. refPQP (internal/phantom/reference_test.go) stays phantom's
// independent per-packet reference. TestBatchSingleEquivalence also pins a
// reused one-element burst through the interface, and PQP's and Policer's
// per-packet Submit (a burst of one in a stack array), at zero allocations.

const (
	eqRate   = 20 * units.Mbps
	eqFlows  = 8
	eqMaxRTT = 40 * time.Millisecond
)

// eqScheme builds one instance of an enforcer under test. ref, when set,
// builds the per-packet side from an independent reference instead.
type eqScheme struct {
	name  string
	build func() enforcer.Enforcer
	ref   func() enforcer.Enforcer
}

// refChain is two-phase admission at its plainest: probe every stage,
// outermost first, and commit to all only when all accept. It is the
// reference a unary policy tree — the one hierarchy enforcer — is held to.
type refChain struct {
	stages []enforcer.Stage
	stats  enforcer.Stats
}

func (c *refChain) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	for i := range pkts {
		verdicts[i] = c.submit(now, &pkts[i])
	}
}

func (c *refChain) submit(now time.Duration, pkt *packet.Packet) enforcer.Verdict {
	for _, s := range c.stages {
		if !s.Probe(now, pkt) {
			c.stats.Reject(pkt.Size)
			return enforcer.Drop
		}
	}
	for _, s := range c.stages {
		s.Commit(now, pkt)
	}
	c.stats.Accept(pkt.Size)
	return enforcer.Transmit
}

func (c *refChain) EnforcerStats() enforcer.Stats { return c.stats }

// chainStages is a subscriber limit under a link limit, outermost first.
func chainStages() []enforcer.Stage {
	sub := phantom.MustNew(phantom.Config{
		Rate:         eqRate / 2,
		Queues:       eqFlows,
		QueueSize:    10 * tbf.PlusBucket(eqRate/2, eqMaxRTT),
		BurstControl: true,
	})
	return []enforcer.Stage{sub, tbf.MustNew(eqRate, tbf.PlusBucket(eqRate, eqMaxRTT))}
}

// TestStageLeavesPacketAlone holds every ceiling stage to the by-reference
// contract: Probe and Commit read the caller's packet and change nothing in
// it — no field, not the Payload slice header, not the payload bytes.
func TestStageLeavesPacketAlone(t *testing.T) {
	stages := []struct {
		name  string
		stage enforcer.Stage
	}{
		{"tbf", tbf.MustNew(eqRate, 4*units.MSS)},
		{"pqp", phantom.MustNew(phantom.Config{Rate: eqRate, Queues: eqFlows, QueueSize: 4 * units.MSS})},
		{"bc-pqp", phantom.MustNew(phantom.Config{
			Rate: eqRate, Queues: eqFlows, QueueSize: 4 * units.MSS, BurstControl: true,
		})},
	}
	for _, sc := range stages {
		t.Run(sc.name, func(t *testing.T) {
			payload := make([]byte, 16, 64)
			for i := range payload {
				payload[i] = byte(i)
			}
			const probes = 200
			committed := 0
			for i := 0; i < probes; i++ {
				now := time.Duration(i) * 50 * time.Microsecond
				pkt := &packet.Packet{
					Key:     packet.FlowKey{SrcIP: 10, DstIP: 20, SrcPort: uint16(i), DstPort: 443, Proto: 17},
					Size:    units.MSS,
					Class:   i%eqFlows - 1, // -1 is NoClass: routed by the flow-key hash
					Seq:     int64(i),
					ECT:     i%2 == 0,
					CE:      i%3 == 0,
					Payload: payload[i%4:],
				}
				want, wantBytes := *pkt, slices.Clone(pkt.Payload)
				check := func(call string) {
					t.Helper()
					if !reflect.DeepEqual(*pkt, want) || unsafe.SliceData(pkt.Payload) != unsafe.SliceData(want.Payload) ||
						cap(pkt.Payload) != cap(want.Payload) || !slices.Equal(pkt.Payload, wantBytes) {
						t.Fatalf("packet %d: %s changed the packet to %+v, was %+v", i, call, *pkt, want)
					}
				}
				ok := sc.stage.Probe(now, pkt)
				check("Probe")
				if ok {
					sc.stage.Commit(now, pkt)
					check("Commit")
					committed++
				}
			}
			if committed == 0 || committed == probes {
				t.Fatalf("%d of %d probes accepted: the pattern exercises one outcome only", committed, probes)
			}
		})
	}
}

func equivalenceSchemes() []eqScheme {
	return []eqScheme{
		{name: "tbf", build: func() enforcer.Enforcer {
			return tbf.MustNew(eqRate, tbf.PlusBucket(eqRate, eqMaxRTT))
		}},
		{name: "fairpolicer", build: func() enforcer.Enforcer {
			return fairpolicer.MustNew(fairpolicer.Config{
				Rate:   eqRate,
				Bucket: tbf.PlusBucket(eqRate, eqMaxRTT),
				Flows:  eqFlows,
			})
		}},
		{name: "pqp", build: func() enforcer.Enforcer {
			return phantom.MustNew(phantom.Config{
				Rate:      eqRate,
				Queues:    eqFlows,
				QueueSize: units.RenoPhantomRequirement(eqRate, eqMaxRTT),
			})
		}},
		{name: "bc-pqp", build: func() enforcer.Enforcer {
			return phantom.MustNew(phantom.Config{
				Rate:         eqRate,
				Queues:       eqFlows,
				QueueSize:    10 * tbf.PlusBucket(eqRate, eqMaxRTT),
				BurstControl: true,
			})
		}},
		{name: "bc-pqp-red", build: func() enforcer.Enforcer {
			qsize := 10 * tbf.PlusBucket(eqRate, eqMaxRTT)
			return phantom.MustNew(phantom.Config{
				Rate:         eqRate,
				Queues:       eqFlows,
				QueueSize:    qsize,
				BurstControl: true,
				RED: &phantom.REDConfig{
					MinBytes: qsize / 4,
					MaxBytes: qsize / 2,
					Seed:     42,
				},
			})
		}},
		{name: "cascade", build: func() enforcer.Enforcer {
			st := chainStages()
			return ptree.MustNew([]ptree.NodeSpec{{Parent: -1, Stage: st[1]}, {Parent: 0, Stage: st[0]}})
		}, ref: func() enforcer.Enforcer { return &refChain{stages: chainStages()} }},
	}
}

// eqBurst is one arrival event: a burst of packets sharing a virtual time.
type eqBurst struct {
	now  time.Duration
	pkts []packet.Packet
}

// equivalenceTraffic generates a burst-structured pattern offering well over
// the enforced rate, with varying burst sizes (including 1) so both the
// per-packet special case and wide bursts are exercised, and with idle gaps
// long enough to let windows roll and flows expire between some bursts.
func equivalenceTraffic(seed uint64, bursts int) []eqBurst {
	src := rng.New(seed)
	meanGap := eqRate.DurationForBytes(units.MSS)
	var out []eqBurst
	now := time.Duration(0)
	for i := 0; i < bursts; i++ {
		n := 1 + src.IntN(enforcer.DefaultBurst*2) // 1..64 packets
		// Mostly tight spacing (≈2-3× offered load so even the most
		// permissive scheme eventually drops), occasionally a long idle
		// gap that expires fairpolicer flows and closes BC windows.
		gap := time.Duration(float64(meanGap) * float64(n) * src.Range(0.3, 0.6))
		if src.IntN(32) == 0 {
			gap = 150 * time.Millisecond
		}
		now += gap
		pkts := make([]packet.Packet, n)
		for k := range pkts {
			class := src.IntN(eqFlows)
			size := units.MSS
			if src.IntN(8) == 0 {
				size = 64 + src.IntN(units.MSS-64)
			}
			pkts[k] = packet.Packet{
				Key: packet.FlowKey{
					SrcIP: 10, DstIP: 20,
					SrcPort: uint16(class + 1), DstPort: 443, Proto: 6,
				},
				Class: class,
				Size:  size,
			}
		}
		out = append(out, eqBurst{now: now, pkts: pkts})
	}
	return out
}

// TestBatchSingleEquivalence is the paper-level correctness proof for the
// burst datapath: for every enforcer, verdict sequences and final statistics
// from SubmitBatch are byte-identical to the per-packet path.
func TestBatchSingleEquivalence(t *testing.T) {
	for _, sc := range equivalenceSchemes() {
		for _, seed := range []uint64{1, 0xBADCAB1E, 0x5EED} {
			t.Run(fmt.Sprintf("%s/seed=%#x", sc.name, seed), func(t *testing.T) {
				traffic := equivalenceTraffic(seed, 400)
				single, batch := sc.build(), sc.build()
				if sc.ref != nil {
					single = sc.ref()
				}
				verdicts := make([]enforcer.Verdict, enforcer.DefaultBurst*2)
				var one [1]packet.Packet
				var v1 [1]enforcer.Verdict
				drops, accepts := 0, 0
				for bi, b := range traffic {
					batch.SubmitBatch(b.now, b.pkts, verdicts[:len(b.pkts)])
					for k, p := range b.pkts {
						one[0] = p
						single.SubmitBatch(b.now, one[:], v1[:])
						want := v1[0]
						if verdicts[k] != want {
							t.Fatalf("burst %d pkt %d (t=%v class=%d size=%d): batch=%v single=%v",
								bi, k, b.now, p.Class, p.Size, verdicts[k], want)
						}
						if want == enforcer.Drop {
							drops++
						} else {
							accepts++
						}
					}
				}
				if drops == 0 || accepts == 0 {
					t.Fatalf("degenerate traffic: %d drops, %d accepts — pattern exercises nothing",
						drops, accepts)
				}
				ss, ok := single.(enforcer.StatsReader)
				bs, ok2 := batch.(enforcer.StatsReader)
				if ok && ok2 {
					if s, b := ss.EnforcerStats(), bs.EnforcerStats(); s != b {
						t.Fatalf("stats diverge: single=%+v batch=%+v", s, b)
					}
				}
				last := traffic[len(traffic)-1]
				one[0] = last.pkts[0]
				if a := testing.AllocsPerRun(100, func() { batch.SubmitBatch(last.now, one[:], v1[:]) }); a != 0 {
					t.Fatalf("a burst of one allocates %v times a call", a)
				}
				// PQP and Policer keep a per-packet Submit for callers with
				// one packet in hand: a burst of one in a stack array.
				if sub, ok := batch.(interface {
					Submit(time.Duration, packet.Packet) enforcer.Verdict
				}); ok {
					if a := testing.AllocsPerRun(100, func() { sub.Submit(last.now, last.pkts[0]) }); a != 0 {
						t.Fatalf("per-packet Submit allocates %v times a call", a)
					}
				}
			})
		}
	}
}

// TestSnapshotRestoreAtShiftedClock is warm restart as a restarted process
// sees it: every snapshottable enforcer runs half the traffic, is snapshotted,
// and the blob is restored into a fresh twin whose clock reads zero at that
// moment. Fed the rest of the traffic on its shifted clock, the twin must
// answer every packet as the uninterrupted enforcer does on the old one, end
// with the same statistics, and snapshot to the same bytes: a blob holds ages,
// never the old process's instants.
func TestSnapshotRestoreAtShiftedClock(t *testing.T) {
	for _, sc := range equivalenceSchemes() {
		t.Run(sc.name, func(t *testing.T) {
			traffic := equivalenceTraffic(0x5EED, 400)
			split := len(traffic) / 2
			shift := traffic[split-1].now // the twin's clock reads 0 here
			warm, cold := sc.build(), sc.build()
			verdicts := make([]enforcer.Verdict, enforcer.DefaultBurst*2)
			twin := make([]enforcer.Verdict, enforcer.DefaultBurst*2)
			for _, b := range traffic[:split] {
				warm.SubmitBatch(b.now, b.pkts, verdicts[:len(b.pkts)])
			}
			blob, err := warm.(enforcer.Snapshotter).SnapshotState(shift)
			if err != nil {
				t.Fatal(err)
			}
			if err := cold.(enforcer.Snapshotter).RestoreState(0, blob); err != nil {
				t.Fatal(err)
			}
			for bi, b := range traffic[split:] {
				n := len(b.pkts)
				warm.SubmitBatch(b.now, b.pkts, verdicts[:n])
				cold.SubmitBatch(b.now-shift, b.pkts, twin[:n])
				if !slices.Equal(verdicts[:n], twin[:n]) {
					t.Fatalf("burst %d after the restore: restored %v, uninterrupted %v", split+bi, twin[:n], verdicts[:n])
				}
			}
			if w, c := warm.(enforcer.StatsReader).EnforcerStats(), cold.(enforcer.StatsReader).EnforcerStats(); w != c {
				t.Fatalf("stats diverged: restored %+v, uninterrupted %+v", c, w)
			}
			end := traffic[len(traffic)-1].now
			wb, _ := warm.(enforcer.Snapshotter).SnapshotState(end)
			cb, _ := cold.(enforcer.Snapshotter).SnapshotState(end - shift)
			if !slices.Equal(wb, cb) {
				t.Fatalf("final snapshots differ:\nrestored      %x\nuninterrupted %x", cb, wb)
			}
		})
	}
}

// TestRestoreAtOverflowingAge: RestoreState takes any clock age whose
// instant fits a Duration (enforcer.Dec.Instant). A blob written near the
// end of a Duration and restored at clock 0 leaves each clock near −2⁶³, at
// its old instant less 2⁶³ − 2, so once the clock passes the old instants the
// next read's elapsed time, now − last, overflows int64. Every enforcer must
// read that gap as the long idle it is, a full refill or drain, not as a
// negative one. So its state stays valid: a fresh twin's RestoreState, which
// checks tokens in [0, B], occupancy within the simulated buffer and drain
// credit in [0, 1), takes its snapshot. And offered twice its rate, it
// admits in each of the next two spans of `worth`, the time the largest
// bucket or queue here takes to fill at eqRate. Only half the classes
// return, so the other half keep their restored instants (a flow's last
// arrival, a burst-control window's start) into that snapshot.
func TestRestoreAtOverflowingAge(t *testing.T) {
	worth := eqRate.DurationForBytes(10 * tbf.PlusBucket(eqRate, eqMaxRTT)) // bc-pqp's queue
	schemes := append(equivalenceSchemes(), eqScheme{name: "ptree-assured", build: func() enforcer.Enforcer {
		return ptree.MustNew([]ptree.NodeSpec{
			{Parent: -1},
			{Parent: 0, Assured: eqRate / 2},
			{Parent: 0, Assured: eqRate / 2},
		})
	}})
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			warm, cold := sc.build(), sc.build()
			verdicts := make([]enforcer.Verdict, enforcer.DefaultBurst*2)
			traffic := equivalenceTraffic(0xA6E, 200)
			for _, b := range traffic {
				warm.SubmitBatch(b.now, b.pkts, verdicts[:len(b.pkts)])
			}
			blob, err := warm.(enforcer.Snapshotter).SnapshotState(math.MaxInt64 - 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := cold.(enforcer.Snapshotter).RestoreState(0, blob); err != nil {
				t.Fatal(err)
			}
			// Offer 2·eqRate from 1 ms past the old instants: a packet for
			// each of half the classes every gap.
			burst := make([]packet.Packet, eqFlows/2)
			gap := eqRate.DurationForBytes(int64(len(burst))*units.MSS) / 2
			for class := range burst {
				burst[class] = packet.Packet{Key: packet.FlowKey{SrcPort: uint16(class + 1)}, Class: class, Size: units.MSS}
			}
			now := traffic[len(traffic)-1].now + time.Millisecond
			for span := 0; span < 2; span++ {
				var accepted int
				for end := now + worth; now < end; now += gap {
					cold.SubmitBatch(now, burst, verdicts[:len(burst)])
					for _, v := range verdicts[:len(burst)] {
						if v != enforcer.Drop {
							accepted++
						}
					}
				}
				if accepted == 0 {
					t.Fatalf("span %d of %v after the restore admitted nothing", span, worth)
				}
			}
			after, err := cold.(enforcer.Snapshotter).SnapshotState(now)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.build().(enforcer.Snapshotter).RestoreState(now, after); err != nil {
				t.Fatalf("state after the overflowing gap: %v", err)
			}
		})
	}
}

// TestBatchedFallbackWrapper holds the shaper, the one enforcer whose burst
// is its per-packet step in a loop, to the burst contract: a shaper on a
// timing wheel fed the traffic in bursts of N and its twin fed the same
// packets as bursts of one answer the same verdicts, emit the same packets
// at the same times through their sinks, and end with the same statistics.
func TestBatchedFallbackWrapper(t *testing.T) {
	type emission struct {
		at  time.Duration
		pkt packet.Packet
	}
	type rig struct {
		s     *shaper.Shaper
		wheel *timerwheel.Wheel
		out   []emission
	}
	build := func() *rig {
		r := &rig{wheel: timerwheel.MustNew(50*time.Microsecond, 1024)}
		s, err := shaper.New(shaper.Config{
			Rate:      eqRate,
			Queues:    eqFlows,
			QueueSize: 20 * units.MSS,
			Scheduler: shaper.SchedulerFunc(func(at time.Duration, fn func()) { r.wheel.Schedule(at, fn) }),
			Sink: func(now time.Duration, p packet.Packet) {
				r.out = append(r.out, emission{now, p})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.s = s
		return r
	}
	bursts, singles := build(), build()
	traffic := equivalenceTraffic(7, 400)
	verdicts := make([]enforcer.Verdict, enforcer.DefaultBurst*2)
	var one [1]packet.Packet
	var v1 [1]enforcer.Verdict
	counts := map[enforcer.Verdict]int{}
	for bi, b := range traffic {
		bursts.wheel.Advance(b.now)
		singles.wheel.Advance(b.now)
		bursts.s.SubmitBatch(b.now, b.pkts, verdicts[:len(b.pkts)])
		for k, p := range b.pkts {
			one[0] = p
			singles.s.SubmitBatch(b.now, one[:], v1[:])
			if verdicts[k] != v1[0] {
				t.Fatalf("burst %d pkt %d: burst of %d %v, burst of one %v", bi, k, len(b.pkts), verdicts[k], v1[0])
			}
			counts[v1[0]]++
		}
	}
	end := traffic[len(traffic)-1].now + time.Second
	bursts.wheel.Advance(end)
	singles.wheel.Advance(end)
	if counts[enforcer.Queued] == 0 || counts[enforcer.Drop] == 0 || len(singles.out) == 0 {
		t.Fatalf("degenerate traffic: verdicts %v, %d emissions", counts, len(singles.out))
	}
	if !reflect.DeepEqual(bursts.out, singles.out) {
		t.Fatalf("emissions diverge: %d from bursts, %d from bursts of one", len(bursts.out), len(singles.out))
	}
	if b, o := bursts.s.EnforcerStats(), singles.s.EnforcerStats(); b != o {
		t.Fatalf("stats diverge: bursts %+v, bursts of one %+v", b, o)
	}
}
