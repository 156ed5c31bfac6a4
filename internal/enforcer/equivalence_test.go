package enforcer_test

import (
	"fmt"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/fairpolicer"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/ptree"
	"bcpqp/internal/rng"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// The batch datapath is an efficiency transformation, never a semantic one:
// SubmitBatch(now, pkts) must return byte-identical verdicts and leave
// byte-identical statistics to submitting the same packets one at a time at
// the same virtual time. These tests drive two freshly-built instances of
// every enforcer with the same randomized burst-structured traffic — one
// through the per-packet path, one through the burst path — and demand
// exact agreement.

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

func (c *refChain) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
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
				if _, ok := batch.(enforcer.BatchSubmitter); !ok {
					t.Fatalf("%s does not implement BatchSubmitter", sc.name)
				}
				verdicts := make([]enforcer.Verdict, enforcer.DefaultBurst*2)
				drops, accepts := 0, 0
				for bi, b := range traffic {
					enforcer.SubmitBatch(batch, b.now, b.pkts, verdicts[:len(b.pkts)])
					for k, p := range b.pkts {
						want := single.Submit(b.now, p)
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
			})
		}
	}
}

// TestBatchedFallbackWrapper proves the generic loop wrapper is transparent:
// wrapping a batch-unaware enforcer yields the same verdicts as driving it
// directly, and Batched returns native implementations unchanged.
func TestBatchedFallbackWrapper(t *testing.T) {
	native := tbf.MustNew(eqRate, tbf.PlusBucket(eqRate, eqMaxRTT))
	if got := enforcer.Batched(native); got != enforcer.BatchSubmitter(native) {
		t.Error("Batched re-wrapped a native BatchSubmitter")
	}

	direct := submitOnly{tbf.MustNew(eqRate, tbf.PlusBucket(eqRate, eqMaxRTT))}
	wrapped := enforcer.Batched(submitOnly{tbf.MustNew(eqRate, tbf.PlusBucket(eqRate, eqMaxRTT))})
	traffic := equivalenceTraffic(7, 100)
	verdicts := make([]enforcer.Verdict, enforcer.DefaultBurst*2)
	for bi, b := range traffic {
		wrapped.SubmitBatch(b.now, b.pkts, verdicts[:len(b.pkts)])
		for k, p := range b.pkts {
			if want := direct.Submit(b.now, p); verdicts[k] != want {
				t.Fatalf("burst %d pkt %d: wrapper=%v direct=%v", bi, k, verdicts[k], want)
			}
		}
	}
}

// submitOnly hides every capability interface of the wrapped enforcer so
// Batched must take the fallback path.
type submitOnly struct{ e enforcer.Enforcer }

func (s submitOnly) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	return s.e.Submit(now, pkt)
}
