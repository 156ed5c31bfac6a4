package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bcpqp/internal/mbox"
	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// ExtOverload is an extension experiment beyond the paper's figures: the
// overload-survival summary. The paper's §6 evaluation drives
// congestion-controlled mixes; production policers also meet traffic that
// does not negotiate. This experiment replays the four adversarial
// families from internal/workload — a constant-rate UDP flood, a hard
// on/off bursty flood, a mixed-RTT swarm and a short-flow storm — against
// the engine, and reports how the load was disposed of: enforced
// (accepted/dropped by Theorem-1 admission) or shed at a full shard ring,
// and whether the engine ended the storm healthy.
//
// Every generator is open-loop and seeded, so the offered column is
// identical per seed and the disposition columns sum exactly to it.
func ExtOverload(scale Scale, seed uint64) (*Report, error) {
	dur := 300 * time.Millisecond
	if scale == Full {
		dur = 2 * time.Second
	}

	type scenario struct {
		name string
		src  workload.Source
	}
	scenarios := []scenario{
		{"constant flood ×25", workload.NewFlood(workload.FloodConfig{
			Rate: 200 * units.Mbps, Duration: dur, Flows: 8, SrcIP: 1,
		})},
		{"bursty flood ×25 (20% duty)", workload.NewFlood(workload.FloodConfig{
			Rate: 200 * units.Mbps, Duration: dur,
			Period: 50 * time.Millisecond, Duty: 0.2, Flows: 8, SrcIP: 2,
		})},
		{"mixed-RTT swarm (2–50 ms)", workload.NewSwarm(rng.New(seed), workload.SwarmConfig{
			Flows: 128, Duration: dur, SrcIP: 3,
		})},
		{"short-flow storm (slow start)", workload.NewStorm(rng.New(seed+1), workload.StormConfig{
			Concurrency: 64, Duration: dur, SrcIP: 4,
		})},
	}

	table := &Table{Columns: []string{"adversarial workload", "offered pkts",
		"accepted", "dropped", "shed", "healthy after"}}
	for _, sc := range scenarios {
		row, err := runOverloadScenario(sc.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		table.AddRow(sc.name,
			fmt.Sprintf("%d", row.offered),
			fmt.Sprintf("%d", row.accepted),
			fmt.Sprintf("%d", row.dropped),
			fmt.Sprintf("%d", row.shed),
			fmt.Sprintf("%v", row.healthy),
		)
	}
	return &Report{
		ID:    "ext-overload",
		Title: "Extension: overload survival under adversarial workloads",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"offered = accepted + dropped + shed exactly (open-loop generators);",
				"accepted stays within the Theorem-1 bound r·Δt + B per aggregate no",
				"matter the offered multiple; shed counts packets shed at a full",
				"shard ring, the engine's one overload response; its capacity during a",
				"storm is pinned at one burst enforced per eight offered, through",
				"the injected clock, so the overdrive does not depend on the host;",
				"bursts are submitted by shards+1 feeder goroutines, not the generator:",
				"a SubmitBatch that finds its shard idle enforces the burst itself, and",
				"would wait at that clock for a token only the generator hands out;",
				"feeders race for bursts, so one aggregate's bursts are not submitted",
				"in source order (only the counts are reported, not the order);",
				"the hand-off paces the generator to the shards, so fewer tokens go",
				"unclaimed than when the generator submitted: shed on the swarm and",
				"storm rows is 88–97 % of offered where reports before PR 24 read",
				"96–99.6 % (flood rows 86–90 % in both) — do not compare across it;",
				"healthy = every shard back to Healthy once the storm ends",
			},
		}},
	}, nil
}

type overloadRow struct {
	offered  int64
	accepted int64
	dropped  int64
	shed     int64
	healthy  bool
}

// serviceEvery pins the engine's capacity during a storm: its shards may
// enforce one burst for every serviceEvery offered.
const serviceEvery = 8

// runOverloadScenario drives one adversarial source through a fresh engine
// (8 tbf aggregates, deliberately shallow rings) and reconciles the
// disposition.
//
// How far a producer outruns the shard goroutines depends on the host and
// on GOMAXPROCS, so the overdrive is made explicit instead. Whoever serves a
// burst reads the injected clock once; during the storm that read waits for a
// service token, and the producer hands out one token per serviceEvery
// bursts it offers (a token nobody is waiting for is capacity the engine
// left idle, and is lost). The shards therefore enforce at most an eighth
// of the offered bursts plus what the rings hold when the storm ends,
// whatever the host; the rest must be shed. Once the source is exhausted
// the clock runs free and the rings drain.
//
// The producer stays open-loop by never calling SubmitBatch itself: a call
// that finds its shard idle serves the burst on the caller, which would park
// the producer at the gated clock waiting for a token only it hands out. It
// passes each burst to one of shards+1 feeder goroutines instead. At most
// one feeder per shard can be parked holding that shard, so one is always
// free to take the next burst, and every burst behind a parked feeder queues
// or sheds as it would behind a busy shard goroutine. Which feeder takes a
// burst is a race, so one aggregate's bursts can be submitted out of source
// order; the disposition reconciled below is a sum that holds in any order.
func runOverloadScenario(src workload.Source) (overloadRow, error) {
	const (
		aggs   = 8
		rate   = 8 * units.Mbps
		bucket = int64(64 * units.MSS)
		shards = 2
	)
	var ticks atomic.Int64
	tokens := make(chan struct{}, shards) // one waiting shard each
	endStorm := sync.OnceFunc(func() { close(tokens) })
	e := mbox.New(mbox.Config{
		Shards: shards, QueueDepth: 16,
		Clock: func() time.Duration {
			<-tokens
			return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
		},
		WatchdogInterval: time.Millisecond,
		CloseTimeout:     10 * time.Second,
	})
	defer e.Close()
	defer endStorm() // before Close, on every path: a gated shard cannot exit
	ids := make([]string, aggs)
	handles := make([]mbox.Handle, aggs)
	for i := 0; i < aggs; i++ {
		ids[i] = fmt.Sprintf("adv-%d", i)
		h, err := e.Add(ids[i], tbf.MustNew(rate, bucket), nil)
		if err != nil {
			return overloadRow{}, err
		}
		handles[i] = h
	}

	type offer struct {
		h    mbox.Handle
		n    int
		pkts [64]packet.Packet
	}
	feed := make(chan offer) // by value: a parked feeder keeps its own copy
	var feeders sync.WaitGroup
	var submitErr atomic.Pointer[error]
	for w := 0; w < shards+1; w++ {
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			for o := range feed {
				if err := e.SubmitBatch(o.h, o.pkts[:o.n]); err != nil {
					submitErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	var o offer
	for i := 0; ; i++ {
		var ok bool
		if _, o.n, ok = src.Next(o.pkts[:]); !ok {
			break
		}
		o.h = handles[(int(o.pkts[0].Key.SrcPort)+i)%aggs]
		feed <- o
		if i%serviceEvery == serviceEvery-1 {
			select {
			case tokens <- struct{}{}:
			default:
			}
		}
	}
	endStorm()
	close(feed)
	feeders.Wait()
	if err := submitErr.Load(); err != nil {
		return overloadRow{}, *err
	}

	// Drain: every ring empty, then check the shards reclassified Healthy.
	deadline := time.Now().Add(10 * time.Second)
	for {
		idle := true
		for _, sh := range e.Health().Shards {
			if sh.QueueDepth != 0 || sh.Busy {
				idle = false
			}
		}
		if idle {
			break
		}
		if time.Now().After(deadline) {
			return overloadRow{}, fmt.Errorf("shard rings never drained")
		}
		time.Sleep(time.Millisecond)
	}
	healthy := true
	for time.Now().Before(deadline) {
		healthy = true
		for _, sh := range e.Health().Shards {
			if sh.State != mbox.ShardHealthy {
				healthy = false
			}
		}
		if healthy {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var row overloadRow
	row.healthy = healthy
	row.offered, _ = src.Offered()
	for _, id := range ids {
		st, err := e.Stats(id)
		if err != nil {
			return overloadRow{}, err
		}
		row.accepted += st.AcceptedPackets
		row.dropped += st.DroppedPackets
	}
	row.shed = e.Health().Overloaded
	if got := row.accepted + row.dropped + row.shed; got != row.offered {
		return overloadRow{}, fmt.Errorf("disposition %d != offered %d", got, row.offered)
	}
	return row, nil
}
