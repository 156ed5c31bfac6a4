package bcpqp

import (
	"testing"
	"time"
)

// nopTransport swallows frames: the benchmark measures the rebalance
// computation, not the wire.
type nopTransport struct{}

func (nopTransport) Send(string, []byte) error { return nil }

// BenchmarkClusterRebalance measures one budget-exchange rebalance tick on
// the cluster node: the per-peer honor test, grant planning into the
// hold ring, hold accounting and share computation for every shared
// aggregate. This path runs once per 250 ms window off the SubmitBatch hot
// path, but it shares the engine's discipline: 0 allocs/op, so a node with
// thousands of shared aggregates never pressures the GC from its control
// loop. One iteration = one full rebalance across all shared aggregates;
// the custom metric reports per-aggregate share recomputations.
func BenchmarkClusterRebalance(b *testing.B) {
	const nAggs = 16
	aggs := make([]SharedAggregate, nAggs)
	var applied Rate
	for i := range aggs {
		aggs[i] = SharedAggregate{
			ID:       "tenant-" + string(rune('a'+i)),
			Rate:     100 * Mbps,
			Observed: func() (int64, bool) { return 0, true },
			Apply:    func(r Rate, fb bool) error { applied = r; return nil },
		}
	}
	node, err := NewClusterNode(ClusterConfig{
		Self:      "a",
		Peers:     []string{"b", "c", "d"},
		Transport: nopTransport{},
		Clock:     func() time.Duration { return 0 },
	}, aggs)
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()

	window := 250 * time.Millisecond
	now := time.Duration(0)
	node.Rebalance(now) // first tick applies initial shares (allocates the ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += window
		node.Rebalance(now)
	}
	b.StopTimer()
	_ = applied
	b.ReportMetric(float64(nAggs)*float64(b.N)/b.Elapsed().Seconds(), "shares/sec")
}
