package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"bcpqp/internal/metrics"
)

// Options configures a Collector.
type Options struct {
	// RingDepth is each flight-recorder ring's capacity in events,
	// rounded up to a power of two (default 1024). Every shard gets its
	// own ring; control-plane and enforcer-internal events share one
	// auxiliary ring of the same depth, so bursts of datapath events
	// cannot evict rare control-plane history.
	RingDepth int
	// SampleEvery records one KindBurst trace event per N enforced runs
	// per shard (default 16; 1 traces every run), times one burst in N
	// per shard for the burst-latency digest, and coalesces KindShed
	// events at the same cadence under sustained overload (the first shed
	// always records). Other rare events (panics, quarantine,
	// lifecycle) are never sampled. Beyond the latency digest, sampling
	// only thins the flight recorder — the burst count, the metric
	// counters and the meters see every burst and every shed packet.
	SampleEvery int
	// MeterWindow is the windowed-rate meter granularity (default the
	// paper's 250 ms measurement window).
	MeterWindow time.Duration
}

func (o Options) withDefaults() Options {
	if o.RingDepth <= 0 {
		o.RingDepth = 1024
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 16
	}
	if o.MeterWindow <= 0 {
		o.MeterWindow = metrics.DefaultWindow
	}
	return o
}

// Collector is the observability hub one engine (or any other datapath)
// attaches to: it owns the per-shard flight-recorder rings, the auxiliary
// ring for unattributed and enforcer-internal events, the global event
// sequence, and the per-aggregate metric blocks. All methods are safe for
// concurrent use; the recording paths are lock-free and allocation-free.
type Collector struct {
	opts Options
	seq  atomic.Uint64
	aux  *ring

	mu     sync.Mutex
	shards []*ShardObs
}

// NewCollector returns a collector with the given options.
func NewCollector(opts Options) *Collector {
	o := opts.withDefaults()
	return &Collector{opts: o, aux: newRing(o.RingDepth)}
}

// Options returns the collector's normalized options.
func (c *Collector) Options() Options { return c.opts }

// EventsRecorded returns the total number of trace events ever recorded,
// including those already overwritten in the rings.
func (c *Collector) EventsRecorded() uint64 { return c.seq.Load() }

// stamp assigns the global sequence number and fills a missing wall
// timestamp.
func (c *Collector) stamp(e *Event) {
	e.Seq = c.seq.Add(1)
	if e.Wall == 0 {
		e.Wall = time.Now().UnixNano()
	}
}

// Record publishes an event to the auxiliary ring. Events with no shard
// attribution should set Shard = -1 and unattributed aggregates Agg = -1.
func (c *Collector) Record(e Event) {
	c.stamp(&e)
	c.aux.record(e)
}

// Shard returns (creating on first use) the observability block for shard
// index i.
func (c *Collector) Shard(i int) *ShardObs {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.shards) <= i {
		c.shards = append(c.shards, &ShardObs{
			c:     c,
			shard: int32(len(c.shards)),
			ring:  newRing(c.opts.RingDepth),
		})
	}
	return c.shards[i]
}

// Events snapshots every ring (per-shard plus auxiliary) without stopping
// writers and returns the merged events ordered by global sequence.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	shards := append([]*ShardObs(nil), c.shards...)
	c.mu.Unlock()
	out := make([]Event, 0, (len(shards)+1)*c.aux.cap())
	out = c.aux.snapshot(out)
	for _, s := range shards {
		out = s.ring.snapshot(out)
	}
	sortEvents(out)
	return out
}

// BurstHist returns the burst-enforcement latency as an exportable
// histogram in seconds: BurstLatencyDigest in Prometheus form. It counts the
// timed bursts, one in Options.SampleEvery.
func (c *Collector) BurstHist() HistSnapshot {
	return c.BurstLatencyDigest().Hist(1e-9)
}

// BurstLatencyDigest returns the per-shard burst-enforcement-latency
// quantile digests (nanoseconds) merged into one mergeable snapshot,
// suitable for cross-process roll-up via the BQAD wire form.
func (c *Collector) BurstLatencyDigest() DigestSnapshot {
	c.mu.Lock()
	shards := append([]*ShardObs(nil), c.shards...)
	c.mu.Unlock()
	var merged Digest
	for _, s := range shards {
		merged.merge(&s.lat)
	}
	return merged.Snapshot()
}

// Bursts returns the total number of enforced bursts observed across all
// shards.
func (c *Collector) Bursts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, s := range c.shards {
		n += s.bursts.Load()
	}
	return n
}

// NewAggObs returns a per-aggregate metrics block wired to the collector's
// meter configuration.
func (c *Collector) NewAggObs() *AggObs {
	a := new(AggObs)
	a.meter.init(c.opts.MeterWindow)
	return a
}

// ShardObs is one shard's observability block: its flight-recorder ring,
// its burst-latency digest, and the trace sampling state. Record and
// ObserveBurst are called from the shard goroutine (or, for shed events,
// from producers under the shard's staging lock); the ring tolerates
// either.
type ShardObs struct {
	c     *Collector
	shard int32
	ring  *ring
	lat   Digest

	bursts atomic.Int64
	// tick is the burst-trace sampling countdown. It is only touched by
	// SampleBurst on the owning shard goroutine, so it needs no atomics.
	tick int
}

// Record publishes an event to this shard's ring, stamping the shard
// index.
func (s *ShardObs) Record(e Event) {
	e.Shard = s.shard
	s.c.stamp(&e)
	s.ring.record(e)
}

// SampleBurst reports whether the current enforced run should emit a
// KindBurst trace event (1 in Options.SampleEvery). Call only from the
// owning shard goroutine.
func (s *ShardObs) SampleBurst() bool {
	s.tick--
	if s.tick <= 0 {
		s.tick = s.c.opts.SampleEvery
		return true
	}
	return false
}

// ObserveBurst counts one processed burst and adds its enforcement latency
// in nanoseconds to the shard's digest. A negative elapsed counts a burst
// that was not timed: the engine times one burst in Options.SampleEvery.
func (s *ShardObs) ObserveBurst(elapsed int64) {
	s.bursts.Add(1)
	if elapsed >= 0 {
		s.lat.Observe(elapsed)
	}
}

// AggObs is one aggregate's metric block: monotonic accept/drop counters
// stamped once per enforced run (a handful of atomic adds, no per-packet
// work) and a windowed rate meter over accepted bytes — 64 bytes, one
// cache line, one allocation.
type AggObs struct {
	acceptedPackets atomic.Int64
	acceptedBytes   atomic.Int64
	droppedPackets  atomic.Int64
	droppedBytes    atomic.Int64
	meter           rateMeter
}

// Count folds one enforced run's verdict tallies into the block at virtual
// time now.
func (a *AggObs) Count(accPkts, accBytes, drpPkts, drpBytes int64, now time.Duration) {
	if accPkts != 0 {
		a.acceptedPackets.Add(accPkts)
		a.acceptedBytes.Add(accBytes)
	}
	if drpPkts != 0 {
		a.droppedPackets.Add(drpPkts)
		a.droppedBytes.Add(drpBytes)
	}
	if accBytes != 0 {
		a.meter.add(now, int(accBytes))
	}
}

// AggCounters is a point-in-time copy of an aggregate's metric block.
type AggCounters struct {
	AcceptedPackets int64
	AcceptedBytes   int64
	DroppedPackets  int64
	DroppedBytes    int64
	// Rate is the throughput over the most recent measurement window.
	Rate float64 // bits per second
}

// Snapshot copies the block's counters.
func (a *AggObs) Snapshot() AggCounters {
	return AggCounters{
		AcceptedPackets: a.acceptedPackets.Load(),
		AcceptedBytes:   a.acceptedBytes.Load(),
		DroppedPackets:  a.droppedPackets.Load(),
		DroppedBytes:    a.droppedBytes.Load(),
		Rate:            float64(a.meter.rate()),
	}
}
