// Adversarial workloads: the traffic the paper's operators (ISP and
// cellular policers) actually deploy against. The §6.1 mixes in this
// package are all congestion-controlled — they back off when the enforcer
// drops. Production meets worse: UDP floods that ignore drops entirely,
// flash crowds that create ten thousand aggregates in a second, swarms of
// flows with wildly mixed RTTs, and storms of slow-start-dominated short
// flows that live entirely inside burst control's θ⁺/θ⁻ window.
//
// Every generator here is open-loop and deterministic: it emits a fixed
// schedule of packet bursts in virtual time, derived only from its seed and
// config, and never reacts to verdicts. That is the point — a flood does
// not slow down because the policer dropped its packets — and it makes the
// chaos suite's assertions exact (the offered load is ground truth, so
// Theorem-1 admission bounds can be checked against it).
package workload

import (
	"fmt"
	"math"
	"time"

	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
	"bcpqp/internal/units"
)

// Source emits a deterministic schedule of packet bursts in virtual time.
// Next fills buf (capping the burst at len(buf)), returns the burst's
// arrival time and length, and reports ok=false once the schedule is
// exhausted. Arrival times are non-decreasing across calls. Sources are
// single-goroutine objects: callers drive one Source per producer.
type Source interface {
	Next(buf []packet.Packet) (at time.Duration, n int, ok bool)
	// Offered returns the packets and bytes emitted so far — the exact
	// open-loop ground truth assertions compare enforcement against.
	Offered() (pkts, bytes int64)
}

// counted implements the Offered bookkeeping shared by every generator.
type counted struct {
	pkts, bytes int64
}

func (c *counted) Offered() (int64, int64) { return c.pkts, c.bytes }

func (c *counted) count(n, size int) {
	c.pkts += int64(n)
	c.bytes += int64(n) * int64(size)
}

// pktSize is every generator's packet size: full-MSS segments.
const pktSize = units.MSS

// fillBurst writes n flood packets for flow into buf.
func fillBurst(buf []packet.Packet, n int, key packet.FlowKey, size, class int) {
	for i := 0; i < n; i++ {
		buf[i] = packet.Packet{Key: key, Size: size, Class: class}
	}
}

// FloodConfig parameterizes a non-congestion-controlled sender.
type FloodConfig struct {
	// Rate is the offered rate — set it well above the enforced rate;
	// the flood never backs off.
	Rate units.Rate
	// Duration is the schedule length.
	Duration time.Duration
	// Period and Duty make the flood bursty: traffic is sent only during
	// the first Duty fraction of each Period, at Rate/Duty, so the
	// average offered rate stays Rate but arrives in hard on/off slabs.
	// Zero Period (or Duty ≥ 1) is a constant-rate flood.
	Period time.Duration
	Duty   float64
	// Flows is the number of distinct flow keys cycled through
	// (default 1 — a single-source blast).
	Flows int
	// SrcIP namespaces the flood's flow keys.
	SrcIP uint32
}

// floodBurst is the packets per emitted flood burst: the rx_burst shape the
// engine ingests.
const floodBurst = 32

// Flood is a UDP-flood source: constant-rate or bursty, and entirely
// drop-blind. This is the case policers exist for (§1): traffic that does
// not respond to congestion signals must be rate-enforced, not persuaded.
type Flood struct {
	counted
	cfg  FloodConfig
	t    time.Duration
	flow int
}

// NewFlood builds a flood schedule. The zero-value niceties: Flows
// defaults to 1; Duty is clamped to (0, 1].
func NewFlood(cfg FloodConfig) *Flood {
	if cfg.Flows <= 0 {
		cfg.Flows = 1
	}
	if cfg.Duty <= 0 || cfg.Duty > 1 {
		cfg.Duty = 1
	}
	return &Flood{cfg: cfg}
}

// Next emits the flood's next burst.
func (f *Flood) Next(buf []packet.Packet) (time.Duration, int, bool) {
	cfg := &f.cfg
	bursty := cfg.Period > 0 && cfg.Duty < 1
	if bursty {
		// Skip the off-phase: a bursty flood transmits only inside the
		// first Duty fraction of each period.
		on := time.Duration(float64(cfg.Period) * cfg.Duty)
		if phase := f.t % cfg.Period; phase >= on {
			f.t += cfg.Period - phase
		}
	}
	if f.t >= cfg.Duration {
		return 0, 0, false
	}
	n := floodBurst
	if n > len(buf) {
		n = len(buf)
	}
	if n == 0 {
		return 0, 0, false
	}
	key := packet.FlowKey{SrcIP: cfg.SrcIP + 1, DstIP: 0xC0A80001,
		SrcPort: uint16(f.flow%cfg.Flows + 1), DstPort: 9, Proto: 17}
	fillBurst(buf, n, key, pktSize, f.flow%16)
	f.flow++
	at := f.t
	peak := cfg.Rate
	if bursty {
		peak = units.Rate(float64(cfg.Rate) / cfg.Duty)
	}
	f.t += peak.DurationForBytes(int64(n) * pktSize)
	f.count(n, pktSize)
	return at, n, true
}

// FlashCrowdConfig parameterizes a flash-crowd arrival schedule.
type FlashCrowdConfig struct {
	// Aggregates is the number of new aggregates arriving (the ROADMAP
	// scenario uses 10 000).
	Aggregates int
	// Window is the interval the arrivals land in (the ROADMAP scenario
	// uses 1 s).
	Window time.Duration
	// Prefix namespaces the generated aggregate ids (default "crowd").
	Prefix string
}

// Arrival is one flash-crowd aggregate arrival.
type Arrival struct {
	// ID is the new aggregate's unique id.
	ID string
	// At is the arrival's virtual time within the window.
	At time.Duration
	// Index is the arrival's ordinal (0-based), which also seeds its
	// flow key.
	Index int
}

// helloPkts is the size of each flash-crowd arrival's initial burst: a
// request, not a bulk transfer.
const helloPkts = 4

// FlashCrowd is an aggregate-arrival source: Aggregates new aggregates
// land uniformly inside Window, each with a small initial burst. It
// exercises the registry lifecycle — Add and Remove churn, slot and handle
// recycling — under pressure, rather than the enforcers themselves.
type FlashCrowd struct {
	counted
	cfg  FlashCrowdConfig
	at   []time.Duration // sorted arrival offsets
	next int
}

// NewFlashCrowd draws the arrival schedule from src (deterministic per
// seed) and sorts it.
func NewFlashCrowd(src *rng.Source, cfg FlashCrowdConfig) *FlashCrowd {
	if cfg.Prefix == "" {
		cfg.Prefix = "crowd"
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	at := make([]time.Duration, cfg.Aggregates)
	for i := range at {
		at[i] = time.Duration(src.Float64() * float64(cfg.Window))
	}
	// Insertion-style counting sort is overkill; a simple sort keeps the
	// schedule monotone without importing sort for a hot path (this is
	// construction-time only).
	for i := 1; i < len(at); i++ {
		for j := i; j > 0 && at[j] < at[j-1]; j-- {
			at[j], at[j-1] = at[j-1], at[j]
		}
	}
	return &FlashCrowd{cfg: cfg, at: at}
}

// NextArrival returns the next aggregate arrival, in time order.
func (c *FlashCrowd) NextArrival() (Arrival, bool) {
	if c.next >= len(c.at) {
		return Arrival{}, false
	}
	i := c.next
	c.next++
	return Arrival{
		ID:    fmt.Sprintf("%s-%d", c.cfg.Prefix, i),
		At:    c.at[i],
		Index: i,
	}, true
}

// HelloBurst fills buf with arrival i's initial burst and counts it as
// offered load.
func (c *FlashCrowd) HelloBurst(i int, buf []packet.Packet) int {
	n := helloPkts
	if n > len(buf) {
		n = len(buf)
	}
	key := packet.FlowKey{SrcIP: uint32(i + 1), DstIP: 0xC0A80001,
		SrcPort: uint16(i%65535 + 1), DstPort: 443, Proto: 6}
	fillBurst(buf, n, key, pktSize, i%16)
	c.count(n, pktSize)
	return n
}

// SwarmConfig parameterizes a mixed-RTT swarm.
type SwarmConfig struct {
	// Flows is the number of concurrent flows (default 64).
	Flows int
	// Duration is the schedule length.
	Duration time.Duration
	// SrcIP namespaces the swarm's flow keys.
	SrcIP uint32
}

// swarmFlow is one member of a swarm or storm: a pacing interval, a
// per-round burst, and the next scheduled emission.
type swarmFlow struct {
	key    packet.FlowKey
	rtt    time.Duration
	win    int
	nextAt time.Duration
	left   int64 // bytes remaining (storms); <0 means unbounded (swarms)
	class  int
}

// A swarm flow's pacing interval is drawn uniformly from the paper's 2–50 ms
// netem range, and its window, the packets it sends each RTT, from 2–32.
const (
	swarmMinRTT, swarmMaxRTT = 2 * time.Millisecond, 50 * time.Millisecond
	swarmMinWin, swarmMaxWin = 2, 32
)

// Swarm is a mixed-RTT swarm: Flows open-loop senders, each pacing a fixed
// window of packets once per RTT, with RTTs spread across the full netem
// range. Short-RTT flows hammer the enforcer with frequent small bursts
// while long-RTT flows arrive in rarer, larger clumps — the RTT-unfairness
// regime of §6.1 driven at the burst level.
type Swarm struct {
	counted
	cfg   SwarmConfig
	flows []swarmFlow
}

// NewSwarm draws the per-flow RTTs and windows from src.
func NewSwarm(src *rng.Source, cfg SwarmConfig) *Swarm {
	if cfg.Flows <= 0 {
		cfg.Flows = 64
	}
	s := &Swarm{cfg: cfg}
	s.flows = make([]swarmFlow, cfg.Flows)
	for i := range s.flows {
		r := src.Split(uint64(i))
		rtt := time.Duration(r.Range(float64(swarmMinRTT), float64(swarmMaxRTT)))
		s.flows[i] = swarmFlow{
			key: packet.FlowKey{SrcIP: cfg.SrcIP + 1, DstIP: 0xC0A80001,
				SrcPort: uint16(i + 1), DstPort: 443, Proto: 6},
			rtt:    rtt,
			win:    swarmMinWin + r.IntN(swarmMaxWin-swarmMinWin+1),
			nextAt: time.Duration(r.Float64() * float64(rtt)),
			left:   -1,
			class:  i % 16,
		}
	}
	return s
}

// Next emits the earliest pending flow's round.
func (s *Swarm) Next(buf []packet.Packet) (time.Duration, int, bool) {
	i := earliest(s.flows)
	if i < 0 {
		return 0, 0, false
	}
	f := &s.flows[i]
	if f.nextAt >= s.cfg.Duration {
		return 0, 0, false
	}
	n := f.win
	if n > len(buf) {
		n = len(buf)
	}
	if n == 0 {
		return 0, 0, false
	}
	fillBurst(buf, n, f.key, pktSize, f.class)
	at := f.nextAt
	f.nextAt += f.rtt
	s.count(n, pktSize)
	return at, n, true
}

// earliest returns the index of the flow with the smallest nextAt that
// still has data (left != 0); -1 when none do. A linear scan: generator
// flow counts are hundreds, and this runs once per burst at
// construction-time rates.
func earliest(flows []swarmFlow) int {
	best := -1
	for i := range flows {
		f := &flows[i]
		if f.left == 0 {
			continue
		}
		if best < 0 || f.nextAt < flows[best].nextAt {
			best = i
		}
	}
	return best
}

// StormConfig parameterizes a short-flow storm.
type StormConfig struct {
	// Concurrency is the number of flow slots; each slot always has an
	// active short flow (a completed flow is immediately replaced after
	// its think time). Default 32.
	Concurrency int
	// Duration is the schedule length.
	Duration time.Duration
	// MinSize/MaxSize bound flow sizes, drawn log-uniformly (defaults
	// 10 KB and max(500 KB, MinSize) — web-object sized, slow-start
	// dominated). A MaxSize below MinSize is raised to MinSize.
	MinSize, MaxSize int64
	// SrcIP namespaces the storm's flow keys.
	SrcIP uint32
}

// A storm flow's slow-start round lasts stormRTT, its first round is
// stormIW packets, and a completed flow's slot thinks for one round before
// the next flow starts.
const (
	stormRTT = 10 * time.Millisecond
	stormIW  = 4
)

// Storm is a short-flow storm: every flow is slow-start dominated — its
// per-round burst doubles (IW, 2·IW, 4·IW, …) until the flow's bytes run
// out, then a fresh flow takes the slot. Aggregate traffic is therefore an
// endless supply of exponentially ramping micro-bursts, the worst case for
// burst control's θ⁺/θ⁻ admission window (§5.2): enforcement must absorb
// each ramp's head without either over-admitting or flattening every new
// flow to zero.
type Storm struct {
	counted
	cfg   StormConfig
	src   *rng.Source
	flows []swarmFlow
	born  []int // flows started per slot, for key uniqueness
	win   []int // current slow-start window per slot
}

// NewStorm draws per-slot flow sizes and start jitter from src.
func NewStorm(src *rng.Source, cfg StormConfig) *Storm {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 32
	}
	if cfg.MinSize <= 0 {
		cfg.MinSize = 10 * units.KB
	}
	if cfg.MaxSize <= 0 {
		cfg.MaxSize = 500 * units.KB
	}
	cfg.MaxSize = max(cfg.MaxSize, cfg.MinSize)
	s := &Storm{cfg: cfg, src: src}
	s.flows = make([]swarmFlow, cfg.Concurrency)
	s.born = make([]int, cfg.Concurrency)
	s.win = make([]int, cfg.Concurrency)
	for i := range s.flows {
		r := src.Split(uint64(i))
		s.flows[i] = swarmFlow{
			rtt:    stormRTT,
			nextAt: time.Duration(r.Float64() * float64(stormRTT)),
			class:  i % 16,
		}
		s.startFlow(i, r)
	}
	return s
}

// startFlow begins a fresh short flow in slot i: new key, new log-uniform
// size, window reset to IW.
func (s *Storm) startFlow(i int, r *rng.Source) {
	s.born[i]++
	f := &s.flows[i]
	f.key = packet.FlowKey{SrcIP: s.cfg.SrcIP + 1, DstIP: 0xC0A80001,
		SrcPort: uint16(i + 1), DstPort: uint16(s.born[i]%65535 + 1), Proto: 6}
	lo, hi := float64(s.cfg.MinSize), float64(s.cfg.MaxSize)
	f.left = int64(lo * math.Pow(hi/lo, r.Float64()))
	s.win[i] = stormIW
}

// Next emits the earliest pending slot's slow-start round.
func (s *Storm) Next(buf []packet.Packet) (time.Duration, int, bool) {
	i := earliest(s.flows)
	if i < 0 {
		return 0, 0, false
	}
	f := &s.flows[i]
	if f.nextAt >= s.cfg.Duration {
		return 0, 0, false
	}
	n := s.win[i]
	if left := int(f.left / pktSize); n > left {
		n = left
	}
	if n < 1 {
		n = 1
	}
	if n > len(buf) {
		n = len(buf)
	}
	fillBurst(buf, n, f.key, pktSize, f.class)
	at := f.nextAt
	f.left -= int64(n) * pktSize
	if f.left <= 0 {
		// Flow complete: think, then a fresh flow ramps from IW again.
		f.nextAt += stormRTT
		s.startFlow(i, s.src.Split(uint64(s.born[i])<<16|uint64(i)))
	} else {
		f.nextAt += f.rtt
		s.win[i] *= 2 // slow start: the next round doubles
	}
	s.count(n, pktSize)
	return at, n, true
}
