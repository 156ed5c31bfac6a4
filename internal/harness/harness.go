// Package harness wires enforcers, network paths, and TCP flows into
// runnable simulated topologies: sender → rate enforcer → optional secondary
// bottleneck → propagation delay → receiver, with ACKs returning over the
// reverse delay. It corresponds to the paper's three-machine testbed
// (sender, middlebox, receiver) with netem-injected RTTs.
package harness

import (
	"fmt"
	"time"

	"bcpqp/internal/cc"
	"bcpqp/internal/enforcer"
	"bcpqp/internal/netem"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/sched"
	"bcpqp/internal/shaper"
	"bcpqp/internal/sim"
	"bcpqp/internal/tcp"
	"bcpqp/internal/units"
)

// Config configures one enforcement point (one traffic aggregate).
type Config struct {
	// Scheme selects the enforcement mechanism.
	Scheme Scheme
	// Rate is the enforced aggregate rate.
	Rate units.Rate
	// MaxRTT is the worst-case flow RTT used to size buckets and queues.
	MaxRTT time.Duration
	// Queues is the number of classes/queues (ignored by plain policers
	// and the single-queue shaper).
	Queues int
	// Policy is the intra-aggregate rate-sharing policy; nil = fair.
	Policy *sched.Policy
	// FPWeights optionally provides per-bucket weights for the
	// FairPolicer weighted variant.
	FPWeights []float64
	// PhantomQueueSize overrides the phantom queue size B for PQP and
	// BC-PQP. Zero selects the paper defaults: the Reno requirement for
	// PQP and 10× the Policer+ sizing for BC-PQP ("a very high value").
	PhantomQueueSize int64
	// PhantomRED enables the RED AQM extension on PQP/BC-PQP queues.
	PhantomRED *phantom.REDConfig
	// Secondary, if non-zero, inserts a FIFO bottleneck of this rate
	// after the enforcer (Fig 3's downstream RAN-like hop), its buffer
	// sized as a shaper queue at the secondary rate and MaxRTT (see
	// Buffer).
	Secondary units.Rate
}

// tickInterval paces the phantom-queue maintenance Tick, so burst-control
// windows roll over on idle aggregates: a quarter of the window T, 25 ms.
const tickInterval = phantom.Window / 4

// Harness is a runnable enforcement point with attached flows.
type Harness struct {
	Loop *sim.Loop
	cfg  Config

	enf     enforcer.Enforcer
	ingress netem.Forward // entry point for data packets
	routes  map[packet.FlowKey]netem.Forward

	pqp *phantom.PQP
}

// New builds a harness for cfg on a fresh event loop.
func New(cfg Config) (*Harness, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("harness: non-positive rate %v", cfg.Rate)
	}
	if cfg.MaxRTT <= 0 {
		return nil, fmt.Errorf("harness: non-positive max RTT %v", cfg.MaxRTT)
	}
	if cfg.Queues <= 0 {
		cfg.Queues = 16
	}
	loop := sim.NewLoop()
	h := &Harness{Loop: loop, cfg: cfg, routes: make(map[packet.FlowKey]netem.Forward)}

	// The egress side of the enforcer: optional secondary bottleneck,
	// then per-flow routing (propagation + receiver).
	egress := netem.Forward(h.route)
	if cfg.Secondary > 0 {
		buf := Buffer(SchemeShaper, cfg.Secondary, cfg.MaxRTT)
		egress = netem.NewBottleneck(loop, cfg.Secondary, buf, egress).Forward
	}

	enf, err := BuildEnforcer(cfg, shaper.SchedulerFunc(func(at time.Duration, fn func()) {
		loop.At(at, fn)
	}), enforcer.Sink(egress))
	if err != nil {
		return nil, err
	}
	h.enf = enf
	h.ingress = netem.Enforce(enf, egress)
	if p, ok := enf.(*phantom.PQP); ok {
		h.pqp = p
		h.scheduleTick()
	}
	return h, nil
}

// scheduleTick pumps phantom-queue maintenance so burst-control windows
// roll over even when no packets arrive.
func (h *Harness) scheduleTick() {
	var tick func()
	tick = func() {
		h.pqp.Tick(h.Loop.Now())
		h.Loop.After(tickInterval, tick)
	}
	h.Loop.After(tickInterval, tick)
}

// route delivers post-enforcement packets to their flow's receiver path.
func (h *Harness) route(now time.Duration, pkt packet.Packet) {
	if next, ok := h.routes[pkt.Key]; ok {
		next(now, pkt)
	}
}

// FlowSpec describes a flow to attach to the harness.
type FlowSpec struct {
	// Key identifies the flow; it must be unique within the harness.
	Key packet.FlowKey
	// Class pins the flow to an enforcer class; packet.NoClass hashes.
	Class int
	// CC names the congestion control algorithm.
	CC string
	// RTT is the flow's two-way propagation delay.
	RTT time.Duration
	// Size is the flow length in bytes (0 = backlogged).
	Size int64
	// ECN marks the flow's segments ECN-capable (pairs with the
	// phantom RED MarkECN extension).
	ECN bool
	// Start is when the flow begins transmitting.
	Start time.Duration
	// OnDeliver/OnAcked/OnComplete are forwarded to the transport.
	OnDeliver  func(now time.Duration, bytes int)
	OnAcked    func(now time.Duration, totalAcked int64)
	OnComplete func(now time.Duration)
}

// AttachFlow creates the flow, wires its path through the enforcer and the
// per-flow propagation delay, and schedules its start.
func (h *Harness) AttachFlow(spec FlowSpec) (*tcp.Flow, error) {
	if _, dup := h.routes[spec.Key]; dup {
		return nil, fmt.Errorf("harness: duplicate flow key %v", spec.Key)
	}
	factory, ok := cc.NewByName(spec.CC)
	if !ok {
		return nil, fmt.Errorf("harness: unknown congestion control %q", spec.CC)
	}
	flow, err := tcp.NewFlow(tcp.Config{
		Loop:       h.Loop,
		Key:        spec.Key,
		Class:      spec.Class,
		CC:         factory(),
		RTT:        spec.RTT,
		Path:       h.ingress,
		Size:       spec.Size,
		ECN:        spec.ECN,
		OnDeliver:  spec.OnDeliver,
		OnAcked:    spec.OnAcked,
		OnComplete: spec.OnComplete,
	})
	if err != nil {
		return nil, err
	}
	h.routes[spec.Key] = netem.Delay(h.Loop, spec.RTT/2, flow.Deliver)
	h.Loop.At(spec.Start, flow.Start)
	return flow, nil
}

// Stats returns the enforcer's accept/drop statistics.
func (h *Harness) Stats() enforcer.Stats {
	if sr, ok := h.enf.(enforcer.StatsReader); ok {
		return sr.EnforcerStats()
	}
	return enforcer.Stats{}
}

// Run advances the harness's loop to the given virtual time.
func (h *Harness) Run(until time.Duration) {
	h.Loop.Run(until)
}
