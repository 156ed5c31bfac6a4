// Package shaper implements the traffic-shaper baseline of §2.1: a
// multi-queue buffering rate limiter. Packets are stored in per-class
// drop-tail queues and served at the enforced rate by a scheduler that
// realizes the configured policy (DRR-style weighted fairness, strict
// priority, or nested combinations) through the shared policy-tree GPS
// drain.
//
// Unlike the bufferless schemes, the shaper genuinely holds packets —
// including their payload buffers when present — and revisits them at
// dequeue time, paying the memory-movement and scheduling cost the paper's
// efficiency comparison attributes to shaping. Dequeue work is driven by
// periodic service callbacks scheduled every MSS/r through a pluggable
// scheduler (the discrete-event loop in simulations, a hashed timing wheel
// in the scale benchmarks), matching the paper's description of shaper
// implementations.
package shaper

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// Scheduler is the timer facility the shaper uses to schedule its periodic
// dequeue callbacks. *sim.Loop and *timerwheel.Wheel both satisfy it via
// small adapters (see SimScheduler / WheelScheduler in this package's
// callers).
type Scheduler interface {
	// Schedule runs fn at virtual time at.
	Schedule(at time.Duration, fn func())
}

// SchedulerFunc adapts a function to the Scheduler interface.
type SchedulerFunc func(at time.Duration, fn func())

// Schedule implements Scheduler.
func (f SchedulerFunc) Schedule(at time.Duration, fn func()) { f(at, fn) }

// Config configures a Shaper for one traffic aggregate.
type Config struct {
	// Rate is the aggregate service rate.
	Rate units.Rate
	// Queues is the number of per-class queues (1 gives the single-queue
	// shaper used as a status-quo baseline in §6.4).
	Queues int
	// QueueSize is the per-queue buffer capacity in bytes. The paper
	// sizes shaper queues at one maximum BDP.
	QueueSize int64
	// Policy is the service policy across queues; nil means fair sharing.
	Policy *sched.Policy
	// Scheduler provides dequeue timers.
	Scheduler Scheduler
	// Sink receives packets as they are served.
	Sink enforcer.Sink
}

// Shaper is a buffering rate limiter. Not safe for concurrent use.
type Shaper struct {
	cfg   Config
	stats enforcer.Stats

	queues  []pktQueue
	credit  []int64 // GPS byte credit not yet redeemed for whole packets
	backlog int     // total buffered packets

	serviceArmed bool
	serviceAt    time.Duration // due time of the armed service event
	serviceFn    func()        // the service callback, built once: service(serviceAt)
	lastService  time.Duration
	svcCredit    float64 // fractional service bytes carried between events
	started      bool

	scratch []byte // dequeue copy buffer modeling the memory trip to the NIC

	// QueueingDelaySum/DequeuedPackets expose average queueing delay.
	QueueingDelaySum time.Duration
	DequeuedPackets  int64
}

// pktQueue is a drop-tail FIFO of buffered packets.
type pktQueue struct {
	pkts    []queuedPacket
	head    int
	bytes   int64
	dropped int64
}

type queuedPacket struct {
	pkt      packet.Packet
	enqueued time.Duration
}

// New validates cfg and returns a Shaper.
func New(cfg Config) (*Shaper, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("shaper: non-positive rate %v", cfg.Rate)
	}
	if cfg.Queues <= 0 {
		return nil, fmt.Errorf("shaper: need at least one queue, got %d", cfg.Queues)
	}
	if cfg.QueueSize < units.MSS {
		return nil, fmt.Errorf("shaper: queue size %d below one MSS", cfg.QueueSize)
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("shaper: nil scheduler")
	}
	if cfg.Sink == nil {
		return nil, fmt.Errorf("shaper: nil sink")
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.Fair(cfg.Queues)
	}
	if cfg.Policy.NumClasses() > cfg.Queues {
		return nil, fmt.Errorf("shaper: policy covers %d classes but only %d queues",
			cfg.Policy.NumClasses(), cfg.Queues)
	}
	s := &Shaper{
		cfg:     cfg,
		queues:  make([]pktQueue, cfg.Queues),
		credit:  make([]int64, cfg.Queues),
		scratch: make([]byte, 2*units.MSS),
	}
	s.serviceFn = func() { s.service(s.serviceAt) }
	return s, nil
}

// SubmitBatch implements enforcer.Enforcer: each packet in turn is enqueued
// into its class queue, or dropped on overflow (drop-tail), and the service
// timer is armed. The shaper has no per-burst work to amortize, so a burst
// is the per-packet step in a loop.
func (s *Shaper) SubmitBatch(now time.Duration, pkts []packet.Packet, verdicts []enforcer.Verdict) {
	verdicts = verdicts[:len(pkts)]
	for i := range pkts {
		pkt := &pkts[i]
		if !s.started {
			s.started = true
			s.lastService = now
		}
		class := pkt.ClassIn(s.cfg.Queues)
		q := &s.queues[class]
		if q.bytes+int64(pkt.Size) > s.cfg.QueueSize {
			q.dropped++
			s.stats.Reject(pkt.Size)
			verdicts[i] = enforcer.Drop
			continue
		}
		q.pkts = append(q.pkts, queuedPacket{pkt: *pkt, enqueued: now})
		q.bytes += int64(pkt.Size)
		s.backlog++
		s.stats.Accept(pkt.Size)
		s.armService(now)
		verdicts[i] = enforcer.Queued
	}
}

// armService schedules the next dequeue callback MSS/r ahead, the cadence
// the paper describes for shaper implementations.
func (s *Shaper) armService(now time.Duration) {
	if s.serviceArmed || s.backlog == 0 {
		return
	}
	s.lastService = now
	s.svcCredit = 0
	s.schedule(now)
}

// schedule arms the service callback one quantum, MSS/r, after now.
func (s *Shaper) schedule(now time.Duration) {
	s.serviceArmed = true
	s.serviceAt = now + s.cfg.Rate.DurationForBytes(units.MSS)
	s.cfg.Scheduler.Schedule(s.serviceAt, s.serviceFn)
}

// service runs one dequeue round: it converts elapsed time into a byte
// budget and distributes it across occupied queues per the policy, emitting
// every packet whose accumulated per-class credit covers it.
func (s *Shaper) service(now time.Duration) {
	s.serviceArmed = false
	budget := s.svcCredit + s.cfg.Rate.Bytes(now-s.lastService)
	s.lastService = now
	whole := int64(budget)
	s.svcCredit = budget - float64(whole)
	if whole > 0 {
		s.cfg.Policy.Drain(whole,
			func(class int) int64 { return s.queues[class].bytes - s.credit[class] },
			func(class int, n int64) { s.serve(now, class, n) })
	}
	if s.backlog > 0 {
		s.schedule(now)
	}
}

// serve grants n service bytes to class and pops every whole packet the
// accumulated credit covers, copying payloads out through the scratch
// buffer to model the per-packet memory trip a real shaper pays when
// gathering packets for the NIC.
func (s *Shaper) serve(now time.Duration, class int, n int64) {
	s.credit[class] += n
	q := &s.queues[class]
	for q.head < len(q.pkts) {
		head := &q.pkts[q.head]
		size := int64(head.pkt.Size)
		if s.credit[class] < size {
			break
		}
		s.credit[class] -= size
		q.bytes -= size
		if head.pkt.Payload != nil {
			copy(s.scratch, head.pkt.Payload)
		}
		s.QueueingDelaySum += now - head.enqueued
		s.DequeuedPackets++
		pkt := head.pkt
		*head = queuedPacket{}
		q.head++
		s.backlog--
		s.cfg.Sink(now, pkt)
	}
	if q.head == len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
		s.credit[class] = 0
	} else if q.head > 64 && q.head > len(q.pkts)/2 {
		m := copy(q.pkts, q.pkts[q.head:])
		q.pkts = q.pkts[:m]
		q.head = 0
	}
}

// QueuedBytes returns the bytes buffered in queue class.
func (s *Shaper) QueuedBytes(class int) int64 { return s.queues[class].bytes }

// AvgQueueingDelay returns the mean time packets spent buffered.
func (s *Shaper) AvgQueueingDelay() time.Duration {
	if s.DequeuedPackets == 0 {
		return 0
	}
	return s.QueueingDelaySum / time.Duration(s.DequeuedPackets)
}

// EnforcerStats implements enforcer.StatsReader.
func (s *Shaper) EnforcerStats() enforcer.Stats { return s.stats }

var _ enforcer.Enforcer = (*Shaper)(nil)
var _ enforcer.StatsReader = (*Shaper)(nil)
