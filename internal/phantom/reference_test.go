package phantom

import (
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// refPQP is the layout this package had before its per-queue state was
// flattened, kept as the reference the differential tests compare against:
// one segment deque per queue, a maintained magic counter, every share read
// from the policy tree through closures. It is the old Submit path verbatim
// minus events, filters and batching, and takes an already validated Config.

type refSegment struct {
	bytes int64
	magic bool
}

type refQueue struct {
	length, magic int64
	segs          []refSegment
	head          int

	windowOpen  bool
	windowStart time.Duration
	accepted    int64

	acceptedPackets, acceptedBytes, droppedPackets, droppedBytes int64
}

func (q *refQueue) pushReal(s int64) {
	if n := len(q.segs); n > q.head && !q.segs[n-1].magic {
		q.segs[n-1].bytes += s
	} else {
		q.segs = append(q.segs, refSegment{bytes: s})
	}
	q.length += s
}

func (q *refQueue) drain(n int64) {
	if n > q.length {
		n = q.length
	}
	q.length -= n
	for n > 0 {
		s := &q.segs[q.head]
		take := min(s.bytes, n)
		s.bytes -= take
		if s.magic {
			q.magic -= take
		}
		n -= take
		if s.bytes == 0 {
			q.head++
		}
	}
	q.compact()
}

func (q *refQueue) reclaimMagic() {
	if q.magic == 0 {
		return
	}
	out := q.segs[q.head:q.head]
	for _, s := range q.segs[q.head:] {
		if s.magic {
			continue
		}
		if n := len(out); n > 0 {
			out[n-1].bytes += s.bytes
		} else {
			out = append(out, s)
		}
	}
	q.length -= q.magic
	q.magic = 0
	q.segs = q.segs[:q.head+len(out)]
	q.compact()
}

func (q *refQueue) compact() {
	if q.head == len(q.segs) {
		q.segs, q.head = q.segs[:0], 0
	} else if q.head > 32 && q.head > len(q.segs)/2 {
		q.segs = q.segs[:copy(q.segs, q.segs[q.head:])]
		q.head = 0
	}
}

type refPQP struct {
	cfg         Config
	stats       enforcer.Stats
	queues      []refQueue
	lastDrain   time.Duration
	drainCredit float64
	shares      []float64
	sharesValid bool
	flatWeights []float64
	red         []redState
	started     bool
}

// newRef mirrors p, which New has validated and filled with defaults; policy
// is the tree p was configured with (nil for the default).
func newRef(p *PQP, policy *sched.Policy) *refPQP {
	r := &refPQP{
		cfg:    p.cfg,
		queues: make([]refQueue, p.cfg.Queues),
		shares: make([]float64, p.cfg.Queues),
		red:    append([]redState(nil), p.red...),
	}
	r.setPolicy(policy)
	return r
}

func (r *refPQP) setPolicy(policy *sched.Policy) {
	if policy == nil {
		policy = sched.Fair(r.cfg.Queues)
	}
	r.cfg.Policy = policy
	r.flatWeights = policy.FlatWeighted()
	r.sharesValid = false
}

func (r *refPQP) Submit(now time.Duration, pkt packet.Packet) enforcer.Verdict {
	if !r.started {
		r.started, r.lastDrain = true, now
	}
	class := pkt.ClassIn(r.cfg.Queues)
	q := &r.queues[class]
	size := int64(pkt.Size)
	if r.cfg.BurstControl {
		r.rollWindow(now, class)
	}
	if q.length+size > r.cfg.QueueSize || r.red != nil {
		if r.drainCredit+r.cfg.Rate.Bytes(now-r.lastDrain) >= float64(r.cfg.DrainBatch) {
			r.advance(now)
		}
	}
	markCE := false
	if r.red != nil && r.red[class].early(r.cfg.RED, q.length) {
		if r.cfg.RED.MarkECN && pkt.ECT {
			markCE = true
		} else {
			q.droppedPackets++
			q.droppedBytes += size
			r.stats.Reject(pkt.Size)
			return enforcer.Drop
		}
	}
	if q.length+size > r.cfg.QueueSize {
		q.droppedPackets++
		q.droppedBytes += size
		r.stats.Reject(pkt.Size)
		return enforcer.Drop
	}
	if q.length == 0 {
		r.sharesValid = false
	}
	q.pushReal(size)
	q.acceptedPackets++
	q.acceptedBytes += size
	r.stats.Accept(int(size))
	if r.cfg.BurstControl {
		if !q.windowOpen {
			q.windowOpen, q.windowStart, q.accepted = true, now, 0
		}
		q.accepted += size
		if x := r.expectedWindowBytes(class); x > 0 && float64(q.accepted) > r.cfg.ThetaHi*x {
			if m := r.cfg.QueueSize - q.length; m > 0 {
				q.segs = append(q.segs, refSegment{bytes: m, magic: true})
				q.magic += m
				q.length += m
			}
		}
	}
	if markCE {
		return enforcer.TransmitCE
	}
	return enforcer.Transmit
}

func (r *refPQP) Tick(now time.Duration) {
	r.advance(now)
	if r.cfg.BurstControl {
		for i := range r.queues {
			r.rollWindow(now, i)
		}
	}
}

func (r *refPQP) SetRate(now time.Duration, rate units.Rate) {
	r.Tick(now)
	r.cfg.Rate = rate
	r.sharesValid = false
}

func (r *refPQP) SetPolicy(now time.Duration, policy *sched.Policy) {
	r.Tick(now)
	r.setPolicy(policy)
}

func (r *refPQP) advance(now time.Duration) {
	if !r.started {
		r.started, r.lastDrain = true, now
		return
	}
	if now <= r.lastDrain {
		return
	}
	budget := r.drainCredit + r.cfg.Rate.Bytes(now-r.lastDrain)
	r.lastDrain = now
	whole := int64(budget)
	r.drainCredit = budget - float64(whole)
	if whole <= 0 {
		return
	}
	if r.flatWeights != nil {
		r.flatDrain(whole)
		return
	}
	r.cfg.Policy.Drain(whole,
		func(class int) int64 { return r.queues[class].length },
		func(class int, n int64) {
			q := &r.queues[class]
			q.drain(n)
			if q.length == 0 {
				r.sharesValid = false
			}
		})
}

func (r *refPQP) flatDrain(budget int64) {
	for budget > 0 {
		var wsum float64
		occupied := 0
		for i := range r.queues {
			if r.queues[i].length > 0 {
				wsum += r.flatWeights[i]
				occupied++
			}
		}
		if occupied == 0 {
			return
		}
		drainedSmall := false
		for i := range r.queues {
			q := &r.queues[i]
			if q.length == 0 {
				continue
			}
			alloc := int64(float64(budget) * r.flatWeights[i] / wsum)
			if q.length <= alloc {
				budget -= q.length
				q.drain(q.length)
				r.sharesValid = false
				drainedSmall = true
			}
		}
		if drainedSmall {
			continue
		}
		var consumed int64
		for i := range r.queues {
			q := &r.queues[i]
			if q.length == 0 {
				continue
			}
			alloc := int64(float64(budget) * r.flatWeights[i] / wsum)
			q.drain(alloc)
			consumed += alloc
			if q.length == 0 {
				r.sharesValid = false
			}
		}
		leftover := budget - consumed
		for i := range r.queues {
			if leftover == 0 {
				break
			}
			q := &r.queues[i]
			if q.length > 0 {
				d := min(leftover, q.length)
				q.drain(d)
				leftover -= d
				if q.length == 0 {
					r.sharesValid = false
				}
			}
		}
		return
	}
}

func (r *refPQP) rollWindow(now time.Duration, class int) {
	q := &r.queues[class]
	if !q.windowOpen || now < q.windowStart+r.cfg.Window {
		return
	}
	x := r.expectedWindowBytes(class)
	if float64(q.accepted) < r.cfg.ThetaLo*x && q.magic > 0 {
		q.reclaimMagic()
		if q.length == 0 {
			r.sharesValid = false
		}
	}
	if q.length == 0 {
		q.windowOpen, q.accepted = false, 0
		return
	}
	q.windowStart, q.accepted = now, 0
}

func (r *refPQP) expectedWindowBytes(class int) float64 {
	if !r.sharesValid || (r.queues[class].length == 0 && r.shares[class] == 0) {
		r.cfg.Policy.Shares(r.cfg.Rate.BytesPerSecond(),
			func(c int) bool { return c == class || r.queues[c].length > 0 },
			r.shares)
		r.sharesValid = r.queues[class].length > 0
	}
	return r.shares[class] * r.cfg.Window.Seconds()
}
