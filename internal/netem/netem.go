// Package netem provides the composable path elements experiments wire
// between a TCP sender and receiver: fixed propagation delay, FIFO
// bottleneck links (the "secondary bottleneck" of Fig 3), and adapters that
// place a rate enforcer on the path. It plays the role Linux netem and the
// middlebox topology play in the paper's testbed.
package netem

import (
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/sim"
	"bcpqp/internal/units"
)

// Forward passes a packet to the next hop at virtual time now.
type Forward func(now time.Duration, pkt packet.Packet)

// Delay returns a hop that applies a fixed propagation delay before
// forwarding.
func Delay(loop *sim.Loop, d time.Duration, next Forward) Forward {
	return func(now time.Duration, pkt packet.Packet) {
		loop.At(now+d, func() { next(now+d, pkt) })
	}
}

// Bottleneck is a store-and-forward FIFO link with a finite drop-tail
// buffer. It models the downstream hop "whose link capacity, while greater
// than r, is lower than the burst rate" (§3.3, Fig 3).
type Bottleneck struct {
	loop *sim.Loop
	rate units.Rate
	buf  int64
	next Forward

	queued    int64 // bytes queued or in transmission
	busyUntil time.Duration

	Dropped   int64
	Forwarded int64
}

// NewBottleneck returns a FIFO link of the given rate with bufBytes of
// buffering feeding next.
func NewBottleneck(loop *sim.Loop, rate units.Rate, bufBytes int64, next Forward) *Bottleneck {
	return &Bottleneck{loop: loop, rate: rate, buf: bufBytes, next: next}
}

// Forward implements the hop; use b.Forward as a netem.Forward.
func (b *Bottleneck) Forward(now time.Duration, pkt packet.Packet) {
	size := int64(pkt.Size)
	if b.queued+size > b.buf {
		b.Dropped++
		return
	}
	b.queued += size
	start := b.busyUntil
	if start < now {
		start = now
	}
	depart := start + b.rate.DurationForBytes(size)
	b.busyUntil = depart
	b.loop.At(depart, func() {
		b.queued -= size
		b.Forwarded++
		b.next(depart, pkt)
	})
}

// Enforce places an enforcer on the path: Transmit forwards immediately,
// TransmitCE forwards with the ECN congestion-experienced mark applied,
// Drop discards. A buffering enforcer (the shaper) answers Queued, and
// Enforce forwards nothing: it is built with its sink pointing at the next
// hop. Each packet is a burst of one through one reused one-element burst,
// so the hop allocates nothing per packet.
func Enforce(e enforcer.Enforcer, next Forward) Forward {
	var one [1]packet.Packet
	var v [1]enforcer.Verdict
	return func(now time.Duration, pkt packet.Packet) {
		one[0] = pkt
		e.SubmitBatch(now, one[:], v[:])
		one[0] = packet.Packet{} // hold no reference to the payload
		switch v[0] {
		case enforcer.Transmit:
			next(now, pkt)
		case enforcer.TransmitCE:
			pkt.CE = true
			next(now, pkt)
		}
	}
}
