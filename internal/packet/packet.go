// Package packet defines the packet descriptor that flows through every rate
// enforcer, together with flow keys and the hash-based classification the
// paper uses to map flows onto phantom queues.
package packet

import (
	"fmt"
)

// FlowKey identifies a flow by its 5-tuple. All enforcers classify packets
// by flow key (or by an explicit class override).
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String renders the key in src->dst form for diagnostics.
func (k FlowKey) String() string {
	return fmt.Sprintf("%d:%d->%d:%d/%d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.Proto)
}

// hash returns a 64-bit FNV-1a hash of the flow key. The hash drives
// classification of flows into one of N queues when no explicit class is
// assigned (§3.2: "hash of source-destination addresses").
func (k FlowKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(byte(k.SrcIP))
	mix(byte(k.SrcIP >> 8))
	mix(byte(k.SrcIP >> 16))
	mix(byte(k.SrcIP >> 24))
	mix(byte(k.DstIP))
	mix(byte(k.DstIP >> 8))
	mix(byte(k.DstIP >> 16))
	mix(byte(k.DstIP >> 24))
	mix(byte(k.SrcPort))
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.DstPort))
	mix(byte(k.DstPort >> 8))
	mix(k.Proto)
	return h
}

// Class returns the queue index in [0, n) for this flow key.
func (k FlowKey) Class(n int) int {
	if n <= 1 {
		return 0
	}
	return int(k.hash() % uint64(n))
}

// NoClass marks a packet whose class should be derived from its flow key.
const NoClass = -1

// Packet is the unit of work submitted to an enforcer.
//
// Payload is optional: the simulator leaves it nil (packet contents do not
// affect enforcement decisions), while the efficiency benchmarks attach real
// payload buffers so that buffering schemes (the shaper) pay their true
// memory-movement cost.
type Packet struct {
	Key     FlowKey
	Size    int   // total size in bytes used for rate accounting
	Class   int   // explicit queue index, or NoClass to classify by Key
	Seq     int64 // transport sequence number; opaque to enforcers
	ECT     bool  // ECN-capable transport (sender set)
	CE      bool  // congestion experienced (marked by an AQM hop)
	Payload []byte
}

// ClassIn returns the effective class of the packet for an enforcer with n
// queues: the explicit class if set, otherwise the flow-key hash class.
func (p *Packet) ClassIn(n int) int {
	if uint(p.Class) < uint(n) { // NoClass and other negatives wrap above n
		return p.Class
	}
	return p.keyClass(n)
}

// keyClass is the hash fallback, out of line so that ClassIn's compare fits
// the inliner's budget and the enforcers' packet loops pay no call for it.
//
//go:noinline
func (p *Packet) keyClass(n int) int { return p.Key.Class(n) }
