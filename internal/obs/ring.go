package obs

import (
	"sort"
	"sync/atomic"
)

// Ring is a fixed-capacity, lock-free flight-recorder ring. Writers claim
// slots with one atomic increment and publish events with word-wise atomic
// stores behind a per-slot seqlock; readers snapshot without stopping
// writers, discarding any slot caught mid-write. The ring never allocates
// after construction and never blocks: new events overwrite the oldest.
//
// Each slot's fields are individually atomic, so a concurrent snapshot is
// free of data races (including under the race detector) and the seq
// re-check discards torn events rather than returning them.
type Ring struct {
	mask  uint64
	head  atomic.Uint64 // next claim index
	slots []ringSlot
}

// ringSlot is one seqlocked event. seq is 0 while vacant or mid-write and
// the event's (nonzero) global sequence number once published.
type ringSlot struct {
	seq  atomic.Uint64
	wall atomic.Int64
	vt   atomic.Int64
	meta atomic.Uint64 // kind in bits 0-7, shard+1 in bits 8-39
	agg  atomic.Int64
	node atomic.Int32
	a    atomic.Int64
	b    atomic.Int64
	c    atomic.Int64
}

// newRing returns a ring holding the most recent n events (rounded up to a
// power of two, minimum 16).
func newRing(n int) *Ring {
	capacity := 16
	for capacity < n {
		capacity <<= 1
	}
	return &Ring{mask: uint64(capacity - 1), slots: make([]ringSlot, capacity)}
}

// Cap returns the ring capacity in events.
func (r *Ring) Cap() int { return len(r.slots) }

// record publishes one event; e.Seq must already be nonzero (the
// collector's global sequence). Claiming the slot index with a single
// atomic add makes the ring multi-producer safe: two producers write the
// same slot only after a full ring wrap between claim and publish, and the
// seqlock discards such a slot from snapshots rather than tearing it.
func (r *Ring) record(e Event) {
	s := &r.slots[(r.head.Add(1)-1)&r.mask]
	s.seq.Store(0)
	s.wall.Store(e.Wall)
	s.vt.Store(e.VT)
	s.meta.Store(packMeta(e.Kind, e.Shard))
	s.agg.Store(e.Agg)
	s.node.Store(e.Node)
	s.a.Store(e.A)
	s.b.Store(e.B)
	s.c.Store(e.C)
	s.seq.Store(e.Seq)
}

func packMeta(k Kind, shard int32) uint64 {
	return uint64(k) | uint64(uint32(shard+1))<<8
}

func unpackMeta(m uint64) (Kind, int32) {
	return Kind(m & 0xff), int32(uint32(m>>8)) - 1
}

// snapshot appends the ring's published events to out. Slots caught
// mid-write are retried a few times and then skipped; the result is not
// ordered (merge and sort across rings with sortEvents).
func (r *Ring) snapshot(out []Event) []Event {
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 3; attempt++ {
			seq := s.seq.Load()
			if seq == 0 {
				break // vacant or mid-write
			}
			e := Event{
				Seq:  seq,
				Wall: s.wall.Load(),
				VT:   s.vt.Load(),
				Agg:  s.agg.Load(),
				Node: s.node.Load(),
				A:    s.a.Load(),
				B:    s.b.Load(),
				C:    s.c.Load(),
			}
			e.Kind, e.Shard = unpackMeta(s.meta.Load())
			if s.seq.Load() != seq {
				continue // overwritten mid-copy: retry
			}
			out = append(out, e)
			break
		}
	}
	return out
}

// sortEvents orders a merged snapshot by global sequence number.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
}
