package phantom

import (
	"math"
	"math/bits"
	"time"
)

// ringCap is the number of FIFO runs a queue holds inline: one cache line of
// them. It must be a power of two.
const ringCap = 16

// queue is one phantom queue: 128 bytes, two cache lines, no pointers.
//
// The first line is everything an admission decision reads or writes: the
// simulated occupancy, the burst-control window, the per-class counters and
// the ring cursor. A drop touches nothing else; an accept also writes the
// ring's tail slot.
//
// The second line is the FIFO of real/magic runs. FIFO order is tracked only
// so that reclaiming magic removes exactly the magic bytes that have not yet
// drained. A run is a signed byte count — positive for phantom copies of
// transmitted packets, negative for burst control's vacuous fill — and the
// queue's magic total is the sum of the negative runs, derived on demand
// (once per closed window) rather than maintained on every drain.
type queue struct {
	length      int64         // total simulated occupancy incl. magic bytes
	windowStart time.Duration // start of the current burst-control window
	accepted    int64         // bytes accepted in the current window

	// Per-class statistics.
	acceptedPackets int64
	acceptedBytes   int64
	droppedPackets  int64
	droppedBytes    int64

	head    uint8 // ring slot of the FIFO front
	n       uint8 // runs in the ring (0 while spilled)
	open    bool  // a burst-control window is open
	spilled bool  // the FIFO is in the table's spills, not in ring
	_       [4]byte

	ring [ringCap]int32
}

// queueTable is a PQP's per-queue state: the queue array, one pointer-free
// allocation the garbage collector never scans, the FIFOs that do not
// currently fit their ring, and two bitmasks over the queues. Every change
// to a queue's length goes through its methods, which is what keeps the
// occupied mask true.
//
// A FIFO spills, whole, to a heap deque when it has more than ringCap runs
// (drain-and-refill alternation inside one window above θ⁺ leaves a real run
// and a sub-MSS magic run per drain) or a run of 2 GiB or more (the queue
// sizes of multi-hundred-Mbps plans). It moves back, and the deque is
// released, once it has shrunk to half the ring. spills is nil until a
// queue of this table first spills.
type queueTable struct {
	queues []queue
	spills []*deque

	// masks interleaves two bitmasks, a word of each per 64 queues:
	// occupied (even words) has a bit per queue with non-zero length;
	// rolled (odd words) has a bit per queue whose burst-control window
	// the current SubmitBatch call has already rolled.
	masks []uint64
	// sharesValid is cleared whenever the occupied set changes; the PQP
	// sets it when it caches something computed from that set.
	sharesValid bool
}

func newQueueTable(n int) queueTable {
	return queueTable{queues: make([]queue, n), masks: make([]uint64, 2*((n+63)/64))}
}

// occupiedWord and rolledWord return the mask word holding queue c's bit.
func (t *queueTable) occupiedWord(c int) *uint64 { return &t.masks[c>>6<<1] }
func (t *queueTable) rolledWord(c int) *uint64   { return &t.masks[c>>6<<1|1] }

func (t *queueTable) isOccupied(c int) bool { return *t.occupiedWord(c)&(1<<(c&63)) != 0 }

// nextOccupied returns the lowest occupied queue at or above c, or -1.
func (t *queueTable) nextOccupied(c int) int {
	if c >= len(t.queues) {
		return -1
	}
	if w := *t.occupiedWord(c) >> (c & 63); w != 0 {
		return c + bits.TrailingZeros64(w)
	}
	for c = (c | 63) + 1; c < len(t.queues); c += 64 {
		if w := *t.occupiedWord(c); w != 0 {
			return c + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// addLength changes queue c's length by delta and keeps the occupied mask
// in step.
func (t *queueTable) addLength(c int, delta int64) {
	q := &t.queues[c]
	was := q.length > 0
	q.length += delta
	if is := q.length > 0; is != was {
		*t.occupiedWord(c) ^= 1 << (c & 63)
		t.sharesValid = false
	}
}

// deque is a spilled FIFO: a slice consumed from head.
type deque struct {
	runs []int64
	head int
}

// push appends v, reusing the consumed prefix rather than growing when it is
// a quarter of the buffer or more, so capacity tracks the live run count.
func (d *deque) push(v int64) {
	if len(d.runs) == cap(d.runs) && d.head >= cap(d.runs)/4 {
		d.runs = d.runs[:copy(d.runs, d.runs[d.head:])]
		d.head = 0
	}
	d.runs = append(d.runs, v)
}

func fitsRing(v int64) bool { return v >= -math.MaxInt32 && v <= math.MaxInt32 }

// slot maps the i-th run from the front to its ring slot.
func (q *queue) slot(i int) int { return (int(q.head) + i) & (ringCap - 1) }

// numRuns returns the number of runs in queue c's FIFO.
func (t *queueTable) numRuns(c int) int {
	if q := &t.queues[c]; !q.spilled {
		return int(q.n)
	}
	d := t.spills[c]
	return len(d.runs) - d.head
}

// run returns the i-th run from the front of queue c.
func (t *queueTable) run(c, i int) int64 {
	if q := &t.queues[c]; !q.spilled {
		return int64(q.ring[q.slot(i)])
	}
	d := t.spills[c]
	return d.runs[d.head+i]
}

func (t *queueTable) setRun(c, i int, v int64) {
	if q := &t.queues[c]; !q.spilled {
		if fitsRing(v) {
			q.ring[q.slot(i)] = int32(v)
			return
		}
		t.toHeap(c)
	}
	d := t.spills[c]
	d.runs[d.head+i] = v
}

func (t *queueTable) pushBack(c int, v int64) {
	if q := &t.queues[c]; !q.spilled {
		if q.n < ringCap && fitsRing(v) {
			q.ring[q.slot(int(q.n))] = int32(v)
			q.n++
			return
		}
		t.toHeap(c)
	}
	t.spills[c].push(v)
}

func (t *queueTable) popFront(c int) {
	q := &t.queues[c]
	if !q.spilled {
		q.head = uint8(q.slot(1))
		if q.n--; q.n == 0 {
			q.head = 0
		}
		return
	}
	d := t.spills[c]
	d.head++
	if live := d.runs[d.head:]; len(live) <= ringCap/2 {
		t.toRing(c, live)
	}
}

// toHeap moves queue c's FIFO from the ring to a heap deque.
func (t *queueTable) toHeap(c int) {
	q := &t.queues[c]
	d := &deque{runs: make([]int64, q.n, 2*ringCap)}
	for i := range d.runs {
		d.runs[i] = int64(q.ring[q.slot(i)])
	}
	if t.spills == nil {
		t.spills = make([]*deque, len(t.queues))
	}
	t.spills[c] = d
	q.head, q.n, q.spilled = 0, 0, true
}

// toRing moves queue c's spilled FIFO back into the ring if every run fits a
// slot.
func (t *queueTable) toRing(c int, live []int64) {
	for _, v := range live {
		if !fitsRing(v) {
			return
		}
	}
	q := &t.queues[c]
	for i, v := range live {
		q.ring[i] = int32(v)
	}
	q.head, q.n, q.spilled = 0, uint8(len(live)), false
	t.spills[c] = nil
}

// magic returns the magic bytes currently in queue c.
func (t *queueTable) magic(c int) int64 {
	var m int64
	for i, n := 0, t.numRuns(c); i < n; i++ {
		if v := t.run(c, i); v < 0 {
			m -= v
		}
	}
	return m
}

// pushReal appends s real phantom bytes to queue c, coalescing with a real
// tail run.
func (t *queueTable) pushReal(c int, s int64) {
	t.addLength(c, s)
	if n := t.numRuns(c); n > 0 {
		if tail := t.run(c, n-1); tail >= 0 {
			t.setRun(c, n-1, tail+s)
			return
		}
	}
	t.pushBack(c, s)
}

// pushRun appends a run to queue c as it stands, without coalescing: a magic
// fill, or a run read from a snapshot.
func (t *queueTable) pushRun(c int, v int64) {
	t.addLength(c, max(v, -v))
	t.pushBack(c, v)
}

// drain removes n bytes from the front of queue c.
func (t *queueTable) drain(c int, n int64) {
	if length := t.queues[c].length; n > length {
		n = length
	}
	t.addLength(c, -n)
	for n > 0 {
		v := t.run(c, 0)
		sign := int64(1)
		if v < 0 {
			sign = -1
		}
		take := v * sign
		if take > n {
			take = n
		}
		n -= take
		if v -= sign * take; v == 0 {
			t.popFront(c)
		} else {
			t.setRun(c, 0, v)
		}
	}
}

// reclaimMagic removes every magic byte from queue c and returns how many
// there were. The real runs left behind coalesce into one.
func (t *queueTable) reclaimMagic(c int) int64 {
	var m int64
	anyReal := false
	for i, n := 0, t.numRuns(c); i < n; i++ {
		if v := t.run(c, i); v < 0 {
			m -= v
		} else {
			anyReal = true
		}
	}
	if m == 0 {
		return 0
	}
	t.addLength(c, -m)
	q := &t.queues[c]
	if q.spilled {
		t.spills[c] = nil
	}
	q.head, q.n, q.spilled = 0, 0, false
	if anyReal {
		t.pushBack(c, q.length)
	}
	return m
}
