package phantom

import (
	"math"
	"time"
)

// ringCap is the number of FIFO runs a queue holds inline: one cache line of
// them. It must be a power of two.
const ringCap = 16

// queue is one phantom queue: 128 bytes, two cache lines, no pointers.
//
// The first line is everything an admission decision or a drain reads or
// writes: the simulated occupancy, the burst-control window, the per-class
// counters, the ring cursor and tail, the real bytes accepted since the FIFO
// was last brought up to date. An accept is length += s, tail += s; a drain
// is length -= n. Neither touches the second line.
//
// The second line is the FIFO of real/magic runs as of the last sync. FIFO
// order is tracked only so that reclaiming magic removes exactly the magic
// bytes that have not yet drained, so only what needs the runs — a magic
// fill, a closed window's reclaim, MagicBytes, a snapshot — brings them up
// to date (sync). In between, the FIFO is implied: the stored runs followed
// by tail real bytes, less whatever has to come off the front for the total
// to be length. Pushes go on the back and drains come off the front, and a
// drain never takes more than the queue held at its moment, so applying them
// late and all at once leaves the same runs as applying each in turn.
//
// A run is a signed byte count, never zero — positive for phantom copies of
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
	tail    int32 // real bytes accepted since the last sync (0 while spilled)

	ring [ringCap]int32
}

// queueTable is a PQP's per-queue state: the queue array, one pointer-free
// allocation the garbage collector never scans, the FIFOs that do not
// currently fit their ring, and the occupied bitmask over the queues. Every
// change to a queue's length goes through its methods, which is what keeps
// the mask true.
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

	// masks is the occupied mask, a word per 64 queues: a bit per queue
	// with non-zero length. Walks take a word at a time and strip bits off
	// their copy (m &= m-1), which holds while a walk changes no queue's
	// bit but the one it stands on.
	masks []uint64

	// sharesValid is cleared whenever the occupied set changes; the PQP
	// sets it when it caches something computed from that set. started and
	// memoClass are the PQP's alone (its drain clock is set; the class its
	// r_i* memo is for) and live in this word's padding, which is what
	// keeps a PQP inside the 320-byte size class.
	sharesValid bool
	started     bool
	memoClass   int32
}

func newQueueTable(n int) queueTable {
	return queueTable{queues: make([]queue, n), masks: make([]uint64, (n+63)/64)}
}

// occupiedWord returns the mask word holding queue c's bit.
func (t *queueTable) occupiedWord(c int) *uint64 { return &t.masks[c>>6] }

func (t *queueTable) isOccupied(c int) bool { return *t.occupiedWord(c)&(1<<(c&63)) != 0 }

// anyOccupied reports whether any queue holds bytes.
func (t *queueTable) anyOccupied() bool {
	for _, m := range t.masks {
		if m != 0 {
			return true
		}
	}
	return false
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

// sync brings queue c's stored FIFO up to date: what has drained since the
// last sync comes off the front and the tail goes on the back as a real run.
// Everything that reads or appends runs calls it first. A spilled FIFO is
// kept up to date as it goes and has nothing pending.
func (t *queueTable) sync(c int) {
	q := &t.queues[c]
	if q.spilled {
		return
	}
	tail := int64(q.tail)
	q.tail = 0
	// The FIFO is the last length bytes of the stored runs followed by the
	// tail, so keep bytes of the stored runs are still queued.
	keep := q.length - tail
	if keep <= 0 {
		// Every stored run has drained, and some of the tail after them.
		q.head, q.n, tail = 0, 0, q.length
	}
	// Walk back from the tail run to the one the front now falls in.
	i := int(q.n)
	for keep > 0 {
		if i == 0 {
			panic("phantom: a queue's runs and tail hold fewer bytes than its length")
		}
		i--
		v := int64(q.ring[q.slot(i)])
		if size := max(v, -v); size <= keep {
			keep -= size
			continue
		}
		if v < 0 {
			keep = -keep
		}
		q.ring[q.slot(i)] = int32(keep)
		break
	}
	q.head, q.n = uint8(q.slot(i)), q.n-uint8(i)
	if tail > 0 {
		t.appendReal(c, tail)
	}
}

// numRuns returns the number of runs stored in queue c's FIFO, which is all
// of them after a sync.
func (t *queueTable) numRuns(c int) int {
	if q := &t.queues[c]; !q.spilled {
		return int(q.n)
	}
	d := t.spills[c]
	return len(d.runs) - d.head
}

// run returns the i-th stored run from the front of queue c.
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

// appendReal puts s > 0 real bytes on the back of queue c's stored runs,
// coalescing with a real tail run.
func (t *queueTable) appendReal(c int, s int64) {
	if n := t.numRuns(c); n > 0 {
		if last := t.run(c, n-1); last > 0 {
			t.setRun(c, n-1, last+s)
			return
		}
	}
	t.pushBack(c, s)
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
	t.sync(c)
	var m int64
	for i, n := 0, t.numRuns(c); i < n; i++ {
		if v := t.run(c, i); v < 0 {
			m -= v
		}
	}
	return m
}

// pushReal appends s real phantom bytes to queue c. They wait in the tail
// until something needs the runs; only bytes the tail cannot count, or a
// spilled FIFO, go on the back at once.
func (t *queueTable) pushReal(c int, s int64) {
	q := &t.queues[c]
	// The common accept: the queue is occupied (so the mask stands) and in
	// its ring, and the tail has room.
	if q.length > 0 && !q.spilled && uint64(s) <= uint64(math.MaxInt32-q.tail) {
		q.length += s
		q.tail += int32(s)
		return
	}
	t.sync(c)
	t.addLength(c, s)
	if !q.spilled && uint64(s) <= math.MaxInt32 {
		q.tail = int32(s)
	} else if s > 0 {
		t.appendReal(c, s)
	}
}

// pushRun appends a run to queue c as it stands, without coalescing: a magic
// fill, or a run read from a snapshot.
func (t *queueTable) pushRun(c int, v int64) {
	t.sync(c)
	t.addLength(c, max(v, -v))
	t.pushBack(c, v)
}

// drain removes n bytes from the front of queue c. An emptied queue forgets
// its stored runs there and then, so a refill starts from a clean cursor.
func (t *queueTable) drain(c int, n int64) {
	q := &t.queues[c]
	if n = min(n, q.length); n <= 0 {
		return
	}
	if q.spilled {
		t.drainSpilled(c, n)
		return
	}
	q.length -= n
	if q.length == 0 {
		q.head, q.n, q.tail = 0, 0, 0
		*t.occupiedWord(c) &^= 1 << (c & 63)
		t.sharesValid = false
	}
}

// drainSpilled is drain for a FIFO on the heap: 0 < n ≤ length. Whole runs
// come off the deque; the FIFO returns to the ring if that left half a ring
// of runs that all fit; the rest of n comes off the front run where it lives.
func (t *queueTable) drainSpilled(c int, n int64) {
	t.addLength(c, -n)
	d := t.spills[c]
	head := d.head
	for n > 0 {
		take := max(d.runs[head], -d.runs[head])
		if take > n {
			break
		}
		n -= take
		head++
	}
	if head != d.head {
		d.head = head
		if live := d.runs[head:]; len(live) <= ringCap/2 {
			t.toRing(c, live)
		}
	}
	if n > 0 {
		v := t.run(c, 0)
		if v < 0 {
			n = -n
		}
		t.setRun(c, 0, v-n)
	}
}

// reclaimMagic removes every magic byte from queue c and returns how many
// there were. The real runs left behind coalesce into one.
func (t *queueTable) reclaimMagic(c int) int64 {
	t.sync(c)
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
