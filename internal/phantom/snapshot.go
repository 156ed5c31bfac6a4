package phantom

import (
	"bcpqp/internal/enforcer"
)

// snapVersion is the format version of PQP snapshot blobs. Bump it whenever
// the layout below changes; RestoreState rejects unknown versions.
const snapVersion = 1

// SnapshotState implements enforcer.Snapshotter. The blob captures the full
// admission state of the policer — phantom-queue FIFO segments (real and
// magic, in order, so a later magic reclaim removes exactly the not-yet-
// drained magic bytes), burst-control windows, the lazy-drain clock and
// fractional credit, per-class counters, aggregate statistics, and RED
// averages when the AQM extension is enabled.
//
// Configuration is deliberately NOT captured: blobs restore only into an
// enforcer constructed with the same Config, and RestoreState validates the
// structural fit (queue count, occupancy within the simulated buffer size,
// RED presence).
//
// Layout (little-endian, see enforcer.Enc):
//
//	u8   version (=1)
//	bool started
//	i64  lastDrain (ns)
//	f64  drainCredit
//	stats (4×i64)
//	u32  queue count (must equal cfg.Queues)
//	per queue:
//	    bool windowOpen, i64 windowStart (ns), i64 accepted
//	    4×i64 class counters
//	    u32 segment count; per segment: i64 bytes (>0), bool magic
//	bool RED present (must match cfg.RED != nil)
//	per queue when present: f64 avg, i64 count, u64 rng
//
// Derived state (queue lengths, the occupied mask, the share cache) is
// recomputed on restore rather than stored, so a blob cannot smuggle in an
// inconsistent occupancy. Writing the segments brings every queue's FIFO up
// to date first, which changes what the queues store though not what they
// mean: a snapshot is the owning goroutine's to take.
func (p *PQP) SnapshotState() ([]byte, error) {
	var e enforcer.Enc
	e.U8(snapVersion)
	e.Bool(p.started)
	e.Dur(p.lastDrain)
	e.F64(p.drainCredit)
	e.Stats(p.stats)
	e.U32(uint32(len(p.queues)))
	for i := range p.queues {
		q := &p.queues[i]
		e.Bool(q.open)
		e.Dur(q.windowStart)
		e.I64(q.accepted)
		e.I64(q.acceptedPackets)
		e.I64(q.acceptedBytes)
		e.I64(q.droppedPackets)
		e.I64(q.droppedBytes)
		p.sync(i)
		runs := p.numRuns(i)
		e.U32(uint32(runs))
		for r := 0; r < runs; r++ {
			v := p.run(i, r)
			e.I64(max(v, -v))
			e.Bool(v < 0)
		}
	}
	e.Bool(p.red != nil)
	for i := range p.red {
		e.F64(p.red[i].avg)
		e.I64(int64(p.red[i].count))
		e.U64(p.red[i].rng)
	}
	return e.Out(), nil
}

// RestoreState implements enforcer.Snapshotter. The receiver must be
// freshly constructed with the same Config the snapshot was taken under;
// mismatches (queue count, occupancy exceeding the simulated buffer, RED
// presence) are errors. On error the receiver is structurally intact but
// its partial state is unspecified — discard it.
func (p *PQP) RestoreState(data []byte) error {
	d := enforcer.NewDec(data)
	if v := d.U8(); d.Err() == nil && v != snapVersion {
		d.Fail("phantom: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	started := d.Bool()
	lastDrain := d.Dur()
	drainCredit := d.F64()
	if d.Err() == nil && (drainCredit < 0 || drainCredit >= 1) {
		d.Fail("phantom: drain credit %v outside [0,1)", drainCredit)
	}
	stats := d.Stats()
	if n := d.U32(); d.Err() == nil && int(n) != p.cfg.Queues {
		d.Fail("phantom: snapshot has %d queues, enforcer has %d", n, p.cfg.Queues)
	}
	if d.Err() != nil {
		return d.Err()
	}

	restored := newQueueTable(p.cfg.Queues)
	for i := range restored.queues {
		q := &restored.queues[i]
		q.open = d.Bool()
		q.windowStart = d.Dur()
		q.accepted = d.I64()
		q.acceptedPackets = d.I64()
		q.acceptedBytes = d.I64()
		q.droppedPackets = d.I64()
		q.droppedBytes = d.I64()
		if d.Err() == nil && (q.accepted < 0 || q.acceptedPackets < 0 || q.acceptedBytes < 0 ||
			q.droppedPackets < 0 || q.droppedBytes < 0) {
			d.Fail("phantom: negative counter in queue %d", i)
		}
		nseg := d.U32()
		for s := uint32(0); s < nseg && d.Err() == nil; s++ {
			bytes := d.I64()
			magic := d.Bool()
			if d.Err() != nil {
				break
			}
			if bytes <= 0 {
				d.Fail("phantom: non-positive segment of %d bytes in queue %d", bytes, i)
				break
			}
			if magic {
				bytes = -bytes
			}
			restored.pushRun(i, bytes)
			if q.length > p.cfg.QueueSize {
				d.Fail("phantom: queue %d occupancy %d exceeds simulated buffer %d",
					i, q.length, p.cfg.QueueSize)
				break
			}
		}
	}
	hasRED := d.Bool()
	if d.Err() == nil && hasRED != (p.red != nil) {
		d.Fail("phantom: snapshot RED presence %v does not match configuration %v",
			hasRED, p.red != nil)
	}
	red := make([]redState, len(p.red))
	for i := range red {
		red[i].avg = d.F64()
		red[i].count = int(d.I64())
		red[i].rng = d.U64()
		if d.Err() == nil && (red[i].avg < 0 || red[i].count < 0) {
			d.Fail("phantom: invalid RED state for queue %d", i)
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}

	restored.started = started
	p.queueTable = restored
	p.lastDrain = lastDrain
	p.drainCredit = drainCredit
	p.stats = stats
	if p.red != nil {
		p.red = red
	}
	// Derived state: the restored table built its occupied mask as the
	// runs went in and arrives with the share cache invalid.
	for i := range p.shares {
		p.shares[i] = 0
	}
	return nil
}

var _ enforcer.Snapshotter = (*PQP)(nil)
