// Warm-restart snapshots: Engine.Snapshot serializes the named aggregates'
// enforcer state, or every snapshottable aggregate's (read in-band on its
// shard, so each blob is a consistent post-burst state), and Engine.Restore
// loads the blobs into an engine whose aggregates were registered under the
// same ids — a restarted process, or a cluster peer taking a handoff. A
// restarted proxy that restores its snapshot resumes enforcement with the
// phantom occupancy, burst-control windows and token levels it had at
// snapshot time — instead of starting empty and re-admitting a slow-start
// burst storm, restart-synchronized across every subscriber at once.
package mbox

import (
	"errors"
	"fmt"

	"bcpqp/internal/enforcer"
)

// Engine-level snapshot framing.
const (
	snapshotMagic   = "BQSN"
	snapshotVersion = 1
)

// ErrNoSnapshot reports that an aggregate's enforcer does not implement
// enforcer.Snapshotter. Test with errors.Is.
var ErrNoSnapshot = errors.New("enforcer is not snapshottable")

// ErrBadSnapshot reports an engine snapshot blob that is not a valid
// BQSN-framed snapshot (wrong magic, unknown version, or corrupt framing).
// Test with errors.Is.
var ErrBadSnapshot = errors.New("invalid engine snapshot")

// AggregateSnapshot is one aggregate's serialized enforcer state.
type AggregateSnapshot struct {
	// ID is the aggregate id the state belongs to.
	ID string
	// State is the enforcer's versioned blob (enforcer.Snapshotter).
	State []byte
}

// Snapshot is a warm-restart image of an engine's enforcement state.
type Snapshot struct {
	Aggregates []AggregateSnapshot
}

// MarshalBinary implements encoding.BinaryMarshaler with a versioned
// little-endian framing:
//
//	4 bytes magic "BQSN"
//	u32 version (=1)
//	u32 aggregate count
//	per aggregate: length-prefixed id, length-prefixed state blob
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	var enc enforcer.Enc
	for _, c := range []byte(snapshotMagic) {
		enc.U8(c)
	}
	enc.U32(snapshotVersion)
	enc.U32(uint32(len(s.Aggregates)))
	for _, a := range s.Aggregates {
		enc.Bytes([]byte(a.ID))
		enc.Bytes(a.State)
	}
	return enc.Out(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decode is
// fuzz-hardened: truncated input, hostile length prefixes and trailing
// garbage all produce errors, never panics or large speculative
// allocations.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	d := enforcer.NewDec(data)
	var magic [4]byte
	for i := range magic {
		magic[i] = d.U8()
	}
	if d.Err() == nil && string(magic[:]) != snapshotMagic {
		return fmt.Errorf("mbox: %w: bad magic %q", ErrBadSnapshot, magic[:])
	}
	if v := d.U32(); d.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("mbox: %w: unsupported version %d (want %d)", ErrBadSnapshot, v, snapshotVersion)
	}
	n := d.U32()
	if d.Err() != nil {
		return fmt.Errorf("mbox: %w: %v", ErrBadSnapshot, d.Err())
	}
	// Entries are appended as they decode; a hostile count cannot drive a
	// large allocation because every entry consumes at least 8 bytes of
	// input (two length prefixes) and the decoder fails on underflow.
	aggs := make([]AggregateSnapshot, 0, min(int(n), len(data)/8))
	seen := make(map[string]bool, cap(aggs))
	for i := uint32(0); i < n; i++ {
		id := string(d.Bytes())
		state := d.Bytes()
		if d.Err() != nil {
			return fmt.Errorf("mbox: %w: entry %d: %v", ErrBadSnapshot, i, d.Err())
		}
		if seen[id] {
			return fmt.Errorf("mbox: %w: duplicate aggregate %q", ErrBadSnapshot, id)
		}
		seen[id] = true
		// Copy the state out of the shared input buffer so the snapshot
		// owns its memory.
		aggs = append(aggs, AggregateSnapshot{ID: id, State: append([]byte(nil), state...)})
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("mbox: %w: %v", ErrBadSnapshot, err)
	}
	s.Aggregates = aggs
	return nil
}

// Snapshot captures a warm-restart image of the aggregates named in ids, or,
// with no ids, of every snapshottable aggregate — those whose enforcers do
// not implement enforcer.Snapshotter are then skipped and restart cold. A
// named aggregate that is unknown reports an error, and one that cannot be
// snapshotted ErrNoSnapshot. Each blob is read in-band on the aggregate's
// shard, so it reflects every packet submitted before the call and no torn
// mid-burst state; the image is not a global cut — aggregates keep enforcing
// while others are being snapshotted, exactly as a live middlebox must.
// Aggregates added or removed concurrently may or may not appear in an
// image of everything.
func (e *Engine) Snapshot(ids ...string) (*Snapshot, error) {
	var aggs []*aggregate
	for _, id := range ids {
		agg, err := e.aggByID(id)
		if err != nil {
			return nil, err
		}
		aggs = append(aggs, agg)
	}
	if len(ids) == 0 {
		t := e.table.Load()
		if t.closed {
			return nil, fmt.Errorf("mbox: engine closed")
		}
		for i := range t.slots {
			if agg := t.slots[i].Load(); agg != nil {
				if _, ok := agg.enf.(enforcer.Snapshotter); ok {
					aggs = append(aggs, agg)
				}
			}
		}
	}
	snap := &Snapshot{}
	for _, agg := range aggs {
		var blob []byte
		snapErr := e.snapshotter(agg, func(sn enforcer.Snapshotter) (err error) {
			blob, err = sn.SnapshotState()
			return err
		})
		if snapErr != nil {
			return nil, fmt.Errorf("mbox: snapshotting %q: %w", agg.id, snapErr)
		}
		snap.Aggregates = append(snap.Aggregates, AggregateSnapshot{ID: agg.id, State: blob})
	}
	return snap, nil
}

// Restore loads a snapshot into the engine: every aggregate named in the
// snapshot must already be registered (under the same id, with an enforcer
// configured as at snapshot time, whose RestoreState validates the fit) and
// is restored in-band on its shard. Registered aggregates absent from the
// snapshot are left as they are — they simply start cold. Restore stops at
// the first failure; aggregates restored before it keep their restored
// state.
func (e *Engine) Restore(s *Snapshot) error {
	for _, a := range s.Aggregates {
		agg, err := e.aggByID(a.ID)
		if err == nil {
			err = e.snapshotter(agg, func(sn enforcer.Snapshotter) error { return sn.RestoreState(a.State) })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshotter runs fn on agg's enforcer, in-band on its shard; ErrNoSnapshot
// when the enforcer is not an enforcer.Snapshotter. A control error wins
// over fn's.
func (e *Engine) snapshotter(agg *aggregate, fn func(enforcer.Snapshotter) error) error {
	var fnErr error
	if err := e.controlAgg(agg, func(enf enforcer.Enforcer) {
		sn, ok := enf.(enforcer.Snapshotter)
		if !ok {
			fnErr = fmt.Errorf("mbox: aggregate %q (%T): %w", agg.id, enf, ErrNoSnapshot)
			return
		}
		fnErr = fn(sn)
	}); err != nil {
		return err
	}
	return fnErr
}
