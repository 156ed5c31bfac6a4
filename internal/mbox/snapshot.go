// Warm-restart snapshots: Engine.Snapshot serializes every snapshottable
// aggregate's enforcer state (read in-band on its shard, so each blob is a
// consistent post-burst state), and Engine.Restore loads the blobs into a
// fresh engine whose aggregates were re-registered under the same ids. A
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

// SnapshotAggregate serializes one aggregate's enforcer state, read in-band
// on its shard (so it reflects every packet submitted before the call and
// no torn mid-burst state). ErrNoSnapshot when the enforcer does not
// implement enforcer.Snapshotter.
func (e *Engine) SnapshotAggregate(id string) ([]byte, error) {
	var blob []byte
	var snapErr error
	err := e.control(id, func(enf enforcer.Enforcer) {
		sn, ok := enf.(enforcer.Snapshotter)
		if !ok {
			snapErr = fmt.Errorf("mbox: aggregate %q (%T): %w", id, enf, ErrNoSnapshot)
			return
		}
		blob, snapErr = sn.SnapshotState()
	})
	if err != nil {
		return nil, err
	}
	return blob, snapErr
}

// RestoreAggregate loads a blob produced by SnapshotAggregate into an
// aggregate's enforcer, in-band on its shard. The enforcer must have the
// same configuration the blob was taken under; its RestoreState validates
// the fit.
func (e *Engine) RestoreAggregate(id string, state []byte) error {
	var restoreErr error
	err := e.control(id, func(enf enforcer.Enforcer) {
		sn, ok := enf.(enforcer.Snapshotter)
		if !ok {
			restoreErr = fmt.Errorf("mbox: aggregate %q (%T): %w", id, enf, ErrNoSnapshot)
			return
		}
		restoreErr = sn.RestoreState(state)
	})
	if err != nil {
		return err
	}
	return restoreErr
}

// Snapshot captures a warm-restart image of every snapshottable aggregate.
// Aggregates whose enforcers do not implement enforcer.Snapshotter are
// skipped (they restart cold); per-aggregate blobs are each internally
// consistent but the image is not a global cut — aggregates keep enforcing
// while others are being snapshotted, exactly as a live middlebox must.
// Aggregates added or removed concurrently may or may not appear.
func (e *Engine) Snapshot() (*Snapshot, error) {
	t := e.table.Load()
	if t.closed {
		return nil, fmt.Errorf("mbox: engine closed")
	}
	snap := &Snapshot{}
	for i := range t.slots {
		agg := t.slots[i].Load()
		if agg == nil {
			continue
		}
		if _, ok := agg.enf.(enforcer.Snapshotter); !ok {
			continue
		}
		var blob []byte
		var snapErr error
		err := e.controlAgg(agg, func(enf enforcer.Enforcer) {
			blob, snapErr = enf.(enforcer.Snapshotter).SnapshotState()
		})
		if err != nil {
			return nil, fmt.Errorf("mbox: snapshotting %q: %w", agg.id, err)
		}
		if snapErr != nil {
			return nil, fmt.Errorf("mbox: snapshotting %q: %w", agg.id, snapErr)
		}
		snap.Aggregates = append(snap.Aggregates, AggregateSnapshot{ID: agg.id, State: blob})
	}
	return snap, nil
}

// Restore loads a snapshot into the engine: every aggregate named in the
// snapshot must already be registered (under the same id, with an enforcer
// configured as at snapshot time) and is restored in-band on its shard.
// Registered aggregates absent from the snapshot are left as they are —
// they simply start cold. Restore stops at the first failure; aggregates
// restored before it keep their restored state.
func (e *Engine) Restore(s *Snapshot) error {
	for _, a := range s.Aggregates {
		if err := e.RestoreAggregate(a.ID, a.State); err != nil {
			return err
		}
	}
	return nil
}
