package phantom

import (
	"testing"
	"time"

	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

// FuzzRestoreState hardens the warm-restart decode path: arbitrary bytes
// fed to RestoreState must either be rejected with an error or produce a
// fully functional enforcer whose invariants hold and whose own snapshot
// round-trips. It must never panic, and a hostile blob must never
// materialize state exceeding the receiver's configured queue bounds. Rate
// and clock steps are a twentieth and twenty times those of the 5 ms window
// the seeds were first traced under, so at T = 100 ms they hold the same
// bytes.
func FuzzRestoreState(f *testing.F) {
	mk := func() *PQP {
		return MustNew(Config{
			Rate:         400 * units.Kbps,
			Queues:       3,
			QueueSize:    30 * units.MSS,
			BurstControl: true,
		})
	}

	// Seed with genuine snapshots at several points of a trace, so the
	// fuzzer mutates realistic images instead of rediscovering the format.
	seedSrc := mk()
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += time.Millisecond
		seedSrc.Submit(now, packet.Packet{
			Key:   packet.FlowKey{SrcPort: uint16(i % 5)},
			Class: i % 3,
			Size:  units.MSS,
		})
		if i%60 == 0 {
			blob, err := seedSrc.SnapshotState(now)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{1})

	f.Fuzz(func(t *testing.T, data []byte) {
		q := mk()
		at := 10 * time.Second
		if err := q.RestoreState(at, data); err != nil {
			return // rejection is the expected path for hostile input
		}
		// Accepted state must respect the receiver's structural bounds...
		for c := 0; c < 3; c++ {
			l, m := q.QueueLength(c), q.MagicBytes(c)
			if l < 0 || m < 0 || m > l || l > 30*units.MSS {
				t.Fatalf("restored state violates queue invariants: class %d len %d magic %d", c, l, m)
			}
		}
		// ...still enforce without panicking...
		for i := 0; i < 50; i++ {
			at += 2 * time.Millisecond
			q.Submit(at, packet.Packet{Class: i % 3, Size: units.MSS})
		}
		// ...and snapshot its own state into a blob a twin accepts.
		blob, err := q.SnapshotState(at)
		if err != nil {
			t.Fatalf("snapshot after accepted restore failed: %v", err)
		}
		if err := mk().RestoreState(at, blob); err != nil {
			t.Fatalf("twin rejected re-snapshot of accepted state: %v", err)
		}
	})
}
