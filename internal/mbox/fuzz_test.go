package mbox

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotDecode hardens the engine snapshot wire format against
// hostile input: Snapshot.UnmarshalBinary must never panic or allocate
// proportionally to a lying length prefix, must reject with ErrBadSnapshot,
// and any blob it accepts must hold distinct ids and be the canonical
// encoding of what it decoded (marshal of the decoded value gives back the
// very bytes). The seeds include one blob per way of being malformed, so
// tier-1 checks each is rejected: an accepted one would fail the canonical
// or distinct-id check.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with well-formed images of several shapes, so mutation starts
	// from deep inside the format rather than at the magic check.
	var blob []byte
	for _, s := range []*Snapshot{
		{},
		{Aggregates: []AggregateSnapshot{{ID: "a", State: []byte{1, 2, 3}}}},
		{Aggregates: []AggregateSnapshot{
			{ID: "sub-0", State: bytes.Repeat([]byte{0xab}, 64)},
			{ID: "sub-1", State: nil},
			{ID: "", State: []byte{0}},
		}},
	} {
		var err error
		if blob, err = s.MarshalBinary(); err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(snapshotMagic))
	// Malformed: empty, bad magic, truncated, a trailing byte, an unknown
	// version, and a duplicate aggregate id.
	f.Add([]byte{})
	f.Add(append([]byte("NOPE"), blob[4:]...))
	f.Add(blob[:len(blob)-3])
	f.Add(append(append([]byte{}, blob...), 0))
	f.Add(append([]byte(snapshotMagic), 0xff, 0xff, 0xff, 0xff))
	dup, err := (&Snapshot{Aggregates: []AggregateSnapshot{{ID: "x"}, {ID: "x"}}}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dup)

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if err := s.UnmarshalBinary(data); err != nil {
			// Rejected is fine; panicking, over-allocating or another
			// error kind is not.
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("rejected with %v, want ErrBadSnapshot", err)
			}
			return
		}
		seen := make(map[string]bool, len(s.Aggregates))
		for _, a := range s.Aggregates {
			if seen[a.ID] {
				t.Fatalf("accepted a duplicate aggregate id %q", a.ID)
			}
			seen[a.ID] = true
		}
		// Accepted input must be its own canonical encoding.
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %x, which re-encodes as %x", data, re)
		}
	})
}
