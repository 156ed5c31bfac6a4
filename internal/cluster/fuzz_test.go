package cluster

import (
	"math"
	"strings"
	"testing"

	"bcpqp/internal/units"
)

// FuzzDecodeFrame hardens the budget-exchange wire decoder against hostile
// and corrupted input: decodeFrame must never panic, never allocate
// proportionally to a lying length prefix, and anything it accepts must
// re-encode to a frame that decodes to the same value (the canonical
// roundtrip property). Rejection is always fine — the protocol treats a
// rejected frame as silence and falls back to the static share.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with well-formed reports so mutation starts deep inside the
	// format rather than dying at the magic check, two of them at the
	// decoder's edges: every ID at maxIDLen, and rates at the finite limits
	// (one bit flip from +Inf or a negative rate).
	f.Add(encodeReport("node-a", 1, 1, nil, nil))
	f.Add(encodeReport("node-a", 1700, 42,
		[]echo{{Peer: "node-b", Epoch: 9, Seq: 41}, {Peer: "node-c", Epoch: 8, Seq: 40}},
		[]aggReport{
			{ID: "tenant-1", Observed: 80e6, Applied: 90e6,
				Grants: []grant{{To: "node-b", Bps: 5e6}}},
			{ID: "tenant-2", Observed: 1, Applied: 2},
		}))
	long := strings.Repeat("x", maxIDLen)
	f.Add(encodeReport(long, 1, 2, []echo{{Peer: long, Epoch: 3, Seq: 4}},
		[]aggReport{{ID: long, Grants: []grant{{To: long, Bps: 1}}}}))
	f.Add(encodeReport("node-a", math.MaxUint64, math.MaxUint64, nil,
		[]aggReport{{ID: "t", Observed: math.MaxFloat64, Applied: 0,
			Grants: []grant{{To: "node-b", Bps: math.SmallestNonzeroFloat64}}}}))
	f.Add([]byte(frameMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			if fr != nil {
				t.Fatal("non-nil frame alongside an error")
			}
			return
		}
		// Structural invariants of anything the decoder accepts.
		if fr.Sender == "" || len(fr.Sender) > maxIDLen {
			t.Fatalf("accepted sender %q", fr.Sender)
		}
		for _, a := range fr.Aggs {
			if a.ID == "" || len(a.ID) > maxIDLen {
				t.Fatalf("accepted aggregate id %q", a.ID)
			}
			if a.Observed < 0 || a.Applied < 0 || a.Observed != a.Observed || a.Applied != a.Applied {
				t.Fatalf("accepted poisonous rates %v/%v", a.Observed, a.Applied)
			}
			for _, g := range a.Grants {
				if g.To == "" || g.Bps < 0 || g.Bps != g.Bps {
					t.Fatalf("accepted poisonous grant %+v", g)
				}
			}
		}
		// Accepted frames must roundtrip canonically.
		if fr.Type != typeReport {
			t.Fatalf("accepted unknown type %d", fr.Type)
		}
		fr2, err := decodeFrame(encodeReport(fr.Sender, fr.Epoch, fr.Seq, fr.Echoes, fr.Aggs))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !framesEqual(fr, fr2) {
			t.Fatalf("roundtrip mismatch:\n%+v\n%+v", fr, fr2)
		}
	})
}

func framesEqual(a, b *frame) bool {
	if a.Type != b.Type || a.Sender != b.Sender || a.Epoch != b.Epoch || a.Seq != b.Seq ||
		len(a.Echoes) != len(b.Echoes) || len(a.Aggs) != len(b.Aggs) {
		return false
	}
	for i := range a.Echoes {
		if a.Echoes[i] != b.Echoes[i] {
			return false
		}
	}
	for i := range a.Aggs {
		x, y := a.Aggs[i], b.Aggs[i]
		if x.ID != y.ID || !rateEq(x.Observed, y.Observed) || !rateEq(x.Applied, y.Applied) ||
			len(x.Grants) != len(y.Grants) {
			return false
		}
		for j := range x.Grants {
			if x.Grants[j].To != y.Grants[j].To || !rateEq(x.Grants[j].Bps, y.Grants[j].Bps) {
				return false
			}
		}
	}
	return true
}

// rateEq compares wire rates bit-exactly (F64 encoding is lossless; ±0
// both decode as valid and re-encode identically).
func rateEq(a, b units.Rate) bool { return a == b }
