package cluster

import (
	"errors"
	"strings"
	"testing"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/units"
)

// handoffFrame is a handoff frame (type 2) as the earlier two-type wire of
// the same version encoded it: the report header, then an aggregate id and
// that aggregate's snapshot blob.
func handoffFrame(sender string) []byte {
	var e enforcer.Enc
	e.Bytes([]byte(frameMagic))
	e.U8(wireVersion)
	e.U8(2)
	e.Bytes([]byte(sender))
	e.U64(1) // epoch
	e.U64(7) // seq
	e.Bytes([]byte("tenant-9"))
	e.Bytes([]byte("BQSN-pretend-snapshot-blob"))
	return e.Out()
}

func sampleReport() ([]byte, string, uint64) {
	echoes := []echo{{Peer: "node-b", Epoch: 1700, Seq: 41}, {Peer: "node-c", Epoch: 1701, Seq: 39}}
	aggs := []aggReport{
		{ID: "tenant-1", Observed: 80e6, Applied: 90e6, Grants: []grant{
			{To: "node-b", Bps: 5e6}, {To: "node-c", Bps: 2.5e6},
		}},
		{ID: "tenant-2", Observed: 0, Applied: 33.3e6},
	}
	return encodeReport("node-a", 1699, 42, echoes, aggs), "node-a", 42
}

// TestWireReportRoundtrip: encode → decode is lossless.
func TestWireReportRoundtrip(t *testing.T) {
	frame, sender, seq := sampleReport()
	f, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Sender != sender || f.Epoch != 1699 || f.Seq != seq || f.Type != typeReport {
		t.Fatalf("header mismatch: %+v", f)
	}
	if len(f.Echoes) != 2 || f.Echoes[0] != (echo{Peer: "node-b", Epoch: 1700, Seq: 41}) {
		t.Fatalf("echoes: %+v", f.Echoes)
	}
	if len(f.Aggs) != 2 {
		t.Fatalf("aggs: %+v", f.Aggs)
	}
	a := f.Aggs[0]
	if a.ID != "tenant-1" || a.Observed != 80e6 || a.Applied != 90e6 ||
		len(a.Grants) != 2 || a.Grants[1] != (grant{To: "node-c", Bps: 2.5e6}) {
		t.Fatalf("agg 0: %+v", a)
	}
	if f.Aggs[1].Observed != 0 || len(f.Aggs[1].Grants) != 0 {
		t.Fatalf("agg 1: %+v", f.Aggs[1])
	}
}

// TestWireRejections: every malformation class rejects with errBadFrame
// and a nil frame — corruption must degrade to the silence path.
func TestWireRejections(t *testing.T) {
	good, _, _ := sampleReport()
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short magic", good[:3]},
		{"bad magic", append([]byte("\x04\x00\x00\x00XXXX"), good[8:]...)},
		{"version skew", func() []byte {
			f := append([]byte(nil), good...)
			f[8] = 99 // version byte follows the length-prefixed magic
			return f
		}()},
		{"unknown type", func() []byte {
			f := append([]byte(nil), good...)
			f[9] = 77
			return f
		}()},
		{"parent handoff (type 2)", handoffFrame("node-a")},
		{"truncated mid-agg", good[:len(good)-5]},
		{"trailing bytes", append(append([]byte(nil), good...), 0xde, 0xad)},
		{"oversized id", func() []byte {
			// Hand-rolled: encodeReport clamps IDs, so build a frame whose
			// sender id exceeds the cap directly.
			var e enforcer.Enc
			e.Bytes([]byte(frameMagic))
			e.U8(wireVersion)
			e.U8(typeReport)
			e.Bytes([]byte(strings.Repeat("x", maxIDLen+1)))
			e.U64(1) // epoch
			e.U64(1) // seq
			e.U8(0)
			e.U8(0)
			return e.Out()
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := decodeFrame(tc.frame)
			if err == nil {
				t.Fatalf("decoded successfully: %+v", f)
			}
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("error %v does not wrap ErrBadFrame", err)
			}
			if f != nil {
				t.Fatal("non-nil frame on error")
			}
		})
	}
}

// TestWireRejectsNegativeAndNaNRates: decodable frames with semantically
// poisonous values (negative shares, NaN) must also reject.
func TestWireRejectsNegativeAndNaNRates(t *testing.T) {
	neg := encodeReport("a", 1, 1, nil, []aggReport{{ID: "t", Observed: -5, Applied: 1}})
	if _, err := decodeFrame(neg); !errors.Is(err, errBadFrame) {
		t.Fatalf("negative observed accepted: %v", err)
	}
	negGrant := encodeReport("a", 1, 1, nil, []aggReport{{ID: "t", Grants: []grant{{To: "b", Bps: -1}}}})
	if _, err := decodeFrame(negGrant); !errors.Is(err, errBadFrame) {
		t.Fatalf("negative grant accepted: %v", err)
	}
	nan := encodeReport("a", 1, 1, nil, []aggReport{{ID: "t", Observed: units.Rate(nanRate())}})
	if _, err := decodeFrame(nan); err == nil {
		t.Fatal("NaN rate accepted")
	}
}

func nanRate() float64 {
	z := 0.0
	return z / z
}

// TestWireEmptySenderRejected: an ID-free frame cannot attribute state.
func TestWireEmptySenderRejected(t *testing.T) {
	if _, err := decodeFrame(encodeReport("", 1, 1, nil, nil)); !errors.Is(err, errBadFrame) {
		t.Fatalf("empty sender accepted: %v", err)
	}
}
