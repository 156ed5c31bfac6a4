package phantom

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"bcpqp/internal/packet"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// goldenBlob is SnapshotState after goldenTrace(0, 700) in the
// clock-relative version-2 layout, regenerated once from the version-1 blob
// the commit before the per-queue state was flattened (segment deques,
// maintained magic counters) wrote: the same state with the drain clock and
// window starts as ages instead of instants. Queue 0 holds 4 runs with
// 20,230 magic bytes, queue 3 holds 6 with 39,674, and RED is mid-average on
// all four. The enforcer that wrote it ran goldenPQP's configuration with a
// 50 ms window and a one-MSS drain batch, which cannot be built since T and
// the drain batch became constants; a blob carries no configuration, so it
// pins the read direction: it restores into goldenPQP and snapshots again
// byte for byte.
//
// goldenWritten is what goldenPQP writes after the same trace, at T =
// 100 ms and a 4 MSS drain batch, and goldenAfter is what goldenPQP restored
// from goldenBlob answers to the next 300 packets.
const (
	goldenBlob    = "0201d06006000000000000b0ffffffffdf3fae010000000000004fa30400000000000e0100000000000067750400000000000400000001902ae90100000000af0b0000000000004f0000000000000061b000000000000060000000000000000da0010000000000040000007b4c000000000000018e02000000000000008b0200000000000001d2960000000000000001d8c0ce01000000003e180000000000007f00000000000000cb5c010000000000310000000000000041e00000000000000100000060ea00000000000000016893a801000000002b19000000000000ae00000000000000da3a0200000000000000000000000000000000000000000001000000424c0000000000000001f0b30e020000000018060000000000003200000000000000495b0000000000007d0000000000000019f501000000000006000000ed99000000000000012f0200000000000000ed0000000000000001fa01000000000000002000000000000000016449000000000000000171d46e91635dd04000000000000000009364097b125484531fc74877f792cf400000000000000000a9e053facbcdbbf1dd7be46f16fba7400000000000000000bd5c9e798547f38f6333a7728ed5d0400000000000000000d3d8e8f83ec12a2e"
	goldenWritten = "020168667700000000000000000000000000a50100000000000039c804000000000017010000000000007d50040000000000040000000158893502000000008f0d0000000000004a0000000000000094bc0000000000006500000000000000da930100000000000a000000ee5200000000000001d20000000000000000e102000000000000016e0200000000000000340100000000000001240200000000000000ae0100000000000001390200000000000000840100000000000001a68700000000000000014842640200000000af170000000000007c00000000000000f06a01000000000034000000000000001cd200000000000001000000f0e6000000000000000160c1e60100000000ba1d000000000000ae00000000000000da3a0200000000000000000000000000000000000000000001000000e6520000000000000001f0b30e0200000000b7040000000000003100000000000000db650000000000007e0000000000000087ea0100000000000c000000ff9a00000000000001e501000000000000001c00000000000000018103000000000000002c0000000000000001c501000000000000000b0000000000000001da01000000000000000e0000000000000001a5010000000000000038000000000000000171420000000000000001727595e07c02d04000000000000000009364097b12548453822dfd120b35cd400000000000000000a9e053facbcdbbf17892da408f58aa400000000000000000bd5c9e798547f38fcdf54ea9d8b3d0400000000000000000d3d8e8f83ec12a2e"
	goldenAfter   = "010111101111000000001111010101100000010111101111000000001011010111000000010111100010010010101110010101000100010001001011010110100011010101101100000110101010000001001110010111000000010111101110000001001101010101000010000110101010000001101000000101001111000001101010000111001001010101001010000111101010"
)

func goldenPQP() *PQP {
	return MustNew(Config{
		Rate:         4 * units.Mbps,
		Queues:       4,
		QueueSize:    40 * units.MSS,
		Policy:       sched.WeightedFair(1, 2, 3, 0.5),
		BurstControl: true,
		RED:          &REDConfig{MinBytes: 30 * units.MSS, MaxBytes: 39 * units.MSS, Seed: 7},
	})
}

// goldenTrace offers n packets from step i0 and returns the verdicts, one
// digit each.
func goldenTrace(p *PQP, now *time.Duration, i0, n int) string {
	out := make([]byte, 0, n)
	for i := i0; i < i0+n; i++ {
		*now += time.Duration(37+(i*7919)%1500) * time.Microsecond
		v := p.Submit(*now, packet.Packet{Class: (i * 5 / 3) % 4, Size: 200 + (i*613)%1300})
		out = append(out, '0'+byte(v))
	}
	return string(out)
}

// TestSnapshotGolden pins the wire format in both directions: goldenPQP
// writes goldenWritten byte for byte for the golden trace, and the older
// goldenBlob restores into it, snapshots again unchanged, and carries on as
// goldenAfter records.
func TestSnapshotGolden(t *testing.T) {
	p := goldenPQP()
	var now time.Duration
	goldenTrace(p, &now, 0, 700)
	got, err := p.SnapshotState(now)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := hex.DecodeString(goldenWritten); !bytes.Equal(got, want) {
		t.Fatalf("snapshot after the golden trace differs from the recorded one:\n got %x\nwant %x", got, want)
	}

	want, err := hex.DecodeString(goldenBlob)
	if err != nil {
		t.Fatal(err)
	}
	restored := goldenPQP()
	if err := restored.RestoreState(now, want); err != nil {
		t.Fatalf("previous layout's snapshot rejected: %v", err)
	}
	if m0, m3 := restored.MagicBytes(0), restored.MagicBytes(3); m0 != 20230 || m3 != 39674 {
		t.Fatalf("restored magic bytes %d and %d, want 20230 and 39674", m0, m3)
	}
	if again, _ := restored.SnapshotState(now); !bytes.Equal(again, want) {
		t.Fatal("restored enforcer re-snapshots differently")
	}
	if got := goldenTrace(restored, &now, 700, 300); got != goldenAfter {
		t.Fatalf("verdicts after restore differ from the recorded ones:\n got %s\nwant %s", got, goldenAfter)
	}
}
