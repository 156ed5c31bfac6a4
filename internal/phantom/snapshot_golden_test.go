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

// goldenBlob is SnapshotState of goldenPQP after goldenTrace(0, 700), written
// by the commit before the per-queue state was flattened (segment deques,
// maintained magic counters): queue 0 then held 4 runs with 20,230 magic
// bytes, queue 3 held 6 with 39,674, and RED was mid-average on all four.
// goldenAfter is what that commit's enforcer answered to the next 300
// packets.
const (
	goldenBlob  = "01010083b6200000000000b0ffffffffdf3fae010000000000004fa30400000000000e010000000000006775040000000000040000000140b9d31e00000000af0b0000000000004f0000000000000061b000000000000060000000000000000da0010000000000040000007b4c000000000000018e02000000000000008b0200000000000001d2960000000000000001f822ee1e000000003e180000000000007f00000000000000cb5c010000000000310000000000000041e00000000000000100000060ea00000000000000016850141f000000002b19000000000000ae00000000000000da3a0200000000000000000000000000000000000000000001000000424c0000000000000001e02fae1e0000000018060000000000003200000000000000495b0000000000007d0000000000000019f501000000000006000000ed99000000000000012f0200000000000000ed0000000000000001fa01000000000000002000000000000000016449000000000000000171d46e91635dd04000000000000000009364097b125484531fc74877f792cf400000000000000000a9e053facbcdbbf1dd7be46f16fba7400000000000000000bd5c9e798547f38f6333a7728ed5d0400000000000000000d3d8e8f83ec12a2e"
	goldenAfter = "010111101011000000001111010101000001010101101011000010001011010101000100010110101010000001001110010101000101010101101010000010001111010101000000010001100010000011101111010101000000000011101010000001001011010101000010010011100010010001100111010101000010010001101010000101000101010101001010000000101010"
)

func goldenPQP() *PQP {
	return MustNew(Config{
		Rate:         4 * units.Mbps,
		Queues:       4,
		QueueSize:    40 * units.MSS,
		Policy:       sched.WeightedFair(1, 2, 3, 0.5),
		BurstControl: true,
		Window:       50 * time.Millisecond,
		DrainBatch:   units.MSS,
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

// TestSnapshotGolden checks the wire format against the previous layout in
// both directions: this layout writes, byte for byte, the snapshot the old
// one wrote for the same trace, and a snapshot the old one wrote restores
// here into an enforcer that carries on exactly as the old one did.
func TestSnapshotGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenBlob)
	if err != nil {
		t.Fatal(err)
	}
	p := goldenPQP()
	var now time.Duration
	goldenTrace(p, &now, 0, 700)
	got, err := p.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot after the golden trace differs from the previous layout's:\n got %x\nwant %x", got, want)
	}

	restored := goldenPQP()
	if err := restored.RestoreState(want); err != nil {
		t.Fatalf("previous layout's snapshot rejected: %v", err)
	}
	if m0, m3 := restored.MagicBytes(0), restored.MagicBytes(3); m0 != 20230 || m3 != 39674 {
		t.Fatalf("restored magic bytes %d and %d, want 20230 and 39674", m0, m3)
	}
	if again, _ := restored.SnapshotState(); !bytes.Equal(again, want) {
		t.Fatal("restored enforcer re-snapshots differently")
	}
	if got := goldenTrace(restored, &now, 700, 300); got != goldenAfter {
		t.Fatalf("verdicts after restore differ from the previous layout's:\n got %s\nwant %s", got, goldenAfter)
	}
}
