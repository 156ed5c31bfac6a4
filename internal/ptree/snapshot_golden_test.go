package ptree

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

// goldenBlob is SnapshotState of goldenTree after goldenTrace(0, goldenSteps),
// written by the commit before node state moved into one record per node
// (fourteen parallel slices, stored floor and ownAssured arrays). goldenAfter
// is what that commit's tree answered to the next 300 steps, which re-rate
// two nodes several times.
const (
	goldenSteps = 900
	goldenBlob  = "011905000000000000862e100000000000b103000000000000e2590e00000000000a00000000000000ffffffffffffffff00000000002bb740c8c1de19000000001905000000000000862e10000000000000000000000000000000000000000000320000000101c8c1de19000000000000000096c413411905000000000000862e1000000000000000000000000000000000000000000001000000000000000000000000000000dc7ffd40789fd819000000002202000000000000f90b07000000000000000000000000000000000000000000b30000000101409c00000000000000000000000000002202000000000000f90b070000000000000000000000000000000000000000000200000001706c47180000000039440000000000003c01000000000000502504000000000000000000000000000000000000000000010000005025040000000000000180925c18000000008431000000000000e600000000000000a9e60200000000000000000000000000000000000000000001000000a9e6020000000000000002000000000000000000000000000000804ff2c0c8c1de1900000000f7020000000000008d22090000000000e50200000000000037500b00000000003200000001011021e219000000000000000000698940f7020000000000008d2209000000000000000000000000000000000000000000030000000100000000000000000000000000934028efbf19000000002c01000000000000650504000000000000000000000000000000000000000000000000000400000001000000000000000000000040aedb40789fd81900000000f6000000000000009406030000000000cc00000000000000ab09030000000000320000000101789fd819000000000000000000d58240f6000000000000009406030000000000000000000000000000000000000000000500000002000000000000000000000098a4e140c8c1de1900000000b3000000000000001d13020000000000000000000000000000000000000000000000000006000000020000000000000000000000000000000000000000000000d600000000000000d993020000000000000000000000000000000000000000000000000007000000020000000000000000000000e85cd1c020bacf19000000006e01000000000000977b04000000000000000000000000000000000000000000000000000800000007000000000000000000000060b3c540e0baa0190000000095000000000000003ee00100000000000000000000000000000000000000000000000000090000000700000000000000000000000000000020bacf1900000000d900000000000000599b0200000000000000000000000000000000000000000000000000"
	goldenAfter = "010001111111100011111110011100001000111111100000000000000100100000111111110010110100000100010010110111100010111110011000000000111111100000000000000000000000011111110000011110001000010000001011100001011110000100000000111111101000000001011100000001111111100000000111001100010000111111100000101110001100000001111111100000000001111100000111111111100000000011010100001011111111100000000010111100011001111111100000000001011100000111111111100000000010001000011011111111100000000010111110011000111111100000000001011100000111111111100000000011001100001101101111100100111110111110011001110111100000000001011100000111111111100000000010010100001110110111100010111110111110011011011111100000000001011100000111111111100000000010001000001011111011100001011111111110"
)

// goldenTree has every kind of node the layout distinguishes: token-bucket
// and phantom ceilings, a ceiling on a leaf, an own-assured interior ledger,
// pooled interiors two deep, an explicit burst, and a leaf outside the
// assured layer.
func goldenTree() *Tree {
	return MustNew([]NodeSpec{
		{Name: "link", Parent: -1, Stage: newTBF(26 * units.Mbps)},
		{Parent: 0, Stage: newPQP(11*units.Mbps, 2), Assured: 10 * units.Mbps},
		{Parent: 0, Stage: newTBF(9 * units.Mbps)},
		{Parent: 1, Assured: 4 * units.Mbps},
		{Parent: 1, Assured: 4 * units.Mbps, Burst: 20 * units.MSS, Stage: newTBF(3 * units.Mbps)},
		{Parent: 2, Assured: 3 * units.Mbps},
		{Parent: 2},
		{Parent: 2, Burst: 12 * units.MSS},
		{Parent: 7, Assured: 2 * units.Mbps},
		{Parent: 7, Assured: 1 * units.Mbps},
	})
}

// goldenTrace offers steps i0 … i0+n-1 — single packets, bursts, a backward
// clock step every 41st step and, once the snapshot is taken (a snapshot
// carries no configuration), a re-rating about every 50th — and returns the
// verdicts, one digit each.
func goldenTrace(tr *Tree, now *time.Duration, i0, n int) string {
	leaves := tr.Leaves()
	var out []byte
	pkts := make([]packet.Packet, 12)
	verdicts := make([]enforcer.Verdict, 12)
	for i := i0; i < i0+n; i++ {
		*now += time.Duration(40+(i*7919)%900) * time.Microsecond
		if i%41 == 40 {
			*now -= 300 * time.Microsecond
		}
		switch {
		case i < goldenSteps:
		case i%97 == 50:
			if err := tr.SetNodeAssured(*now, 5, units.Rate(2+i%5)*units.Mbps); err != nil {
				panic(err)
			}
		case i%97 == 75:
			if err := tr.SetNodeRate(*now, 2, units.Rate(10+i%7)*units.Mbps); err != nil {
				panic(err)
			}
		}
		leaf := leaves[(i*5/3)%len(leaves)]
		if i%3 != 0 {
			out = append(out, '0'+byte(tr.SubmitAt(*now, leaf, pkt(i%4, 200+(i*613)%1300))))
			continue
		}
		burst := pkts[:1+(i*31)%len(pkts)]
		for k := range burst {
			burst[k] = pkt(k%4, 300+((i+k)*389)%1200)
		}
		tr.SubmitBatchAt(*now, leaf, burst, verdicts)
		for _, v := range verdicts[:len(burst)] {
			out = append(out, '0'+byte(v))
		}
	}
	return string(out)
}

// TestTreeSnapshotGolden checks the wire format against the previous layout
// in both directions: this layout writes, byte for byte, the snapshot the old
// one wrote for the same trace, and a snapshot the old one wrote restores
// here into a tree that carries on exactly as the old one did.
func TestTreeSnapshotGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenBlob)
	if err != nil {
		t.Fatal(err)
	}
	tr := goldenTree()
	var now time.Duration
	goldenTrace(tr, &now, 0, goldenSteps)
	got, err := tr.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot after the golden trace differs from the previous layout's:\n got %x\nwant %x", got, want)
	}

	restored := goldenTree()
	if err := restored.RestoreState(want); err != nil {
		t.Fatalf("previous layout's snapshot rejected: %v", err)
	}
	if again, _ := restored.SnapshotState(); !bytes.Equal(again, want) {
		t.Fatal("restored tree re-snapshots differently")
	}
	if got := goldenTrace(restored, &now, goldenSteps, 300); got != goldenAfter {
		t.Fatalf("verdicts after restore differ from the previous layout's:\n got %s\nwant %s", got, goldenAfter)
	}
}
