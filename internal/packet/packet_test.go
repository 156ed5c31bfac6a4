package packet

import (
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	k := FlowKey{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: 6}
	if k.hash() != k.hash() {
		t.Error("hash not deterministic")
	}
}

func TestHashSensitivity(t *testing.T) {
	base := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 5}
	variants := []FlowKey{
		{SrcIP: 2, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 5},
		{SrcIP: 1, DstIP: 3, SrcPort: 3, DstPort: 4, Proto: 5},
		{SrcIP: 1, DstIP: 2, SrcPort: 4, DstPort: 4, Proto: 5},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 5, Proto: 5},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6},
	}
	h := base.hash()
	for i, v := range variants {
		if v.hash() == h {
			t.Errorf("variant %d collides with base", i)
		}
	}
}

func TestClassInRange(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, n uint8) bool {
		k := FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: 6}
		queues := int(n%63) + 1
		c := k.Class(queues)
		return c >= 0 && c < queues
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassSingleQueue(t *testing.T) {
	k := FlowKey{SrcIP: 99}
	if k.Class(1) != 0 || k.Class(0) != 0 {
		t.Error("degenerate queue counts should map to class 0")
	}
}

func TestClassDistribution(t *testing.T) {
	const queues = 16
	counts := make([]int, queues)
	for i := 0; i < 4096; i++ {
		k := FlowKey{SrcIP: uint32(i), DstIP: 2, SrcPort: uint16(i * 7), DstPort: 443, Proto: 6}
		counts[k.Class(queues)]++
	}
	// Each bucket should get a reasonable share (expected 256).
	for i, c := range counts {
		if c < 128 || c > 512 {
			t.Errorf("queue %d got %d of 4096 flows; hash badly skewed", i, c)
		}
	}
}

func TestPacketClassOverride(t *testing.T) {
	p := Packet{Key: FlowKey{SrcIP: 7}, Class: 3}
	if got := p.ClassIn(8); got != 3 {
		t.Errorf("explicit class ignored: got %d", got)
	}
	p.Class = NoClass
	if got := p.ClassIn(8); got != p.Key.Class(8) {
		t.Errorf("NoClass should hash: got %d want %d", got, p.Key.Class(8))
	}
	// Out-of-range explicit class falls back to hashing.
	p.Class = 99
	if got := p.ClassIn(8); got != p.Key.Class(8) {
		t.Errorf("out-of-range class should hash: got %d", got)
	}
}

func TestKeyString(t *testing.T) {
	k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	if k.String() == "" {
		t.Error("empty String()")
	}
}
