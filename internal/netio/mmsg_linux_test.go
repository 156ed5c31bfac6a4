//go:build linux && (amd64 || arm64)

package netio

import (
	"bytes"
	"errors"
	"math/rand"
	"syscall"
	"testing"
	"time"
)

// loopPair opens a listening and a dialed Conn over loopback, Batch 128, the
// listener with the largest receive buffer the host allows so that no flush
// in these tests can overrun it.
func loopPair(t *testing.T, force bool) (rx, tx *Conn) {
	t.Helper()
	cfg := Config{Batch: 128, ForceSingle: force}
	rx, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen(force=%v): %v", force, err)
	}
	t.Cleanup(func() { rx.Close() })
	if err := rx.pc.SetReadBuffer(1 << 20); err != nil {
		t.Fatalf("SetReadBuffer: %v", err)
	}
	tx, err = Dial(rx.LocalAddr().String(), cfg)
	if err != nil {
		t.Fatalf("Dial(force=%v): %v", force, err)
	}
	t.Cleanup(func() { tx.Close() })
	return rx, tx
}

// datagrams builds one payload per length, each filled from rng so that a
// datagram delivered with a neighbour's bytes, or cut at the wrong place,
// cannot compare equal.
func datagrams(rng *rand.Rand, lens []int) [][]byte {
	out := make([][]byte, len(lens))
	for i, l := range lens {
		out[i] = make([]byte, l)
		rng.Read(out[i])
	}
	return out
}

// flush sends one burst and returns how many datagrams FlushTx failed and
// its error.
func flush(t *testing.T, tx *Conn, burst [][]byte) (int, error) {
	t.Helper()
	for i, p := range burst {
		if !tx.QueueTx(p) {
			t.Fatalf("QueueTx refused datagram %d of %d", i, len(burst))
		}
	}
	err := tx.FlushTx()
	return tx.FailedTx(), err
}

// collect receives k datagrams and returns copies of them in arrival order.
func collect(t *testing.T, rx *Conn, k int) [][]byte {
	t.Helper()
	rx.SetReadDeadline(time.Now().Add(2 * time.Second))
	var got [][]byte
	for len(got) < k {
		n, err := rx.RecvBatch()
		if err != nil {
			t.Fatalf("RecvBatch after %d of %d datagrams: %v", len(got), k, err)
		}
		for i := 0; i < n; i++ {
			got = append(got, bytes.Clone(rx.Payload(i)))
		}
	}
	return got
}

func sameDatagrams(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func lengths(ps [][]byte) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = len(p)
	}
	return out
}

func repeat(l, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = l
	}
	return out
}

// randomBurst draws up to 64 lengths as runs from a small palette, some runs
// closed by a shorter datagram: the shape real relay traffic has, with the
// edges (empty, one byte, MTU-sized) over-represented.
func randomBurst(rng *rand.Rand) []int {
	palette := []int{0, 1, 64, 64, 200, 1200, 1400}
	var out []int
	for k := 1 + rng.Intn(64); len(out) < k; {
		l := palette[rng.Intn(len(palette))]
		out = append(out, repeat(l, 1+rng.Intn(12))...)
		if l > 1 && rng.Intn(3) == 0 {
			out = append(out, rng.Intn(l))
		}
	}
	return out[:min(len(out), 64)]
}

// TestSegmentedMatchesFallback is the differential the segmentation offload
// answers to: whatever lengths are queued, the batched backend delivers the
// byte sequences, boundaries and order the fallback's one Write per datagram
// does — and, on the shapes whose grouping is written down here, in exactly
// the messages the grouping rule says.
func TestSegmentedMatchesFallback(t *testing.T) {
	type burstCase struct {
		name string
		lens []int
		msgs int64 // kernel messages expected of the batched backend; 0 = unchecked
	}
	cases := []burstCase{
		{"past the 64-segment cap", repeat(64, 100), 2},
		{"past 65,507 bytes", repeat(1400, 60), 2},
		{"shorter one closes the run", []int{200, 200, 200, 120, 200, 200, 200}, 2},
		{"empty ones between equal ones", []int{100, 100, 0, 100, 100, 0, 0, 100}, 6},
		{"longer after shorter", []int{50, 50, 80, 80, 80, 100}, 3},
		{"nothing to group", []int{1, 2, 3, 4}, 4},
	}
	for seed := int64(1); seed <= 40; seed++ {
		cases = append(cases, burstCase{"seeded", randomBurst(rand.New(rand.NewSource(seed))), 0})
	}

	frx, ftx := loopPair(t, true)
	brx, btx := loopPair(t, false)
	rng := rand.New(rand.NewSource(22))
	for _, tc := range cases {
		burst := datagrams(rng, tc.lens)
		before := btx.TxStats()
		for _, tx := range []*Conn{ftx, btx} {
			if failed, err := flush(t, tx, burst); err != nil || failed != 0 {
				t.Fatalf("%s %v: FlushTx = %v with %d failed", tc.name, tc.lens, err, failed)
			}
		}
		want, got := collect(t, frx, len(burst)), collect(t, brx, len(burst))
		if !sameDatagrams(want, burst) {
			t.Fatalf("%s %v: the fallback delivered lengths %v", tc.name, tc.lens, lengths(want))
		}
		if !sameDatagrams(got, want) {
			t.Fatalf("%s %v: the batched backend delivered lengths %v", tc.name, tc.lens, lengths(got))
		}
		st := btx.TxStats()
		if d := st.Datagrams - before.Datagrams; d != int64(len(burst)) {
			t.Errorf("%s: TxStats counted %d datagrams, want %d", tc.name, d, len(burst))
		}
		if m := st.Messages - before.Messages; tc.msgs != 0 && m != tc.msgs {
			t.Errorf("%s %v: left in %d kernel messages, want %d", tc.name, tc.lens, m, tc.msgs)
		}
		if c := st.Calls - before.Calls; c != 1 {
			t.Errorf("%s: %d sendmmsg calls, want 1", tc.name, c)
		}
	}
	if !btx.SegmentOffload() {
		t.Errorf("loopback refused segmentation offload")
	}
	if st := ftx.TxStats(); st.Datagrams != st.Messages || st.Messages != st.Calls {
		t.Errorf("fallback TxStats %+v, want three equal counts", st)
	}
}

// TestGroupedRefusalCostsOneDatagram: an errno on a segmented message in the
// middle of a flush — a sendmmsg that stopped short of it, then reported it —
// costs that message's first datagram and nothing else.
func TestGroupedRefusalCostsOneDatagram(t *testing.T) {
	rx, tx := loopPair(t, false)
	lens := append(append(repeat(64, 4), repeat(100, 4)...), repeat(64, 4)...)
	burst := datagrams(rand.New(rand.NewSource(3)), lens)
	tx.be.(*mmsgBackend).failTx = func(at, segs, segLen int) syscall.Errno {
		if at == 4 {
			return syscall.ECONNREFUSED
		}
		return 0
	}
	failed, err := flush(t, tx, burst)
	if !errors.Is(err, syscall.ECONNREFUSED) || failed != 1 {
		t.Fatalf("FlushTx = %v with %d failed, want ECONNREFUSED with 1", err, failed)
	}
	want := append(append([][]byte{}, burst[:4]...), burst[5:]...)
	if got := collect(t, rx, len(want)); !sameDatagrams(got, want) {
		t.Fatalf("delivered lengths %v, want all of %v but the fifth", lengths(got), lens)
	}
	// 4×64 | refused | 3×100, 4×64.
	if st := tx.TxStats(); st != (TxStats{Datagrams: 11, Messages: 3, Calls: 2}) {
		t.Errorf("TxStats %+v, want 11 datagrams in 3 messages and 2 calls", st)
	}
	if !tx.SegmentOffload() {
		t.Errorf("a refused datagram switched segmentation offload off")
	}
}

// TestSegmentOffloadFallsBack: the two answers by which a route declines
// segmented messages each cost no datagram in the flush that draws them, and
// leave the Conn not asking again.
func TestSegmentOffloadFallsBack(t *testing.T) {
	lens := append(repeat(1200, 4), repeat(64, 4)...)

	t.Run("EIO: no checksum offload", func(t *testing.T) {
		rx, tx := loopPair(t, false)
		tx.be.(*mmsgBackend).failTx = func(at, segs, segLen int) syscall.Errno {
			if segs > 1 {
				return syscall.EIO
			}
			return 0
		}
		for round := 0; round < 2; round++ {
			burst := datagrams(rand.New(rand.NewSource(4)), lens)
			if failed, err := flush(t, tx, burst); err != nil || failed != 0 {
				t.Fatalf("round %d: FlushTx = %v with %d failed", round, err, failed)
			}
			if got := collect(t, rx, len(burst)); !sameDatagrams(got, burst) {
				t.Fatalf("round %d: delivered lengths %v, want %v", round, lengths(got), lens)
			}
			if tx.SegmentOffload() {
				t.Fatalf("round %d: still segmenting after EIO", round)
			}
		}
		if st := tx.TxStats(); st != (TxStats{Datagrams: 16, Messages: 16, Calls: 2}) {
			t.Errorf("TxStats %+v, want 16 datagrams in 16 messages and 2 calls", st)
		}
	})

	t.Run("EINVAL: segment longer than the path MTU", func(t *testing.T) {
		rx, tx := loopPair(t, false)
		be := tx.be.(*mmsgBackend)
		be.failTx = func(at, segs, segLen int) syscall.Errno {
			if segs > 1 && segLen >= 1000 {
				return syscall.EINVAL
			}
			return 0
		}
		// Twice: the second flush must not even ask for 1200-byte segments.
		for round := 0; round < 2; round++ {
			burst := datagrams(rand.New(rand.NewSource(5)), lens)
			if failed, err := flush(t, tx, burst); err != nil || failed != 0 {
				t.Fatalf("round %d: FlushTx = %v with %d failed", round, err, failed)
			}
			if got := collect(t, rx, len(burst)); !sameDatagrams(got, burst) {
				t.Fatalf("round %d: delivered lengths %v, want %v", round, lengths(got), lens)
			}
		}
		if !tx.SegmentOffload() || be.segCap != 1200 {
			t.Errorf("segmenting=%v segCap=%d, want true and 1200", tx.SegmentOffload(), be.segCap)
		}
		// Each round: four 1200s alone, the four 64s as one.
		if st := tx.TxStats(); st != (TxStats{Datagrams: 16, Messages: 10, Calls: 2}) {
			t.Errorf("TxStats %+v, want 16 datagrams in 10 messages and 2 calls", st)
		}
		be.failTx = nil
		burst := datagrams(rand.New(rand.NewSource(6)), repeat(1199, 3))
		flush(t, tx, burst)
		if got := collect(t, rx, 3); !sameDatagrams(got, burst) {
			t.Fatalf("below the cap: delivered lengths %v", lengths(got))
		}
		if st := tx.TxStats(); st.Messages != 11 {
			t.Errorf("three 1199-byte datagrams left in %d messages, want 1", st.Messages-10)
		}
	})
}
