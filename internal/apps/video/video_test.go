package video

import (
	"testing"
	"time"

	"bcpqp/internal/harness"
	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

func newHarness(t *testing.T, scheme harness.Scheme, rate units.Rate) *harness.Harness {
	t.Helper()
	h, err := harness.New(harness.Config{
		Scheme: scheme,
		Rate:   rate,
		MaxRTT: 50 * time.Millisecond,
		Queues: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func key(port uint16) packet.FlowKey {
	return packet.FlowKey{SrcIP: 1, SrcPort: port, DstIP: 2, DstPort: 443, Proto: 6}
}

func TestStreamCompletesAtHighQualityWithHeadroom(t *testing.T) {
	// 10 Mbps all to one video: the ABR should climb the ladder and
	// play without rebuffering.
	h := newHarness(t, harness.SchemeBCPQP, 10*units.Mbps)
	c, err := Start(Config{
		Harness:      h,
		Key:          key(1),
		Class:        0,
		CC:           "bbr",
		RTT:          30 * time.Millisecond,
		Start:        10 * time.Millisecond,
		PlayDuration: 40 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Run(90 * time.Second)
	if c.DoneAt == 0 {
		t.Fatalf("stream incomplete: %d/%d chunks", c.chunkIdx, c.totalChunks)
	}
	if got := c.AvgQuality(); got < 1500*units.Kbps {
		t.Errorf("avg quality %v with 10 Mbps headroom, want ≥1.5 Mbps", got)
	}
	if c.Rebuffering > time.Second {
		t.Errorf("rebuffered %v with ample bandwidth", c.Rebuffering)
	}
}

func TestStreamAdaptsDownUnderTightRate(t *testing.T) {
	// 1 Mbps cap: the client must settle on low rungs and still make
	// progress rather than stalling forever.
	h := newHarness(t, harness.SchemeBCPQP, 1*units.Mbps)
	c, err := Start(Config{
		Harness:      h,
		Key:          key(1),
		Class:        0,
		CC:           "reno",
		RTT:          30 * time.Millisecond,
		Start:        10 * time.Millisecond,
		PlayDuration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Run(120 * time.Second)
	if c.chunkIdx < 3 {
		t.Fatalf("only %d chunks fetched", c.chunkIdx)
	}
	if got := c.AvgQuality(); got > 900*units.Kbps {
		t.Errorf("avg quality %v through a 1 Mbps cap, want below 0.9 Mbps", got)
	}
}

func TestQualityLadderRespected(t *testing.T) {
	h := newHarness(t, harness.SchemeBCPQP, 5*units.Mbps)
	c, err := Start(Config{
		Harness:      h,
		Key:          key(1),
		Class:        0,
		CC:           "cubic",
		RTT:          20 * time.Millisecond,
		Start:        10 * time.Millisecond,
		PlayDuration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Run(60 * time.Second)
	valid := map[units.Rate]bool{}
	for _, r := range ladder {
		valid[r] = true
	}
	for i, q := range c.Qualities {
		if !valid[q] {
			t.Errorf("chunk %d has off-ladder quality %v", i, q)
		}
	}
}

func TestBufferCapsRequests(t *testing.T) {
	// With enormous headroom the buffer must cap near maxBuffer rather
	// than prefetching the entire stream instantly.
	h := newHarness(t, harness.SchemeBCPQP, 50*units.Mbps)
	c, err := Start(Config{
		Harness:      h,
		Key:          key(1),
		Class:        0,
		CC:           "bbr",
		RTT:          10 * time.Millisecond,
		Start:        10 * time.Millisecond,
		PlayDuration: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Run(20 * time.Second)
	if c.buffer > maxBuffer+2*chunkDuration {
		t.Errorf("buffer %v far exceeds the %v cap", c.buffer, maxBuffer)
	}
	if c.DoneAt != 0 {
		t.Error("2-minute stream finished in 20 s of virtual time; pacing broken")
	}
}

func TestRebufferAccounting(t *testing.T) {
	// A starved stream (100 kbps for a 300 kbps floor) must rebuffer.
	h := newHarness(t, harness.SchemeBCPQP, 100*units.Kbps)
	c, err := Start(Config{
		Harness:      h,
		Key:          key(1),
		Class:        0,
		CC:           "reno",
		RTT:          30 * time.Millisecond,
		Start:        10 * time.Millisecond,
		PlayDuration: 12 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Run(2 * time.Minute)
	if c.chunkIdx >= 2 && c.Rebuffering == 0 {
		t.Error("starved stream reported zero rebuffering")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Error("nil harness accepted")
	}
}
