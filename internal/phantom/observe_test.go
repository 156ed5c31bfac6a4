package phantom

import (
	"testing"
	"time"

	"bcpqp/internal/packet"
	"bcpqp/internal/units"
)

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		eventAccept:       "accept",
		EventDrop:         "drop",
		EventMark:         "mark",
		EventMagicFill:    "magic-fill",
		EventMagicReclaim: "magic-reclaim",
		EventKind(99):     "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestObserverSeesLifecycle(t *testing.T) {
	rec := newRecorder(4096)
	q := MustNew(Config{
		Rate: 8 * units.Mbps, Queues: 1, QueueSize: 400 * units.MSS,
		BurstControl: true,
	})
	q.SetOnEvent(rec.record)
	now := time.Millisecond
	// Burst far beyond θ⁺X: accepts, then a magic fill, then drops.
	for i := 0; i < 300; i++ {
		q.Submit(now, pkt(0, units.MSS))
	}
	// Idle windows trigger the reclaim.
	now += 100 * time.Millisecond
	q.Tick(now)
	now += 100 * time.Millisecond
	q.Tick(now)

	counts := map[EventKind]int64{}
	for _, e := range rec.events() {
		counts[e.Kind]++
		if e.QueueLen < 0 || e.QueueLen > 400*units.MSS {
			t.Fatalf("event reports impossible occupancy %d", e.QueueLen)
		}
	}
	if counts[eventAccept] == 0 || counts[EventDrop] == 0 {
		t.Errorf("missing accept/drop events: %v", counts)
	}
	if counts[EventMagicFill] != 1 {
		t.Errorf("magic fills = %d, want 1", counts[EventMagicFill])
	}
	if counts[EventMagicReclaim] != 1 {
		t.Errorf("magic reclaims = %d, want 1", counts[EventMagicReclaim])
	}
	// Accounting cross-check: events match enforcer statistics.
	st := q.EnforcerStats()
	if counts[eventAccept] != st.AcceptedPackets || counts[EventDrop] != st.DroppedPackets {
		t.Errorf("events %v vs stats %+v", counts, st)
	}
}

func TestObserverSeesMarks(t *testing.T) {
	rec := newRecorder(1024)
	const B = 100 * units.MSS
	q := MustNew(Config{
		Rate: 8 * units.Mbps, Queues: 1, QueueSize: B,
		RED: &REDConfig{
			MinBytes: B / 10, MaxBytes: B, MaxProb: 0.5,
			Weight: 0.2, Seed: 1, MarkECN: true,
		},
	})
	q.SetOnEvent(rec.record)
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		now += 500 * time.Microsecond // 3× overload
		p := pkt(0, units.MSS)
		p.ECT = true
		q.Submit(now, p)
	}
	var marks int
	for _, e := range rec.events() {
		if e.Kind == EventMark {
			marks++
		}
	}
	if marks == 0 {
		t.Error("no mark events recorded despite aggressive marking RED")
	}
}

func TestRecorderRing(t *testing.T) {
	rec := newRecorder(3)
	for i := 0; i < 5; i++ {
		rec.record(Event{Class: i})
	}
	events := rec.events()
	if len(events) != 3 {
		t.Fatalf("ring holds %d, want 3", len(events))
	}
	// Oldest-first: classes 2, 3, 4 remain.
	for i, e := range events {
		if e.Class != i+2 {
			t.Fatalf("ring order wrong: %v", events)
		}
	}
	if rec.total != 5 {
		t.Errorf("total = %d, want 5", rec.total)
	}
}

func TestRecorderPartialFill(t *testing.T) {
	rec := newRecorder(10)
	rec.record(Event{Class: 0})
	rec.record(Event{Class: 1})
	events := rec.events()
	if len(events) != 2 || events[0].Class != 0 || events[1].Class != 1 {
		t.Errorf("partial ring events = %v", events)
	}
}

func TestNilObserverCostsNothing(t *testing.T) {
	// Smoke: no handler attached, the hot path must still work.
	q := MustNew(Config{Rate: units.Mbps, Queues: 1, QueueSize: 10 * units.MSS})
	now := time.Millisecond
	for i := 0; i < 100; i++ {
		q.Submit(now, packet.Packet{Key: packet.FlowKey{SrcPort: 1}, Size: units.MSS, Class: 0})
	}
}
