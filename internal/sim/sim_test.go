package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	l := NewLoop()
	var order []int
	l.At(30*time.Millisecond, func() { order = append(order, 3) })
	l.At(10*time.Millisecond, func() { order = append(order, 1) })
	l.At(20*time.Millisecond, func() { order = append(order, 2) })
	l.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v, want [1 2 3]", order)
	}
	if l.Now() != 30*time.Millisecond {
		t.Errorf("clock = %v, want 30ms", l.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	l := NewLoop()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(time.Millisecond, func() { order = append(order, i) })
	}
	l.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	l := NewLoop()
	fired := 0
	l.At(time.Second, func() { fired++ })
	l.At(3*time.Second, func() { fired++ })
	l.Run(2 * time.Second)
	if fired != 1 {
		t.Errorf("fired %d events before deadline, want 1", fired)
	}
	if l.Now() != 2*time.Second {
		t.Errorf("clock = %v, want 2s", l.Now())
	}
	if len(l.events) != 1 {
		t.Errorf("pending = %d, want 1", len(l.events))
	}
	l.Run(4 * time.Second)
	if fired != 2 {
		t.Errorf("fired %d total, want 2", fired)
	}
}

func TestAfter(t *testing.T) {
	l := NewLoop()
	var at time.Duration
	l.At(time.Second, func() {
		l.After(500*time.Millisecond, func() { at = l.Now() })
	})
	l.RunAll()
	if at != 1500*time.Millisecond {
		t.Errorf("After fired at %v, want 1.5s", at)
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	l := NewLoop()
	fired := false
	l.At(time.Second, func() {
		l.After(-time.Second, func() { fired = true })
	})
	l.RunAll()
	if !fired {
		t.Error("negative After never fired")
	}
}

func TestCancel(t *testing.T) {
	l := NewLoop()
	fired := false
	e := l.At(time.Second, func() { fired = true })
	l.Cancel(e)
	l.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Error("event does not report cancelled")
	}
	// Double-cancel and nil-cancel are no-ops.
	l.Cancel(e)
	l.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	l := NewLoop()
	var order []int
	events := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		events[i] = l.At(time.Duration(i+1)*time.Millisecond, func() { order = append(order, i) })
	}
	l.Cancel(events[2])
	l.RunAll()
	want := []int{0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	l := NewLoop()
	l.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		l.At(500*time.Millisecond, func() {})
	})
	l.RunAll()
}

func TestEventsScheduledDuringRun(t *testing.T) {
	l := NewLoop()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			l.After(time.Millisecond, tick)
		}
	}
	l.After(time.Millisecond, tick)
	l.RunAll()
	if count != 100 {
		t.Errorf("chain fired %d times, want 100", count)
	}
	if l.Now() != 100*time.Millisecond {
		t.Errorf("clock = %v, want 100ms", l.Now())
	}
}

func TestHeapPropertyRandomOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		l := NewLoop()
		var fired []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Microsecond
			l.At(at, func() { fired = append(fired, l.Now()) })
		}
		l.RunAll()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	l := NewLoop()
	if l.step() {
		t.Error("Step on empty loop returned true")
	}
	l.At(0, func() {})
	if !l.step() {
		t.Error("Step with pending event returned false")
	}
	if l.step() {
		t.Error("Step after draining returned true")
	}
}
