package timerwheel

import (
	"testing"
	"testing/quick"
	"time"
)

func TestValidation(t *testing.T) {
	if _, err := New(0, 16); err == nil {
		t.Error("zero tick accepted")
	}
	if _, err := New(time.Millisecond, 1); err == nil {
		t.Error("single slot accepted")
	}
	if _, err := New(time.Millisecond, 16); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestFiresAtOrAfterDue(t *testing.T) {
	w := MustNew(time.Millisecond, 32)
	var firedAt time.Duration
	w.Schedule(10*time.Millisecond, func() { firedAt = w.horizon })
	w.Advance(9 * time.Millisecond)
	if firedAt != 0 {
		t.Fatal("fired before due")
	}
	w.Advance(15 * time.Millisecond)
	if firedAt < 10*time.Millisecond {
		t.Errorf("fired at %v, before due 10ms", firedAt)
	}
	if firedAt > 11*time.Millisecond {
		t.Errorf("fired at %v, more than one tick late", firedAt)
	}
}

func TestMultipleRevolutions(t *testing.T) {
	w := MustNew(time.Millisecond, 8) // wheel covers 8 ms
	fired := false
	w.Schedule(50*time.Millisecond, func() { fired = true })
	w.Advance(49 * time.Millisecond)
	if fired {
		t.Fatal("fired early despite rounds counter")
	}
	w.Advance(51 * time.Millisecond)
	if !fired {
		t.Fatal("never fired after several revolutions")
	}
}

func TestScheduleDuringFire(t *testing.T) {
	w := MustNew(time.Millisecond, 8)
	var chain int
	var reschedule func()
	reschedule = func() {
		chain++
		if chain < 5 {
			w.Schedule(w.horizon+time.Millisecond, reschedule)
		}
	}
	w.Schedule(time.Millisecond, reschedule)
	w.Advance(20 * time.Millisecond)
	if chain != 5 {
		t.Errorf("chain = %d, want 5", chain)
	}
}

func TestPastScheduleFiresNext(t *testing.T) {
	w := MustNew(time.Millisecond, 8)
	w.Advance(10 * time.Millisecond)
	fired := false
	w.Schedule(2*time.Millisecond, func() { fired = true }) // already past
	w.Advance(12 * time.Millisecond)
	if !fired {
		t.Error("past-due timer never fired")
	}
}

func TestManyTimersProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		w := MustNew(100*time.Microsecond, 64)
		fired := 0
		type rec struct{ due, at time.Duration }
		var recs []rec
		for _, d := range delays {
			due := time.Duration(d%5000) * time.Microsecond
			w.Schedule(due, func() {
				fired++
				recs = append(recs, rec{due: due, at: w.horizon})
			})
		}
		w.Advance(time.Second)
		if fired != len(delays) {
			return false
		}
		for _, r := range recs {
			// Never early; never more than one tick late.
			if r.at < r.due-w.tick || r.at > r.due+w.tick {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// pending counts the timers still in the wheel's slots.
func pending(w *Wheel) int {
	n := 0
	for _, slot := range w.slots {
		n += len(slot)
	}
	return n
}

func TestPendingCount(t *testing.T) {
	w := MustNew(time.Millisecond, 8)
	for i := 0; i < 5; i++ {
		w.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if n := pending(w); n != 5 {
		t.Errorf("pending = %d, want 5", n)
	}
	w.Advance(3 * time.Millisecond)
	if n := pending(w); n != 2 {
		t.Errorf("pending after partial advance = %d, want 2", n)
	}
	w.Advance(5 * time.Millisecond)
	if n := pending(w); n != 0 {
		t.Errorf("pending after full advance = %d, want 0", n)
	}
}
