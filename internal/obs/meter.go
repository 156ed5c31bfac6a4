package obs

import (
	"sync/atomic"
	"time"

	"bcpqp/internal/metrics"
	"bcpqp/internal/units"
)

// RateMeter is the paper's §6.1 windowed throughput meter for a
// long-running monotonic clock, reduced to what a runtime gauge reads: the
// bytes of the window the last Add fell in and of the window before it.
// Windows are now/window, so their edges are the same for every meter on
// one clock. It is 32 bytes held inline in AggObs, never allocates and
// takes no lock: one writer (one Add per enforced run on a shard goroutine)
// and any number of readers, which load a single word.
//
// (internal/metrics.Meter keeps every window of every key and is what the
// simulator's Series come from; nothing on the datapath uses it.)
type RateMeter struct {
	window time.Duration
	win    atomic.Int64 // index of the window cur counts; −1 until the first Add
	cur    atomic.Int64 // bytes in window win
	prev   atomic.Int64 // bytes in window win−1; −1 until a window has closed
}

// NewRateMeter returns a meter with the given window (0 selects the
// paper's 250 ms default).
func NewRateMeter(window time.Duration) *RateMeter {
	r := new(RateMeter)
	r.init(window)
	return r
}

func (r *RateMeter) init(window time.Duration) {
	if window <= 0 {
		window = metrics.DefaultWindow
	}
	r.window = window
	r.win.Store(-1)
	r.prev.Store(-1)
}

// Add records bytes at monotonic time now. A regression counts into the
// current window and a negative now is time zero. Single writer.
func (r *RateMeter) Add(now time.Duration, bytes int) {
	w, win := max(int64(now/r.window), 0), r.win.Load()
	switch {
	case w <= win:
		r.cur.Add(int64(bytes))
		return
	case win < 0: // first Add: nothing has closed
	case w == win+1:
		r.prev.Store(r.cur.Load())
	default: // idle gap: the window before w saw nothing
		r.prev.Store(0)
	}
	r.cur.Store(int64(bytes))
	r.win.Store(w)
}

// Rate returns the throughput over the most recent completed window — the
// one before the last Add's — or over the current partial window when none
// has completed yet. An unused meter reports zero (never NaN).
func (r *RateMeter) Rate() units.Rate {
	b := r.prev.Load()
	if b < 0 {
		b = r.cur.Load()
	}
	return units.Rate(float64(b) * 8 / r.window.Seconds())
}
