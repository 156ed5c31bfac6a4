package mbox

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// TestEngineConcurrentStress hammers every engine entry point from many
// goroutines at once — single-packet and burst submissions on stable
// handles, Add/Remove churn on short-lived aggregates, and control-plane
// Stats/Lookup polling — then Closes the engine while producers are still
// running. It contains no assertions about throughput; its job is to give
// the race detector (and the shutdown path) something to chew on. Run it
// with -race (the CI verify target does).
func TestEngineConcurrentStress(t *testing.T) {
	clock := &fakeClock{step: 10 * time.Microsecond}
	e := New(Config{
		Shards:     4,
		QueueDepth: 64,
		Clock:      clock.now,
	})

	const stable = 6
	handles := make([]Handle, stable)
	for i := range handles {
		h, err := e.Add(fmt.Sprintf("stable-%d", i),
			tbf.MustNew(50*units.Mbps, 200*units.MSS), nil)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var submitted atomic.Int64

	// Single-packet producers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h := handles[(g+i)%stable]
				if err := e.SubmitBatch(h, []packet.Packet{pkt(i)}); err == nil {
					submitted.Add(1)
				}
			}
		}(g)
	}

	// Burst producers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]packet.Packet, 16)
			for k := range buf {
				buf[k] = pkt(k)
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h := handles[(g*7+i)%stable]
				if err := e.SubmitBatch(h, buf); err == nil {
					submitted.Add(int64(len(buf)))
				}
			}
		}(g)
	}

	// Add/Remove churn on short-lived aggregates (exercises the COW
	// registry against lock-free readers).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("churn-%d", i%8)
			h, err := e.Add(id, tbf.MustNew(units.Mbps, 50*units.MSS), nil)
			if err == nil {
				_ = e.SubmitBatch(h, []packet.Packet{pkt(i)})
				_ = e.SetRate(id, (1+units.Rate(i%4))*units.Mbps)
				_, _ = e.Remove(id)
			}
		}
	}()

	// Control-plane pollers: Stats rides the shard's ring, Lookup
	// and Len read the registry snapshot.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("stable-%d", i%stable)
				_, _ = e.Stats(id)
				_, _ = e.Lookup(id)
				_ = e.Len()
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	// Close with producers still running: submissions must fail fast
	// (engine closed) rather than race or deadlock.
	e.Close()
	close(stop)
	wg.Wait()

	if submitted.Load() == 0 {
		t.Fatal("stress run submitted nothing")
	}
	// Post-Close calls stay well-defined.
	if err := e.SubmitBatch(handles[0], []packet.Packet{pkt(0)}); err == nil {
		t.Error("Submit after Close succeeded")
	}
	if _, err := e.Add("late", tbf.MustNew(units.Mbps, units.MSS), nil); err == nil {
		t.Error("Add after Close succeeded")
	}
}
