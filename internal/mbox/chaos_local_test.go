package mbox

// Chaos coverage for the ring-bypass fast path: inline submitters must
// interleave race-free with the ring path on the same shard, in-band
// control churn (SetRate / Stats / Add / Remove), injected enforcer panics
// and quarantine, and a bounded Close — with every counter reconciling
// exactly against what was submitted and what the injector reports.
// Runs under -race in the CI chaos job.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/faultinject"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

func TestChaosLocalRunToCompletionChurn(t *testing.T) {
	clock := &fakeClock{step: 20 * time.Microsecond}
	e := New(Config{
		Shards:       2,
		QueueDepth:   1 << 12, // deep enough that the ring never sheds: conservation stays exact
		Clock:        clock.now,
		CloseTimeout: 10 * time.Second,
	})
	closed := false
	defer func() {
		if !closed {
			e.Close()
		}
	}()

	const (
		bursts   = 600
		burstLen = 8
		rate     = 8 * units.Mbps
		bucket   = int64(100 * units.MSS)
	)

	// Shard 0 carries the contended mix: two inline submitters (one clean,
	// one panicking) and a ring producer. Shard 1 proves inline submitters
	// on distinct shards run independently.
	inj := faultinject.New(tbf.MustNew(rate, bucket), faultinject.Plan{Seed: 11, Panic: 0.02})
	hClean, err := e.AddPinned("inline-clean", 0, tbf.MustNew(rate, bucket), func(packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	hFaulty, err := e.AddPinned("inline-faulty", 0, inj, func(packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	hRing, err := e.AddPinned("ring", 0, tbf.MustNew(rate, bucket), func(packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	hOther, err := e.AddPinned("inline-other", 1, tbf.MustNew(rate, bucket), func(packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}

	// One LocalSubmitter per producer goroutine (they are single-goroutine
	// objects); two of them contend for shard 0's occupancy word.
	type inlineProducer struct {
		h         Handle
		shard     int
		submitted atomic.Int64 // packets through successful inline submits
		inline    atomic.Int64 // successful inline submits (bursts)
		shed      atomic.Int64 // packets rejected ErrSaturated
	}
	producers := map[string]*inlineProducer{
		"inline-clean":  {h: hClean, shard: 0},
		"inline-faulty": {h: hFaulty, shard: 0},
		"inline-other":  {h: hOther, shard: 1},
	}
	var wg sync.WaitGroup
	for id, p := range producers {
		wg.Add(1)
		go func(id string, p *inlineProducer) {
			defer wg.Done()
			ls, err := e.LocalShard(p.shard)
			if err != nil {
				t.Error(err)
				return
			}
			for b := 0; b < bursts; b++ {
				burst := burstOf(burstLen, b)
				switch err := ls.SubmitBatch(p.h, burst); {
				case err == nil:
					p.submitted.Add(burstLen)
					p.inline.Add(1)
				case errors.Is(err, ErrSaturated):
					p.shed.Add(burstLen)
				default:
					t.Errorf("%s inline submit: %v", id, err)
					return
				}
			}
		}(id, p)
	}
	var ringSubmitted atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < bursts; b++ {
			if err := e.SubmitBatch(hRing, burstOf(burstLen, b)); err != nil {
				t.Errorf("ring submit: %v", err)
				return
			}
			ringSubmitted.Add(burstLen)
		}
	}()
	// Control churn against the same shards the inline submitters hold:
	// rate flips, stats polls, and Add/Remove of short-lived aggregates.
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			default:
			}
			if err := e.SetRate("inline-clean", rate+units.Rate(i%5)*units.Mbps); err != nil && !errors.Is(err, ErrSaturated) {
				t.Errorf("SetRate during churn: %v", err)
				return
			}
			if _, err := e.Stats("ring"); err != nil && !errors.Is(err, ErrSaturated) {
				t.Errorf("Stats during churn: %v", err)
				return
			}
			id := fmt.Sprintf("churn-%d", i%8)
			if h, err := e.AddPinned(id, i%2, tbf.MustNew(rate, bucket), nil); err == nil {
				_ = e.SubmitBatch(h, []packet.Packet{pkt(i)})
				if _, err := e.Remove(id); err != nil && !errors.Is(err, ErrSaturated) {
					t.Errorf("Remove during churn: %v", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(churnStop)
	churnWG.Wait()

	// Barrier every surviving aggregate so enforcer stats and fault
	// records are final, then reconcile exactly.
	for id, p := range producers {
		st, err := e.Stats(id)
		if err != nil {
			t.Fatalf("Stats(%s): %v", id, err)
		}
		fr, err := faults(e, id)
		if err != nil {
			t.Fatalf("faults(%s): %v", id, err)
		}
		// The injector panics before the wrapped enforcer runs and a
		// quarantined aggregate never reaches it, so every submitted
		// packet is either enforced (accepted/dropped) or degraded.
		if got := st.AcceptedPackets + st.DroppedPackets + fr.DegradedDrops; got != p.submitted.Load() {
			t.Errorf("%s: enforced %d + degraded %d = %d packets, want %d submitted",
				id, st.AcceptedPackets+st.DroppedPackets, fr.DegradedDrops, got, p.submitted.Load())
		}
		// No shard here is ever wedged, and a wedge is the only reason an
		// inline submit gives up.
		if p.shed.Load() != 0 {
			t.Errorf("%s: %d packets hit ErrSaturated on a live shard", id, p.shed.Load())
		}
	}
	if st, err := e.Stats("ring"); err != nil {
		t.Fatalf("Stats(ring): %v", err)
	} else if got := st.AcceptedPackets + st.DroppedPackets; got != ringSubmitted.Load() {
		t.Errorf("ring aggregate enforced %d packets, want %d", got, ringSubmitted.Load())
	}

	injPanics := inj.Panics.Load()
	if got := e.Panics.Load(); got != injPanics {
		t.Errorf("engine recovered %d panics, injector injected %d", got, injPanics)
	}
	if injPanics == 0 {
		t.Errorf("injector panicked only %d times — chaos too tame to prove the inline panic barrier", injPanics)
	} else if fr, err := faults(e, "inline-faulty"); err != nil || !fr.Quarantined {
		t.Errorf("inline-faulty quarantine = %+v, %v; want quarantined via inline panics", fr, err)
	}

	var inlineOK int64
	for _, p := range producers {
		inlineOK += p.inline.Load()
	}
	if got := e.InlineBursts.Load(); got != inlineOK {
		t.Errorf("InlineBursts = %d, want %d successful inline submits", got, inlineOK)
	}

	start := time.Now()
	rep := e.Close()
	closed = true
	if !rep.Clean {
		t.Errorf("close report not clean after chaos: %+v", rep)
	}
	if d := time.Since(start); d > e.cfg.CloseTimeout {
		t.Errorf("Close took %v, beyond the %v deadline", d, e.cfg.CloseTimeout)
	}
}
