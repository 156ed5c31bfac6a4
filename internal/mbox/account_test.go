package mbox

// The latency digest times every burst, whoever serves it. The rest of the
// accounting — forward first, account after, every enforced run accounted
// once, out-of-range verdicts counted whatever the emit hook — is the
// reference model's to check (model_test.go).

import (
	"testing"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/obs"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// TestLatencyDigestTimesEveryBurst: whoever serves a burst — its submitter,
// the shard goroutine behind a held shard, a LocalSubmitter — and whether it
// is enforced or degraded, the latency digest times it, so after N bursts its
// count is Collector.Bursts() and both are N.
func TestLatencyDigestTimesEveryBurst(t *testing.T) {
	const perPath = 25
	c := obs.NewCollector(obs.Options{})
	e := New(Config{Shards: 1, Observer: c})
	defer e.Close()
	h, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), func(packet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	hBomb, err := e.Add("bomb", bombEnforcer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := e.LocalShard(0)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(submit func(Handle, []packet.Packet) error, h Handle) {
		t.Helper()
		for i := 0; i < perPath; i++ {
			if err := submit(h, burstOf(4, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(e.SubmitBatch, h)     // served by the caller
	submit(ls.SubmitBatch, h)    // inline
	submit(e.SubmitBatch, hBomb) // one panics, the rest degrade
	release := holdShard(t, e, "a")
	submit(e.SubmitBatch, h) // queued for the shard goroutine
	release()
	if err := e.Flush("a", func(enforcer.Enforcer) {}); err != nil {
		t.Fatal(err)
	}
	const want = 4 * perPath
	if got := c.Bursts(); got != want {
		t.Errorf("Collector.Bursts = %d, want %d", got, want)
	}
	if got := c.BurstLatencyDigest().Total(); got != want {
		t.Errorf("latency digest holds %d bursts, want %d", got, want)
	}
	if sh := e.Health().Shards[0]; sh.Queued != perPath {
		t.Errorf("shard goroutine served %d bursts, want %d", sh.Queued, perPath)
	}
}
