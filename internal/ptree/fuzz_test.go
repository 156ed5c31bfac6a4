package ptree

import (
	"testing"
	"time"

	"bcpqp/internal/enforcer"
)

// FuzzTreeSnapshotDecode hardens the tree snapshot decoder against hostile
// input: RestoreState must never panic, must reject duplicate or cyclic
// node topology, and any blob it accepts must leave the tree in a state
// whose own snapshot restores cleanly (decode → encode → decode is stable).
func FuzzTreeSnapshotDecode(f *testing.F) {
	// Seed with well-formed images — cold and warm — so mutation starts
	// from deep inside the versioned framing rather than at the version
	// check, plus degenerate prefixes.
	cold := tenantPlanSub()
	if blob, err := cold.SnapshotState(0); err == nil {
		f.Add(blob)
	}
	warm := tenantPlanSub()
	runTraffic(warm, 11, time.Second)
	if blob, err := warm.SnapshotState(time.Second); err == nil {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{treeSnapVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := tenantPlanSub()
		if err := tr.RestoreState(time.Second, data); err != nil {
			return // rejected is fine; panicking is not
		}
		// Accepted input restored real state: the tree must remain fully
		// serviceable — its own snapshot re-applies, and traffic flows.
		re, err := tr.SnapshotState(time.Second)
		if err != nil {
			t.Fatalf("re-snapshot of accepted state failed: %v", err)
		}
		tr2 := tenantPlanSub()
		if err := tr2.RestoreState(time.Second, re); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if s1, s2 := tr.EnforcerStats(), tr2.EnforcerStats(); s1 != s2 {
			t.Fatalf("round trip changed stats: %+v != %+v", s1, s2)
		}
		for i := 0; i < tr.NumNodes(); i++ {
			n1, _ := tr.NodeStats(enforcer.NodeID(i))
			n2, _ := tr2.NodeStats(enforcer.NodeID(i))
			if n1 != n2 {
				t.Fatalf("round trip changed node %d counters: %+v != %+v", i, n1, n2)
			}
		}
		submitOne(tr, time.Hour, pkt(0, 1500))
	})
}
