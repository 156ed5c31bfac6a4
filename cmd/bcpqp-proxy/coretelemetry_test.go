package main

import (
	"strings"
	"testing"
)

// TestCoreFamilies checks the bcpqp_core_* export: one sample per core in
// every family, phase times in seconds, the derived packets-per-syscall
// gauge, and no kernel-drop sample for a core whose socket cannot report one.
func TestCoreFamilies(t *testing.T) {
	var a, b coreStats
	a.recvCalls.Store(4)
	a.recvPkts.Store(100)
	a.enforceNs.Store(2_500_000_000)
	a.shed.Store(7)
	a.writeDropped.Store(5)
	a.txPkts.Store(96)
	a.txMsgs.Store(3)
	a.rxTruncated.Store(2)
	b.rxTimeouts.Store(3)

	fams := newCoreFamilies()
	fams.add(0, &a, 9, true)
	fams.add(1, &b, 0, false)
	got := map[string]map[string]float64{}
	for _, f := range fams.render() {
		if !strings.HasPrefix(f.Name, "bcpqp_core_") || f.Help == "" || f.Type == "" {
			t.Errorf("family %+v: want a bcpqp_core_ name, help and type", f)
		}
		got[f.Name] = map[string]float64{}
		for _, s := range f.Samples {
			if len(s.Labels) != 1 || s.Labels[0].Name != "core" {
				t.Fatalf("%s: labels %v, want one core label", f.Name, s.Labels)
			}
			got[f.Name][s.Labels[0].Value] = s.Value
		}
	}
	if len(got) != 14 {
		t.Errorf("%d families, want 14", len(got))
	}
	for name, want := range map[string]map[string]float64{
		"bcpqp_core_recv_packets_total":       {"0": 100, "1": 0},
		"bcpqp_core_packets_per_recv_syscall": {"0": 25}, // core 1 has made no call yet
		"bcpqp_core_enforce_seconds_total":    {"0": 2.5, "1": 0},
		"bcpqp_core_recv_timeouts_total":      {"0": 0, "1": 3},
		"bcpqp_core_shed_packets_total":       {"0": 7, "1": 0},
		"bcpqp_core_tx_packets_total":         {"0": 96, "1": 0},
		"bcpqp_core_tx_msgs_total":            {"0": 3, "1": 0},
		"bcpqp_core_rx_truncated_total":       {"0": 2, "1": 0},
		"bcpqp_core_write_dropped_total":      {"0": 5, "1": 0},
		"bcpqp_core_kernel_drops_total":       {"0": 9},
	} {
		if len(got[name]) != len(want) {
			t.Errorf("%s: samples %v, want %v", name, got[name], want)
		}
		for core, v := range want {
			if got[name][core] != v {
				t.Errorf("%s{core=%s} = %v, want %v", name, core, got[name][core], v)
			}
		}
	}
}
