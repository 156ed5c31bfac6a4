package obs

import (
	"bytes"
	"testing"
	"time"
)

// FuzzPromExposition asserts the Prometheus text writer emits well-formed
// output for arbitrary label names/values and sample values: every line
// parses, label values are correctly escaped, and no NaN/Inf ever leaks
// (empty meters and fuzzed non-finite floats are the interesting cases).
func FuzzPromExposition(f *testing.F) {
	f.Add("aggregate", "proxy", 12.5, int64(42))
	f.Add("agg regate", "with \"quotes\" and \\slashes\\", -1.0, int64(0))
	f.Add("", "line\nbreak\r\ttab", 0.0, int64(-5))
	f.Add("0digit", "ünïcödé \x00 bytes", 1e308, int64(1<<40))
	f.Fuzz(func(t *testing.T, lname, lval string, v float64, hv int64) {
		hs := latencyHist()
		if hv != 0 {
			hs = latencyHist(hv)
		}
		empty := newRateMeter(0) // never Added: Rate must be 0, not NaN
		m := newRateMeter(time.Millisecond)
		if hv > 0 {
			m.add(time.Duration(hv%int64(time.Second)), int(v)%65536)
		}
		snap := Snapshot{Families: []Family{
			{Name: "bcpqp_fuzz_counter", Help: "fuzzed \\ counter\nhelp", Type: "counter",
				Samples: []Sample{{Labels: []Label{{lname, lval}}, Value: v}}},
			{Name: lname, Type: "gauge",
				Samples: []Sample{
					{Value: float64(empty.rate())},
					{Value: float64(m.rate())},
					{Labels: []Label{{"a", lval}, {"b", lval + `\`}}, Value: v * v},
				}},
			{Name: "bcpqp_fuzz_hist", Type: "histogram",
				Samples: []Sample{{Labels: []Label{{lname, lval}}, Hist: &hs}}},
		}}
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, snap); err != nil {
			t.Fatal(err)
		}
		checkPromText(t, buf.Bytes())
	})
}
