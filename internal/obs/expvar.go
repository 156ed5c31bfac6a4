package obs

import (
	"encoding/json"
	"expvar"
	"math"
	"strings"
)

// Var adapts a snapshot source to expvar.Var, so the same metrics served
// at /metrics in Prometheus form appear under /debug/vars as JSON. Each
// family flattens to a map keyed by its label sets; histograms export
// count, sum and a few latency quantiles instead of raw buckets.
func Var(fn func() Snapshot) expvar.Var { return varFunc(fn) }

type varFunc func() Snapshot

// String renders the snapshot as JSON. Non-finite values are coerced to 0
// first — encoding/json rejects NaN/Inf and expvar output must stay valid.
func (f varFunc) String() string {
	snap := f()
	out := make(map[string]any, len(snap.Families))
	for _, fam := range snap.Families {
		if len(fam.Samples) == 0 {
			continue
		}
		// A family with a single unlabeled scalar flattens to a number;
		// anything else becomes a map keyed by the label set.
		if len(fam.Samples) == 1 && len(fam.Samples[0].Labels) == 0 && fam.Samples[0].Hist == nil {
			out[fam.Name] = finite(fam.Samples[0].Value)
			continue
		}
		m := make(map[string]any, len(fam.Samples))
		for _, sm := range fam.Samples {
			key := labelKey(sm.Labels)
			if sm.Hist != nil {
				m[key] = map[string]any{
					"count": sm.Hist.Count,
					"sum":   finite(sm.Hist.Sum),
					"p50":   finite(sm.Hist.quantile(0.50)),
					"p99":   finite(sm.Hist.quantile(0.99)),
				}
				continue
			}
			m[key] = finite(sm.Value)
		}
		out[fam.Name] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// labelKey renders a label set as a stable map key ("" for none).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return "value"
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
