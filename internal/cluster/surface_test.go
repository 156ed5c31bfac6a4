package cluster

import (
	"reflect"
	"slices"
	"testing"
)

// TestNodeSurface pins the cluster's exported surface, so that adding to it
// is a reviewed diff to these lists rather than one more knob: one
// mechanism, the budget exchange, configured only with what some caller
// outside the tests sets. The peer ladder's thresholds (suspectAfter,
// deadAfter) are constants, and a failed send has no retry policy to
// configure: the next tick is the retry.
func TestNodeSurface(t *testing.T) {
	fields := func(v any) (out []string) {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			out = append(out, f.Name)
		}
		slices.Sort(out)
		return out
	}
	var methods []string
	typ := reflect.TypeOf(&Node{})
	for i := 0; i < typ.NumMethod(); i++ {
		methods = append(methods, typ.Method(i).Name) // sorted by name
	}
	for _, tc := range []struct {
		what      string
		got, want []string
	}{
		{"Config fields", fields(Config{}), []string{
			"Clock", "Epoch", "Key", "Peers", "Recorder", "Self", "Transport", "Window",
		}},
		{"SharedAggregate fields", fields(SharedAggregate{}), []string{"Apply", "ID", "Observed", "Rate"}},
		{"*Node methods", methods, []string{
			"Close", "Degraded", "Deliver", "MetricFamilies", "Rebalance", "Run", "Status",
		}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s changed:\n got %q\nwant %q", tc.what, tc.got, tc.want)
		}
	}
}
