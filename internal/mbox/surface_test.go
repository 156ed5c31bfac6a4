package mbox

import (
	"reflect"
	"slices"
	"testing"
)

// TestEngineSurface pins the engine's exported surface, so that adding to it
// is a reviewed diff to these lists rather than one more method: three ways
// in (SubmitBatch, SubmitLeafBatch, LocalSubmitter.SubmitBatch) over one
// gate and one serve body, one reconfiguration body behind SetRate,
// SetPolicy and their node spellings, one snapshot pair, and as Config only
// what some caller outside the tests sets, feature switches, or what the
// chaos suites need other values of (ControlTimeout, PanicThreshold).
// Everything else is a constant: see overload.go and wedgeTimeout.
func TestEngineSurface(t *testing.T) {
	methods := func(v any) (out []string) {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			out = append(out, typ.Method(i).Name)
		}
		return out // reflect lists exported methods, sorted by name
	}
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		fields = append(fields, f.Name)
	}
	slices.Sort(fields)
	if k := reflect.TypeOf(Config{}.Overload).Kind(); k != reflect.Bool {
		t.Errorf("Config.Overload is a %v, want a bool: the plane's parameters are constants", k)
	}
	for _, tc := range []struct {
		what      string
		got, want []string
	}{
		{"*Engine methods", methods(&Engine{}), []string{
			"Add", "AddPinned", "ApplyShare", "ArmAudit", "ArmNodeAudit",
			"AttachMetricSource", "AuditReport", "AuditViolations", "BurstLatency",
			"Close", "DisarmAudit", "Faults", "Flush", "Health", "Leaf", "Len",
			"LocalShard", "Lookup", "Metrics", "NodeMetrics", "NodeStats",
			"Reinstate", "Remove", "Restore", "SetDegradeMode", "SetNodePolicy",
			"SetNodeRate", "SetPolicy", "SetRate", "SetShedClass", "ShedClass",
			"Snapshot", "Stats", "SubmitBatch", "SubmitLeafBatch", "TraceDump",
			"Update",
		}},
		{"*LocalSubmitter methods", methods(&LocalSubmitter{}), []string{"Shard", "SubmitBatch"}},
		{"Config fields", fields, []string{
			"Clock", "CloseTimeout", "ControlTimeout", "IdleTTL", "MaxAggregates",
			"Observer", "OnEvict", "OnFault", "Overload", "PanicThreshold",
			"QueueDepth", "Shards", "WatchdogInterval",
		}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s changed:\n got %q\nwant %q", tc.what, tc.got, tc.want)
		}
	}
}
