package mbox

import (
	"reflect"
	"slices"
	"testing"
)

// TestEngineSurface pins the engine's exported surface, so that adding to it
// is a reviewed diff to these lists rather than one more method: three ways
// in (SubmitBatch, SubmitLeafBatch, LocalSubmitter.SubmitBatch) over one
// gate and one serve body, and one reconfiguration body behind SetRate,
// SetPolicy and their node spellings.
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
	for _, tc := range []struct {
		what      string
		got, want []string
	}{
		{"*Engine methods", methods(&Engine{}), []string{
			"Add", "AddPinned", "ApplyShare", "ArmAudit", "ArmNodeAudit",
			"AttachMetricSource", "AuditReport", "AuditViolations", "BurstLatency",
			"Close", "DisarmAudit", "Faults", "Flush", "Health", "Leaf", "Len",
			"LocalShard", "Lookup", "Metrics", "NodeMetrics", "NodeStats",
			"Quarantined", "Reinstate", "Remove", "Restore", "RestoreAggregate",
			"SetDegradeMode", "SetNodePolicy", "SetNodeRate", "SetPolicy", "SetRate",
			"SetShedClass", "ShedClass", "Snapshot", "SnapshotAggregate", "Stats",
			"SubmitBatch", "SubmitLeafBatch", "TraceDump", "Update",
		}},
		{"*LocalSubmitter methods", methods(&LocalSubmitter{}), []string{"Shard", "SubmitBatch"}},
		{"Config fields", fields, []string{
			"Clock", "CloseTimeout", "ControlTimeout", "DegradeMode", "IdleTTL",
			"MaxAggregates", "Observer", "OnEvict", "OnFault", "Overload",
			"PanicThreshold", "QueueDepth", "Shards", "SweepInterval",
			"WatchdogInterval", "WedgeTimeout",
		}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s changed:\n got %q\nwant %q", tc.what, tc.got, tc.want)
		}
	}
}
