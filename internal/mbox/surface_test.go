package mbox

import (
	"reflect"
	"slices"
	"testing"
)

// TestEngineSurface pins the engine's exported surface, so that adding to it
// is a reviewed diff to these lists rather than one more method: two ways in
// (Engine.SubmitBatch, LocalSubmitter.SubmitBatch) over one gate and one
// serve body, both entering at the node their Handle carries, one
// reconfiguration body behind SetRate and SetPolicy, each addressed by
// (id, node) with Root for the root, one snapshot pair, and as Config only
// what some caller outside the tests sets, or feature switches. Everything
// else is a constant: see overload.go, wedgeTimeout (the one reason any
// waiter gives up on a shard) and reofferInterval; the circuit breaker trips
// on the first panic. An aggregate leaves the table only through Remove (or
// Close), so OverloadHealth reports the plane's pressure and sheds, in
// declaration order, and nothing about table fill or evictions. The fault
// plane has one policy, so FaultRecord and Health count drops and carry no
// mode: a quarantined aggregate's traffic is dropped until Remove.
func TestEngineSurface(t *testing.T) {
	methods := func(v any) (out []string) {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			out = append(out, typ.Method(i).Name)
		}
		return out // reflect lists exported methods, sorted by name
	}
	fields := func(v any) (out []string) {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			out = append(out, f.Name)
		}
		return out // in declaration order
	}
	config := fields(Config{})
	slices.Sort(config)
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
			"Close", "Faults", "Flush", "Health", "Leaf", "Len",
			"LocalShard", "Lookup", "Metrics", "NodeMetrics", "NodeStats",
			"Remove", "Restore", "SetPolicy", "SetRate", "SetShedClass",
			"Snapshot", "Stats", "SubmitBatch", "TraceDump", "Update",
		}},
		{"*LocalSubmitter methods", methods(&LocalSubmitter{}), []string{"Shard", "SubmitBatch"}},
		{"Handle methods", methods(Handle{}), []string{"TraceAgg"}},
		{"Config fields", config, []string{
			"Clock", "CloseTimeout", "Observer", "OnFault", "Overload",
			"QueueDepth", "Shards", "WatchdogInterval",
		}},
		{"FaultRecord fields", fields(FaultRecord{}), []string{"Panics", "Quarantined", "DegradedDrops"}},
		{"Health fields", fields(Health{}), []string{
			"Shards", "Quarantined", "Panics", "DegradedDrops", "BadVerdicts",
			"Overloaded", "Overload",
		}},
		{"OverloadHealth fields", fields(OverloadHealth{}), []string{
			"Enabled", "Active", "Pressure", "Ring", "ShedRate", "PriorityShed",
			"Transitions",
		}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s changed:\n got %q\nwant %q", tc.what, tc.got, tc.want)
		}
	}
}
