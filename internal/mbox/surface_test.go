package mbox

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"bcpqp/internal/obs"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// TestEngineSurface pins the engine's exported surface, so that adding to it
// is a reviewed diff to these lists rather than one more method: two ways in
// (Engine.SubmitBatch, LocalSubmitter.SubmitBatch) over one gate and one
// serve body, both entering at the node their Handle carries, one
// reconfiguration body behind SetRate and SetPolicy, each addressed by
// (id, node) with Root for the root, one snapshot pair, and as Config only
// what some caller outside the tests sets. Everything else is a constant:
// wedgeTimeout (the one reason any waiter gives up on a shard) and
// reofferInterval; the circuit breaker trips on the first panic. An
// aggregate leaves the table only through Remove (or Close), and the one
// overload response is the ring-full shed the watchdog reports, so Health
// says nothing about table fill, evictions or shed classes. The fault plane
// has one policy, so FaultRecord and Health count drops and carry no mode: a
// quarantined aggregate's traffic is dropped until Remove.
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
	for _, tc := range []struct {
		what      string
		got, want []string
	}{
		{"*Engine methods", methods(&Engine{}), []string{
			"Add", "AddPinned", "ApplyShare", "ArmAudit", "ArmNodeAudit",
			"AttachMetricSource", "AuditReport", "AuditViolations", "BurstLatency",
			"Close", "Faults", "Flush", "Health", "Leaf", "Len",
			"LocalShard", "Lookup", "Metrics", "NodeMetrics", "NodeStats",
			"Remove", "Restore", "SetPolicy", "SetRate",
			"Snapshot", "Stats", "SubmitBatch", "TraceDump", "Update",
		}},
		{"*LocalSubmitter methods", methods(&LocalSubmitter{}), []string{"Shard", "SubmitBatch"}},
		{"Handle methods", methods(Handle{}), []string{"TraceAgg"}},
		{"Config fields", config, []string{
			"Clock", "CloseTimeout", "Observer", "OnFault",
			"QueueDepth", "Shards", "WatchdogInterval",
		}},
		{"FaultRecord fields", fields(FaultRecord{}), []string{"Panics", "Quarantined", "DegradedDrops"}},
		{"Health fields", fields(Health{}), []string{
			"Shards", "Quarantined", "Panics", "DegradedDrops", "BadVerdicts",
			"Overloaded",
		}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s changed:\n got %q\nwant %q", tc.what, tc.got, tc.want)
		}
	}

	// Nor do the metrics: no family of the removed eviction lifecycle or
	// overload plane is exported, observed or not.
	for _, cfg := range []Config{{Shards: 1}, {Shards: 1, Observer: obs.NewCollector(obs.Options{})}} {
		e := New(cfg)
		if _, err := e.Add("a", tbf.MustNew(units.Mbps, 10*units.MSS), nil); err != nil {
			t.Fatal(err)
		}
		for _, f := range e.Metrics().Families {
			if strings.HasPrefix(f.Name, "bcpqp_overload_") || f.Name == "bcpqp_evicted_total" ||
				f.Name == "bcpqp_aggregate_shed_packets_total" {
				t.Errorf("metric family %q exported, want it gone", f.Name)
			}
		}
		e.Close()
	}
}
