package bcpqp

import (
	"reflect"
	"slices"
	"testing"

	"bcpqp/internal/apps/video"
	"bcpqp/internal/apps/web"
	"bcpqp/internal/experiments"
	"bcpqp/internal/fairpolicer"
	"bcpqp/internal/harness"
	"bcpqp/internal/phantom"
	"bcpqp/internal/workload"
)

// TestOptionSurface pins the fields of the enforcer, simulator and workload
// configurations, so that adding a knob is a reviewed diff to these lists
// rather than one more field. The rule: a value no caller outside the tests
// sets is a constant, not an option. So θ⁺, θ⁻ and T are the paper's
// constants (phantom's thetaHi, thetaLo and Window), the drain batch follows
// from the queue size, the harness ticks every 25 ms and sizes the secondary
// hop like a shaper, FairPolicer forgets a flow after 100 ms idle, and every
// generator sends MSS packets at its own fixed shape. Kept on purpose,
// though a caller outside the tests may not set them: phantom's Filter (the
// §3.3 access-control behaviour, with its own test), the storm's MinSize and
// MaxSize and the flash crowd's Aggregates, Window and Prefix (their tests
// need values the defaults cannot reach), and the swarm's and storm's other
// fields, which only mbox's overload chaos tests set now that no experiment
// drives those generators. Kept on purpose outside these
// structs: obs.Options (the benchmark names it), netio.Config.Batch (the
// netio tests need small batches), cluster.Config's Window and Epoch, and
// tcp.Config.DelayedAcks, a behaviour with its own test.
func TestOptionSurface(t *testing.T) {
	fields := func(v any) (out []string) {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			out = append(out, f.Name)
		}
		return out // in declaration order
	}
	for _, tc := range []struct {
		what      string
		got, want []string
	}{
		{"phantom.Config", fields(phantom.Config{}), []string{
			"Rate", "Queues", "QueueSize", "Policy", "BurstControl", "RED", "Filter"}},
		{"harness.Config", fields(harness.Config{}), []string{
			"Scheme", "Rate", "MaxRTT", "Queues", "Policy", "FPWeights", "PhantomQueueSize", "PhantomRED", "Secondary"}},
		{"experiments.RunOpts", fields(experiments.RunOpts{}), []string{
			"Scheme", "Duration", "Window", "Queues", "Policy", "FPWeights", "Secondary", "PhantomQueueSize", "PhantomRED", "SrcIP"}},
		{"fairpolicer.Config", fields(fairpolicer.Config{}), []string{"Rate", "Bucket", "Flows", "Weights"}},
		{"workload.FloodConfig", fields(workload.FloodConfig{}), []string{
			"Rate", "Duration", "Period", "Duty", "Flows", "SrcIP"}},
		{"workload.SwarmConfig", fields(workload.SwarmConfig{}), []string{"Flows", "Duration", "SrcIP"}},
		{"workload.StormConfig", fields(workload.StormConfig{}), []string{
			"Concurrency", "Duration", "MinSize", "MaxSize", "SrcIP"}},
		{"workload.Section61Config", fields(workload.Section61Config{}), []string{"Aggregates", "Rate", "Duration"}},
		{"workload.FlashCrowdConfig", fields(workload.FlashCrowdConfig{}), []string{"Aggregates", "Window", "Prefix"}},
		{"video.Config", fields(video.Config{}), []string{
			"Harness", "Key", "Class", "CC", "RTT", "Start", "PlayDuration", "OnDeliver"}},
		{"web.Config", fields(web.Config{}), []string{
			"Harness", "BaseKey", "Class", "CC", "RTT", "Pages", "ThinkTime", "Start", "Rand", "OnDeliver"}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s fields changed:\n got %q\nwant %q", tc.what, tc.got, tc.want)
		}
	}
}
