package experiments

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/harness"
	"bcpqp/internal/metrics"
	"bcpqp/internal/packet"
	"bcpqp/internal/phantom"
	"bcpqp/internal/sched"
	"bcpqp/internal/tcp"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// RunOpts configures a single-aggregate simulation run.
type RunOpts struct {
	// Scheme is the enforcement mechanism under test.
	Scheme harness.Scheme
	// Duration is the virtual run length.
	Duration time.Duration
	// Window is the throughput measurement window (default 250 ms).
	Window time.Duration
	// Queues overrides the queue count (default: one per flow).
	Queues int
	// Policy overrides the rate-sharing policy (default: fair).
	Policy *sched.Policy
	// FPWeights feeds the FairPolicer weighted variant.
	FPWeights []float64
	// Secondary inserts a downstream bottleneck of this rate.
	Secondary units.Rate
	// PhantomQueueSize overrides B for PQP/BC-PQP.
	PhantomQueueSize int64
	// PhantomRED enables the RED AQM extension on PQP/BC-PQP.
	PhantomRED *phantom.REDConfig
	// SrcIP namespaces flow keys (one value per aggregate).
	SrcIP uint32
}

// FlowOutcome summarizes one flow after a run.
type FlowOutcome struct {
	Spec        workload.FlowSpec
	Completed   time.Duration // last completion (0 = backlogged/incomplete)
	Delivered   int64         // receiver-side bytes (any order)
	Completions int           // bursts completed (on-off flows)

	// Transport counters, copied from the flow after the run.
	Sent       int64
	Rtx        int64
	Timeouts   int64
	ECNSignals int64
	CEMarks    int64
}

// AggResult is the outcome of one aggregate run.
type AggResult struct {
	Rate     units.Rate
	Duration time.Duration
	Meter    *metrics.Meter // keyed by flow index
	Flows    []FlowOutcome
	Stats    enforcer.Stats
}

// RunAggregate simulates one aggregate through one enforcement scheme.
func RunAggregate(agg workload.Aggregate, opts RunOpts) (*AggResult, error) {
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("experiments: non-positive duration")
	}
	queues := opts.Queues
	if queues <= 0 {
		queues = len(agg.Flows)
	}
	maxRTT := agg.MaxRTT()
	if maxRTT <= 0 {
		return nil, fmt.Errorf("experiments: aggregate has no flows")
	}
	h, err := harness.New(harness.Config{
		Scheme:           opts.Scheme,
		Rate:             agg.Rate,
		MaxRTT:           maxRTT,
		Queues:           queues,
		Policy:           opts.Policy,
		FPWeights:        opts.FPWeights,
		PhantomQueueSize: opts.PhantomQueueSize,
		PhantomRED:       opts.PhantomRED,
		Secondary:        opts.Secondary,
	})
	if err != nil {
		return nil, err
	}

	res := &AggResult{
		Rate:     agg.Rate,
		Duration: opts.Duration,
		Meter:    metrics.NewMeter(opts.Window),
		Flows:    make([]FlowOutcome, len(agg.Flows)),
	}

	flows := make([]*tcpFlowRef, len(agg.Flows))
	for i, spec := range agg.Flows {
		i, spec := i, spec
		res.Flows[i].Spec = spec
		key := packet.FlowKey{
			SrcIP:   opts.SrcIP + 1,
			DstIP:   0xC0A80001,
			SrcPort: uint16(i + 1),
			DstPort: 443,
			Proto:   6,
		}
		var flowAdd func(int64)
		fs := harness.FlowSpec{
			Key:   key,
			Class: spec.Class,
			CC:    spec.CC,
			RTT:   spec.RTT,
			Size:  spec.Size,
			ECN:   spec.ECN,
			Start: spec.Start,
			OnDeliver: func(now time.Duration, bytes int) {
				res.Meter.Add(now, i, bytes)
				res.Flows[i].Delivered += int64(bytes)
			},
		}
		if spec.OnOff != nil {
			onoff := spec.OnOff
			fs.OnComplete = func(now time.Duration) {
				res.Flows[i].Completed = now
				res.Flows[i].Completions++
				h.Loop.After(onoff.Idle, func() { flowAdd(onoff.BurstBytes) })
			}
		} else {
			fs.OnComplete = func(now time.Duration) {
				res.Flows[i].Completed = now
				res.Flows[i].Completions++
			}
		}
		flow, err := h.AttachFlow(fs)
		if err != nil {
			return nil, err
		}
		flowAdd = flow.AddData
		flows[i] = &tcpFlowRef{flow: flow}
	}

	h.Run(opts.Duration)
	res.Stats = h.Stats()
	for i, ref := range flows {
		res.Flows[i].Sent = ref.flow.SentSegments
		res.Flows[i].Rtx = ref.flow.RtxSegments
		res.Flows[i].Timeouts = ref.flow.Timeouts
		res.Flows[i].ECNSignals = ref.flow.ECNSignals
		res.Flows[i].CEMarks = ref.flow.CEMarks
	}
	return res, nil
}

// tcpFlowRef defers counter copying until the run completes.
type tcpFlowRef struct {
	flow *tcp.Flow
}

// AggregateWindowBytes sums per-flow window bytes into the aggregate's
// per-window series.
func (r *AggResult) AggregateWindowBytes() []int64 {
	var out []int64
	for i := range r.Flows {
		wb := r.Meter.WindowBytes(i)
		if len(wb) > len(out) {
			grown := make([]int64, len(wb))
			copy(grown, out)
			out = grown
		}
		for w, b := range wb {
			out[w] += b
		}
	}
	return out
}

// NormalizedAggSamples returns the aggregate's per-window throughput divided
// by the enforced rate, skipping windows before any flow started.
func (r *AggResult) NormalizedAggSamples() []float64 {
	wb := r.AggregateWindowBytes()
	window := r.Meter.Window()
	firstStart := time.Duration(1<<62 - 1)
	for _, f := range r.Flows {
		if f.Spec.Start < firstStart {
			firstStart = f.Spec.Start
		}
	}
	skip := int(firstStart / window)
	var out []float64
	for w := skip; w < len(wb); w++ {
		rate := float64(wb[w]) * 8 / window.Seconds()
		out = append(out, rate/float64(r.Rate))
	}
	return out
}

// JainPerWindow computes Jain's index across flows for every window in
// which at least one flow was active. A flow counts as active in a window
// if it delivered bytes, or if it is backlogged and had started.
func (r *AggResult) JainPerWindow() []float64 {
	window := r.Meter.Window()
	n := r.Meter.Windows()
	perFlow := make([][]int64, len(r.Flows))
	for i := range r.Flows {
		perFlow[i] = r.Meter.WindowBytes(i)
	}
	var out []float64
	shares := make([]float64, 0, len(r.Flows))
	for w := 0; w < n; w++ {
		at := time.Duration(w) * window
		shares = shares[:0]
		for i, f := range r.Flows {
			var bytes int64
			if w < len(perFlow[i]) {
				bytes = perFlow[i][w]
			}
			backloggedActive := f.Spec.Size == 0 && f.Spec.Start <= at
			if bytes > 0 || backloggedActive {
				shares = append(shares, float64(bytes))
			}
		}
		if len(shares) >= 2 {
			out = append(out, metrics.Jain(shares))
		}
	}
	return out
}

// secondHalf returns the steady-state half of a sample series.
func secondHalf(xs []float64) []float64 {
	return xs[len(xs)/2:]
}

// mean returns the arithmetic mean (0 for empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// meanNonZero returns the mean of the non-zero samples, the paper's Fig 4c
// statistic ("average of all non-zero aggregate throughput measurements").
func meanNonZero(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x != 0 {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
