package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bcpqp"
)

// Tracing. A traced run wraps every call the harness makes into a layer in
// a span {name, start, end, parent, burst}; spans nest by call order on one
// goroutine, a layer's self time is its span minus the part its children
// cover, and totals per layer are kept for every span while only the first
// maxSpans are retained for the trace file. End-to-end numbers are never
// taken with tracing on.

// layer names a span's layer. The package prefix is the module layer the
// time belongs to; "bench." is the harness's own share.
type layer uint8

const (
	layerFeed      layer = iota // bench.feed: build and send the next burst
	layerSink                   // bench.sink: receive forwarded datagrams
	layerRx                     // netio.RecvBatch
	layerTxQueue                // netio.QueueTx, from the emit hook
	layerTxFlush                // netio.FlushTx
	layerInline                 // mbox.LocalSubmitter.SubmitBatch
	layerRing                   // mbox.Engine.SubmitBatch
	layerBarrier                // mbox.Engine.Flush, the in-band window barrier
	layerAdd                    // mbox.Engine.AddPinned
	layerEnforcer               // phantom.PQP.SubmitBatch, via the timing wrapper
	layerTree                   // ptree.Tree.SubmitBatchAt
	layerTreeBuild              // ptree.New
	numLayers
)

var layerNames = [numLayers]string{
	"bench.feed", "bench.sink", "netio.RecvBatch", "netio.QueueTx", "netio.FlushTx",
	"mbox.LocalSubmitter.SubmitBatch", "mbox.Engine.SubmitBatch", "mbox.Engine.Flush",
	"mbox.Engine.AddPinned", "phantom.PQP.SubmitBatch", "ptree.Tree.SubmitBatchAt", "ptree.New",
}

// maxSpans bounds the spans retained for the trace file (≈ 6 MB in memory).
// Layer totals keep counting past it.
const maxSpans = 200_000

// span is one retained trace record. Parent is an index into the retained
// spans, -1 for a top-level span or one whose parent was not retained.
type span struct {
	Layer  layer
	Start  int64
	End    int64
	Parent int32
	Burst  int64
}

// layerTotal accumulates one layer's spans.
type layerTotal struct {
	Count  int64 `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"`
}

type openSpan struct {
	layer    layer
	start    int64
	children int64 // ns covered by completed child spans
	index    int32 // retained index, -1 when past the cap
}

// tracer records spans for one goroutine. A nil *tracer, or one with on
// false, is tracing off: begin and end are no-ops, so call sites need no
// branch of their own. A traced run clears on for its untraced comparison
// phase and sets it again for the traced one, on the same instance.
type tracer struct {
	on     bool
	now    func() int64
	burst  int64
	stack  []openSpan
	spans  []span
	total  [numLayers]layerTotal
	selfNs int64 // Σ self time over all layers, read per slice
	lost   int64 // spans past maxSpans
}

func newTracer() *tracer {
	base := time.Now()
	return &tracer{
		on:    true,
		now:   func() int64 { return int64(time.Since(base)) },
		stack: make([]openSpan, 0, 8),
		spans: make([]span, 0, maxSpans),
	}
}

// setBurst tags subsequent spans with a burst id.
func (t *tracer) setBurst(id int64) {
	if t != nil {
		t.burst = id
	}
}

func (t *tracer) begin(l layer) {
	if t == nil || !t.on {
		return
	}
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].index
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Layer: l, Parent: parent, Burst: t.burst})
	} else {
		t.lost++
	}
	t.stack = append(t.stack, openSpan{layer: l, index: idx})
	// The clock is read last on the way in and first on the way out, so a
	// span's own bookkeeping lands in its parent, not in the layer.
	t.stack[len(t.stack)-1].start = t.now()
}

func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	end := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - o.start
	self := dur - o.children
	lt := &t.total[o.layer]
	lt.Count++
	lt.Total += dur
	lt.SelfNs += self
	t.selfNs += self
	if n > 0 {
		t.stack[n-1].children += dur
	}
	if o.index >= 0 {
		t.spans[o.index].Start = o.start
		t.spans[o.index].End = end
	}
}

// absorb moves another goroutine's records (the ring workload's shard side)
// into t and empties o. Call it only while that goroutine is quiescent.
func (t *tracer) absorb(o *tracer) {
	for l := range o.total {
		t.total[l].Count += o.total[l].Count
		t.total[l].Total += o.total[l].Total
		t.total[l].SelfNs += o.total[l].SelfNs
	}
	t.selfNs += o.selfNs
	t.lost += o.lost
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if len(t.spans) >= maxSpans {
			t.lost++
			continue
		}
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	o.total, o.selfNs, o.lost, o.spans = [numLayers]layerTotal{}, 0, 0, o.spans[:0]
}

// since returns the layer totals accumulated after an earlier snapshot.
func (t *tracer) since(before [numLayers]layerTotal) [numLayers]layerTotal {
	d := t.total
	for l := range d {
		d[l].Count -= before[l].Count
		d[l].Total -= before[l].Total
		d[l].SelfNs -= before[l].SelfNs
	}
	return d
}

type traceFile struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Clock     string                `json:"clock"`
	Layers    map[string]layerTotal `json:"layers"`
	SpansLost int64                 `json:"spans_not_retained"`
	Spans     []traceSpan           `json:"spans"`
}

type traceSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Burst  int64  `json:"burst"`
}

// write saves the trace as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	out := traceFile{
		Workload:  workload,
		Seed:      seed,
		Clock:     "ns since the tracer was created, monotonic",
		Layers:    make(map[string]layerTotal),
		SpansLost: t.lost,
		Spans:     make([]traceSpan, len(t.spans)),
	}
	for l, lt := range t.total {
		if lt.Count > 0 {
			out.Layers[layerNames[l]] = lt
		}
	}
	for i, s := range t.spans {
		out.Spans[i] = traceSpan{Name: layerNames[s.Layer], Start: s.Start, End: s.End, Parent: s.Parent, Burst: s.Burst}
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(out)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}

// timedEnforcer is the harness-owned timing BatchSubmitter: it stands where
// an aggregate's enforcer would and spans every burst the engine hands it,
// which is what separates the enforcer's arithmetic from the engine's own
// per-burst cost. On the ring workload the wrapper runs on the shard
// goroutine with that goroutine's own tracer, and seen counts bursts so its
// spans carry the producer's burst ids (one producer, FIFO ring); inline
// rigs leave seen nil and tag bursts themselves.
type timedEnforcer struct {
	inner *bcpqp.PQP
	tr    *tracer
	seen  *int64
}

func (e timedEnforcer) Submit(now time.Duration, p bcpqp.Packet) bcpqp.Verdict {
	return e.inner.Submit(now, p)
}

func (e timedEnforcer) SubmitBatch(now time.Duration, pkts []bcpqp.Packet, v []bcpqp.Verdict) {
	if e.seen != nil {
		e.tr.setBurst(*e.seen)
		*e.seen++
	}
	e.tr.begin(layerEnforcer)
	e.inner.SubmitBatch(now, pkts, v)
	e.tr.end()
}

func (e timedEnforcer) EnforcerStats() bcpqp.Stats { return e.inner.EnforcerStats() }
