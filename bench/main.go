// Command bench is the repository's benchmark: five closed-loop, lockstep
// workloads over the layers netio, mbox, obs, phantom and ptree, eight
// end-to-end metrics on each, and a traced run that prices every layer.
// See README.md in this directory.
//
//	go run ./bench -workload all          every workload, metrics + checks
//	go run ./bench -workload relay_flood -seed 7 -seconds 10 -trace 0
//	go run ./bench -workload all -trace 1 per-layer metrics + trace files
//	go run ./bench -smoke                 everything at 1/200 scale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"

	"bcpqp/internal/netio"
)

// workloads is the benchmark. Each pps was measured on the 2-vCPU reference
// host (bench/README.md); together with -seconds it fixes the packet count.
var workloads = []workload{
	{
		name: "relay_flood",
		why:  "64-byte datagrams in full 32-bursts over loopback: netio and the kernel do >90% of the work, so I/O batching and copy changes show and enforcer changes do not",
		pps:  390e3, burst: burstLen, sample: 1, warm: 4096, round: 1, procs: 1,
		build: func(c buildCfg) (rig, error) { return buildRelay(c, burstLen, offeredLoad) },
	},
	{
		name: "relay_single",
		why:  "the same relay with one datagram in flight: nothing amortises a syscall or a per-burst clock read, so tricks that win relay_flood by waiting for fuller batches lose here; the latency workload",
		pps:  150e3, burst: 1, sample: 1, warm: 60000, round: 1, procs: 1,
		build: func(c buildCfg) (rig, error) { return buildRelay(c, 1, 0.5) },
	},
	{
		name: "engine_inline",
		why:  "no sockets, ring, observe or audit: phantom arithmetic plus mbox per-burst overhead is the whole cost, the paper's efficiency floor; set-up is 4096 O(n) Engine.Add calls",
		pps:  20e6, burst: burstLen, sample: 16, warm: 1 << 16, round: 1, procs: 1,
		build: func(c buildCfg) (rig, error) { return buildEngine(c, engineOpts{}) },
	},
	{
		name: "engine_ring",
		why:  "same arrivals through the shard ring with Observe and ArmAudit on, the proxy's default engine: handoff, wake-ups, observation and audit all sit on the blocking path",
		pps:  12e6, burst: burstLen, sample: 16, warm: 1 << 16, round: ringWindow, procs: 2,
		build: func(c buildCfg) (rig, error) {
			return buildEngine(c, engineOpts{ring: true, observe: true, audit: true})
		},
	},
	{
		name: "tree_deep",
		why:  "million-leaf three-level policy tree, random leaf per burst: working set far beyond cache, so memory layout and bytes per node decide speed, heap and set-up; flat workloads never touch ptree",
		pps:  21e6, burst: burstLen, sample: 16, warm: 1 << 18, round: 1, procs: 1,
		build: func(c buildCfg) (rig, error) {
			return buildTree(c, c.scaled(treePools), c.scaled(treeLeavesPer))
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smokeDiv is the -smoke scale: packet counts and table sizes are divided
// by it.
const smokeDiv = 200

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one workload's result in the builder contract's shape.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	div      int
	outDir   string
}

func main() {
	var o options
	var trace int
	var smoke bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the arrival process")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured phase length on the reference host; sets the packet count")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	flag.BoolVar(&smoke, "smoke", false, "every workload at 1/200 scale, with the reproducibility check")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files")
	flag.Parse()
	o.trace = trace != 0
	o.div = 1
	if smoke {
		o.workload, o.div = "all", smokeDiv
	}
	if flag.NArg() > 0 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if _, ok := findWorkload(o.workload); !ok && o.workload != "all" {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes the selected workloads and writes the results to out. The
// error is non-nil when a workload could not run or an output check failed.
func run(out io.Writer, o options) error {
	fmt.Fprintf(out, "# closed loop, one burst in flight (engine_ring: one %d-burst window), loopback UDP, virtual engine clock\n", ringWindow)
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=1 (engine_ring: %d) %s %s/%s netio.SupportsBatch=%v seed=%d seconds=%g scale=1/%d\n",
		runtime.NumCPU(), min(2, runtime.NumCPU()), runtime.Version(), runtime.GOOS, runtime.GOARCH, netio.SupportsBatch(), o.seed, o.seconds, o.div)

	if o.trace {
		return runTraced(out, o)
	}
	var failed []string
	for _, w := range workloads {
		if o.workload != "all" && o.workload != w.name {
			continue
		}
		fmt.Fprintf(out, "# %s: %s\n", w.name, w.why)
		rep, bad, err := runWorkload(out, w, o)
		if err != nil {
			return err
		}
		if o.workload == "all" {
			// Same seed, same counts: two further runs at smoke scale must
			// agree on every accept/drop count.
			if err := reproducible(w, o.seed); err != nil {
				bad = append(bad, err.Error())
				rep.Correct = false
			}
		}
		for _, b := range bad {
			fmt.Fprintf(out, "# FAIL %s: %s\n", w.name, b)
			failed = append(failed, w.name+": "+b)
		}
		if err := json.NewEncoder(out).Encode(rep); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d output checks failed, first: %s", len(failed), failed[0])
	}
	return nil
}

// runWorkload sets one workload up, measures it untraced and returns its
// end-to-end report together with the output checks that failed.
func runWorkload(out io.Writer, w workload, o options) (report, []string, error) {
	w.setProcs()
	cfg := buildCfg{seed: o.seed, div: o.div}
	r, setups, err := w.setUps(cfg, setUpReps, true)
	if err != nil {
		return report{}, nil, err
	}
	// Live heap once set-up is done: the state held per subscriber or node.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := ms.HeapAlloc

	p := measure(r, w, w.shape(o.seconds, o.div), nil)
	bad := p.verify()
	if err := r.close(); err != nil {
		bad = append(bad, err.Error())
	}
	_, again, err := w.setUps(cfg, setUpReps, false)
	if err != nil {
		return report{}, nil, err
	}
	setups = append(setups, again...)

	t := p.after
	ms2 := []metric{
		{"setup_s", slices.Min(setups), "s"},
		{"pkts_per_s", p.pps, "1/s"},
		{"cpu_ns_per_pkt", p.cpu, "ns"},
		{"lat_p50_us", p.latP50, "us"},
		{"goodput_ratio", foldRatio(p.goodput()), "ratio"},
		{"fairness_jain", t.jain, "ratio"},
		{"heap_mb", float64(heap) / 1e6, "MB"},
	}
	printMetrics(out, w.name, ms2)
	fmt.Fprintf(out, "# %s: offered %d = accepted %d + policy-dropped %d + failed %d; sink %d; virtual %.3fs; %d latency samples; Theorem 1 window ±%.2f%%; digest %016x\n",
		w.name, t.offered, t.accepted, t.dropped, t.failed, t.delivered,
		float64(t.virtualNs)/1e9, len(p.latUs), 100*float64(t.allowance)/p.allowedBytes(), t.digest)

	unaccounted := t.offered - t.accepted - t.dropped - t.failed
	if unaccounted < 0 {
		unaccounted = -unaccounted
	}
	rep := report{
		Correct:   len(bad) == 0,
		Attempted: t.offered,
		Failed:    t.failed + unaccounted,
		Metrics:   make(map[string]jsonMetric, len(ms2)),
	}
	for _, m := range ms2 {
		rep.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return rep, bad, nil
}

func printMetrics(out io.Writer, workload string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "%s/%s %.6g %s\n", workload, m.name, m.value, m.unit)
	}
}

// reproducible runs w twice at smoke scale with one seed and compares every
// exact count.
func reproducible(w workload, seed uint64) error {
	var got [2]tally
	for i := range got {
		w.setProcs()
		cfg := buildCfg{seed: seed, div: smokeDiv}
		r, _, err := w.setUp(cfg)
		if err != nil {
			return err
		}
		p := measure(r, w, w.shape(1, smokeDiv), nil)
		if err := r.close(); err != nil {
			return err
		}
		got[i] = p.after
	}
	a, b := got[0], got[1]
	if a.accepted != b.accepted || a.dropped != b.dropped || a.acceptedBytes != b.acceptedBytes || a.digest != b.digest {
		return fmt.Errorf("two runs of seed %d disagree: accepted %d/%d, dropped %d/%d, digest %016x/%016x",
			seed, a.accepted, b.accepted, a.dropped, b.dropped, a.digest, b.digest)
	}
	return nil
}
