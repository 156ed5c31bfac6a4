package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLine matches one exposition sample line: name, optional label block,
// value. The label block is validated separately (quote-aware).
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$`)

// checkPromText asserts the buffer is well-formed text exposition format:
// every line is a comment or a sample whose name is legal, whose label
// block tokenizes with properly escaped quoted values, and whose value
// parses as a finite float.
func checkPromText(t *testing.T, b []byte) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		if m[2] != "" {
			checkLabelBlock(t, line, m[2])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value leaked: %q", line)
		}
	}
}

var labelName = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// checkLabelBlock tokenizes a {name="value",...} block, honouring escapes.
func checkLabelBlock(t *testing.T, line, block string) {
	t.Helper()
	s := block[1 : len(block)-1] // strip { }
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || !labelName.MatchString(s[:eq]) {
			t.Fatalf("bad label name in %q (rest %q)", line, s)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			t.Fatalf("unquoted label value in %q", line)
		}
		// Scan the quoted value honouring backslash escapes.
		i := 1
		for ; i < len(s); i++ {
			if s[i] == '\\' {
				if i+1 >= len(s) {
					t.Fatalf("dangling escape in %q", line)
				}
				if c := s[i+1]; c != '\\' && c != '"' && c != 'n' {
					t.Fatalf("invalid escape \\%c in %q", c, line)
				}
				i++
				continue
			}
			if s[i] == '"' {
				break
			}
			if s[i] == '\n' {
				t.Fatalf("raw newline inside label value in %q", line)
			}
		}
		if i >= len(s) {
			t.Fatalf("unterminated label value in %q", line)
		}
		s = s[i+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				t.Fatalf("missing comma between labels in %q", line)
			}
			s = s[1:]
		}
	}
}

// latencyHist is the export form of a digest of nanosecond observations,
// in seconds: what Collector.BurstHist serves.
func latencyHist(ns ...int64) HistSnapshot {
	var d Digest
	for _, v := range ns {
		d.Observe(v)
	}
	return d.Snapshot().Hist(1e-9)
}

func TestWritePrometheus(t *testing.T) {
	hs := latencyHist(1000, 2000)
	snap := Snapshot{Families: []Family{
		{Name: "bcpqp_accepted_packets_total", Help: "accepted \\ packets\nper aggregate", Type: "counter",
			Samples: []Sample{
				{Labels: []Label{{"aggregate", "sub \"42\"\nnext\\"}}, Value: 123},
				{Labels: []Label{{"aggregate", "plain"}}, Value: 7},
			}},
		{Name: "bcpqp_rate_bps", Type: "gauge",
			Samples: []Sample{{Value: math.NaN()}, {Value: math.Inf(1)}}},
		{Name: "bcpqp_burst_seconds", Type: "histogram",
			Samples: []Sample{{Hist: &hs}}},
		{Name: "0weird name!", Type: "bogus", Samples: []Sample{{Value: 1}}},
	}}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkPromText(t, buf.Bytes())
	for _, want := range []string{
		"# TYPE bcpqp_accepted_packets_total counter",
		`bcpqp_accepted_packets_total{aggregate="plain"} 7`,
		"bcpqp_burst_seconds_count 2",
		"bcpqp_burst_seconds_sum 3e-06",
		`le="+Inf"} 2`,
		"# TYPE _0weird_name_ untyped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf}") {
		t.Errorf("non-finite value leaked:\n%s", out)
	}
}

func TestHistBucketsCumulative(t *testing.T) {
	hs := latencyHist(100, 5000)
	var buf bytes.Buffer
	err := WritePrometheus(&buf, Snapshot{Families: []Family{
		{Name: "x", Type: "histogram", Samples: []Sample{{Hist: &hs}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Cumulative counts must be non-decreasing and end at Count.
	var prev float64 = -1
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "x_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("cumulative bucket decreased: %q", buf.String())
		}
		prev = v
	}
	if prev != 2 {
		t.Errorf("final cumulative = %g, want 2", prev)
	}
}

func TestExpvarVar(t *testing.T) {
	hs := latencyHist(1500)
	v := Var(func() Snapshot {
		return Snapshot{Families: []Family{
			{Name: "bcpqp_panics_total", Type: "counter", Samples: []Sample{{Value: 3}}},
			{Name: "bcpqp_rate_bps", Type: "gauge",
				Samples: []Sample{{Labels: []Label{{"aggregate", "a"}}, Value: math.NaN()}}},
			{Name: "bcpqp_burst_seconds", Type: "histogram", Samples: []Sample{{Hist: &hs}}},
			{Name: "empty", Type: "gauge"},
		}}
	})
	var decoded map[string]any
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v\n%s", err, v.String())
	}
	if decoded["bcpqp_panics_total"] != 3.0 {
		t.Errorf("scalar family = %v", decoded["bcpqp_panics_total"])
	}
	rates, ok := decoded["bcpqp_rate_bps"].(map[string]any)
	if !ok || rates["aggregate=a"] != 0.0 {
		t.Errorf("NaN gauge not coerced to 0: %v", decoded["bcpqp_rate_bps"])
	}
	if _, present := decoded["empty"]; present {
		t.Error("empty family exported")
	}
}
