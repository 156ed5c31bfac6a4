package experiments

import (
	"fmt"
	"math"
	"strings"
)

// plotWidth/plotHeight size the ASCII charts embedded in reports.
const (
	plotWidth  = 72
	plotHeight = 14
)

// plot renders a group of series as one ASCII chart (shared axes), giving
// the text reports actual figure shapes. Each series draws with its own
// glyph; a legend follows the chart.
func plot(series []Series) string {
	if len(series) == 0 {
		return ""
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

	// Shared bounds.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) {
		return ""
	}
	if ymin > 0 && ymin < ymax/4 {
		ymin = 0 // anchor rate-like plots at zero
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, plotHeight)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", plotWidth))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(plotWidth-1))
			row := int((s.Y[i] - ymin) / (ymax - ymin) * float64(plotHeight-1))
			row = plotHeight - 1 - row
			if col >= 0 && col < plotWidth && row >= 0 && row < plotHeight {
				if grid[row][col] == ' ' || grid[row][col] == g {
					grid[row][col] = g
				} else {
					grid[row][col] = '?' // overlapping series
				}
			}
		}
	}

	var b strings.Builder
	yl := series[0].YLabel
	if yl != "" {
		fmt.Fprintf(&b, "%s\n", yl)
	}
	for r, row := range grid {
		var label string
		switch r {
		case 0:
			label = trimNum(ymax)
		case plotHeight - 1:
			label = trimNum(ymin)
		}
		fmt.Fprintf(&b, "%8s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", plotWidth))
	fmt.Fprintf(&b, "%8s  %-*s%s\n", "", plotWidth-len(trimNum(xmax)), trimNum(xmin), trimNum(xmax))
	if xl := series[0].XLabel; xl != "" {
		fmt.Fprintf(&b, "%8s  %s\n", "", xl)
	}
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// trimNum formats an axis bound compactly.
func trimNum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
