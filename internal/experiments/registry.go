package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one figure/table of the paper.
type Runner func(scale Scale, seed uint64) (*Report, error)

// registry maps figure IDs to their runners.
var registry = map[string]Runner{
	"1a":  Fig1a,
	"1b":  Fig1b,
	"2":   Fig2,
	"3":   Fig3,
	"3a":  Fig3, // 3a and 3b are two sections of the same run
	"3b":  Fig3,
	"4":   Fig4,
	"4a":  Fig4,
	"4b":  Fig4,
	"4c":  Fig4,
	"4d":  Fig4,
	"5":   Fig5,
	"6a":  Fig6a,
	"6b":  Fig6bc,
	"6c":  Fig6bc,
	"6bc": Fig6bc,
	"6d":  Fig6d,
	"7a":  Fig7a,
	"7b":  Fig7b,
	"8":   Fig8,
	"9":   Fig9,
	// Extensions beyond the paper's figures.
	"ext-aqm":      ExtAQM,
	"ext-audit":    ExtAudit,
	"ext-ecn":      ExtECN,
	"ext-mem":      ExtMem,
	"ext-overload": ExtOverload,
}

// Lookup resolves a figure ID (with or without a "fig" prefix).
func Lookup(id string) (Runner, error) {
	key := id
	if len(key) > 3 && key[:3] == "fig" {
		key = key[3:]
	}
	r, ok := registry[key]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (known: %v)", id, IDs())
	}
	return r, nil
}

// IDs lists the canonical set of figure IDs, deduplicated and sorted.
func IDs() []string {
	canonical := []string{"1a", "1b", "2", "3", "4", "5", "6a", "6bc", "6d",
		"7a", "7b", "8", "9", "ext-aqm", "ext-audit", "ext-ecn", "ext-mem", "ext-overload"}
	sort.Strings(canonical)
	return canonical
}

// All runs every experiment at the given scale, in figure order.
func All(scale Scale, seed uint64) ([]*Report, error) {
	order := []string{"1a", "1b", "2", "3", "4", "5", "6a", "6bc", "6d",
		"7a", "7b", "8", "9", "ext-aqm", "ext-audit", "ext-ecn", "ext-mem", "ext-overload"}
	var out []*Report
	for _, id := range order {
		r, err := registry[id](scale, seed)
		if err != nil {
			return nil, fmt.Errorf("fig%s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}
