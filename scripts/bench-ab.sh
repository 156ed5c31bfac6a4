#!/usr/bin/env bash
# bench-ab: A/B the repository's benchmark (bench/, BENCHMARK.json) between a
# base revision and the working tree, and call each end-to-end metric
# resolved, regressed or unresolved.
#
# Usage: scripts/bench-ab.sh <base-ref> [workload...]
#
# The base is exported with `git archive` into a temporary directory (so no
# worktree metadata is left behind); each side is built and run through its
# own bench/run.sh, exactly as the benchmark's contract runs it. With no
# workload named, every workload in BENCHMARK.json runs.
#
# Per workload it runs PAIRS interleaved pairs, alternating which side runs
# first. Pair i runs both sides on seed 1000+i, clear of 1, 7 and 101, the
# seeds the benchmark's own gate uses. For every end-to-end metric it prints
# each side's median [q1, q3] (nearest-rank quartiles), the working tree's
# wins k/N (a win is a pair where it is better in the metric's direction;
# ties count for neither side) and one verdict:
#
#   resolved    better: wins >= 9/10 of the pairs and |median delta| > base
#               IQR;
#   regressed   the head's median is worse than the base's by more than the
#               metric's bound (relative), and the base IQR (relative) is
#               within the bound;
#   unresolved  anything else. "spread wider than bound" is appended when
#               the base IQR exceeds the bound, so no regression can be
#               told; "worse, within bound" when the head loses >= 9/10 of
#               the pairs by more than the base IQR but not by the bound.
#
# Exit status is 1 when any metric regressed, when the working tree fails a
# larger share of operations, or when a side's run fails.
#
# Environment:
#   PAIRS     pairs per workload            (default 10)
#   SECS      measured seconds per run      (default BENCHMARK.json run_seconds)
#   OUTDIR    where raw.tsv and the report are kept (default: a temp dir)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -lt 1 ]; then
	sed -n '2,/^set /p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
	exit 2
fi
base_ref="$(git rev-parse --verify "$1^{commit}")"
shift

PAIRS="${PAIRS:-10}"
SECS="${SECS:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)}"

# The end-to-end metrics: "name better bound", one a line, from the
# "end_to_end" array of BENCHMARK.json.
metrics="$(awk '
	/"end_to_end"/ { on = 1 }
	on && /"name"/ {
		match($0, /"name": *"[^"]*"/);   n = substr($0, RSTART, RLENGTH); gsub(/.*: *"|"/, "", n)
		match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH); gsub(/.*: *"|"/, "", b)
		match($0, /"bound": *[0-9.]+/);  d = substr($0, RSTART, RLENGTH); gsub(/.*: */, "", d)
		print n, b, d
	}
	on && /\]/ { exit }
' BENCHMARK.json)"
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(awk '
		/"workloads"/ { on = 1; next }
		on && /\]/ { exit }
		on { if (match($0, /"name": *"[^"]*"/)) { n = substr($0, RSTART, RLENGTH); gsub(/.*: *"|"/, "", n); print n } }
	' BENCHMARK.json)
fi

OUTDIR="${OUTDIR:-$(mktemp -d)}"
mkdir -p "$OUTDIR"
base_dir="$(mktemp -d)"
trap 'rm -rf "$base_dir"' EXIT
git archive "$base_ref" | tar -x -C "$base_dir"

dirty=""
git diff --quiet HEAD 2>/dev/null || dirty=" (+uncommitted changes)"
echo "bench-ab: base $(git rev-parse --short "$base_ref"), head $(git rev-parse --short HEAD)$dirty"
echo "bench-ab: ${workloads[*]}; $PAIRS pairs of ${SECS} s runs, seeds 1000..$((1000 + PAIRS - 1))"

raw="$OUTDIR/raw.tsv"
: >"$raw"

# run_side <side> <dir> <workload> <pair> <seed>: one run, its end-to-end
# metrics appended to raw.tsv as "workload side pair metric value", and its
# failed/attempted counts as the pseudo-metrics "_failed" and "_attempted".
run_side() {
	local out
	if ! out="$(bash "$2/bench/run.sh" --workload "$3" --seed "$5" --seconds "$SECS" --trace 0 2>&1)"; then
		printf '%s\n' "$out" >&2
		echo "bench-ab: FAIL: $1 run of $3 (seed $5) exited nonzero" >&2
		exit 1
	fi
	printf '%s\n' "$out" | awk -v w="$3" -v s="$1" -v p="$4" '
		index($1, w "/") == 1 && NF == 3 { print w, s, p, substr($1, length(w) + 2), $2 }
		/^\{/ {
			a = $0; sub(/.*"attempted":/, "", a); sub(/[,}].*/, "", a)
			f = $0; sub(/.*"failed":/, "", f); sub(/[,}].*/, "", f)
			print w, s, p, "_attempted", a; print w, s, p, "_failed", f
		}' >>"$raw"
}

for w in "${workloads[@]}"; do
	for ((i = 0; i < PAIRS; i++)); do
		seed=$((1000 + i))
		if ((i % 2 == 0)); then
			run_side base "$base_dir" "$w" "$i" "$seed"
			run_side head . "$w" "$i" "$seed"
		else
			run_side head . "$w" "$i" "$seed"
			run_side base "$base_dir" "$w" "$i" "$seed"
		fi
		printf 'bench-ab: %s pair %d/%d done\n' "$w" $((i + 1)) "$PAIRS" >&2
	done
done

printf '%s\n' "$metrics" | awk -v pairs="$PAIRS" '
	# nearest-rank quantile of the n sorted values v[1..n]
	function q(v, n, p,   i) { i = int(p * n + 0.9999999); if (i < 1) i = 1; if (i > n) i = n; return v[i] }
	function med(v, n) { return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }
	function sortn(v, n,   i, j, t) { for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t } }
	function fmt(x) { return sprintf("%.4g", x) }
	FNR == NR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
	{ val[$1, $2, $3, $4] = $5; if (!($1 in seen)) { seen[$1] = 1; wl[++nw] = $1 } }
	END {
		bad = 0
		for (k = 1; k <= nw; k++) {
			w = wl[k]
			fa[1] = fa[2] = at[1] = at[2] = 0
			for (i = 0; i < pairs; i++) {
				fa[1] += val[w, "base", i, "_failed"]; at[1] += val[w, "base", i, "_attempted"]
				fa[2] += val[w, "head", i, "_failed"]; at[2] += val[w, "head", i, "_attempted"]
			}
			printf "\n%s: failed base %.0f/%.0f, head %.0f/%.0f\n", w, fa[1], at[1], fa[2], at[2]
			if (at[1] > 0 && at[2] > 0 && fa[2] / at[2] > fa[1] / at[1]) { bad = 1; print "  FAIL: the working tree fails a larger share of operations" }
			printf "  %-16s %-32s %-32s %6s %8s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "delta", "verdict"
			for (m = 1; m <= nm; m++) {
				name = order[m]; sign = better[name] == "higher" ? 1 : -1
				n = 0; wins = 0; losses = 0
				for (i = 0; i < pairs; i++) {
					if (!((w, "base", i, name) in val) || !((w, "head", i, name) in val)) continue
					b[++n] = val[w, "base", i, name] + 0; h[n] = val[w, "head", i, name] + 0
					d = sign * (h[n] - b[n]); if (d > 0) wins++; else if (d < 0) losses++
				}
				if (n == 0) continue
				sortn(b, n); sortn(h, n)
				bm = med(b, n); hm = med(h, n); iqr = q(b, n, 0.75) - q(b, n, 0.25)
				rel = bm != 0 ? (hm - bm) / bm : 0
				# relative base IQR; a zero median with any spread cannot be told apart
				riqr = bm != 0 ? iqr / (bm < 0 ? -bm : bm) : (iqr > 0 ? 1e9 : 0)
				need = int(0.9 * n + 0.9999999); moved = hm - bm; if (moved < 0) moved = -moved
				# gain > 0 when the head is better; worse is the relative loss, else 0
				gain = sign * (hm - bm); worse = gain < 0 ? (rel < 0 ? -rel : rel) : 0
				if (wins >= need && moved > iqr && gain > 0) verdict = "resolved"
				else if (riqr > bound[name]) verdict = "unresolved (spread wider than bound)"
				else if (worse > bound[name]) { verdict = "regressed"; bad = 1 }
				else if (losses >= need && moved > iqr && gain < 0) verdict = "unresolved (worse, within bound)"
				else verdict = "unresolved"
				printf "  %-16s %-32s %-32s %3d/%-2d %+7.2f%%  %s\n", name,
					fmt(bm) " [" fmt(q(b, n, 0.25)) ", " fmt(q(b, n, 0.75)) "]",
					fmt(hm) " [" fmt(q(h, n, 0.25)) ", " fmt(q(h, n, 0.75)) "]",
					wins, n, 100 * rel, verdict
			}
		}
		exit bad
	}
' - "$raw" | tee "$OUTDIR/report.txt"
