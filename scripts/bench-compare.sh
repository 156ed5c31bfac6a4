#!/bin/sh
# bench-compare: benchmark the datapath at HEAD (including uncommitted
# changes) against a base revision in a throwaway git worktree, and fail
# when the mean throughput (pkts/sec or shares/sec) of any compared
# benchmark regresses beyond the budget. benchstat, when installed, adds its statistical summary; the
# pass/fail gate itself needs only git, go and awk — nothing is ever
# downloaded here.
#
# Usage: scripts/bench-compare.sh [base-ref]
#
# With no argument the base is the merge-base with origin/main (then main),
# falling back to HEAD~1 when that is HEAD itself (e.g. running on main).
#
# Environment:
#   BENCH   benchmark regexp      (default: the middlebox SubmitBatch family, ring
#                                  and inline, and the cluster rebalance tick;
#                                  policy trees are gated by bench/'s tree_deep
#                                  workload and its ptree.* rows, the audited
#                                  path by engine_ring and its obs.* rows)
#   COUNT   repetitions per side  (default 6)
#   BUDGET  allowed mean pkts/sec regression in percent (default 10)
#   OUTDIR  where base.txt / head.txt are written (default: a temp dir)
set -eu

cd "$(dirname "$0")/.."

BENCH="${BENCH:-^(BenchmarkMiddleboxSubmitBatch|BenchmarkMiddleboxSubmitBatchLocal|BenchmarkMiddleboxSubmitBatchObserved|BenchmarkClusterRebalance)\$}"
COUNT="${COUNT:-6}"
BUDGET="${BUDGET:-10}"

# Committed BENCH_*.json snapshots must reference benchmarks that still
# exist: a renamed or deleted benchmark silently turns a snapshot into
# unrefreshable stale data, so fail loudly instead.
stale=""
have="$(go test -run '^$' -list '^Benchmark' . 2>/dev/null)"
for f in BENCH_*.json; do
	[ -e "$f" ] || continue
	for b in $(grep -o '"benchmark"[[:space:]]*:[[:space:]]*"[^"]*"' "$f" | sed 's/.*"\(Benchmark[^"]*\)"/\1/' | sort -u); do
		if ! printf '%s\n' "$have" | grep -qx "$b"; then
			echo "bench-compare: FAIL: $f is stale — $b no longer exists (refresh or remove the snapshot)" >&2
			stale=1
		fi
	done
done
[ -z "$stale" ] || exit 1

base_ref=""
if [ -n "${1:-}" ]; then
	base_ref="$(git merge-base "$1" HEAD 2>/dev/null || git rev-parse "$1")"
else
	for cand in origin/main main; do
		if git rev-parse --verify --quiet "$cand" >/dev/null; then
			base_ref="$(git merge-base "$cand" HEAD)"
			break
		fi
	done
	if [ -z "$base_ref" ] || [ "$base_ref" = "$(git rev-parse HEAD)" ]; then
		base_ref="$(git rev-parse HEAD~1)"
	fi
fi

OUTDIR="${OUTDIR:-$(mktemp -d)}"
mkdir -p "$OUTDIR"
worktree="$(mktemp -d)"
trap 'git worktree remove --force "$worktree" >/dev/null 2>&1 || true; rm -rf "$worktree"' EXIT

dirty=""
git diff --quiet 2>/dev/null || dirty=" (+uncommitted changes)"
echo "bench-compare: base $(git rev-parse --short "$base_ref"), head $(git rev-parse --short HEAD)$dirty"
echo "bench-compare: bench $BENCH, $COUNT reps per side, budget ${BUDGET}%"
git worktree add --quiet --detach "$worktree" "$base_ref"

run_bench() { # run_bench <dir> <outfile>
	(cd "$1" && go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" .) | tee "$2"
}

echo "bench-compare: running base"
run_bench "$worktree" "$OUTDIR/base.txt"
echo "bench-compare: running head"
run_bench . "$OUTDIR/head.txt"

if command -v benchstat >/dev/null 2>&1; then
	benchstat "$OUTDIR/base.txt" "$OUTDIR/head.txt" | tee "$OUTDIR/benchstat.txt" || true
else
	echo "bench-compare: benchstat not installed; skipping the statistical summary" \
		"(go install golang.org/x/perf/cmd/benchstat@latest)"
fi

# The gate: per benchmark present on both sides, the head's mean throughput
# (pkts/sec for the datapath, shares/sec for the cluster rebalance) must not
# be more than BUDGET percent below the base's. A benchmark present on only
# one side (e.g. newly added at head) is skipped, not failed.
awk -v budget="$BUDGET" '
	FNR == 1 { side++ }
	/^Benchmark/ {
		v = ""
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "pkts/sec" || $(i + 1) == "shares/sec") v = $i
		}
		if (v != "") {
			sum[side, $1] += v; n[side, $1]++
			if (side == 1) names[$1] = 1
		}
	}
	END {
		fail = 0; compared = 0
		for (b in names) {
			if (!n[1, b] || !n[2, b]) continue
			compared++
			base = sum[1, b] / n[1, b]; head = sum[2, b] / n[2, b]
			delta = (head - base) / base * 100
			printf "%-55s base %14.0f  head %14.0f  %+7.2f%%\n", b, base, head, delta
			if (delta < -budget) fail = 1
		}
		if (!compared) { print "bench-compare: FAIL: no benchmark present on both sides"; exit 1 }
		if (fail) { print "bench-compare: FAIL: mean throughput regression beyond " budget "%"; exit 1 }
		print "bench-compare: OK (within the " budget "% budget)"
	}
' "$OUTDIR/base.txt" "$OUTDIR/head.txt"
