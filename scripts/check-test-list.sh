#!/usr/bin/env bash
# check-test-list: every test, fuzz target and benchmark that a base revision
# lists is still listed in the working tree, under the same package, so a
# simplification cannot drop or rename one unnoticed.
#
# Usage: scripts/check-test-list.sh <ref>
#
# Both sides run `go test -list '.*' ./...`: <ref> in a temporary directory
# it is exported to with `git archive` (no worktree metadata is left behind,
# as in bench-ab.sh), the working tree in place. Names are compared as
# <import path>:<name>, the form the tier-1 test list uses. Exit status is 1
# when a Test…, Fuzz… or Benchmark… name that <ref> lists is missing; each
# is printed. Names only the working tree lists are fine.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export LC_ALL=C

if [ $# -ne 1 ]; then
	echo "usage: $0 <ref>" >&2
	exit 2
fi
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$1" | tar -x -C "$base"

# list prints one <package>:<name> line per test, fuzz target and benchmark
# of the module in directory $1. `go test -list` prints a package's names
# before the ok line that names the package.
list() {
	(cd "$1" && go test -list '.*' ./...) | awk '
		/^(ok|\?|FAIL)[ \t]/ { for (i = 0; i < n; i++) print $2 ":" names[i]; n = 0; next }
		/^(Test|Fuzz|Benchmark)/ { names[n++] = $1 }
	' | sort -u
}
list "$base" >"$base/.want"
list . >"$base/.got"

missing=$(comm -23 "$base/.want" "$base/.got")
if [ -n "$missing" ]; then
	echo "listed at $1, missing now:"
	echo "$missing"
	exit 1
fi
echo "all $(wc -l <"$base/.want") tests, fuzz targets and benchmarks listed at $1 are listed"
