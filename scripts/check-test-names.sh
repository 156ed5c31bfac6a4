#!/usr/bin/env bash
# check-test-names: every Test…, Fuzz… and Benchmark… name the documentation,
# the build files and the Go sources cite must be one `go test -list` knows,
# so a renamed or deleted test cannot leave a citation behind.
#
# Usage: scripts/check-test-names.sh
#
# Checked: README.md, DESIGN.md, EXPERIMENTS.md, the verify skill, the
# Makefile, the CI workflow and every tracked .go file. ROADMAP.md and
# CHANGES.md are history and are not checked. A name written with a trailing
# … or * is a prefix and must begin at least one listed name; any other must
# be listed exactly (a subtest path is checked up to its first /). Exit
# status is 1 when a cited name is missing; each is printed with the files
# that cite it.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C.UTF-8

docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md Makefile .github/workflows/ci.yml)
mapfile -t sources < <(git ls-files '*.go')
files=()
for f in "${docs[@]}" "${sources[@]}"; do
	[ -f "$f" ] && files+=("$f")
done

known=$(go test -list '.*' ./... | grep -E '^(Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*$' | sort -u)
cited=$(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*(…|\*)?' "${files[@]}" | sort -u)

missing=0
while read -r name; do
	[ -n "$name" ] || continue
	case "$name" in
	*… | *\*)
		prefix=${name%…}
		prefix=${prefix%\*}
		grep -q "^$prefix" <<<"$known" && continue
		;;
	*)
		grep -qx "$name" <<<"$known" && continue
		;;
	esac
	missing=1
	echo "$name: not a test, fuzz target or benchmark; cited in $(grep -lF "$name" "${files[@]}" | paste -sd ' ')"
done <<<"$cited"
exit "$missing"
