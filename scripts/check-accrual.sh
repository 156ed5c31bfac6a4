#!/usr/bin/env bash
# check-accrual: the enforcers turn elapsed time into bytes only through
# units.Clock.
#
# Usage: scripts/check-accrual.sh
#
# r·Δt is computed in one place, the reads of units.Clock, which own the
# start, backward-clock, overflow and rounding rules. This script compiles
# the five enforcers (phantom, tbf, ptree, fairpolicer, shaper) with
# inlining off (-l), so every call shows in the assembly (-S), and fails,
# naming each source line, when a non-test file calls time.Duration.Seconds
# or units.Rate.Bytes: either is r·Δt computed outside the clock. It needs
# only the standard toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(phantom tbf ptree fairpolicer shaper)

status=0
for p in "${pkgs[@]}"; do
	if ! asm=$(go build -gcflags='-l -S' "./internal/$p" 2>&1); then
		echo "$asm"
		exit 1
	fi
	if ! grep -q ' STEXT ' <<<"$asm"; then
		echo "internal/$p: the compiler printed no assembly"
		status=1
		continue
	fi
	calls=$(grep -oE '\([^)]*\.go:[0-9]+\)[[:space:]]+CALL[[:space:]]+(time\.Duration\.Seconds|bcpqp/internal/units\.Rate\.Bytes)\(SB\)' <<<"$asm" |
		sed -E "s|^\($PWD/||; s|\)[[:space:]]+CALL[[:space:]]+| |; s|\(SB\)$||" | sort -u || true)
	if [ -n "$calls" ]; then
		echo "internal/$p: r·Δt outside units.Clock:"
		sed 's/^/  /' <<<"$calls"
		status=1
	fi
done
exit "$status"
