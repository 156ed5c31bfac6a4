#!/usr/bin/env bash
# check-escapes: nothing moved to the heap in the policy-tree datapath.
#
# Usage: scripts/check-escapes.sh
#
# Ceilings take *packet.Packet (enforcer.Stage), and a pointer handed to an
# interface method escapes, so a stack packet on its way to a ceiling turns
# into a heap allocation per call: the compiler reports it "moved to heap".
# This script compiles ptree, tbf and phantom with -gcflags=-m and fails,
# naming each line, when the report shows such a variable in a datapath
# file: the per-packet code below. Their build, snapshot and lifecycle
# files may move what they like. It fails too when the compiler printed no
# escape analysis at all, so a build that stopped reporting cannot pass.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(ptree tbf phantom)
datapath='^internal/(ptree/submit|tbf/tbf|phantom/(batch|phantom))\.go:'

status=0
for p in "${pkgs[@]}"; do
	if ! out=$(go build -gcflags=-m "./internal/$p" 2>&1); then
		echo "$out"
		exit 1
	fi
	if ! grep -qE 'escapes to heap|does not escape' <<<"$out"; then
		echo "internal/$p: the compiler printed no escape analysis"
		status=1
		continue
	fi
	moved=$(grep -E "$datapath" <<<"$out" | grep 'moved to heap' || true)
	if [ -n "$moved" ]; then
		echo "internal/$p: moved to heap:"
		sed 's/^/  /' <<<"$moved"
		status=1
	fi
done
exit "$status"
