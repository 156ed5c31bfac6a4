#!/usr/bin/env bash
# check-fma: no fused multiply-add in the datapath's float arithmetic.
#
# Usage: scripts/check-fma.sh
#
# The Go spec lets a compiler fuse x*y + z into one instruction that rounds
# once. arm64, ppc64le, s390x and riscv64 do; amd64 does not. A fused site
# computes different bits on an Apple-silicon clone than on CI's amd64
# runners, so every datapath site rounds its product with an explicit
# float64(…) conversion, which the spec says forbids the fusion. This script
# compiles the datapath packages for linux/arm64 with -S and fails, naming
# each source line, when the assembly shows an FMADDD, FMSUBD, FNMADDD or
# FNMSUBD. It needs only the standard library's cross-compiler.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(phantom tbf ptree fairpolicer sched units obs)

status=0
for p in "${pkgs[@]}"; do
	if ! asm=$(GOOS=linux GOARCH=arm64 go build -gcflags=-S "./internal/$p" 2>&1); then
		echo "$asm"
		exit 1
	fi
	if ! grep -q ' STEXT ' <<<"$asm"; then
		echo "internal/$p: the compiler printed no assembly"
		status=1
		continue
	fi
	fused=$(grep -oE '\([^)]*\.go:[0-9]+\)[[:space:]]+F(N)?M(ADD|SUB)D\b' <<<"$asm" |
		sed -E "s|^\($PWD/||; s|\)[[:space:]]+| |" || true)
	if [ -n "$fused" ]; then
		echo "internal/$p: fused multiply-add:"
		sed 's/^/  /' <<<"$fused"
		status=1
	fi
done
exit "$status"
