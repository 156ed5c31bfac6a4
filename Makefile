GO ?= go

.PHONY: all build test vet check-ignore staticcheck govulncheck race chaos fuzz-smoke examples bench bench-compare test-list verify

all: verify

build:
	$(GO) build ./...

# netio is three builds in one directory (linux amd64, linux arm64, the rest)
# and an amd64 Linux runner only ever compiles the first: every change to
# mmsg_linux.go's types has to be mirrored in mmsg_other.go and the arm64
# syscall numbers. The darwin build covers the whole module, so the proxy and
# everything else still compile on the portable fallback backend. Both
# cross-builds need only the standard library. The datapath packages'
# arm64 assembly must show no fused multiply-add, so every architecture
# computes the same float bits. Last, every test, fuzz target and benchmark
# the docs, build files and sources cite by name must exist.
vet:
	$(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/netio
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	scripts/check-fma.sh
	scripts/check-test-names.sh

test:
	$(GO) test ./...

# No Go source may match a .gitignore pattern, tracked or not: `git add`
# drops such a file without a word, and the next clone does not build (a bare
# `bcpqp-proxy` line once hid all of cmd/bcpqp-proxy/). The benchmark's build
# directory is the one place ignored Go files belong.
check-ignore:
	@ignored=$$(git ls-files --cached --others -- '*.go' | grep -v '^\.bench_build/' | git check-ignore --no-index --stdin || true); \
	if [ -n "$$ignored" ]; then echo "Go files matched by .gitignore:"; echo "$$ignored"; exit 1; fi

race:
	$(GO) test -race ./...

# Static analysis beyond go vet. Skips with a notice when the staticcheck
# binary is not on PATH (nothing is downloaded here); CI installs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Known-vulnerability scan of the module and its (stdlib) call graph. Like
# staticcheck, it is gated on the binary being present so offline/airgapped
# builds are not blocked; CI installs it.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Chaos gate: the seeded fault-injection suite (panic isolation,
# quarantine, read-time shard health, deadline-bounded Close, and the cluster
# budget-exchange invariant under injected network faults), the
# adversarial-overload suite (UDP floods, flash crowds, mixed-RTT swarms,
# short-flow storms against ring-full shedding), the conformance-audit suites
# of mbox and obs (exact reconciliation against injected over-admission), and
# the engine's reference model (FuzzEngineModel's seed corpus: every engine
# operation, faults and warm restarts included, checked against a sequential
# model), repeated under the race detector. Seeded draws make every
# repetition identical, so -count=3 checks the engine, not the dice. The two
# tests of the who-serves-the-shard rule run twenty times: the window they
# guard (an item popped off the ring but not yet under the occupancy word) is
# a few instructions wide, and three repetitions do not find it. So do the
# two tests of the one give-up rule, whose outcome turns on scheduling: a
# wedged shard refuses a control call or an inline submit, a live one —
# flooded, or held by a slow Flush — always takes it. The flood test is
# scripted (gated emit hooks hold the shard, no producer spins), so it takes
# milliseconds a run; the line takes about half a minute on two vCPUs, most
# of it TestClaimKeepsSubmissionOrder under the race detector.
chaos:
	$(GO) test -race -count=3 -run 'Chaos|Fault|Control|Overload|Storm|Flood|Flash|Audit|Model|Watchdog|Health' ./internal/mbox/ ./internal/faultinject/ ./internal/cluster/ ./internal/workload/ ./internal/obs/
	$(GO) test -race -count=20 -timeout 30m -run 'TestClaimKeepsSubmissionOrder|TestClaimedEqualsQueued|TestControlEscalationDeterministic|TestControlThroughFloodedRing|TestLocalSubmitWaitsOutLiveHolder|TestLocalSubmitSaturatedOnWedgedShard' ./internal/mbox/

# Ten-second smoke run of every fuzz target (seed corpus + a short burst of
# generated inputs); full fuzzing sessions run the targets individually.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

# Every example runs to completion (about two seconds each): `go build` only
# proves they compile.
examples:
	@for d in examples/*/; do echo "run $$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# The repository's benchmark (bench/README.md): every workload, with output
# and reproducibility checks.
bench:
	bash bench/run.sh -workload all

# A/B of the benchmark: the working tree against BASE, in interleaved pairs
# on fresh seeds, with a resolved/regressed/unresolved verdict per metric;
# fails when a metric regressed. PAIRS and SECS in the environment shorten it.
# BASE defaults to the branch's merge base with main, or HEAD~1 on main.
BASE ?= $(shell b=$$(git merge-base main HEAD 2>/dev/null); \
	if [ -n "$$b" ] && [ "$$b" != "$$(git rev-parse HEAD)" ]; then echo $$b; else echo HEAD~1; fi)
bench-compare:
	scripts/bench-ab.sh $(BASE)

# Every test, fuzz target and benchmark BASE lists is still listed, under
# the same package (about 20 s: `go test -list` on both sides).
test-list:
	scripts/check-test-list.sh $(BASE)

# The gate CI runs: ignore check + build + vet + staticcheck + govulncheck +
# race-enabled tests + chaos suite + fuzz smoke + the examples.
verify: check-ignore build vet staticcheck govulncheck race chaos fuzz-smoke examples
