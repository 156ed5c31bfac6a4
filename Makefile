GO ?= go

.PHONY: all build test vet check-ignore staticcheck govulncheck race chaos fuzz-smoke examples bench bench-compare verify

all: verify

build:
	$(GO) build ./...

# netio is three builds in one directory (linux amd64, linux arm64, the rest)
# and an amd64 Linux runner only ever compiles the first: every change to
# mmsg_linux.go's types has to be mirrored in mmsg_other.go and the arm64
# syscall numbers. Both cross-builds need only the standard library.
vet:
	$(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/netio
	GOOS=darwin GOARCH=arm64 $(GO) build ./internal/netio

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
# quarantine, watchdog, deadline-bounded Close, and the cluster
# budget-exchange invariant under injected network faults) plus the
# adversarial-overload suite (UDP floods, flash crowds, mixed-RTT swarms,
# short-flow storms against the load-shed plane) and the conformance-audit
# suite (exact reconciliation against injected over-admission) repeated
# under the race detector. Seeded draws make every repetition identical,
# so -count=3 checks the engine, not the dice. The two tests of the
# who-serves-the-shard rule run twenty times: the window they guard (an item
# popped off the ring but not yet under the occupancy word) is a few
# instructions wide, and three repetitions do not find it. So do the two
# tests of the one-queue control contract, whose outcome turns on scheduling:
# a wedged shard refuses a control call, a flooded live one always takes it.
# With fewer cores than its busy goroutines the flood test takes seconds a
# run (about 4.5 min for this line on two vCPUs), hence the longer timeout.
chaos:
	$(GO) test -race -count=3 -run 'Chaos|Fault|Control|Overload|Storm|Flood|Flash|Audit' ./internal/mbox/ ./internal/faultinject/ ./internal/cluster/ ./internal/workload/
	$(GO) test -race -count=20 -timeout 30m -run 'TestClaimKeepsSubmissionOrder|TestClaimedEqualsQueued|TestControlEscalationDeterministic|TestControlThroughFloodedRing' ./internal/mbox/

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

# Base-vs-head datapath benchmark comparison in a throwaway worktree;
# fails on a >10% mean pkts/sec regression. benchstat adds a statistical
# summary when installed — nothing is downloaded here.
bench-compare:
	scripts/bench-compare.sh

# The gate CI runs: ignore check + build + vet + staticcheck + govulncheck +
# race-enabled tests + chaos suite + fuzz smoke + the examples.
verify: check-ignore build vet staticcheck govulncheck race chaos fuzz-smoke examples
