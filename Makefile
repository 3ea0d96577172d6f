GO ?= go

RACE_PKGS := ./internal/par ./internal/core ./internal/serve ./internal/semiring ./internal/shard ./internal/wal

# Sources the apspvet vettool is built from; the bin/apspvet rule
# rebuilds only when one of these changes, so repeated `make lint` /
# `make check` runs reuse the cached binary.
APSPVET := bin/apspvet
APSPVET_SRC := $(wildcard cmd/apspvet/*.go internal/analysis/*.go \
	internal/analysis/analysistest/*.go internal/analyzers/*.go)

.PHONY: all build test race lint apspvet apspvet-baseline apspvet-sarif staticcheck govulncheck check cross-arm64 bench-smoke queryload-smoke chaos chaos-checkpoint checkpoint-smoke gemm-smoke shard-smoke update-smoke recovery-smoke bench-gemm bench-update

all: build test

# The benchmark is its own module (benchmark/go.mod), invisible to
# ./... patterns; build and test it explicitly so an API change that
# breaks it fails here rather than at the next benchmark run.
build:
	$(GO) build ./...
	$(GO) build -C benchmark -o /dev/null ./...

test:
	$(GO) test ./...
	$(GO) test -C benchmark ./...

race:
	$(GO) test -race $(RACE_PKGS)

$(APSPVET): $(APSPVET_SRC)
	$(GO) build -o $@ ./cmd/apspvet

# The repo-specific analyzer suite (DESIGN.md §11), run two ways: the
# real `go vet -vettool` driver (type-checked against the exact build
# configuration, cached by cmd/go), then the standalone driver in
# diff-aware mode — findings fingerprinted in .apspvet-baseline.json are
# accepted debt; only findings new relative to the baseline fail, and
# the full finding set lands in apspvet.sarif for code scanning.
apspvet: $(APSPVET)
	$(GO) vet -vettool=$(APSPVET) ./...
	$(APSPVET) -sarif apspvet.sarif -baseline .apspvet-baseline.json -diff ./...

# Refresh the accepted-findings baseline. Run after deliberately
# accepting a finding (with a justification in the PR); the diff in
# .apspvet-baseline.json is itself reviewable.
apspvet-baseline: $(APSPVET)
	$(APSPVET) -baseline .apspvet-baseline.json -writebaseline ./...

# SARIF 2.1 log of the complete (unfiltered) finding set, for upload to
# GitHub code scanning.
apspvet-sarif: $(APSPVET)
	$(APSPVET) -sarif apspvet.sarif ./...

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck is an external tool: run it when installed, and skip with a
# note otherwise (the offline dev container has no network to install it;
# the CI job installs a pinned version).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs the pinned version)"; \
	fi

# govulncheck follows the same pattern: pinned in CI, best-effort
# locally.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs the pinned version)"; \
	fi

# The pre-merge umbrella: everything that must hold statically before
# tests even matter. The four independent gates (apspvet, stock
# vet+gofmt, staticcheck, govulncheck) run concurrently with prefixed
# output; the binary is built up front so the parallel sub-makes share
# it instead of racing to create it.
check: build $(APSPVET)
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for t in apspvet lint staticcheck govulncheck; do \
		( { $(MAKE) --no-print-directory $$t; echo $$? > "$$tmp/$$t"; } 2>&1 \
			| sed "s/^/[$$t] /" ) & \
	done; \
	wait; \
	fail=0; for t in apspvet lint staticcheck govulncheck; do \
		st="$$(cat "$$tmp/$$t" 2>/dev/null || echo 1)"; \
		if [ "$$st" != "0" ]; then echo "check: $$t FAILED (exit $$st)"; fail=1; fi; \
	done; \
	if [ "$$fail" != "0" ]; then exit 1; fi; \
	echo "check OK"

# Compile and run every benchmark exactly once — catches benchmarks that
# no longer build or crash without paying for a full measurement run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Exercise the query-serving load generator end to end on a small graph:
# factor build, Zipf workload, cached-vs-uncached comparison, hit-rate
# accounting. Keeps the serving stack's headline numbers runnable in CI.
queryload-smoke:
	$(GO) run ./cmd/queryload -graph powergrid_s -quick -queries 5000

# Fault-injection suite under the race detector: cancellation
# mid-factorization, worker panics with task attribution, corrupt
# checkpoint rejection, shutdown during streamed responses.
chaos: chaos-checkpoint
	$(GO) test -race -run 'TestChaos' $(RACE_PKGS)

# Whole-process fault injection via SUPERFW_FAULTPOINTS through a full
# checkpoint-restore cycle: a save with a short-write fault armed must
# fail loudly and must not leave a loadable file behind; a clean save
# followed by a restore in a fresh process (env-armed with a fault the
# query path never visits) must answer the same route bit-for-bit.
chaos-checkpoint:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; set -e; \
	echo "chaos-checkpoint: save under injected short write must fail"; \
	if SUPERFW_FAULTPOINTS='core.factorio.write=shortwrite=64' \
		$(GO) run ./cmd/superfw -graph powergrid_s -quick -factor \
		-savefactor "$$tmp/torn.sfwf" >/dev/null 2>&1; then \
		echo "FAIL: faulted save exited 0"; exit 1; fi; \
	if [ -f "$$tmp/torn.sfwf" ] && $(GO) run ./cmd/superfw \
		-loadfactor "$$tmp/torn.sfwf" -route 0,100 >/dev/null 2>&1; then \
		echo "FAIL: torn checkpoint loaded"; exit 1; fi; \
	echo "chaos-checkpoint: clean save, then env-armed restore"; \
	$(GO) run ./cmd/superfw -graph powergrid_s -quick -factor \
		-savefactor "$$tmp/f.sfwf" -route 0,100 | grep 'dist(' > "$$tmp/built.txt"; \
	SUPERFW_FAULTPOINTS='core.factor.eliminate=sleep=1ms' \
	$(GO) run ./cmd/superfw -loadfactor "$$tmp/f.sfwf" -route 0,100 \
		| grep 'dist(' > "$$tmp/restored.txt"; \
	diff "$$tmp/built.txt" "$$tmp/restored.txt" \
		&& echo "chaos-checkpoint OK: $$(cat "$$tmp/restored.txt")"

# Checkpoint round trip through the CLI: factor a graph, save it, answer
# the same route query from the saved file, and require byte-identical
# distance output. Guards the on-disk format end to end.
checkpoint-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/superfw -graph powergrid_s -quick -factor \
		-savefactor "$$tmp/f.sfwf" -route 0,100 | grep 'dist(' > "$$tmp/built.txt"; \
	$(GO) run ./cmd/superfw -loadfactor "$$tmp/f.sfwf" -route 0,100 \
		| grep 'dist(' > "$$tmp/restored.txt"; \
	diff "$$tmp/built.txt" "$$tmp/restored.txt" \
		&& echo "checkpoint round trip OK: $$(cat "$$tmp/restored.txt")"

# Exercise the adaptive GEMM engine end to end: the differential suite
# (every dispatch path and the fused packed pipeline vs the naive
# kernel, under the race detector), the fused-vs-staged timing gate on
# AVX-512 hosts (skips itself elsewhere), plus one quick pass of the
# gemm density × size sweep and its fused companions.
gemm-smoke:
	$(GO) test -race -run 'TestGemmDifferential|TestKernelCounters|FuzzGemmDifferential|TestFusedMatchesStagedAndNaive|TestFusedReuseCounters|FuzzFusedDifferential|TestVectorKernelMatchesScalar' ./internal/semiring
	FUSED_GATE=1 $(GO) test -run TestFusedDenseSpeedupGate -v ./internal/bench
	$(GO) run ./cmd/apspbench -exp gemm,gemmvec,gemmreuse -quick

# Cross-compile the whole tree for arm64: proves the portable kernel
# fallbacks (simd_noasm.go) keep every package buildable off amd64.
# Compile-only — the container has no arm64 runtime.
cross-arm64:
	GOARCH=arm64 GOOS=linux $(GO) build ./...
	GOARCH=arm64 GOOS=linux $(GO) vet ./...

# Chaos smoke for the sharded serving stack: 3 checkpoint-warm workers
# behind an apspshard coordinator, a queryload storm with a SIGKILL
# mid-storm, and assertions that the replica absorbs the death (zero
# dropped queries), the prober records exactly the failover, and the
# restarted worker rejoins warm from the checkpoint.
shard-smoke:
	./scripts/shard_smoke.sh

# End-to-end smoke for the live-update subsystem: 2 workers with live
# updaters behind a coordinator, a queryload storm with a
# POST /admin/update landing mid-storm, and assertions that the snapshot
# swap drops zero queries, every worker converges on the same advanced
# generation, queries see the new weight, and the bench gate holds
# (decrease-only patch >= 20x faster than a full rebuild on road_l).
update-smoke:
	./scripts/update_smoke.sh

# Crash-recovery smoke for the durable stack: 2 journaling workers
# (-statedir) behind a journaling coordinator, an update committed, a
# SIGKILL mid-storm, a second update while the worker is dead, then a
# restart from the state dir. Asserts warm recovery at the worker's own
# last durable generation, generation-gated re-admission (stale hold +
# journaled batch streamed), zero dropped queries, and bit-identical
# distances across workers at the converged generation.
recovery-smoke:
	./scripts/recovery_smoke.sh

# Full density × size sweep of the GEMM engine legs (seed | staged AVX2
# | fused packed full-ISA) plus the scalar-vs-vector variant table and
# the pack-amortization table. Writes BENCH_gemm.md (tables) and
# BENCH_gemm.json (raw sweep measurements incl. dispatch counters and
# machine/ISA metadata).
bench-gemm:
	$(GO) run ./cmd/apspbench -exp gemm,gemmvec,gemmreuse -out BENCH_gemm.md
	@echo "wrote BENCH_gemm.md and BENCH_gemm.json"

# Live-update patch vs full rebuild across the catalog graphs (always
# full size — see internal/bench/update.go). Writes BENCH_update.md
# (table) and BENCH_update.json (raw measurements incl. dirty-set
# sizes).
bench-update:
	$(GO) run ./cmd/apspbench -exp update -out BENCH_update.md
	@echo "wrote BENCH_update.md and BENCH_update.json"
