# Build / verify entry points for the Nimble reproduction.
#
#   make            - build + vet + test (the tier-1 gate)
#   make chaos      - long fault-injection run (panics/OOM/stalls) under -race
#   make bench      - quick one-shot pass over every paper benchmark
#   make bench-full - the full harness via cmd/nimble-bench
#   make paper-smoke - every paper table and figure once, quick mode
#   make bench-kernels - dense-tile GFLOP/s, weight-pack time and activation ns/element
#   make cross      - build + vet the pure-Go kernel fallback for arm64
#   make purego     - the kernels tests with the assembly tiles compiled out
#   make ci         - what the GitHub Actions workflow runs

GO ?= go

.PHONY: all build vet test cross purego race api-check staticcheck chaos chaos-smoke registry-smoke stream-smoke fuzz-smoke invoke-fuzz-smoke sse-fuzz-smoke verify-smoke bench bench-full paper-smoke bench-kernels benchmark-check ci

all: build vet test

# Race-detect the public API (cancellation semantics live in the root
# package), the serving runtime and the HTTP server over it, and the
# packages that shard work onto the worker pool (16-goroutine
# shared-executable tests live in vm/serve). The CI workflow's race step
# runs the same list.
race:
	$(GO) test -race . ./internal/serve ./internal/vm ./internal/runtime ./internal/kernels ./internal/conformance ./cmd/nimble-serve

# The API boundary gates: no nimble/internal/... import outside internal/,
# and the exported surface matches testdata/api.golden.
api-check:
	@bad=$$(grep -rn '"nimble/internal/' cmd examples --include='*.go' || true); \
	if [ -n "$$bad" ]; then echo "internal imports outside internal/:"; echo "$$bad"; exit 1; fi
	$(GO) test . -run 'APISurfaceLock|NoInternalImports'

# staticcheck, when the binary is on PATH (CI installs it; the target is a
# no-op elsewhere so `make ci` works on a bare toolchain).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi

# Fault-injection chaos harness. The smoke variant is the same harness
# `go test ./...` runs (3 seeds, short); `make chaos` widens the seed list
# and iteration counts. Both run under -race: the harness's invariants
# (pool conservation, typed errors only, no cross-request contamination)
# are only meaningful if the run is also data-race-free.
chaos-smoke:
	$(GO) test -race -run 'TestChaos|TestShutdown' -count=1 .
chaos:
	NIMBLE_CHAOS_LONG=1 $(GO) test -race -run 'TestChaos|TestShutdown' -count=1 -timeout 20m -v .

# Multi-model registry battery under -race: swap-under-load (64 clients
# across invoke + streaming while weights hot-swap), canary determinism,
# shutdown/deploy races, and the registry chaos storm. Every response must
# be byte-identical to exactly one version's reference output.
registry-smoke:
	$(GO) test -race -run 'TestRegistry|TestCanary|TestChaosRegistrySwap' -count=1 -timeout 10m .

# The stream handoff under -race, ten times over: a stream is read straight
# from the worker that steps it, so the interleavings of Next, Close and
# cancellation against the worker are what this repeats.
stream-smoke:
	$(GO) test -race -count=10 -run 'Stream|Cancel|Shutdown' . ./internal/serve

# 30-second differential fuzz: compiled VM vs eager reference on random
# IR programs. Counterexamples land in internal/conformance/testdata. Then
# 30 seconds of arbitrary bytes into nimble.Load: no panic, no hang, and
# every error is ErrBadInput or ErrVerify.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzVMConformance -fuzztime 30s ./internal/conformance
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 30s .

# The static verifier's own gate: the seeded-mutation corpus must all be
# caught, every registered model must verify clean, and a short
# conformance fuzz runs with NIMBLE_VERIFY=1 so every random program is
# also checked after every pass (the verifier's false-positive hunt).
verify-smoke:
	$(GO) test -count=1 ./internal/verify
	NIMBLE_VERIFY=1 $(GO) test -run '^$$' -fuzz FuzzVMConformance -fuzztime 30s ./internal/conformance

# 30-second fuzz of nimble-serve's JSON decode + invoke path: malformed
# bodies must answer 4xx JSON, never a 5xx or a crash.
invoke-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzInvokeHandler -fuzztime 30s ./cmd/nimble-serve

# Same contract for the SSE streaming endpoint: open failures are plain
# JSON statuses; a committed stream is token events ending in done/error.
sse-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSSEHandler -fuzztime 30s ./cmd/nimble-serve

build:
	$(GO) build ./...

# The dense and activation kernels have amd64 assembly paths; a second
# GOARCH keeps the pure-Go fallback compiling and vetted.
cross:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/kernels/...

# The purego build tag leaves out the amd64 assembly, so the pure-Go row
# tiles (and the scalar activations) run on an amd64 host too.
purego:
	$(GO) test -count=1 -tags purego ./internal/kernels

# Toolchain vet plus the repo's own analyzer suite (cmd/nimble-vet):
# panic discipline in request paths, ctx-threaded blocking waits, no
# retained planner-owned buffers in kernels, no allocating kernel in an
# operator Eval that names its destination. The tree must stay at zero
# findings, and gofmt must list no file.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/nimble-vet
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./...

# Smoke pass: every benchmark once, with allocation counters — catches
# harness rot without paying for full measurement runs.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# Full-scale numbers for EXPERIMENTS.md.
bench-full:
	$(GO) run ./cmd/nimble-bench

# The paper CLI end to end in quick mode (~1 s of measurement), so the one
# command that regenerates the tables and figures keeps working.
paper-smoke:
	$(GO) run ./cmd/nimble-bench -quick

# Kernel tables for EXPERIMENTS.md: GFLOP/s per BERT dense shape (one hot
# weight, and BERT-reduced's 24 weights cycled cold), ns per element per
# activation (and bias add), assembly and pure-Go paths, and the time the
# pack-dense-weights pass takes over BERT-reduced, at one and two Ps side by
# side (the -2 rows shard the dense calls over the pool; DenseBreakEven
# shards below the threshold to show where sharding pays).
bench-kernels:
	$(GO) test ./internal/kernels ./internal/passes -run '^$$' -bench 'DenseShapes|DenseBreakEven|Activations|PackDenseWeights' -benchtime 200ms -count 3 -cpu 1,2

# The benchmark is its own module (benchmark/go.mod), outside the root
# `go vet ./...` / `go test ./...`: vet and test it against this tree.
# Serving load itself is measured with `go run -C benchmark .`.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

ci: all cross purego staticcheck race stream-smoke api-check chaos-smoke registry-smoke bench paper-smoke benchmark-check
