GO ?= go

.PHONY: all build test race vet lint lint-strict fuzz bench bench-smoke bench-go parfm-diff serve-smoke chaos-smoke cluster-smoke netchaos-smoke portfolio-smoke bench-e2e-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Determinism, reproducibility, and concurrency-safety analyzers
# (internal/lint via cmd/hglint): banned randomness/wall-clock in algorithm
# packages, result-affecting map iteration, RNG sharing across goroutines,
# panic boundary policy, cancellable experiment sweeps, guarded-field lock
# discipline, goroutine lifecycle proofs, and hot-path allocation freedom.
# Fails on any unannotated finding.
lint: vet
	$(GO) run ./cmd/hglint ./...

# Everything lint checks, plus the stale-suppression audit: an
# //hglint:ignore directive that no longer suppresses any finding is itself
# an error, so suppressions cannot outlive their bug (DESIGN.md §13).
lint-strict: vet
	$(GO) run ./cmd/hglint -strict ./...

# Race-enabled run of the concurrency-sensitive packages plus the full suite.
race:
	$(GO) test -race ./...

# Short fuzz pass over every netlist parser (regression corpora always run
# as part of plain `make test`; this explores beyond them).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseHGR$$ -fuzztime=10s ./internal/netlist
	$(GO) test -run=^$$ -fuzz=FuzzParseHGRMatchesReference -fuzztime=10s ./internal/netlist
	$(GO) test -run=^$$ -fuzz=FuzzParsePaToH -fuzztime=10s ./internal/netlist
	$(GO) test -run=^$$ -fuzz=FuzzParseNetD -fuzztime=10s ./internal/netlist
	$(GO) test -run=^$$ -fuzz=FuzzParseBookshelf -fuzztime=10s ./internal/netlist
	$(GO) test -run=^$$ -fuzz=FuzzParseSpec -fuzztime=10s ./internal/chaos

# Reproducible micro-suite benchmark (cmd/hgbench): fixed seeds, warmup,
# median-of-k ns/move and allocs/move for the frozen-reference vs optimized
# engine pairs, plus the parallel-refiner thread-scaling case. Refreshes the
# committed baseline.
bench:
	$(GO) run ./cmd/hgbench -out BENCH_pr8.json

# CI gate: a quick run that must show zero steady-state allocations on the
# zero-alloc cases (including the parallel refiner), parallel speedup
# targets met (full targets arm only on hosts with enough CPUs), and no
# case more than 10% slower (ns/move, normalized by the co-measured frozen
# reference to cancel machine-state drift) than the committed BENCH_pr8.json
# baseline.
bench-smoke:
	$(GO) run ./cmd/hgbench -reps 5 -warmup 1 -assert-zero-allocs -assert-speedups -check BENCH_pr8.json -tolerance 0.10

# Plain go-test benchmarks across all packages.
bench-go:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Parallel-FM differential suite under the race detector: the round pool
# and frontier containers, and every ParEngine test — byte-identity against
# the frozen ParRefineReference oracle at threads 1, 2, 4 and 8, the
# per-round invariant properties, mid-run cancellation legality, and the
# steady-state zero-allocation checks.
parfm-diff:
	$(GO) test -race -count=1 -run 'TestRoundPool|TestFrontier|TestProposalTable|TestPar' ./internal/core ./internal/gain ./internal/kwayfm

# End-to-end daemon smoke: build the real hgserved binary, boot it on an
# ephemeral port, verify liveness, a computed-then-cached byte-identical
# request pair, the metrics counters, and a clean SIGTERM graceful drain.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 ./cmd/hgserved

# Crash-consistency smoke (cmd/hgchaos): build hgserved, run one seeded
# kill/restart cycle per scenario (SIGKILL mid-record-write, mid-fsync,
# mid-drain), and assert the recovered reports are byte-identical to an
# uninterrupted run. Bounded well under 60s.
chaos-smoke:
	$(GO) test -run TestChaosSmoke -count=1 -timeout 120s ./cmd/hgchaos

# Cluster smoke (cmd/hgchaos cluster scenarios, DESIGN.md §12): build
# hgserved with -race, boot coordinator + worker fleets, and assert
# byte-identical reports across 1/2/3-worker topologies, a worker SIGKILL
# mid-job with journal-backed failover to a survivor, a coordinator SIGKILL
# with restart, and full degradation to local compute against a dead fleet.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -timeout 360s ./cmd/hgchaos

# Network chaos smoke (cmd/hgchaos net scenarios, DESIGN.md §16): build
# hgserved with -race and arm its -net-chaos transport — a blackholed worker
# trips its circuit breaker and the job reroutes, a slow peer demotes to a
# local compute, bit-corrupted dispatch/peer responses are caught by the
# sha256 envelope and never poison a cache, and a flapping worker's breaker
# recovers closed. All four scenarios must reproduce the baseline bytes.
netchaos-smoke:
	$(GO) test -run TestNetChaosSmoke -count=1 -timeout 360s ./cmd/hgchaos

# Portfolio smoke (DESIGN.md §15): under the race detector, race the arm
# portfolio on two gen profiles with byte-identical results across repeated
# runs and a cold/warm/reopened outcome store (internal/portfolio), the
# mode=portfolio service path with its advisory-store restart proof
# (internal/service, repeated three times together with the watchdog suite
# so a timing-sensitive job disposition that flakes shows up here), and the
# hgchaos portfolio scenario (restart + 1/2/3-worker cluster byte-identity);
# then run the hgbench quality gate — portfolio never worse than the fixed
# default on half the suite, racing overhead bounded.
portfolio-smoke:
	$(GO) test -race -count=1 -timeout 360s -run 'TestPortfolio' ./internal/portfolio ./cmd/hgchaos
	$(GO) test -race -count=3 -timeout 360s -run 'TestPortfolio|TestWatchdog' ./internal/service
	$(GO) run ./cmd/hgbench -portfolio-gate

# End-to-end benchmark smoke (bench/ is a module of its own, so the root
# `go test ./...` never reaches it): every workload runs briefly on
# tenth-size instances, untraced and traced, against a real hgserved build
# and must pass its own checks; the bisection must match `hgpart`'s cut.
bench-e2e-smoke:
	$(GO) -C bench test ./...

# What CI runs: build, static checks (vet + hglint with the stale-suppression
# audit), the full test suite under the race detector, the parallel-FM
# differential suite, the benchmark smoke gate, the daemon smoke, the
# crash-consistency, cluster kill/restart and network chaos smokes, the
# portfolio determinism/quality smoke, and the end-to-end benchmark smoke.
ci: build lint-strict race parfm-diff bench-smoke serve-smoke chaos-smoke cluster-smoke netchaos-smoke portfolio-smoke bench-e2e-smoke
