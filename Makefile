# Development targets for the cool library.

GO ?= go

.PHONY: all build test test-short race vet fmt-check bench bench-parallel bench-mem bench-grid bench-netsim bench-kernels bench-shard bench-replan bench-lifetime coold-e2e coold-crash figures examples fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full race-detector pass; gates the parallel scheduling and
# Monte-Carlo engines.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Time the parallel engines against the seed's reference greedy and
# write the machine-readable BENCH_parallel.json.
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkGreedyParallel|BenchmarkSimParallel' -benchmem .
	$(GO) run ./cmd/coolbench -fig parallel

# Memory-layout smoke pass: vet, then the oracle hot-path benchmarks
# with allocation reporting (the flat layout's Gain/Loss/Bulk paths must
# report 0 allocs/op), then the quick old-vs-new layout comparison.
bench-mem:
	$(GO) vet ./...
	$(GO) test -run xxx -bench 'Oracle|Gain' -benchmem -benchtime 100x ./internal/submodular/
	$(GO) run ./cmd/coolbench -fig memlayout -quick

# Grid-index smoke pass: vet, then the spatial-hash build/query
# benchmarks with allocation reporting (CandidatesInto must report
# 0 allocs/op), then the quick brute-vs-grid incidence comparison.
bench-grid:
	$(GO) vet ./...
	$(GO) test -run xxx -bench 'Grid' -benchmem -benchtime 100x ./internal/geometry/grid/
	$(GO) run ./cmd/coolbench -fig grid -quick

# Radio-core smoke pass: vet, then the flat netsim broadcast/bulk
# benchmarks with allocation reporting (the Batch/ReceiveInto round must
# report 0 allocs/op after warmup), then the quick flat-vs-reference
# comparison that re-audits trace identity and writes BENCH_netsim.json.
bench-netsim:
	$(GO) vet ./...
	$(GO) test -run xxx -bench 'Netsim' -benchmem -benchtime 10x ./internal/netsim/
	$(GO) run ./cmd/coolbench -fig netsim -quick

# Kernel smoke pass: vet, then the unrolled popcount/Eval and
# sparse-refresh benchmarks with allocation reporting (the refresh and
# whole-set sweeps must report 0 allocs/op), then the quick
# scalar-vs-kernel / full-vs-sparse audit that re-checks bit identity
# and schedules_identical before writing BENCH_kernels.json.
bench-kernels:
	$(GO) vet ./...
	$(GO) test -run xxx -bench 'Kernel' -benchmem -benchtime 100x ./internal/bitset/ ./internal/submodular/
	$(GO) run ./cmd/coolbench -fig kernels -quick

# Sharded-planner smoke pass: vet, then the bench's own verdict gate
# (TestShardBenchQuick asserts k=1 bit identity, the utility-gap bound,
# and radio trace identity on a real decomposition), then the quick
# shard sweep that writes BENCH_shard.json.
bench-shard:
	$(GO) vet ./...
	$(GO) test -run TestShardBenchQuick -v ./internal/experiments/
	$(GO) run ./cmd/coolbench -fig shard -quick

# Incremental-replanning smoke pass: vet, then the bench's own verdict
# gate (TestReplanBenchQuick asserts init bit identity, feasibility and
# the utility-gap bound on every row), then the quick repair-vs-full
# sweep that writes BENCH_replan.json.
bench-replan:
	$(GO) vet ./...
	$(GO) test -run TestReplanBenchQuick -v ./internal/experiments/
	$(GO) run ./cmd/coolbench -fig replan -quick

# Cross-objective smoke pass: vet, then the bench's own verdict gate
# (TestLifetimeBenchQuick asserts feasibility on every row, the
# exact-reference cross-check and the utility-objective comparison),
# then the quick cross-objective sweep that writes BENCH_lifetime.json.
bench-lifetime:
	$(GO) vet ./...
	$(GO) test -run TestLifetimeBench -v ./internal/experiments/
	$(GO) run ./cmd/coolbench -fig lifetime -quick

# Planner-as-a-service gate: vet, then the whole coold stack — wire
# unit tests, golden wire corpus, admission determinism, and the e2e
# differential sessions (live client↔daemon bit-identical to direct
# library calls) — under the race detector, then a 30s hostile-bytes
# fuzz of the frame/request decoders.
coold-e2e:
	$(GO) vet ./internal/controlplane/ ./cmd/coold/
	$(GO) test -race ./internal/controlplane/ ./cmd/coold/
	$(GO) test ./internal/controlplane/ -fuzz FuzzWireDecode -fuzztime 30s

# Durability gate: the crash-point sweep (WAL recovery differential at
# every byte offset of a recorded session), the restart and
# watcher-vs-poller e2e differentials, and the daemon's TCP restart
# test, all under the race detector — then a 30s fuzz of the WAL
# replay path (decode never panics; accepted logs are serialization
# fixed points).
coold-crash:
	$(GO) vet ./internal/controlplane/ ./cmd/coold/
	$(GO) test -race -run 'TestCrash|TestWAL|TestStore|TestRestore|TestGoldenWAL|TestE2ERestartDifferential|TestE2EWatcher|TestE2EWatch|TestE2EObjective' -v ./internal/controlplane/
	$(GO) test -race -run 'TestRunDurableRestart' -v ./cmd/coold/
	$(GO) test ./internal/controlplane/ -fuzz FuzzWALReplay -fuzztime 30s

# Regenerate every paper figure and ablation into results/.
figures:
	$(GO) run ./cmd/coolbench -fig all -out results/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/forest
	$(GO) run ./examples/eventdetection
	$(GO) run ./examples/testbed
	$(GO) run ./examples/hetero

fuzz:
	$(GO) test ./internal/core/ -fuzz FuzzScheduleJSON -fuzztime 30s
	$(GO) test ./internal/lp/ -fuzz FuzzSolveRobustness -fuzztime 30s
	$(GO) test ./internal/geometry/grid/ -fuzz FuzzGridCandidates -fuzztime 30s
	$(GO) test ./internal/netsim/ -fuzz FuzzNetsimDiff -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzEngineEquivalence -fuzztime 30s
	$(GO) test ./internal/shard/ -fuzz FuzzShardEquivalence -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzIncrementalEquivalence -fuzztime 30s
	$(GO) test ./internal/controlplane/ -fuzz FuzzWireDecode -fuzztime 30s
	$(GO) test ./internal/lifetime/ -fuzz FuzzLifetimeFeasibility -fuzztime 30s
	$(GO) test ./internal/controlplane/ -fuzz FuzzWALReplay -fuzztime 30s

# Scope cleanup to generated artifacts only: `go clean -fuzzcache`
# drops the cached fuzz corpora under GOCACHE, never the committed
# seed corpora in */testdata/fuzz.
clean:
	$(GO) clean -fuzzcache
	rm -rf results/
