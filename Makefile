# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race alloc-gate bench-module bench bench-sweep bench-kernel bench-commit bench-engine \
	bench-scale bench-cc cc-smoke torture shard-torture shard-xval repro repro-full fuzz xval \
	cover regen-golden regen-fuzz-corpus clean

all: build test

build:
	go build ./...
	go vet ./...

# The race leg carries an explicit -timeout: the engine/shard package
# loads several 3-shard clusters and the race detector's ~10-20x
# slowdown pushes it past go test's default 10m on a 1-core runner.
# That leg is -short, which still covers the 2PC branch paths: the db
# package's TestDist*, TestLocalBranchDifferential (local procedure vs
# Begin/Prepare/Commit, all three -cc modes) and
# TestBranchesRetireVersionChains run on small fixtures and are not
# -short-skipped, and so do shard's TestHomeShardOtherWarehouseLine and
# TestCrossShardDeadlockLiveness (two workers in a cross-shard lock cycle
# only the wait timeout breaks). The buffer manager and the page store,
# where page I/O runs concurrently with everything else, and the log, whose
# force protocol has three entry points racing each other (committers,
# read-only acknowledgements, the buffer manager's ForceTo) and whose size
# is read without its mutex, get the race detector on their full suites
# (gated-device and sleeping-device tests included; seconds each).
test:
	go vet ./...
	go test ./...
	go test -race -short -timeout 30m ./internal/engine/...
	go test -race ./internal/engine/bufmgr/ ./internal/engine/storage/ ./internal/engine/wal/

race:
	go test -race -timeout 60m ./...

# Allocation gate (also part of `make test`): committed New-Order and
# Payment transactions must heap-allocate nothing at one worker, and two
# workers contending for one warehouse under half an allocation per
# committed transaction. Race-free leg only — AllocsPerRun is unreliable
# under the race detector, so the test carries a !race build tag.
alloc-gate:
	go test ./internal/engine/db/ -run TestHotPathAllocationFree -v

# The engine benchmark (BENCHMARK.json) is a Go module of its own inside
# internal/bench, so `go build ./... && go test ./...` at the root never
# compiles it. Vet and test it against the engine's current public surface:
# a root-module change that breaks what the benchmark calls fails here.
bench-module:
	cd internal/bench && go vet ./... && go test ./...

# Engine<->model cross-validation: run the TPC-C mix on the real engine
# with the buffer reference stream tapped, replay it through the LRU stack
# simulation (must match the engine bit for bit), and compare both against
# the synthetic simulation and Che's closed form. Exits 1 on disagreement.
xval:
	go run ./cmd/tpcc-xval -out results-xval

# Per-package statement-coverage floors (internal/buffer, internal/sim,
# internal/engine/bufmgr); leaves the merged profile in coverage.out.
cover:
	./scripts/coverfloor.sh

# Rewrite the checked-in golden sweep TSVs (internal/experiments/testdata/
# golden/) from a serial dense-kernel render. Only after an intentional
# output change; say why in the commit.
regen-golden:
	go test ./internal/experiments/ -run TestGoldenCorpus -regen-golden -v

# Rewrite the checked-in fuzz seed corpora (testdata/fuzz/<FuzzName>/)
# from their generators in the wal and index packages.
regen-fuzz-corpus:
	go test ./internal/engine/wal/ -run TestFuzzSeedCorpus -regen-fuzz-corpus -v
	go test ./internal/engine/index/ -run TestFuzzSeedCorpus -regen-fuzz-corpus -v
	go test ./internal/engine/mvcc/ -run TestFuzzSeedCorpus -regen-fuzz-corpus -v

# Seeded crash-torture campaign over the storage engine, once under each
# concurrency-control mode: 3 seeds x 6 crash schedules with transient I/O
# errors, bit flips, torn writes, and power loss; fails on any lost commit,
# consistency or checksum violation. Doubles as the CI step; the full
# campaign is `go run ./cmd/tpcc-torture -cc <mode>` (5 seeds x 10).
torture:
	for cc in 2pl mvcc ssi; do \
		go run ./cmd/tpcc-torture -cc $$cc -seeds 3 -schedules 6 -v || exit 1; \
	done

# Shard-kill torture over the warehouse-sharded cluster: kills at 2PC
# protocol points (mid-prepare, post-prepare, pre-participant-commit,
# during in-doubt resolution), cluster-wide power loss, recovery, and
# resolution; fails on any lost acked commit, orphaned in-doubt branch,
# broken cross-shard atomicity, or consistency violation. The reduced
# campaign doubles as the CI smoke step; the -race leg reruns the
# in-process reduced campaign under the race detector.
shard-torture:
	go run ./cmd/tpcc-shard -torture -seeds 2 -schedules 4 -txns 200 -workers 4 -v
	go test -race -short -run TestShardTortureReduced ./internal/engine/shard/

# Appendix A cross-shard validation gate: drive a real 3-shard cluster
# with elevated remote probabilities and compare the measured remote-call
# rates against model.DistConfig.Expect() (Tables 6/7). Exits 1 on
# disagreement.
shard-xval:
	go run ./cmd/tpcc-shard -xval -shards 3 -txns 4000 -remote-stock 0.1 -remote-pay 0.3

bench:
	go test -bench=. -benchmem ./...

# Time the ablation sweep at 1/2/4/8 workers and record serial-equivalence
# plus speedup in BENCH_sweep.json.
bench-sweep:
	go run ./cmd/tpcc-repro -bench-sweep BENCH_sweep.json

# Time the stack-distance kernel (seed map-based vs dense pre-mapped) on one
# reduced-scale cell and record output-equivalence plus speedup in
# BENCH_kernel.json.
bench-kernel:
	go run ./cmd/tpcc-repro -bench-kernel BENCH_kernel.json

# Compare one force per commit vs group commit at 1/2/4/8 workers on a log
# device that costs 1 ms a force, and record throughput, commit-latency
# quantiles, and forces per writing commit in BENCH_commit.json.
bench-commit:
	go run ./cmd/tpcc-engine -bench-commit BENCH_commit.json

# Engine throughput-vs-workers benchmark: the same grouped-vs-ungrouped
# grid on a free device with the whole warehouse buffer-resident,
# measuring the hot execution path (txns/sec, allocs/txn) rather than pool churn; records
# BENCH_engine.json.
bench-engine:
	go run ./cmd/tpcc-engine -bench-engine BENCH_engine.json

# Multi-core scalability grid: workers x {striped, global-mutex lock
# manager} x {partitioned, unified buffer pool}, with hardware metadata so
# the recorded curve carries its core count; records BENCH_scale.json.
bench-scale:
	go run ./cmd/tpcc-engine -bench-scale BENCH_scale.json

# Concurrency-control grid: {2pl, mvcc, ssi} x 1/2/4/8 workers with per-type
# abort rates, write-conflict counts, and latency quantiles; records
# BENCH_cc.json (single-worker cells also record the state hash the
# differential gate compares).
bench-cc:
	go run ./cmd/tpcc-engine -bench-cc BENCH_cc.json

# CI gate for the snapshot CC paths: write skew must be admitted under
# mvcc and refused under 2pl/ssi, single-worker committed state must be
# byte-identical across all three modes, mvcc/ssi throughput within 10% of 2PL at 1
# worker, read-only types conflict-free at every worker count.
cc-smoke:
	go run ./cmd/tpcc-engine -cc-smoke -bench-file BENCH_cc.json

# Reduced-scale reproduction of every table and figure (seconds).
repro:
	go run ./cmd/tpcc-repro -scale reduced -out results-reduced

# Paper-scale reproduction: 20 warehouses, 30x100K transactions (minutes).
repro-full:
	go run ./cmd/tpcc-repro -scale full -out results

# Short fuzzing passes over the parsers and core data structures.
fuzz:
	go test -fuzz FuzzDecodeRecord -fuzztime 30s ./internal/engine/wal/
	go test -fuzz FuzzLogMutation -fuzztime 30s ./internal/engine/wal/
	go test -fuzz Fuzz2PCLog -fuzztime 30s ./internal/engine/wal/
	go test -fuzz FuzzBTreeOps -fuzztime 30s ./internal/engine/index/
	go test -fuzz FuzzExactPMFPaths -fuzztime 30s ./internal/nurand/
	go test -fuzz FuzzVisibility -fuzztime 30s ./internal/engine/mvcc/

clean:
	rm -rf results-reduced results-xval coverage.out
