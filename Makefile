# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race alloc-gate bench-module bench bench-sweep bench-commit \
	bench-cc torture shard-torture shard-xval repro repro-full fuzz xval \
	cover regen-golden regen-fuzz-corpus clean

all: build test

# The build fails on any file gofmt would change, so an unformatted tree
# stops CI at its first step. It also vets the engine benchmark, a module of
# its own (see bench-module): an engine change that breaks what the
# benchmark calls fails the build, whatever the benchmark's own tests say.
build:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	go build ./...
	go vet ./...
	cd internal/bench && go vet ./...

# The race leg carries an explicit -timeout: the engine/shard package
# loads several 3-shard clusters and the race detector's ~10-20x
# slowdown pushes it past go test's default 10m on a 1-core runner.
# That leg is -short, which still covers the 2PC branch paths: the db
# package's TestDist*, TestLocalBranchDifferential (local procedure vs
# Begin/Prepare/Commit, all three -cc modes) and
# TestBranchesRetireVersionChains run on small fixtures and are not
# -short-skipped, and so do shard's TestHomeShardOtherWarehouseLine and
# TestCrossShardDeadlockLiveness (two workers in a cross-shard lock cycle,
# which the shards' shared wait-for graph detects). The buffer manager and
# the page store, where page I/O — demand misses, read-aheads, write-backs
# — runs concurrently with everything else, the log, whose force protocol has
# three entry points racing each other (committers, read-only
# acknowledgements, the buffer manager's ForceTo) and whose size is read
# without its mutex, and the lock manager, the index, the version store and
# keytab (the hash table the lock manager and the version store share),
# whose suites are small, get the race detector on their full suites
# (gated-device and sleeping-device tests included; seconds each). The
# buffer manager's write-back tests then run ten times more under it: a
# miss starts up to 16 clean-ahead writes at once, and their interleavings
# with eviction, Crash and FlushAll differ from run to run; so do the
# one-visit record read's against a writer of the same page, against its
# Pin/Unpin oracle and, batched, against the same reads one at a time
# (~40 s). So do, fifty times, the lock manager's
# concurrent tests: two managers on one wait-for graph, where a lost wake-up
# or a second victim of one cross-manager cycle would show; goroutines on
# Owners of their own racing over a few hot keys; the differential
# schedules; and the TxnID-keyed wrapper's cross-stripe cycle, whose
# requesters each release their own locks through the registry (~25 s).
# The version store's gate stress test runs twenty times more: snapshot
# readers race writers that abort at random on one shard, and a reader
# can resolve an aborted image only if a writer's rollback lands between
# its heap read and its resolution (~5 s).
test:
	go vet ./...
	go test ./...
	go test -race -short -timeout 30m ./internal/engine/...
	go test -race ./internal/engine/bufmgr/ ./internal/engine/storage/ ./internal/engine/wal/ \
		./internal/engine/lock/ ./internal/engine/index/ ./internal/engine/mvcc/ \
		./internal/engine/keytab/
	go test -race -count=10 -run 'Clean|Crash|FlushAll|Overlap|WriteBack|ReadRecord' ./internal/engine/bufmgr/
	go test -race -count=50 -run 'TestCycleAcrossManagers|TestConcurrentStress|TestStripedDifferential|TestCrossStripeDeadlock' \
		./internal/engine/lock/
	go test -race -count=20 -run 'TestGateStress' ./internal/engine/mvcc/

race:
	go test -race -timeout 60m ./...

# Allocation gate (also part of `make test`): committed New-Order,
# Payment, Stock-Level and Order-Status transactions must heap-allocate
# nothing at one worker, and two workers contending for one warehouse
# under half an allocation per committed transaction. Race-free leg only — AllocsPerRun is unreliable
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
	go run ./cmd/tpcc-check -out results-xval xval

# Per-package statement-coverage floors (scripts/coverfloor.sh lists the
# packages); leaves the merged profile in coverage.out.
cover:
	./scripts/coverfloor.sh

# Rewrite the checked-in golden sweep TSVs (internal/experiments/testdata/
# golden/) from a serial dense-kernel render. Only after an intentional
# output change; say why in the commit.
regen-golden:
	go test ./internal/experiments/ -run TestGoldenCorpus -regen-golden -v

# Rewrite the checked-in fuzz seed corpora (testdata/fuzz/<FuzzName>/)
# from their generators in the wal, index, mvcc and keytab packages.
regen-fuzz-corpus:
	go test ./internal/engine/wal/ -run TestFuzzSeedCorpus -regen-fuzz-corpus -v
	go test ./internal/engine/index/ -run TestFuzzSeedCorpus -regen-fuzz-corpus -v
	go test ./internal/engine/mvcc/ -run TestFuzzSeedCorpus -regen-fuzz-corpus -v
	go test ./internal/engine/keytab/ -run TestFuzzSeedCorpus -regen-fuzz-corpus -v

# The crash-torture campaign (shard.Torture), once under each
# concurrency-control mode, at its two CI sizes. Every schedule runs seeded
# TPC-C load under transient I/O errors and bit flips, with a device crash
# fuse (torn or dropped write, arbitrary I/O) armed on one shard and a
# shard kill armed at a drawn 2PC protocol point (mid-prepare,
# after-prepare, before-participant-commit, during-resolve), then
# cluster-wide power loss, recovery and in-doubt resolution. It fails on an
# orphaned in-doubt branch, a page checksum or C1-C4 violation, a lost or
# phantom order, order-line or history row, a broken
# stock-YTD/order-line-quantity equation, or an undetected directed bit
# flip. `torture` is one shard (3 seeds x 6 schedules x 400 transactions,
# group commit); `shard-torture` is three (2 x 4 x 200, one force per
# commit, plus a held-down-shard phase per seed) and reruns the reduced
# in-process campaign's 2pl cells, N = 1 and N = 3, under the race
# detector (fault's TestTortureShort and shard's TestShardTortureReduced
# -short, ~8 min on 2 cores, hence the explicit -timeout; see the test
# target). The full
# campaign: go run ./cmd/tpcc-check -seeds 5 -schedules 10 torture (or
# shard-torture).
torture:
	go run ./cmd/tpcc-check -v torture

shard-torture:
	go run ./cmd/tpcc-check -v shard-torture
	go test -race -short -timeout 30m -run 'TestTortureShort|TestShardTortureReduced' \
		./internal/engine/fault/ ./internal/engine/shard/

# Appendix A cross-shard validation gate: drive a real 3-shard cluster
# with elevated remote probabilities and compare the measured remote-call
# rates against model.DistConfig.Expect() (Tables 6/7). Exits 1 on
# disagreement.
shard-xval:
	go run ./cmd/tpcc-check shard-xval

bench:
	go test -bench=. -benchmem ./...

# Time the ablation sweep at 1/2/4/8 workers and record serial-equivalence
# plus speedup in BENCH_sweep.json.
bench-sweep:
	go run ./cmd/tpcc-repro -bench-sweep BENCH_sweep.json

# Re-record BENCH_commit.json: the commit gate (one force per commit vs
# group commit at 1/2/4/8 workers on a log device that costs 1 ms a force,
# read-only commits under 2pl/mvcc/ssi) at 4000 transactions a cell. The
# file is written only if the gate passes; `go test ./cmd/tpcc-check`
# re-checks it.
bench-commit:
	go run ./cmd/tpcc-check -txns 4000 -out . commit

# Re-record BENCH_cc.json: the cc gate ({2pl, mvcc, ssi} x 1/2/4/8
# workers, three same-seed runs each, with per-type abort rates,
# write-conflict counts, latency quantiles and state hashes) at 8000
# transactions a cell. Written only if the gate passes; `go test
# ./cmd/tpcc-check` re-checks it. Which anomalies each mode admits is
# db.TestAnomalyMatrix's, in `make test`.
bench-cc:
	go run ./cmd/tpcc-check -txns 8000 -out . cc

# Reduced-scale reproduction of every table and figure (seconds). One
# experiment alone: go run ./cmd/tpcc-repro -out DIR fig5 (the name is the
# TSV stem it writes).
repro:
	go run ./cmd/tpcc-repro -scale reduced -out results-reduced

# Paper-scale reproduction: 20 warehouses, 30x100K transactions (minutes).
repro-full:
	go run ./cmd/tpcc-repro -scale full -out results

# Short fuzzing passes over the parsers and core data structures.
fuzz:
	go test -fuzz FuzzDecodeRecord -fuzztime 30s ./internal/engine/wal/
	go test -fuzz FuzzRecordRoundTrip -fuzztime 30s ./internal/engine/wal/
	go test -fuzz FuzzLogMutation -fuzztime 30s ./internal/engine/wal/
	go test -fuzz Fuzz2PCLog -fuzztime 30s ./internal/engine/wal/
	go test -fuzz FuzzBTreeOps -fuzztime 30s ./internal/engine/index/
	go test -fuzz FuzzDenseOps -fuzztime 30s ./internal/engine/index/
	go test -fuzz FuzzExactPMFPaths -fuzztime 30s ./internal/nurand/
	go test -fuzz FuzzVisibility -fuzztime 30s ./internal/engine/mvcc/
	go test -fuzz FuzzTable -fuzztime 30s ./internal/engine/keytab/

clean:
	rm -rf results-reduced results-xval coverage.out
