# Astro reproduction — build and verification targets.
#
# `make check` is the default gate: build, vet, tests, the race suite
# over the concurrency-heavy packages, and vet plus race tests of the
# benchmark module. `make verify` remains as an alias.

GO ?= go

.PHONY: all build test vet race paybench-check bench bench-pr2 bench-pr3 bench-pr4 bench-pr5 bench-pr6 bench-pr9 bench-pr10 fuzz-smoke chaos-smoke chaos-smoke-tcp soak profile profile-mem check verify

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector pass over the lane scheduler, transport dispatch, and the
# crypto/broadcast/payment hot path — the packages with cross-goroutine
# completions, flow stealing, and per-channel dispatch (including the PR 4
# credit chain-reference caches, the tcpnet dial/redial liveness tests, the
# PR 6 WAL writer/crash-recovery paths, the PR 7 Byzantine/chaos
# interposition layer with its always-on auditor, and the PR 10 embedded
# KV store behind the paged account state).
race:
	$(GO) test -race ./internal/sched/... ./internal/types/... ./internal/transport/... ./internal/crypto/... ./internal/brb/... ./internal/core/... ./internal/wal/... ./internal/kv/...
	$(GO) test -race -run 'Byzantine|Equivocation|Chaos|Partition|Reconfiguration|Auditor|LinkDelay' ./internal/sim/

# The benchmark module (paybench/) imports this one through a replace
# directive, so `go build ./...` and `go test ./...` here do not see it:
# vet it and run its race tests, so a change to an API it uses fails the
# gate instead of the benchmark.
paybench-check:
	$(GO) -C paybench vet ./...
	$(GO) -C paybench test -race ./...

# Headline benchmarks: parallel certificate verification, signed BRB, and
# the end-to-end ECDSA settlement path.
bench:
	$(GO) test -run=NONE -bench 'BenchmarkVerifyCertificateParallel|BenchmarkVerifyBatchClientSigs' -benchtime=100x ./internal/crypto/
	$(GO) test -run=NONE -bench 'BenchmarkSignedN10' -benchtime=1000x ./internal/brb/
	$(GO) test -run=NONE -bench 'BenchmarkSettleBatchECDSA' -benchtime=500x ./internal/core/

# PR 2 evidence: mixed-channel dispatch throughput (sharded vs serial
# baseline), async/chain-batched ack signing, and batched-ack settlement.
# Regenerates BENCH_PR2.json with numbers measured on this host.
bench-pr2:
	sh scripts/bench_pr2.sh BENCH_PR2.json

# PR 3 evidence: striped settlement state (vs the global-lock baseline,
# Config.StateStripes=1) and settlement-wave CREDIT signing (per-credit
# ECDSA amortization). Regenerates BENCH_PR3.json.
bench-pr3:
	sh scripts/bench_pr3.sh BENCH_PR3.json

# Credit wire-amortization evidence: wire bytes per credit at chain cap
# 32 — credit chain-by-digest references (CREDITCHAINDEF/CREDITREF) and
# interned dependency certificates vs the self-contained forms, which
# remain measured from the same tree as the NACK fallback. The BRB
# commit rows of the archived file went with the commit reference forms.
# Regenerates BENCH_PR4.json.
bench-pr4:
	sh scripts/bench_pr4.sh BENCH_PR4.json

# PR 5 evidence: the three concurrency substrates on the unified lane
# scheduler vs their dedicated-goroutine baselines — sharded-goroutine vs
# lane dispatch (transport), spawn-per-delivery vs pinned-stripe settle
# fan-out (core), worker-pool vs lane verify (crypto) — plus the 1-core
# end-to-end time guards. Regenerates BENCH_PR5.json.
bench-pr5:
	sh scripts/bench_pr5.sh BENCH_PR5.json

# PR 6 evidence: settle throughput with the file-backed WAL vs the Nop
# (scheduler-only) and memory-only baselines, amortized WAL append cost,
# and recovery-replay time vs log length. Regenerates BENCH_PR6.json.
bench-pr6:
	sh scripts/bench_pr6.sh BENCH_PR6.json

# PR 9 evidence: continuation-style commit coordinators vs the goroutine-
# per-commit baseline, tabled COMMITTAB bytes per payment, and
# batch-level chain interning (v2 payment batches). The spawn/alloc
# guards themselves ride
# `make test`/`make check` (internal/core/pipeline_guard_test.go).
# Regenerates BENCH_PR9.json.
bench-pr9:
	sh scripts/bench_pr9.sh BENCH_PR9.json

# PR 10 evidence: paged account state over the embedded KV store —
# resident heap per account across population × cache grids (the
# O(hot-set) claim), hot vs cold-fault settle cost, incremental vs full
# snapshot, and the paged vs resident restart-time curve.
# Regenerates BENCH_PR10.json.
bench-pr10:
	sh scripts/bench_pr10.sh BENCH_PR10.json

# Short fuzz pass over every wire/record decoder harness — the chain,
# ACKBATCH and tabled commit forms (brb), the credit channel, durable
# snapshot, and manifest images (core), the WAL frame scanner (wal), and
# the KV record/index parsers that recovery trusts (kv). ~10s per
# fuzzer; CI-smoke depth, not a soak.
FUZZTIME ?= 10s
fuzz-smoke:
	for f in FuzzScanFrames FuzzFileLoad; do \
		$(GO) test -run=NONE -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) ./internal/wal/ || exit 1; done
	for f in FuzzDecodeKVPage FuzzDecodeKVIndex; do \
		$(GO) test -run=NONE -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) ./internal/kv/ || exit 1; done
	for f in FuzzDecodeCreditChannel FuzzDecodeBatch FuzzDecodeDependency FuzzDecodeReplicaImage FuzzDecodeManifest FuzzDecodePaymentChannel; do \
		$(GO) test -run=NONE -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) ./internal/core/ || exit 1; done
	for f in FuzzDecodeChainDef FuzzDecodeAckBatch FuzzDecodeCommitTab; do \
		$(GO) test -run=NONE -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) ./internal/brb/ || exit 1; done
	$(GO) test -run=NONE -fuzz="^FuzzDecodeReconfigChannel$$" -fuzztime=$(FUZZTIME) ./internal/reconfig/

# Seeded Byzantine + chaos scenario matrix under the invariant auditor:
# every malicious behavior at f faulty (clean audit required), the f+1
# collusion that must be detected, chaos/partition soaks, kill -9 under
# partition, and reconfiguration (join + crash-leave) under live load
# with faults active. Deterministic per seed; CI-smoke depth.
chaos-smoke:
	$(GO) test -count=1 -run 'Byzantine|Equivocation|Chaos|Partition|Reconfiguration|Auditor|LinkDelay' ./internal/sim/
	$(GO) test -count=1 -race -run 'NackStorm|NackUnregistered' ./internal/brb/ ./internal/core/
	$(GO) test -count=1 -run 'ViaFacade' .

# The scenario matrix across real astro-node processes on real TCP:
# Byzantine behavior at f under per-link chaos, a scheduled
# partition→heal with a kill -9/WAL-restart mid-partition, and the
# Byzantine-client storm at a live payment edge — each ending in the
# out-of-process invariant audit over state-transfer snapshots.
# CI-sized (builds astro-node once, ~30s total).
chaos-smoke-tcp:
	$(GO) test -count=1 ./internal/e2e/

# Long-soak survival harness — NOT a CI test. Minutes of randomized
# kill -9/restart cycles, a rotating Byzantine seat, a hostile client,
# and seeded chaos on a durable N>=7 cluster, under the always-on
# auditor, ending in a quiescent conservation check. Tune with e.g.
# SOAK_DURATION=30m, SOAK_FLAGS='-n 10 -clients 16 -seed 7'.
SOAK_DURATION ?= 2m
SOAK_FLAGS ?=
soak:
	$(GO) run ./cmd/astro-soak -duration $(SOAK_DURATION) $(SOAK_FLAGS)

# Mutex-contention profile of the settlement engine: runs the striped
# settle benchmark with mutex profiling and prints the top contended
# call paths (artifacts: core.test, mutex.out).
profile:
	$(GO) test -run=NONE -bench BenchmarkStripedSettle -benchtime=200000x \
		-mutexprofile=mutex.out -o core.test ./internal/core/
	$(GO) tool pprof -top -nodecount=20 core.test mutex.out

# Heap profile of the paged state at scale: runs the 100k-account rows
# of the bytes/account grid under -memprofile and prints the top
# allocators by allocated space — where the per-account bytes come from
# (benchmark states are dead by profile-write time, so alloc_space is
# the meaningful index; artifacts: core.test, mem.out).
profile-mem:
	$(GO) test -run=NONE -bench 'BenchmarkStateBytesPerAccount/accounts=100000/' -benchtime=1x \
		-memprofile=mem.out -o core.test ./internal/core/
	$(GO) tool pprof -top -nodecount=20 -sample_index=alloc_space core.test mem.out

check: build vet test race paybench-check chaos-smoke-tcp

verify: check
