#!/bin/sh
# bench_pr9.sh — regenerate BENCH_PR9.json: before/after numbers for the
# PR 9 goroutine-free, allocation-lean message pipeline.
#
# "Before" numbers are measured from the same tree: the goroutine-per-
# commit coordinator survives behind Config.CommitSpawn and the v1 batch
# encoding as the baseline encoder — so every comparison runs both sides
# on this host.
#
# Measured:
#   - commit latency: continuation-style coordinators (detached verifier
#     continuations, zero goroutines per commit) vs spawn-per-commit;
#   - chained commit bytes/payment: tabled COMMITTAB;
#   - payment-batch bytes/payment: batch-wide chain table (v2) vs
#     per-certificate chains (v1);
#   - end-to-end regression guard: full ECDSA settlement path.
#
# The BRB commit reference rows (lazy vs eager CHAINDEF, legacy
# COMMITBATCH) are retired with those wire forms; the archived output
# keeps them as history.
#
# Usage: scripts/bench_pr9.sh [output.json]   (default BENCH_PR9.json)

set -e
OUT=${1:-BENCH_PR9.json}
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

run() {
	echo "== $*" >&2
	go test -run=NONE -bench "$1" -benchtime "$2" "$3" | tee -a "$TMP" >&2
}

# Commit coordinators: continuation vs goroutine-per-commit, same ECDSA
# N=4 pipeline.
run 'BenchmarkCommitContinuationECDSA|BenchmarkCommitSpawnECDSA' 200x ./internal/brb/
# Tabled commit bytes.
run 'BenchmarkCommitTabWireBytes' 10x ./internal/brb/
# Batch-level chain interning on the payment wire.
run 'BenchmarkBatchChainWireBytes' 10x ./internal/core/
# End-to-end regression guard (continuations are the default, so this
# measures the continuation pipeline).
run 'BenchmarkSettleBatchECDSA' 500x ./internal/core/

CORES=$(nproc 2>/dev/null || echo 1)
CPU=$(awk -F': ' '/model name/{print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)

awk -v cores="$CORES" -v cpu="$CPU" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns[name] = $(i-1)
		if ($i == "bytes/payment") bpp[name] = $(i-1)
	}
}
END {
	printf "{\n"
	printf "  \"host\": {\n"
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"cores\": %s,\n", cores
	printf "    \"note\": \"Byte counts encode the exact messages each mode sends (chain cap 32, quorum 3, per destination) and are host-independent; ns/op numbers are 1-core CI samples — on a 1-core host continuation vs spawn is parity-or-better, the win is the removed per-commit goroutine (see the sched.Spawns guard in internal/core/pipeline_guard_test.go).\"\n"
	printf "  },\n"
	printf "  \"before\": {\n"
	printf "    \"CommitSpawnECDSA_ns_op\": %s,\n", ns["BenchmarkCommitSpawnECDSA"]
	printf "    \"Batch_bytes_per_payment_v1\": %s\n", bpp["BenchmarkBatchChainWireBytes/per-cert-v1"]
	printf "  },\n"
	printf "  \"after\": {\n"
	printf "    \"CommitContinuationECDSA_ns_op\": %s,\n", ns["BenchmarkCommitContinuationECDSA"]
	printf "    \"Commit_bytes_per_payment_committab\": %s,\n", bpp["BenchmarkCommitTabWireBytes/tabled"]
	printf "    \"Batch_bytes_per_payment_v2\": %s,\n", bpp["BenchmarkBatchChainWireBytes/batch-table-v2"]
	printf "    \"SettleBatchECDSA_ns_per_payment\": %s\n", ns["BenchmarkSettleBatchECDSA"]
	printf "  },\n"
	printf "  \"summary\": [\n"
	printf "    \"Continuation-style commit coordinators replace the goroutine-per-commit baseline: commit verification runs as detached continuations on the verifier lanes (TryAsync submission can never wedge a full queue against itself), commitVerified only takes the protocol lock and drains deliveries, and the sched.Spawns guard asserts steady-state settlement spawns zero goroutines.\",\n"
	printf "    \"The tabled COMMITTAB (every chained commit certificate) and the v2 payment-batch form intern chains at message/batch level: each distinct chain is encoded once per message instead of once per certificate.\"\n"
	printf "  ]\n"
	printf "}\n"
}' "$TMP" > "$OUT"
echo "wrote $OUT" >&2
