#!/bin/sh
# bench_pr4.sh — regenerate BENCH_PR4.json: before/after numbers for the
# PR 4 wire-amortization work (chain-by-digest references for
# CREDITBATCH, interned dependency certificates).
#
# "Before" numbers are measured from the same tree: the legacy encoders
# (CREDITBATCH with the chain re-encoded per destination, the extended
# certificate form) survive as the NACK fallback and as explicit baseline
# benchmarks — so the comparison stays honest on whatever host this runs
# on. All byte counts are per destination at chain cap 32, quorum 3
# (n=4, f=1), f+1=2 certificate signers.
#
# The BRB commit rows (COMMITBATCH vs COMMITREF bytes per payment) are
# retired with those wire forms: commits are self-contained COMMIT or
# COMMITTAB frames, measured by bench_pr9.sh. The archived output keeps
# the old rows as history.
#
# Usage: scripts/bench_pr4.sh [output.json]   (default BENCH_PR4.json)

set -e
OUT=${1:-BENCH_PR4.json}
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

run() {
	echo "== $*" >&2
	go test -run=NONE -bench "$1" -benchtime "$2" "$3" | tee -a "$TMP" >&2
}

# Credit channel: shared chain encoding + references vs per-destination
# re-encoding; dependency certificates: interned chain table vs per-
# signature inline chains.
run 'BenchmarkCreditWireBytes|BenchmarkDepCertWireBytes|BenchmarkCreditChainEncodeAllocs' 10x ./internal/core/
# End-to-end regression guards: the ECDSA signed-BRB path, and the full
# settlement path through CREDITREFs.
run 'BenchmarkSignedN4ECDSA' 200x ./internal/brb/
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
		if ($i == "bytes/credit") bpc[name] = $(i-1)
		if ($i == "B/op") bop[name] = $(i-1)
		if ($i == "allocs/op") aop[name] = $(i-1)
	}
}
END {
	printf "{\n"
	printf "  \"host\": {\n"
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"cores\": %s,\n", cores
	printf "    \"note\": \"Byte counts are wire bytes per destination at chain cap 32 and are host-independent; ns/op guards are 1-core CI numbers (SettleBatchECDSA varies ~106-128us/payment run-to-run on this host — the PR 3 record was a favorable sample; the guard holds parity within that band). creditref-cold includes the once-per-destination CHAINDEF; creditref-warm is every later reference to a defined chain. Dependency-certificate bytes assume aligned waves (deterministic enqueue order), where the f+1 signers chains intern to one table entry; unaligned waves fall back to one entry per distinct chain.\"\n"
	printf "  },\n"
	printf "  \"before\": {\n"
	printf "    \"Credit_channel_bytes_per_credit_creditbatch\": %s,\n", bpc["BenchmarkCreditWireBytes/creditbatch-pr3"]
	printf "    \"DepCert_bytes_per_credit_extended\": %s,\n", bpc["BenchmarkDepCertWireBytes/extended-pr3"]
	printf "    \"CreditWave_encode_B_op\": %s,\n", bop["BenchmarkCreditChainEncodeAllocs/per-dest-pr3"]
	printf "    \"CreditWave_encode_allocs_op\": %s,\n", aop["BenchmarkCreditChainEncodeAllocs/per-dest-pr3"]
	printf "    \"SignedN4ECDSA_pr2_ns_op\": 211506,\n"
	printf "    \"SettleBatchECDSA_pr3_ns_per_payment\": 106038\n"
	printf "  },\n"
	printf "  \"after\": {\n"
	printf "    \"Credit_channel_bytes_per_credit_ref_cold\": %s,\n", bpc["BenchmarkCreditWireBytes/creditref-cold"]
	printf "    \"Credit_channel_bytes_per_credit_ref_warm\": %s,\n", bpc["BenchmarkCreditWireBytes/creditref-warm"]
	printf "    \"DepCert_bytes_per_credit_interned\": %s,\n", bpc["BenchmarkDepCertWireBytes/interned"]
	printf "    \"CreditWave_encode_B_op\": %s,\n", bop["BenchmarkCreditChainEncodeAllocs/shared-ref"]
	printf "    \"CreditWave_encode_allocs_op\": %s,\n", aop["BenchmarkCreditChainEncodeAllocs/shared-ref"]
	printf "    \"SignedN4ECDSA_ns_op\": %s,\n", ns["BenchmarkSignedN4ECDSA"]
	printf "    \"SettleBatchECDSA_ns_per_payment\": %s\n", ns["BenchmarkSettleBatchECDSA"]
	printf "  },\n"
	printf "  \"summary\": [\n"
	printf "    \"Chain-by-digest references on the credit channel: a wave chain crosses the wire to each destination at most once (CREDITCHAINDEF), credits reference it by digest, and a cache miss — evicted or never-seen chain — NACKs back to the sender, which degrades to the self-contained CREDITBATCH.\",\n"
	printf "    \"Receivers bound the reference state with per-peer LRU chain caches (no peer can evict another chains), and senders retain recent credit waves so a NACK is answered from a bounded buffer.\",\n"
	printf "    \"CREDITREF sends the wave chain once per destination and encodes it once per wave into ChainSigner pooled Wave scratch (0 allocs/wave vs one full re-encode per destination), with the signature verified against the carried chain digest.\",\n"
	printf "    \"Dependency certificates intern chains (depCertInterned wire form): the chain table encodes each distinct chain once per certificate, and postSettle enqueues credit groups in deterministic representative order so aligned waves make the f+1 signers chains byte-identical — one table entry where the extended form carried f+1 full copies.\"\n"
	printf "  ]\n"
	printf "}\n"
}' "$TMP" > "$OUT"
echo "wrote $OUT" >&2
