#!/bin/sh
# bench_restore.sh — run the high-availability benchmarks (snapshot
# encode/decode at cluster scale, cold-vs-warm takeover time-to-first-
# caps, the warm side from a young and from an aged donor) with -benchmem
# and emit the machine-readable BENCH_restore.json tracked per PR.
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 5x; use 1x for a smoke run)
#   OUT        output JSON path (default BENCH_restore.json in the repo root)
#
# The codec pair (BenchmarkSnapshotCodec) runs at N=16384 and N=262144;
# the latter is built straight from a core export because the daemon
# protocol addresses at most 65536 units, which is also why the takeover
# pair (BenchmarkTakeoverFirstRound) tops out at N=65536.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-5x}"
OUT="${OUT:-BENCH_restore.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run xxx -bench 'BenchmarkSnapshotCodec|BenchmarkTakeoverFirstRound' \
	-benchtime "$BENCHTIME" -benchmem ./internal/daemon/ | tee "$RAW"

GOVER="$(go version | awk '{print $3}')"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
	COMMIT="${COMMIT}-dirty"
fi

awk -v gover="$GOVER" -v commit="$COMMIT" -v benchtime="$BENCHTIME" '
/^Benchmark(SnapshotCodec|TakeoverFirstRound)\// {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	iters = $2
	metrics = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		val = $i
		unit = $(i + 1)
		if (metrics != "") metrics = metrics ", "
		metrics = metrics "\"" unit "\": " val
	}
	if (rows != "") rows = rows ",\n"
	rows = rows "    {\"name\": \"" name "\", \"iterations\": " iters ", \"metrics\": {" metrics "}}"
	# Capture the cold/warm takeover pair at each N for the summary.
	n = name; sub(/^.*N=/, "", n); sub(/\/.*$/, "", n)
	if (name ~ /^TakeoverFirstRound\/cold\//) cold[n] = $3
	if (name ~ /^TakeoverFirstRound\/warm\/.*donor=3rounds$/) warm[n] = $3
	if (name ~ /^TakeoverFirstRound\/warm\/.*donor=1e7draws$/) aged[n] = $3
}
END {
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkSnapshotCodec + BenchmarkTakeoverFirstRound\",\n"
	printf "  \"generated_by\": \"scripts/bench_restore.sh\",\n"
	printf "  \"go\": \"%s\",\n", gover
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"note\": \"codec = per-round image assembly (encode) and boot-time parse (decode); takeover = time-to-first-caps, where cold is a fresh controller\x27s constant-allocation round and warm is restore-from-snapshot plus a continuing round, from a donor three rounds old and from the same donor 1e7 PRNG draws on (the image carries the generator register, so the two must agree). 262144-unit codec rows come from a direct core export (the agent protocol addresses at most 65536 units).\",\n"
	printf "  \"takeover_summary\": [\n"
	first = 1
	for (n in cold) {
		if (n in warm && n in aged) {
			if (!first) printf ",\n"
			first = 0
			printf "    {\"units\": %s, \"cold_ns_per_op\": %s, \"warm_ns_per_op\": %s, \"warm_aged_donor_ns_per_op\": %s}", n, cold[n], warm[n], aged[n]
		}
	}
	printf "\n  ],\n"
	printf "  \"results\": [\n%s\n  ]\n", rows
	printf "}\n"
}' "$RAW" >"$OUT"

echo "wrote $OUT"
