#!/bin/sh
# bench_decide.sh — run BenchmarkDecideScaling (plus the tracing on/off
# overhead pairs) with -benchmem and emit the machine-readable
# BENCH_decide.json tracked per PR.
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 20x; use 1x for a smoke run)
#   OUT        output JSON path (default BENCH_decide.json in the repo root)
#
# The tracing delta is far below one run's noise on a shared host, so the
# off/on pair is run seven times, the side that goes first alternating so
# that order and warm-up bias cancel, and the pair with the median overhead
# is the one reported (all of them are listed beside it).
#
# The embedded baseline block records the pre-sparse-rounds numbers for
# the N=<units> rows' trace (commit 3a289ac, Intel Xeon @ 2.10GHz: every
# unit processed every round, O(n) increase-pass shuffle) so the JSON
# alone is enough to compute the speedup without checking out the old
# tree.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-20x}"
OUT="${OUT:-BENCH_decide.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
RAW="$TMP/raw"

go test -c -o "$TMP/dps.test" .
"$TMP/dps.test" -test.run xxx -test.bench BenchmarkDecideScaling \
	-test.benchtime "$BENCHTIME" -test.benchmem | tee "$RAW"
trace_side() {
	"$TMP/dps.test" -test.run xxx -test.bench "BenchmarkDecideTraceOverhead/tracer=$1\$" \
		-test.benchtime "$BENCHTIME" -test.benchmem | grep '^Benchmark' | tee -a "$RAW"
}
for i in 1 2 3 4 5 6 7; do
	if [ $((i % 2)) -eq 1 ]; then
		trace_side off
		trace_side on
	else
		trace_side on
		trace_side off
	fi
done

GOVER="$(go version | awk '{print $3}')"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# A tree whose only modification is the output file itself is still the
# commit it says it is.
if git diff --name-only HEAD 2>/dev/null | grep -qvxF "$OUT"; then
	COMMIT="${COMMIT}-dirty"
fi

awk -v gover="$GOVER" -v commit="$COMMIT" -v benchtime="$BENCHTIME" '
/^BenchmarkDecideScaling\// {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^BenchmarkDecideScaling\//, "", name)
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
}
/^BenchmarkDecideTraceOverhead\// {
	for (i = 3; i + 1 <= NF; i += 2) {
		if ($(i + 1) == "ns/op") {
			if ($1 ~ /tracer=off/) off[++noff] = $i
			if ($1 ~ /tracer=on/) on[++non] = $i
		}
	}
}
END {
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkDecideScaling\",\n"
	printf "  \"generated_by\": \"scripts/bench_decide.sh\",\n"
	printf "  \"go\": \"%s\",\n", gover
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"baseline\": {\n"
	printf "    \"commit\": \"3a289ac\",\n"
	printf "    \"host\": \"Intel Xeon @ 2.10GHz\",\n"
	printf "    \"note\": \"pre-sparse-rounds round: every unit processed every round, O(n) increase-pass shuffle\",\n"
	printf "    \"ns_per_op\": {\"N=1024\": 63863, \"N=4096\": 385972, \"N=16384\": 1563029}\n"
	printf "  },\n"
	pairs = noff < non ? noff : non
	if (pairs > 0) {
		# Order the pairs by overhead (insertion sort over an index) and
		# report the middle one.
		for (i = 1; i <= pairs; i++) {
			pct[i] = (on[i] - off[i]) / off[i] * 100
			idx[i] = i
		}
		for (i = 2; i <= pairs; i++)
			for (j = i; j > 1 && pct[idx[j]] < pct[idx[j - 1]]; j--) {
				t = idx[j]; idx[j] = idx[j - 1]; idx[j - 1] = t
			}
		m = idx[int((pairs + 1) / 2)]
		all = ""
		for (i = 1; i <= pairs; i++) all = all (i > 1 ? ", " : "") sprintf("%.2f", pct[i])
		printf "  \"trace_overhead\": {\n"
		printf "    \"benchmark\": \"BenchmarkDecideTraceOverhead (N=4096)\",\n"
		printf "    \"note\": \"span recording adds sub-microsecond work to a ~100us round; seven off/on pairs are run, the side that goes first alternating; the pair with the median overhead is reported and pairs_pct lists every pair in run order\",\n"
		printf "    \"pairs\": %d,\n", pairs
		printf "    \"tracer_off_ns_per_op\": %s,\n", off[m]
		printf "    \"tracer_on_ns_per_op\": %s,\n", on[m]
		printf "    \"overhead_pct\": %.2f,\n", pct[m]
		printf "    \"pairs_pct\": [%s]\n", all
		printf "  },\n"
	}
	printf "  \"results\": [\n%s\n  ]\n", rows
	printf "}\n"
}' "$RAW" >"$OUT"

echo "wrote $OUT"
