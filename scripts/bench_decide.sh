#!/bin/sh
# bench_decide.sh — run BenchmarkDecideScaling (plus the tracing on/off
# overhead pair) with -benchmem and emit the machine-readable
# BENCH_decide.json tracked per PR.
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 20x; use 1x for a smoke run)
#   OUT        output JSON path (default BENCH_decide.json in the repo root)
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
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run xxx -bench 'BenchmarkDecideScaling|BenchmarkDecideTraceOverhead' \
	-benchtime "$BENCHTIME" -benchmem . | tee "$RAW"

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
			if ($1 ~ /tracer=off/) trace_off = $i
			if ($1 ~ /tracer=on/) trace_on = $i
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
	if (trace_off != "" && trace_on != "") {
		pct = "null"
		if (trace_off + 0 > 0) pct = sprintf("%.2f", (trace_on - trace_off) / trace_off * 100)
		printf "  \"trace_overhead\": {\n"
		printf "    \"benchmark\": \"BenchmarkDecideTraceOverhead (N=4096)\",\n"
		printf "    \"note\": \"span recording adds sub-microsecond work to a ~100us round; a small or negative pct is host noise, not a speedup\",\n"
		printf "    \"tracer_off_ns_per_op\": %s,\n", trace_off
		printf "    \"tracer_on_ns_per_op\": %s,\n", trace_on
		printf "    \"overhead_pct\": %s\n", pct
		printf "  },\n"
	}
	printf "  \"results\": [\n%s\n  ]\n", rows
	printf "}\n"
}' "$RAW" >"$OUT"

echo "wrote $OUT"
