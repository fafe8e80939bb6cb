#!/usr/bin/env bash
# bench.sh — run the benchmark suite and record the repo's perf baseline as
# JSON.
#
# Usage:
#   scripts/bench.sh                 # 5 runs per benchmark -> BENCH_8.json
#   scripts/bench.sh -quick          # <1-minute smoke signal -> BENCH_quick.json
#   COUNT=3 OUT=/tmp/b.json scripts/bench.sh
#
# Output maps each benchmark to its mean ns/op, B/op, and allocs/op across
# COUNT runs. See EXPERIMENTS.md ("Performance baseline") for how the file
# is used to gate regressions between PRs.
#
# -quick mode is for contributors who want a fast signal: one run per
# benchmark with the Figure 11 sweep and the 10k-component scale benchmarks
# (BenchmarkAnalyze10k, BenchmarkRepair10k, BenchmarkSessionReanalyze10k)
# reduced via BLAZES_BENCH_QUICK — the sweep and the scale graphs dominate
# the suite's runtime; quick mode runs the scale benchmarks at 1k. The fast analysis
# benchmarks — including BenchmarkSessionReanalyze vs BenchmarkFullReanalyze,
# the incremental-session speedup pair — run at full fidelity in both
# modes. Quick numbers are a smoke signal only — Fig11's workload differs
# from the baseline's, so never compare BENCH_quick.json against
# BENCH_*.json or commit it as a baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "-quick" || "${1:-}" == "--quick" ]]; then
	QUICK=1
	shift
fi
if [[ $# -gt 0 ]]; then
	echo "usage: scripts/bench.sh [-quick]" >&2
	exit 2
fi

if [[ "$QUICK" == 1 ]]; then
	COUNT="${COUNT:-1}"
	OUT="${OUT:-BENCH_quick.json}"
	export BLAZES_BENCH_QUICK=1
else
	COUNT="${COUNT:-5}"
	OUT="${OUT:-BENCH_8.json}"
fi
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -bench . -benchmem -count "$COUNT" -run '^$' ./... | tee "$RAW"

# Average the per-run lines. Portable awk (no asorti): the sort pre-pass
# groups benchmark lines so names are emitted in lexicographic order.
sort "$RAW" | awk -v count="$COUNT" \
	-v goversion="$(go env GOVERSION)" \
	-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (!(name in seen)) { seen[name] = 1; order[++n] = name }
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op")     { ns[name] += $i; nns[name]++ }
		if ($(i + 1) == "B/op")      { b[name]  += $i; nb[name]++ }
		if ($(i + 1) == "allocs/op") { a[name]  += $i; na[name]++ }
	}
}
END {
	printf "{\n"
	printf "  \"meta\": {\"generated_by\": \"scripts/bench.sh\", \"count\": %d, \"go\": \"%s\", \"date\": \"%s\"},\n", count, goversion, date
	printf "  \"benchmarks\": {\n"
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.2f}%s\n", \
			name, \
			nns[name] ? ns[name] / nns[name] : 0, \
			nb[name] ? b[name] / nb[name] : 0, \
			na[name] ? a[name] / na[name] : 0, \
			(i < n) ? "," : ""
	}
	printf "  }\n}\n"
}' > "$OUT"

echo "wrote $OUT"
