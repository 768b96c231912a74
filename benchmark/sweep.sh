#!/usr/bin/env bash
# Runs every workload once per seed, untraced, and appends the runs to a
# results file for -compare: bash benchmark/sweep.sh out.jsonl [seed...]
# Ten seeds by default, the number the acceptance spread is taken over.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
results="${1:?usage: sweep.sh results.jsonl [seed...]}"
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(101 102 103 104 105 106 107 108 109 110)
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
for seed in "${seeds[@]}"; do
	for w in search.interp rows.fresh rows.zipf mixed.write; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --results "$results" | tail -n 1
	done
done
