#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs the suite as four sets A, B,
# A, B of the same build, each set RUNS runs per workload under seeds
# 1..RUNS, and compares the medians of the A runs with those of the B
# runs, metric by metric, against the bounds in BENCHMARK.json. Fails if
# two sets of the same code differ by more than a bound, or if a
# metric's spread over all runs exceeds it.
#
#   bench/repeat.sh [RUNS]        default 5; 4 × 4 × RUNS runs of ~20 s
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
runs="${1:-5}"
out="$root/bench/out/repeat"
rm -rf "$out"
mkdir -p "$out"
for set in A1 B1 A2 B2; do
  for w in weblog_stream sparse_scan batch_rows doc_edit; do
    for ((seed = 1; seed <= runs; seed++)); do
      line="$(bash "$root/bench/run.sh" --workload "$w" --seed "$seed" --seconds 12 --trace 0 | tail -n 1)"
      echo "$w $line" >>"$out/$set.txt"
      echo "$set $w seed $seed done" >&2
    done
  done
done
bash "$root/bench/run.sh" -compare "$root/BENCHMARK.json" "$out"/A1.txt "$out"/B1.txt "$out"/A2.txt "$out"/B2.txt
