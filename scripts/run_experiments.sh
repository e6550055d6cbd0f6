#!/usr/bin/env bash
# Runs every paper-reproduction experiment (release build) and writes the
# outputs to results/exp_*.txt. See DESIGN.md §4 for the experiment index
# and EXPERIMENTS.md for the interpretation of each table.
#
# Fully offline: all dependencies are vendored path crates, so no network
# access is needed (or attempted) at any point.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-results}
mkdir -p "$OUT"
export CARGO_NET_OFFLINE=true

cargo build --release -p streammeta-bench --bins

# One experiment failing must not silence the rest: each binary runs
# individually, its status is recorded, and the summary (plus the exit
# code) reports every failure at the end.
declare -a passed=() failed=()
# Every exp_e<N>_*.rs of the bench crate is an experiment; version sort
# puts them in numeric order of N.
for exp in $(basename -s .rs crates/bench/src/bin/exp_e*.rs | sort -V); do
    echo "=== $exp ==="
    if RESULTS_DIR="$OUT" ./target/release/"$exp" | tee "$OUT/$exp.txt"; then
        passed+=("$exp")
        echo "--- $exp: ok"
    else
        status=$?
        failed+=("$exp")
        echo "--- $exp: FAILED (exit $status)" >&2
    fi
    echo
done

echo "=== summary: ${#passed[@]} passed, ${#failed[@]} failed ==="
for exp in "${passed[@]}";  do echo "  ok    $exp"; done
for exp in "${failed[@]}";  do echo "  FAIL  $exp"; done
echo
echo "All experiment outputs written to $OUT/"
echo "Recorder time series: $OUT/e18_observability.csv"

if [ "${#failed[@]}" -gt 0 ]; then
    exit 1
fi
