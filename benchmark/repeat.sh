#!/usr/bin/env bash
# benchmark/repeat.sh N [--seed BASE] [--seconds S] [--workload W]
# Runs every workload (or W) N times untraced, each time with another seed
# (BASE, BASE+1, ...), and prints per workload and end-to-end metric the
# quartiles, the median and the spread between the quartiles as a share of
# the median, marking spreads over the metric's bound. Exits non-zero if
# a run fails or a spread exceeds its bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: repeat.sh N [--seed BASE] [--seconds S] [--workload W]}"
shift
base=1
seconds=20
workloads="query_mix fanout_per_event fanout_epoch control_plane"
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) base="$2" ;;
    --seconds) seconds="$2" ;;
    --workload) workloads="$2" ;;
    *) echo "unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
mkdir -p "$here/out"
lines="$here/out/repeat_seed${base}.txt"
: > "$lines"
for i in $(seq 0 $((n - 1))); do
  for w in $workloads; do
    "$here/run.sh" --workload "$w" --seed $((base + i)) --seconds "$seconds" --trace 0 \
      | grep "^$w " | tee -a "$lines"
  done
done
"$here/run.sh" --spread "$lines"
