#!/usr/bin/env bash
# Build rlb_bench (Release, in build/perf) and run it from the repository
# root. With --workload W it runs that workload; without one it runs each
# of the four workloads in its own process. Every other flag passes
# through to rlb_bench (see perf/README.md):
#
#   perf/run.sh [--seed=S] [--workload=W] [--seconds=T] [--trace=0|1]
#               [--out=DIR]
#   perf/run.sh --workload W --seed S --seconds T --trace 0
#
# Build output goes to stderr, so the last line on stdout is the run's
# JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=build/perf

cmake -S perf -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target rlb_bench -j 4 >&2

for arg in "$@"; do
  case "$arg" in
    --workload | --workload=* | --compare | --compare=*)
      exec "$build/rlb_bench" "$@"
      ;;
  esac
done
for workload in fleet_1m racked_10k paper_n10_adaptive bound_sweep; do
  "$build/rlb_bench" --workload="$workload" "$@"
done
