#!/usr/bin/env bash
# Builds dsmbench from source in this checkout and runs one workload:
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds T --trace 0|1
#
# Run it from the root of the checkout. The last line of standard output
# is one JSON object {"correct", "attempted", "failed", "metrics"}: the
# end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
# metrics with --trace 1 (the Chrome trace goes to bench/e2e/_out/).
set -euo pipefail

workload="" seed=1 seconds=10 trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$workload" ]; then
  echo "run.sh: --workload is required" >&2
  exit 2
fi
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f BENCHMARK.json ]; then
  echo "run.sh: not the root of a dsmcheck checkout (need dune-project, lib/, BENCHMARK.json)" >&2
  exit 2
fi

# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/dsmbench.exe >&2
exe=_build/default/bench/e2e/dsmbench.exe
case "$trace" in
  0)
    exec "$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --bench-line ;;
  1)
    mkdir -p bench/e2e/_out
    exec "$exe" --trace "bench/e2e/_out/trace-$workload.json" \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --bench-line ;;
  *)
    echo "run.sh: --trace must be 0 or 1" >&2
    exit 2 ;;
esac
