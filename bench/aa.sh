#!/usr/bin/env bash
# A/A check: measures this tree against itself and compares the result
# with the bounds in BENCHMARK.json.
#
#   bash bench/aa.sh [N] [extra bench flags...]     (default N = 10)
#
# Two sets of N runs per workload, at seeds seed..seed+N-1 in both sets
# (-seed picks the first; default 7). Per workload × end-to-end metric
# it prints both medians, how much worse the second is, each set's
# interquartile spread as a share of its median, and the bound. It exits
# non-zero when any shift or spread is outside its bound. N = 1 compares
# two single runs at one seed.
set -euo pipefail
n=${1:-10}
shift || true
exec bash "$(dirname "$0")/run.sh" -aa "$n" "$@"
