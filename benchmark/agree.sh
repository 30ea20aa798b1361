#!/usr/bin/env bash
# Run the whole set twice on the same build and compare: per workload
# and end-to-end metric, both medians, by how much the second is worse,
# both run-to-run spreads (interquartile distance over median) and the
# bound from BENCHMARK.json. Exits non-zero when a difference or a
# spread exceeds its bound, a request failed, or an exact count
# differs between the two sets.
#
#   benchmark/agree.sh [--runs R] [--seed N] [--seconds S] [--workload W]
#
# Ten runs per workload and set (the default, what the acceptance rule
# uses) take about half an hour. The committed output of the change that
# defined the benchmark is benchmark/out/agreement.txt.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" agree "$@"
