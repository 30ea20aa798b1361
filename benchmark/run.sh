#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of standard output
#       is the JSON object the contract in BENCHMARK.json describes
#   benchmark/run.sh [--seed N] [--seconds S] [--workload W]
#       every workload (or W), untraced and traced, each in a fresh
#       child process; writes benchmark/out/results.json
#   benchmark/run.sh agree [--runs R] [--seed N]    see agree.sh
#   benchmark/run.sh manifest                       prints BENCHMARK.json
#
# Runs from the root of the checkout and writes only below it. In a
# directory without the crates the build fails and so does this script.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"
# Build chatter goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/xmlpub-benchmark" "$@"
