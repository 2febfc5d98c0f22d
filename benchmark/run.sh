#!/usr/bin/env bash
# The repo benchmark, one command. Builds the standalone package, then:
#
#   benchmark/run.sh [--seed S] [--reps N]      every workload, untraced passes
#                                               interleaved, then one traced run each
#   benchmark/run.sh --smoke                    1 rep on shrunk inputs, correctness only
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one workload (the BENCHMARK.json contract)
#
# Prints every metric by name with its unit; the last stdout line of a
# one-workload run is the contract's JSON object. Exits non-zero on any
# correctness failure. Results and the span trace land in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" "$@"
  fi
done
exec "$bin" --all "$@"
