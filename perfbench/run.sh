#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to standard error; the last line of standard output
# is the result.  Fails without a result when the repository's
# libraries are not there to build against.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe 1>&2
PERFBENCH_NPROC="$(nproc)" exec ./_build/default/perfbench/main.exe "$@"
