#!/usr/bin/env bash
# Build the benchmark and the bhive_serve daemon from source, then run
# one workload. Run from the repository root:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/bench.exe ./bin/bhive_serve.exe 1>&2
exec ./_build/default/perfbench/bench.exe \
  --serve-exe ./_build/default/bin/bhive_serve.exe "$@"
