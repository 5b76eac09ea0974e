#!/usr/bin/env bash
# Builds ppvi and the benchmark from source in this checkout, then runs
# one workload:
#   bash perfbench/run.sh --workload vae_train --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# No shared dune cache: the build reads and writes only this checkout.
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./perfbench/bench.exe ./bin/ppvi.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
