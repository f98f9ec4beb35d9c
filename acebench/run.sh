#!/usr/bin/env bash
# Builds the ace-serve daemon and the benchmark from source, then runs one
# benchmark workload. Run from the root of an ace checkout:
#
#   bash acebench/run.sh --workload small-coalesce --seed 1 --seconds 12 --trace 0
#
# Arguments go to `ace_bench run` (see acebench/README.md). Build output
# goes to stderr, so the last line of stdout is the result JSON.
set -euo pipefail

for f in dune-project BENCHMARK.json bin/ace_serve.ml lib/serve/wire.mli acebench/ace_bench.ml; do
  if [ ! -f "$f" ]; then
    echo "acebench: $f not found; run from the root of an ace checkout" >&2
    exit 2
  fi
done

# The shared dune cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
dune build --root . ./acebench/ace_bench.exe ./bin/ace_serve.exe >&2
exec ./_build/default/acebench/ace_bench.exe run "$@"
