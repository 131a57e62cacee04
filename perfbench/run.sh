#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through.
#   bash perfbench/run.sh --workload sim-plain --seed 1 --seconds 25 --trace 0
# Run from the repository root. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -u
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2 || {
  echo "perfbench: build failed" >&2
  exit 2
}
exec ./_build/default/perfbench/main.exe "$@"
