#!/bin/sh
# Build the benchmark from the checkout's sources, then run it with the
# given arguments (see main.ml).  Build output goes to stderr so that
# the last line of stdout stays the result; the shared dune cache is
# off so that nothing is written outside the checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./scbench/main.exe >&2
exec ./_build/default/scbench/main.exe "$@"
