#!/usr/bin/env bash
# Build the server and the load generator from source, then run the
# load generator from the repository root with the given arguments:
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --self-test
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/secview_cli.exe perfbench/loadgen.exe >&2
exec ./_build/default/perfbench/loadgen.exe "$@"
