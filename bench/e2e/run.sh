#!/usr/bin/env bash
# Build cpsrisk and the benchmark from source, then run the benchmark
# against the fresh build. Run from anywhere; arguments go to e2e.exe:
#   bash bench/e2e/run.sh --workload cli-sweep --seed 1 --seconds 12 --trace 0
# Temporary stores and sockets go under _e2e/tmp in the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . bin/cpsrisk_cli.exe bench/e2e/e2e.exe 1>&2
export TMPDIR="$PWD/_e2e/tmp"
mkdir -p "$TMPDIR"
exec ./_build/default/bench/e2e/e2e.exe \
  --cli ./_build/default/bin/cpsrisk_cli.exe "$@"
