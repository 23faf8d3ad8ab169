#!/usr/bin/env bash
# Builds wjbench and the wjcli daemon from source, then runs the benchmark
# from the root of the repository:
#
#   bash bench/ledger/run.sh --workload q7_chain --seed 7 --seconds 30 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
dune build --root . ./bench/ledger/wjbench.exe ./bin/wjcli.exe 1>&2
exec ./_build/default/bench/ledger/wjbench.exe --wjcli ./_build/default/bin/wjcli.exe "$@"
