#!/usr/bin/env bash
# Builds redo_e2e from this source tree and runs it with the given
# arguments, e.g.
#   bash bench/e2e/run.sh --workload txn_commit --seed 1 --seconds 10 --trace 0
# Run from the repository root. The build tree goes to
# $CARGO_TARGET_DIR/e2e (default .bench_build/e2e); build output goes to
# stderr so stdout carries only the benchmark's records.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
mkdir -p "$build/tmp"
# Keep the compiler's temporary files inside the build tree.
export TMPDIR="$(cd "$build/tmp" && pwd)"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/bench/e2e" -B "$build" >&2
fi
cmake --build "$build" --target redo_e2e -j 4 >&2
exec "$build/redo_e2e" "$@"
