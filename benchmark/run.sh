#!/usr/bin/env bash
# Builds reason-benchmark from source (offline, release) and runs it with
# the given arguments, from the root of the checkout:
#
#   benchmark/run.sh --workload hot_point --seed 42 --seconds 22 --trace 0
#   benchmark/run.sh run-all [--seed 42] [--quick]
#   benchmark/run.sh compare A.json B.json
#
# The build honours CARGO_TARGET_DIR (default: benchmark/target). A failed
# build prints cargo's error and exits 3 without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
if ! cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2; then
  echo "benchmark/run.sh: build failed" >&2
  exit 3
fi
exec "$target/release/reason-benchmark" "$@"
