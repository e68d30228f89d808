#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark package from
# source (offline; into $CARGO_TARGET_DIR, else benchmark/target), then
# hands its arguments to the end-to-end binary, or to the traced one when
# they hold `--trace 1`:
#
#   bash benchmark/run.sh --workload rank_scan --seed 42 --seconds 20 --trace 0
#   bash benchmark/run.sh all --quick
#   bash benchmark/run.sh selfcheck --runs 10
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

binary=bench-e2e
previous=""
for argument in "$@"; do
    if [[ "$previous" == "--trace" && "$argument" == "1" ]]; then
        binary=bench-trace
    fi
    previous="$argument"
done
exec "$target/release/$binary" "$@"
