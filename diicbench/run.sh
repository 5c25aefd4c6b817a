#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash diicbench/run.sh --workload full_chip|library|edit_service \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. `--trace 0` runs the end-to-end
# binary (system allocator, no spans); `--trace 1` the traced one
# (counting allocator, spans, Chrome trace under .bench_out/). The last
# line of standard output is the JSON result. The build honours
# CARGO_TARGET_DIR (default: diicbench/target).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/diicbench"
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin="$target/release/diicbench-traced"
    fi
    prev="$arg"
done
exec "$bin" "$@"
