#!/usr/bin/env bash
# Build the benchmark offline, in release mode, and run it from the root of
# the checkout. See README.md for the options; BENCHMARK.json names this
# script as the benchmark's command.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/faasim-benchmark" "$@"
