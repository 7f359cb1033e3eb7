#!/usr/bin/env bash
# CI entry point for the benchmark package: its unit tests, then a
# one-second smoke of all four workloads, plain and traced, with the
# A/A bounds off and every output check on. Exits non-zero on a failed
# test, a failed op, or a digest mismatch. Timings from a smoke run mean
# nothing; use `sm-benchmark` or `sm-benchmark --repeat 2` for numbers.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo test --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- --seconds 1 --no-bounds
cargo run --release --offline --quiet --manifest-path "$manifest" -- --seconds 1 --no-bounds --trace 1
