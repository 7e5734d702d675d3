#!/usr/bin/env bash
# Build the shipped `qre` binary and the benchmark from source, then run the
# benchmark against that binary. Arguments pass through unchanged:
#   bash perfbench/run.sh --workload warm-sweep-tcp --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p qre-cli --bin qre >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --qre "$CARGO_TARGET_DIR/release/qre" "$@"
