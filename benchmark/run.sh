#!/usr/bin/env bash
# Builds the benchmark package from source and runs it; every argument is
# passed through (see README.md, or `run.sh --help`). Cargo's target
# directory is $CARGO_TARGET_DIR when set, benchmark/target otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/qbs-benchmark" --out "$here/out" "$@"
