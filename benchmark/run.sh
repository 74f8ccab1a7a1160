#!/usr/bin/env bash
# Builds the benchmark package (offline, release) and runs its one binary.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
#   benchmark/run.sh [--smoke] [--seed N] [--seconds S] [--out F]    every workload, medians
#   benchmark/run.sh --compare A.json B.json                         two suite results
#
# Run it from the repository root: results go to ./bench-out/. The build
# goes to $CARGO_TARGET_DIR when set, else to the repository's target/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/atum-benchmark" "$@"
