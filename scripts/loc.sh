#!/usr/bin/env bash
# Product Rust lines per crate and in total — ROADMAP: "Net LOC is a tracked
# metric". Counts the `src/` tree of every `crates/*` member and of the
# root facade, leaving out blank lines, comment lines (`//`, `///`, `//!`)
# and everything from a file's `#[cfg(test)] mod` to its end (this
# repository keeps unit tests in one trailing module per file). `tests/`,
# `examples/`, `benchmark/` and `vendor/` are not product code.
#
# Run from anywhere; CI prints it in build-test.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        in_tests { next }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^#\[/ { next }
        pending && /^(pub )?mod / { in_tests = 1; next }
        { pending = 0 }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    n=$(count "$dir")
    printf '%-10s %6d\n' "$(basename "$(dirname "$dir")" | sed 's/^\.$/atum/')" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
