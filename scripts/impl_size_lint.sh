#!/usr/bin/env bash
# Impl-size lint for the product code.
#
# A type whose one `impl` block runs to many hundreds of lines is doing
# several jobs at once: `MemberState` grew to 1 896 lines in a single block
# before it was split into its group, liveness and upkeep parts. This fails
# when any `impl` block under `crates/*/src` or `src` spans more than 600
# lines, counted from its `impl` line to its closing brace, and prints the
# largest blocks either way. Unit tests are not product code: as in
# `scripts/loc.sh`, a file is read up to its `#[cfg(test)] mod`.
#
# Run from anywhere; CI runs it as a build-test step.
set -euo pipefail
cd "$(dirname "$0")/.."

max=600
spans=$(find crates/*/src src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0; pending = 0; start = 0 }
    in_tests { next }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending && /^#\[/ { next }
    pending && /^(pub )?mod / { in_tests = 1; next }
    { pending = 0 }
    !start && /^[[:space:]]*(unsafe[[:space:]]+)?impl([[:space:]<]|$)/ && !/(\{[[:space:]]*\}|;)[[:space:]]*$/ {
        match($0, /^[[:space:]]*/)
        indent = substr($0, 1, RLENGTH)
        start = FNR
        head = $0
        sub(/^[[:space:]]+/, "", head)
        next
    }
    start && $0 == indent "}" {
        printf "%6d  %s:%d  %s\n", FNR - start, FILENAME, start, head
        start = 0
    }' | sort -rn)

echo "impl-size lint: largest impl blocks (lines)"
head -n 5 <<<"$spans"
over=$(awk -v max="$max" '$1 > max' <<<"$spans")
if [[ -n $over ]]; then
    echo "impl-size lint: impl blocks over $max lines:" >&2
    echo "$over" >&2
    exit 1
fi
echo "impl-size lint: ok (no impl block over $max lines)"
