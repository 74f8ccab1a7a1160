#!/usr/bin/env bash
# Pure-move check: a parent revision against this checkout, on every number
# a change that moves no behaviour must reprint exactly.
#
#   scripts/pure_move.sh <parent-rev>
#   e.g. scripts/pure_move.sh HEAD~1
#
# On both sides it runs
#   - `mcheck --depth 2 --drops 1 --dups 1` on torn_link, split_racing_join
#     and lone_engine, and keeps each scenario's states, deduped, depth,
#     truncated and violations counts (not its wall time);
#   - `benchmark/run.sh --workload sim_churn --seed N --seconds 12` for
#     seeds 1 to 6, and keeps the rows measured in simulated time or as a
#     count: attempted, failed, deliver_p50_ms (simulated milliseconds on
#     a simnet workload) and wire_bytes_per_op. setup_s, cpu_ms_per_op and
#     peak_rss_mib are wall-clock and host measurements and are left out.
# It prints the rows side by side, `*` marking each that differs, and exits
# 1 when any does (or when a run printed nothing to compare).
#
# The parent is exported with `git archive` (no worktree is registered) and
# built, with its own target directory, under $TMPDIR/atum-pure-move/<commit>,
# where later calls reuse it. The checkout, uncommitted edits included, is
# built where benchmark/run.sh builds it ($CARGO_TARGET_DIR, else target/).
# The runs go from a scratch directory under $TMPDIR/atum-pure-move, because
# the benchmark writes ./bench-out/; nothing is written into the tree. That
# directory is kept and its path printed last: it holds each side's rows
# (<side>.rows) and each run's stderr.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage="usage: scripts/pure_move.sh <parent-rev>"
rev=$(git -C "$root" rev-parse --verify "${1:?$usage}^{commit}")
work="${TMPDIR:-/tmp}/atum-pure-move"
scenarios=(torn_link split_racing_join lone_engine)
seeds=(1 2 3 4 5 6)

build() { # <source root> <target dir>
    cargo build --release --offline --quiet --manifest-path "$1/Cargo.toml" \
        --target-dir "$2" -p atum-mcheck --bin mcheck >&2
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml" \
        --target-dir "$2" >&2
}

parent="$work/$rev"
if [ ! -x "$parent/target/release/mcheck" ] || [ ! -x "$parent/target/release/atum-benchmark" ]; then
    echo "building the parent $rev in $parent" >&2
    rm -rf "$parent/src"
    mkdir -p "$parent/src"
    git -C "$root" archive "$rev" | tar -x -C "$parent/src"
    build "$parent/src" "$parent/target"
fi
change_target="${CARGO_TARGET_DIR:-$root/target}"
build "$root" "$change_target"
srcs=([0]="$parent/src" [1]="$root")
targets=([0]="$parent/target" [1]="$change_target")
names=(parent change)

runs=$(mktemp -d "$work/run.XXXXXX")
for side in 0 1; do
    name=${names[$side]}
    rows="$runs/$name.rows"
    : >"$rows"
    for scenario in "${scenarios[@]}"; do
        # The checker exits 1 when it finds a violation; that count is a
        # row like the others.
        (cd "$runs" && "${targets[$side]}/release/mcheck" --scenario "$scenario" \
            --depth 2 --drops 1 --dups 1 2>>"$runs/$name.mcheck.err") |
            awk -v s="$scenario" '$1 == s {
                for (i = 2; i <= NF; i++) if (split($i, kv, "=") == 2) print "mcheck " s " " kv[1] "\t" kv[2]
            }' >>"$rows" || true
    done
    for seed in "${seeds[@]}"; do
        out="$runs/$name.sim_churn.$seed"
        if (cd "$runs" && CARGO_TARGET_DIR="${targets[$side]}" "${srcs[$side]}/benchmark/run.sh" \
            --workload sim_churn --seed "$seed" --seconds 12 >"$out.out" 2>"$out.err") &&
            tail -n 1 "$out.out" | jq -e .metrics >/dev/null 2>&1; then
            tail -n 1 "$out.out" | jq -r --arg k "sim_churn seed $seed" \
                '"\($k) attempted\t\(.attempted)", "\($k) failed\t\(.failed)",
                 (.metrics | to_entries[] | select(.key == "deliver_p50_ms" or .key == "wire_bytes_per_op")
                  | "\($k) \(.key)\t\(.value.value)")' >>"$rows"
        else
            echo "sim_churn seed $seed, $name: no record; its stderr is kept in $out.err" >&2
            tail -n 5 "$out.err" >&2
        fi
    done
    echo "$name done" >&2
done

echo "pure move: parent $rev against this checkout"
printf '  %-46s %20s %20s\n' row parent change
# One line per row, in the order the parent printed them: key, both values
# ("-" for a side that printed none), and `*` where they differ.
table=$(awk -F '\t' '
    FNR == NR { p[$1] = $2; if (!($1 in seen)) { seen[$1] = 1; order[n++] = $1 }; next }
    { c[$1] = $2; if (!($1 in seen)) { seen[$1] = 1; order[n++] = $1 } }
    END { for (i = 0; i < n; i++) { k = order[i]
        pv = (k in p) ? p[k] : "-"; cv = (k in c) ? c[k] : "-"
        printf "%s %-46s %20s %20s\n", (pv == cv && pv != "-") ? " " : "*", k, pv, cv } }
' "$runs/parent.rows" "$runs/change.rows")
echo "$table"
differ=0
grep -q '^\*' <<<"$table" && differ=1
# Each side must have printed every row: 5 per scenario, 4 per seed.
expected=$((5 * ${#scenarios[@]} + 4 * ${#seeds[@]}))
for name in "${names[@]}"; do
    got=$(wc -l <"$runs/$name.rows")
    if [ "$got" -ne "$expected" ]; then
        echo "$name printed $got rows, not $expected"
        differ=1
    fi
done
echo "records: $runs"
if [ "$differ" -eq 0 ]; then
    echo "every row is equal"
else
    echo "rows differ or are missing"
fi
[ "$differ" -eq 0 ]
