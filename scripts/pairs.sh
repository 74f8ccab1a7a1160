#!/usr/bin/env bash
# Alternating benchmark pairs: a parent revision against this checkout, on
# one workload and seed. The two sides take turns going first (pair 1 runs
# the parent first, pair 2 the checkout, and so on), so a drift of the
# host's speed within the session lands on both sides alike.
#
#   scripts/pairs.sh <parent-rev> <workload> <pairs> <seed> [seconds]
#   e.g. scripts/pairs.sh HEAD~1 sim_fanout 10 47
#
# For each end-to-end metric in BENCHMARK.json it prints both sides' median
# and quartiles, the pairs the checkout won, the parent's quartile distance,
# whether the gap between the medians exceeds it, and whether the claim rule
# is met: the checkout won at least nine tenths of the pairs with a record
# on both sides, and its median is better than the parent's by more than the
# parent's quartile distance. Then it prints each side's failed-operation
# share.
#
# Last, each side makes one traced run (`--trace 1`) of the same workload,
# seed and length: the benchmark's per-layer contract, which also runs the
# micro section at a tenth of its size, and which exits 1 on a child panic,
# an output-check error or five invalid attempts (a generator more than
# 5 ms late at p99, or a timer at least 750 ms late). No untraced run can
# show those. The script says whether each traced run printed a record,
# keeps its stderr either way, and exits 1 when one did not. It then prints
# every per-layer metric of unit `count` from the two traced records side
# by side, marking with `*` the rows that differ.
#
# The parent is exported with `git archive` (no worktree is registered) and
# built, with its own target directory, under $TMPDIR/atum-pairs/<commit>,
# where later calls reuse it. The checkout, uncommitted edits included, is
# built where benchmark/run.sh builds it ($CARGO_TARGET_DIR, else target/).
# The runs go from a scratch directory under $TMPDIR/atum-pairs, because
# the benchmark writes ./bench-out/; nothing is written into the tree. That
# directory is kept, and its path printed last: it holds every run's record
# (<side>.<pair>.json, and <side>.traced.json with <side>.traced.err), so a
# metric can be read pair by pair afterwards. A run that prints no record
# keeps its stderr there, and the script names it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage="usage: scripts/pairs.sh <parent-rev> <workload> <pairs> <seed> [seconds]"
rev=$(git -C "$root" rev-parse --verify "${1:?$usage}^{commit}")
workload=${2:?$usage}
pairs=${3:?$usage}
seed=${4:?$usage}
seconds=${5:-12}
work="${TMPDIR:-/tmp}/atum-pairs"

build() { # <source root> <target dir>
    cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2" >&2
}

parent="$work/$rev"
if [ ! -x "$parent/target/release/atum-benchmark" ]; then
    echo "building the parent $rev in $parent" >&2
    rm -rf "$parent/src"
    mkdir -p "$parent/src"
    git -C "$root" archive "$rev" | tar -x -C "$parent/src"
    build "$parent/src" "$parent/target"
fi
change_target="${CARGO_TARGET_DIR:-$root/target}"
build "$root" "$change_target"
bins=([0]="$parent/target/release/atum-benchmark" [1]="$change_target/release/atum-benchmark")
names=(parent change)

runs=$(mktemp -d "$work/run.XXXXXX")
for ((i = 1; i <= pairs; i++)); do
    first=$(((i + 1) % 2)) # pair 1: the parent first
    for side in "$first" "$((1 - first))"; do
        name=${names[$side]}
        if (cd "$runs" && "${bins[$side]}" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$runs/$name.$i.out" 2>"$runs/$name.$i.err") &&
            tail -n 1 "$runs/$name.$i.out" | jq -e .metrics >/dev/null 2>&1; then
            tail -n 1 "$runs/$name.$i.out" >"$runs/$name.$i.json"
            rm -f "$runs/$name.$i.err"
        else
            echo "pair $i, $name: no record; its stderr is kept in $runs/$name.$i.err" >&2
            tail -n 5 "$runs/$name.$i.err" >&2
        fi
    done
    echo "pair $i of $pairs done" >&2
done

# Quartiles by linear interpolation between the sorted values.
quartiles() {
    sort -g | awk '{ v[n++] = $1 }
        function q(p,  h, i) { h = p * (n - 1); i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { if (n == 0) print "nan nan nan"; else printf "%.7g %.7g %.7g\n", q(0.25), q(0.5), q(0.75) }'
}
value() { # <side> <pair> <metric>: the value, or nothing without a record
    [ -f "$runs/$1.$2.json" ] && jq -r --arg m "$3" '.metrics[$m].value // empty' "$runs/$1.$2.json"
    return 0
}

echo "$workload, seed $seed, ${seconds} s, $pairs pairs: parent $rev against this checkout"
printf '%-18s %-34s %-34s %6s %7s %10s %9s %s\n' metric "parent q1 median q3" "change q1 median q3" ratio won "parent IQR" "gap > IQR" "rule met"
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json" | while read -r metric better; do
    read -r p1 pm p3 < <(for ((i = 1; i <= pairs; i++)); do value parent "$i" "$metric"; done | quartiles)
    read -r c1 cm c3 < <(for ((i = 1; i <= pairs; i++)); do value change "$i" "$metric"; done | quartiles)
    won=0
    both=0
    for ((i = 1; i <= pairs; i++)); do
        p=$(value parent "$i" "$metric")
        c=$(value change "$i" "$metric")
        [ -n "$p" ] && [ -n "$c" ] || continue
        both=$((both + 1))
        won=$((won + $(awk -v p="$p" -v c="$c" -v b="$better" 'BEGIN { print (b == "lower" ? c < p : c > p) ? 1 : 0 }')))
    done
    awk -v m="$metric" -v p1="$p1" -v pm="$pm" -v p3="$p3" -v c1="$c1" -v cm="$cm" -v c3="$c3" \
        -v won="$won" -v both="$both" -v better="$better" 'BEGIN {
        iqr = p3 - p1; gap = cm - pm; if (gap < 0) gap = -gap
        gain = (better == "lower" ? pm - cm : cm - pm)
        met = both > 0 && won >= 0.9 * both && gain > iqr
        printf "%-18s %-34s %-34s %6.3f %7s %10.4g %9s %s\n", m, p1 " " pm " " p3, c1 " " cm " " c3,
            (pm != 0 ? cm / pm : 0), won "/" both, iqr, (gap > iqr ? "yes" : "no"), (met ? "yes" : "no")
    }'
done
for name in "${names[@]}"; do
    cat "$runs/$name".[0-9]*.json 2>/dev/null | jq -rs --arg n "$name" \
        '"\($n): \(map(.failed) | add // 0) failed of \(map(.attempted) | add // 0) attempted, \(length) records"'
done

traced_ok=1
for side in 0 1; do
    name=${names[$side]}
    status=0
    (cd "$runs" && "${bins[$side]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 1 >"$runs/$name.traced.out" 2>"$runs/$name.traced.err") ||
        status=$?
    if [ "$status" -eq 0 ] && tail -n 1 "$runs/$name.traced.out" | jq -e .metrics >/dev/null 2>&1; then
        tail -n 1 "$runs/$name.traced.out" >"$runs/$name.traced.json"
        echo "traced run, $name: record printed ($(jq '.metrics | length' "$runs/$name.traced.json") per-layer metrics); stderr in $runs/$name.traced.err"
    else
        traced_ok=0
        echo "traced run, $name: NO record (exit $status); stderr in $runs/$name.traced.err"
        tail -n 5 "$runs/$name.traced.err"
    fi
done
# Every per-layer count of the two traced records side by side, `*` where
# they differ: a change that claims no gain shows here which per-op counts
# moved. On the socket workloads a few frames per run move with wall-clock
# timing, the parent's against its own too.
traced=()
for name in "${names[@]}"; do
    [ -f "$runs/$name.traced.json" ] && traced+=("$runs/$name.traced.json")
done
if [ "${#traced[@]}" -gt 0 ]; then
    echo "per-layer counts of the traced runs (* where they differ):"
    printf '  %-34s %20s %20s\n' metric parent change
    jq -rs '[.[].metrics | to_entries[] | select(.value.unit == "count") | .key] | unique[]' \
        "${traced[@]}" | while read -r metric; do
        p=$(value parent traced "$metric")
        c=$(value change traced "$metric")
        printf '%s %-34s %20s %20s\n' "$([ "$p" = "$c" ] && echo ' ' || echo '*')" "$metric" "${p:--}" "${c:--}"
    done
fi
echo "records: $runs"
[ "$traced_ok" -eq 1 ]
