#!/usr/bin/env bash
# Determinism lint for the protocol layers.
#
# The simulator promises bit-identical trajectories per seed (pinned by
# tests/fabric_equivalence.rs) and the model checker (crates/mcheck) relies
# on canonical, order-stable state renderings for visited-set dedup. Both
# break silently if protocol state lives in std's HashMap/HashSet, whose
# iteration order is randomized per process. The protocol layers — core,
# overlay, smr — therefore use BTreeMap/BTreeSet throughout. A hand-built
# table over std's per-process random hasher keys (`RandomState`) carries
# the same risk and is flagged the same way.
#
# A use that provably never observes iteration order (pure keyed lookups)
# may be exempted by placing this marker on the offending line or the line
# directly above it:
#
#     // determinism-lint: allow (<why iteration order is never observed>)
#
# Run from anywhere; CI runs it as a build-test step.
set -euo pipefail
cd "$(dirname "$0")/.."

LAYERS=(crates/core/src crates/overlay/src crates/smr/src)
MARKER='determinism-lint: allow'

fail=0
while IFS=: read -r file line text; do
    [[ -z "${file:-}" ]] && continue
    if [[ "$text" == *"$MARKER"* ]]; then
        continue
    fi
    prev=""
    if (( line > 1 )); then
        prev=$(sed -n "$((line - 1))p" "$file")
    fi
    if [[ "$prev" == *"$MARKER"* ]]; then
        continue
    fi
    echo "determinism-lint: $file:$line: $text" >&2
    fail=1
done < <(grep -rn --include='*.rs' -E 'Hash(Map|Set)|RandomState' "${LAYERS[@]}" || true)

if (( fail )); then
    cat >&2 <<'EOF'

Hash containers with randomized iteration order, and randomly keyed
hashers, are forbidden in the protocol layers (core, overlay, smr): use
BTreeMap/BTreeSet, or annotate a provably order-blind use with:
  // determinism-lint: allow (<reason>)
EOF
    exit 1
fi
echo "determinism lint: clean (${LAYERS[*]})"
