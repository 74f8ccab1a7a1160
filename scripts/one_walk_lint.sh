#!/usr/bin/env bash
# One-field-walk lint for the protocol types.
#
# A protocol value describes its fields once, in `WireEncode::wire_encode`;
# bytes, sizes and digests are that walk against a different `WireWriter`
# sink. A second hand-written walk is how "the bytes that are authenticated"
# drift from "the bytes that travel" (a field added to the codec but
# forgotten in the digest is a Byzantine-member hole), so this fails if one
# grows back: a per-type digest walk or a separate digest writer anywhere in
# the product, tests or examples, or more than the one blanket
# `impl<T: WireEncode> Digestible for T`.
#
# The walk and its decode are generated together, from one ordered list per
# type (`atum_types::wire_codec!`), so this also fails on a hand-written
# `impl WireDecode for` outside `crates/types/src/wire.rs` unless the type is
# on the allow-list below with the reason its decoder cannot be a codec line.
# (An encode-only type, like AShare's borrowed `EventRef`, has no decoder to
# drift from.)
#
# The same goes for a second *format*: application payloads (`atum-apps`) are
# wire-codec values too, so `serde_json::` under `crates/apps/src` fails — as
# JSON a 1 KiB publish was 3.6 KiB on every hop, in every digest and in every
# member's parser. JSON stays for traces, flight dumps, `Stats` and reports.
#
# Run from anywhere; CI runs it as a build-test step.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
if grep -rnE 'fn digest_fields|DigestWriter' crates src tests examples; then
    echo "one-walk lint: a second field walk (see matches above)" >&2
    fail=1
fi
impls=$(grep -rnE 'impl(<.*>)? +Digestible +for' crates || true)
if [[ $(grep -c . <<<"$impls") -ne 1 ]]; then
    echo "one-walk lint: expected exactly one \`impl Digestible for\`, found:" >&2
    echo "${impls:-  (none)}" >&2
    fail=1
fi
# Hand-written decoders: each does something a codec line cannot state.
allowed=(
    "crates/core/src/message.rs GroupEnvelope" # recomputes the payload digest, through the verified-digest cache
    "crates/overlay/src/walk.rs WalkState"     # rejects `remaining` beyond the bulk RNG pool it indexes
    "crates/crypto/src/digest.rs Digest"       # a fixed 32-byte array, no length prefix
    "crates/crypto/src/keys.rs Signature"      # a fixed 32-byte array, no length prefix
    "crates/apps/src/ashare.rs TransferMsg"    # range-checks its chunk index into a `usize`
)
decoders=$(grep -rnE 'impl(<[^>]*>)? +([a-z_]+::)*WireDecode +for +[A-Za-z_]+' crates src tests examples |
    grep -v '^crates/types/src/wire\.rs:' |
    sed -E 's/^([^:]+):[0-9]+:.*WireDecode +for +([A-Za-z_]+).*/\1 \2/' || true)
stray=$(grep -vxF -f <(printf '%s\n' "${allowed[@]}") <<<"$decoders" || true)
if [[ -n $stray ]]; then
    echo "one-walk lint: a hand-written WireDecode; declare it with \`atum_types::wire_codec!\`," >&2
    echo "or allow-list it in $0 with its reason:" >&2
    echo "$stray" >&2
    fail=1
fi
if grep -rn 'serde_json::' crates/apps/src; then
    echo "one-walk lint: JSON on the application payload path (see matches above)" >&2
    fail=1
fi
if [[ $fail -eq 0 ]]; then
    echo "one-walk lint: ok (digests, sizes and app payloads share the codec's field walk; decoders come from its list)"
fi
exit $fail
