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
if grep -rn 'serde_json::' crates/apps/src; then
    echo "one-walk lint: JSON on the application payload path (see matches above)" >&2
    fail=1
fi
if [[ $fail -eq 0 ]]; then
    echo "one-walk lint: ok (digests, sizes and app payloads share the codec's field walk)"
fi
exit $fail
