//! The three applications the paper layers on top of Atum.
//!
//! * [`asub`] — **ASub**, a topic-based publish/subscribe service. Pub/sub
//!   operations map one-to-one onto the Atum API (create topic = bootstrap,
//!   subscribe = join, unsubscribe = leave, publish = broadcast), so ASub is
//!   a thin facade.
//! * [`ashare`] — **AShare**, a file sharing service: a fully replicated
//!   metadata index kept consistent through Atum broadcasts, randomized
//!   replication with a feedback loop, chunked parallel transfers and
//!   SHA-256 integrity checks that recover from corrupt replicas.
//! * [`edge`] — the application-side mapping for the `atum-edge` gateway:
//!   how edge-protocol operations become broadcast payloads of the
//!   services above, and how delivered payloads are decoded back for
//!   verification.
//! * [`astream`] — **AStream**, a two-tier data streaming system: Atum
//!   reliably disseminates per-chunk digests (tier one), while a lightweight
//!   forest-based push–pull multicast moves the bulk data (tier two); every
//!   node verifies tier-two data against tier-one digests.
//!
//! # Payload format
//!
//! Everything the applications hand to Atum — broadcast payloads and
//! point-to-point app messages — is a value of the workspace's one wire codec
//! (`atum_types::wire`): each message type's codec is one
//! `atum_types::wire_codec!` line (AShare's `TransferMsg` excepted: it
//! range-checks a `usize`), `encode()` is `encode_to_vec` and `decode()` is
//! `decode_exact`. Every encoding leads with one *kind* byte naming its
//! type, so a payload of another application decodes to `None`, not to
//! garbage. There is no second format and no version negotiation: payloads
//! are never persisted, so every reader is the build that wrote them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ashare;
pub mod astream;
pub mod asub;
pub mod edge;

/// The first byte of every application payload: which message type follows.
/// Wire ABI like the codec's variant tags — append, never renumber.
pub(crate) mod kind {
    use atum_types::{WireError, WireReader};

    pub const ASUB_EVENT: u8 = 1;
    pub const ASHARE_ANNOUNCE: u8 = 2;
    pub const ASHARE_TRANSFER: u8 = 3;
    pub const ASTREAM_DIGEST: u8 = 4;
    pub const ASTREAM_DATA: u8 = 5;

    /// Consumes the leading kind byte, failing unless it is `kind`.
    pub fn expect(r: &mut WireReader<'_>, kind: u8) -> Result<(), WireError> {
        if r.take_u8()? == kind {
            Ok(())
        } else {
            Err(WireError::Malformed("payload kind"))
        }
    }
}

pub use ashare::{AShareApp, AShareConfig, FileMeta, GetOutcome, MetadataIndex};
pub use astream::{AStreamApp, AStreamConfig, StreamChunk};
pub use asub::{AsubEvent, AsubNode};

#[cfg(test)]
mod tests {
    // Laws every application payload codec obeys, checked for all five message
    // types side by side: exact round trip, no accepted strict prefix or
    // extension, no cross-type decode, and a decoder that survives arbitrary
    // and hostile bytes. (That a decode never *allocates* past its input is
    // pinned with a counting allocator in `tests/payload_alloc.rs`; this crate
    // forbids the `unsafe` an allocator needs.)

    use crate::ashare::{Announce, TransferMsg};
    use crate::astream::{DigestAnnounce, StreamChunk, StreamMsg};
    use crate::asub::AsubEvent;
    use crate::edge::{broadcast_payload, decode_broadcast};
    use crate::kind;
    use atum_crypto::Digest;
    use atum_types::{EdgeOp, NodeId, TopicId};
    use proptest::prelude::*;
    use std::fmt::Debug;

    /// Re-encodes `bytes` through every type's decoder: `(type, its encoding of
    /// what it decoded)` for each type that accepted them.
    fn accepted_by(bytes: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
        [
            ("AsubEvent", AsubEvent::decode(bytes).map(|v| v.encode())),
            ("Announce", Announce::decode(bytes).map(|v| v.encode())),
            (
                "TransferMsg",
                TransferMsg::decode(bytes).map(|v| v.encode()),
            ),
            (
                "DigestAnnounce",
                DigestAnnounce::decode(bytes).map(|v| v.encode()),
            ),
            ("StreamMsg", StreamMsg::decode(bytes).map(|v| v.encode())),
        ]
        .into_iter()
        .filter_map(|(name, back)| Some((name, back?)))
        .collect()
    }

    /// Arbitrary bytes must not panic any decoder, and whatever one accepts is
    /// canonical: it re-encodes to exactly the input, so a decoded value is never
    /// larger than the bytes it came from.
    fn survives(bytes: &[u8]) {
        for (name, back) in accepted_by(bytes) {
            assert_eq!(back, bytes, "{name} accepted a non-canonical encoding");
        }
    }

    fn check_laws<T: PartialEq + Debug>(
        name: &str,
        value: &T,
        encode: fn(&T) -> Vec<u8>,
        decode: fn(&[u8]) -> Option<T>,
        flip: usize,
    ) {
        let bytes = encode(value);
        assert_eq!(decode(&bytes).as_ref(), Some(value));
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), None, "prefix of {cut} bytes");
        }
        for extra in [0u8, 1, 0xff] {
            let mut extended = bytes.clone();
            extended.push(extra);
            assert_eq!(decode(&extended), None, "one trailing byte {extra:#x}");
        }
        let accepted = accepted_by(&bytes);
        assert_eq!(accepted.len(), 1, "accepted by {accepted:?}");
        assert_eq!(accepted[0].0, name);
        // One damaged byte: any outcome but a panic or a non-canonical accept.
        let mut mutated = bytes;
        let at = flip % mutated.len();
        mutated[at] ^= 1 << (flip % 8);
        survives(&mutated);
    }

    fn file_name(raw: &[u8]) -> String {
        String::from_utf8_lossy(raw).into_owned()
    }

    fn digest(seed: u64) -> Digest {
        Digest::of(&seed.to_le_bytes())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn asub_events_obey_the_codec_laws(
            topic in 0u64..=u64::MAX,
            data in proptest::collection::vec(0u8..=255, 0..1500),
            flip in 0usize..1 << 20,
        ) {
            let event = AsubEvent { topic: TopicId::new(topic), data };
            check_laws("AsubEvent", &event, AsubEvent::encode, AsubEvent::decode, flip);
            // The edge mapping is the same walk over a borrowed body.
            let publish = EdgeOp::Publish { topic, payload: event.data.clone() };
            prop_assert_eq!(broadcast_payload(&publish), Some(event.encode()));
            prop_assert_eq!(decode_broadcast(&event.encode()), Some((topic, event.data)));
        }

        #[test]
        fn ashare_announces_obey_the_codec_laws(
            variant in 0u8..3,
            owner in 0u64..=u64::MAX,
            raw_name in proptest::collection::vec(0u8..=255, 0..64),
            size in 0u64..=u64::MAX,
            chunks in 0u64..24,
            flip in 0usize..1 << 20,
        ) {
            let (owner, name) = (NodeId::new(owner), file_name(&raw_name));
            let announce = match variant {
                0 => Announce::Put { owner, name, size, digests: (0..chunks).map(digest).collect() },
                1 => Announce::Replica { owner, name, holder: NodeId::new(size) },
                _ => Announce::Delete { owner, name },
            };
            check_laws("Announce", &announce, Announce::encode, Announce::decode, flip);
        }

        #[test]
        fn ashare_transfers_obey_the_codec_laws(
            reply in 0u8..2,
            owner in 0u64..=u64::MAX,
            raw_name in proptest::collection::vec(0u8..=255, 0..64),
            chunk in 0usize..=usize::MAX,
            flip in 0usize..1 << 20,
        ) {
            let (owner, name) = (NodeId::new(owner), file_name(&raw_name));
            let msg = match reply {
                0 => TransferMsg::GetChunk { owner, name, chunk },
                _ => TransferMsg::ChunkData { owner, name, chunk, digest: digest(chunk as u64) },
            };
            check_laws("TransferMsg", &msg, TransferMsg::encode, TransferMsg::decode, flip);
        }

        #[test]
        fn astream_payloads_obey_the_codec_laws(
            pull in 0u8..2,
            index in 0u64..=u64::MAX,
            flip in 0usize..1 << 20,
        ) {
            let announce = DigestAnnounce { index, digest: digest(index) };
            check_laws(
                "DigestAnnounce",
                &announce,
                DigestAnnounce::encode,
                DigestAnnounce::decode,
                flip,
            );
            let msg = match pull {
                0 => StreamMsg::Push(StreamChunk { index, digest: digest(index) }),
                _ => StreamMsg::Pull { index },
            };
            check_laws("StreamMsg", &msg, StreamMsg::encode, StreamMsg::decode, flip);
        }

        #[test]
        fn arbitrary_bytes_never_panic_a_decoder(
            first in 0u8..8,
            tag in 0u8..4,
            tail in proptest::collection::vec(0u8..=255, 0..200),
        ) {
            survives(&tail);
            // The same noise behind a plausible kind and variant tag, so it gets
            // past the first two checks and into the length prefixes.
            let mut framed = vec![first, tag];
            framed.extend_from_slice(&tail);
            survives(&framed);
        }
    }

    #[test]
    fn crate_private_payload_bytes_are_pinned() {
        // The workspace's codec pin (`every_codec_type_round_trips_with_pinned_bytes`
        // in `tests/wire_codec.rs`) cannot name these two types; this pins
        // their bytes the same way, as the SHA-256 of every variant's encoding.
        let (owner, name, digest) = (NodeId::new(3), "père.txt".to_string(), digest(7));
        let stream = [
            TransferMsg::GetChunk {
                owner,
                name: name.clone(),
                chunk: 7,
            }
            .encode(),
            TransferMsg::ChunkData {
                owner,
                name,
                chunk: 7,
                digest,
            }
            .encode(),
            StreamMsg::Push(StreamChunk { index: 4, digest }).encode(),
            StreamMsg::Pull { index: 4 }.encode(),
        ]
        .concat();
        assert_eq!(
            Digest::of(&stream).to_string(),
            "7274136e233a923d78d8c8d5f7d1e1ae1a84b268bb2fe39100d7feab9f23b1de"
        );
    }

    #[test]
    fn asub_event_byte_layout_is_pinned() {
        let event = AsubEvent {
            topic: TopicId::new(9),
            data: vec![1, 2, 3],
        };
        let hex: String = event.encode().iter().map(|b| format!("{b:02x}")).collect();
        // kind, topic (u64 LE), body length (u32 LE), body.
        assert_eq!(hex, "01090000000000000003000000010203");
    }

    #[test]
    fn kind_bytes_and_variant_tags_are_pinned() {
        // Wire ABI, as literals on purpose: a renumbered constant or tag
        // must fail here, not decode as another build's other message.
        let (node, name, digest) = (NodeId::new(1), "f".to_string(), Digest::ZERO);
        let event = AsubEvent {
            topic: TopicId::new(9),
            data: vec![1],
        };
        let put = Announce::Put {
            owner: node,
            name: name.clone(),
            size: 1,
            digests: vec![digest],
        };
        let replica = Announce::Replica {
            owner: node,
            name: name.clone(),
            holder: node,
        };
        let delete = Announce::Delete {
            owner: node,
            name: name.clone(),
        };
        let get_chunk = TransferMsg::GetChunk {
            owner: node,
            name: name.clone(),
            chunk: 0,
        };
        let chunk_data = TransferMsg::ChunkData {
            owner: node,
            name,
            chunk: 0,
            digest,
        };
        let announce = DigestAnnounce { index: 0, digest };
        let push = StreamMsg::Push(StreamChunk { index: 0, digest });
        let pull = StreamMsg::Pull { index: 0 };
        // (type, encoding, the type's constant, kind byte, variant tag).
        let table = [
            ("AsubEvent", event.encode(), kind::ASUB_EVENT, 1, None),
            ("Announce", put.encode(), kind::ASHARE_ANNOUNCE, 2, Some(0)),
            (
                "Announce",
                replica.encode(),
                kind::ASHARE_ANNOUNCE,
                2,
                Some(1),
            ),
            (
                "Announce",
                delete.encode(),
                kind::ASHARE_ANNOUNCE,
                2,
                Some(2),
            ),
            (
                "TransferMsg",
                get_chunk.encode(),
                kind::ASHARE_TRANSFER,
                3,
                Some(0),
            ),
            (
                "TransferMsg",
                chunk_data.encode(),
                kind::ASHARE_TRANSFER,
                3,
                Some(1),
            ),
            (
                "DigestAnnounce",
                announce.encode(),
                kind::ASTREAM_DIGEST,
                4,
                None,
            ),
            ("StreamMsg", push.encode(), kind::ASTREAM_DATA, 5, Some(0)),
            ("StreamMsg", pull.encode(), kind::ASTREAM_DATA, 5, Some(1)),
        ];
        let mut kind_of = std::collections::BTreeMap::new();
        let mut seen = std::collections::BTreeSet::new();
        for (name, bytes, constant, kind, tag) in &table {
            assert_eq!(constant, kind, "{name}: kind constant renumbered");
            assert_eq!(bytes[0], *kind, "{name}: kind byte");
            if let Some(tag) = tag {
                assert_eq!(bytes[1], *tag, "{name}: variant tag");
            }
            assert_eq!(
                *kind_of.entry(*kind).or_insert(*name),
                *name,
                "two types share kind {kind}"
            );
            assert!(
                seen.insert((*kind, *tag)),
                "{name}: two variants share a tag"
            );
        }
    }

    #[test]
    fn a_one_kib_publish_costs_thirteen_bytes_of_envelope() {
        let publish = EdgeOp::Publish {
            topic: 1,
            payload: vec![0xab; 1024],
        };
        let bytes = broadcast_payload(&publish).expect("publish broadcasts");
        // The benchmark's `apps.encode_amplification` is this over 1 024:
        // 1.013 (the same publish was 3 676 B as JSON, 3.59).
        assert_eq!(bytes.len(), 1037);
    }

    #[test]
    fn hostile_lengths_kinds_tags_and_names_are_rejected() {
        // Length prefixes far past the input: the event body, a file name, a
        // digest list (each claimed digest must be backed by 32 real bytes).
        let mut event = vec![kind::ASUB_EVENT];
        event.extend_from_slice(&7u64.to_le_bytes());
        event.extend_from_slice(&u32::MAX.to_le_bytes());
        event.extend_from_slice(&[0; 16]);
        assert_eq!(AsubEvent::decode(&event), None);

        let mut put = vec![kind::ASHARE_ANNOUNCE, 0];
        put.extend_from_slice(&1u64.to_le_bytes());
        let name_at = put.len();
        put.extend_from_slice(&1u32.to_le_bytes());
        put.push(b'f');
        put.extend_from_slice(&100u64.to_le_bytes());
        let digests_at = put.len();
        put.extend_from_slice(&1u32.to_le_bytes());
        put.extend_from_slice(Digest::ZERO.as_bytes());
        assert!(matches!(Announce::decode(&put), Some(Announce::Put { .. })));
        let mut many_digests = put.clone();
        many_digests[digests_at..digests_at + 4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(Announce::decode(&many_digests), None);
        let mut long_name = put.clone();
        long_name[name_at..name_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Announce::decode(&long_name), None);

        // A name that is not UTF-8.
        let mut bad_name = put.clone();
        bad_name[name_at + 4] = 0xff;
        assert_eq!(Announce::decode(&bad_name), None);

        // An unknown variant tag, and a kind byte of another (or no) type.
        let mut bad_tag = put.clone();
        bad_tag[1] = 3;
        assert_eq!(Announce::decode(&bad_tag), None);
        let mut bad_kind = put;
        bad_kind[0] = kind::ASHARE_TRANSFER;
        assert_eq!(Announce::decode(&bad_kind), None);
        assert!(accepted_by(&bad_kind).is_empty());
        assert_eq!(StreamMsg::decode(&[kind::ASTREAM_DATA, 2]), None);
        assert_eq!(TransferMsg::decode(&[kind::ASHARE_TRANSFER, 2]), None);
    }
}
