//! Wire-codec coverage: round trips over every `AtumMessage` variant
//! (including the Arc-backed fabric types from the zero-copy PR), the
//! wire-size/encoding agreement bound, and adversarial decodes (truncation,
//! oversized length prefixes, trailing garbage) that must fail cleanly.

use atum::core::{AtumMessage, GroupEnvelope, GroupOp, GroupPayload, GroupVote};
use atum::crypto::{Digest, KeyRegistry, SignatureChain};
use atum::overlay::{CycleNeighbors, NeighborTable, WalkCertificate, WalkPurpose, WalkState};
use atum::smr::SmrMessage;
use atum::types::wire::{wire_len, WireError, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use atum::types::{BroadcastId, Composition, NodeId, NodeIdentity, VgroupId, WalkId, WireSize};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn comp(ids: &[u64]) -> Composition {
    ids.iter().map(|&i| NodeId::new(i)).collect()
}

fn sample_walk(seed: u64) -> WalkState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut walk = WalkState::new(
        WalkId::new(VgroupId::new(2), 9),
        WalkPurpose::JoinPlacement {
            joiner: NodeId::new(7),
        },
        VgroupId::new(2),
        comp(&[4, 5, 6]),
        3,
        &mut rng,
    );
    walk.advance(VgroupId::new(3));
    walk
}

fn sample_certificate() -> WalkCertificate {
    let mut registry = KeyRegistry::new();
    for i in 0..6 {
        registry.register(NodeId::new(i), 5);
    }
    let walk_id = WalkId::new(VgroupId::new(1), 3);
    let mut cert = WalkCertificate::new();
    let signers: Vec<_> = [0u64, 1]
        .iter()
        .map(|&i| registry.signer(NodeId::new(i)).unwrap())
        .collect();
    cert.push_step(walk_id, VgroupId::new(2), comp(&[3, 4, 5]), &signers);
    cert
}

fn sample_chain() -> SignatureChain {
    let mut registry = KeyRegistry::new();
    registry.register(NodeId::new(1), 9);
    registry.register(NodeId::new(2), 9);
    let digest = atum::crypto::Digest::of(b"batch");
    let mut chain = SignatureChain::new(digest, &registry.signer(NodeId::new(1)).unwrap());
    chain.append(&registry.signer(NodeId::new(2)).unwrap());
    chain
}

fn sample_neighbors() -> NeighborTable {
    let mut table = NeighborTable::new(3);
    table.set_cycle(
        0,
        CycleNeighbors {
            predecessor: VgroupId::new(8),
            predecessor_composition: comp(&[1, 2]),
            successor: VgroupId::new(9),
            successor_composition: comp(&[3, 4]),
        },
    );
    // Cycle 1 stays unknown (None) on purpose; cycle 2 is set.
    table.set_cycle(
        2,
        CycleNeighbors {
            predecessor: VgroupId::new(9),
            predecessor_composition: comp(&[3, 4]),
            successor: VgroupId::new(8),
            successor_composition: comp(&[1, 2]),
        },
    );
    table
}

fn all_payload_variants() -> Vec<GroupPayload> {
    vec![
        GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(1), 2),
            payload: b"abc".to_vec().into(),
            hops: 3,
        },
        GroupPayload::Walk(sample_walk(5)),
        GroupPayload::CompositionUpdate {
            group: VgroupId::new(1),
            composition: comp(&[1, 2]),
        },
        GroupPayload::ExchangeOffer {
            walk: WalkId::new(VgroupId::new(1), 2),
            leaving: NodeId::new(3),
            incoming: NodeIdentity::simulated(NodeId::new(4)),
        },
        GroupPayload::ExchangeRefuse {
            walk: WalkId::new(VgroupId::new(1), 2),
            leaving: NodeId::new(3),
        },
        GroupPayload::ExchangeAccept {
            walk: WalkId::new(VgroupId::new(1), 2),
            given: NodeId::new(3),
            adopted: NodeIdentity::simulated(NodeId::new(4)),
        },
        GroupPayload::SplitInsert {
            cycle: 1,
            new_group: VgroupId::new(7),
            composition: comp(&[1, 2]),
        },
        GroupPayload::NeighborIntro {
            cycle: 1,
            sender_is_predecessor: true,
            group: VgroupId::new(7),
            composition: comp(&[1, 2]),
        },
        GroupPayload::MergeRequest {
            from: VgroupId::new(7),
            members: vec![NodeIdentity::simulated(NodeId::new(1))],
        },
        GroupPayload::MergeAccept {
            into: VgroupId::new(7),
            new_composition: comp(&[1, 2]),
        },
        GroupPayload::CyclePatch {
            cycle: 1,
            new_is_successor: true,
            group: VgroupId::new(7),
            composition: comp(&[1, 2]),
        },
        GroupPayload::LinkProbe {
            cycle: 1,
            sender_is_predecessor: true,
            far_neighbor: VgroupId::new(7),
            nonce: 3,
        },
        GroupPayload::LinkConfirm {
            cycle: 1,
            sender_is_predecessor: true,
            nonce: 3,
        },
    ]
}

fn all_op_variants() -> Vec<GroupOp> {
    vec![
        GroupOp::HandleJoinRequest {
            joiner: NodeIdentity::simulated(NodeId::new(1)),
            nonce: 2,
            rejoin: true,
        },
        GroupOp::AdmitJoiner {
            joiner: NodeIdentity::simulated(NodeId::new(1)),
            walk: WalkId::new(VgroupId::new(2), 3),
        },
        GroupOp::Leave {
            node: NodeId::new(1),
            nonce: 2,
        },
        GroupOp::Evict {
            node: NodeId::new(1),
            accuser: NodeId::new(2),
            nonce: 3,
        },
        GroupOp::Broadcast {
            id: BroadcastId::new(NodeId::new(1), 2),
            payload: b"xyz".to_vec().into(),
        },
        GroupOp::OfferExchange {
            walk: WalkId::new(VgroupId::new(1), 2),
            leaving: NodeIdentity::simulated(NodeId::new(3)),
            origin: VgroupId::new(4),
            origin_composition: comp(&[5, 6]),
        },
        GroupOp::CompleteExchange {
            walk: WalkId::new(VgroupId::new(1), 2),
            leaving: NodeId::new(3),
            incoming: NodeIdentity::simulated(NodeId::new(4)),
            partner: VgroupId::new(5),
            partner_composition: comp(&[6, 7]),
        },
        GroupOp::FinishExchange {
            walk: WalkId::new(VgroupId::new(1), 2),
            given: NodeId::new(3),
            adopted: NodeIdentity::simulated(NodeId::new(4)),
        },
        GroupOp::AcceptMerge {
            from: VgroupId::new(1),
            members: vec![NodeIdentity::simulated(NodeId::new(2))],
        },
        GroupOp::InsertOverlayNeighbor {
            cycle: 1,
            new_group: VgroupId::new(2),
            composition: comp(&[3, 4]),
        },
    ]
}

fn sample_vote() -> AtumMessage {
    AtumMessage::GroupVote(Arc::new(GroupVote {
        source: VgroupId::new(5),
        source_composition: comp(&[1, 2, 3, 4]),
        digest: Digest::of(b"voted-for"),
        id: BroadcastId::new(NodeId::new(1), 2),
    }))
}

fn all_message_variants() -> Vec<AtumMessage> {
    let mut messages = vec![
        AtumMessage::JoinContactRequest,
        AtumMessage::JoinContactReply {
            group: VgroupId::new(3),
            composition: comp(&[1, 2, 3]),
        },
        AtumMessage::JoinRequest {
            joiner: NodeIdentity::simulated(NodeId::new(9)),
            nonce: 4,
            rejoin: false,
        },
        AtumMessage::Welcome {
            group: VgroupId::new(3),
            composition: comp(&[1, 2, 9]),
            neighbors: sample_neighbors(),
            epoch: 17,
        },
        AtumMessage::StateRequest {
            group: VgroupId::new(3),
            epoch: 16,
        },
        AtumMessage::Heartbeat {
            group: VgroupId::new(3),
            epoch: 17,
        },
        AtumMessage::Smr {
            group: VgroupId::new(3),
            epoch: 17,
            msg: SmrMessage::SyncValue {
                slot: 8,
                sender: NodeId::new(1),
                batch: all_op_variants(),
                chain: sample_chain(),
            },
        },
        AtumMessage::Smr {
            group: VgroupId::new(3),
            epoch: 17,
            msg: SmrMessage::ViewChange {
                new_view: 2,
                prepared: vec![(
                    4,
                    GroupOp::Leave {
                        node: NodeId::new(1),
                        nonce: 0,
                    },
                )],
            },
        },
        AtumMessage::Smr {
            group: VgroupId::new(3),
            epoch: 17,
            msg: SmrMessage::NewView {
                view: 2,
                ops: vec![(
                    4,
                    GroupOp::Leave {
                        node: NodeId::new(1),
                        nonce: 0,
                    },
                )],
                skips: vec![5, 6],
            },
        },
        AtumMessage::App {
            payload: vec![7; 100],
            advertised_size: 0,
        },
        sample_vote(),
        AtumMessage::BroadcastKeys {
            group: VgroupId::new(5),
            keys: vec![BroadcastId::new(NodeId::new(1), 2)],
        },
        // The announce-cadence pull, and the pull of a starved vote quorum.
        AtumMessage::BroadcastPull {
            group: VgroupId::new(5),
            keys: vec![BroadcastId::new(NodeId::new(1), 2)],
            voted: None,
        },
        AtumMessage::BroadcastPull {
            group: VgroupId::new(5),
            keys: vec![BroadcastId::new(NodeId::new(1), 2)],
            voted: Some(Digest::of(b"voted-for")),
        },
    ];
    // One Group message per payload variant, with a walk carrying a signed
    // certificate thrown in.
    for payload in all_payload_variants() {
        messages.push(AtumMessage::Group(Arc::new(GroupEnvelope::new(
            VgroupId::new(5),
            comp(&[1, 2, 3, 4, 5]),
            payload,
        ))));
    }
    let mut walk = sample_walk(6);
    walk.certificate = sample_certificate();
    messages.push(AtumMessage::Group(Arc::new(GroupEnvelope::new(
        VgroupId::new(5),
        comp(&[1, 2, 3]),
        GroupPayload::Walk(walk),
    ))));
    messages
}

#[test]
fn every_message_variant_round_trips() {
    let messages = all_message_variants();
    assert!(messages.len() >= 22, "cover every variant");
    for msg in &messages {
        let bytes = msg.encode_body();
        let back = AtumMessage::decode_body(&bytes).unwrap_or_else(|e| {
            panic!("decode failed for {msg:?}: {e}");
        });
        assert_eq!(&back, msg, "round trip changed the message");
    }
}

#[test]
fn group_envelopes_recompute_their_digest_on_decode() {
    // The digest is memoized sender-side but never trusted from the wire:
    // the decoder recomputes it from the payload, so the round-tripped
    // envelope carries the same digest without it ever being encoded.
    let envelope = GroupEnvelope::new(
        VgroupId::new(5),
        comp(&[1, 2, 3]),
        GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(1), 0),
            payload: vec![9u8; 64].into(),
            hops: 2,
        },
    );
    let msg = AtumMessage::Group(Arc::new(envelope.clone()));
    let AtumMessage::Group(back) = AtumMessage::decode_body(&msg.encode_body()).unwrap() else {
        panic!("variant changed");
    };
    assert_eq!(back.digest(), envelope.digest());
}

#[test]
fn arc_sharing_survives_encoding_of_fanout_copies() {
    // Fan-out copies share one envelope allocation; encoding each copy must
    // not clone the envelope (encode takes &self through the Arc).
    let envelope = Arc::new(GroupEnvelope::new(
        VgroupId::new(5),
        comp(&[1, 2, 3]),
        GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(1), 0),
            payload: vec![1u8; 32].into(),
            hops: 0,
        },
    ));
    let copies: Vec<AtumMessage> = (0..4)
        .map(|_| AtumMessage::Group(envelope.clone()))
        .collect();
    assert_eq!(Arc::strong_count(&envelope), 5);
    let encodings: Vec<Vec<u8>> = copies.iter().map(|m| m.encode_body()).collect();
    assert_eq!(Arc::strong_count(&envelope), 5, "encoding cloned the Arc");
    assert!(encodings.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn wire_size_is_the_exact_frame_size() {
    // The satellite bound: WireSize and the codec agree exactly (bound 0)
    // for every variant; `App` with an advertised size is the documented
    // exception (the logical payload stands in for a larger transfer).
    for msg in &all_message_variants() {
        assert_eq!(
            msg.wire_size(),
            FRAME_HEADER_LEN + wire_len(msg),
            "wire_size diverged from the encoding for {msg:?}"
        );
        assert_eq!(wire_len(msg), msg.encode_body().len());
    }
    let advertised = AtumMessage::App {
        payload: vec![1, 2, 3],
        advertised_size: 1_000_000,
    };
    assert_eq!(advertised.wire_size(), FRAME_HEADER_LEN + 1_000_000);
}

#[test]
fn encoded_frame_cache_is_byte_identical_for_every_variant() {
    use atum::net::frame::{frame_bytes, message_frame_shared};
    use atum::types::wire::FRAME_KIND_MESSAGE;
    use atum::types::FrameMemo;

    for msg in &all_message_variants() {
        let fresh = frame_bytes(FRAME_KIND_MESSAGE, &msg.encode_body());
        let (frame, encoded) = message_frame_shared(msg);
        assert!(encoded, "first framing must encode");
        assert_eq!(&frame[..], &fresh[..], "cached frame diverged for {msg:?}");
        // `wire_size` is the exact frame size, so it must also be the exact
        // length of the shareable frame.
        if !matches!(
            msg,
            AtumMessage::App {
                advertised_size: 1..,
                ..
            }
        ) {
            assert_eq!(msg.wire_size(), frame.len());
        }
        let (again, encoded_again) = message_frame_shared(msg);
        assert_eq!(&again[..], &fresh[..]);
        match msg {
            AtumMessage::Group(_) => {
                // Group frames are memoized on the shared envelope: the
                // second framing reuses the same allocation.
                assert!(!encoded_again, "group re-framing must hit the memo");
                assert!(Arc::ptr_eq(&frame, &again));
                assert!(msg.cached_frame().is_some());
                assert!(msg.fanout_identity().is_some());
            }
            AtumMessage::GroupVote(_) => {
                // Votes share an identity across their fan-out (one encode
                // per batch) but are never re-sent, so they carry no memo.
                assert!(encoded_again);
                assert!(msg.cached_frame().is_none());
                assert!(msg.fanout_identity().is_some());
            }
            _ => {
                // Unicast-shaped messages opt out of the memo.
                assert!(encoded_again);
                assert!(msg.cached_frame().is_none());
                assert!(msg.fanout_identity().is_none());
            }
        }
    }
}

#[test]
fn cloned_envelopes_do_not_inherit_the_frame_memo() {
    use atum::net::frame::message_frame_shared;
    use atum::types::FrameMemo;

    let envelope = Arc::new(GroupEnvelope::new(
        VgroupId::new(5),
        comp(&[1, 2, 3]),
        GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(4), 4),
            payload: b"memo".to_vec().into(),
            hops: 0,
        },
    ));
    let msg = AtumMessage::Group(envelope.clone());
    let (_, encoded) = message_frame_shared(&msg);
    assert!(encoded);
    assert!(msg.cached_frame().is_some());
    // An owned clone has mutable public fields, so it must start with an
    // empty memo (a stale frame would otherwise survive a field edit).
    let cloned = AtumMessage::Group(Arc::new((*envelope).clone()));
    assert!(cloned.cached_frame().is_none());
    let (_, encoded_clone) = message_frame_shared(&cloned);
    assert!(encoded_clone);
}

/// Decodes a message body that must be a `Group` message.
fn decode_group(bytes: &[u8]) -> Arc<GroupEnvelope> {
    let AtumMessage::Group(envelope) = AtumMessage::decode_body(bytes).unwrap() else {
        panic!("variant changed");
    };
    envelope
}

#[test]
fn duplicate_group_decodes_hit_the_verified_digest_cache() {
    // Gossip re-delivers byte-identical envelopes by design; the receive
    // path must verify the digest once and serve duplicates from the
    // bounded cache. The digest itself must stay exactly the
    // recompute-from-payload value.
    let envelope = GroupEnvelope::new(
        VgroupId::new(11),
        comp(&[1, 2, 3]),
        GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(2), 0xD16E57),
            payload: b"digest-cache-duplicate-arrival-test".to_vec().into(),
            hops: 1,
        },
    );
    let bytes = AtumMessage::Group(Arc::new(envelope.clone())).encode_body();

    // First arrival verifies (computes) the digest and seeds the cache.
    let first = decode_group(&bytes);
    assert_eq!(first.digest(), envelope.digest());
    let (hits_before, _) = atum::core::verified_digest_stats();
    // Duplicate arrivals are served from the cache — and still carry the
    // exact recomputed digest.
    let second = decode_group(&bytes);
    assert_eq!(second.digest(), envelope.digest());
    let (hits_after, _) = atum::core::verified_digest_stats();
    assert!(
        hits_after > hits_before,
        "duplicate decode did not hit the verified-digest cache"
    );
}

#[test]
fn structural_digest_values_are_pinned() {
    // The digest *function* — SHA-256 over the codec walk in the digest
    // stream's primitive form (BE integers, u64 lengths). Values captured
    // while every type still carried its own hand-written digest walk, so
    // this is the proof that folding those into `wire_encode` changed no
    // digest. They seed placement walks and pick exchange candidates: re-pin
    // only deliberately, together with the fabric-equivalence goldens.
    use atum::crypto::Digestible;
    const PAYLOADS: [&str; 13] = [
        "4e83161afd15ba7d00b014935b8043ced3bbe55ca59511883cb5c96d4725a8a8",
        "ecbe76908a3988361b6b10ae4dee676df070efd6bd8f737acd137e48699d5ac3",
        "e06f6c73ff5e4b62e99a5f63221a70f2d2be2e79a57c6952d590540ebae87309",
        "510d8d306f7469a20b7155e09e760ceefa9cf904447fca75e03e24eed9caf5d5",
        "1aa57968fd76d6a8c612d04afd853174707ac64de4380be6f11dffa0e4ca54dc",
        "0f6b47906d2c95daaca80961655512b35417124d0eab9b173a483bb8814ad925",
        "d286732f90f60dab6767c492be8a440296cea6c6b5aecf8438ddf4854bd76706",
        "556b4c99bd958ab7d53b2f3e6783c1b3c45262ff56a22c8a542f50c18a6891a5",
        "8898b0bd5e0c5ebeaff8dd5798741835c49e359529ed73e40c0361da5ad582b3",
        "e18ce819b09e195282056d7f020d7234643976ae4a139263b86dac3cd4db3f33",
        "0ca30e6872ea72be0e8661f1392f0229bff566880ea6f6725c73a430940b1bd8",
        "6e9d146a6b5a6097500a94ed60e2146acc142ef5ba2cc070dd0301cc1d8197a8",
        "83147b92fbce294937de7d1bbd99724b4a5ee17d18ee96c7d39f0b6b9e676540",
    ];
    const OPS: [&str; 10] = [
        "9f2a2ebcd626dd335dff8bf40f4d3d17c742573956c9661ee2e1e42b2240b27c",
        "a2a41b7300464c6f46b83df1c0c2be18e1e5785cb1140148557213df208e1fae",
        "c453ea16034b5ba20d6cd906df43dbc7c2603cc2dfe335f0f0942322557eafd7",
        "1de7331f23039b933d068c5b7429cfef5de0d7a2bce2de48508dc37215b8acf1",
        "f60530351af7748cc27650de05f62ed8537c7c998702c8fc252d5bc4ed6fd6c9",
        "a88ada028ccd07c39f0e63c2f65045c981f05ac94e6857dcc486e8fd42cb6c37",
        "a963cde2b349af583139ed20d63f2ad6ba196179378b03a5bad3eba8fca06e16",
        "32ede00b082665bfa7952b6178b6aa9a85de1aff4acadc7ee48b4f209e1ea582",
        "6da1da99123a4c622d1c2b4b50d3e5e1d441489fc45810af087fa0003868b091",
        "40a3ea72b31ae9272a5044e2fa95a5a89a93e22b8b504b1db38e7f9c24306ebc",
    ];
    let hex = |d: atum::crypto::Digest| d.to_string();
    for (payload, pinned) in all_payload_variants().iter().zip(PAYLOADS) {
        assert_eq!(hex(payload.digest()), pinned, "{payload:?}");
    }
    for (op, pinned) in all_op_variants().iter().zip(OPS) {
        assert_eq!(hex(atum::smr::SmrOp::digest(op)), pinned, "{op:?}");
    }
    assert_eq!(
        hex(sample_walk(5).structural_digest()),
        "479fb9d7b052efc458af388a2f1f444ca5f797428b1616900cdf77866c427b64"
    );
    let mut certified = sample_walk(6);
    certified.certificate = sample_certificate();
    assert_eq!(
        hex(certified.structural_digest()),
        "9268f5566220f34577ea02cdb831741a5b80436f3430819d4dfab7360c231459"
    );
    assert_eq!(
        hex(sample_certificate().structural_digest()),
        "3766662a5ffc798ef0de60a190bf2494c5eac5caf19175f307a40d4b600b9493"
    );
}

#[test]
fn non_canonical_composition_bytes_decode_to_the_canonical_digest() {
    // The trust boundary derives the digest from the decoded *value*, not
    // from the received bytes: `Composition::wire_decode` canonicalises, so
    // a hostile sender's out-of-order, duplicate-bearing member list must
    // land on the digest every honest copy of the same update carries.
    let mut bytes = vec![7u8]; // Group tag
    bytes.extend_from_slice(&11u64.to_le_bytes()); // source
    bytes.extend_from_slice(&3u32.to_le_bytes()); // source composition
    for member in [1u64, 2, 3] {
        bytes.extend_from_slice(&member.to_le_bytes());
    }
    bytes.push(2); // CompositionUpdate tag
    bytes.extend_from_slice(&0xBAD_C0DEu64.to_le_bytes()); // group
    bytes.extend_from_slice(&4u32.to_le_bytes()); // members: 9, 4, 9, 6
    for member in [9u64, 4, 9, 6] {
        bytes.extend_from_slice(&member.to_le_bytes());
    }
    let canonical = GroupEnvelope::new(
        VgroupId::new(11),
        comp(&[1, 2, 3]),
        GroupPayload::CompositionUpdate {
            group: VgroupId::new(0xBAD_C0DE),
            composition: comp(&[4, 6, 9]),
        },
    );
    let first = decode_group(&bytes);
    assert_eq!(*first, canonical);
    assert_eq!(first.digest(), canonical.digest());
    // The same hostile bytes again: served from the verified-digest cache,
    // still with the canonical value's digest.
    let (hits_before, _) = atum::core::verified_digest_stats();
    let second = decode_group(&bytes);
    let (hits_after, _) = atum::core::verified_digest_stats();
    assert!(hits_after > hits_before, "second decode missed the cache");
    assert_eq!(second.digest(), canonical.digest());
}

#[test]
fn truncated_encodings_fail_cleanly_at_every_cut() {
    for msg in &all_message_variants() {
        let bytes = msg.encode_body();
        // Every strict prefix must fail with a clean error, never panic.
        let step = (bytes.len() / 23).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            let err = AtumMessage::decode_body(&bytes[..cut]);
            assert!(
                err.is_err(),
                "decode of {cut}/{} bytes succeeded",
                bytes.len()
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let msg = AtumMessage::Heartbeat {
        group: VgroupId::new(3),
        epoch: 17,
    };
    let mut bytes = msg.encode_body();
    bytes.push(0x00);
    assert!(matches!(
        AtumMessage::decode_body(&bytes),
        Err(WireError::TrailingBytes(1))
    ));
}

#[test]
fn group_votes_are_small_exact_and_off_the_edge_vocabulary() {
    use atum::types::wire::decode_exact;
    use atum::types::{EdgeRequest, EdgeResponse};

    let vote = sample_vote();
    let bytes = vote.encode_body();
    // Tag, source, composition (length + 4 members), digest, broadcast id:
    // no payload.
    assert_eq!(bytes.len(), 1 + 8 + (4 + 4 * 8) + 32 + 16);
    assert_eq!(AtumMessage::decode_body(&bytes).unwrap(), vote);
    let mut long = bytes.clone();
    long.push(0);
    assert!(matches!(
        AtumMessage::decode_body(&long),
        Err(WireError::TrailingBytes(1))
    ));
    // Node and edge bodies share a codec, not a vocabulary: neither side's
    // decoder takes the other's bytes.
    assert!(decode_exact::<EdgeRequest>(&bytes).is_err());
    assert!(decode_exact::<EdgeResponse>(&bytes).is_err());
    let response = EdgeResponse {
        seq: 11,
        status: atum::types::EdgeStatus::Ok,
        payload: bytes.clone(),
    };
    let response_bytes = atum::types::wire::encode_to_vec(&response);
    assert!(AtumMessage::decode_body(&response_bytes).is_err());
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    // A Welcome whose composition claims u32::MAX entries: the length check
    // runs against the remaining bytes before any Vec is reserved.
    let mut bytes = vec![3u8]; // Welcome tag
    bytes.extend_from_slice(&3u64.to_le_bytes()); // group
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // composition length
    bytes.extend_from_slice(&[0u8; 16]); // far fewer bytes than claimed
    assert!(matches!(
        AtumMessage::decode_body(&bytes),
        Err(WireError::Malformed(_))
    ));

    // Same for an App payload length prefix.
    let mut bytes = vec![8u8]; // App tag
    bytes.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 8]);
    assert!(AtumMessage::decode_body(&bytes).is_err());
}

#[test]
fn unknown_tags_and_malformed_scalars_are_rejected() {
    // Unknown top-level variant tag.
    assert!(matches!(
        AtumMessage::decode_body(&[250u8]),
        Err(WireError::Malformed("atum-message tag"))
    ));
    // A bool byte that is neither 0 nor 1 (JoinRequest.rejoin).
    let mut bytes = vec![2u8]; // JoinRequest tag
    NodeIdentity::simulated(NodeId::new(9));
    bytes.extend_from_slice(&9u64.to_le_bytes()); // identity id
    bytes.extend_from_slice(&[10, 0, 0, 9]); // identity ip
    bytes.extend_from_slice(&7009u16.to_le_bytes()); // identity port
    bytes.extend_from_slice(&4u64.to_le_bytes()); // nonce
    bytes.push(7); // rejoin: invalid bool
    assert!(matches!(
        AtumMessage::decode_body(&bytes),
        Err(WireError::Malformed("bool"))
    ));
}

#[test]
fn random_garbage_never_panics_the_decoder() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0DEC);
    for len in [0usize, 1, 7, 64, 512] {
        for _ in 0..2_000 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            // Either error or (vanishingly unlikely) a valid message; both
            // are fine — what is being tested is the absence of panics and
            // runaway allocations.
            let _ = AtumMessage::decode_body(&bytes);
        }
    }
}

#[test]
fn mutated_valid_encodings_never_panic_the_decoder() {
    // Bit-flip fuzzing seeded from real encodings: this reaches deep
    // decoder states that pure random bytes rarely hit.
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1235);
    for msg in &all_message_variants() {
        let bytes = msg.encode_body();
        for _ in 0..200 {
            let mut mutated = bytes.clone();
            let flips = rng.gen_range(1..4);
            for _ in 0..flips {
                let idx = rng.gen_range(0..mutated.len());
                mutated[idx] ^= 1u8 << rng.gen_range(0..8u32);
            }
            let _ = AtumMessage::decode_body(&mutated);
        }
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gossip_round_trips_for_arbitrary_payloads(
            payload in proptest::collection::vec(0u8..=255, 0..2048),
            origin in 0u64..1_000,
            seq in 0u64..1_000,
            hops in 0u32..64,
        ) {
            let msg = AtumMessage::Group(Arc::new(GroupEnvelope::new(
                VgroupId::new(5),
                comp(&[origin, origin + 1, origin + 2]),
                GroupPayload::Gossip {
                    id: BroadcastId::new(NodeId::new(origin), seq),
                    payload: payload.into(),
                    hops,
                },
            )));
            let back = AtumMessage::decode_body(&msg.encode_body()).unwrap();
            prop_assert_eq!(back, msg);
        }

        #[test]
        fn welcomes_round_trip_for_arbitrary_compositions(
            members in proptest::collection::vec(0u64..10_000, 1..40),
            epoch in 0u64..1_000_000,
        ) {
            let msg = AtumMessage::Welcome {
                group: VgroupId::new(epoch),
                composition: members.iter().map(|&m| NodeId::new(m)).collect(),
                neighbors: sample_neighbors(),
                epoch,
            };
            let back = AtumMessage::decode_body(&msg.encode_body()).unwrap();
            prop_assert_eq!(back, msg);
        }

        #[test]
        fn broadcast_ops_round_trip_inside_smr(
            payload in proptest::collection::vec(0u8..=255, 0..512),
            slot in 0u64..10_000,
        ) {
            let op = GroupOp::Broadcast {
                id: BroadcastId::new(NodeId::new(slot), slot),
                payload: payload.into(),
            };
            let msg = AtumMessage::Smr {
                group: VgroupId::new(1),
                epoch: slot,
                msg: SmrMessage::PrePrepare { view: 0, seq: slot, op },
            };
            let back = AtumMessage::decode_body(&msg.encode_body()).unwrap();
            prop_assert_eq!(back, msg);
        }
    }
}
