//! Wire-codec coverage: round trips over every `AtumMessage` variant
//! (including the Arc-backed fabric types from the zero-copy PR), the
//! wire-size/encoding agreement bound, and adversarial decodes (truncation,
//! oversized length prefixes, trailing garbage) that must fail cleanly.

use atum::core::{AtumMessage, Configuration, GroupEnvelope, GroupOp, GroupPayload, GroupVote};
use atum::crypto::{Digest, KeyRegistry, SignatureChain};
use atum::overlay::{CycleNeighbors, NeighborTable, WalkPurpose, WalkState};
use atum::smr::SmrMessage;
use atum::types::wire::{
    decode_exact, encode_to_vec, wire_len, WireError, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use atum::types::{
    BroadcastId, Composition, NodeId, VgroupId, WalkId, WireDecode, WireEncode, WireSize,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Debug;
use std::sync::Arc;

fn comp(ids: &[u64]) -> Composition {
    ids.iter().map(|&i| NodeId::new(i)).collect()
}

/// A placement walk of length `rwl` from vgroup 2, `hops` steps along, its
/// bulk RNG seeded with `seed`.
fn walk_of(seed: u64, rwl: u8, hops: u8) -> WalkState {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut walk = WalkState::new(
        WalkId::new(VgroupId::new(2), 9),
        WalkPurpose::JoinPlacement {
            joiner: NodeId::new(7),
        },
        comp(&[4, 5, 6]),
        rwl,
        &mut rng,
    );
    for _ in 0..hops {
        walk.advance();
    }
    walk
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
        GroupPayload::Walk(walk_of(5, 3, 1)),
        GroupPayload::CompositionUpdate {
            group: VgroupId::new(1),
            composition: comp(&[1, 2]),
        },
        GroupPayload::ExchangeOffer {
            walk: WalkId::new(VgroupId::new(1), 2),
            leaving: NodeId::new(3),
            incoming: NodeId::new(4),
        },
        GroupPayload::ExchangeRefuse {
            walk: WalkId::new(VgroupId::new(1), 2),
        },
        GroupPayload::ExchangeAccept {
            walk: WalkId::new(VgroupId::new(1), 2),
            given: NodeId::new(3),
            adopted: NodeId::new(4),
        },
        GroupPayload::NeighborIntro {
            cycle: 1,
            sender_is_predecessor: true,
            group: VgroupId::new(7),
            composition: comp(&[1, 2]),
        },
        GroupPayload::MergeRequest {
            from: VgroupId::new(7),
            members: vec![NodeId::new(1)],
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
            joiner: NodeId::new(1),
            nonce: 2,
            rejoin: true,
        },
        GroupOp::AdmitJoiner {
            joiner: NodeId::new(1),
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
            leaving: NodeId::new(3),
            origin_composition: comp(&[5, 6]),
        },
        GroupOp::CompleteExchange {
            walk: WalkId::new(VgroupId::new(1), 2),
            leaving: NodeId::new(3),
            incoming: NodeId::new(4),
            partner_composition: comp(&[6, 7]),
        },
        GroupOp::FinishExchange {
            walk: WalkId::new(VgroupId::new(1), 2),
            given: NodeId::new(3),
            adopted: NodeId::new(4),
        },
        GroupOp::AcceptMerge {
            from: VgroupId::new(1),
            members: vec![NodeId::new(2)],
        },
        GroupOp::InsertOverlayNeighbor {
            cycle: 1,
            new_group: VgroupId::new(2),
            composition: comp(&[3, 4]),
        },
    ]
}

fn sample_welcome() -> AtumMessage {
    AtumMessage::Welcome(Box::new(Configuration {
        vgroup: VgroupId::new(3),
        composition: comp(&[1, 2, 9]),
        neighbors: sample_neighbors(),
        epoch: 17,
    }))
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
            composition: comp(&[1, 2, 3]),
        },
        AtumMessage::JoinRequest {
            joiner: NodeId::new(9),
            nonce: 4,
            rejoin: false,
        },
        sample_welcome(),
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
            msg: Box::new(SmrMessage::SyncValue {
                slot: 8,
                sender: NodeId::new(1),
                batch: all_op_variants(),
                chain: sample_chain(),
            }),
        },
        AtumMessage::Smr {
            group: VgroupId::new(3),
            epoch: 17,
            msg: Box::new(SmrMessage::ViewChange {
                new_view: 2,
                prepared: vec![(
                    4,
                    GroupOp::Leave {
                        node: NodeId::new(1),
                        nonce: 0,
                    },
                )],
            }),
        },
        AtumMessage::Smr {
            group: VgroupId::new(3),
            epoch: 17,
            msg: Box::new(SmrMessage::NewView {
                view: 2,
                ops: vec![(
                    4,
                    GroupOp::Leave {
                        node: NodeId::new(1),
                        nonce: 0,
                    },
                )],
                skips: vec![5, 6],
            }),
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
            voted: Some(Box::new(Digest::of(b"voted-for"))),
        },
    ];
    // One Group message per payload variant, and a walk at its last hop.
    for payload in all_payload_variants() {
        messages.push(AtumMessage::Group(Arc::new(GroupEnvelope::new(
            VgroupId::new(5),
            comp(&[1, 2, 3, 4, 5]),
            payload,
        ))));
    }
    messages.push(AtumMessage::Group(Arc::new(GroupEnvelope::new(
        VgroupId::new(5),
        comp(&[1, 2, 3]),
        GroupPayload::Walk(walk_of(6, 5, 5)),
    ))));
    messages
}

/// How many variant tags `T`'s decoder knows: the first bytes it does not
/// reject as `unknown`.
fn known_tags<T: WireDecode>(unknown: &str) -> usize {
    let known = |tag: u8| match decode_exact::<T>(&[tag]) {
        Err(WireError::Malformed(what)) => what != unknown,
        _ => true,
    };
    (0..=u8::MAX).filter(|&tag| known(tag)).count()
}

/// How many variant tags `T`'s decoder knows when its tag follows `prefix`
/// (an application payload's kind byte): the tags it does not reject as
/// `unknown`. Zero bytes follow the tag, so a decoder that reads fields
/// before it dispatches on the tag still reaches the tag check.
fn known_tags_after<T: WireDecode>(prefix: &[u8], unknown: &str) -> usize {
    let known = |tag: u8| {
        let bytes = [prefix, &[tag], &[0u8; 16]].concat();
        match decode_exact::<T>(&bytes) {
            Err(WireError::Malformed(what)) => what != unknown,
            _ => true,
        }
    };
    (0..=u8::MAX).filter(|&tag| known(tag)).count()
}

/// The first sample of each variant, in order.
fn one_per_variant<T>(samples: Vec<T>) -> Vec<T> {
    let mut seen = std::collections::HashSet::new();
    samples
        .into_iter()
        .filter(|sample| seen.insert(std::mem::discriminant(sample)))
        .collect()
}

fn all_smr_variants() -> Vec<SmrMessage<GroupOp>> {
    let leave = GroupOp::Leave {
        node: NodeId::new(1),
        nonce: 0,
    };
    vec![
        SmrMessage::SyncValue {
            slot: 8,
            sender: NodeId::new(1),
            batch: all_op_variants(),
            chain: sample_chain(),
        },
        SmrMessage::Request { op: leave.clone() },
        SmrMessage::PrePrepare {
            view: 1,
            seq: 2,
            op: leave.clone(),
        },
        SmrMessage::Prepare {
            view: 1,
            seq: 2,
            digest: Digest::of(b"prepared"),
        },
        SmrMessage::Commit {
            view: 1,
            seq: 2,
            digest: Digest::of(b"committed"),
        },
        SmrMessage::ViewChange {
            new_view: 2,
            prepared: vec![(4, leave.clone())],
        },
        SmrMessage::NewView {
            view: 2,
            ops: vec![(4, leave)],
            skips: vec![5, 6],
        },
    ]
}

fn all_edge_ops() -> Vec<atum::types::EdgeOp> {
    use atum::types::EdgeOp;
    vec![
        EdgeOp::Health,
        EdgeOp::Stats,
        EdgeOp::Publish {
            topic: 9,
            payload: vec![1, 2, 3],
        },
        EdgeOp::Fetch { key: 0xdead },
        EdgeOp::Append {
            stream: 4,
            chunk: vec![5; 6],
        },
    ]
}

fn all_announce_variants() -> Vec<atum::apps::ashare::Announce> {
    use atum::apps::ashare::Announce;
    let (owner, name) = (NodeId::new(3), "père.txt".to_string());
    vec![
        Announce::Put {
            owner,
            name: name.clone(),
            size: 1 << 20,
            digests: vec![Digest::of(b"c0"), Digest::of(b"c1")],
        },
        Announce::Replica {
            owner,
            name: name.clone(),
            holder: NodeId::new(4),
        },
        Announce::Delete { owner, name },
    ]
}

/// Round-trips every sample through the codec and appends its encoding to
/// `stream`; returns the number of samples.
fn pin_samples<T: WireEncode + WireDecode + PartialEq + Debug>(
    stream: &mut Vec<u8>,
    samples: &[T],
) -> usize {
    for sample in samples {
        let bytes = encode_to_vec(sample);
        assert_eq!(
            decode_exact::<T>(&bytes).as_ref(),
            Ok(sample),
            "round trip changed {sample:?}"
        );
        stream.extend_from_slice(&bytes);
    }
    samples.len()
}

#[test]
fn every_codec_type_round_trips_with_pinned_bytes() {
    // One sample of every variant of every type with a codec of its own:
    // each round-trips, each enum's decoder knows exactly as many tags as it
    // has samples, and the SHA-256 of all the encodings, concatenated, is
    // pinned. A change to any tag, field order, field width or sequence
    // prefix moves the pin; a codec that moves without one changes nothing.
    use atum::apps::ashare::Announce;
    use atum::apps::astream::DigestAnnounce;
    use atum::apps::AsubEvent;
    use atum::net::{Hello, Route};
    use atum::types::{EdgeRequest, EdgeResponse, EdgeStatus, TopicId};

    let mut stream = Vec::new();
    let s = &mut stream;
    let enums = [
        (
            "AtumMessage",
            pin_samples(s, &one_per_variant(all_message_variants())),
            known_tags::<AtumMessage>("atum-message tag"),
        ),
        (
            "GroupPayload",
            pin_samples(s, &all_payload_variants()),
            known_tags::<GroupPayload>("group-payload tag"),
        ),
        (
            "GroupOp",
            pin_samples(s, &all_op_variants()),
            known_tags::<GroupOp>("group-op tag"),
        ),
        (
            "SmrMessage",
            pin_samples(s, &all_smr_variants()),
            known_tags::<SmrMessage<GroupOp>>("smr-message tag"),
        ),
        (
            "WalkPurpose",
            pin_samples(
                s,
                &[
                    WalkPurpose::JoinPlacement {
                        joiner: NodeId::new(7),
                    },
                    WalkPurpose::ShuffleExchange {
                        member: NodeId::new(8),
                    },
                    WalkPurpose::SplitAnchor {
                        cycle: 2,
                        new_group: VgroupId::new(9),
                        composition: comp(&[1, 2]),
                    },
                ],
            ),
            known_tags::<WalkPurpose>("walk-purpose tag"),
        ),
        (
            "EdgeOp",
            pin_samples(s, &all_edge_ops()),
            known_tags::<atum::types::EdgeOp>("edge op tag"),
        ),
        (
            "Announce",
            pin_samples(s, &all_announce_variants()),
            known_tags_after::<Announce>(&[2], "announce tag"),
        ),
    ];
    for (name, samples, tags) in enums {
        assert_eq!(samples, tags, "{name}: a variant has no sample");
    }
    let AtumMessage::GroupVote(vote) = sample_vote() else {
        unreachable!()
    };
    pin_samples(s, &[(*vote).clone()]);
    let AtumMessage::Welcome(config) = sample_welcome() else {
        unreachable!()
    };
    pin_samples(s, std::slice::from_ref(&config));
    pin_samples(s, &[config.neighbors.clone(), NeighborTable::new(0)]);
    pin_samples(s, &[config.neighbors.cycle(2).unwrap().clone()]);
    pin_samples(s, &[walk_of(5, 3, 1), walk_of(6, 5, 5)]);
    pin_samples(s, &[sample_chain()]);
    pin_samples(
        s,
        &[Hello {
            node: NodeId::new(5),
            listen_port: 40_123,
        }],
    );
    pin_samples(
        s,
        &[Route {
            from: NodeId::new(5),
            to: NodeId::new(6),
        }],
    );
    let requests: Vec<EdgeRequest> = all_edge_ops()
        .into_iter()
        .zip([Some(7), None].into_iter().cycle())
        .enumerate()
        .map(|(seq, (op, idempotency_key))| EdgeRequest {
            seq: seq as u64,
            idempotency_key,
            deadline_ms: 1500,
            op,
        })
        .collect();
    pin_samples(s, &requests);
    let responses: Vec<EdgeResponse> = [
        EdgeStatus::Ok,
        EdgeStatus::Overloaded,
        EdgeStatus::Unavailable,
        EdgeStatus::DeadlineExceeded,
        EdgeStatus::BadRequest,
        EdgeStatus::ShuttingDown,
        EdgeStatus::Duplicate,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, status)| EdgeResponse {
        seq: i as u64,
        status,
        payload: vec![i as u8; i],
    })
    .collect();
    pin_samples(s, &responses);
    pin_samples(
        s,
        &[DigestAnnounce {
            index: 3,
            digest: Digest::of(b"chunk 3"),
        }],
    );
    pin_samples(
        s,
        &[AsubEvent {
            topic: TopicId::new(9),
            data: vec![1, 2, 3],
        }],
    );
    assert_eq!(
        Digest::of(&stream).to_string(),
        "7a6d22a83043ad6feb177f121858ae721a8ca52e0d3f50227713c94bffa720de",
        "{} pinned bytes",
        stream.len()
    );
}

#[test]
fn welcome_bytes_are_pinned() {
    // A welcome is one `Configuration` on the wire, its fields in the order
    // the message carried them when they travelled loose. Pinned byte for
    // byte: all integers are little-endian, a composition or a sequence is
    // a u32 count and its items, an absent cycle is one 0 byte.
    let hex: String = sample_welcome()
        .encode_body()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let u64s = |xs: &[&str]| {
        xs.iter()
            .map(|x| format!("{x}00000000000000"))
            .collect::<String>()
    };
    let comp = |ids: &[&str]| format!("0{}000000{}", ids.len(), u64s(ids));
    let expected = [
        "03".to_string(), // tag
        u64s(&["03"]),    // vgroup
        comp(&["01", "02", "09"]),
        "03000000".into(), // three cycles
        "01".to_string()
            + &u64s(&["08"])
            + &comp(&["01", "02"])
            + &u64s(&["09"])
            + &comp(&["03", "04"]),
        "00".into(), // cycle 1 unknown
        "01".to_string()
            + &u64s(&["09"])
            + &comp(&["03", "04"])
            + &u64s(&["08"])
            + &comp(&["01", "02"]),
        u64s(&["11"]), // epoch 17
    ]
    .concat();
    assert_eq!(hex, expected);
    assert_eq!(hex.len() / 2, 164);
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
        let frame = message_frame_shared(msg);
        assert_eq!(&frame[..], &fresh[..], "shared frame diverged for {msg:?}");
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
        let again = message_frame_shared(msg);
        assert_eq!(&again[..], &fresh[..]);
        // Group messages and votes share an identity across their fan-out
        // (one encode per dispatch); unicast-shaped messages opt out.
        let fans_out = matches!(msg, AtumMessage::Group(_) | AtumMessage::GroupVote(_));
        assert_eq!(msg.fanout_identity().is_some(), fans_out);
    }
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
    //
    // Re-pinned once when the fields no receiver read left the wire: a
    // node's 6-byte placeholder address (`ExchangeOffer`, `ExchangeAccept`,
    // `MergeRequest` and five of the ops), a walk's origin, visited path
    // and empty certificate (`Walk`, and the sample walk below), the
    // refused member of `ExchangeRefuse`, and the origin and partner
    // vgroups of `OfferExchange` and `CompleteExchange`, which their walk
    // id already names. The split-insert and merge-accept payloads, which
    // no vgroup sent, went with their entries. Every other entry is the
    // value it was.
    use atum::crypto::Digestible;
    const PAYLOADS: [&str; 11] = [
        "4e83161afd15ba7d00b014935b8043ced3bbe55ca59511883cb5c96d4725a8a8",
        "10705fb766dc01a68264470a34fefd3d384fd508ba117d21adb8dc742f3f3797",
        "e06f6c73ff5e4b62e99a5f63221a70f2d2be2e79a57c6952d590540ebae87309",
        "07e515410239be0451520dc696622d707b8a093682ec9ba030c48b2a095405f9",
        "f2e09a6abefe4743d73ebde20126735ac2e0fe3473b8f1a36c10167ec333a973",
        "39a41a7b867d23c6cdd112b35f1b6393fa6e5398ebf6119607c4c480b3a7f845",
        "556b4c99bd958ab7d53b2f3e6783c1b3c45262ff56a22c8a542f50c18a6891a5",
        "49cdca91c50132affcc4feb4b703e182ee16d01d6b72341745e19a981c68c962",
        "0ca30e6872ea72be0e8661f1392f0229bff566880ea6f6725c73a430940b1bd8",
        "6e9d146a6b5a6097500a94ed60e2146acc142ef5ba2cc070dd0301cc1d8197a8",
        "83147b92fbce294937de7d1bbd99724b4a5ee17d18ee96c7d39f0b6b9e676540",
    ];
    const OPS: [&str; 10] = [
        "a1000e248411c5352331fd80841c603d7f9bf5cd268a2e1ba75b86788d74a94d",
        "d54a7fdddb141be4d9d09bda061aca88cad42a7fb38f4aae9b3ac0c68ce6a78f",
        "c453ea16034b5ba20d6cd906df43dbc7c2603cc2dfe335f0f0942322557eafd7",
        "1de7331f23039b933d068c5b7429cfef5de0d7a2bce2de48508dc37215b8acf1",
        "f60530351af7748cc27650de05f62ed8537c7c998702c8fc252d5bc4ed6fd6c9",
        "0c89b6aa54e20ece66c78d236bf70c08cc7406b50ab6d24316c6efeaa8606e8b",
        "56e7f153039cc289e4ea858e41150e84c5028acbb2e3f535b7c8f3295544e4f7",
        "f5766be4d89d95abdc319a298046441dd92c458582463ec8947764257d93726f",
        "3ccb16e0147f770c954ff09b08ce67acd8ff9507e9a2c22e71e430ea652f028a",
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
        hex(walk_of(5, 3, 1).structural_digest()),
        "4c61b15094a577381325bab3d74570e23f9b69d499aa471a6238dd6bca508d18"
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
        // The whole encoding decodes back to the message.
        assert_eq!(AtumMessage::decode_body(&bytes).as_ref(), Ok(msg));
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

    // Every bounded sequence field. `head` ends just before the length
    // prefix; the prefix claims `claimed` items and `left` bytes follow it:
    // enough at one byte per item, one byte short of the field's declared
    // minimum item size. A bound that is dropped or lowered lets the claim
    // through, and the decode then fails some other way.
    let too_long = |head: Vec<u8>, bound: usize| {
        let claimed = if bound == 1 { 3 } else { 2 };
        let left = (claimed * bound - 1).max(claimed - 1);
        let mut bytes = head;
        bytes.extend_from_slice(&(claimed as u32).to_le_bytes());
        bytes.extend(std::iter::repeat_n(0u8, left));
        bytes
    };
    let le = |v: u64| v.to_le_bytes().to_vec();
    let smr = |inner: Vec<u8>| [vec![6u8], le(3), le(17), inner].concat(); // Smr: group, epoch
    let request = |op: Vec<u8>| smr([vec![1u8], op].concat()); // SmrMessage::Request
    let sync_value = [vec![0u8], le(8), le(1)].concat(); // tag, slot, sender
    let new_view = [vec![6u8], le(2)].concat(); // tag, view
    let node_cases = [
        ("BroadcastKeys.keys", [vec![9u8], le(5)].concat(), 16),
        ("BroadcastPull.keys", [vec![10u8], le(5)].concat(), 16),
        (
            "MergeRequest.members",
            group_bytes(&[vec![8u8], le(7)].concat()),
            8,
        ),
        (
            "AcceptMerge.members",
            request([vec![8u8], le(7)].concat()),
            8,
        ),
        ("SyncValue.batch", smr(sync_value.clone()), 1),
        (
            "SignatureChain links",
            smr([sync_value, 0u32.to_le_bytes().to_vec(), vec![0u8; 32]].concat()),
            40,
        ),
        ("ViewChange.prepared", smr([vec![5u8], le(2)].concat()), 9),
        ("NewView.ops", smr(new_view.clone()), 9),
        (
            "NewView.skips",
            smr([new_view, 0u32.to_le_bytes().to_vec()].concat()),
            8,
        ),
        (
            "WalkState.rng_values",
            // Walk tag, walk id, JoinPlacement and its joiner, an empty
            // origin composition, 0 steps remaining.
            group_bytes(
                &[
                    vec![1u8],
                    le(2),
                    le(9),
                    vec![0u8],
                    le(7),
                    0u32.to_le_bytes().to_vec(),
                    vec![0u8],
                ]
                .concat(),
            ),
            8,
        ),
    ];
    let exceeds = WireError::Malformed("sequence length exceeds input");
    for (field, head, bound) in node_cases {
        let bytes = too_long(head, bound);
        assert_eq!(
            AtumMessage::decode_body(&bytes),
            Err(exceeds.clone()),
            "{field}"
        );
    }
    // An AShare `Put`: kind, tag, owner, empty name, size, then its digests.
    let put = [vec![2u8, 0], le(3), 0u32.to_le_bytes().to_vec(), le(1)].concat();
    let bytes = too_long(put, 32);
    assert_eq!(
        decode_exact::<atum::apps::ashare::Announce>(&bytes),
        Err(exceeds),
        "Announce digests"
    );
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
    bytes.extend_from_slice(&9u64.to_le_bytes()); // joiner
    bytes.extend_from_slice(&4u64.to_le_bytes()); // nonce
    bytes.push(7); // rejoin: invalid bool
    assert!(matches!(
        AtumMessage::decode_body(&bytes),
        Err(WireError::Malformed("bool"))
    ));
}

/// A `Group` message from vgroup 5 = {1} whose payload encodes as `payload`.
fn group_bytes(payload: &[u8]) -> Vec<u8> {
    let mut bytes = vec![7u8]; // Group tag
    bytes.extend_from_slice(&5u64.to_le_bytes()); // source
    bytes.extend_from_slice(&1u32.to_le_bytes()); // source composition
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn retired_tags_are_malformed() {
    // Group payload 6 was a split-insert request and 9 a merge acceptance,
    // which no vgroup sent; these are their fields, which still decoded.
    let mut split_insert = vec![6u8, 1]; // tag, cycle
    split_insert.extend_from_slice(&7u64.to_le_bytes()); // new group
    split_insert.extend_from_slice(&0u32.to_le_bytes()); // composition
    let mut merge_accept = vec![9u8];
    merge_accept.extend_from_slice(&7u64.to_le_bytes()); // into
    merge_accept.extend_from_slice(&0u32.to_le_bytes()); // new composition
    for payload in [split_insert, merge_accept] {
        assert!(matches!(
            AtumMessage::decode_body(&group_bytes(&payload)),
            Err(WireError::Malformed("group-payload tag"))
        ));
    }
    // Walk purpose 3 was a plain sample that no vgroup acted on.
    let mut walk = vec![1u8]; // Walk tag
    walk.extend_from_slice(&2u64.to_le_bytes()); // walk id: origin
    walk.extend_from_slice(&9u64.to_le_bytes()); // walk id: seq
    walk.push(3); // purpose
    walk.extend_from_slice(&0u32.to_le_bytes()); // origin composition
    walk.push(0); // remaining
    walk.extend_from_slice(&0u32.to_le_bytes()); // bulk RNG values
    assert!(matches!(
        AtumMessage::decode_body(&group_bytes(&walk)),
        Err(WireError::Malformed("walk-purpose tag"))
    ));
}

#[test]
fn join_requests_and_walks_carry_no_dead_bytes() {
    // Tag, joiner, nonce, rejoin: the joiner is its id, with no address
    // (24 bytes when it carried a 6-byte placeholder one).
    let join = AtumMessage::JoinRequest {
        joiner: NodeId::new(9),
        nonce: 4,
        rejoin: false,
    };
    assert_eq!(wire_len(&join), 1 + 8 + 8 + 1);
    // Id, purpose, origin composition (3 members), remaining, 5 bulk RNG
    // values: no origin, visited path or certificate, which cost 64 more
    // bytes at the last hop of an `rwl = 5` walk (162).
    let walk = walk_of(6, 5, 5);
    assert!(walk.is_complete());
    assert_eq!(
        wire_len(&walk),
        16 + (1 + 8) + (4 + 3 * 8) + 1 + (4 + 5 * 8)
    );
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
            let msg = AtumMessage::Welcome(Box::new(Configuration {
                vgroup: VgroupId::new(epoch),
                composition: members.iter().map(|&m| NodeId::new(m)).collect(),
                neighbors: sample_neighbors(),
                epoch,
            }));
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
                msg: Box::new(SmrMessage::PrePrepare { view: 0, seq: slot, op }),
            };
            let back = AtumMessage::decode_body(&msg.encode_body()).unwrap();
            prop_assert_eq!(back, msg);
        }
    }
}
