//! AStream: a two-tier data streaming system (§4.3).
//!
//! Tier one uses Atum to reliably disseminate per-chunk digests from the
//! source to every node (small, authenticated metadata). Tier two is a
//! lightweight forest-based multicast: every node (except the source) has a
//! set of parents of size `f + 1` chosen from a neighbouring vgroup on a
//! deterministically chosen cycle and direction — which guarantees at least
//! one correct parent — plus shortcut parents from its other neighbouring
//! vgroups. Data chunks are pushed down the forest and then pulled by
//! children; chunks are only accepted once they match the digest delivered by
//! tier one.
//!
//! In this reproduction the parent sets are computed by the experiment
//! harness from the overlay ground truth (the paper's construction is a
//! deterministic function of the overlay, so computing it centrally is
//! behaviourally equivalent) and handed to each node's `AStreamApp`.

use crate::kind;
use atum_core::{AppCtx, Application, Delivered};
use atum_crypto::Digest;
use atum_types::wire::{decode_exact, encode_to_vec};
use atum_types::{Instant, NodeId};
use std::collections::BTreeMap;

/// Configuration of the AStream application at one node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AStreamConfig {
    /// Parents to pull stream data from (empty at the source). The first
    /// entry is the preferred parent; the rest are fallbacks/shortcuts.
    pub parents: Vec<NodeId>,
    /// Children to push the first chunk to (the forest edges pointing away
    /// from the source).
    pub children: Vec<NodeId>,
    /// `true` at the stream source.
    pub is_source: bool,
    /// Size of one stream chunk in bytes (1 MB/s streams use 1 MiB chunks at
    /// a one-second cadence).
    pub chunk_size: u32,
}

/// A chunk of stream data (tier two). The payload is represented by its
/// digest; the wire size charged is `chunk_size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamChunk {
    /// Stream position (0-based).
    pub index: u64,
    /// Digest of the chunk content.
    pub digest: Digest,
}

/// Tier-one broadcast payload: the digest of a chunk, signed (implicitly, via
/// Atum's broadcast) by the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestAnnounce {
    /// Stream position.
    pub index: u64,
    /// Digest the chunk must match.
    pub digest: Digest,
}

atum_types::wire_codec!([kind::ASTREAM_DIGEST] DigestAnnounce { index, digest });

impl DigestAnnounce {
    /// Serialises the announcement for broadcasting.
    pub fn encode(&self) -> Vec<u8> {
        encode_to_vec(self)
    }

    /// Parses an announcement from a broadcast payload.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        decode_exact(bytes).ok()
    }
}

/// Point-to-point tier-two messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StreamMsg {
    /// Push a chunk to a child.
    Push(StreamChunk),
    /// Ask a parent for a chunk.
    Pull { index: u64 },
}

atum_types::wire_codec!(StreamChunk { index, digest });
atum_types::wire_codec!([kind::ASTREAM_DATA] StreamMsg, "stream tag" {
    0 => Push(chunk),
    1 => Pull { index },
});

impl StreamMsg {
    pub(crate) fn encode(&self) -> Vec<u8> {
        encode_to_vec(self)
    }
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        decode_exact(bytes).ok()
    }
}

/// Deterministic content digest of stream chunk `index`.
pub fn stream_chunk_digest(stream: u64, index: u64) -> Digest {
    Digest::of_parts(&[b"astream", &stream.to_be_bytes(), &index.to_be_bytes()])
}

/// The AStream application hosted at one Atum node.
#[derive(Debug)]
pub struct AStreamApp {
    config: AStreamConfig,
    /// Digests learnt through tier one: index → digest.
    digests: BTreeMap<u64, Digest>,
    /// When each digest was delivered (tier-one latency reference).
    digest_at: BTreeMap<u64, Instant>,
    /// Verified chunks received through tier two: index → receipt time.
    received: BTreeMap<u64, Instant>,
    /// Chunks rejected because they did not match the announced digest.
    rejected: u64,
    /// Pulls answered for children.
    served: u64,
    /// Which parent (index into `config.parents`) we currently pull from.
    preferred_parent: usize,
    /// Pending pulls: chunk → number of parents tried so far.
    pending_pulls: BTreeMap<u64, usize>,
    stream_id: u64,
}

impl AStreamApp {
    /// Creates an AStream participant for stream `stream_id`.
    pub fn new(stream_id: u64, config: AStreamConfig) -> Self {
        AStreamApp {
            config,
            digests: BTreeMap::new(),
            digest_at: BTreeMap::new(),
            received: BTreeMap::new(),
            rejected: 0,
            served: 0,
            preferred_parent: 0,
            pending_pulls: BTreeMap::new(),
            stream_id,
        }
    }

    /// Replaces this node's forest configuration (used by the experiment
    /// harness, which computes parent/child sets from the overlay ground
    /// truth after the cluster is built).
    pub fn set_config(&mut self, config: AStreamConfig) {
        self.config = config;
    }

    /// The node's current forest configuration.
    pub fn config(&self) -> &AStreamConfig {
        &self.config
    }

    /// Chunks received and verified: index → receipt time.
    pub fn received(&self) -> &BTreeMap<u64, Instant> {
        &self.received
    }

    /// When the digest of each chunk was delivered by tier one.
    pub fn digest_times(&self) -> &BTreeMap<u64, Instant> {
        &self.digest_at
    }

    /// Number of chunks rejected by the integrity check.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of pull requests this node served for its children.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Source only: publish chunk `index` — broadcast its digest through Atum
    /// (tier one) and push the data to the children (tier two).
    pub fn publish_chunk(&mut self, index: u64, ctx: &mut AppCtx) {
        assert!(self.config.is_source, "only the source publishes chunks");
        let digest = stream_chunk_digest(self.stream_id, index);
        self.digests.insert(index, digest);
        self.digest_at.insert(index, ctx.now());
        self.received.insert(index, ctx.now());
        ctx.broadcast(DigestAnnounce { index, digest }.encode());
        let push = StreamMsg::Push(StreamChunk { index, digest });
        let children = self.config.children.clone();
        for child in children {
            ctx.send_app_message(child, push.encode(), self.config.chunk_size);
        }
    }

    /// Accepts a chunk if its digest matches tier one; returns `true` when it
    /// was new and valid.
    fn accept_chunk(&mut self, chunk: &StreamChunk, ctx: &mut AppCtx) -> bool {
        if self.received.contains_key(&chunk.index) {
            return false;
        }
        match self.digests.get(&chunk.index) {
            Some(expected) if *expected == chunk.digest => {
                self.received.insert(chunk.index, ctx.now());
                self.pending_pulls.remove(&chunk.index);
                // Push-then-pull: push the chunk onwards to children the
                // first time we receive it.
                let push = StreamMsg::Push(chunk.clone());
                let children = self.config.children.clone();
                for child in children {
                    ctx.send_app_message(child, push.encode(), self.config.chunk_size);
                }
                // Pull the next chunk from our preferred parent if its digest
                // is already known.
                self.maybe_pull_next(ctx);
                true
            }
            Some(_) => {
                self.rejected += 1;
                // A parent pushed garbage: try pulling from another parent.
                self.try_other_parent(chunk.index, ctx);
                false
            }
            None => {
                // Digest not yet known (tier one lagging); drop the push, the
                // pull path will fetch it once the digest arrives.
                false
            }
        }
    }

    fn maybe_pull_next(&mut self, ctx: &mut AppCtx) {
        if self.config.is_source || self.config.parents.is_empty() {
            return;
        }
        let next = self.received.keys().max().map(|m| m + 1).unwrap_or(0);
        if self.digests.contains_key(&next) && !self.pending_pulls.contains_key(&next) {
            self.pending_pulls.insert(next, 0);
            let parent = self.config.parents[self.preferred_parent % self.config.parents.len()];
            ctx.send_app_message(parent, StreamMsg::Pull { index: next }.encode(), 0);
        }
    }

    fn try_other_parent(&mut self, index: u64, ctx: &mut AppCtx) {
        if self.config.parents.is_empty() {
            return;
        }
        let tried = self.pending_pulls.entry(index).or_insert(0);
        *tried += 1;
        if *tried >= self.config.parents.len() {
            return; // All parents tried; give up (at least one is correct, so
                    // this only happens if the digest itself was wrong).
        }
        self.preferred_parent = (self.preferred_parent + 1) % self.config.parents.len();
        let parent = self.config.parents[self.preferred_parent];
        ctx.send_app_message(parent, StreamMsg::Pull { index }.encode(), 0);
    }
}

impl Application for AStreamApp {
    fn deliver(&mut self, msg: &Delivered, ctx: &mut AppCtx) {
        let Some(announce) = DigestAnnounce::decode(&msg.payload) else {
            return;
        };
        self.digests.insert(announce.index, announce.digest);
        self.digest_at.entry(announce.index).or_insert(msg.at);
        // The digest unlocks pulling this chunk if a push has not arrived.
        if !self.received.contains_key(&announce.index)
            && !self.pending_pulls.contains_key(&announce.index)
            && !self.config.parents.is_empty()
            && !self.config.is_source
        {
            self.pending_pulls.insert(announce.index, 0);
            let parent = self.config.parents[self.preferred_parent % self.config.parents.len()];
            ctx.send_app_message(
                parent,
                StreamMsg::Pull {
                    index: announce.index,
                }
                .encode(),
                0,
            );
        }
    }

    fn on_app_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut AppCtx) {
        match StreamMsg::decode(payload) {
            Some(StreamMsg::Push(chunk)) => {
                self.accept_chunk(&chunk, ctx);
            }
            Some(StreamMsg::Pull { index }) => {
                if let (Some(digest), true) = (
                    self.digests.get(&index).copied(),
                    self.received.contains_key(&index),
                ) {
                    self.served += 1;
                    let reply = StreamMsg::Push(StreamChunk { index, digest });
                    ctx.send_app_message(from, reply.encode(), self.config.chunk_size);
                }
            }
            None => {}
        }
    }
}

/// Builds the parent/child forest of §4.3 from ground truth: for every node,
/// `f + 1` parents chosen from the vgroup that neighbours its own vgroup on a
/// deterministically chosen cycle and direction (here: cycle 0, successor
/// direction towards the source), plus the source itself for members of
/// vgroups adjacent to the source's vgroup.
///
/// `groups` lists the members of each vgroup in ring order (vgroup *i*'s
/// successor on every cycle is vgroup *i+1 mod k*), with the source being the
/// first member of group 0. Returns per-node configurations.
pub fn build_forest(
    groups: &[Vec<NodeId>],
    source: NodeId,
    chunk_size: u32,
) -> BTreeMap<NodeId, AStreamConfig> {
    let mut configs: BTreeMap<NodeId, AStreamConfig> = BTreeMap::new();
    let k = groups.len();
    for (gi, members) in groups.iter().enumerate() {
        // Parents come from the predecessor group on the ring (one hop closer
        // to the source along the chosen cycle/direction).
        let parent_group = &groups[(gi + k - 1) % k];
        for &node in members {
            if node == source {
                configs.insert(
                    node,
                    AStreamConfig {
                        parents: Vec::new(),
                        children: Vec::new(),
                        is_source: true,
                        chunk_size,
                    },
                );
                continue;
            }
            let f = (parent_group.len().saturating_sub(1)) / 2;
            let mut parents: Vec<NodeId> = if gi == 0 {
                // Members of the source's own vgroup attach directly to the
                // source.
                vec![source]
            } else {
                parent_group.iter().copied().take(f + 1).collect()
            };
            if parents.is_empty() {
                parents.push(source);
            }
            configs.insert(
                node,
                AStreamConfig {
                    parents,
                    children: Vec::new(),
                    is_source: false,
                    chunk_size,
                },
            );
        }
    }
    // Derive children as the inverse of the first-choice parent relation.
    let parent_of: Vec<(NodeId, NodeId)> = configs
        .iter()
        .filter(|(_, c)| !c.is_source)
        .map(|(n, c)| (*n, c.parents[0]))
        .collect();
    for (child, parent) in parent_of {
        if let Some(cfg) = configs.get_mut(&parent) {
            cfg.children.push(child);
        }
    }
    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_for(id: u64, at: u64) -> AppCtx {
        AppCtx::new(Instant::from_micros(at), NodeId::new(id))
    }

    fn nodes(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId::new).collect()
    }

    #[test]
    fn forest_gives_every_node_parents_and_the_source_none() {
        let groups = vec![nodes(0..4), nodes(4..8), nodes(8..12)];
        let source = NodeId::new(0);
        let forest = build_forest(&groups, source, 1 << 20);
        assert_eq!(forest.len(), 12);
        assert!(forest[&source].is_source);
        assert!(forest[&source].parents.is_empty());
        for (node, cfg) in &forest {
            if *node == source {
                continue;
            }
            assert!(!cfg.parents.is_empty(), "{node} has no parents");
            // f+1 parents from a 4-member group is 2 (or 1 for the source
            // group).
            assert!(cfg.parents.len() <= 2);
        }
        // The source has at least one child (its own vgroup members).
        assert!(!forest[&source].children.is_empty());
    }

    #[test]
    fn source_publish_announces_and_pushes() {
        let mut source = AStreamApp::new(
            1,
            AStreamConfig {
                parents: vec![],
                children: nodes(1..4),
                is_source: true,
                chunk_size: 1 << 20,
            },
        );
        let mut ctx = ctx_for(0, 0);
        source.publish_chunk(0, &mut ctx);
        assert_eq!(ctx.queued_broadcasts().len(), 1);
        assert_eq!(ctx.queued_app_messages().len(), 3);
        assert_eq!(ctx.queued_app_messages()[0].2, 1 << 20);
        assert_eq!(source.received().len(), 1);
    }

    #[test]
    fn child_accepts_valid_chunk_and_rejects_corrupt_one() {
        let mut child = AStreamApp::new(
            1,
            AStreamConfig {
                parents: vec![NodeId::new(0), NodeId::new(5)],
                children: vec![NodeId::new(9)],
                is_source: false,
                chunk_size: 1 << 20,
            },
        );
        let mut ctx = ctx_for(3, 10);
        // Tier one delivers the digest first.
        let digest = stream_chunk_digest(1, 0);
        child.deliver(
            &Delivered {
                id: atum_types::BroadcastId::new(NodeId::new(0), 0),
                payload: DigestAnnounce { index: 0, digest }.encode(),
                at: Instant::from_micros(10),
                hops: 2,
            },
            &mut ctx,
        );
        // Knowing the digest, the child proactively pulls from its parent.
        assert_eq!(ctx.queued_app_messages().len(), 1);

        // A corrupt push is rejected and triggers a pull from another parent.
        let mut ctx2 = ctx_for(3, 20);
        let bad = StreamMsg::Push(StreamChunk {
            index: 0,
            digest: Digest::of(b"garbage"),
        });
        child.on_app_message(NodeId::new(0), &bad.encode(), &mut ctx2);
        assert_eq!(child.rejected(), 1);
        assert!(child.received().is_empty());
        assert_eq!(ctx2.queued_app_messages().len(), 1, "fallback pull issued");

        // The valid push is accepted and re-pushed to children.
        let mut ctx3 = ctx_for(3, 30);
        let good = StreamMsg::Push(StreamChunk { index: 0, digest });
        child.on_app_message(NodeId::new(5), &good.encode(), &mut ctx3);
        assert_eq!(child.received().len(), 1);
        assert!(ctx3
            .queued_app_messages()
            .iter()
            .any(|(to, _, _)| *to == NodeId::new(9)));
    }

    #[test]
    fn pull_requests_are_served_only_for_known_chunks() {
        let mut node = AStreamApp::new(
            1,
            AStreamConfig {
                parents: vec![NodeId::new(0)],
                children: vec![],
                is_source: false,
                chunk_size: 1024,
            },
        );
        let mut ctx = ctx_for(2, 0);
        // Unknown chunk: no reply.
        node.on_app_message(
            NodeId::new(7),
            &StreamMsg::Pull { index: 0 }.encode(),
            &mut ctx,
        );
        assert_eq!(ctx.queued_app_messages().len(), 0);
        assert_eq!(node.served(), 0);

        // Receive the chunk, then serve it.
        let digest = stream_chunk_digest(1, 0);
        node.deliver(
            &Delivered {
                id: atum_types::BroadcastId::new(NodeId::new(0), 0),
                payload: DigestAnnounce { index: 0, digest }.encode(),
                at: Instant::ZERO,
                hops: 1,
            },
            &mut ctx,
        );
        node.on_app_message(
            NodeId::new(0),
            &StreamMsg::Push(StreamChunk { index: 0, digest }).encode(),
            &mut ctx,
        );
        let mut ctx2 = ctx_for(2, 10);
        node.on_app_message(
            NodeId::new(7),
            &StreamMsg::Pull { index: 0 }.encode(),
            &mut ctx2,
        );
        assert_eq!(node.served(), 1);
        assert_eq!(ctx2.queued_app_messages().len(), 1);
        assert_eq!(ctx2.queued_app_messages()[0].2, 1024);
    }
}
