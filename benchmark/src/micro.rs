//! The micro section: one public function of one layer per timed loop,
//! fixed iteration counts, the median of five repetitions. These are the
//! layer costs the workloads multiply by their per-operation counts (about
//! 49 encodes and 120 decodes per `edge_async` operation, for example).

use crate::util::median;
use atum_core::message::{AtumMessage, GroupEnvelope, GroupPayload};
use atum_crypto::{Digest, Digestible};
use atum_edge::EdgeOp;
use atum_overlay::{simulate_walk_hits, GossipPlanner, GroupMessageCollector, HGraph};
use atum_simnet::{Context, NetConfig, Node, Simulation};
use atum_smr::{testkit::LockstepCluster, SmrConfig};
use atum_types::wire::encode_to_vec;
use atum_types::{
    BroadcastId, Composition, Duration, GossipPolicy, NodeId, SmrMode, VgroupId, WireSize,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const REPETITIONS: usize = 5;

/// Median over the repetitions of the mean nanoseconds one call of `f`
/// takes in a loop of `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    let mut reps: Vec<f64> = (0..REPETITIONS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut reps)
}

fn composition(n: u64) -> Composition {
    (0..n).map(NodeId::new).collect()
}

fn gossip_message(seq: u64, payload_bytes: usize) -> AtumMessage {
    AtumMessage::Group(Arc::new(GroupEnvelope::new(
        VgroupId::new(7),
        composition(4),
        GroupPayload::Gossip {
            id: BroadcastId::new(NodeId::new(3), seq),
            payload: vec![0x5au8; payload_bytes].into(),
            hops: 2,
        },
    )))
}

fn decide_once(n: usize, mode: SmrMode) {
    let config = SmrConfig {
        round: Duration::from_millis(100),
        ..SmrConfig::default()
    };
    let mut cluster = LockstepCluster::new(n, mode, config, 7);
    cluster.propose(NodeId::new(0), b"benchmark-op".to_vec());
    cluster.run_to_quiescence();
    assert!(!cluster.decided(NodeId::new(n as u64 - 1)).is_empty());
}

/// The `bench_engine` ring relay: every delivery costs exactly one send.
struct RingRelay {
    next: NodeId,
}

struct Token(u64);

impl WireSize for Token {
    fn wire_size(&self) -> usize {
        8
    }
}

impl Node<Token> for RingRelay {
    fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Context<'_, Token>) {
        if msg.0 > 0 {
            ctx.send(self.next, Token(msg.0 - 1));
        }
    }
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, Token>) {}
}

fn ring_events_per_s(hops: u64) -> f64 {
    const NODES: u64 = 64;
    let mut reps: Vec<f64> = (0..REPETITIONS)
        .map(|_| {
            let mut sim: Simulation<Token, RingRelay> = Simulation::new(NetConfig::lan(), 0xE46);
            for i in 0..NODES {
                let next = NodeId::new((i + 1) % NODES);
                sim.add_node(NodeId::new(i), RingRelay { next });
            }
            sim.run_until_idle(Duration::from_secs(1));
            sim.stats_mut().events_processed = 0;
            let start = Instant::now();
            for t in 0..NODES {
                let next = NodeId::new((t + 1) % NODES);
                sim.call(NodeId::new(t), move |_n, ctx| ctx.send(next, Token(hops)));
            }
            sim.run_until_idle(Duration::from_secs(1_000_000));
            sim.stats().events_processed as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut reps)
}

/// Runs every loop with its full-scale iteration count divided by `div`.
pub fn run(div: u64) -> BTreeMap<String, f64> {
    let div = div.max(1);
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };

    // types: the node wire codec.
    let msg_1k = gossip_message(42, 1024);
    let msg_64 = gossip_message(42, 64);
    put(
        "types.encode_1k_ns",
        ns_per_call(400_000 / div, || {
            black_box(encode_to_vec(black_box(&msg_1k)));
        }),
    );
    put(
        "types.encode_64_ns",
        ns_per_call(1_000_000 / div, || {
            black_box(encode_to_vec(black_box(&msg_64)));
        }),
    );
    // Cold: more distinct payloads than the verified-digest cache holds
    // (512), so every decode recomputes SHA-256. Warm: one byte string.
    let cold: Vec<Vec<u8>> = (0..1024)
        .map(|i| encode_to_vec(&gossip_message(i, 1024)))
        .collect();
    let mut next = 0usize;
    put(
        "types.decode_cold_1k_ns",
        ns_per_call(40_000 / div, || {
            next = (next + 1) % cold.len();
            black_box(AtumMessage::decode_body(&cold[next]).expect("valid"));
        }),
    );
    let warm = encode_to_vec(&msg_1k);
    put(
        "types.decode_warm_1k_ns",
        ns_per_call(200_000 / div, || {
            black_box(AtumMessage::decode_body(black_box(&warm)).expect("valid"));
        }),
    );

    // crypto: structural digests of the two commonest group payloads.
    let gossip = GroupPayload::Gossip {
        id: BroadcastId::new(NodeId::new(7), 42),
        payload: vec![0x5au8; 1024].into(),
        hops: 3,
    };
    let update = GroupPayload::CompositionUpdate {
        group: VgroupId::new(9),
        composition: composition(16),
    };
    put(
        "crypto.payload_digest_1k_ns",
        ns_per_call(40_000 / div, || {
            black_box(black_box(&gossip).structural_digest());
        }),
    );
    put(
        "crypto.composition_digest_16_ns",
        ns_per_call(200_000 / div, || {
            black_box(black_box(&update).structural_digest());
        }),
    );

    // smr: propose to quiescence in a lockstep vgroup.
    for (name, n, mode, iters) in [
        ("smr.sync_decide_n4_us", 4, SmrMode::Synchronous, 2_000),
        ("smr.async_decide_n4_us", 4, SmrMode::Asynchronous, 2_000),
        ("smr.async_decide_n7_us", 7, SmrMode::Asynchronous, 800),
    ] {
        put(
            name,
            ns_per_call(iters / div, || decide_once(n, mode)) / 1e3,
        );
    }

    // overlay
    let members = composition(5);
    const MESSAGES: u64 = 1_000;
    let digests: Vec<Digest> = (0..MESSAGES)
        .map(|m| Digest::of(&m.to_be_bytes()))
        .collect();
    put(
        "overlay.collector_observe_ns",
        ns_per_call(60 / div, || {
            let mut collector = GroupMessageCollector::new(MESSAGES as usize * 2);
            for &digest in &digests {
                for sender in 0..5 {
                    black_box(collector.observe(
                        VgroupId::new(1),
                        &members,
                        NodeId::new(sender),
                        digest,
                        true,
                    ));
                }
            }
        }) / (MESSAGES * 5) as f64,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    put(
        "overlay.gossip_plan_ns",
        ns_per_call(2_000_000 / div, || {
            black_box(GossipPlanner::plan(GossipPolicy::Flood, 5, &mut rng));
        }),
    );
    let vertices: Vec<VgroupId> = (0..128).map(VgroupId::new).collect();
    let mut graph = HGraph::random(&vertices, 6, &mut rng);
    let anchors: Vec<VgroupId> = (0..6)
        .map(|c| graph.successor(c, VgroupId::new(0)).expect("on the graph"))
        .collect();
    put(
        "overlay.hgraph_insert_remove_ns",
        ns_per_call(200_000 / div, || {
            let new = VgroupId::new(1_000_000);
            graph.insert(new, &anchors);
            assert!(graph.remove(new));
        }),
    );
    const WALKS: usize = 1_000;
    const RWL: u8 = 9;
    put(
        "overlay.walk_step_ns",
        ns_per_call(400 / div, || {
            black_box(simulate_walk_hits(
                &graph,
                VgroupId::new(0),
                RWL,
                WALKS,
                &mut rng,
            ));
        }) / (WALKS * RWL as usize) as f64,
    );

    // simnet: raw event-loop throughput.
    put("simnet.ring_events_per_s", ring_events_per_s(30_000 / div));

    // apps: the ASub event codec a gateway publish goes through.
    let publish = EdgeOp::Publish {
        topic: 9,
        payload: (0..1024u32).map(|i| i as u8).collect(),
    };
    let encoded = atum_apps::edge::broadcast_payload(&publish).expect("a write");
    put("apps.encode_amplification", encoded.len() as f64 / 1024.0);
    put(
        "apps.encode_1k_ns",
        ns_per_call(20_000 / div, || {
            black_box(atum_apps::edge::broadcast_payload(black_box(&publish)));
        }),
    );
    put(
        "apps.decode_1k_ns",
        ns_per_call(10_000 / div, || {
            black_box(atum_apps::edge::decode_broadcast(black_box(&encoded)));
        }),
    );
    out
}
