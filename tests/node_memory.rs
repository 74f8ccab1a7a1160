//! A node's memory is bounded by its group and overlay, not by its traffic
//! history: what it keeps per delivered broadcast is its seen-cache entry
//! and nothing else. A counting global allocator tracks live heap bytes
//! while one vgroup of four nodes delivers two equal phases of broadcasts;
//! the second phase may grow the heap only by what the seen-cache pays per
//! id.
//!
//! The allocator counter is process-global, so this file holds exactly one
//! `#[test]` — a second test thread would pollute the measurement.

use atum::core::Configuration;
use atum::crypto::KeyRegistry;
use atum::overlay::NeighborTable;
use atum::prelude::*;
use atum::types::Composition;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct CountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: defers entirely to `System`; the counter has no effect on layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An application that keeps nothing of what it is handed but a count.
struct Forgetful(usize);

impl Application for Forgetful {
    fn deliver(&mut self, _msg: &Delivered, _ctx: &mut AppCtx) {
        self.0 += 1;
    }
}

const NODES: u64 = 4;
/// Broadcasts per phase: a power of two, so each phase ends with every
/// node's seen-cache ring and index exactly full to a doubling step.
const PER_PHASE: u64 = 512;

/// Issues `PER_PHASE` 64-byte broadcasts round-robin from the four nodes,
/// one every 10 ms, then runs until every one of them is decided.
fn phase(sim: &mut Simulation<AtumMessage, AtumNode<Forgetful>>) {
    let start = sim.now();
    for i in 0..PER_PHASE {
        let at = start + Duration::from_millis(10 * i);
        sim.call_at(at, NodeId::new(i % NODES), |n, ctx| {
            n.broadcast(vec![0x5a; 64], ctx)
                .expect("a member broadcasts");
        });
    }
    sim.run_for(Duration::from_millis(10 * PER_PHASE) + Duration::from_secs(10));
}

#[test]
fn retained_heap_per_delivered_broadcast_is_the_seen_cache_entry() {
    let params = Params::default().with_round(Duration::from_millis(200));
    let mut registry = KeyRegistry::new();
    for i in 0..NODES {
        registry.register(NodeId::new(i), 1);
    }
    let registry = registry.shared();
    // One vgroup whose every overlay link is a self-loop: a decided
    // broadcast is delivered at hop 0 and has no gossip target.
    let vgroup = VgroupId::new(1);
    let composition: Composition = (0..NODES).map(NodeId::new).collect();
    let mut sim = Simulation::new(NetConfig::lan(), 47);
    for i in 0..NODES {
        let neighbors = NeighborTable::self_loop(params.hc, vgroup, composition.clone());
        let config = Configuration {
            vgroup,
            composition: composition.clone(),
            neighbors,
            epoch: 0,
        };
        let node = AtumNode::with_membership(
            NodeId::new(i),
            params.clone(),
            registry.clone(),
            Forgetful(0),
            config,
        );
        sim.add_node(NodeId::new(i), node);
    }
    let delivered = |sim: &Simulation<_, AtumNode<Forgetful>>| -> Vec<usize> {
        let count = |i| sim.node(NodeId::new(i)).map_or(0, |n| n.app().0);
        (0..NODES).map(count).collect()
    };

    phase(&mut sim);
    assert_eq!(delivered(&sim), [PER_PHASE as usize; NODES as usize]);
    let after_first = LIVE_BYTES.load(Ordering::Relaxed);
    phase(&mut sim);
    assert_eq!(delivered(&sim), [2 * PER_PHASE as usize; NODES as usize]);
    let after_second = LIVE_BYTES.load(Ordering::Relaxed);

    let deliveries = (NODES * PER_PHASE) as f64;
    let per_delivery = (after_second - after_first) as f64 / deliveries;
    // The seen-cache's own cost of one more id, with both of its parts
    // doubling from 512 to 1 024 ids in the second phase: a 16-byte ring
    // slot (a `BroadcastId` is two u64s) and two 4-byte index buckets (the
    // index is kept at most half full), 24 bytes. The slack, 8 bytes, is
    // for the buffers (event queue, effect vectors) that settle at a
    // slightly different size in each phase; this layout reads 26.1. A
    // delivery log of (id, time, hops) per node adds 32 bytes a delivery,
    // its `Vec` doubling in step, and keeping each decided broadcast's
    // 32-byte digest in a B-tree set another 52.5: with both, 110.6.
    let bound = 24.0 + 8.0;
    assert!(
        per_delivery <= bound,
        "retained {per_delivery:.1} bytes per delivered broadcast, over {bound}"
    );
}
