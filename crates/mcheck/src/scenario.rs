//! Checkable starting configurations.
//!
//! Exhaustive interleaving exploration cannot reach an organic split from a
//! cold bootstrap — that is hundreds of SMR events deep. Instead each
//! scenario *constructs* the interesting mid-protocol moment directly (the
//! same way the simulator's `with_membership` bootstrap skips sequential
//! joins) and lets the checker explore the adversarial choices around it:
//! which in-flight message is delivered first, which is dropped or
//! duplicated, which timer fires first.

use crate::world::{member_node, registry_for, WorldState};
use atum_core::{AtumMessage, GroupEnvelope, GroupPayload};
use atum_overlay::{CycleNeighbors, NeighborTable};
use atum_types::{Composition, Duration, NodeId, Params, VgroupId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which starting configuration to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scenario {
    /// Three vgroups mid overlay surgery: a new group N was inserted
    /// between X and B on cycle 0, and the `CyclePatch` copies that should
    /// re-point B's predecessor from X to N are still in flight. Dropping
    /// enough copies to one B member defeats the majority rule and leaves a
    /// permanently one-directional link — unless link repair is on.
    TornLink,
    /// An oversized vgroup (len > gmax, so its next maintenance tick
    /// proposes a split) races an outside joiner whose contact request is
    /// already in flight, next to a correctly linked neighbour group.
    SplitRacingJoin,
    /// An undersized vgroup (len < gmin) that must merge into its
    /// neighbour, dissolving its own vgroup id from the overlay.
    MergeCollapse,
    /// A crashed member that the failure detector must evict without
    /// orphaning the group from the overlay.
    EvictOrphan,
    /// A member its vgroup reconfigured out while it lagged an epoch
    /// behind broadcasts: it must stop deciding, give the stale membership
    /// up and re-join.
    LoneEngine,
}

impl Scenario {
    /// All scenarios, in CLI order.
    pub const ALL: [Scenario; 5] = [
        Scenario::TornLink,
        Scenario::SplitRacingJoin,
        Scenario::MergeCollapse,
        Scenario::EvictOrphan,
        Scenario::LoneEngine,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::TornLink => "torn_link",
            Scenario::SplitRacingJoin => "split_racing_join",
            Scenario::MergeCollapse => "merge_collapse",
            Scenario::EvictOrphan => "evict_orphan",
            Scenario::LoneEngine => "lone_engine",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Scenario::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// Everything needed to rebuild a scenario's initial state bit-for-bit —
/// serialized into trace files so counterexamples replay deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// The scenario.
    pub scenario: Scenario,
    /// Per-node RNG stream seed.
    pub seed: u64,
    /// Whether the link-repair probing fix under test is enabled.
    pub link_repair: bool,
    /// Adversary budget: messages it may drop.
    pub drop_budget: u32,
    /// Adversary budget: messages it may duplicate.
    pub dup_budget: u32,
}

impl ScenarioConfig {
    /// A config with the given scenario and the default adversary budgets.
    pub fn new(scenario: Scenario) -> Self {
        ScenarioConfig {
            scenario,
            seed: 7,
            link_repair: true,
            drop_budget: 2,
            dup_budget: 1,
        }
    }

    /// Sets `link_repair`.
    pub fn with_link_repair(mut self, enabled: bool) -> Self {
        self.link_repair = enabled;
        self
    }

    /// Sets the adversary budgets.
    pub fn with_budgets(mut self, drops: u32, dups: u32) -> Self {
        self.drop_budget = drops;
        self.dup_budget = dups;
        self
    }

    /// How long [`WorldState::settle`] lets the protocol run before the
    /// properties are judged. Long enough for several announce/probe rounds
    /// (announce cadence is 2× the 60 s heartbeat, and repair needs up to
    /// `LINK_PROBE_PATIENCE` of them) and for failure detection to evict a
    /// crashed member (3 missed 60 s heartbeats).
    pub fn settle_horizon(&self) -> Duration {
        Duration::from_secs(500)
    }

    /// Base protocol parameters shared by all scenarios; `hc = 1` keeps the
    /// overlay small enough to explore, scenario-specific group bounds are
    /// applied in [`Self::build`].
    fn base_params(&self) -> Params {
        Params::default()
            .with_overlay(1, 4)
            .with_link_repair(self.link_repair)
            // Broadcast repair is a liveness accelerator: the model's
            // eventual-delivery properties hold without it, and keeping the
            // settle phase free of anti-entropy traffic keeps exploration
            // cheap.
            .with_broadcast_repair(false)
    }

    /// Builds the initial world. Deterministic: same config, same world.
    pub fn build(&self) -> WorldState {
        match self.scenario {
            Scenario::TornLink => self.build_torn_link(),
            Scenario::SplitRacingJoin => self.build_split_racing_join(),
            Scenario::MergeCollapse => self.build_merge_collapse(),
            Scenario::EvictOrphan => self.build_evict_orphan(),
            Scenario::LoneEngine => self.build_lone_engine(),
        }
    }

    /// X = {0..3} @ vg100, B = {4..7} @ vg101, N = {8..10} @ vg102 on one
    /// cycle ordered X → N → B → X. Every table is already post-surgery
    /// *except* B's predecessor, which still reads X; the four `CyclePatch`
    /// copies (one per X member) that would fix each B member are in
    /// flight. B accepts the patch from a majority of X's four members, so
    /// an adversary that drops two copies addressed to the same B member
    /// wedges that member's predecessor forever — the overlay link N → B
    /// exists in one direction only.
    fn build_torn_link(&self) -> WorldState {
        let params = self.base_params().with_group_bounds(3, 6);
        let x_ids: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let b_ids: Vec<NodeId> = (4..8).map(NodeId::new).collect();
        let n_ids: Vec<NodeId> = (8..11).map(NodeId::new).collect();
        let vg_x = VgroupId::new(100);
        let vg_b = VgroupId::new(101);
        let vg_n = VgroupId::new(102);
        let x_comp = Composition::from_members(x_ids.iter().copied());
        let b_comp = Composition::from_members(b_ids.iter().copied());
        let n_comp = Composition::from_members(n_ids.iter().copied());
        let all: Vec<NodeId> = x_ids.iter().chain(&b_ids).chain(&n_ids).copied().collect();
        let registry = registry_for(&all);

        let table = |pred: (VgroupId, &Composition), succ: (VgroupId, &Composition)| {
            let mut t = NeighborTable::new(1);
            t.set_cycle(
                0,
                CycleNeighbors {
                    predecessor: pred.0,
                    predecessor_composition: pred.1.clone(),
                    successor: succ.0,
                    successor_composition: succ.1.clone(),
                },
            );
            t
        };

        let mut world = WorldState::new(self.drop_budget, self.dup_budget);
        for &id in &x_ids {
            // X already applied the surgery: successor is N.
            world.add_node(
                member_node(
                    id,
                    &params,
                    &registry,
                    vg_x,
                    x_comp.clone(),
                    table((vg_b, &b_comp), (vg_n, &n_comp)),
                    3,
                ),
                self.seed,
            );
        }
        for &id in &b_ids {
            // B is stale: predecessor still reads X instead of N.
            world.add_node(
                member_node(
                    id,
                    &params,
                    &registry,
                    vg_b,
                    b_comp.clone(),
                    table((vg_x, &x_comp), (vg_x, &x_comp)),
                    3,
                ),
                self.seed,
            );
        }
        for &id in &n_ids {
            world.add_node(
                member_node(
                    id,
                    &params,
                    &registry,
                    vg_n,
                    n_comp.clone(),
                    table((vg_x, &x_comp), (vg_b, &b_comp)),
                    1,
                ),
                self.seed,
            );
        }

        // The in-flight patch fan-out: each X member sends every B member
        // one copy of the patch re-pointing B's predecessor to N — exactly
        // what `InsertOverlayNeighbor` emits to the old successor's
        // composition.
        let patch = Arc::new(GroupEnvelope::new(
            vg_x,
            x_comp.clone(),
            GroupPayload::CyclePatch {
                cycle: 0,
                new_is_successor: false,
                group: vg_n,
                composition: n_comp.clone(),
            },
        ));
        for &from in &x_ids {
            for &to in &b_ids {
                world.enqueue(from, to, AtumMessage::Group(patch.clone()));
            }
        }
        world
    }

    /// A = {0..4} @ vg1 (five members, gmax = 4, so A's next maintenance
    /// tick proposes a split) next to B = {5..8} @ vg2 on one cycle, while
    /// outside node 99's join contact request to node 0 is already in
    /// flight. The checker explores the join racing the split.
    fn build_split_racing_join(&self) -> WorldState {
        let params = self.base_params().with_group_bounds(2, 4);
        let a_ids: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let b_ids: Vec<NodeId> = (5..9).map(NodeId::new).collect();
        let joiner = NodeId::new(99);
        let vg_a = VgroupId::new(1);
        let vg_b = VgroupId::new(2);
        let a_comp = Composition::from_members(a_ids.iter().copied());
        let b_comp = Composition::from_members(b_ids.iter().copied());
        let mut all: Vec<NodeId> = a_ids.iter().chain(&b_ids).copied().collect();
        all.push(joiner);
        let registry = registry_for(&all);

        let mut world = WorldState::new(self.drop_budget, self.dup_budget);
        for &id in &a_ids {
            world.add_node(
                member_node(
                    id,
                    &params,
                    &registry,
                    vg_a,
                    a_comp.clone(),
                    ring(vg_b, &b_comp),
                    2,
                ),
                self.seed,
            );
        }
        for &id in &b_ids {
            world.add_node(
                member_node(
                    id,
                    &params,
                    &registry,
                    vg_b,
                    b_comp.clone(),
                    ring(vg_a, &a_comp),
                    2,
                ),
                self.seed,
            );
        }
        world.add_node(
            atum_core::AtumNode::new(
                joiner,
                params.clone(),
                registry.clone(),
                atum_core::CollectingApp::new(),
            ),
            self.seed,
        );
        world.join_via(joiner, NodeId::new(0));
        world
    }

    /// A = {0, 1} @ vg1 (two members, gmin = 3, so A must merge) next to
    /// B = {2..6} @ vg2. The merge dissolves vg1; afterwards nobody may
    /// still point at it.
    fn build_merge_collapse(&self) -> WorldState {
        let params = self.base_params().with_group_bounds(3, 8);
        let a_ids: Vec<NodeId> = (0..2).map(NodeId::new).collect();
        let b_ids: Vec<NodeId> = (2..7).map(NodeId::new).collect();
        let vg_a = VgroupId::new(1);
        let vg_b = VgroupId::new(2);
        let a_comp = Composition::from_members(a_ids.iter().copied());
        let b_comp = Composition::from_members(b_ids.iter().copied());
        let all: Vec<NodeId> = a_ids.iter().chain(&b_ids).copied().collect();
        let registry = registry_for(&all);

        let mut world = WorldState::new(self.drop_budget, self.dup_budget);
        for &id in &a_ids {
            world.add_node(
                member_node(
                    id,
                    &params,
                    &registry,
                    vg_a,
                    a_comp.clone(),
                    ring(vg_b, &b_comp),
                    2,
                ),
                self.seed,
            );
        }
        for &id in &b_ids {
            world.add_node(
                member_node(
                    id,
                    &params,
                    &registry,
                    vg_b,
                    b_comp.clone(),
                    ring(vg_a, &a_comp),
                    2,
                ),
                self.seed,
            );
        }
        world
    }

    /// G = {0..3} @ vg1 next to H = {4..6} @ vg2; member 3 is crashed at
    /// time zero. Failure detection must evict it (epoch agreement among
    /// the survivors) without detaching vg1 from the overlay.
    fn build_evict_orphan(&self) -> WorldState {
        let params = self.base_params().with_group_bounds(3, 6);
        let g_ids: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let h_ids: Vec<NodeId> = (4..7).map(NodeId::new).collect();
        let vg_g = VgroupId::new(1);
        let vg_h = VgroupId::new(2);
        let g_comp = Composition::from_members(g_ids.iter().copied());
        let h_comp = Composition::from_members(h_ids.iter().copied());
        let all: Vec<NodeId> = g_ids.iter().chain(&h_ids).copied().collect();
        let registry = registry_for(&all);

        let mut world = WorldState::new(self.drop_budget, self.dup_budget);
        for &id in &g_ids {
            world.add_node(
                member_node(
                    id,
                    &params,
                    &registry,
                    vg_g,
                    g_comp.clone(),
                    ring(vg_h, &h_comp),
                    2,
                ),
                self.seed,
            );
        }
        for &id in &h_ids {
            world.add_node(
                member_node(
                    id,
                    &params,
                    &registry,
                    vg_h,
                    h_comp.clone(),
                    ring(vg_g, &g_comp),
                    2,
                ),
                self.seed,
            );
        }
        world.crash(NodeId::new(3));
        world
    }

    /// G = {0, 1, 2} @ vg1, epoch 3, next to H = {4..6} @ vg2; member 3
    /// is still at epoch 2 with the composition {0..3} that G decided it
    /// out of, and has just broadcast. G's members drop its older-epoch
    /// traffic, so left deciding it delivers alone and stays a member of
    /// the old epoch until it has heard no peer for three eviction windows.
    fn build_lone_engine(&self) -> WorldState {
        let params = self.base_params().with_group_bounds(3, 6);
        let g_ids: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let h_ids: Vec<NodeId> = (4..7).map(NodeId::new).collect();
        let stale = NodeId::new(3);
        let vg_g = VgroupId::new(1);
        let vg_h = VgroupId::new(2);
        let g_comp = Composition::from_members(g_ids.iter().copied());
        let stale_comp = g_comp.union(&Composition::singleton(stale));
        let h_comp = Composition::from_members(h_ids.iter().copied());
        let mut all: Vec<NodeId> = g_ids.iter().chain(&h_ids).copied().collect();
        all.push(stale);
        let registry = registry_for(&all);

        let mut world = WorldState::new(self.drop_budget, self.dup_budget);
        for &id in &g_ids {
            let node = member_node(
                id,
                &params,
                &registry,
                vg_g,
                g_comp.clone(),
                ring(vg_h, &h_comp),
                3,
            );
            world.add_node(node, self.seed);
        }
        let node = member_node(
            stale,
            &params,
            &registry,
            vg_g,
            stale_comp,
            ring(vg_h, &h_comp),
            2,
        );
        world.add_node(node, self.seed);
        for &id in &h_ids {
            let node = member_node(
                id,
                &params,
                &registry,
                vg_h,
                h_comp.clone(),
                ring(vg_g, &g_comp),
                2,
            );
            world.add_node(node, self.seed);
        }
        world.broadcast_from(stale, b"lone".to_vec());
        world
    }
}

/// A one-cycle neighbour table whose predecessor and successor are both
/// `other`.
fn ring(other: VgroupId, other_comp: &Composition) -> NeighborTable {
    let mut t = NeighborTable::new(1);
    t.set_cycle(
        0,
        CycleNeighbors {
            predecessor: other,
            predecessor_composition: other_comp.clone(),
            successor: other,
            successor_composition: other_comp.clone(),
        },
    );
    t
}
