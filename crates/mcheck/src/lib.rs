//! Bounded model checking of the Atum membership protocol.
//!
//! This crate drives a small cluster of *real* [`atum_core::AtumNode`]
//! state machines — the exact code the simulator and the TCP runtime host —
//! through the runtime-neutral [`atum_simnet::Context`] surface, and
//! explores message-delivery and timer-firing interleavings with the
//! vendored [`stateright_mini`] BFS checker:
//!
//! - **States** are the canonicalized global configuration (every node's
//!   protocol state, in-flight channels, timers, clock, adversary budgets),
//!   fingerprinted for visited-set deduplication.
//! - **Actions** are adversarial choices: deliver/drop/duplicate a
//!   head-of-line message, or fire the globally earliest timer.
//! - **Properties** (H-graph link bidirectionality, cycle connectivity,
//!   epoch agreement, broadcast reachability) are *eventual* invariants,
//!   evaluated after deterministically settling each explored state to
//!   quiescence.
//!
//! Violations come back as minimal (BFS-shortest) action traces,
//! serializable to JSONL and replayable bit-for-bit — see [`trace::Trace`]
//! and `tests/membership_properties.rs` at the workspace root, where the
//! counterexample that motivated the link-repair fix is pinned as a
//! regression test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod model;
pub mod scenario;
pub mod trace;
pub mod world;

pub use model::{AtumModel, Verdicts};
pub use scenario::{Scenario, ScenarioConfig};
pub use trace::{Trace, TraceHeader};
pub use world::{WorldAction, WorldState};

use stateright_mini::{CheckResult, Checker};

/// Runs the BFS checker over a scenario with the given bounds and returns
/// the raw result plus one replayable [`Trace`] per violated property.
pub fn check_scenario(
    config: ScenarioConfig,
    max_depth: u64,
    max_states: u64,
) -> (CheckResult<AtumModel>, Vec<Trace>) {
    let model = AtumModel::new(config);
    let checker = Checker {
        max_depth,
        max_states,
    };
    let result = checker.check(&model);
    let traces = result
        .violations
        .iter()
        .map(|v| Trace::new(config, v.property, v.trace.clone()))
        .collect();
    (result, traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The torn-link scenario with the repair fix enabled: no adversarial
    /// schedule within the bounds can wedge the overlay — probing heals the
    /// one-directional link before the properties are judged.
    #[test]
    fn torn_link_holds_with_link_repair() {
        let config = ScenarioConfig::new(Scenario::TornLink).with_link_repair(true);
        let (result, traces) = check_scenario(config, 2, 4_000);
        // A pure move must reprint this; a protocol change re-pins it once, with the reason.
        assert_eq!(result.stats.states_explored, 1076);
        assert!(
            result.holds(),
            "link repair should mask every schedule: {:?}",
            result.violations
        );
        assert!(traces.is_empty());
    }

    /// The same scenario against the pre-fix protocol (repair toggled off):
    /// the checker finds the hole — dropping two of the four in-flight
    /// `CyclePatch` copies addressed to one member of the old successor
    /// group defeats the majority rule, leaving a permanently
    /// one-directional link. The minimal counterexample replays
    /// deterministically to the same verdict.
    #[test]
    fn torn_link_violates_without_link_repair() {
        let config = ScenarioConfig::new(Scenario::TornLink).with_link_repair(false);
        let (result, traces) = check_scenario(config, 2, 4_000);
        assert!(
            !result.holds(),
            "expected the link-surgery hole to be reachable with repair off"
        );
        let violation = result
            .violations
            .iter()
            .find(|v| v.property == "links_bidirectional")
            .expect("bidirectionality is the violated property");
        assert!(
            !violation.trace.is_empty(),
            "the initial state is healthy; the adversary must act"
        );
        // Replay through the JSONL round-trip, exactly as the regression
        // tests and the CLI do.
        let trace = traces
            .iter()
            .find(|t| t.header.property == "links_bidirectional")
            .expect("trace for the violated property");
        let reparsed = Trace::from_jsonl(&trace.to_jsonl()).expect("round-trips");
        let verdicts = reparsed.replay().expect("replays cleanly");
        assert!(!verdicts.links_bidirectional);
    }

    /// A split racing an admission next to a correctly linked neighbour:
    /// every interleaving within the bounds settles with all four
    /// invariants intact.
    #[test]
    fn split_racing_join_settles_clean() {
        let config = ScenarioConfig::new(Scenario::SplitRacingJoin).with_budgets(1, 1);
        let (result, _) = check_scenario(config, 3, 4_000);
        // A pure move must reprint this; a protocol change re-pins it once, with the reason.
        assert_eq!(result.stats.states_explored, 39);
        assert!(result.holds(), "violations: {:?}", result.violations);
    }

    /// An undersized group merging away its own vgroup id: nobody may
    /// still point at the dissolved group afterwards.
    #[test]
    fn merge_collapse_settles_clean() {
        let config = ScenarioConfig::new(Scenario::MergeCollapse).with_budgets(1, 1);
        let (result, _) = check_scenario(config, 3, 4_000);
        // A pure move must reprint this; a protocol change re-pins it once, with the reason.
        assert_eq!(result.stats.states_explored, 4);
        assert!(result.holds(), "violations: {:?}", result.violations);
    }

    /// A crashed member must be evicted without detaching its group.
    #[test]
    fn evict_orphan_settles_clean() {
        let config = ScenarioConfig::new(Scenario::EvictOrphan).with_budgets(1, 1);
        let (result, _) = check_scenario(config, 3, 4_000);
        // A pure move must reprint this; a protocol change re-pins it once, with the reason.
        assert_eq!(result.stats.states_explored, 4);
        assert!(result.holds(), "violations: {:?}", result.violations);
    }

    /// A member reconfigured out of its vgroup while it lagged must stop
    /// deciding, end the stale membership and re-join within the settle
    /// horizon: the vgroup agrees on one epoch and the probe reaches it.
    #[test]
    fn lone_engine_settles_clean() {
        let config = ScenarioConfig::new(Scenario::LoneEngine).with_budgets(1, 1);
        let (result, _) = check_scenario(config, 3, 4_000);
        // A pure move must reprint this; a protocol change re-pins it once, with the reason.
        assert_eq!(result.stats.states_explored, 125);
        assert!(result.holds(), "violations: {:?}", result.violations);
    }

    /// Scenario construction is deterministic: two builds of the same
    /// config canonicalize identically (the foundation of trace replay).
    #[test]
    fn scenario_build_is_deterministic() {
        for scenario in Scenario::ALL {
            let config = ScenarioConfig::new(scenario);
            assert_eq!(
                config.build().canonical(),
                config.build().canonical(),
                "{} must build deterministically",
                scenario.name()
            );
        }
    }
}
