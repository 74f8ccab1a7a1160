//! Experiment harness for the Atum reproduction: cluster construction, fault
//! injection, workload drivers, metrics and the statistical tests used by the
//! paper's evaluation (§6).
//!
//! The harness drives `atum-core` nodes over the `atum-simnet` simulator.
//! Every experiment binary in `atum-bench` is a thin wrapper around the
//! pieces in this crate:
//!
//! * [`ClusterBuilder`] — build a standing system of N nodes partitioned into
//!   vgroups connected by a random H-graph (what a long sequence of joins
//!   would converge to), optionally with Byzantine members;
//! * [`drivers`] — growth (Fig. 6), churn (Fig. 7), broadcast latency
//!   (Fig. 8) and exchange-completion (Fig. 13) drivers;
//! * [`baselines`] — the classic gossip simulation and the flat
//!   synchronous-SMR latency model the paper compares against in Fig. 8;
//! * [`metrics`] — CDFs, percentiles, series formatting and the
//!   broadcast-reach audit;
//! * [`chi2`] — Pearson's χ² uniformity test used to derive the Figure 4
//!   configuration guideline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baselines;
pub mod chi2;
pub mod cluster;
pub mod drivers;
pub mod metrics;

pub use baselines::{flat_smr_latency, simulate_classic_gossip, GossipBaselineResult};
pub use chi2::{chi2_critical_99, chi2_statistic, is_uniform_99};
pub use cluster::{Cluster, ClusterBuilder};
pub use drivers::{
    run_broadcast_workload, run_churn, run_growth, BroadcastWorkloadReport, ChurnCycle,
    ChurnReport, GhostAudit, GrowthReport, StallBreakdown,
};
pub use metrics::{percentile, LatencySeries, ReachAudit};
