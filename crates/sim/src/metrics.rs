//! Latency series, percentiles and CDFs for experiment reporting, and the
//! broadcast-reach audit of a churn run.

use crate::{ChurnCycle, Cluster};
use atum_core::CollectingApp;
use atum_types::{BroadcastId, Duration, Instant, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A collection of latency samples with CDF/percentile helpers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySeries {
    samples: Vec<f64>,
    sorted: bool,
}

impl LatencySeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        LatencySeries::default()
    }

    /// Adds a sample in seconds.
    pub fn push_secs(&mut self, secs: f64) {
        self.samples.push(secs);
        self.sorted = false;
    }

    /// Adds a [`Duration`] sample.
    pub fn push(&mut self, d: Duration) {
        self.push_secs(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sorted_samples(&mut self) -> &[f64] {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            self.sorted = true;
        }
        &self.samples
    }

    /// The p-th percentile (0–100) in seconds.
    pub fn percentile(&mut self, p: f64) -> f64 {
        percentile(self.sorted_samples(), p)
    }

    /// Mean in seconds (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Maximum sample in seconds (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// CDF evaluated at the given thresholds: fraction of samples ≤ each
    /// threshold (the series plotted in Figure 8).
    pub fn cdf_at(&mut self, thresholds: &[f64]) -> Vec<(f64, f64)> {
        let sorted = self.sorted_samples();
        let n = sorted.len().max(1) as f64;
        thresholds
            .iter()
            .map(|&t| {
                let count = sorted.partition_point(|&s| s <= t);
                (t, count as f64 / n)
            })
            .collect()
    }
}

/// The p-th percentile (0–100) of a **sorted** slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Whether the broadcasts issued during a run reached the correct nodes:
/// the paper's headline guarantee, folded from what every correct node
/// handed its [`CollectingApp`], the issued broadcasts with their
/// send times, and the membership intervals of a churn run's cycles.
///
/// A (correct node, broadcast) pair is *owed* when the node was a member
/// both when the broadcast was sent and at the end of the run: not inside
/// one of its own leave/re-join cycles at the send time, and a member now.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReachAudit {
    /// Owed (correct node, broadcast) pairs.
    pub pairs: usize,
    /// Owed pairs whose node delivered the broadcast.
    pub reached: usize,
    /// The owed pairs that were not reached, node by node.
    pub missed: Vec<(NodeId, BroadcastId)>,
    /// Per issued broadcast, in issue order: how many correct nodes
    /// delivered it, owed or not.
    pub reach: Vec<usize>,
    /// Issued broadcasts whose id an earlier one already carried.
    pub reused_ids: usize,
    /// Deliveries of a broadcast the node had already delivered.
    pub duplicates: usize,
    /// Deliveries of an id no correct origin issued.
    pub unknown: usize,
}

impl ReachAudit {
    /// Audits `cluster`'s correct nodes against the broadcasts `issued`
    /// (id and send time), with `cycles` the churn run's membership gaps.
    pub fn fold(
        cluster: &Cluster<CollectingApp>,
        issued: &[(BroadcastId, Instant)],
        cycles: &[ChurnCycle],
    ) -> Self {
        let index: BTreeMap<BroadcastId, usize> = issued
            .iter()
            .enumerate()
            .map(|(i, &(id, _))| (id, i))
            .collect();
        let mut audit = ReachAudit {
            reach: vec![0; issued.len()],
            reused_ids: issued.len() - index.len(),
            ..ReachAudit::default()
        };
        for node in cluster.correct_nodes() {
            let Some(host) = cluster.sim.node(node) else {
                continue;
            };
            let mut delivered = vec![false; issued.len()];
            for d in host.app().delivered() {
                match index.get(&d.id) {
                    None => audit.unknown += 1,
                    Some(&i) if std::mem::replace(&mut delivered[i], true) => audit.duplicates += 1,
                    Some(&i) => audit.reach[i] += 1,
                }
            }
            if !host.is_member() {
                continue;
            }
            let gaps: Vec<&ChurnCycle> = cycles.iter().filter(|c| c.victim == node).collect();
            let away = |sent: Instant| {
                let t = sent.as_secs_f64();
                gaps.iter()
                    .any(|c| c.left_at_secs <= t && c.completed_at_secs.is_none_or(|back| t < back))
            };
            for (&(id, sent), &got) in issued.iter().zip(&delivered) {
                if away(sent) {
                    continue;
                }
                audit.pairs += 1;
                if got {
                    audit.reached += 1;
                } else {
                    audit.missed.push((node, id));
                }
            }
        }
        audit
    }

    /// The share of owed pairs that were reached (1.0 when none is owed).
    pub fn pair_reach(&self) -> f64 {
        if self.pairs == 0 {
            1.0
        } else {
            self.reached as f64 / self.pairs as f64
        }
    }

    /// How many issued broadcasts reached at most `k` correct nodes.
    pub fn reaching_at_most(&self, k: usize) -> usize {
        self.reach.iter().filter(|&&n| n <= k).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterBuilder;
    use std::sync::{Arc, Mutex};

    #[test]
    fn reach_audit_owes_a_pair_only_while_its_node_is_a_member() {
        let mut cluster = ClusterBuilder::new(8)
            .seed(3)
            .build(|_| CollectingApp::new());
        let nodes = cluster.correct_nodes();
        let sent = cluster.sim.now();
        let slot: Arc<Mutex<Option<BroadcastId>>> = Arc::default();
        let id = Arc::clone(&slot);
        cluster.sim.call(nodes[0], move |n, ctx| {
            *id.lock().unwrap() = n.broadcast(b"audit".to_vec(), ctx).ok();
        });
        cluster.sim.run_for(Duration::from_secs(30));
        let id = slot.lock().unwrap().expect("a member broadcasts");
        let never = BroadcastId::new(nodes[0], 99);
        // Node 1 was away when both were sent, and back before the end.
        let away = ChurnCycle {
            victim: nodes[1],
            left_at_secs: 0.0,
            rejoin_at_secs: 0.0,
            completed_at_secs: Some(sent.as_secs_f64() + 1.0),
        };
        let audit = ReachAudit::fold(&cluster, &[(id, sent), (never, sent)], &[away]);
        assert_eq!(audit.reach, vec![8, 0]);
        assert_eq!((audit.pairs, audit.reached), (14, 7));
        assert_eq!(audit.missed.len(), 7);
        assert!(audit
            .missed
            .iter()
            .all(|&(node, b)| node != nodes[1] && b == never));
        assert_eq!(audit.reaching_at_most(0), 1);
        assert_eq!(
            (audit.duplicates, audit.unknown, audit.reused_ids),
            (0, 0, 0)
        );
        assert_eq!(audit.pair_reach(), 0.5);
        // An id nobody issued is an unknown delivery on every node.
        let audit = ReachAudit::fold(&cluster, &[(never, sent)], &[]);
        assert_eq!(audit.unknown, 8);
    }

    #[test]
    fn percentiles_and_mean() {
        let mut s = LatencySeries::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push_secs(v);
        }
        assert_eq!(s.len(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-9);
        assert!((s.percentile(0.0) - 1.0).abs() < 1e-9);
        assert!((s.percentile(50.0) - 3.0).abs() < 1e-9);
        assert!((s.percentile(100.0) - 5.0).abs() < 1e-9);
        assert!((s.percentile(25.0) - 2.0).abs() < 1e-9);
        assert!((s.max() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn duration_samples_and_cdf() {
        let mut s = LatencySeries::new();
        for ms in [100u64, 200, 300, 400] {
            s.push(Duration::from_millis(ms));
        }
        let cdf = s.cdf_at(&[0.05, 0.25, 0.45]);
        assert_eq!(cdf.len(), 3);
        assert!((cdf[0].1 - 0.0).abs() < 1e-9);
        assert!((cdf[1].1 - 0.5).abs() < 1e-9);
        assert!((cdf[2].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_series_is_well_behaved() {
        let mut s = LatencySeries::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
