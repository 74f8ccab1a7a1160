//! System parameters (Table 1 of the paper) and operational configuration.

use crate::error::{AtumError, Result};
use crate::time::Duration;
use serde::{Deserialize, Serialize};

/// Which state-machine-replication engine runs inside every vgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SmrMode {
    /// Round-based Dolev–Strong-style authenticated agreement; tolerates
    /// ⌊(g−1)/2⌋ faults per vgroup. Suited to highly redundant (datacenter)
    /// networks where a round bound is realistic.
    #[default]
    Synchronous,
    /// PBFT-style eventually-synchronous ordering; tolerates ⌊(g−1)/3⌋ faults
    /// per vgroup but needs no round bound for safety.
    Asynchronous,
}

impl SmrMode {
    /// The number of Byzantine faults a group of `group_size` members
    /// tolerates under this engine: `⌊(g−1)/2⌋` synchronous, `⌊(g−1)/3⌋`
    /// asynchronous. The single source of the fault-bound formula — quorum
    /// and corroboration thresholds everywhere must derive from it.
    pub fn max_faults(self, group_size: usize) -> usize {
        let g = group_size.max(1);
        match self {
            SmrMode::Synchronous => (g - 1) / 2,
            SmrMode::Asynchronous => (g - 1) / 3,
        }
    }
}

/// How a vgroup forwards a broadcast across the H-graph (§3.3.4, the
/// paper's `forward` callback): applications can trade latency against
/// throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum GossipPolicy {
    /// Forward along every cycle (flooding): lowest latency, highest cost.
    #[default]
    Flood,
    /// Forward along a fixed number of cycles (1 = "Single", 2 = "Double" in
    /// the AStream evaluation).
    Cycles(u8),
    /// Forward to each neighbour independently with the given probability
    /// (classic gossip behaviour); the deterministic cycle 0 is always used
    /// so delivery stays guaranteed.
    Random {
        /// Forwarding probability in percent (0–100).
        percent: u8,
    },
}

/// The system parameters of Table 1 plus operational knobs.
///
/// `hc`, `rwl`, `gmin`, `gmax` and `k` are exactly the parameters the paper
/// lists; the remaining fields configure the SMR engine, round durations,
/// heartbeats, gossip and the two repair planes. AShare's replication
/// degree and chunking are the application's own (`AShareConfig`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Number of Hamiltonian cycles in the H-graph (`hc`, typically 2–12).
    pub hc: u8,
    /// Random-walk length (`rwl`, typically 4–15).
    pub rwl: u8,
    /// Minimum vgroup size before a merge is triggered (`gmin`).
    pub gmin: usize,
    /// Maximum vgroup size before a split is triggered (`gmax`).
    pub gmax: usize,
    /// Robustness parameter `k` in `g = k·log N` (documentation/analysis
    /// only; `gmin`/`gmax` are what the implementation enforces).
    pub k: u8,
    /// SMR engine used inside vgroups.
    pub smr: SmrMode,
    /// Duration of one synchronous round (1–1.5 s in the paper's
    /// experiments). Ignored by the asynchronous engine except as a
    /// view-change timeout baseline.
    pub round: Duration,
    /// Heartbeat period (§5.1 uses coarse heartbeats, e.g. one per minute).
    pub heartbeat_period: Duration,
    /// Number of consecutive missed heartbeats after which a vgroup agrees
    /// to evict a silent member.
    pub eviction_threshold: u32,
    /// Which neighbours a vgroup forwards a broadcast to.
    pub gossip: GossipPolicy,
    /// Overlay link self-repair: members periodically probe their cycle
    /// neighbours for link bidirectionality and launch re-insertion walks
    /// when a direction stays unanswered. Disabling this reverts to the
    /// pre-repair protocol where splits/merges racing admission churn can
    /// leave one-directional links or orphaned vgroups — kept as a knob so
    /// the model checker can demonstrate the failure the repair removes.
    pub link_repair: bool,
    /// Broadcast self-repair: members piggyback a digest of recently seen
    /// broadcasts on their periodic composition announces; a vgroup peer
    /// that missed one (a dropped gossip copy has no other retransmit)
    /// pulls it, and holders re-gossip it to the whole vgroup so the
    /// quorum acceptance path re-assembles at the holed member. Bounded:
    /// one re-gossip per broadcast per announce period per peer. The
    /// retained broadcasts are also what answers a receiver whose majority
    /// of digest votes came without a body (senders whose views of their
    /// own composition diverged mid-churn, or more withholding carriers
    /// than the fault bound): with repair off nobody asks and nobody could
    /// answer, and such a broadcast is never delivered at that member.
    pub broadcast_repair: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            hc: 5,
            rwl: 10,
            gmin: 7,
            gmax: 14,
            k: 4,
            smr: SmrMode::Synchronous,
            round: Duration::from_millis(1_000),
            heartbeat_period: Duration::from_secs(60),
            eviction_threshold: 3,
            gossip: GossipPolicy::Flood,
            link_repair: true,
            broadcast_repair: true,
        }
    }
}

impl Params {
    /// Validates the parameter combination, returning an error describing the
    /// first violated constraint.
    ///
    /// # Errors
    ///
    /// Returns [`AtumError::InvalidConfig`] when any of the Table 1 ranges or
    /// internal consistency constraints (`gmin ≤ gmax`, non-zero sizes, ...)
    /// are violated.
    pub fn validate(&self) -> Result<()> {
        if self.hc == 0 {
            return Err(AtumError::invalid_config("hc must be at least 1"));
        }
        if self.rwl == 0 {
            return Err(AtumError::invalid_config("rwl must be at least 1"));
        }
        if self.gmin == 0 {
            return Err(AtumError::invalid_config("gmin must be at least 1"));
        }
        if self.gmin > self.gmax {
            return Err(AtumError::invalid_config("gmin must not exceed gmax"));
        }
        if self.gmax < 4 {
            return Err(AtumError::invalid_config(
                "gmax below 4 cannot mask any Byzantine fault",
            ));
        }
        if self.round == Duration::ZERO {
            return Err(AtumError::invalid_config("round duration must be non-zero"));
        }
        if self.heartbeat_period == Duration::ZERO {
            return Err(AtumError::invalid_config(
                "heartbeat period must be non-zero",
            ));
        }
        if self.eviction_threshold == 0 {
            return Err(AtumError::invalid_config(
                "eviction threshold must be at least 1",
            ));
        }
        if let GossipPolicy::Cycles(c) = self.gossip {
            if c == 0 || c > self.hc {
                return Err(AtumError::invalid_config(
                    "gossip cycle count must be within 1..=hc",
                ));
            }
        }
        if let GossipPolicy::Random { percent } = self.gossip {
            if percent > 100 {
                return Err(AtumError::invalid_config(
                    "gossip probability must be at most 100 percent",
                ));
            }
        }
        Ok(())
    }

    /// The expected vgroup size `g = k·log2(n)` for an expected system size
    /// `n` (paper §3.1). Clamped to at least `gmin`.
    pub fn expected_group_size(&self, expected_system_size: usize) -> usize {
        let logn = (expected_system_size.max(2) as f64).log2();
        ((self.k as f64 * logn).round() as usize).max(self.gmin)
    }

    /// Derives `gmin`/`gmax` from an expected system size, following the
    /// paper's convention `gmin = 0.5·gmax`, `gmax ≈ 2·k·log2(n)/1.5`.
    pub fn with_expected_size(mut self, expected_system_size: usize) -> Self {
        let g = self.expected_group_size(expected_system_size);
        self.gmax = (g * 4 / 3).max(6);
        self.gmin = (self.gmax / 2).max(3);
        self
    }

    /// Builder-style setter for the SMR mode.
    pub fn with_smr(mut self, mode: SmrMode) -> Self {
        self.smr = mode;
        self
    }

    /// Builder-style setter for the gossip policy.
    pub fn with_gossip(mut self, policy: GossipPolicy) -> Self {
        self.gossip = policy;
        self
    }

    /// Builder-style setter for the overlay parameters.
    pub fn with_overlay(mut self, hc: u8, rwl: u8) -> Self {
        self.hc = hc;
        self.rwl = rwl;
        self
    }

    /// Builder-style setter for the vgroup size bounds.
    pub fn with_group_bounds(mut self, gmin: usize, gmax: usize) -> Self {
        self.gmin = gmin;
        self.gmax = gmax;
        self
    }

    /// Builder-style setter for the synchronous round duration.
    pub fn with_round(mut self, round: Duration) -> Self {
        self.round = round;
        self
    }

    /// Builder-style setter for overlay link self-repair (bidirectionality
    /// probing + orphan re-insertion walks). On by default; turning it off
    /// reproduces the pre-repair link-surgery fragility for the model
    /// checker.
    pub fn with_link_repair(mut self, enabled: bool) -> Self {
        self.link_repair = enabled;
        self
    }

    /// Builder-style setter for broadcast self-repair (announce-piggybacked
    /// anti-entropy over recently seen broadcasts). On by default; the
    /// model checker turns it off because its eventual-delivery properties
    /// hold without the accelerator and the settle phase stays cheap.
    pub fn with_broadcast_repair(mut self, enabled: bool) -> Self {
        self.broadcast_repair = enabled;
        self
    }

    /// Builder-style setter for failure detection: how often members
    /// heartbeat each other, and after how many silent periods a member is
    /// accused for eviction.
    pub fn with_failure_detection(
        mut self,
        heartbeat_period: Duration,
        eviction_threshold: u32,
    ) -> Self {
        self.heartbeat_period = heartbeat_period;
        self.eviction_threshold = eviction_threshold;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_valid() {
        Params::default().validate().unwrap();
    }

    #[test]
    fn invalid_params_are_rejected() {
        let base = Params::default();
        let cases: Vec<(Params, &str)> = vec![
            (
                Params {
                    hc: 0,
                    ..base.clone()
                },
                "hc",
            ),
            (
                Params {
                    rwl: 0,
                    ..base.clone()
                },
                "rwl",
            ),
            (
                Params {
                    gmin: 0,
                    ..base.clone()
                },
                "gmin",
            ),
            (
                Params {
                    gmin: 20,
                    gmax: 10,
                    ..base.clone()
                },
                "gmin",
            ),
            (
                Params {
                    gmax: 3,
                    gmin: 2,
                    ..base.clone()
                },
                "gmax",
            ),
            (
                Params {
                    round: Duration::ZERO,
                    ..base.clone()
                },
                "round",
            ),
            (
                Params {
                    heartbeat_period: Duration::ZERO,
                    ..base.clone()
                },
                "heartbeat",
            ),
            (
                Params {
                    eviction_threshold: 0,
                    ..base.clone()
                },
                "eviction",
            ),
            (
                Params {
                    gossip: GossipPolicy::Cycles(0),
                    ..base.clone()
                },
                "cycle",
            ),
            (
                Params {
                    gossip: GossipPolicy::Cycles(200),
                    ..base.clone()
                },
                "cycle",
            ),
            (
                Params {
                    gossip: GossipPolicy::Random { percent: 150 },
                    ..base
                },
                "probability",
            ),
        ];
        for (p, needle) in cases {
            let err = p.validate().unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.to_lowercase().contains(needle),
                "expected error about {needle:?}, got {msg:?}"
            );
        }
    }

    #[test]
    fn expected_group_size_is_logarithmic() {
        let p = Params::default();
        let g_100 = p.expected_group_size(100);
        let g_10000 = p.expected_group_size(10_000);
        assert!(g_100 >= p.gmin);
        // Quadrupling the exponent only doubles the group size.
        assert!(g_10000 < g_100 * 3);
        assert!(g_10000 > g_100);
    }

    #[test]
    fn with_expected_size_keeps_bounds_consistent() {
        for n in [10usize, 100, 1_000, 10_000, 100_000] {
            let p = Params::default().with_expected_size(n);
            p.validate().unwrap();
            assert!(p.gmin * 2 <= p.gmax + 1, "gmin {} gmax {}", p.gmin, p.gmax);
        }
    }

    #[test]
    fn builder_setters() {
        let p = Params::default()
            .with_smr(SmrMode::Asynchronous)
            .with_gossip(GossipPolicy::Cycles(2))
            .with_overlay(6, 9)
            .with_group_bounds(5, 12)
            .with_round(Duration::from_millis(1_500))
            .with_link_repair(false);
        assert_eq!(p.smr, SmrMode::Asynchronous);
        assert!(!p.link_repair);
        assert_eq!(p.gossip, GossipPolicy::Cycles(2));
        assert_eq!(p.hc, 6);
        assert_eq!(p.rwl, 9);
        assert_eq!(p.gmin, 5);
        assert_eq!(p.gmax, 12);
        assert_eq!(p.round.as_millis(), 1_500);
        p.validate().unwrap();
    }

    #[test]
    fn serde_roundtrip() {
        let p = Params::default().with_smr(SmrMode::Asynchronous);
        let json = serde_json::to_string(&p).unwrap();
        let back: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
