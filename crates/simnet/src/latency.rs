//! Link models: latency, jitter, bandwidth and loss.

use atum_types::Duration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Uniform one-way propagation delay between `min` and `max`, the same
/// for every pair of nodes: the simulator does not model where nodes are
/// placed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Lower bound (inclusive).
    pub min: Duration,
    /// Upper bound (exclusive, unless equal to `min`).
    pub max: Duration,
}

impl LatencyModel {
    /// Samples a one-way propagation delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        let lo = self.min.as_micros();
        let hi = self.max.as_micros().max(lo + 1);
        Duration::from_micros(rng.gen_range(lo..hi))
    }
}

/// Complete network configuration for a simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Propagation-delay model.
    pub latency: LatencyModel,
    /// Link bandwidth in bytes per second (per message serialisation delay =
    /// size / bandwidth). EC2 micro instances offer on the order of tens of
    /// MB/s; the default models 25 MB/s.
    pub bandwidth_bytes_per_sec: u64,
    /// Probability (0.0–1.0) that any individual message is silently lost.
    pub loss_probability: f64,
    /// Fixed per-message processing overhead charged at the receiver
    /// (deserialisation, syscalls, crypto checks).
    pub processing_overhead: Duration,
}

impl NetConfig {
    /// A single-datacenter (LAN) profile: 0.2–1.2 ms latency, 25 MB/s,
    /// lossless.
    pub fn lan() -> Self {
        NetConfig {
            latency: LatencyModel {
                min: Duration::from_micros(200),
                max: Duration::from_micros(1_200),
            },
            bandwidth_bytes_per_sec: 25_000_000,
            loss_probability: 0.0,
            processing_overhead: Duration::from_micros(50),
        }
    }

    /// A wide-area profile: 1–3 ms latency, 12 MB/s, 0.1 % loss. Every
    /// link draws from the same range; placement across regions (the
    /// paper's 8 EC2 regions) is not modelled.
    pub fn wan() -> Self {
        NetConfig {
            latency: LatencyModel {
                min: Duration::from_millis(1),
                max: Duration::from_millis(3),
            },
            bandwidth_bytes_per_sec: 12_000_000,
            loss_probability: 0.001,
            processing_overhead: Duration::from_micros(80),
        }
    }

    /// A lossy, slow profile for stress tests.
    pub fn lossy(loss_probability: f64) -> Self {
        NetConfig {
            loss_probability,
            ..NetConfig::wan()
        }
    }

    /// Total transmission delay for a message of `size` bytes (serialisation
    /// only; propagation is sampled separately).
    pub fn serialization_delay(&self, size: usize) -> Duration {
        if self.bandwidth_bytes_per_sec == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((size as u64 * 1_000_000) / self.bandwidth_bytes_per_sec)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint when the loss
    /// probability is outside `[0, 1)` or the bandwidth is zero.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.loss_probability) {
            return Err(format!(
                "loss probability {} must be in [0, 1)",
                self.loss_probability
            ));
        }
        if self.bandwidth_bytes_per_sec == 0 {
            return Err("bandwidth must be non-zero".to_string());
        }
        Ok(())
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let model = LatencyModel {
            min: Duration::from_millis(1),
            max: Duration::from_millis(3),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1000 {
            let d = model.sample(&mut rng);
            assert!(d >= Duration::from_millis(1) && d < Duration::from_millis(3));
        }
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let cfg = NetConfig::lan();
        let small = cfg.serialization_delay(1_000);
        let big = cfg.serialization_delay(1_000_000);
        assert!(big > small.saturating_mul(100));
        assert_eq!(
            NetConfig {
                bandwidth_bytes_per_sec: 0,
                ..NetConfig::lan()
            }
            .serialization_delay(1_000_000),
            Duration::ZERO
        );
    }

    #[test]
    fn profiles_validate() {
        NetConfig::lan().validate().unwrap();
        NetConfig::wan().validate().unwrap();
        NetConfig::lossy(0.2).validate().unwrap();
        assert!(NetConfig::lossy(1.5).validate().is_err());
        assert!(NetConfig {
            bandwidth_bytes_per_sec: 0,
            ..NetConfig::lan()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn default_is_lan() {
        assert_eq!(NetConfig::default(), NetConfig::lan());
    }
}
