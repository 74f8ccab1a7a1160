//! Latency series, percentiles and CDFs for experiment reporting.

use atum_types::Duration;
use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    use super::*;

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
