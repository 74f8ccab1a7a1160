//! The metrics store: named counters, gauges and fixed-bucket histograms in
//! a [`Registry`] per owner. Every `NetRuntime` and every `EdgeGateway` owns
//! one, labelled with a scope; [`global`] holds the protocol counters that
//! outlive any runtime (`core.*`). A count lives in exactly one registry,
//! and the stats surfaces (`RuntimeStats`, `AggregateStats`, `EdgeSnapshot`,
//! the edge `Stats` probe) are views read out of a [`Snapshot`].
//!
//! Handle resolution takes the registry lock and allocates the name, so it
//! happens only in constructors: a component resolves its `Arc<Counter>` /
//! `Arc<Gauge>` / `Arc<AtomicHistogram>` handles once, keeps them in the
//! struct that uses them, and then pays relaxed atomic ops on one handle
//! per observation. The reactor loop, `ConnTable::flush` and the gateway's
//! I/O and worker loops never touch the registry itself.

/// The JSON value tree [`Snapshot::to_json`] takes its extra entries as.
pub use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A peak-tracking gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Raises the gauge to `v` if it is higher.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A thread-safe fixed-bucket histogram over `u64` observations
/// (microseconds, batch sizes, queue depths). Each bucket counts the
/// observations `<=` its bound and `>` the previous bound; observations
/// beyond the last bound land in `overflow`.
#[derive(Debug)]
pub struct AtomicHistogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    overflow: AtomicU64,
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// A histogram with the given ascending upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        AtomicHistogram {
            bounds: bounds.to_vec(),
            counts: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => self.counts[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// A point-in-time reading.
    pub fn read(&self) -> HistogramValue {
        HistogramValue {
            buckets: self
                .bounds
                .iter()
                .copied()
                .zip(self.counts.iter().map(|c| c.load(Ordering::Relaxed)))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A reading of one [`AtomicHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramValue {
    /// `(upper_bound, count)` per bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Observations beyond the last bound.
    pub overflow: u64,
    /// Total observations.
    pub total: u64,
    /// Sum of all observations (mean = sum / total).
    pub sum: u64,
    /// Largest single observation.
    pub max: u64,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram reading.
    Histogram(HistogramValue),
}

impl MetricValue {
    /// Folds another owner's reading of the same metric into this one:
    /// counters and histograms add up, gauges (peaks) keep the higher.
    fn merge(&mut self, other: MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(b),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                assert_eq!(a.buckets.len(), b.buckets.len(), "histogram bounds differ");
                for (mine, theirs) in a.buckets.iter_mut().zip(b.buckets) {
                    assert_eq!(mine.0, theirs.0, "histogram bounds differ");
                    mine.1 += theirs.1;
                }
                a.overflow += b.overflow;
                a.total += b.total;
                a.sum += b.sum;
                a.max = a.max.max(b.max);
            }
            (mine, theirs) => panic!("cannot merge {theirs:?} into {mine:?}"),
        }
    }

    fn to_value(&self) -> Value {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Value::U64(*v),
            MetricValue::Histogram(h) => Value::Map(vec![
                (
                    "buckets".to_string(),
                    Value::Seq(
                        h.buckets
                            .iter()
                            .map(|(b, c)| Value::Seq(vec![Value::U64(*b), Value::U64(*c)]))
                            .collect(),
                    ),
                ),
                ("overflow".to_string(), Value::U64(h.overflow)),
                ("total".to_string(), Value::U64(h.total)),
                ("sum".to_string(), Value::U64(h.sum)),
                ("max".to_string(), Value::U64(h.max)),
            ]),
        }
    }
}

/// A point-in-time reading of one registry — or of several merged — by
/// metric name: what the stats views are computed from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Scope label of the registry read; a merge joins the labels with `+`.
    pub scope: String,
    /// Reading per metric name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Folds another owner's snapshot in, metric by metric: counters and
    /// histograms add up, gauges keep the higher, names only one side has
    /// are carried over.
    ///
    /// # Panics
    /// If a name is a different metric type, or a histogram with different
    /// bounds, on the two sides.
    pub fn merge(&mut self, other: Snapshot) {
        if !self.scope.is_empty() {
            self.scope.push('+');
        }
        self.scope.push_str(&other.scope);
        for (name, value) in other.metrics {
            match self.metrics.get_mut(&name) {
                Some(mine) => mine.merge(value),
                None => {
                    self.metrics.insert(name, value);
                }
            }
        }
    }

    /// The counter or gauge named `name` (0 when absent).
    pub fn value(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram named `name` (empty when absent).
    pub fn histogram(&self, name: &str) -> HistogramValue {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => h.clone(),
            _ => HistogramValue::default(),
        }
    }

    /// The snapshot as one JSON object: `scope`, `metrics` (metric name →
    /// reading), then the caller's `extra` top-level entries.
    pub fn to_json(&self, extra: Vec<(&str, Value)>) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| (name.clone(), value.to_value()))
            .collect();
        let mut entries = vec![
            ("scope".to_string(), Value::Str(self.scope.clone())),
            ("metrics".to_string(), Value::Map(metrics)),
        ];
        entries.extend(extra.into_iter().map(|(name, v)| (name.to_string(), v)));
        crate::flight::value_to_json(Value::Map(entries))
    }
}

/// The metrics of one owner. Handle resolution (`counter`, `gauge`,
/// `histogram`) is get-or-create and meant for constructors; observations
/// go through the returned `Arc` handles.
#[derive(Debug)]
pub struct Registry {
    scope: String,
    inner: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry whose snapshots carry `scope` (which runtime,
    /// which gateway).
    pub fn new(scope: impl Into<String>) -> Self {
        Registry {
            scope: scope.into(),
            inner: RwLock::default(),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut inner = self.inner.write().expect("metrics registry lock");
        inner.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter named `name`, created at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The gauge named `name`, created at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The histogram named `name`, created with `bounds` on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type or with
    /// different bounds: every owner has its own registry, so a second
    /// registration that disagrees with the first is a bug.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<AtomicHistogram> {
        let make = || Metric::Histogram(Arc::new(AtomicHistogram::new(bounds)));
        match self.get_or_insert(name, make) {
            Metric::Histogram(h) if h.bounds == bounds => h,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Reads every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.read().expect("metrics registry lock");
        let metrics = inner
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.read()),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot {
            scope: self.scope.clone(),
            metrics,
        }
    }
}

/// The process-wide registry, for protocol-layer counters that outlive any
/// one runtime (`core.*`). Runtimes and gateways own their own registries;
/// nothing registers `net.*` or `edge.*` names here.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry::new("process"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let registry = Registry::new("test");
        let c = registry.counter("test.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(registry.counter("test.counter").get(), 5, "get-or-create");

        let g = registry.gauge("test.gauge");
        g.record_max(10);
        g.record_max(7);
        assert_eq!(g.get(), 10);

        let h = registry.histogram("test.hist", &[10, 100]);
        for v in [1, 5, 50, 500] {
            h.record(v);
        }
        let read = h.read();
        assert_eq!((read.total, read.sum, read.max), (4, 556, 500));
        assert_eq!(read.overflow, 1);
        assert_eq!(read.buckets, vec![(10, 2), (100, 1)]);

        let snap = registry.snapshot();
        assert_eq!(snap.metrics.len(), 3);
        assert_eq!(snap.value("test.counter"), 5);
        assert_eq!(snap.histogram("test.hist"), read);
        assert_eq!(snap.value("test.absent"), 0);
        let json = snap.to_json(vec![("ready", Value::Bool(true))]);
        assert!(json.starts_with("{\"scope\":\"test\",\"metrics\":{"));
        assert!(json.contains("\"test.gauge\":10"));
        assert!(json.contains("\"overflow\":1"));
        assert!(json.ends_with("\"ready\":true}"));
    }

    #[test]
    fn merge_sums_counters_and_histograms_and_maxes_gauges() {
        let (a, b) = (Registry::new("a"), Registry::new("b"));
        for (registry, n) in [(&a, 3), (&b, 40)] {
            registry.counter("m.count").add(n);
            registry.gauge("m.peak").record_max(n);
            registry.histogram("m.hist", &[10]).record(n);
        }
        b.counter("m.only_b").inc();
        let mut merged = a.snapshot();
        merged.merge(b.snapshot());
        assert_eq!(merged.scope, "a+b");
        assert_eq!(merged.value("m.count"), 43);
        assert_eq!(merged.value("m.peak"), 40);
        assert_eq!(merged.value("m.only_b"), 1);
        let hist = merged.histogram("m.hist");
        assert_eq!((hist.total, hist.sum, hist.max), (2, 43, 40));
        assert_eq!((hist.buckets, hist.overflow), (vec![(10, 1)], 1));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_confusion_panics() {
        let registry = Registry::new("test");
        registry.counter("same.name");
        registry.gauge("same.name");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn histogram_bounds_mismatch_panics() {
        let registry = Registry::new("test");
        registry.histogram("same.name", &[1, 2]);
        registry.histogram("same.name", &[1, 3]);
    }

    #[test]
    fn global_registry_is_shared() {
        let a = global().counter("obs.test.global");
        a.inc();
        assert_eq!(global().counter("obs.test.global").get(), a.get());
    }
}
