//! The benchmark's metric and workload tables, read from the repository's
//! `BENCHMARK.json` (compiled in), so names, units, directions and bounds
//! have one home; and, in one block, what that file has no room for.

use crate::util::Json;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct WorkloadDef {
    pub name: String,
    pub why: String,
}

impl WorkloadDef {
    /// Runs per suite invocation: socket workloads vary from run to run,
    /// simulated ones only in wall-clock speed.
    pub fn suite_runs(&self) -> usize {
        if self.name.starts_with("sim_") {
            2
        } else {
            3
        }
    }
}

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub struct Tables {
    /// The workloads of `BENCHMARK.json`, then the suite-only one.
    pub workloads: Vec<WorkloadDef>,
    /// What a user of the system sees; every workload reports every one.
    pub end_to_end: Vec<MetricDef>,
    /// Single layers (layer = crate name before the dot). A metric whose
    /// layer is not on a workload's path reads 0 there.
    pub per_layer: Vec<MetricDef>,
}

fn text(entry: &Json, key: &str) -> String {
    entry
        .get(key)
        .and_then(|v| v.as_str().map(String::from))
        .unwrap_or_else(|| panic!("BENCHMARK.json: entry without `{key}`"))
}

fn metric_list(doc: &Json, key: &str) -> Vec<MetricDef> {
    doc.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no `{key}`"))
        .items()
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(|b| b.as_f64()),
        })
        .collect()
}

// ---- What the suite knows beyond `BENCHMARK.json` ----
//
// `BENCHMARK.json` is the driver's file: its keys are fixed, every workload
// in it is run under ten seeds, and every end-to-end metric in it must be
// non-zero on every workload and repeat across those seeds within a quarter.
// One workload and five of the issue's end-to-end metrics cannot meet that
// (a sixth, `sim_deliver_p50_ms`, is `deliver_p50_ms` on the simulated
// workloads), so the driver does not gate on them. The suite and
// `--compare`, which hold the seed fixed, still do; what they need for it is
// below and nowhere else.

/// Under one seed `sim_churn` repeats exactly; across seeds it is chaotic
/// (another choice of broadcast origins moves its median delivery latency
/// from 3.0 to 4.5 simulated seconds).
const SUITE_ONLY_WORKLOAD: (&str, &str) = (
    "sim_churn",
    "200 simulated nodes, 10 silent Byzantine, 20 leave/re-joins a minute beside a broadcast \
     stream: membership writes contend with broadcast reads",
);

/// By how much `--compare` lets a metric worsen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the baseline median.
    Relative(f64),
    /// An absolute amount, for a ratio whose healthy value is 0.
    Absolute(f64),
    /// Not at all: a count or a simulated time, which repeats exactly.
    Exact,
}

/// `(workload prefix, metric, bound)`, first match wins: the issue's bounds
/// for the metrics `BENCHMARK.json` lists without one, and tighter ones
/// where a workload repeats better than the one bound the file has room
/// for (`wire_bytes_per_op` is 12 % there because `node_sync`'s re-sends
/// depend on timing; `edge_async` repeats within 0.02 %).
const SUITE_BOUNDS: [(&str, &str, Bound); 12] = [
    ("", "deliver_p99_ms", Bound::Relative(0.15)),
    (
        "",
        "failed_ratio",
        Bound::Absolute(crate::FAILED_RATIO_BOUND),
    ),
    ("", "sim_events_per_s", Bound::Relative(0.10)),
    ("", "sim_rejoin_p50_s", Bound::Exact),
    ("", "sim_rejoin_p90_s", Bound::Exact),
    // Simulated clock and simulator counts.
    ("sim_", "deliver_p50_ms", Bound::Exact),
    ("sim_", "wire_bytes_per_op", Bound::Exact),
    ("sim_", "simnet.events_per_broadcast", Bound::Exact),
    ("sim_", "simnet.msgs_per_broadcast", Bound::Exact),
    ("sim_", "simnet.bytes_per_broadcast", Bound::Exact),
    ("sim_", "simnet.events_per_cycle", Bound::Exact),
    ("edge_async", "wire_bytes_per_op", Bound::Relative(0.02)),
];

/// The bound `--compare` holds `metric` to on `workload`, if any: the
/// suite's own, else the one in `BENCHMARK.json`.
pub fn suite_bound(workload: &str, metric: &str) -> Option<Bound> {
    SUITE_BOUNDS
        .iter()
        .find(|(prefix, name, _)| workload.starts_with(prefix) && *name == metric)
        .map(|(_, _, bound)| *bound)
        .or_else(|| find(metric)?.bound.map(Bound::Relative))
}

pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let mut workloads: Vec<WorkloadDef> = doc
            .get("workloads")
            .expect("BENCHMARK.json: no `workloads`")
            .items()
            .iter()
            .map(|w| WorkloadDef {
                name: text(w, "name"),
                why: text(w, "why"),
            })
            .collect();
        workloads.push(WorkloadDef {
            name: SUITE_ONLY_WORKLOAD.0.to_string(),
            why: SUITE_ONLY_WORKLOAD.1.to_string(),
        });
        Tables {
            workloads,
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
        }
    })
}

/// Looks a metric up in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    let t = tables();
    t.end_to_end
        .iter()
        .chain(&t.per_layer)
        .find(|m| m.name == name)
}
