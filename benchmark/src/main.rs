//! Atum's benchmark: one request path timed end to end and layer by layer.
//!
//! ```text
//! atum-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! atum-benchmark [--smoke] [--seed N] [--seconds S] [--out F]    every workload, medians
//! atum-benchmark --compare A.json B.json                         two suite results
//! ```
//!
//! Every run executes in a fresh child process of this binary (`--run`), so
//! each starts with a clean RSS high-water mark, digest cache and heap.

mod metrics;
mod micro;
mod sim;
mod suite;
mod tcp;
mod trace;
mod util;

use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use util::{object, Json};

/// The seed a suite uses unless told otherwise; 1047 is held out (README).
const DEFAULT_SEED: u64 = 47;
/// An invalid run (starved machine, late generator) gets this many
/// attempts. The issue allowed three; on a shared host whose stalls come in
/// spells, one attempt in eight was invalid and one in three of those that
/// followed an invalid one, which would refuse one run in a hundred.
const MAX_ATTEMPTS: usize = 5;
/// The system under test — vgroup partition, H-graph, node and gateway
/// random streams — is built from this fixed seed on every workload;
/// `--seed` generates the inputs alone (payloads, origins, churn victims
/// and contacts). Two topologies differ by several percent in bytes and
/// events per operation, which would otherwise read as run-to-run spread.
pub const CLUSTER_SEED: u64 = 47;
/// The share of a run's operations that may fail before the output check
/// fails the run; below it the result line's `failed` carries the count.
pub const FAILED_RATIO_BOUND: f64 = 0.005;

/// The product settings the workloads override; everything else comes from
/// `RuntimeConfig::default()`, `EdgeConfig::default()` and `Params::default()`,
/// so a later change of a default is measured.
pub const SETTINGS: &str = "edge_async: 12 members group_size 4, async SMR, bounds (4,8), \
overlay (3,5), failure detection 10s x3, queue_capacity 262144, 200 req/s, 1 KiB Publish; \
node_sync: same shape, sync SMR 250 ms rounds, bounds (3,6), 600 broadcasts/s, 1 KiB raw; \
sim_fanout: 120 nodes lan, sync 500 ms rounds, bounds (3,10), overlay (3,5), 1 KiB every 50 sim-ms; \
sim_churn: 200 nodes lan, 10 Byzantine, same params, failure detection 5s x3, 20 re-joins/min, \
5 s pause, 256 B broadcast per sim-s";

/// How much work one run does.
pub struct Scale {
    /// Length of the timed window, wall-clock seconds.
    pub seconds: f64,
    /// Socket workloads: length of the excluded warm-up.
    pub warmup_s: f64,
    /// Divisor of the micro section's iteration counts; 0 skips it.
    pub micro_div: u64,
}

/// What one run measured.
pub struct Run {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures: the run exits non-zero and reports nothing.
    pub errors: Vec<String>,
    /// Why the measurement cannot be trusted (the run is repeated).
    pub invalid: Option<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Context that is not a metric (sample counts, extra percentiles).
    pub notes: BTreeMap<String, f64>,
    pub trace: Option<Vec<trace::OpStamps>>,
}

impl Run {
    pub fn new(workload: &str) -> Run {
        Run {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            invalid: None,
            metrics: BTreeMap::new(),
            notes: BTreeMap::new(),
            trace: None,
        }
    }

    pub fn put(&mut self, name: &str, value: f64) {
        debug_assert!(metrics::find(name).is_some(), "unlisted metric {name}");
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.insert(name.to_string(), value);
    }
}

fn numbers(map: &BTreeMap<String, f64>) -> Value {
    Value::Map(
        map.iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect(),
    )
}

/// `--run`: executes one run in this process and prints its record.
fn child_run(workload: &str, seed: u64, scale: &Scale, traced: bool) -> ExitCode {
    let mut run = match workload {
        "micro" => Run::new(workload),
        "edge_async" => tcp::run(&tcp::EDGE_ASYNC, workload, seed, scale, traced),
        "node_sync" => tcp::run(&tcp::NODE_SYNC, workload, seed, scale, traced),
        "sim_fanout" => sim::run_fanout(workload, seed, scale),
        "sim_churn" => sim::run_churn_workload(workload, seed, scale),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    run.put("peak_rss_mib", util::peak_rss_mib());
    // After the workload, so that its process starts clean.
    if scale.micro_div > 0 {
        run.metrics.extend(micro::run(scale.micro_div));
    }
    if let Some(ops) = run.trace.take() {
        match trace::write(&run.workload, &ops) {
            Ok(path) => eprintln!("trace: {} operations in {}", ops.len(), path.display()),
            Err(e) => run.errors.push(format!("trace file: {e}")),
        }
    }
    let record = object(vec![
        ("attempted", Value::U64(run.attempted)),
        ("failed", Value::U64(run.failed)),
        (
            "errors",
            Value::Seq(run.errors.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "invalid",
            run.invalid.clone().map(Value::Str).unwrap_or(Value::Null),
        ),
        ("metrics", numbers(&run.metrics)),
        ("notes", numbers(&run.notes)),
    ]);
    println!("{}", Json(record).render());
    ExitCode::SUCCESS
}

/// The record a child printed, parsed back.
pub struct Record {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub notes: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh child process; a run the machine disturbed
/// (late generator, starved timers) is repeated (five attempts in all), and refused
/// if still disturbed: a starved machine yields "invalid", never a number.
/// `Err` carries what to tell the user; nothing is reported then.
pub fn run_in_child(
    workload: &str,
    seed: u64,
    scale: &Scale,
    traced: bool,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    for attempt in 1..=MAX_ATTEMPTS {
        let output = Command::new(&exe)
            .args(["--run", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &scale.seconds.to_string()])
            .args(["--warmup", &scale.warmup_s.to_string()])
            .args(["--micro-div", &scale.micro_div.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        if !output.status.success() {
            return Err(format!("{workload}: run exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let doc = Json::parse(line).map_err(|e| format!("{workload}: unreadable record: {e}"))?;
        let errors: Vec<String> = doc
            .get("errors")
            .map(|e| {
                e.items()
                    .iter()
                    .filter_map(|s| s.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        // A disturbed run is repeated whatever else it shows: a starved
        // reactor also loses deliveries.
        if let Some(why) = doc
            .get("invalid")
            .and_then(|v| v.as_str().map(String::from))
        {
            eprintln!("{workload}: attempt {attempt} of {MAX_ATTEMPTS} invalid ({why})");
            if attempt < MAX_ATTEMPTS {
                continue;
            }
            return Err(format!(
                "{workload}: invalid after {MAX_ATTEMPTS} attempts: {why}"
            ));
        }
        if !errors.is_empty() {
            return Err(format!(
                "{workload}: output check failed: {}",
                errors.join("; ")
            ));
        }
        let map = |key: &str| -> BTreeMap<String, f64> {
            doc.get(key)
                .map(|m| {
                    m.entries()
                        .into_iter()
                        .filter_map(|(k, v)| Some((k, v.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let count = |key: &str| doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        return Ok(Record {
            attempted: count("attempted"),
            failed: count("failed"),
            metrics: map("metrics"),
            notes: map("notes"),
        });
    }
    unreachable!("the last attempt returns")
}

/// The driver's contract: one run, one JSON object on the last line holding
/// every end-to-end metric (`--trace 0`) or every per-layer one (`--trace 1`).
fn contract_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let scale = Scale {
        seconds,
        warmup_s: 1.0,
        micro_div: if traced { 10 } else { 0 },
    };
    let record = match run_in_child(workload, seed, &scale, traced) {
        Ok(record) => record,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::FAILURE;
        }
    };
    let tables = metrics::tables();
    let wanted = if traced {
        &tables.per_layer
    } else {
        &tables.end_to_end
    };
    let mut out = Vec::new();
    for def in wanted {
        // A layer that is not on this workload's path measured nothing.
        let value = match record.metrics.get(&def.name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => {
                eprintln!("{workload}: {} was not measured", def.name);
                return ExitCode::FAILURE;
            }
        };
        out.push((
            def.name.as_str(),
            object(vec![
                ("value", Value::F64(value)),
                ("unit", Value::Str(def.unit.to_string())),
            ]),
        ));
    }
    let line = object(vec![
        ("correct", Value::Bool(true)),
        ("attempted", Value::U64(record.attempted.max(1))),
        ("failed", Value::U64(record.failed)),
        ("metrics", object(out)),
    ]);
    println!("{}", Json(line).render());
    ExitCode::SUCCESS
}

/// `--name value` pairs and bare `--flag`s, in order.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read `{text}`")),
        }
    }

    /// A number the caller must pass (the parent process always does).
    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let text = self.value(name).ok_or(format!("{name} is missing"))?;
        text.parse()
            .map_err(|_| format!("{name}: cannot read `{text}`"))
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let traced = args.number("--trace", 0u8)? != 0;
    if let Some(workload) = args.value("--run") {
        let scale = Scale {
            seconds: args.required("--seconds")?,
            warmup_s: args.required("--warmup")?,
            micro_div: args.required("--micro-div")?,
        };
        return Ok(child_run(workload, seed, &scale, traced));
    }
    if let Some(workload) = args.value("--workload") {
        let seconds = args.required("--seconds")?;
        return Ok(contract_run(workload, seed, seconds, traced));
    }
    if let Some(at) = args.0.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.0.get(at + 1), args.0.get(at + 2)) else {
            return Err("--compare takes two result files".to_string());
        };
        return suite::compare(a, b);
    }
    let seconds = match args.value("--seconds") {
        Some(_) => Some(args.number("--seconds", 0.0)?),
        None => None,
    };
    suite::run(seed, args.flag("--smoke"), seconds, args.value("--out"))
}

fn main() -> ExitCode {
    util::init_clock();
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("atum-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
