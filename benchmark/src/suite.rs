//! The whole benchmark in one invocation — every workload several times,
//! the micro section once, medians with min and max — and the comparison of
//! two such results against the bounds in `BENCHMARK.json`.

use crate::metrics::{find, suite_bound, tables, Bound};
use crate::util::{median, object, Json};
use crate::{run_in_child, Scale};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The first line of `program args`' output, or "unknown".
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median, min and max of one metric over a workload's runs.
fn summary(values: &[f64], unit: &str) -> Value {
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted);
    object(vec![
        ("median", Value::F64(mid)),
        ("min", Value::F64(sorted[0])),
        ("max", Value::F64(sorted[sorted.len() - 1])),
        ("runs", Value::U64(sorted.len() as u64)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

/// Runs every workload and the micro section, prints every metric by name
/// with its unit, and writes the result file.
pub fn run(
    seed: u64,
    smoke: bool,
    seconds: Option<f64>,
    out: Option<&str>,
) -> Result<ExitCode, String> {
    let scale = |micro_div: u64| Scale {
        seconds: seconds.unwrap_or(if smoke { 2.0 } else { 20.0 }),
        warmup_s: if smoke { 0.5 } else { 2.0 },
        micro_div,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = object(vec![
        ("seed", Value::U64(seed)),
        ("nproc", Value::U64(nproc as u64)),
        (
            "git_rev",
            Value::Str(tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(tool_output("rustc", &["--version"]))),
        ("smoke", Value::Bool(smoke)),
        ("timed_seconds", Value::F64(scale(0).seconds)),
        ("settings", Value::Str(crate::SETTINGS.to_string())),
    ]);

    let mut sections: Vec<(String, Value)> = Vec::new();
    eprintln!("micro section ...");
    let micro = run_in_child("micro", seed, &scale(if smoke { 100 } else { 1 }), false)?;
    sections.push((
        "micro".to_string(),
        object(vec![(
            "metrics",
            Value::Map(
                micro
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), summary(&[*v], unit_of(k))))
                    .collect(),
            ),
        )]),
    ));

    for workload in &tables().workloads {
        eprintln!("{}: {}", workload.name, workload.why);
        let runs = if smoke { 1 } else { workload.suite_runs() };
        let mut untraced: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0, 0);
        for i in 1..=runs {
            eprintln!("{} run {i}/{runs} ...", workload.name);
            let record = run_in_child(&workload.name, seed, &scale(0), false)?;
            attempted += record.attempted;
            failed += record.failed;
            for (name, value) in record.metrics {
                untraced.entry(name).or_default().push(value);
            }
        }
        eprintln!("{} traced run ...", workload.name);
        let traced = run_in_child(&workload.name, seed, &scale(0), true)?;
        // Counter-based layer metrics come from the untraced runs; only
        // what tracing alone produces is taken from the traced one.
        let mut metrics: Vec<(String, Value)> = untraced
            .iter()
            .map(|(k, v)| (k.clone(), summary(v, unit_of(k))))
            .collect();
        for (name, value) in &traced.metrics {
            if !untraced.contains_key(name) {
                metrics.push((name.clone(), summary(&[*value], unit_of(name))));
            }
        }
        sections.push((
            workload.name.clone(),
            object(vec![
                ("attempted", Value::U64(attempted)),
                ("failed", Value::U64(failed)),
                ("metrics", Value::Map(metrics)),
                (
                    "notes",
                    Value::Map(
                        traced
                            .notes
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::F64(*v)))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }

    let result = Json(object(vec![
        ("stamp", stamp),
        ("workloads", Value::Map(sections)),
    ]));
    print_result(&result);
    let path = out
        .map(String::from)
        .unwrap_or_else(|| format!("bench-out/suite_seed{seed}.json"));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, result.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("result written to {path}");
    Ok(ExitCode::SUCCESS)
}

fn unit_of(metric: &str) -> &'static str {
    find(metric).map_or("", |m| m.unit.as_str())
}

fn print_result(result: &Json) {
    let workloads = result
        .get("workloads")
        .map(|w| w.entries())
        .unwrap_or_default();
    for (workload, section) in workloads {
        if let (Some(a), Some(f)) = (section.get("attempted"), section.get("failed")) {
            println!(
                "{workload}: attempted {} failed {}",
                a.as_f64().unwrap_or(0.0),
                f.as_f64().unwrap_or(0.0)
            );
        }
        for (name, m) in section
            .get("metrics")
            .map(|m| m.entries())
            .unwrap_or_default()
        {
            let field = |k: &str| m.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
            println!(
                "{workload:<11} {name:<34} {:>14.4} {:<6} [{:.4} .. {:.4}] over {} run(s)",
                field("median"),
                m.get("unit")
                    .and_then(|u| u.as_str().map(String::from))
                    .unwrap_or_default(),
                field("min"),
                field("max"),
                field("runs")
            );
        }
    }
}

/// One metric of one workload in a result file.
struct Stat {
    median: f64,
    min: f64,
    max: f64,
}

/// A result file's metrics, and `(attempted, failed)` per workload.
struct Loaded {
    stats: BTreeMap<(String, String), Stat>,
    counts: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut loaded = Loaded {
        stats: BTreeMap::new(),
        counts: BTreeMap::new(),
    };
    for (workload, section) in doc
        .get("workloads")
        .map(|w| w.entries())
        .unwrap_or_default()
    {
        let count = |k: &str| section.get(k).and_then(|v| v.as_f64());
        if let (Some(attempted), Some(failed)) = (count("attempted"), count("failed")) {
            loaded.counts.insert(workload.clone(), (attempted, failed));
        }
        for (name, m) in section
            .get("metrics")
            .map(|m| m.entries())
            .unwrap_or_default()
        {
            let field = |k: &str| m.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
            let stat = Stat {
                median: field("median"),
                min: field("min"),
                max: field("max"),
            };
            loaded.stats.insert((workload.clone(), name), stat);
        }
    }
    Ok(loaded)
}

/// How `b` stands against `a` under `bound`: `worse` when its median is
/// worse by more than the bound allows and by more than either side's own
/// runs differ (max − min), `unresolved` when those runs spread wider than
/// the bound allows, `ok` otherwise.
fn verdict(a: &Stat, b: &Stat, higher_is_better: bool, bound: Bound) -> &'static str {
    let worsening = if higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    };
    let allowed = match bound {
        Bound::Relative(share) => share * a.median.abs(),
        Bound::Absolute(amount) => amount,
        Bound::Exact => 0.0,
    };
    let spread = (a.max - a.min).max(b.max - b.min);
    if worsening > allowed.max(spread) {
        "worse"
    } else if spread > allowed {
        "unresolved"
    } else {
        "ok"
    }
}

/// Prints, per workload and metric, both medians, the delta, the bound and
/// the verdict; fails when a bounded metric is worse, or missing from `b`.
pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (workload, (attempted, failed)) in &a.counts {
        let (b_attempted, b_failed) = b.counts.get(workload).copied().unwrap_or_default();
        println!("{workload}: failed a {failed} of {attempted}, b {b_failed} of {b_attempted}");
    }
    println!(
        "{:<11} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    let mut failures = 0;
    for ((workload, name), sa) in &a.stats {
        let Some(sb) = b.stats.get(&(workload.clone(), name.clone())) else {
            failures += 1;
            println!(
                "{workload:<11} {name:<34} {:>14.4} {:>14}  missing",
                sa.median, "-"
            );
            continue;
        };
        let delta = if sa.median == 0.0 {
            0.0
        } else {
            (sb.median - sa.median) / sa.median.abs() * 100.0
        };
        let bound = suite_bound(workload, name);
        let verdict = match (bound, find(name)) {
            (Some(bound), Some(def)) => verdict(sa, sb, def.higher_is_better, bound),
            _ => "-",
        };
        let bound = match bound {
            Some(Bound::Relative(share)) => format!("{:.0}%", share * 100.0),
            Some(Bound::Absolute(amount)) => format!("+{amount}"),
            Some(Bound::Exact) => "exact".to_string(),
            None => "-".to_string(),
        };
        failures += usize::from(verdict == "worse");
        println!(
            "{workload:<11} {name:<34} {:>14.4} {:>14.4} {delta:>+8.1}% {bound:>7}  {verdict}",
            sa.median, sb.median
        );
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let stat = |median: f64, spread: f64| Stat {
            median,
            min: median - spread / 2.0,
            max: median + spread / 2.0,
        };
        // Lower is better, bound 10 %.
        let tenth = Bound::Relative(0.1);
        let v = |a, b, higher| verdict(&a, &b, higher, tenth);
        assert_eq!(v(stat(100.0, 2.0), stat(105.0, 2.0), false), "ok");
        assert_eq!(v(stat(100.0, 2.0), stat(111.0, 2.0), false), "worse");
        assert_eq!(v(stat(100.0, 2.0), stat(80.0, 2.0), false), "ok");
        assert_eq!(v(stat(100.0, 30.0), stat(105.0, 2.0), false), "unresolved");
        // A difference smaller than the runs' own spread is not resolved.
        assert_eq!(v(stat(100.0, 30.0), stat(120.0, 2.0), false), "unresolved");
        assert_eq!(v(stat(100.0, 30.0), stat(140.0, 2.0), false), "worse");
        // Higher is better.
        assert_eq!(v(stat(100.0, 0.0), stat(85.0, 0.0), true), "worse");
        assert_eq!(v(stat(100.0, 0.0), stat(120.0, 0.0), true), "ok");
        // A ratio whose healthy value is 0 has an absolute bound.
        let abs = Bound::Absolute(0.005);
        assert_eq!(
            verdict(&stat(0.0, 0.0), &stat(0.004, 0.0), false, abs),
            "ok"
        );
        assert_eq!(
            verdict(&stat(0.0, 0.0), &stat(0.006, 0.0), false, abs),
            "worse"
        );
        // A count may improve, but not worsen or differ between runs.
        let exact = Bound::Exact;
        assert_eq!(
            verdict(&stat(7.0, 0.0), &stat(7.0, 0.0), false, exact),
            "ok"
        );
        assert_eq!(
            verdict(&stat(7.0, 0.0), &stat(6.0, 0.0), false, exact),
            "ok"
        );
        assert_eq!(
            verdict(&stat(7.0, 0.0), &stat(7.001, 0.0), false, exact),
            "worse"
        );
        assert_eq!(
            verdict(&stat(7.0, 0.5), &stat(7.0, 0.0), false, exact),
            "unresolved"
        );
    }
}
