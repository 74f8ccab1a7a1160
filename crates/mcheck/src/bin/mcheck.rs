//! `mcheck` — bounded model checking of the Atum membership protocol.
//!
//! Explores message/timer interleavings of a small cluster of real
//! `AtumNode`s and checks the overlay/membership invariants on the settled
//! world. Run records are emitted in the same JSON shape as the benchmark
//! binaries (`--json <path>`), so `scripts/gate.sh` can gate on them with
//! `jq`.
//!
//! ```text
//! mcheck [--scenario NAME]... [--depth N] [--max-states N]
//!        [--drops N] [--dups N] [--seed N] [--no-link-repair]
//!        [--trace-out DIR] [--replay FILE] [--json PATH]
//! ```
//!
//! With no `--scenario`, all scenarios run. Exit status is 0 even when a
//! violation is found (the run record carries the verdict; CI gates with
//! `jq`), and 2 on usage or replay errors.

#![forbid(unsafe_code)]

use atum_bench::{emit, BenchRecord};
use atum_mcheck::{check_scenario, Scenario, ScenarioConfig, Trace};

struct Options {
    scenarios: Vec<Scenario>,
    depth: u64,
    max_states: u64,
    drops: u32,
    dups: u32,
    seed: u64,
    link_repair: bool,
    trace_out: Option<std::path::PathBuf>,
    replay: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mcheck [--scenario NAME]... [--depth N] [--max-states N] \
         [--drops N] [--dups N] [--seed N] [--no-link-repair] \
         [--trace-out DIR] [--replay FILE] [--json PATH]\n\
         scenarios: {}",
        Scenario::ALL
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        scenarios: Vec::new(),
        depth: 2,
        max_states: 4_000,
        drops: 2,
        dups: 1,
        seed: 7,
        link_repair: true,
        trace_out: None,
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--scenario" => {
                let name = value("--scenario");
                match Scenario::from_name(&name) {
                    Some(s) => options.scenarios.push(s),
                    None => {
                        eprintln!("unknown scenario: {name}");
                        usage();
                    }
                }
            }
            "--depth" => options.depth = parse_num(&value("--depth")),
            "--max-states" => options.max_states = parse_num(&value("--max-states")),
            "--drops" => options.drops = parse_num(&value("--drops")) as u32,
            "--dups" => options.dups = parse_num(&value("--dups")) as u32,
            "--seed" => options.seed = parse_num(&value("--seed")),
            "--no-link-repair" => options.link_repair = false,
            "--trace-out" => options.trace_out = Some(value("--trace-out").into()),
            "--replay" => options.replay = Some(value("--replay").into()),
            // Consumed by atum_bench::json_sink directly from env::args.
            "--json" => {
                let _ = value("--json");
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if options.scenarios.is_empty() {
        options.scenarios = Scenario::ALL.to_vec();
    }
    options
}

fn parse_num(text: &str) -> u64 {
    text.parse().unwrap_or_else(|_| {
        eprintln!("not a number: {text}");
        usage()
    })
}

fn main() {
    let options = parse_options();

    if let Some(path) = &options.replay {
        replay_file(path);
        return;
    }

    let mut total_violations = 0usize;
    for &scenario in &options.scenarios {
        let config = ScenarioConfig {
            scenario,
            seed: options.seed,
            link_repair: options.link_repair,
            drop_budget: options.drops,
            dup_budget: options.dups,
        };
        let started = std::time::Instant::now();
        let (result, traces) = check_scenario(config, options.depth, options.max_states);
        let elapsed = started.elapsed();
        total_violations += result.violations.len();

        println!(
            "{:<18} states={:<6} deduped={:<6} depth={}/{} truncated={} violations={} ({:.2?})",
            scenario.name(),
            result.stats.states_explored,
            result.stats.states_deduped,
            result.stats.max_depth_reached,
            options.depth,
            result.stats.truncated,
            result.violations.len(),
            elapsed,
        );
        for violation in &result.violations {
            println!(
                "  VIOLATION {}: {} action(s) at depth {}",
                violation.property,
                violation.trace.len(),
                violation.depth
            );
        }

        if let Some(dir) = &options.trace_out {
            for trace in &traces {
                let file = dir.join(format!(
                    "{}__{}.trace.jsonl",
                    scenario.name(),
                    trace.header.property
                ));
                if let Err(e) = std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&file, trace.to_jsonl()))
                {
                    eprintln!("failed to write {}: {e}", file.display());
                } else {
                    println!("  trace written: {}", file.display());
                }
            }
        }

        let mut record = BenchRecord::new("mcheck", options.seed);
        record = record
            .runtime("mcheck")
            .param("scenario", scenario.name())
            .param("depth", options.depth)
            .param("max_states", options.max_states)
            .param("drops", options.drops)
            .param("dups", options.dups)
            .param("link_repair", options.link_repair)
            .metric("states_explored", result.stats.states_explored)
            .metric("states_deduped", result.stats.states_deduped)
            .metric("max_depth_reached", result.stats.max_depth_reached)
            .metric("truncated", result.stats.truncated)
            .metric("violations", result.violations.len() as u64)
            .perf(elapsed, None);
        emit(&record);
    }

    println!(
        "checked {} scenario(s): {}",
        options.scenarios.len(),
        if total_violations == 0 {
            "all properties hold".to_string()
        } else {
            format!("{total_violations} violation(s) — see traces")
        }
    );
}

fn replay_file(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    let trace = Trace::from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse trace: {e}");
        std::process::exit(2);
    });
    println!(
        "replaying {} ({} action(s), property {})",
        path.display(),
        trace.actions.len(),
        if trace.header.property.is_empty() {
            "<none>"
        } else {
            &trace.header.property
        }
    );
    match trace.replay() {
        Ok(verdicts) => println!("verdicts after settle: {verdicts:?}"),
        Err(e) => {
            eprintln!("replay failed: {e}");
            std::process::exit(2);
        }
    }
}
