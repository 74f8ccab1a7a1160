//! Shared helpers for the per-figure experiment binaries of the Atum
//! reproduction.
//!
//! Every figure and table of the paper's evaluation (§6) has a matching
//! binary in `src/bin/` (`fig04` … `fig13`). By default the binaries run at a
//! laptop-friendly scale; set the environment variable `ATUM_FULL=1` to run
//! at the paper's scale (slower, but the same code path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figshare;
pub mod report;

pub use report::{emit, json_sink, BenchRecord};

use atum_types::{Duration, Params};
use std::sync::atomic::{AtomicU64, Ordering};

/// Panics observed anywhere in the process (reactor threads included)
/// since [`count_panics`] was called.
static PANICS: AtomicU64 = AtomicU64::new(0);

/// Counts panics without suppressing them: the hook already installed
/// still runs, so a reactor thread that dies prints as usual and fails a
/// `panics == 0` gate even though the process survives. Call it once, at
/// the top of `main()`.
pub fn count_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::Relaxed);
        previous(info);
    }));
}

/// Panics counted since [`count_panics`] was called.
pub fn panics() -> u64 {
    PANICS.load(Ordering::Relaxed)
}

/// Resident set size of this process in MiB, from `/proc/self/status`
/// (Linux-only; 0.0 elsewhere).
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmRSS:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Wires the tracing plane into an experiment binary.
///
/// Call this first thing in `main()`. It understands one command-line flag,
/// `--trace-out <path>`: structured protocol events are appended to that file
/// as JSONL, and — mirroring the `ATUM_TRACE_OUT` semantics in
/// `atum_obs::trace` — all event kinds are enabled unless the operator
/// narrowed the selection explicitly via `ATUM_TRACE`. Without the flag the
/// binaries rely purely on the environment (`ATUM_TRACE`, `ATUM_TRACE_OUT`),
/// which `atum-obs` reads lazily on first use, so calling this is cheap and
/// optional for env-only runs.
pub fn init_obs() {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        let path = if arg == "--trace-out" {
            args.next()
        } else {
            arg.strip_prefix("--trace-out=").map(str::to_owned)
        };
        let Some(path) = path else { continue };
        if let Err(err) = atum_obs::trace::set_output_file(&path) {
            eprintln!("warning: cannot open trace output {path}: {err}");
            return;
        }
        if std::env::var("ATUM_TRACE").is_err() {
            atum_obs::trace::enable_all_kinds();
        }
        return;
    }
}

/// `true` when the full paper-scale experiment was requested via
/// `ATUM_FULL=1`.
pub fn full_scale() -> bool {
    std::env::var("ATUM_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Picks the scaled or full value depending on [`full_scale`].
pub fn scaled<T>(default: T, full: T) -> T {
    if full_scale() {
        full
    } else {
        default
    }
}

/// Parameters used by the experiment binaries: the paper's Table 1 defaults
/// with a configurable round length and overlay dimensioning from the
/// Figure 4 guideline.
///
/// The expected vgroup count is derived from the Table 1 group-size model
/// (`g = k·log₂ n`, [`Params::expected_group_size`]) rather than a
/// hard-coded divisor, so changing `k` or the group bounds flows through to
/// the overlay dimensioning.
pub fn experiment_params(expected_nodes: usize, round_ms: u64) -> Params {
    let params = Params::default().with_expected_size(expected_nodes);
    let group_size = params.expected_group_size(expected_nodes).max(1);
    let groups = (expected_nodes / group_size).max(2);
    let guideline = atum_types::recommended_params(groups);
    params
        .with_overlay(guideline.hc, guideline.rwl)
        .with_round(Duration::from_millis(round_ms))
        // Growth and churn experiments reconfigure vgroups every few
        // seconds; stranded composition entries must be detected and healed
        // on the same timescale, or the damage rate outruns the repair rate
        // and memberships fragment (see the churny_cluster example for the
        // same reasoning). The paper's coarse 60 s heartbeat (§5.1) is a
        // bandwidth optimisation for steady state, not a good fit for the
        // dynamic experiments.
        .with_failure_detection(Duration::from_millis(round_ms.saturating_mul(5)), 3)
}

/// Prints a table header in the same spirit as the paper's figures.
pub fn print_header(figure: &str, caption: &str) {
    println!("=============================================================");
    println!("{figure}: {caption}");
    println!(
        "(scale: {})",
        if full_scale() {
            "full (paper)"
        } else {
            "reduced; set ATUM_FULL=1 for paper scale"
        }
    );
    println!("=============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_picks_by_env() {
        // The environment is not set in tests, so the default is returned.
        assert_eq!(scaled(10, 100), 10);
        assert!(!full_scale());
    }

    #[test]
    fn experiment_params_are_valid_across_sizes() {
        for n in [20usize, 100, 850, 1400] {
            let p = experiment_params(n, 1000);
            p.validate().unwrap();
            assert!(p.rwl >= 4);
        }
    }
}
