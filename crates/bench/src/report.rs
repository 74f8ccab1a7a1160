//! Machine-readable bench records: the perf-trajectory output of the
//! experiment binaries.
//!
//! Every figure and scenario binary emits one [`BenchRecord`] per
//! experimental run when a sink is configured, as one compact JSON object
//! per line:
//!
//! ```json
//! {"figure":"fig06","scale":"reduced","runtime":"simnet","seed":126,
//!  "params":{"mode":"Synchronous","target":120},
//!  "metrics":{"final_members":120,"reached":true}}
//! ```
//!
//! The sink is selected by `--json <path>` on the binary's command line.
//! Records are *appended*, so successive runs of the same binary extend the
//! file and CI can archive `BENCH_*.json` artifacts run over run. The record
//! shape (`figure`, `scale`, `runtime`, `params`, `metrics`, `seed`) is
//! stable: `scripts/gate.sh` reads it with `jq`, so renaming keys is a
//! breaking change. The `runtime` key distinguishes simulator records
//! (`"simnet"`, simulated time) from `atum-net` records (`"tcp"`,
//! wall-clock time).

use serde::{Serialize, Value};
use std::io::Write;
use std::path::PathBuf;

/// One experimental run's machine-readable result.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// The figure or experiment this record belongs to (e.g. `"fig06"`,
    /// `"churn"`).
    pub figure: String,
    /// `"reduced"` or `"full"` (see [`full_scale`](crate::full_scale)).
    pub scale: String,
    /// Which runtime hosted the run: `"simnet"` (the discrete-event
    /// simulator; the default) or `"tcp"` (the `atum-net` socket runtime).
    /// Records from the two substrates measure different things — simulated
    /// versus wall-clock time — so the trajectory tooling must be able to
    /// tell them apart.
    pub runtime: String,
    /// The seed the run used (reproducibility).
    pub seed: u64,
    /// Input parameters that identify the run within the figure.
    pub params: Vec<(String, Value)>,
    /// Measured outputs.
    pub metrics: Vec<(String, Value)>,
    /// Wall-clock duration of the run in milliseconds (perf trajectory).
    pub wall_clock_ms: Option<f64>,
    /// Simulator events processed per wall-clock second (perf trajectory).
    /// `None` for experiments that do not drive a discrete-event simulation.
    pub events_per_sec: Option<f64>,
}

impl BenchRecord {
    /// Starts a record for `figure`, stamping the current scale.
    pub fn new(figure: &str, seed: u64) -> Self {
        BenchRecord {
            figure: figure.to_string(),
            scale: if crate::full_scale() {
                "full"
            } else {
                "reduced"
            }
            .to_string(),
            runtime: "simnet".to_string(),
            seed,
            params: Vec::new(),
            metrics: Vec::new(),
            wall_clock_ms: None,
            events_per_sec: None,
        }
    }

    /// Stamps which runtime hosted the run (`"simnet"` is the default).
    pub fn runtime(mut self, runtime: &str) -> Self {
        self.runtime = runtime.to_string();
        self
    }

    /// Stamps the wall-clock duration of the run and, when the run drove a
    /// discrete-event simulation, its raw event throughput. These land as
    /// top-level keys next to `metrics`, giving every figure a comparable
    /// perf trajectory that future PRs can regress against.
    pub fn perf(mut self, wall_clock: std::time::Duration, events_processed: Option<u64>) -> Self {
        let wall_ms = wall_clock.as_secs_f64() * 1e3;
        self.wall_clock_ms = Some(wall_ms);
        self.events_per_sec = events_processed.map(|events| {
            if wall_ms > 0.0 {
                events as f64 / (wall_ms / 1e3)
            } else {
                0.0
            }
        });
        self
    }

    /// Adds an input parameter.
    pub fn param(mut self, key: &str, value: impl Serialize) -> Self {
        self.params.push((key.to_string(), value.to_value()));
        self
    }

    /// Adds a measured metric.
    pub fn metric(mut self, key: &str, value: impl Serialize) -> Self {
        self.metrics.push((key.to_string(), value.to_value()));
        self
    }

    /// The record as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut entries = vec![
            ("figure".to_string(), Value::Str(self.figure.clone())),
            ("scale".to_string(), Value::Str(self.scale.clone())),
            ("runtime".to_string(), Value::Str(self.runtime.clone())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("params".to_string(), Value::Map(self.params.clone())),
            ("metrics".to_string(), Value::Map(self.metrics.clone())),
        ];
        if let Some(wall) = self.wall_clock_ms {
            entries.push(("wall_clock_ms".to_string(), Value::F64(wall)));
        }
        if let Some(eps) = self.events_per_sec {
            entries.push(("events_per_sec".to_string(), Value::F64(eps)));
        }
        Value::Map(entries)
    }

    /// The record as one line of JSON.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(&SerializableValue(self.to_value()))
            .expect("bench records contain only JSON-safe values")
    }
}

/// Adapter: a [`Value`] is its own serialization.
struct SerializableValue(Value);

impl Serialize for SerializableValue {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// The JSON sink for this process, if any: the path after a `--json` flag on
/// the command line.
pub fn json_sink() -> Option<PathBuf> {
    std::env::args()
        .skip_while(|arg| arg != "--json")
        .nth(1)
        .map(PathBuf::from)
}

/// Appends `record` to the configured sink (no-op when none is configured).
/// Emission failures are reported on stderr but never abort an experiment:
/// the human-readable tables remain the primary output.
pub fn emit(record: &BenchRecord) {
    let Some(path) = json_sink() else {
        return;
    };
    let line = record.to_json_line();
    let result = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(std::fs::create_dir_all)
        .unwrap_or(Ok(()))
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
        })
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = result {
        eprintln!(
            "warning: could not append bench record to {}: {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serialises_with_stable_shape() {
        let record = BenchRecord::new("fig99", 7)
            .param("target", 120usize)
            .param("mode", "Synchronous")
            .metric("final_members", 119usize)
            .metric("ratio", 0.5f64)
            .metric("reached", true);
        let line = record.to_json_line();
        assert!(line.starts_with("{\"figure\":\"fig99\""));
        assert!(line.contains("\"scale\":\"reduced\""));
        assert!(line.contains("\"runtime\":\"simnet\""));
        assert!(line.contains("\"seed\":7"));
        assert!(line.contains("\"params\":{\"target\":120,\"mode\":\"Synchronous\"}"));
        assert!(line.contains("\"final_members\":119"));
        assert!(line.contains("\"reached\":true"));
        // One line, valid JSON: re-parses into a raw value tree whose top
        // level is a map with the five stable keys.
        assert!(!line.contains('\n'));
        struct RawValue(Value);
        impl serde::Deserialize for RawValue {
            fn from_value(v: &Value) -> Result<Self, serde::Error> {
                Ok(RawValue(v.clone()))
            }
        }
        let RawValue(tree) = serde_json::from_str(&line).expect("line re-parses");
        let keys: Vec<&str> = tree
            .as_map()
            .expect("top level is a map")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["figure", "scale", "runtime", "seed", "params", "metrics"]
        );

        // The tcp runtime stamps itself.
        let tcp = BenchRecord::new("net", 1).runtime("tcp");
        assert!(tcp.to_json_line().contains("\"runtime\":\"tcp\""));
    }

    #[test]
    fn perf_fields_are_optional_top_level_keys() {
        // Without perf: the pre-existing five-key shape (gates rely on it).
        let bare = BenchRecord::new("fig99", 1);
        assert!(!bare.to_json_line().contains("wall_clock_ms"));
        // With perf: wall clock and events/sec appear as top-level keys.
        let timed =
            BenchRecord::new("fig99", 1).perf(std::time::Duration::from_millis(500), Some(1_000));
        let line = timed.to_json_line();
        assert!(line.contains("\"wall_clock_ms\":500"));
        assert!(line.contains("\"events_per_sec\":2000"));
        // A simulation-free experiment reports wall clock only.
        let no_events =
            BenchRecord::new("fig99", 1).perf(std::time::Duration::from_millis(10), None);
        let line = no_events.to_json_line();
        assert!(line.contains("wall_clock_ms"));
        assert!(!line.contains("events_per_sec"));
    }

    #[test]
    fn sink_defaults_to_none() {
        // The test harness is not run with `--json`, and nothing else
        // names a sink.
        assert!(json_sink().is_none());
    }
}
