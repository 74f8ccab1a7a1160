//! The benchmark's in-memory span recorder. Stamps are taken by benchmark
//! code around calls into the product (see `tcp.rs`), kept in memory for
//! the whole run, and written as one JSON object per span when it ends.

use std::io::Write;

/// Stage names between consecutive stamps t0..t7; their durations add up
/// to the operation's total.
const STAGES: [&str; 7] = [
    "client_send",
    "edge_admit",
    "reactor_queue",
    "core_broadcast",
    "smr_decide",
    "vgroup_spread",
    "gossip",
];

/// The stamps of one traced operation, nanoseconds on the process clock:
/// t0 due, t1 request handed to the socket, t2 first `EdgeBackend::execute`
/// entry, t3 `call` closure starts on the reactor, t4 `broadcast()` returns,
/// t5 first delivery in the origin vgroup, t6 last delivery in the origin
/// vgroup, t7 last delivery anywhere.
pub struct OpStamps {
    pub op: u64,
    pub stamps: [u64; 8],
    pub ack: u64,
    /// Without a gateway there is no t1/t2: `reactor_queue` runs t0 → t3.
    pub edge: bool,
}

impl OpStamps {
    /// `(name, start, end)` of every span of this operation, root first.
    fn spans(&self) -> Vec<(&'static str, u64, u64)> {
        let t = &self.stamps;
        let mut spans = vec![("op", t[0], t[7])];
        for (i, name) in STAGES.iter().enumerate() {
            match (self.edge, i) {
                (false, 0 | 1) => {}
                (false, 2) => spans.push((name, t[0], t[3])),
                _ => spans.push((name, t[i], t[i + 1])),
            }
        }
        if self.ack != 0 {
            // Off the blocking path: the reply travels while SMR decides.
            spans.push(("ack_return", t[4], self.ack));
        }
        spans
    }
}

/// Writes `bench-out/trace_<workload>.jsonl` and returns its path.
pub fn write(workload: &str, ops: &[OpStamps]) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all("bench-out")?;
    let path = std::path::PathBuf::from(format!("bench-out/trace_{workload}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for op in ops {
        for (name, start, end) in op.spans() {
            let parent = if name == "op" { "null" } else { "\"op\"" };
            writeln!(
                out,
                "{{\"op\":{},\"span\":\"{name}\",\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                op.op,
                start as f64 / 1e3,
                end as f64 / 1e3
            )?;
        }
    }
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_stages_telescope_to_the_root_span() {
        for edge in [true, false] {
            let op = OpStamps {
                op: 1,
                stamps: [10, 20, 35, 50, 70, 100, 140, 200],
                ack: 90,
                edge,
            };
            let spans = op.spans();
            let (_, start, end) = spans[0];
            let staged: u64 = spans[1..]
                .iter()
                .filter(|(name, _, _)| *name != "ack_return")
                .map(|(_, s, e)| e - s)
                .sum();
            assert_eq!(staged, end - start, "edge={edge}");
        }
    }
}
