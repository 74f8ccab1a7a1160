//! Small shared pieces: the process clock, order statistics, `/proc`
//! readers and a JSON tree that round-trips through the vendored codec.

use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Pins the process clock's zero; call first thing in `main`.
pub fn init_clock() {
    EPOCH.get_or_init(Instant::now);
}

/// Nanoseconds since [`init_clock`], that is since the process started.
/// Never 0 after the first microsecond, so 0 can mean "not stamped".
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleeps until the process clock reads `due_ns`.
pub fn sleep_until(due_ns: u64) {
    let now = now_ns();
    if due_ns > now {
        std::thread::sleep(std::time::Duration::from_nanos(due_ns - now));
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the median (mean of the two middle values for
/// an even count); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it (the choosing-metrics rule), as a percentage.
pub fn highest_supported_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 50.0;
    }
    100.0 * (1.0 - 10.0 / n as f64)
}

/// User + system CPU time of this process in milliseconds, from
/// `/proc/self/stat` (fields 14 and 15, in 10 ms clock ticks).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 10.0
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// FNV-1a over `bytes`: the payload checksum (not a security primitive; it
/// only has to catch a payload that arrives changed).
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The first 16 payload bytes: sequence number, then checksum of the rest.
const PAYLOAD_HEADER: usize = 16;

/// Builds operation `seq`'s payload of `len` bytes from the generator's
/// random stream.
pub fn make_payload(seq: u64, len: usize, rng: &mut impl rand::RngCore) -> Vec<u8> {
    let mut payload = vec![0u8; len];
    rng.fill_bytes(&mut payload[PAYLOAD_HEADER..]);
    let sum = fnv64(&payload[PAYLOAD_HEADER..]);
    payload[..8].copy_from_slice(&seq.to_le_bytes());
    payload[8..PAYLOAD_HEADER].copy_from_slice(&sum.to_le_bytes());
    payload
}

/// The sequence number of an intact `len`-byte payload, `None` for a
/// damaged one.
pub fn check_payload(raw: &[u8], len: usize) -> Option<u64> {
    if raw.len() != len {
        return None;
    }
    let seq = u64::from_le_bytes(raw[..8].try_into().ok()?);
    let sum = u64::from_le_bytes(raw[8..PAYLOAD_HEADER].try_into().ok()?);
    (fnv64(&raw[PAYLOAD_HEADER..]) == sum).then_some(seq)
}

/// A JSON document as the vendored codec's value tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

impl Json {
    /// Parses a JSON text.
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str::<Json>(text).map_err(|e| e.to_string())
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("finite numbers only")
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<Json> {
        self.0
            .as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Json(v.clone()))
    }

    /// The entries of an object, in document order.
    pub fn entries(&self) -> Vec<(String, Json)> {
        self.0
            .as_map()
            .map(|m| {
                m.iter()
                    .map(|(k, v)| (k.clone(), Json(v.clone())))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The elements of an array.
    pub fn items(&self) -> Vec<Json> {
        self.0
            .as_seq()
            .map(|s| s.iter().cloned().map(Json).collect())
            .unwrap_or_default()
    }

    /// Any JSON number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            Value::U64(u) => Some(u as f64),
            Value::I64(i) => Some(i as f64),
            Value::F64(f) => Some(f),
            _ => None,
        }
    }

    /// A string value.
    pub fn as_str(&self) -> Option<&str> {
        self.0.as_str()
    }
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((highest_supported_percentile(1000) - 99.0).abs() < 1e-9);
    }

    #[test]
    fn json_round_trip() {
        let doc = Json::parse(r#"{"a": 1, "b": [2.5, "x"], "c": {"d": -3}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("b").unwrap().items()[1].as_str(), Some("x"));
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn payloads_carry_their_sequence_and_detect_damage() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut payload = make_payload(77, 256, &mut rng);
        assert_eq!(check_payload(&payload, 256), Some(77));
        payload[200] ^= 1;
        assert_eq!(check_payload(&payload, 256), None);
        assert_eq!(check_payload(&payload[..100], 256), None);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
