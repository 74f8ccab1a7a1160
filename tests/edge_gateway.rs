//! Decode hardening at the gateway's client boundary.
//!
//! The node wire gets to assume its peers run this codebase; the edge
//! wire does not. These tests throw malformed headers, node-wire frame
//! kinds, oversized length prefixes, truncated bodies, random garbage and
//! slow-loris dribbles at a live gateway and assert the blast radius of
//! every violation is exactly one connection: the offender is closed and
//! counted, concurrent well-behaved clients never notice, and the
//! listener keeps accepting.

use atum::edge::client::request_frame;
use atum::edge::{
    EdgeBackend, EdgeBackendError, EdgeClient, EdgeConfig, EdgeGateway, EdgeOp, EdgeRequest,
    EdgeStatus,
};
use atum::types::wire::{FRAME_KIND_EDGE_REQUEST, FRAME_KIND_MESSAGE, FRAME_MAGIC, WIRE_VERSION};
use atum::types::NodeId;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A backend that always succeeds; these tests exercise the wire in
/// front of it, not the routing behind it.
#[derive(Debug)]
struct OkBackend;

impl EdgeBackend for OkBackend {
    fn nodes(&self) -> Vec<NodeId> {
        vec![NodeId::new(0)]
    }

    fn execute(
        &self,
        _node: NodeId,
        _op: &EdgeOp,
        _deadline: Instant,
    ) -> Result<Vec<u8>, EdgeBackendError> {
        Ok(Vec::new())
    }
}

fn start_gateway(cfg: EdgeConfig) -> EdgeGateway {
    EdgeGateway::start(cfg, Arc::new(OkBackend)).expect("gateway starts")
}

fn hardened_config() -> EdgeConfig {
    EdgeConfig {
        max_frame_len: 1024,
        idle_timeout: Duration::from_millis(300),
        ..EdgeConfig::default()
    }
}

fn health_request(seq: u64) -> EdgeRequest {
    EdgeRequest {
        seq,
        idempotency_key: None,
        deadline_ms: 0,
        op: EdgeOp::Health,
    }
}

/// Sends `bytes` on a fresh raw connection and returns once the gateway
/// closes it (read returns EOF). Panics if the connection survives the
/// timeout — a violation that does *not* close the connection is the bug.
fn expect_closed_after(addr: std::net::SocketAddr, bytes: &[u8]) {
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect("raw write");
    let mut sink = [0u8; 256];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return, // closed by the gateway
            Ok(_) => continue,
            Err(e) => panic!("gateway did not close the violating connection: {e}"),
        }
    }
}

/// A tiny deterministic generator so the garbage corpus is reproducible
/// without pulling an RNG crate into the facade's dev-dependencies.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn violations_close_only_the_offending_connection() {
    let gateway = start_gateway(hardened_config());
    let addr = gateway.local_addr();

    // A well-behaved bystander stays connected across every attack below.
    let mut bystander = EdgeClient::connect(addr, Duration::from_secs(10)).expect("bystander");
    assert_eq!(
        bystander.request(&health_request(1)).unwrap().status,
        EdgeStatus::Ok
    );

    let good = request_frame(&health_request(2));

    // Bad magic.
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    expect_closed_after(addr, &bad_magic);

    // Bad version.
    let mut bad_version = good.clone();
    bad_version[2] = WIRE_VERSION + 1;
    expect_closed_after(addr, &bad_version);

    // A *node-wire* frame kind: valid between nodes, a violation from a
    // client. The two wires share a header but not a vocabulary.
    let mut node_kind = good.clone();
    node_kind[3] = FRAME_KIND_MESSAGE;
    expect_closed_after(addr, &node_kind);

    // Length prefix far past `max_frame_len`: rejected from the header
    // alone, before any body allocation.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&FRAME_MAGIC);
    oversized.push(WIRE_VERSION);
    oversized.push(FRAME_KIND_EDGE_REQUEST);
    oversized.extend_from_slice(&u32::MAX.to_le_bytes());
    expect_closed_after(addr, &oversized);

    // A well-formed header whose body is garbage.
    let mut bad_body = Vec::new();
    bad_body.extend_from_slice(&FRAME_MAGIC);
    bad_body.push(WIRE_VERSION);
    bad_body.push(FRAME_KIND_EDGE_REQUEST);
    bad_body.extend_from_slice(&8u32.to_le_bytes());
    bad_body.extend_from_slice(&[0xFF; 8]);
    expect_closed_after(addr, &bad_body);

    let snapshot = gateway.snapshot();
    assert!(
        snapshot.frame_violations >= 5,
        "expected every violation counted, got {}",
        snapshot.frame_violations
    );

    // The bystander's connection and the listener both survived.
    assert_eq!(
        bystander.request(&health_request(3)).unwrap().status,
        EdgeStatus::Ok
    );
    let mut fresh = EdgeClient::connect(addr, Duration::from_secs(10)).expect("fresh client");
    assert_eq!(
        fresh.request(&health_request(4)).unwrap().status,
        EdgeStatus::Ok
    );
    gateway.shutdown();
}

#[test]
fn random_garbage_never_takes_the_gateway_down() {
    let gateway = start_gateway(hardened_config());
    let addr = gateway.local_addr();
    let good = request_frame(&health_request(9));
    let mut rng = XorShift(0xFEED_FACE_0BAD_F00D);

    for round in 0..64 {
        let bytes: Vec<u8> = if round % 2 == 0 {
            // Pure garbage of a pseudo-random length.
            let len = (rng.next() % 64 + 1) as usize;
            (0..len).map(|_| rng.next() as u8).collect()
        } else {
            // A known-good frame with one pseudo-random byte corrupted —
            // the adversary that almost speaks the protocol.
            let mut frame = good.clone();
            let idx = (rng.next() as usize) % frame.len();
            frame[idx] ^= (rng.next() as u8) | 1;
            frame
        };
        // Some corruptions (e.g. of the length prefix's low bytes, or of
        // body bytes that keep the request decodable) are not violations;
        // we only assert the gateway survives, whatever it decided.
        let mut stream = TcpStream::connect(addr).expect("raw connect");
        let _ = stream.write_all(&bytes);
        drop(stream);
    }

    // After the whole corpus: the listener accepts and answers.
    let mut client = EdgeClient::connect(addr, Duration::from_secs(10)).expect("client");
    assert_eq!(
        client.request(&health_request(10)).unwrap().status,
        EdgeStatus::Ok
    );
    gateway.shutdown();
}

#[test]
fn slow_loris_is_cut_off_without_collateral() {
    let gateway = start_gateway(hardened_config());
    let addr = gateway.local_addr();

    // The loris sends a valid header and then... nothing. It holds an
    // incomplete frame, so the idle reaper owes it a close.
    let good = request_frame(&health_request(20));
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loris.write_all(&good[..6]).expect("partial write");

    // A healthy client keeps chatting while the loris dangles.
    let mut client = EdgeClient::connect(addr, Duration::from_secs(10)).expect("client");
    assert_eq!(
        client.request(&health_request(21)).unwrap().status,
        EdgeStatus::Ok
    );

    let mut sink = [0u8; 64];
    match loris.read(&mut sink) {
        Ok(0) => {}
        other => panic!("loris connection was not closed: {other:?}"),
    }
    let snapshot = gateway.snapshot();
    assert!(
        snapshot.idle_closed >= 1,
        "idle close not counted: {snapshot:?}"
    );

    // No collateral: the patient client still works.
    assert_eq!(
        client.request(&health_request(22)).unwrap().status,
        EdgeStatus::Ok
    );
    gateway.shutdown();
}

#[test]
fn a_client_that_stops_reading_stalls_nobody_and_loses_its_connection() {
    let gateway = start_gateway(EdgeConfig::default());
    let addr = gateway.local_addr();

    // The staller pipelines `Stats` probes as fast as its socket takes them
    // and never reads one answer. The answers back up: first in the kernel's
    // buffers, then in the gateway. It stops when the gateway hangs up on it
    // (or, the bug: when the gateway stops reading and its own send buffer
    // fills).
    let staller = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("staller connect");
        stream
            .set_write_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let probe = request_frame(&EdgeRequest {
            seq: 0,
            idempotency_key: None,
            deadline_ms: 0,
            op: EdgeOp::Stats,
        });
        let burst = probe.repeat(64);
        while stream.write_all(&burst).is_ok() {}
        stream // kept open: only the gateway may end this connection
    });

    // Meanwhile a well-behaved client probes `Health`. Every round trip must
    // stay well below the 200 ms the old write path spent *per reply* on a
    // socket that does not drain (a few ms is typical; the bound leaves room
    // for a loaded machine).
    let mut client = EdgeClient::connect(addr, Duration::from_secs(10)).expect("client");
    let mut worst = Duration::ZERO;
    let mut probes = 0u64;
    while probes < 20 || !staller.is_finished() {
        let sent = Instant::now();
        let resp = client.request(&health_request(probes)).expect("health");
        worst = worst.max(sent.elapsed());
        assert_eq!(resp.status, EdgeStatus::Ok);
        probes += 1;
        assert!(probes < 100_000, "the staller was never cut off");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        worst < Duration::from_millis(100),
        "a health probe took {worst:?} beside a client that does not read"
    );

    // The staller's connection was closed by the gateway, and counted.
    let mut stalled = staller.join().expect("staller thread");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 64 * 1024];
    loop {
        match stalled.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue, // answers that made it out before the cut
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("staller connection was not closed: {e}"),
        }
    }
    assert!(gateway.snapshot().conns_closed >= 1);
    gateway.shutdown();
}

/// The `Stats` probe payload as a JSON value tree.
struct Json(serde::Value);

impl serde::Deserialize for Json {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

#[test]
fn snapshot_and_stats_probe_are_views_of_the_gateway_registry() {
    // An admission queue of zero sheds every request that is not a probe.
    let gateway = start_gateway(EdgeConfig {
        queue_capacity: 0,
        ..hardened_config()
    });
    let addr = gateway.local_addr();

    // A few requests, one shed, one frame violation and one idle close.
    let mut client = EdgeClient::connect(addr, Duration::from_secs(10)).expect("client");
    for seq in 1..=3 {
        assert_eq!(
            client.request(&health_request(seq)).unwrap().status,
            EdgeStatus::Ok
        );
    }
    let shed = client
        .request(&EdgeRequest {
            op: EdgeOp::Publish {
                topic: 7,
                payload: vec![1, 2, 3],
            },
            ..health_request(4)
        })
        .unwrap();
    assert_eq!(shed.status, EdgeStatus::Overloaded);
    let good = request_frame(&health_request(5));
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    expect_closed_after(addr, &bad_magic);
    expect_closed_after(addr, &good[..6]);
    // A connection counts as closed just after its socket is.
    let deadline = Instant::now() + Duration::from_secs(5);
    while gateway.snapshot().conns_closed < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Every numeric field of the view is the registry's `edge.<field>`.
    let snapshot = gateway.snapshot();
    let metrics = gateway.registry().snapshot();
    let fields = [
        ("requests", snapshot.requests, 4),
        ("ok", snapshot.ok, 3),
        ("shed", snapshot.shed, 1),
        ("unavailable", snapshot.unavailable, 0),
        ("deadline_exceeded", snapshot.deadline_exceeded, 0),
        ("bad_request", snapshot.bad_request, 0),
        ("shutting_down", snapshot.shutting_down, 0),
        ("dedup_hits", snapshot.dedup_hits, 0),
        ("breaker_opened", snapshot.breaker_opened, 0),
        ("breaker_half_opened", snapshot.breaker_half_opened, 0),
        ("breaker_closed", snapshot.breaker_closed, 0),
        ("breaker_full_cycles", snapshot.breaker_full_cycles, 0),
        ("conns_accepted", snapshot.conns_accepted, 3),
        ("conns_closed", snapshot.conns_closed, 2),
        ("frame_violations", snapshot.frame_violations, 1),
        ("idle_closed", snapshot.idle_closed, 1),
    ];
    for (field, viewed, expected) in fields {
        let name = format!("edge.{field}");
        assert!(metrics.metrics.contains_key(&name), "{name} not registered");
        assert_eq!(metrics.value(&name), viewed, "{name} differs from the view");
        assert_eq!(viewed, expected, "{name}");
    }
    assert!(
        metrics.scope.starts_with("edge:"),
        "scope {:?}",
        metrics.scope
    );
    assert!(atum::obs::global()
        .snapshot()
        .metrics
        .keys()
        .all(|name| !name.starts_with("edge.") && !name.starts_with("net.")));

    // The `Stats` probe answers the same registry as JSON, plus the
    // gateway's state.
    let stats = client
        .request(&EdgeRequest {
            op: EdgeOp::Stats,
            ..health_request(6)
        })
        .unwrap();
    assert_eq!(stats.status, EdgeStatus::Ok);
    let Json(payload) = serde_json::from_slice(&stats.payload).expect("Stats payload is JSON");
    let top = payload.as_map().expect("a JSON object");
    assert_eq!(
        serde::field(top, "scope").unwrap().as_str(),
        Some(metrics.scope.as_str())
    );
    assert_eq!(
        serde::field(top, "ready").unwrap(),
        &serde::Value::Bool(true)
    );
    assert_eq!(
        serde::field(top, "outstanding").unwrap(),
        &serde::Value::U64(0)
    );
    assert!(serde::field(top, "breakers").unwrap().as_map().is_some());
    let reported = serde::field(top, "metrics").unwrap().as_map().unwrap();
    for (field, viewed, _) in fields {
        let value = serde::field(reported, &format!("edge.{field}")).unwrap();
        // The probe counts itself as a request before it answers.
        let expected = viewed + u64::from(field == "requests");
        assert_eq!(value, &serde::Value::U64(expected), "edge.{field}");
    }
    for name in ["edge.latency_us", "edge.writes", "edge.bytes_sent"] {
        assert!(serde::field(reported, name).is_ok(), "{name} not reported");
    }
    gateway.shutdown();
}
