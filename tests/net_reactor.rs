//! Torture tests for the reactor runtime: misbehaving peers, mid-frame
//! disconnects, half-open sockets, shutdown draining, address retargeting,
//! messages for nodes the runtime does not (or no longer) host, and the
//! per-pair ordering guarantee when one reactor multiplexes many nodes.
//!
//! The peers here are mostly *raw* sockets driven by the test itself — the
//! point is to poke the reactor from outside the friendly codepaths.

use atum::net::frame::{self, Hello, Route};
use atum::net::{NetCluster, NetClusterBuilder, NetRuntime, RuntimeConfig};
use atum::simnet::{Context, Node};
use atum::types::wire::{self, FRAME_KIND_HELLO, FRAME_KIND_MESSAGE, FRAME_KIND_ROUTE};
use atum::types::NodeId;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A node that records every message with its sender.
#[derive(Default)]
struct Recorder {
    seen: Vec<(NodeId, u64)>,
}

impl Node<u64> for Recorder {
    fn on_message(&mut self, from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
        self.seen.push((from, msg));
    }
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, u64>) {}
}

/// A node that only sends (driven via `call`); messages are raw payloads.
struct Blaster;

impl Node<Vec<u8>> for Blaster {
    fn on_message(&mut self, _from: NodeId, _msg: Vec<u8>, _ctx: &mut Context<'_, Vec<u8>>) {}
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, Vec<u8>>) {}
}

fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    pred()
}

/// Sends a valid hello + one routed message on a raw socket.
fn send_routed(stream: &mut TcpStream, from: u64, to: u64, msg: u64) {
    stream
        .write_all(&frame::encode_frame(
            FRAME_KIND_HELLO,
            &Hello {
                node: NodeId::new(from),
                listen_port: 1,
            },
        ))
        .unwrap();
    stream
        .write_all(&frame::route_frame(Route {
            from: NodeId::new(from),
            to: NodeId::new(to),
        }))
        .unwrap();
    stream
        .write_all(&frame::frame_bytes(
            FRAME_KIND_MESSAGE,
            &wire::encode_to_vec(&msg),
        ))
        .unwrap();
    stream.flush().unwrap();
}

/// Reads route/message pairs off a raw stream until EOF/timeout, returning
/// the sequence numbers carried in the first 8 bytes of each payload.
fn read_seqs(stream: TcpStream, expect_from: NodeId, pause: Duration) -> Vec<u64> {
    let mut reader = std::io::BufReader::new(stream);
    let hello: Hello = frame::read_decoded(&mut reader, FRAME_KIND_HELLO).unwrap();
    assert_eq!(hello.node, expect_from);
    let mut seqs = Vec::new();
    let mut body = Vec::new();
    loop {
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        match frame::read_frame_into(&mut reader, &frame::NODE_KINDS, &mut body) {
            Ok(kind) if kind == FRAME_KIND_ROUTE => {
                let route: Route = wire::decode_exact(&body).unwrap();
                assert_eq!(route.from, expect_from);
            }
            Ok(kind) => {
                assert_eq!(kind, FRAME_KIND_MESSAGE);
                let payload: Vec<u8> = wire::decode_exact(&body).unwrap();
                seqs.push(u64::from_le_bytes(payload[..8].try_into().unwrap()));
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                panic!("unexpected frame error: {e}")
            }
            Err(_) => break, // EOF or read timeout
        }
    }
    seqs
}

fn numbered_payload(seq: u64, len: usize) -> Vec<u8> {
    let mut payload = vec![0u8; len];
    payload[..8].copy_from_slice(&seq.to_le_bytes());
    payload
}

#[test]
fn mid_frame_disconnect_is_harmless() {
    let runtime: NetRuntime<u64, Recorder> = NetRuntime::bind(RuntimeConfig::default()).unwrap();
    let node = runtime.host(NodeId::new(0), Recorder::default());

    // A peer delivers one full message, starts a second frame, and vanishes
    // mid-header; another starts a message *body* and vanishes mid-body.
    {
        let mut s = TcpStream::connect(node.addr()).unwrap();
        send_routed(&mut s, 7, 0, 1);
        s.write_all(&[0x41, 0x54]).unwrap(); // half a frame header
        s.flush().unwrap();
    } // dropped: FIN mid-frame
    {
        let mut s = TcpStream::connect(node.addr()).unwrap();
        send_routed(&mut s, 8, 0, 2);
        s.write_all(&frame::route_frame(Route {
            from: NodeId::new(8),
            to: NodeId::new(0),
        }))
        .unwrap();
        let full = frame::frame_bytes(FRAME_KIND_MESSAGE, &wire::encode_to_vec(&999u64));
        s.write_all(&full[..full.len() - 3]).unwrap(); // truncated body
        s.flush().unwrap();
    }

    // Both complete messages arrived; the truncated ones never did, the
    // reactor never counted them as protocol errors (EOF is not garbage),
    // and the node keeps serving fresh connections.
    assert!(wait_until(Duration::from_secs(5), || {
        node.with_node(|n| n.seen.len()).unwrap_or(0) == 2
    }));
    let mut s = TcpStream::connect(node.addr()).unwrap();
    send_routed(&mut s, 9, 0, 3);
    assert!(wait_until(Duration::from_secs(5), || {
        node.with_node(|n| n.seen.contains(&(NodeId::new(9), 3)))
            .unwrap_or(false)
    }));
    assert_eq!(runtime.stats().decode_errors, 0);
    runtime.shutdown();
}

#[test]
fn half_open_sockets_do_not_wedge_the_reactor() {
    let runtime: NetRuntime<u64, Recorder> = NetRuntime::bind(RuntimeConfig::default()).unwrap();
    let node = runtime.host(NodeId::new(0), Recorder::default());

    // A swarm of connections that say hello and then go silent forever —
    // under the old thread-per-connection runtime each of these pinned a
    // blocked reader thread; the reactor just keeps them registered.
    let mut lurkers = Vec::new();
    for i in 0..32u64 {
        let mut s = TcpStream::connect(node.addr()).unwrap();
        s.write_all(&frame::encode_frame(
            FRAME_KIND_HELLO,
            &Hello {
                node: NodeId::new(100 + i),
                listen_port: 1,
            },
        ))
        .unwrap();
        lurkers.push(s); // kept open, never written again
    }
    // And one connection that never even says hello.
    let mute = TcpStream::connect(node.addr()).unwrap();

    // Real traffic still flows, on one thread, with no errors.
    let mut s = TcpStream::connect(node.addr()).unwrap();
    send_routed(&mut s, 50, 0, 42);
    assert!(wait_until(Duration::from_secs(5), || {
        node.with_node(|n| n.seen.contains(&(NodeId::new(50), 42)))
            .unwrap_or(false)
    }));
    assert_eq!(runtime.stats().threads, 1);
    assert_eq!(runtime.stats().decode_errors, 0);
    drop(lurkers);
    drop(mute);
    runtime.shutdown();
}

#[test]
fn shutdown_drains_queued_frames_to_a_slow_reader() {
    let runtime: NetRuntime<Vec<u8>, Blaster> = NetRuntime::bind(RuntimeConfig {
        queue_capacity: 4096,
        drain_timeout: Duration::from_secs(60),
        ..RuntimeConfig::default()
    })
    .unwrap();
    let node = runtime.host(NodeId::new(0), Blaster);

    // A slow raw peer that far exceeds the socket buffers, so real queue
    // content exists at shutdown time.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    runtime
        .book()
        .register(NodeId::new(9), listener.local_addr().unwrap());

    const K: u64 = 48;
    const PAYLOAD: usize = 256 * 1024;
    node.call(|_n, ctx| {
        for i in 0..K {
            ctx.send(NodeId::new(9), numbered_payload(i, PAYLOAD));
        }
    });
    let (stream, _) = listener.accept().unwrap();
    let reader = std::thread::spawn(move || read_seqs(stream, NodeId::new(0), Duration::ZERO));

    // Give the burst a moment to queue, then shut down: the drain phase
    // must flush everything before sockets close.
    std::thread::sleep(Duration::from_millis(300));
    runtime.shutdown();
    assert_eq!(
        node.stats().frames_dropped,
        0,
        "drain gave up on queued frames"
    );
    let got = reader.join().unwrap();
    assert_eq!(
        got,
        (0..K).collect::<Vec<_>>(),
        "drain lost or reordered frames"
    );
}

#[test]
fn reregistration_retargets_queued_frames_to_the_new_address() {
    let runtime: NetRuntime<Vec<u8>, Blaster> = NetRuntime::bind(RuntimeConfig {
        queue_capacity: 4096,
        drain_timeout: Duration::from_secs(60),
        ..RuntimeConfig::default()
    })
    .unwrap();
    let node = runtime.host(NodeId::new(0), Blaster);

    // Peer 9 first lives on a listener that accepts but never reads: the
    // socket buffers fill and the queue backs up.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap();
    runtime
        .book()
        .register(NodeId::new(9), dead.local_addr().unwrap());
    const K: u64 = 48;
    const PAYLOAD: usize = 256 * 1024;
    node.call(|_n, ctx| {
        for i in 0..K {
            ctx.send(NodeId::new(9), numbered_payload(i, PAYLOAD));
        }
    });
    let (_stuck, _) = dead.accept().unwrap();
    std::thread::sleep(Duration::from_millis(400));

    // Peer 9 "moves": a live listener, re-registered in the shared book.
    let live = TcpListener::bind("127.0.0.1:0").unwrap();
    runtime
        .book()
        .register(NodeId::new(9), live.local_addr().unwrap());

    // The queued frames migrate to the new connection. The batch already
    // staged on the old socket stays there (at-least-once, not
    // exactly-once, across a retarget), so the new stream is a strictly
    // increasing *suffix* ending at the last sequence number.
    let (stream, _) = live.accept().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let got = read_seqs(stream, NodeId::new(0), Duration::ZERO);
    assert!(!got.is_empty(), "nothing migrated to the new address");
    assert!(
        got.windows(2).all(|w| w[0] < w[1]),
        "migrated frames out of order: {got:?}"
    );
    assert_eq!(got.last(), Some(&(K - 1)), "the tail never migrated");
    runtime.shutdown();
}

#[test]
fn frames_for_unhosted_or_removed_nodes_are_dropped_and_counted() {
    let runtime: NetRuntime<u64, Recorder> = NetRuntime::bind(RuntimeConfig::default()).unwrap();
    let kept = runtime.host(NodeId::new(0), Recorder::default());
    let removed = runtime.host(NodeId::new(1), Recorder::default());
    // Each message on its own connection: a second hello on one stream is
    // a protocol violation.
    let send =
        |to: u64, msg: u64| send_routed(&mut TcpStream::connect(kept.addr()).unwrap(), 9, to, msg);

    // Node 1 is live until removed.
    send(1, 5);
    assert!(wait_until(Duration::from_secs(5), || {
        removed.with_node(|n| n.seen.clone()).unwrap_or_default() == vec![(NodeId::new(9), 5)]
    }));
    removed.clone().shutdown();
    // A call queued behind the removal returns only once it was drained.
    assert!(kept.with_node(|_| ()).is_some());
    assert!(runtime.handle(NodeId::new(1)).is_none());
    let asked = Instant::now();
    assert!(removed.with_node(|n| n.seen.len()).is_none());
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "a call to a removed node waited {:?} for its timeout",
        asked.elapsed()
    );

    // One message to an id never hosted, one to the removed node, one to
    // the node that is still here.
    send(42, 1);
    send(1, 2);
    send(0, 3);
    assert!(wait_until(Duration::from_secs(5), || {
        runtime.stats().frames_dropped == 2 && kept.with_node(|n| n.seen.len()).unwrap_or(0) == 1
    }));
    assert_eq!(
        kept.with_node(|n| n.seen.clone()).unwrap(),
        vec![(NodeId::new(9), 3)]
    );
    let stats = runtime.stats();
    assert_eq!(stats.frames_received, 4, "every message decoded");
    assert_eq!(
        stats.frames_dropped, 2,
        "both misaddressed messages counted"
    );
    assert_eq!(stats.decode_errors, 0);
    runtime.shutdown();
}

/// A node that sends a numbered stream to every configured peer (itself
/// included) when poked, and records what it receives per sender.
struct PairSender {
    peers: Vec<NodeId>,
    per_peer: u64,
    seen: BTreeMap<NodeId, Vec<u64>>,
}

impl Node<u64> for PairSender {
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
        if msg == u64::MAX {
            // The "go" poke: emit the full stream to every peer.
            for round in 0..self.per_peer {
                for &peer in &self.peers {
                    ctx.send(peer, round);
                }
            }
            return;
        }
        self.seen.entry(from).or_default().push(msg);
    }
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, u64>) {}
}

#[test]
fn one_reactor_many_nodes_delivers_exactly_once_in_order_per_pair() {
    const N: u64 = 8;
    const PER_PEER: u64 = 50;
    let runtime: NetRuntime<u64, PairSender> = NetRuntime::bind(RuntimeConfig {
        queue_capacity: 65536,
        ..RuntimeConfig::default()
    })
    .unwrap();
    let peers: Vec<NodeId> = (0..N).map(NodeId::new).collect();
    let handles: Vec<_> = peers
        .iter()
        .map(|&id| {
            runtime.host(
                id,
                PairSender {
                    peers: peers.clone(),
                    per_peer: PER_PEER,
                    seen: BTreeMap::new(),
                },
            )
        })
        .collect();
    assert_eq!(runtime.stats().threads, 1);

    // A second runtime in the same process, hosting one node and otherwise
    // idle: every metric is attributed to the runtime that observed it, so
    // the traffic below must not show up here.
    let bystander: NetRuntime<u64, PairSender> =
        NetRuntime::bind(RuntimeConfig::default()).unwrap();
    let idle = bystander.host(
        NodeId::new(100),
        PairSender {
            peers: Vec::new(),
            per_peer: 0,
            seen: BTreeMap::new(),
        },
    );
    assert!(idle.with_node(|_| ()).is_some(), "bystander never started");
    let (idle_before, idle_since) = (bystander.registry().snapshot(), Instant::now());
    let busy_before = runtime.stats();

    // Poke every node: N×N streams (self-sends included) over one reactor.
    for h in &handles {
        let me = h.id();
        h.call(move |_n, ctx| ctx.send(me, u64::MAX));
    }

    let expect: Vec<u64> = (0..PER_PEER).collect();
    assert!(
        wait_until(Duration::from_secs(60), || {
            handles.iter().all(|h| {
                h.with_node(|n| {
                    n.seen.len() == N as usize
                        && n.seen.values().all(|v| v.len() == PER_PEER as usize)
                })
                .unwrap_or(false)
            })
        }),
        "pairwise streams incomplete: {:?}",
        handles
            .iter()
            .map(|h| {
                h.with_node(|n| {
                    n.seen
                        .iter()
                        .map(|(k, v)| (*k, v.len()))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default()
            })
            .collect::<Vec<_>>()
    );
    // Exactly once, in order, for every ordered pair — including X→X.
    for h in &handles {
        let seen = h.with_node(|n| n.seen.clone()).unwrap();
        assert_eq!(seen.len(), N as usize);
        for (&from, stream) in &seen {
            assert_eq!(
                stream,
                &expect,
                "stream {from:?} → {:?} is not exactly-once-in-order",
                h.id()
            );
        }
    }
    let busy = runtime.stats();
    assert_eq!(busy.frames_dropped, 0);
    assert_eq!(busy.decode_errors, 0);

    // The busy runtime's reactor histograms saw the traffic; the view's
    // sums are the histograms' own.
    let busy_metrics = runtime.registry().snapshot();
    let batches = busy_metrics.histogram("net.dispatch_batch");
    assert_eq!(
        (busy.dispatch_batches, busy.dispatch_batch_events),
        (batches.total, batches.sum)
    );
    assert_eq!(
        busy.poll_waits,
        busy_metrics.histogram("net.poll_wait_us").total
    );
    assert!(busy.dispatch_batches > busy_before.dispatch_batches);
    assert!(busy.frames_sent >= busy_before.frames_sent + N * (N - 1) * PER_PEER);

    // The bystander's did not. Every counter and gauge reads as before; its
    // reactor only kept waking from idle polls (one per 200 ms, dispatching
    // nothing) and may have seen the one wake-up its injector still owed it
    // when the snapshot was taken.
    let idle_ticks = idle_since.elapsed().as_millis() as u64 / 200 + 2;
    let idle_after = bystander.registry().snapshot();
    for (name, before) in &idle_before.metrics {
        let grew = idle_after.histogram(name).total - idle_before.histogram(name).total;
        match name.as_str() {
            "net.poll_wait_us" => assert!(grew <= idle_ticks, "{grew} polls while idle"),
            "net.dispatch_batch" => assert!(grew <= 1, "{grew} dispatch batches while idle"),
            _ => assert_eq!(idle_after.metrics.get(name), Some(before), "{name}"),
        }
    }
    assert_eq!(idle_after.metrics.len(), idle_before.metrics.len());
    assert_ne!(idle_after.scope, busy_metrics.scope);
    runtime.shutdown();
    bystander.shutdown();
}

/// 256 nodes running the real join protocol in debug mode. Ignored in the
/// tier-1 suite (it needs minutes on a small machine); CI exercises the
/// same path at larger scale in release via `bench_net --scale-only
/// --reduced`. Run explicitly with `cargo test --test net_reactor --
/// --ignored`.
#[test]
#[ignore = "slow in debug; the net-scale-smoke CI job covers it in release"]
fn two_hundred_fifty_six_nodes_join_over_sockets() {
    use atum::core::CollectingApp;
    use atum::types::{Duration as AtumDuration, Params};
    let params = Params::default()
        .with_round(AtumDuration::from_millis(250))
        .with_group_bounds(4, 16)
        .with_overlay(2, 4)
        .with_failure_detection(AtumDuration::from_secs(20), 5);
    let cluster: NetCluster<CollectingApp> = NetClusterBuilder::new(192, 64)
        .params(params)
        .seed(3)
        .build(|_| CollectingApp::new());
    for (i, &joiner) in cluster.joiners.clone().iter().enumerate() {
        cluster.join(joiner, NodeId::new((i % 192) as u64));
        std::thread::sleep(Duration::from_millis(50));
    }
    let members = cluster.wait_for_members(256, Duration::from_secs(600));
    assert!(
        members >= 243,
        "only {members}/256 joined; stats: {:?}",
        cluster.stats()
    );
    cluster.shutdown();
}
