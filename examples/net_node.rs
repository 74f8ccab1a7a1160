//! Cross-process interop proof for the TCP runtime: two OS processes, each
//! hosting one Atum node over real sockets, form a system and exchange an
//! application broadcast.
//!
//! ```text
//! # Terminal 1 — bootstrap a system and wait for a joiner:
//! cargo run --release --example net_node -- listen --id 0 --port 7100
//!
//! # Terminal 2 — join through the bootstrap node and broadcast:
//! cargo run --release --example net_node -- join --id 1 --port 7101 \
//!     --contact 0=127.0.0.1:7100
//!
//! # Or let the example drive both processes itself:
//! cargo run --release --example net_node -- demo
//! ```
//!
//! The listener process exits 0 once the joiner is a member of its vgroup
//! and the joiner's broadcast was delivered; the joiner exits 0 once it has
//! joined and delivered its own broadcast. `demo` spawns both roles as
//! child processes of the current binary (ephemeral ports, no
//! configuration) and fails loudly if either side stalls.

use atum::core::{AtumNode, CollectingApp};
use atum::crypto::KeyRegistry;
use atum::net::{AddressBook, NetRuntime, NodeHandle, RuntimeConfig};
use atum::types::{Duration, NodeId, Params};
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration as StdDuration, Instant as StdInstant};

fn params() -> Params {
    Params::default()
        .with_round(Duration::from_millis(100))
        .with_group_bounds(1, 8)
        .with_overlay(2, 4)
        .with_failure_detection(Duration::from_secs(5), 3)
}

/// Both processes must derive the same key material: the registry stands in
/// for the PKI the paper assumes is established out of band.
fn registry() -> std::sync::Arc<KeyRegistry> {
    let mut registry = KeyRegistry::new();
    for i in 0..8u64 {
        registry.register(NodeId::new(i), 7);
    }
    registry.shared()
}

struct Args {
    id: u64,
    port: u16,
    contacts: Vec<(NodeId, SocketAddr)>,
}

fn parse_args(mut rest: std::env::Args) -> Args {
    let mut args = Args {
        id: 0,
        port: 0,
        contacts: Vec::new(),
    };
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().expect("flag value");
        match flag.as_str() {
            "--id" => args.id = value().parse().expect("numeric --id"),
            "--port" => args.port = value().parse().expect("numeric --port"),
            "--contact" => {
                let spec = value();
                let (id, addr) = spec.split_once('=').expect("--contact id=host:port");
                args.contacts.push((
                    NodeId::new(id.parse().expect("numeric contact id")),
                    addr.parse().expect("contact socket address"),
                ));
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

type Runtime = NetRuntime<atum::core::AtumMessage, AtumNode<CollectingApp>>;
type Handle = NodeHandle<atum::core::AtumMessage, AtumNode<CollectingApp>>;

fn spawn_node(args: &Args) -> (Runtime, Handle) {
    let book = AddressBook::new();
    for &(id, addr) in &args.contacts {
        book.register(id, addr);
    }
    let id = NodeId::new(args.id);
    let node = AtumNode::new(id, params(), registry(), CollectingApp::new());
    let bind: SocketAddr = format!("127.0.0.1:{}", args.port).parse().unwrap();
    let runtime = Runtime::bind(RuntimeConfig {
        listen: bind,
        book,
        ..RuntimeConfig::default()
    })
    .expect("bind listener");
    let handle = runtime.host(id, node);
    // The demo parent scrapes this line for the ephemeral port.
    println!("LISTENING {}", handle.addr());
    (runtime, handle)
}

fn wait_until(timeout: StdDuration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = StdInstant::now() + timeout;
    while StdInstant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(100));
    }
    pred()
}

fn run_listen(args: Args) -> i32 {
    let (runtime, handle) = spawn_node(&args);
    handle.call(|n, ctx| n.bootstrap(ctx).expect("bootstrap"));
    println!("bootstrapped; waiting for a joiner and its broadcast");
    let ok = wait_until(StdDuration::from_secs(60), || {
        handle
            .with_node(|n| {
                let joined = n
                    .member()
                    .map(|m| m.config().composition.len() >= 2)
                    .unwrap_or(false);
                let delivered = !n.app().delivered_payloads().is_empty();
                joined && delivered
            })
            .unwrap_or(false)
    });
    let payloads = handle
        .with_node(|n| n.app().delivered_payloads().to_vec())
        .unwrap_or_default();
    for p in &payloads {
        println!("delivered: {}", String::from_utf8_lossy(p));
    }
    runtime.shutdown();
    if ok {
        println!("OK: joiner admitted and broadcast delivered across processes");
        0
    } else {
        eprintln!("FAIL: no joiner broadcast within the timeout");
        1
    }
}

fn run_join(args: Args) -> i32 {
    let contact = args.contacts.first().expect("join needs --contact").0;
    let (runtime, handle) = spawn_node(&args);
    handle.call(move |n, ctx| {
        n.join(contact, ctx).expect("join");
    });
    let joined = wait_until(StdDuration::from_secs(30), || {
        handle.with_node(|n| n.is_member()).unwrap_or(false)
    });
    if !joined {
        eprintln!("FAIL: never became a member");
        runtime.shutdown();
        return 1;
    }
    println!("joined; broadcasting");
    let hello = format!("hello-from-n{}", args.id).into_bytes();
    let sent = hello.clone();
    handle.call(move |n, ctx| {
        n.broadcast(sent, ctx).expect("broadcast");
    });
    // A broadcast is delivered locally once the vgroup decided it — which
    // over two processes means the SMR slot crossed the sockets and back.
    let ok = wait_until(StdDuration::from_secs(30), move || {
        handle
            .with_node({
                let hello = hello.clone();
                move |n| n.app().delivered_payloads().contains(&hello)
            })
            .unwrap_or(false)
    });
    runtime.shutdown();
    if ok {
        println!("OK: joined and delivered own broadcast via the vgroup");
        0
    } else {
        eprintln!("FAIL: broadcast never decided");
        1
    }
}

fn run_demo() -> i32 {
    let exe = std::env::current_exe().expect("current exe");
    let mut listener = Command::new(&exe)
        .args(["listen", "--id", "0", "--port", "0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn listener process");
    // Scrape the listener's ephemeral address from its first output line.
    let mut lines =
        std::io::BufReader::new(listener.stdout.take().expect("listener stdout")).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("listener exited before announcing its port")
            .expect("read listener stdout");
        println!("[listener] {line}");
        if let Some(addr) = line.strip_prefix("LISTENING ") {
            break addr.to_string();
        }
    };

    let joiner = Command::new(&exe)
        .args([
            "join",
            "--id",
            "1",
            "--port",
            "0",
            "--contact",
            &format!("0={addr}"),
        ])
        .status()
        .expect("run joiner process");

    // Drain the listener's remaining output, then collect its verdict.
    for line in lines {
        println!("[listener] {}", line.expect("read listener stdout"));
    }
    let listener = listener.wait().expect("await listener process");
    let ok = joiner.success() && listener.success();
    println!(
        "demo: joiner {joiner}, listener {listener} => {}",
        if ok { "OK" } else { "FAIL" }
    );
    i32::from(!ok)
}

fn main() {
    let mut args = std::env::args();
    let _exe = args.next();
    let role = args.next().unwrap_or_else(|| "demo".to_string());
    let code = match role.as_str() {
        "listen" => run_listen(parse_args(args)),
        "join" => run_join(parse_args(args)),
        "demo" => run_demo(),
        other => {
            eprintln!("unknown role {other}; use listen | join | demo");
            2
        }
    };
    std::process::exit(code);
}
