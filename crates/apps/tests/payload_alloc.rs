//! Pins, with a counting global allocator, that decoding an application
//! payload never allocates more than the bytes it was given — so a length
//! prefix claiming gigabytes costs a hostile peer its own bandwidth and the
//! receiver nothing — and that the edge mapping encodes a publish into one
//! buffer.
//!
//! The allocator counters are process-global, so this file holds exactly one
//! `#[test]` — a second test thread would pollute the measurement.

use atum_apps::ashare::Announce;
use atum_apps::astream::DigestAnnounce;
use atum_apps::edge::{broadcast_payload, decode_broadcast};
use atum_apps::{AShareApp, AShareConfig, AStreamApp, AStreamConfig, AsubEvent};
use atum_core::{AppCtx, Application};
use atum_crypto::Digest;
use atum_types::{EdgeOp, Instant, NodeId, TopicId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn charge(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LARGEST.fetch_max(size as u64, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; the counters have no effect on layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What one call of `f` asked the allocator for.
#[derive(Debug, Clone, Copy)]
struct Charged {
    calls: u64,
    bytes: u64,
    largest: u64,
}

/// Runs `f` a few times and keeps the cheapest trial, so a one-off allocation
/// elsewhere in the process (the test harness's waiter thread) cannot produce
/// a false positive.
fn charged<F: FnMut()>(mut f: F) -> Charged {
    (0..3)
        .map(|_| {
            LARGEST.store(0, Ordering::Relaxed);
            let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
            f();
            Charged {
                calls: CALLS.load(Ordering::Relaxed) - calls,
                bytes: BYTES.load(Ordering::Relaxed) - bytes,
                largest: LARGEST.load(Ordering::Relaxed),
            }
        })
        .min_by_key(|c| c.bytes)
        .expect("three trials")
}

/// A deterministic byte stream, enough to scribble with.
fn noise(seed: &[u8], len: usize) -> Vec<u8> {
    (0u32..)
        .flat_map(|block| *Digest::of_parts(&[seed, &block.to_le_bytes()]).as_bytes())
        .take(len)
        .collect()
}

/// Valid encodings of every payload type, each also with a length prefix
/// overwritten by `u32::MAX`, plus noise behind every (kind, tag) pair.
fn hostile_inputs() -> Vec<Vec<u8>> {
    let owner = NodeId::new(1);
    let name = "some/file.bin".to_string();
    let digests: Vec<Digest> = (0..6u8).map(|c| Digest::of(&[c])).collect();
    let mut ctx = AppCtx::new(Instant::ZERO, owner);
    let mut share = AShareApp::new(AShareConfig {
        chunks_per_file: 2,
        ..AShareConfig::default()
    });
    // The point-to-point message types are private; their encodings are
    // whatever the apps queue: a `GetChunk`, and the `ChunkData` answering it.
    let meta = share.put(&name, 4096, &mut ctx);
    let mut reader = AShareApp::new(AShareConfig::default());
    reader.seed_file(meta);
    let mut reader_ctx = AppCtx::new(Instant::ZERO, NodeId::new(2));
    assert!(reader.get(owner, &name, false, &mut reader_ctx));
    let get_chunk = reader_ctx.queued_app_messages()[0].1.clone();
    share.on_app_message(NodeId::new(2), &get_chunk, &mut ctx);
    let chunk_data = ctx.queued_app_messages()[0].1.clone();
    let mut source = AStreamApp::new(
        1,
        AStreamConfig {
            children: vec![NodeId::new(3)],
            is_source: true,
            ..AStreamConfig::default()
        },
    );
    let mut stream_ctx = AppCtx::new(Instant::ZERO, owner);
    source.publish_chunk(0, &mut stream_ctx);

    let valid = vec![
        AsubEvent {
            topic: TopicId::new(9),
            data: noise(b"event", 300),
        }
        .encode(),
        Announce::Put {
            owner,
            name: name.clone(),
            size: 4096,
            digests,
        }
        .encode(),
        Announce::Replica {
            owner,
            name,
            holder: NodeId::new(4),
        }
        .encode(),
        get_chunk,
        chunk_data,
        DigestAnnounce {
            index: 3,
            digest: Digest::of(b"chunk"),
        }
        .encode(),
        stream_ctx.queued_broadcasts()[0].clone(),
        stream_ctx.queued_app_messages()[0].1.clone(),
    ];

    let mut inputs = valid.clone();
    for bytes in &valid {
        // Every aligned-or-not window of four bytes is a candidate length
        // prefix; claim four gigabytes at each.
        for at in 0..bytes.len().saturating_sub(4) {
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            inputs.push(hostile);
        }
    }
    for kind in 0..8u8 {
        for tag in 0..4u8 {
            let mut framed = vec![kind, tag];
            framed.extend(noise(&[kind, tag], 120));
            inputs.push(framed);
        }
    }
    inputs
}

#[test]
fn decoding_never_allocates_past_its_input_and_encoding_allocates_once() {
    let inputs = hostile_inputs();
    let mut share = AShareApp::new(AShareConfig::default());
    let mut stream = AStreamApp::new(1, AStreamConfig::default());
    let mut ctx = AppCtx::new(Instant::ZERO, NodeId::new(7));
    let from = NodeId::new(8);

    // The three public decoders and the edge mapping's.
    let decoders: [fn(&[u8]) -> bool; 4] = [
        |b| AsubEvent::decode(b).is_some(),
        |b| Announce::decode(b).is_some(),
        |b| DigestAnnounce::decode(b).is_some(),
        |b| decode_broadcast(b).is_some(),
    ];
    let mut accepted = 0;
    for bytes in &inputs {
        let len = bytes.len() as u64;
        // Everything a decode allocates is a copy of input bytes.
        for decode in decoders {
            let direct = charged(|| accepted += usize::from(decode(bytes)));
            assert!(direct.bytes <= len, "{len} bytes: {direct:?}");
        }
        // The private transfer and stream messages, through the only door a
        // peer's bytes have. A decoded message goes on into the handler,
        // which may clone a name to look it up, so the bound here is on the
        // largest single request.
        let routed = charged(|| {
            share.on_app_message(from, bytes, &mut ctx);
            stream.on_app_message(from, bytes, &mut ctx);
        });
        assert!(routed.largest <= len, "{len} bytes: {routed:?}");
    }
    assert!(accepted > 0, "the valid encodings are among the inputs");
    assert!(ctx.queued_app_messages().is_empty() && ctx.queued_broadcasts().is_empty());

    // Encoding a publish: one buffer, sized exactly, no temporary event.
    let publish = EdgeOp::Publish {
        topic: 1,
        payload: noise(b"publish", 1024),
    };
    let mut encoded_len = 0;
    let encode = charged(|| {
        encoded_len = broadcast_payload(&publish)
            .expect("publish broadcasts")
            .len() as u64;
    });
    assert_eq!((encode.calls, encode.bytes), (1, encoded_len));
}
