//! Figure 4: configuration guideline — the shortest random-walk length whose
//! endpoint distribution is indistinguishable from uniform (Pearson χ²,
//! confidence 0.99) for each overlay density `hc` and number of vgroups.

#![forbid(unsafe_code)]

use atum_bench::{print_header, scaled, BenchRecord};
use atum_overlay::{simulate_walk_hits, HGraph};
use atum_sim::is_uniform_99;
use atum_types::VgroupId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn optimal_rwl(vgroups: usize, hc: u8, walks_per_group: usize, seed: u64) -> u8 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vertices: Vec<VgroupId> = (0..vgroups as u64).map(VgroupId::new).collect();
    let graph = HGraph::random(&vertices, hc, &mut rng);
    let walks = walks_per_group * vgroups;
    for rwl in 4..=15u8 {
        let hits = simulate_walk_hits(&graph, VgroupId::new(0), rwl, walks, &mut rng);
        let counts: Vec<u64> = hits.values().copied().collect();
        if is_uniform_99(&counts) {
            return rwl;
        }
    }
    15
}

fn main() {
    atum_bench::init_obs();
    print_header(
        "Figure 4",
        "optimal random-walk length (rwl) per H-graph density (hc) and number of vgroups",
    );
    let vgroup_counts: Vec<usize> = if atum_bench::full_scale() {
        vec![8, 32, 128, 512, 2048, 8192]
    } else {
        vec![8, 32, 128, 512]
    };
    let walks_per_group = scaled(30, 60);
    let hcs: Vec<u8> = vec![2, 4, 6, 8, 10, 12];

    print!("{:>10}", "vgroups\\hc");
    for hc in &hcs {
        print!("{hc:>6}");
    }
    println!();
    for &v in &vgroup_counts {
        print!("{v:>10}");
        for &hc in &hcs {
            let seed = 1000 + v as u64 + hc as u64;
            let wall_start = std::time::Instant::now();
            let rwl = optimal_rwl(v, hc, walks_per_group, seed);
            print!("{rwl:>6}");
            atum_bench::emit(
                &BenchRecord::new("fig04", seed)
                    .param("vgroups", v)
                    .param("hc", hc)
                    .param("walks_per_group", walks_per_group)
                    .metric("rwl", rwl)
                    // Graph-level walks, no discrete-event simulation behind
                    // this figure: wall clock only.
                    .perf(wall_start.elapsed(), None),
            );
        }
        println!();
    }
    println!();
    println!("Paper anchor points: ~128 vgroups at hc=6 -> rwl 9; ~120 vgroups at hc=5 -> rwl 10.");
}
