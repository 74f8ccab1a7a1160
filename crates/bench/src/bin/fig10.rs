//! Figure 10: impact of Byzantine (replica-corrupting) nodes on AShare read
//! latency, in a 50-node system with 500 files and rho = 8 (7 Byzantine nodes).

#![forbid(unsafe_code)]

use atum_bench::{print_header, scaled};

fn main() {
    atum_bench::init_obs();
    print_header(
        "Figure 10",
        "AShare read latency per MB vs replica count, 50 nodes / 500 files / 7 Byzantine",
    );
    let nodes = scaled(20, 50);
    let files = scaled(40, 500);
    atum_bench::figshare::run("fig10", nodes, files, scaled(3, 7), 42);
}
