//! Figure 11: impact of Byzantine (replica-corrupting) nodes on AShare read
//! latency, in a 100-node system with 1000 files and rho = 8 (7 Byzantine
//! nodes) - the larger-scale companion of Figure 10.

#![forbid(unsafe_code)]

use atum_bench::{print_header, scaled};

fn main() {
    atum_bench::init_obs();
    print_header(
        "Figure 11",
        "AShare read latency per MB vs replica count, 100 nodes / 1000 files / 7 Byzantine",
    );
    let nodes = scaled(30, 100);
    let files = scaled(60, 1000);
    atum_bench::figshare::run("fig11", nodes, files, scaled(3, 7), 43);
}
