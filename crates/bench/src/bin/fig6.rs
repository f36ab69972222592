//! Figure 6 — SPECsfs97-like latency versus delivered throughput.
//!
//! Mean request latency as a function of delivered IOPS for Slice with
//! 1, 2, 4, and 8 storage nodes. The paper notes latency jumps where the
//! ensemble overflows the small-file servers' cache, with acceptable
//! latency at all load levels up to saturation.

use slice_sim::Series;

fn main() {
    let quick = slice_bench::cli::flag("--quick");
    let loads: &[f64] = if quick {
        &[400.0, 800.0, 1600.0, 3200.0]
    } else {
        &[
            200.0, 400.0, 800.0, 1200.0, 1600.0, 2400.0, 3200.0, 4800.0, 6400.0,
        ]
    };
    let mut series: Vec<Series> = [1usize, 2, 4, 8]
        .iter()
        .map(|n| Series::new(format!("Slice-{n}")))
        .collect();
    for &offered in loads {
        let procs = ((offered / 200.0).ceil() as usize).clamp(1, 32);
        for (i, &nodes) in [1usize, 2, 4, 8].iter().enumerate() {
            let cap_guess = 1000.0 * nodes as f64 + 1500.0;
            if offered > cap_guess * 2.0 {
                continue;
            }
            let r = slice_bench::run_sfs_slice(nodes, procs, offered);
            // Figure 6 plots latency against *delivered* throughput.
            series[i].push(r.delivered, r.latency_ms);
        }
    }
    println!("Figure 6: SPECsfs-like mean latency (ms) vs delivered IOPS");
    // Each configuration has its own delivered-IOPS axis; print blocks.
    for s in &series {
        println!("{}:  (delivered IOPS, latency ms)", s.label);
        print!("{}", s.to_rows());
    }
    println!("Paper shape: latency rises as the small-file caches overflow, but");
    println!("remains serviceable up to each configuration's saturation point.");
}
