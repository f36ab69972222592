//! Figure 5 — SPECsfs97-like throughput at saturation.
//!
//! Delivered IOPS versus offered load for the monolithic FreeBSD-style
//! NFS baseline (saturating near 850 IOPS in the paper) and Slice with
//! 1, 2, 4, and 8 storage nodes (the paper reaches 6600 IOPS at 8 nodes /
//! 64 disks). All Slice configurations use one directory server and two
//! small-file servers, exactly as the paper's SPECsfs runs.

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
    let mut baseline = Series::new("FreeBSD-NFS");
    let mut slices: Vec<Series> = [1usize, 2, 4, 8]
        .iter()
        .map(|n| Series::new(format!("Slice-{n}")))
        .collect();
    for &offered in loads {
        let procs = ((offered / 200.0).ceil() as usize).clamp(1, 32);
        let base = slice_bench::run_sfs_baseline(procs, offered);
        baseline.push(offered, base.delivered);
        for (i, &nodes) in [1usize, 2, 4, 8].iter().enumerate() {
            // Skip hopeless points to bound runtime: a config well past
            // saturation stays saturated.
            let cap_guess = 1000.0 * nodes as f64 + 1500.0;
            if offered > cap_guess * 2.0 {
                continue;
            }
            let r = slice_bench::run_sfs_slice(nodes, procs, offered);
            slices[i].push(offered, r.delivered);
        }
    }
    println!("Figure 5: SPECsfs-like delivered throughput (IOPS) vs offered load");
    let mut all = vec![baseline];
    all.extend(slices);
    slice_bench::print_series("offered", "delivered IOPS", &all);
    println!("Paper shape: baseline saturates ~850 IOPS; Slice-1 exceeds it via");
    println!("faster directory ops; throughput scales with storage nodes (6600");
    println!("IOPS at Slice-8 in the paper).");
}
