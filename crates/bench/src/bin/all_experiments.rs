//! Runs every table and figure at a benchmark-friendly scale and prints
//! the paper-versus-measured summary recorded in EXPERIMENTS.md.
//!
//! Usage: `all_experiments [--full]` (full uses paper-scale parameters
//! everywhere; expect a long run).

use slice_core::EnsemblePolicy;
use slice_sim::Series;

fn main() {
    let full = slice_bench::cli::flag("--full");
    let t0 = std::time::Instant::now();

    // ---------------- Table 2 ----------------
    println!("=== Table 2: bulk I/O bandwidth (MB/s) ===");
    let bytes: u64 = if full { (125 << 20) * 10 } else { 512 << 20 };
    let (w1, r1) = slice_bench::run_bulk(1, bytes, false);
    let (w1m, r1m) = slice_bench::run_bulk(1, bytes, true);
    let (ws, rs) = slice_bench::run_bulk(16, bytes, false);
    let (wsm, rsm) = slice_bench::run_bulk(16, bytes, true);
    println!(
        "{:>16} {:>9} {:>9} {:>11} {:>11}",
        "", "measured", "paper", "meas(sat)", "paper(sat)"
    );
    println!(
        "{:>16} {:>9.1} {:>9.1} {:>11.1} {:>11.1}",
        "read",
        r1.mbs(),
        62.5,
        rs.mbs(),
        437.0
    );
    println!(
        "{:>16} {:>9.1} {:>9.1} {:>11.1} {:>11.1}",
        "write",
        w1.mbs(),
        38.9,
        ws.mbs(),
        479.0
    );
    println!(
        "{:>16} {:>9.1} {:>9.1} {:>11.1} {:>11.1}",
        "read-mirrored",
        r1m.mbs(),
        52.9,
        rsm.mbs(),
        222.0
    );
    println!(
        "{:>16} {:>9.1} {:>9.1} {:>11.1} {:>11.1}",
        "write-mirrored",
        w1m.mbs(),
        32.2,
        wsm.mbs(),
        251.0
    );

    // ---------------- Table 3 ----------------
    println!("\n=== Table 3: µproxy CPU phases ===");
    let ph = slice_bench::run_uproxy_phases(140_000);
    let total = (ph.intercept_ns + ph.decode_ns + ph.rewrite_ns + ph.soft_ns) as f64;
    let rows = [
        ("interception", ph.intercept_ns, 0.7),
        ("decode", ph.decode_ns, 4.1),
        ("redirect/rewrite", ph.rewrite_ns, 0.5),
        ("soft state", ph.soft_ns, 0.8),
    ];
    println!(
        "{:>18} {:>9} {:>11} {:>12}",
        "phase", "ns/pkt", "share %", "paper share %"
    );
    for (name, ns, paper) in rows {
        println!(
            "{:>18} {:>9.1} {:>11.1} {:>12.1}",
            name,
            ns as f64 / ph.packets as f64,
            ns as f64 / total * 100.0,
            paper / 6.1 * 100.0
        );
    }

    // ---------------- Figure 3 ----------------
    println!("\n=== Figure 3: directory service scaling (untar latency s) ===");
    let files: u64 = if full { 36_000 } else { 3_600 };
    let mut all = vec![Series::new("N-MFS")];
    for n in [1usize, 2, 4] {
        all.push(Series::new(format!("Slice-{n}")));
    }
    for procs in [1usize, 2, 4, 8, 16] {
        all[0].push(procs as f64, slice_bench::run_untar_mfs(procs, files));
        for (i, dirs) in [1usize, 2, 4].into_iter().enumerate() {
            let p = (1000 / dirs as u32).max(1);
            all[i + 1].push(
                procs as f64,
                slice_bench::run_untar_slice(
                    procs,
                    dirs,
                    files,
                    EnsemblePolicy::MkdirSwitching { redirect_millis: p },
                ),
            );
        }
    }
    slice_bench::print_series("processes", "latency s", &all);

    // ---------------- Figure 4 ----------------
    println!("=== Figure 4: mkdir switching affinity (untar latency s) ===");
    let files4: u64 = if full { 36_000 } else { 2_400 };
    let mut series4: Vec<Series> = [1usize, 8, 16]
        .iter()
        .map(|p| Series::new(format!("{p} procs")))
        .collect();
    for aff in [0u32, 400, 800, 950, 1000] {
        for (i, procs) in [1usize, 8, 16].into_iter().enumerate() {
            series4[i].push(
                aff as f64 / 10.0,
                slice_bench::run_untar_slice(
                    procs,
                    4,
                    files4,
                    EnsemblePolicy::MkdirSwitching {
                        redirect_millis: 1000 - aff,
                    },
                ),
            );
        }
    }
    slice_bench::print_series("affinity %", "latency s", &series4);

    // ---------------- Figures 5 and 6 ----------------
    println!("=== Figures 5/6: SPECsfs-like throughput and latency ===");
    let loads: &[f64] = if full {
        &[
            200.0, 400.0, 800.0, 1200.0, 1600.0, 2400.0, 3200.0, 4800.0, 6400.0,
        ]
    } else {
        &[400.0, 800.0, 1600.0, 3200.0, 6400.0]
    };
    let mut tput = vec![Series::new("FreeBSD-NFS")];
    let mut lat: Vec<Series> = Vec::new();
    for n in [1usize, 2, 4, 8] {
        tput.push(Series::new(format!("Slice-{n}")));
        lat.push(Series::new(format!("Slice-{n}")));
    }
    for &offered in loads {
        let procs = ((offered / 200.0).ceil() as usize).clamp(1, 32);
        if offered <= 3200.0 {
            let b = slice_bench::run_sfs_baseline(procs, offered);
            tput[0].push(offered, b.delivered);
        }
        for (i, nodes) in [1usize, 2, 4, 8].into_iter().enumerate() {
            let cap_guess = 1000.0 * nodes as f64 + 1500.0;
            if offered > cap_guess * 2.0 {
                continue;
            }
            let r = slice_bench::run_sfs_slice(nodes, procs, offered);
            tput[i + 1].push(offered, r.delivered);
            lat[i].push(r.delivered, r.latency_ms);
        }
    }
    println!("-- Figure 5 (delivered IOPS vs offered) --");
    slice_bench::print_series("offered", "IOPS", &tput);
    println!("-- Figure 6 (mean latency ms vs delivered IOPS) --");
    for s in &lat {
        println!("{}:  (delivered IOPS, latency ms)", s.label);
        print!("{}", s.to_rows());
    }

    println!("total wall time {:?}", t0.elapsed());
}
