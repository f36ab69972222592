//! `checker` — N-seed × M-schedule consistency sweep.
//!
//! For each seed, generates a deterministic mixed workload, runs it
//! crash-free to establish the reference namespace, then replays it under
//! M fault schedules (directory/storage/coordinator crashes with
//! recovery, packet-loss windows) and applies every `slice-check` oracle:
//! per-chunk register linearizability, close-to-open, expected statuses
//! under NFS retransmission semantics, directory-service structural
//! invariants, coordinator block maps, attr-cache audit, and WAL-replay
//! namespace equivalence against the reference run.
//!
//! Usage: `checker [--seeds N] [--schedules M] [--chaos] [--coded]
//! [--reconf] [--threads T] [--shards S] [--json-out] [--report-out FILE]`
//! (defaults: 8 seeds × 4 schedules, T = available parallelism, 1 shard).
//! `--chaos` swaps the standard schedule pool for the chaos pool
//! (datagram duplication and reordering windows, stacked storage
//! crashes). `--coded` runs every ensemble with (4,2) erasure coding for
//! mapped files — the coded-reconstruction oracle then vets every stripe
//! — and with `--chaos` widens the pool with stacked storage crashes.
//! `--reconf` runs every ensemble with a fifth standby storage site and
//! swaps the pool for reconfiguration schedules (joins, planned drains,
//! hot-set widening, rebalance-mid-crash stacks); the drain oracle then
//! proves no chunk is stranded and no map entry orphaned after removal.
//! Seeds fan out over the slice-par worker pool; the printed
//! report is byte-identical for identical arguments at *any* thread
//! count *and* any `--shards` value (each run's engine is partitioned
//! across S time-synchronized shards). `--report-out` writes that
//! deterministic report to a file (CI `cmp`s it across thread and shard
//! counts); `--json-out` writes `BENCH_checker[_chaos].json`, the same
//! report plus informational host-timing gauges. Exits nonzero if any
//! run violated any oracle.

use slice_bench::cli;
use slice_check::sweep_reconf;

fn main() {
    let n_seeds = cli::num("--seeds", 8u64);
    let n_schedules = cli::num("--schedules", 4);
    let threads = cli::num("--threads", slice_sim::default_threads());
    let shards = cli::num("--shards", 1);
    let chaos = cli::flag("--chaos");
    let coded = cli::flag("--coded");
    let reconf = cli::flag("--reconf");
    let seeds: Vec<u64> = (1..=n_seeds).collect();

    println!(
        "checker: sweeping {} seeds x {} {} schedules (+1 reference each) on {} thread{}, {} shard{}{}{}",
        seeds.len(),
        n_schedules,
        if reconf {
            "reconf"
        } else if chaos {
            "chaos"
        } else {
            "standard"
        },
        threads,
        if threads == 1 { "" } else { "s" },
        shards,
        if shards == 1 { "" } else { "s" },
        if coded { ", coded (4,2)" } else { "" },
        if reconf { ", standby site 4" } else { "" }
    );
    let report = sweep_reconf(&seeds, n_schedules, chaos, threads, shards, coded, reconf);
    println!(
        "checker: {} runs, {} client-visible ops checked, {} failing",
        report.runs,
        report.ops_checked,
        report.failures.len()
    );
    for f in &report.failures {
        let which = match f.schedule {
            Some(j) => format!("schedule {j}"),
            None => "reference".to_string(),
        };
        println!("FAIL seed {} {} ({})", f.seed, which, f.schedule_desc);
        for v in &f.violations {
            println!("  {v}");
        }
    }
    println!("{}", report.json);
    if let Some(path) = cli::path("--report-out") {
        std::fs::write(&path, &report.json).unwrap_or_else(|e| panic!("write report {path}: {e}"));
        eprintln!("wrote {path}");
    }
    slice_bench::maybe_write_json(
        if reconf {
            "checker_reconf"
        } else {
            match (chaos, coded) {
                (false, false) => "checker",
                (true, false) => "checker_chaos",
                (false, true) => "checker_coded",
                (true, true) => "checker_chaos_coded",
            }
        },
        &report.timed_json,
    );
    if !report.passed() {
        std::process::exit(1);
    }
}
