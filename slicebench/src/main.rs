//! slicebench — end-to-end and per-layer benchmark of the Slice
//! reproduction. See README.md in this directory for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! slicebench --workload <untar|bulk|sfs|coded|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload until `S` host seconds have
//! passed (at least [`MIN_REPS`] times) and prints the end-to-end metrics.
//! With `--trace 1` it alternates untraced and traced repetitions, checks
//! that both simulate exactly the same thing, and prints the per-layer
//! metrics and the tracing overhead. The last line of standard output is
//! one JSON object; the exit code is nonzero when any output check fails.

mod layers;
mod load;
mod scenario;
mod trace;

use scenario::{Rep, Wl};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: slicebench --workload <untar|bulk|sfs|coded|all> --seed N --seconds S --trace <0|1>";

/// Fewest repetitions of each kind (untraced, traced) a run makes.
const MIN_REPS: usize = 3;

/// End-to-end metrics: name, unit, plane. Host-plane values are medians
/// over the run's repetitions; sim-plane values repeat exactly per seed.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("wall_s", "s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("sim_ops_per_s", "1/s", "sim"),
    ("op_p50_ms", "ms", "sim"),
    ("op_p99_ms", "ms", "sim"),
];

/// Simulated results that only some workloads define (0 elsewhere);
/// printed in both modes and reported with the per-layer metrics.
const WORKLOAD_RESULTS: &[(&str, &str)] = &[
    ("write_mb_s", "MB/s"),
    ("read_mb_s", "MB/s"),
    ("rebuild_s", "s"),
    ("stored_per_user_byte", "ratio"),
    ("paper_err_pct", "%"),
    ("failed_op_ratio", "ratio"),
];

/// Further simulated results, printed for reading only: Fig. 3's mean
/// untar time per process, and the `coded` passes not reported above.
const PRINTED_ONLY: &[(&str, &str)] = &[
    ("untar_mean_s", "s"),
    ("clean_read_mb_s", "MB/s"),
    ("degraded_write_mb_s", "MB/s"),
];

/// Per-layer metrics of the traced run: name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.packets", "count"),
    ("sim.bytes", "bytes"),
    ("sim.windows", "count"),
    ("sim.peak_live_events", "count"),
    ("sim.step_self_s", "s"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.step_p99_ms", "ms"),
    ("core.ops", "count"),
    ("core.retransmits", "count"),
    ("core.timeouts", "count"),
    ("core.client_cpu_util", "ratio"),
    ("workloads.callback_s", "s"),
    ("workloads.sfs_lag_ratio", "ratio"),
    ("uproxy.requests_routed", "count"),
    ("uproxy.replies_routed", "count"),
    ("uproxy.absorbed", "count"),
    ("uproxy.stale_table_bounces", "count"),
    ("uproxy.soft_state_entries", "count"),
    ("uproxy.attr_hit_ratio", "ratio"),
    ("uproxy.attr_lookups", "count"),
    ("uproxy.intercept_ns", "ns"),
    ("uproxy.decode_ns", "ns"),
    ("uproxy.rewrite_ns", "ns"),
    ("uproxy.soft_ns", "ns"),
    ("nfsproto.shallow_clones", "count"),
    ("nfsproto.deep_copy_bytes", "bytes"),
    ("nfsproto.encode_ns", "ns"),
    ("nfsproto.decode_ns", "ns"),
    ("hashes.checksum_ns_per_kb", "ns/KB"),
    ("hashes.fingerprint_ns", "ns"),
    ("dirsvc.ops", "count"),
    ("dirsvc.multisite_ops", "count"),
    ("dirsvc.misdirected", "count"),
    ("dirsvc.wal_appends_per_sync", "ratio"),
    ("dirsvc.wal_syncs", "count"),
    ("dirsvc.cpu_util", "ratio"),
    ("smallfile.served", "count"),
    ("smallfile.cache_hit_ratio", "ratio"),
    ("smallfile.alloc_free_bytes", "bytes"),
    ("smallfile.cpu_util", "ratio"),
    ("storage.reads", "count"),
    ("storage.writes", "count"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.disk_ops", "count"),
    ("storage.disk_bytes", "bytes"),
    ("storage.disk_seq_ratio", "ratio"),
    ("storage.seek_ms_per_op", "ms"),
    ("storage.cpu_util", "ratio"),
    ("coord.wal_appends_per_sync", "ratio"),
    ("coord.wal_syncs", "count"),
    ("coord.resync_bytes", "bytes"),
    ("coord.open_intents_end", "count"),
    ("coord.cpu_util", "ratio"),
    ("ec.coded_writes", "count"),
    ("ec.degraded_reads", "count"),
    ("ec.reconstructed_bytes", "bytes"),
    ("ec.encode_ns_per_kb", "ns/KB"),
    ("ec.decode_ns_per_kb", "ns/KB"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slicebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(wl) = Wl::parse(&args.workload) else {
        eprintln!("slicebench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let ok = if args.trace {
        traced(wl, &args)
    } else {
        timed(wl, &args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for wl in Wl::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", wl.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Repeats `wl` once per entry of `kinds` (traced or not) until `budget`
/// has passed.
fn repeat(wl: Wl, seed: u64, budget: Duration, kinds: &[bool]) -> Vec<(bool, Rep)> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS * kinds.len() || start.elapsed() < budget {
        // Alternate which kind goes first, so neither always runs on a
        // colder heap.
        let flip = (reps.len() / kinds.len()) % 2 == 1;
        for i in 0..kinds.len() {
            let traced = kinds[if flip { kinds.len() - 1 - i } else { i }];
            reps.push((traced, scenario::run(wl, seed, traced)));
        }
    }
    reps
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks shared by both modes: every repetition passed its output
/// checks and simulated exactly the same thing (digest and every sim
/// result). Returns the failures.
fn verify(reps: &[(bool, Rep)]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let first = &reps[0].1;
    for (i, (traced, r)) in reps.iter().enumerate() {
        let kind = if *traced { "traced" } else { "untraced" };
        out.extend(
            r.failures
                .iter()
                .map(|f| format!("repetition {i} ({kind}): {f}")),
        );
        if r.digest != first.digest {
            out.push(format!(
                "repetition {i} ({kind}): sim_digest {:016x} differs from {:016x}",
                r.digest, first.digest
            ));
        }
        for ((name, a), (_, b)) in r.sim.iter().zip(&first.sim) {
            if a.to_bits() != b.to_bits() {
                out.push(format!(
                    "repetition {i} ({kind}): {name} = {a} differs from {b}"
                ));
            }
        }
    }
    out
}

fn fmt_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let mut s = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s
}

fn print_result(correct: bool, reps: &[(bool, Rep)], metrics: &[(&str, f64, &str)]) {
    let attempted: u64 = reps.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reps.iter().map(|(_, r)| r.failed).sum();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fmt_metrics(metrics)
    );
}

fn header(wl: Wl, args: &Args, reps: &[(bool, Rep)]) {
    let traced = reps.iter().filter(|(t, _)| *t).count();
    println!(
        "slicebench {} seed={} repetitions={} (traced {traced}) digest={:016x}",
        wl.name(),
        args.seed,
        reps.len(),
        reps[0].1.digest
    );
    let r = &reps[0].1;
    for &(name, unit) in WORKLOAD_RESULTS.iter().chain(PRINTED_ONLY) {
        let v = r.get(name);
        if v != 0.0 || name == "failed_op_ratio" {
            println!("  sim   {name:<24} {v:>14.6} {unit}");
        }
    }
    println!(
        "  sim   op latency samples {:.0}, {:.0} beyond p99",
        r.get("op_samples"),
        r.get("op_samples_beyond_p99")
    );
    if wl == Wl::Bulk {
        println!("  model: Table 2 saturated mirrored write/read is the paper reference");
    } else {
        println!("  model: no paper reference at this configuration (unvalidated)");
    }
}

fn report_failures(failures: &[String]) -> bool {
    for f in failures {
        eprintln!("slicebench: CHECK FAILED: {f}");
    }
    failures.is_empty()
}

/// Untraced mode: end-to-end metrics.
fn timed(wl: Wl, args: &Args) -> bool {
    let reps = repeat(wl, args.seed, Duration::from_secs(args.seconds), &[false]);
    let failures = verify(&reps);
    header(wl, args, &reps);
    let r = &reps[0].1;
    let host = |name: &str, f: fn(&Rep) -> f64| {
        let v: Vec<f64> = reps.iter().map(|(_, r)| f(r)).collect();
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        println!(
            "  host  {name:<24} repetitions: min {:.6} q1 {:.6} q3 {:.6} max {:.6}",
            q(0.0),
            q(0.25),
            q(0.75),
            q(1.0)
        );
        median(v)
    };
    let values = [
        host("wall_s", |r| r.wall_s),
        host("setup_s", |r| r.setup_s),
        peak_rss_mb(),
        r.get("sim_ops_per_s"),
        r.get("op_p50_ms"),
        r.get("op_p99_ms"),
    ];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, plane), v)| {
            println!("  {plane:<5} {name:<24} {v:>14.6} {unit}");
            (name, v, unit)
        })
        .collect();
    let ok = report_failures(&failures);
    print_result(ok, &reps, &metrics);
    ok
}

/// Traced mode: per-layer metrics, tracing overhead, and the check that
/// tracing does not perturb the simulation.
fn traced(wl: Wl, args: &Args) -> bool {
    let reps = repeat(
        wl,
        args.seed,
        Duration::from_secs(args.seconds),
        &[false, true],
    );
    let failures = verify(&reps);
    header(wl, args, &reps);
    let walls = |t: bool| {
        median(
            reps.iter()
                .filter(|r| r.0 == t)
                .map(|r| r.1.wall_s)
                .collect(),
        )
    };
    let overhead = walls(true) - walls(false);
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.0).map(|r| &r.1).collect();
    let splits: Vec<trace::HostSplit> = traced
        .iter()
        .map(|r| trace::host_split(&r.recording.as_ref().expect("traced").spans))
        .collect();
    let split = |f: fn(&trace::HostSplit) -> f64| median(splits.iter().map(f).collect());
    let r = &reps[0].1;
    let step_self_s = split(|s| s.step_self_s);

    // Replays run after every repetition, so they cannot disturb the
    // payload counters an ensemble folds into its digest.
    let last = traced.last().expect("traced repetition");
    let recording = last.recording.as_ref().expect("traced");
    trace::start();
    let replayed = layers::replay(&recording.mix, &scenario::geometry(wl));
    let replay_spans = trace::finish().spans;

    let mut values: Vec<(&str, f64)> = r.sim.clone();
    values.extend(replayed);
    values.extend([
        ("sim.step_self_s", step_self_s),
        (
            "sim.host_ns_per_event",
            step_self_s * 1e9 / r.events.max(1) as f64,
        ),
        ("sim.step_p99_ms", split(|s| s.step_p99_ms)),
        ("workloads.callback_s", split(|s| s.callback_s)),
        ("trace.overhead_s", overhead),
    ]);
    let get = |name: &str| {
        values
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .chain(WORKLOAD_RESULTS)
        .map(|&(name, unit)| {
            let v = get(name);
            println!("  layer {name:<28} {v:>16.6} {unit}");
            (name, v, unit)
        })
        .collect();
    println!(
        "  trace: untraced wall {:.4} s, traced wall {:.4} s, overhead {overhead:.4} s",
        walls(false),
        walls(true)
    );

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.spans.tsv", wl.name(), args.seed));
    let mut spans = recording.spans.clone();
    let base = spans.len() as u32;
    spans.extend(replay_spans.into_iter().map(|mut s| {
        if s.parent != u32::MAX {
            s.parent += base;
        }
        s
    }));
    match trace::write_spans(&path, &spans) {
        Ok(()) => println!("  spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("slicebench: could not write {}: {e}", path.display()),
    }
    let ok = report_failures(&failures);
    print_result(ok, &reps, &metrics);
    ok
}
