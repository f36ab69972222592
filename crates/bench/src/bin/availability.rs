//! `availability` — slice-ha failover / degraded-write / resync timeline.
//!
//! Runs a mirrored bulk workload and walks one storage node through the
//! full availability cycle: crash mid-write (degraded writes at reduced
//! redundancy), a read pass with the node still down (every read of a
//! chunk mirrored on the victim fails over), online resynchronization
//! after recovery, and a final read pass in which the µproxy's probes
//! clear the suspicion and the recovered mirror rejoins the rotation.
//!
//! Reports the timeline as slice-obs gauges: time from crash to µproxy
//! suspicion (failover), the degraded-write window and its latency cost,
//! resync duration and bytes copied, and the bytes the recovered node
//! served after rejoining. All times come from the op histories and the
//! suspicion/resync logs, not the engine clock: with a node down, open
//! intentions keep the coordinator sweep probing, so idle-draining the
//! queue advances simulated time far past the last client op.
//! Deterministic: identical arguments yield a byte-identical report.
//!
//! The four crash-timeline phases share one ensemble and are strictly
//! ordered, so they cannot fan out; what does run in parallel (slice-par)
//! is the independent clean-baseline ensemble — an uncrashed run of the
//! same write workload, used for the undegraded write-latency and
//! completion-time comparison gauges.
//!
//! Usage: `availability [--mb N] [--crash-ms T] [--grid-ms A,B,...]
//! [--threads T] [--shards S] [--json-out]` (defaults: 48 MiB per client,
//! crash at 100 ms, grid 50,150,400,800 ms, threads = available
//! parallelism, 1 shard). Besides the primary `--crash-ms` point, the
//! bench replays the crash timeline at every `--grid-ms` instant and
//! emits the degraded-window curve — how failover time, degraded writes,
//! and their latency cost vary with where in the write stream the crash
//! lands — as `availability.grid.<ms>.*` gauges (`--grid-ms 0` disables
//! the grid). `--shards S` partitions each ensemble's engine across S
//! time-synchronized shards; the report is byte-identical at any S —
//! crash/recovery injection is shard-aware.

use slice_bench::{cli, maybe_write_json, obs_doc};
use slice_core::actors::{CoordActor, StorageActor};
use slice_core::ensemble::{SliceConfig, SliceEnsemble};
use slice_core::Workload;
use slice_sim::{SimDuration, SimTime};
use slice_workloads::BulkIo;

const CLIENTS: usize = 2;
/// The storage site the bench crashes.
const VICTIM: usize = 0;

fn arg_list(flag: &str, default: &[u64]) -> Vec<u64> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            let raw = args.next().unwrap_or_else(|| panic!("{flag} wants a list"));
            return raw
                .split(',')
                .filter_map(|v| v.trim().parse().ok())
                .filter(|&ms| ms > 0)
                .collect();
        }
    }
    default.to_vec()
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::from_nanos(ms * 1_000_000)
}

fn ms_of(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e6
}

fn ha_config(shards: usize) -> SliceConfig {
    SliceConfig {
        clients: CLIENTS,
        retain_data: true,
        record_history: true,
        // Fast probe cadence so the recovered mirror rejoins within the
        // final read pass.
        probe_interval_ms: 500,
        shards,
        ..SliceConfig::default()
    }
}

fn build_writers(bytes_per_client: u64) -> Vec<Box<dyn Workload>> {
    (0..CLIENTS)
        .map(|i| {
            Box::new(BulkIo::writer(&format!("ha{i}"), bytes_per_client, true)) as Box<dyn Workload>
        })
        .collect()
}

/// Runs until every client's workload finishes, checking every few events
/// so the stuck-intent probe churn does not drag simulated time far past
/// the finish.
fn run_phase(ens: &mut SliceEnsemble, deadline: SimTime) {
    loop {
        let before = ens.engine.now();
        ens.engine.run_until_idle(64);
        let done = (0..CLIENTS).all(|i| ens.client(i).finished());
        if done || ens.engine.now() >= deadline || ens.engine.now() == before {
            return;
        }
    }
}

/// Latest completion time among history records `[from..]` per client.
fn last_end(ens: &SliceEnsemble, from: &[usize]) -> SimTime {
    let mut t = SimTime::ZERO;
    for (i, hist) in ens.histories().iter().enumerate() {
        for rec in &hist.records()[from[i]..] {
            if let Some(end) = rec.end {
                t = t.max(end);
            }
        }
    }
    t
}

fn record_marks(ens: &SliceEnsemble) -> Vec<usize> {
    ens.histories().iter().map(|h| h.records().len()).collect()
}

fn mean_us((n, total): (u64, u64)) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / 1e3
    }
}

/// Everything harvested from the crash timeline, so the run can execute
/// on a slice-par worker and be reported from the main thread.
struct CrashOut {
    write_done: SimTime,
    read_down_done: SimTime,
    recover_at: SimTime,
    read_back_done: SimTime,
    suspected_at: Option<SimTime>,
    cleared_at: Option<SimTime>,
    resync_done: Option<SimTime>,
    resync_bytes: u64,
    dirty_after_write: u64,
    dirty_left: u64,
    read_failovers: u64,
    degraded_writes: u64,
    degraded_bytes: u64,
    probes_sent: u64,
    timeouts: u64,
    victim_read_bytes: u64,
    normal: (u64, u64),
    degraded: (u64, u64),
}

/// The clean-baseline comparison run: same write workload, no crash.
struct BaselineOut {
    write_done: SimTime,
    writes: (u64, u64),
}

/// Uncrashed run of the same mirrored write workload.
fn run_clean_baseline(bytes_per_client: u64, deadline: SimTime, shards: usize) -> BaselineOut {
    let mut ens = SliceEnsemble::build(&ha_config(shards), build_writers(bytes_per_client));
    ens.start();
    run_phase(&mut ens, deadline);
    for i in 0..CLIENTS {
        assert!(
            ens.client(i).finished(),
            "baseline writer {i} did not finish"
        );
    }
    let mut writes = (0u64, 0u64);
    for hist in ens.histories() {
        for rec in hist.records() {
            if let (Some(end), "write") = (rec.end, rec.op) {
                writes = (writes.0 + 1, writes.1 + (end - rec.begin).as_nanos());
            }
        }
    }
    BaselineOut {
        write_done: last_end(&ens, &[0; CLIENTS]),
        writes,
    }
}

/// The full four-phase crash/degrade/resync/rejoin timeline.
fn run_crash_timeline(
    bytes_per_client: u64,
    crash_ms: u64,
    deadline: SimTime,
    shards: usize,
) -> CrashOut {
    let mut ens = SliceEnsemble::build(&ha_config(shards), build_writers(bytes_per_client));
    ens.start();

    // Phase 1: crash the victim mid-write; writers finish degraded.
    ens.engine.run_until(at_ms(crash_ms));
    let crash_at = at_ms(crash_ms);
    ens.engine.fail_node(ens.storage[VICTIM]);
    run_phase(&mut ens, deadline);
    for i in 0..CLIENTS {
        assert!(ens.client(i).finished(), "writer {i} did not finish");
    }
    let write_done = last_end(&ens, &[0; CLIENTS]);
    let dirty_after_write: u64 = ens
        .coords
        .iter()
        .map(|&c| {
            ens.engine
                .actor::<CoordActor>(c)
                .coord
                .dirty_log_dump()
                .len() as u64
        })
        .sum();

    // Phase 2: read it all back with the victim still down.
    let marks = record_marks(&ens);
    for i in 0..CLIENTS {
        ens.client_mut(i).set_workload(Box::new(BulkIo::reader(
            &format!("ha{i}"),
            bytes_per_client,
        )));
    }
    for &c in &ens.clients.clone() {
        ens.engine.kick(c);
    }
    run_phase(&mut ens, deadline);
    for i in 0..CLIENTS {
        assert!(ens.client(i).finished(), "down-reader {i} did not finish");
    }
    let read_down_done = last_end(&ens, &marks);

    // Phase 3: recover the victim; the coordinator sweep drives resync
    // with no client traffic in flight.
    let recover_at = ens.engine.now();
    ens.recover_storage_node(VICTIM);
    ens.engine
        .run_until(recover_at + SimDuration::from_secs(30));
    let victim_reads_before = {
        let node = &ens.engine.actor::<StorageActor>(ens.storage[VICTIM]).node;
        node.store().io_stats().1
    };

    // Phase 4: read again; ticks probe the suspected site, the clean
    // verdict readmits it, and the tail of the pass reads from it.
    let marks = record_marks(&ens);
    for i in 0..CLIENTS {
        ens.client_mut(i).set_workload(Box::new(BulkIo::reader(
            &format!("ha{i}"),
            bytes_per_client,
        )));
    }
    for &c in &ens.clients.clone() {
        ens.engine.kick(c);
    }
    run_phase(&mut ens, deadline);
    for i in 0..CLIENTS {
        assert!(ens.client(i).finished(), "back-reader {i} did not finish");
    }
    let read_back_done = last_end(&ens, &marks);

    // Harvest the timeline.
    let mut suspected_at: Option<SimTime> = None;
    let mut cleared_at: Option<SimTime> = None;
    let mut read_failovers = 0u64;
    let mut degraded_writes = 0u64;
    let mut degraded_bytes = 0u64;
    let mut probes_sent = 0u64;
    let mut timeouts = 0u64;
    for i in 0..CLIENTS {
        let client = ens.client(i);
        timeouts += client.stats().timeouts;
        let proxy = client.proxy().expect("embedded proxy");
        for &(t, site, sus) in proxy.suspicion_log() {
            if site as usize != VICTIM {
                continue;
            }
            if sus {
                suspected_at = Some(suspected_at.map_or(t, |s| s.min(t)));
            } else {
                cleared_at = Some(cleared_at.map_or(t, |s| s.max(t)));
            }
        }
        let (fo, dw, db, pr) = proxy.ha_stats();
        read_failovers += fo;
        degraded_writes += dw;
        degraded_bytes += db;
        probes_sent += pr;
    }
    let mut resync_bytes = 0u64;
    let mut resync_done: Option<SimTime> = None;
    let mut dirty_left = 0u64;
    for &c in &ens.coords {
        let coord = &ens.engine.actor::<CoordActor>(c).coord;
        for &(site, _start, done, bytes) in coord.resync_history() {
            if site as usize == VICTIM {
                resync_bytes += bytes;
                resync_done = Some(resync_done.map_or(done, |d| d.max(done)));
            }
        }
        dirty_left += coord.dirty_log_dump().len() as u64;
    }
    let victim_reads_after = {
        let node = &ens.engine.actor::<StorageActor>(ens.storage[VICTIM]).node;
        node.store().io_stats().1
    };

    // Degraded-window write latency vs the pre-crash baseline.
    let mut normal = (0u64, 0u64); // (count, total latency ns)
    let mut degraded = (0u64, 0u64);
    for hist in ens.histories() {
        for rec in hist.records() {
            let (Some(end), "write") = (rec.end, rec.op) else {
                continue;
            };
            let lat = (end - rec.begin).as_nanos();
            if rec.begin < crash_at {
                normal = (normal.0 + 1, normal.1 + lat);
            } else if rec.begin < write_done {
                degraded = (degraded.0 + 1, degraded.1 + lat);
            }
        }
    }

    CrashOut {
        write_done,
        read_down_done,
        recover_at,
        read_back_done,
        suspected_at,
        cleared_at,
        resync_done,
        resync_bytes,
        dirty_after_write,
        dirty_left,
        read_failovers,
        degraded_writes,
        degraded_bytes,
        probes_sent,
        timeouts,
        victim_read_bytes: victim_reads_after - victim_reads_before,
        normal,
        degraded,
    }
}

/// The independent runs, as slice-par work items.
enum HaTask {
    Crash,
    Baseline,
    /// A grid replay of the crash timeline at a different crash instant.
    Grid(u64),
}

enum HaOut {
    Crash(Box<CrashOut>),
    Baseline(BaselineOut),
    Grid(u64, Box<CrashOut>),
}

fn main() {
    let mb = cli::num("--mb", 48u64);
    let crash_ms = cli::num("--crash-ms", 100u64);
    let grid_ms = arg_list("--grid-ms", &[50, 150, 400, 800]);
    let threads = cli::num("--threads", slice_sim::default_threads());
    let shards = cli::num("--shards", 1);
    let bytes_per_client = mb * 1024 * 1024;
    let deadline = at_ms(600_000);

    let mut tasks = vec![HaTask::Crash, HaTask::Baseline];
    tasks.extend(grid_ms.iter().map(|&ms| HaTask::Grid(ms)));
    let outs = slice_sim::run_indexed(threads, tasks, |_, task| match task {
        HaTask::Crash => HaOut::Crash(Box::new(run_crash_timeline(
            bytes_per_client,
            crash_ms,
            deadline,
            shards,
        ))),
        HaTask::Baseline => HaOut::Baseline(run_clean_baseline(bytes_per_client, deadline, shards)),
        HaTask::Grid(ms) => HaOut::Grid(
            ms,
            Box::new(run_crash_timeline(bytes_per_client, ms, deadline, shards)),
        ),
    });
    let mut outs = outs.into_iter();
    let (Some(HaOut::Crash(t)), Some(HaOut::Baseline(base))) = (outs.next(), outs.next()) else {
        unreachable!("run_indexed merges by input index");
    };
    let grid: Vec<(u64, Box<CrashOut>)> = outs
        .map(|o| match o {
            HaOut::Grid(ms, g) => (ms, g),
            _ => unreachable!("grid tasks follow the first two"),
        })
        .collect();

    let failover_ms = t.suspected_at.map(|s| ms_of(s) - crash_ms as f64);
    let resync_ms = t.resync_done.map(|d| ms_of(d) - ms_of(t.recover_at));
    println!(
        "availability: {CLIENTS} clients x {mb} MiB mirrored, storage site {VICTIM} \
         crashed at {crash_ms} ms"
    );
    println!(
        "  failover: suspected +{:.2} ms after crash, {} read failovers, {} probes",
        failover_ms.unwrap_or(f64::NAN),
        t.read_failovers,
        t.probes_sent
    );
    println!(
        "  degraded: {} writes / {} bytes at reduced redundancy, {} dirty ranges logged, \
         write latency {:.0} us vs {:.0} us baseline",
        t.degraded_writes,
        t.degraded_bytes,
        t.dirty_after_write,
        mean_us(t.degraded),
        mean_us(t.normal)
    );
    println!(
        "  resync: {} bytes copied, done +{:.2} ms after recovery, {} dirty ranges left",
        t.resync_bytes,
        resync_ms.unwrap_or(f64::NAN),
        t.dirty_left
    );
    println!(
        "  rejoin: cleared +{:.2} ms after recovery, recovered node served {} bytes of \
         reads, {} client timeouts",
        t.cleared_at
            .map(|c| ms_of(c) - ms_of(t.recover_at))
            .unwrap_or(f64::NAN),
        t.victim_read_bytes,
        t.timeouts
    );
    println!(
        "  clean baseline: writes done at {:.2} ms (vs {:.2} ms crashed), \
         write latency {:.0} us",
        ms_of(base.write_done),
        ms_of(t.write_done),
        mean_us(base.writes)
    );
    if !grid.is_empty() {
        println!("  degraded-window curve (crash instant sweep):");
        for (ms, g) in &grid {
            println!(
                "    crash@{ms} ms: failover +{:.2} ms, {} degraded writes at {:.0} us \
                 (vs {:.0} us normal), window {:.2} ms, {} resync bytes",
                g.suspected_at
                    .map(|s| ms_of(s) - *ms as f64)
                    .unwrap_or(f64::NAN),
                g.degraded_writes,
                mean_us(g.degraded),
                mean_us(g.normal),
                ms_of(g.write_done) - *ms as f64,
                g.resync_bytes
            );
        }
    }

    let json = obs_doc(|reg| {
        reg.set_gauge("availability.crash_ms", crash_ms as f64);
        reg.set_gauge("availability.write_done_ms", ms_of(t.write_done));
        reg.set_gauge("availability.read_down_done_ms", ms_of(t.read_down_done));
        reg.set_gauge("availability.recover_ms", ms_of(t.recover_at));
        reg.set_gauge("availability.read_back_done_ms", ms_of(t.read_back_done));
        reg.set_gauge(
            "availability.suspected_ms",
            t.suspected_at.map(ms_of).unwrap_or(-1.0),
        );
        reg.set_gauge(
            "availability.time_to_failover_ms",
            failover_ms.unwrap_or(-1.0),
        );
        reg.set_gauge(
            "availability.cleared_ms",
            t.cleared_at.map(ms_of).unwrap_or(-1.0),
        );
        reg.set_gauge(
            "availability.resync_done_ms",
            t.resync_done.map(ms_of).unwrap_or(-1.0),
        );
        reg.set_gauge("availability.time_to_resync_ms", resync_ms.unwrap_or(-1.0));
        reg.set_gauge("availability.resync_bytes", t.resync_bytes as f64);
        reg.set_gauge(
            "availability.dirty_ranges_logged",
            t.dirty_after_write as f64,
        );
        reg.set_gauge("availability.dirty_ranges_left", t.dirty_left as f64);
        reg.set_gauge("availability.read_failovers", t.read_failovers as f64);
        reg.set_gauge("availability.degraded_writes", t.degraded_writes as f64);
        reg.set_gauge("availability.degraded_bytes", t.degraded_bytes as f64);
        reg.set_gauge("availability.probes_sent", t.probes_sent as f64);
        reg.set_gauge("availability.client_timeouts", t.timeouts as f64);
        reg.set_gauge("availability.write_latency_normal_us", mean_us(t.normal));
        reg.set_gauge(
            "availability.write_latency_degraded_us",
            mean_us(t.degraded),
        );
        reg.set_gauge(
            "availability.recovered_read_bytes",
            t.victim_read_bytes as f64,
        );
        reg.set_gauge(
            "availability.baseline_write_done_ms",
            ms_of(base.write_done),
        );
        reg.set_gauge("availability.write_latency_clean_us", mean_us(base.writes));
        // The degraded-window curve: one gauge family per crash instant.
        for (ms, g) in &grid {
            let tag = format!("availability.grid.{ms}");
            reg.set_gauge(
                &format!("{tag}.time_to_failover_ms"),
                g.suspected_at
                    .map(|s| ms_of(s) - *ms as f64)
                    .unwrap_or(-1.0),
            );
            reg.set_gauge(
                &format!("{tag}.degraded_window_ms"),
                ms_of(g.write_done) - *ms as f64,
            );
            reg.set_gauge(&format!("{tag}.degraded_writes"), g.degraded_writes as f64);
            reg.set_gauge(&format!("{tag}.degraded_bytes"), g.degraded_bytes as f64);
            reg.set_gauge(
                &format!("{tag}.write_latency_degraded_us"),
                mean_us(g.degraded),
            );
            reg.set_gauge(&format!("{tag}.write_latency_normal_us"), mean_us(g.normal));
            reg.set_gauge(&format!("{tag}.resync_bytes"), g.resync_bytes as f64);
            reg.set_gauge(&format!("{tag}.client_timeouts"), g.timeouts as f64);
        }
    });
    println!("{json}");
    maybe_write_json("availability", &json);

    // The availability contract: no client-visible failures, failover
    // within five retransmission timeouts, and a drained dirty log.
    assert_eq!(t.timeouts, 0, "client ops timed out during the cycle");
    assert!(
        failover_ms.is_some_and(|f| f < 4000.0),
        "failover took {failover_ms:?} ms (budget 5 x 800 ms)"
    );
    assert_eq!(t.dirty_left, 0, "resync left dirty ranges behind");
    assert!(
        t.victim_read_bytes > 0,
        "recovered node served no reads after rejoining"
    );
}
