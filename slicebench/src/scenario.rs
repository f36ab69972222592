//! The four workloads. Each builds a Slice ensemble through the public
//! `slice` API, times set-up and the measured run on the host, checks the
//! run's outputs, and harvests its deterministic (simulated) results.

use crate::load::{PatternIo, Staggered};
use crate::trace::{self, Recording, Timed, RUN, SETUP, STEP};
use slice::core::actors::{CoordActor, StorageActor};
use slice::core::{calib, ClientActor, EnsemblePolicy, SliceConfig, SliceEnsemble, Workload};
use slice::sim::{LatencyStats, NodeId, Rng, SimDuration, SimTime};
use slice::workloads::{BulkIo, SpecSfs, SpecSfsConfig, Untar};
use std::time::Instant;

/// Table 2's saturated mirrored bandwidths (MB/s), write then read.
const PAPER_MIRRORED_WRITE_MB_S: f64 = 251.0;
const PAPER_MIRRORED_READ_MB_S: f64 = 222.0;

/// Fig. 3 point: untar processes, files per process, directory servers.
const UNTAR_PROCS: usize = 16;
const UNTAR_FILES: u64 = 3600;
const UNTAR_DIR_SERVERS: usize = 4;

/// Table 2 point: clients, bytes per client, storage nodes. The storage
/// caches shrink with the files (a quarter of the default cache for a
/// quarter of a 128 MiB file), so the read pass still overflows them and
/// reads from disk as in the paper's run.
const BULK_CLIENTS: usize = 16;
const BULK_BYTES: u64 = 32 << 20;
const BULK_NODES: usize = 8;
const BULK_CACHE_BYTES: u64 = calib::STORAGE_CACHE_BYTES * BULK_BYTES / (128 << 20);

/// Figs. 5–6 point: generator processes, offered ops/s, storage nodes,
/// measurement window, and file-set bytes per offered op/s. The caches
/// shrink with the file set, as `run_sfs_slice` shrinks them for the
/// generator's 1 MB per op/s (64 MB small-file, 32 MB storage).
const SFS_PROCS: usize = 16;
const SFS_OFFERED: f64 = 2400.0;
const SFS_NODES: usize = 8;
const SFS_MEASURE: SimDuration = SimDuration::from_secs(20);
const SFS_FILESET_PER_OPS: u64 = 512 << 10;
const SFS_SF_CACHE_BYTES: u64 = (64 << 20) * SFS_FILESET_PER_OPS / (1 << 20);
const SFS_STORAGE_CACHE_BYTES: u64 = (32 << 20) * SFS_FILESET_PER_OPS / (1 << 20);

/// The `ec` bench's (6,4) cycle: clients, bytes per file, storage nodes,
/// crashed site.
const CODED_CLIENTS: usize = 8;
const CODED_BYTES: u64 = 8 << 20;
const CODED_NODES: usize = 6;
const CODED_VICTIM: usize = 0;
const CODED_N_K: (u32, u32) = (6, 4);

/// Upper bound on client start offsets drawn from the seed.
const MAX_STAGGER_NS: u64 = 1_000_000;
/// Trailing drain after the clients finish (as `run_to_completion`).
const DRAIN_HORIZON: SimDuration = SimDuration::from_secs(10);
/// Simulated-time cap on every phase; hitting it fails a check.
const DEADLINE: SimDuration = SimDuration::from_secs(3600);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wl {
    Untar,
    Bulk,
    Sfs,
    Coded,
}

impl Wl {
    pub const ALL: [Wl; 4] = [Wl::Untar, Wl::Bulk, Wl::Sfs, Wl::Coded];

    pub fn name(self) -> &'static str {
        match self {
            Wl::Untar => "untar",
            Wl::Bulk => "bulk",
            Wl::Sfs => "sfs",
            Wl::Coded => "coded",
        }
    }

    pub fn parse(s: &str) -> Option<Wl> {
        Wl::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the measured run.
    pub wall_s: f64,
    /// FNV-1a of the ensemble's `obs_json()` at the end of the run.
    pub digest: u64,
    /// Every simulated result, by name. Repeats exactly for a seed.
    pub sim: Vec<(&'static str, f64)>,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Client operations attempted and failed (timed out).
    pub attempted: u64,
    pub failed: u64,
    /// Engine events executed in the measured run.
    pub events: u64,
    /// Spans and reply mix, in a traced repetition.
    pub recording: Option<Recording>,
}

impl Rep {
    pub fn get(&self, name: &str) -> f64 {
        self.sim
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Runs one repetition; `traced` installs the span recorder and wraps
/// every workload in [`Timed`].
pub fn run(wl: Wl, seed: u64, traced: bool) -> Rep {
    if traced {
        trace::start();
    }
    let mut rep = match wl {
        Wl::Untar => untar(seed),
        Wl::Bulk => bulk(seed),
        Wl::Sfs => sfs(seed),
        Wl::Coded => coded(seed),
    };
    if traced {
        rep.recording = Some(trace::finish());
    }
    rep
}

/// Client `i`'s start offset and name namespace under `seed`.
fn stagger(seed: u64, i: usize) -> SimDuration {
    let mut rng = Rng::stream(seed, i as u64);
    SimDuration::from_nanos(rng.gen_range(0..MAX_STAGGER_NS))
}

fn namespace(seed: u64, i: usize) -> u64 {
    (seed << 16) | i as u64
}

/// Wraps a generator for the ensemble: seeded start offset, and the
/// callback timer when a recorder is installed.
fn client_load(seed: u64, i: usize, w: Box<dyn Workload>) -> Box<dyn Workload> {
    let w: Box<dyn Workload> = Box::new(Staggered::new(w, stagger(seed, i)));
    if trace::active() {
        Box::new(Timed(w))
    } else {
        w
    }
}

/// Replaces client `i`'s workload mid-run and starts it.
fn next_phase(ens: &mut SliceEnsemble, seed: u64, i: usize, w: Box<dyn Workload>) {
    let w = client_load(seed, i, w);
    ens.client_mut(i).set_workload(w);
    let c = ens.clients[i];
    ens.engine.kick(c);
}

fn step(ens: &mut SliceEnsemble, to: SimTime) {
    trace::span(STEP, || ens.engine.run_until(to));
}

fn next_second(ens: &SliceEnsemble, cap: SimTime) -> SimTime {
    (ens.engine.now() + SimDuration::from_secs(1)).min(cap)
}

fn all_finished(ens: &SliceEnsemble) -> bool {
    ens.clients
        .iter()
        .all(|&c| ens.engine.actor::<ClientActor>(c).finished())
}

/// `SliceEnsemble::run_to_completion`, step for step, with each
/// `run_until` step recorded as a span: whole simulated seconds until
/// every client finishes, then a drain of at most [`DRAIN_HORIZON`].
fn complete(ens: &mut SliceEnsemble) -> SimTime {
    let deadline = ens.engine.now() + DEADLINE;
    loop {
        step(ens, next_second(ens, deadline));
        if all_finished(ens) {
            let cap = ens.engine.now() + DRAIN_HORIZON;
            while ens.engine.live_events() > 0 && ens.engine.now() < cap {
                step(ens, next_second(ens, cap));
            }
            return ens.engine.now();
        }
        if ens.engine.now() >= deadline || ens.engine.live_events() == 0 {
            return ens.engine.now();
        }
    }
}

fn build(cfg: &SliceConfig, seed: u64, loads: Vec<Box<dyn Workload>>) -> SliceEnsemble {
    let loads = loads
        .into_iter()
        .enumerate()
        .map(|(i, w)| client_load(seed, i, w))
        .collect();
    let mut ens = SliceEnsemble::build(cfg, loads);
    ens.start();
    ens
}

fn workload<T: 'static>(ens: &SliceEnsemble, i: usize) -> &T {
    ens.client(i)
        .workload()
        .and_then(|w| w.as_any().downcast_ref::<T>())
        .expect("client runs the workload it was built with")
}

/// CPU busy time of every node, to charge utilisation to the measured run.
fn busy(ens: &SliceEnsemble) -> Vec<u64> {
    (0..node_count(ens))
        .map(|n| ens.engine.node_stats(NodeId(n as u32)).cpu_busy.as_nanos())
        .collect()
}

fn node_count(ens: &SliceEnsemble) -> usize {
    ens.clients.len() + ens.dirs.len() + ens.sfs.len() + ens.storage.len() + ens.coords.len()
}

/// State at the start of the measured run.
struct Mark {
    host: Instant,
    sim: SimTime,
    events: u64,
    busy: Vec<u64>,
}

impl Mark {
    fn take(ens: &SliceEnsemble) -> Self {
        Mark {
            host: Instant::now(),
            sim: ens.engine.now(),
            events: ens.engine.events_executed(),
            busy: busy(ens),
        }
    }
}

/// Times set-up: everything `f` does before the measured run.
fn setup<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = trace::span(SETUP, f);
    (out, t.elapsed().as_secs_f64())
}

/// Closes a repetition: host wall time, digest, and the results every
/// workload shares (op rate and latency, per-layer counts).
fn finish(
    mut ens: SliceEnsemble,
    mark: Mark,
    wall_s: f64,
    setup_s: f64,
    ops_per_s: f64,
    mut lat: LatencyStats,
    mut rep: Rep,
) -> Rep {
    rep.setup_s = setup_s;
    rep.wall_s = wall_s;
    let json = ens.obs_json();
    rep.digest = slice::hashes::fnv1a(json.as_bytes());
    rep.events = ens.engine.events_executed() - mark.events;
    let elapsed = (ens.engine.now() - mark.sim).as_secs_f64();
    let (mut ops, mut timeouts) = (0, 0);
    for i in 0..ens.clients.len() {
        ops += ens.client(i).stats().ops;
        timeouts += ens.client(i).stats().timeouts;
    }
    rep.attempted = ops + timeouts;
    rep.failed = timeouts;
    let n = lat.count();
    // `quantile` picks sample round((n - 1) q) of the sorted samples;
    // the samples ranked after the p99 one are its tail.
    let beyond = n.saturating_sub(1 + ((n.saturating_sub(1)) as f64 * 0.99).round() as usize);
    rep.check(ops_per_s > 0.0, || "no operations completed".into());
    rep.sim.extend([
        ("sim_ops_per_s", ops_per_s),
        ("op_p50_ms", lat.quantile(0.5).as_secs_f64() * 1e3),
        ("op_p99_ms", lat.quantile(0.99).as_secs_f64() * 1e3),
        ("op_samples", n as f64),
        ("op_samples_beyond_p99", beyond as f64),
        (
            "failed_op_ratio",
            timeouts as f64 / rep.attempted.max(1) as f64,
        ),
    ]);
    rep.check(beyond >= 10, || {
        format!("only {beyond} latency samples beyond p99 (of {n})")
    });
    rep.sim
        .extend(crate::layers::counts(&ens, &mark.busy, elapsed));
    rep
}

fn merged_client_latency(ens: &SliceEnsemble) -> LatencyStats {
    let mut lat = LatencyStats::new();
    for i in 0..ens.clients.len() {
        lat.merge(&ens.client(i).stats().latency);
    }
    lat
}

fn total_ops(ens: &SliceEnsemble) -> u64 {
    (0..ens.clients.len())
        .map(|i| ens.client(i).stats().ops)
        .sum()
}

fn stored_bytes(ens: &SliceEnsemble) -> u64 {
    ens.storage
        .iter()
        .map(|&s| {
            ens.engine
                .actor::<StorageActor>(s)
                .node
                .store()
                .bytes_used()
        })
        .sum()
}

/// Fig. 3: closed-loop untar processes against Slice-4 with mkdir
/// switching, metadata-only stores.
fn untar(seed: u64) -> Rep {
    let cfg = SliceConfig {
        clients: UNTAR_PROCS,
        dir_servers: UNTAR_DIR_SERVERS,
        storage_nodes: 8,
        policy: EnsemblePolicy::MkdirSwitching {
            redirect_millis: 250,
        },
        retain_data: false,
        seed,
        ..SliceConfig::default()
    };
    let (mut ens, setup_s) = setup(|| {
        let loads = (0..UNTAR_PROCS)
            .map(|i| Box::new(Untar::new(namespace(seed, i), UNTAR_FILES)) as Box<dyn Workload>)
            .collect();
        build(&cfg, seed, loads)
    });
    let mark = Mark::take(&ens);
    trace::span(RUN, || complete(&mut ens));
    let wall_s = mark.host.elapsed().as_secs_f64();

    let mut rep = Rep::default();
    // Each process's own op rate, summed: the aggregate the processes
    // see, rather than one straggler's makespan.
    let (mut rate, mut mean) = (0.0, 0.0);
    for i in 0..UNTAR_PROCS {
        let u = workload::<Untar>(&ens, i);
        match u.elapsed() {
            Some(e) => {
                rate += u.nfs_ops() as f64 / e.as_secs_f64();
                mean += e.as_secs_f64() / UNTAR_PROCS as f64;
            }
            None => rep
                .failures
                .push(format!("untar process {i} did not finish")),
        }
    }
    rep.sim.push(("untar_mean_s", mean));
    let lat = merged_client_latency(&ens);
    finish(ens, mark, wall_s, setup_s, rate, lat, rep)
}

/// Table 2: closed-loop mirrored writers, then readers of the same files.
fn bulk(seed: u64) -> Rep {
    let cfg = SliceConfig {
        clients: BULK_CLIENTS,
        storage_nodes: BULK_NODES,
        storage_cache_bytes: BULK_CACHE_BYTES,
        retain_data: false,
        seed,
        ..SliceConfig::default()
    };
    let name = |i: usize| format!("dd{}", namespace(seed, i));
    let (mut ens, setup_s) = setup(|| {
        let loads = (0..BULK_CLIENTS)
            .map(|i| Box::new(BulkIo::writer(&name(i), BULK_BYTES, true)) as Box<dyn Workload>)
            .collect();
        build(&cfg, seed, loads)
    });
    let mark = Mark::take(&ens);
    let mut rep = Rep::default();
    let phase = |ens: &mut SliceEnsemble, rep: &mut Rep, what: &str| -> f64 {
        trace::span(RUN, || complete(ens));
        let mut secs = 0.0f64;
        for i in 0..BULK_CLIENTS {
            let b = workload::<BulkIo>(ens, i);
            rep.check(b.finished() && b.completed_bytes() >= BULK_BYTES, || {
                format!(
                    "bulk {what} {i} moved {} of {BULK_BYTES} bytes",
                    b.completed_bytes()
                )
            });
            secs = secs.max(BULK_BYTES as f64 / b.bandwidth().unwrap_or(f64::MIN_POSITIVE));
        }
        secs
    };
    let write_s = phase(&mut ens, &mut rep, "writer");
    for i in 0..BULK_CLIENTS {
        next_phase(
            &mut ens,
            seed,
            i,
            Box::new(BulkIo::reader(&name(i), BULK_BYTES)),
        );
    }
    let read_s = phase(&mut ens, &mut rep, "reader");
    let wall_s = mark.host.elapsed().as_secs_f64();

    let total = (BULK_CLIENTS as u64 * BULK_BYTES) as f64;
    let (write_mb_s, read_mb_s) = (total / write_s / 1e6, total / read_s / 1e6);
    let user = BULK_CLIENTS as u64 * BULK_BYTES.saturating_sub(slice::smallfile::SF_THRESHOLD);
    let err = ((write_mb_s - PAPER_MIRRORED_WRITE_MB_S).abs() / PAPER_MIRRORED_WRITE_MB_S
        + (read_mb_s - PAPER_MIRRORED_READ_MB_S).abs() / PAPER_MIRRORED_READ_MB_S)
        / 2.0
        * 100.0;
    let ops_per_s = total_ops(&ens) as f64 / (write_s + read_s);
    rep.sim.extend([
        ("write_mb_s", write_mb_s),
        ("read_mb_s", read_mb_s),
        (
            "stored_per_user_byte",
            stored_bytes(&ens) as f64 / user as f64,
        ),
        ("paper_err_pct", err),
    ]);
    let lat = merged_client_latency(&ens);
    finish(ens, mark, wall_s, setup_s, ops_per_s, lat, rep)
}

/// Figs. 5–6: the SFS97 mix, open loop, against Slice-8. Set-up covers
/// the unmeasured file-set population and warm-up, up to the first
/// measured sample.
fn sfs(seed: u64) -> Rep {
    let cfg = SliceConfig {
        clients: SFS_PROCS,
        storage_nodes: SFS_NODES,
        dir_servers: 1,
        sf_servers: 2,
        sf_cache_bytes: SFS_SF_CACHE_BYTES,
        storage_cache_bytes: SFS_STORAGE_CACHE_BYTES,
        retain_data: false,
        seed,
        ..SliceConfig::default()
    };
    let per_proc = SFS_OFFERED / SFS_PROCS as f64;
    let (mut ens, setup_s) = setup(|| {
        let loads = (0..SFS_PROCS)
            .map(|i| {
                let c = SpecSfsConfig {
                    measure: SFS_MEASURE,
                    fileset_bytes_per_ops: SFS_FILESET_PER_OPS,
                    ..SpecSfsConfig::new(namespace(seed, i), per_proc)
                };
                Box::new(SpecSfs::new(c)) as Box<dyn Workload>
            })
            .collect();
        let mut ens = build(&cfg, seed, loads);
        let deadline = SimTime::ZERO + DEADLINE;
        while ens.engine.now() < deadline
            && (0..SFS_PROCS).all(|i| workload::<SpecSfs>(&ens, i).latency.count() == 0)
        {
            let to = next_second(&ens, deadline);
            step(&mut ens, to);
        }
        ens
    });
    let mark = Mark::take(&ens);
    trace::span(RUN, || complete(&mut ens));
    let wall_s = mark.host.elapsed().as_secs_f64();

    let mut rep = Rep::default();
    let now = ens.engine.now();
    let (mut iops, mut measured) = (0.0, 0u64);
    let mut lat = LatencyStats::new();
    for i in 0..SFS_PROCS {
        let s = workload::<SpecSfs>(&ens, i);
        rep.check(s.finished(), || format!("sfs process {i} did not finish"));
        iops += s.delivered_iops(now);
        measured += s.latency.count() as u64;
        lat.merge(&s.latency);
    }
    let window = SFS_MEASURE.as_secs_f64();
    rep.sim.push((
        "workloads.sfs_lag_ratio",
        measured as f64 / (SFS_OFFERED * window),
    ));
    finish(ens, mark, wall_s, setup_s, iops, lat, rep)
}

/// The `ec` bench's (6,4) cycle: clean write, clean read, crash one
/// storage site, degraded write, degraded read, recover, resync, and a
/// read of the degraded-written data after resync. Every read is checked
/// byte for byte against what was written.
fn coded(seed: u64) -> Rep {
    let cfg = SliceConfig {
        clients: CODED_CLIENTS,
        storage_nodes: CODED_NODES,
        retain_data: true,
        // No small-file tier: its backing store keeps one copy per zone,
        // so while a storage site is down, writes below the threshold
        // whose zone maps to that site time out (see README.md, "Known
        // defects"). Without it every byte takes the coded path.
        sf_servers: 0,
        coded: Some(CODED_N_K),
        probe_interval_ms: 500,
        seed,
        ..SliceConfig::default()
    };
    // Pass `a` is written clean and read clean, then degraded; pass `b`
    // is written degraded and read back once resync has run.
    let load = |i: usize, pass: char, write: bool| -> Box<dyn Workload> {
        let (name, key) = (
            format!("ec{}{pass}", namespace(seed, i)),
            namespace(seed, i) ^ u64::from(pass),
        );
        Box::new(if write {
            PatternIo::writer(&name, key, CODED_BYTES)
        } else {
            PatternIo::reader(&name, key, CODED_BYTES)
        })
    };
    let (mut ens, setup_s) = setup(|| {
        let loads = (0..CODED_CLIENTS).map(|i| load(i, 'a', true)).collect();
        build(&cfg, seed, loads)
    });
    let mark = Mark::take(&ens);
    let mut rep = Rep::default();
    // Runs the current pass to completion, checks every client moved and
    // verified all its bytes, and returns the slowest client's seconds.
    let run_pass = |ens: &mut SliceEnsemble, rep: &mut Rep, what: &str| -> f64 {
        trace::span(RUN, || complete(ens));
        let mut secs = 0.0f64;
        for i in 0..CODED_CLIENTS {
            let p = workload::<PatternIo>(ens, i);
            rep.check(
                p.finished() && p.done_bytes() == CODED_BYTES && p.mismatches == 0 && p.errors == 0,
                || {
                    format!(
                        "coded {what} {i}: {} of {CODED_BYTES} bytes, {} mismatched reads, {} errors",
                        p.done_bytes(),
                        p.mismatches,
                        p.errors
                    )
                },
            );
            secs = secs.max(p.secs().unwrap_or(0.0));
        }
        secs
    };
    let next_pass = |ens: &mut SliceEnsemble, pass: char, write: bool| {
        for i in 0..CODED_CLIENTS {
            next_phase(ens, seed, i, load(i, pass, write));
        }
    };
    let write_s = run_pass(&mut ens, &mut rep, "clean write");
    next_pass(&mut ens, 'a', false);
    let clean_read_s = run_pass(&mut ens, &mut rep, "clean read");
    ens.engine.fail_node(ens.storage[CODED_VICTIM]);
    next_pass(&mut ens, 'b', true);
    let degraded_write_s = run_pass(&mut ens, &mut rep, "degraded write");
    next_pass(&mut ens, 'a', false);
    let read_s = run_pass(&mut ens, &mut rep, "degraded read");

    let recover_at = ens.engine.now();
    ens.recover_storage_node(CODED_VICTIM);
    let deadline = recover_at + DEADLINE;
    let resync_done = |ens: &SliceEnsemble| -> Option<SimTime> {
        let mut done = None;
        for &c in &ens.coords {
            let coord = &ens.engine.actor::<CoordActor>(c).coord;
            if !coord.dirty_log_dump().is_empty() {
                return None;
            }
            for &(site, _, at, _) in coord.resync_history() {
                if site as usize == CODED_VICTIM {
                    done = Some(done.map_or(at, |d: SimTime| d.max(at)));
                }
            }
        }
        done
    };
    trace::span(RUN, || {
        while resync_done(&ens).is_none() && ens.engine.now() < deadline {
            let to = next_second(&ens, deadline);
            step(&mut ens, to);
        }
    });
    next_pass(&mut ens, 'b', false);
    let resynced_read_s = run_pass(&mut ens, &mut rep, "read after resync");
    let wall_s = mark.host.elapsed().as_secs_f64();

    let rebuild_s = resync_done(&ens).map(|d| (d - recover_at).as_secs_f64());
    rep.check(rebuild_s.is_some(), || {
        "resync did not restore redundancy".into()
    });
    let recon: u64 = (0..CODED_CLIENTS)
        .filter_map(|i| ens.client(i).proxy().map(|p| p.ec_stats().4))
        .sum();
    rep.check(recon > 0, || "degraded reads reconstructed nothing".into());
    let open_intents: usize = ens
        .coords
        .iter()
        .map(|&c| ens.engine.actor::<CoordActor>(c).coord.open_intents())
        .sum();
    rep.check(open_intents == 0, || {
        format!("{open_intents} intents left open")
    });
    let total = (CODED_CLIENTS as u64 * CODED_BYTES) as f64;
    let user = 2 * CODED_CLIENTS as u64 * CODED_BYTES;
    let io_s = write_s + clean_read_s + degraded_write_s + read_s + resynced_read_s;
    let ops_per_s = total_ops(&ens) as f64 / io_s;
    rep.sim.extend([
        ("write_mb_s", total / write_s / 1e6),
        ("clean_read_mb_s", total / clean_read_s / 1e6),
        ("degraded_write_mb_s", total / degraded_write_s / 1e6),
        ("read_mb_s", total / read_s / 1e6),
        ("rebuild_s", rebuild_s.unwrap_or(0.0)),
        (
            "stored_per_user_byte",
            stored_bytes(&ens) as f64 / user as f64,
        ),
    ]);
    let lat = merged_client_latency(&ens);
    finish(ens, mark, wall_s, setup_s, ops_per_s, lat, rep)
}

/// The ensemble shape each workload's layer replays route over.
pub fn geometry(wl: Wl) -> crate::layers::Geometry {
    let (dir_sites, storage_sites) = match wl {
        Wl::Untar => (UNTAR_DIR_SERVERS, 8),
        Wl::Bulk => (1, BULK_NODES),
        Wl::Sfs => (1, SFS_NODES),
        Wl::Coded => (1, CODED_NODES),
    };
    crate::layers::Geometry {
        dir_sites: dir_sites as u32,
        storage_sites: storage_sites as u32,
        mirrored: matches!(wl, Wl::Bulk | Wl::Coded),
        coded: (wl == Wl::Coded).then_some((CODED_N_K.0, CODED_N_K.1, 64 * 1024)),
    }
}
