//! Experiment runners: one function per paper table/figure, shared by the
//! bench binaries and the calibration tests.

use slice_core::{
    BaselineEnsemble, BaselineKind, EnsemblePolicy, SliceConfig, SliceEnsemble, Workload,
};
use slice_nfsproto::{encode_call, encode_reply, AuthUnix, Packet};
use slice_sim::{Series, SimDuration, SimTime};
use slice_uproxy::{PhaseStats, ProxyConfig, Uproxy};
use slice_workloads::{BulkIo, SpecSfs, SpecSfsConfig, Untar};

/// Command-line lookups shared by the bench binaries. Each scans the
/// arguments after the program name; the first occurrence of a flag wins.
pub mod cli {
    /// The argument after `name`: `None` when `name` is absent,
    /// `Some(None)` when it is the last argument.
    fn value(name: &str) -> Option<Option<String>> {
        let mut args = std::env::args().skip(1);
        args.by_ref().find(|a| a == name)?;
        Some(args.next())
    }

    /// True when the bare flag `name` was passed.
    pub fn flag(name: &str) -> bool {
        std::env::args().skip(1).any(|a| a == name)
    }

    /// The number after `name`, or `default` when `name` is absent;
    /// `None` when the value is missing or does not parse.
    pub fn try_num<T: std::str::FromStr>(name: &str, default: T) -> Option<T> {
        match value(name) {
            None => Some(default),
            Some(v) => v.and_then(|v| v.parse().ok()),
        }
    }

    /// [`try_num`], panicking on a missing or malformed value.
    pub fn num<T: std::str::FromStr>(name: &str, default: T) -> T {
        try_num(name, default).unwrap_or_else(|| panic!("{name} wants a number"))
    }

    /// The path after `name`, if `name` was passed; panics when the
    /// value is missing.
    pub fn path(name: &str) -> Option<String> {
        value(name).map(|v| v.unwrap_or_else(|| panic!("{name} wants a path")))
    }
}

fn deadline_secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// A benchmark-friendly Slice configuration: metadata-only stores, full
/// CPU accounting.
pub fn bench_config() -> SliceConfig {
    SliceConfig {
        retain_data: false,
        charge_cpu: true,
        storage_nodes: 8,
        ..Default::default()
    }
}

/// One Table 2 cell: bulk bandwidth in MB/s.
#[derive(Debug, Clone, Copy)]
pub struct BulkResult {
    /// Delivered bandwidth, bytes/second.
    pub bandwidth_bps: f64,
}

impl BulkResult {
    /// MB/s (decimal, as the paper reports).
    pub fn mbs(&self) -> f64 {
        self.bandwidth_bps / 1e6
    }
}

/// Runs the Table 2 bulk I/O experiment: `clients` writers (then readers)
/// of `bytes_per_client`, mirrored or not. Returns (write, read) aggregate
/// bandwidth.
pub fn run_bulk(clients: usize, bytes_per_client: u64, mirrored: bool) -> (BulkResult, BulkResult) {
    let (w, r, _) = run_bulk_stats(clients, bytes_per_client, mirrored, 1);
    (w, r)
}

/// [`run_bulk`] variant that also harvests engine totals. `shards`
/// partitions the engine across worker threads; all counters are
/// shard-count-invariant.
pub fn run_bulk_stats(
    clients: usize,
    bytes_per_client: u64,
    mirrored: bool,
    shards: usize,
) -> (BulkResult, BulkResult, EngineTotals) {
    let cfg = SliceConfig {
        clients,
        shards,
        ..bench_config()
    };
    let writers: Vec<Box<dyn slice_core::Workload>> = (0..clients)
        .map(|i| {
            Box::new(BulkIo::writer(
                &format!("dd{i}"),
                bytes_per_client,
                mirrored,
            )) as Box<dyn slice_core::Workload>
        })
        .collect();
    let mut ens = SliceEnsemble::build(&cfg, writers);
    ens.start();
    ens.run_to_completion(deadline_secs(3600));
    let mut write_secs: f64 = 0.0;
    for i in 0..clients {
        let w = ens
            .client(i)
            .workload()
            .expect("workload")
            .as_any()
            .downcast_ref::<BulkIo>()
            .expect("bulk");
        assert!(w.finished(), "writer {i} incomplete");
        write_secs = write_secs.max(bytes_per_client as f64 / w.bandwidth().expect("bw"));
    }
    let write_bw = clients as f64 * bytes_per_client as f64 / write_secs;
    // Read phase on the same ensemble (server caches hold only the tail of
    // each file, as after a real dd write pass).
    for i in 0..clients {
        ens.client_mut(i).set_workload(Box::new(BulkIo::reader(
            &format!("dd{i}"),
            bytes_per_client,
        )));
    }
    for &c in &ens.clients.clone() {
        ens.engine.kick(c);
    }
    ens.run_to_completion(deadline_secs(7200));
    let mut read_secs: f64 = 0.0;
    for i in 0..clients {
        let r = ens
            .client(i)
            .workload()
            .expect("workload")
            .as_any()
            .downcast_ref::<BulkIo>()
            .expect("bulk");
        assert!(r.finished(), "reader {i} incomplete");
        read_secs = read_secs.max(bytes_per_client as f64 / r.bandwidth().expect("bw"));
    }
    let read_bw = clients as f64 * bytes_per_client as f64 / read_secs;
    (
        BulkResult {
            bandwidth_bps: write_bw,
        },
        BulkResult {
            bandwidth_bps: read_bw,
        },
        EngineTotals::harvest(&ens.engine),
    )
}

/// Table 3: replay an untar-shaped packet stream through a real µproxy and
/// report measured CPU fractions at the paper's 6250 packets/second rate.
pub fn run_uproxy_phases(pairs: usize) -> PhaseStats {
    run_uproxy_phases_par(pairs, 1)
}

/// Parallel Table 3: splits the file range across workers, each replaying
/// its slice through a private µproxy (disjoint file ids, its own xid
/// stream), then sums the phase timers in range order. Packet counts are
/// thread-count-invariant; the nanosecond timers are host measurements
/// and vary run to run regardless of threads.
pub fn run_uproxy_phases_par(pairs: usize, threads: usize) -> PhaseStats {
    let files = pairs / 7;
    let workers = threads.clamp(1, files.max(1));
    let per = files.div_ceil(workers);
    let ranges: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * per, ((w + 1) * per).min(files)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    let parts = slice_sim::run_indexed(threads, ranges, |_, (lo, hi)| run_uproxy_range(lo, hi));
    let mut total = PhaseStats::default();
    for p in &parts {
        total.absorb(p);
    }
    total
}

/// Replays the untar seven-op sequence for file indices `[lo, hi)`
/// through a fresh µproxy and returns its phase timers.
fn run_uproxy_range(lo: usize, hi: usize) -> PhaseStats {
    use slice_nfsproto::{NfsRequest, Sattr3, SetTime, SockAddr};
    let cfg = ProxyConfig {
        dir_sites: (0..4)
            .map(|i| SockAddr::new(0x0a00_1000 + i, 2049))
            .collect(),
        storage_sites: (0..8)
            .map(|i| SockAddr::new(0x0a00_3000 + i, 2049))
            .collect(),
        measure_phases: true,
        ..ProxyConfig::test_default()
    };
    let mut proxy = Uproxy::new(cfg.clone());
    let cred = AuthUnix::default();
    let root = slice_nfsproto::Fhandle::root();
    let mut now = SimTime::ZERO;
    let mut xid = 1u32;
    // The untar seven-op sequence per created file.
    for i in lo..hi {
        let name = format!("src{i}.c");
        let file = slice_nfsproto::Fhandle::new(1000 + i as u64, 0, 0, 7 * i as u64, 0);
        let reqs = [
            NfsRequest::Lookup {
                dir: root,
                name: name.clone(),
            },
            NfsRequest::Access {
                fh: root,
                mask: 0x3f,
            },
            NfsRequest::Create {
                dir: root,
                name,
                attr: Sattr3::default(),
            },
            NfsRequest::Getattr { fh: file },
            NfsRequest::Lookup {
                dir: root,
                name: format!("src{i}.c"),
            },
            NfsRequest::Setattr {
                fh: file,
                attr: Sattr3 {
                    mtime: SetTime::ServerTime,
                    ..Default::default()
                },
            },
            NfsRequest::Setattr {
                fh: file,
                attr: Sattr3 {
                    mode: Some(0o644),
                    ..Default::default()
                },
            },
        ];
        for req in reqs {
            let pkt = Packet::new(
                cfg.client_addr,
                cfg.virtual_addr,
                encode_call(xid, &cred, &req),
            );
            let outs = proxy.outbound(now, pkt);
            // Synthesize the matching reply from the routed destination.
            for o in outs {
                if let slice_uproxy::ProxyOut::Net(p) = o {
                    let attr = slice_nfsproto::Fattr3::new(
                        slice_nfsproto::FileType::Regular,
                        1000 + i as u64,
                        0o644,
                        slice_nfsproto::NfsTime::default(),
                    );
                    let reply = slice_nfsproto::NfsReply::ok(req.proc(), attr);
                    let rp = Packet::new(p.dst, cfg.client_addr, encode_reply(xid, &reply));
                    proxy.inbound(now, rp);
                }
            }
            xid += 1;
            now += SimDuration::from_micros(160);
        }
    }
    proxy.phase_stats()
}

/// Engine-level totals harvested after a run, for the `perf` baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTotals {
    /// Packets handed to the network model.
    pub packets: u64,
    /// Payload bytes handed to the network model.
    pub bytes: u64,
    /// Events executed.
    pub events: u64,
    /// High-water mark of concurrently live events in the slab.
    pub peak_live_events: usize,
    /// Time windows executed (serial + barrier-synchronized parallel).
    pub windows: u64,
    /// Barrier crossings paid by the parallel window loop.
    pub barrier_rounds: u64,
}

impl EngineTotals {
    fn harvest<M: slice_sim::MessageSize + Clone + Send + 'static>(
        engine: &slice_sim::Engine<M>,
    ) -> Self {
        EngineTotals {
            packets: engine.packets_sent(),
            bytes: engine.bytes_sent(),
            events: engine.events_executed(),
            peak_live_events: engine.peak_live_events(),
            windows: engine.shard_windows(),
            barrier_rounds: engine.shard_barrier_rounds(),
        }
    }

    /// Accumulates another run's totals (peaks take the max).
    pub fn absorb(&mut self, other: EngineTotals) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.events += other.events;
        self.peak_live_events = self.peak_live_events.max(other.peak_live_events);
        self.windows += other.windows;
        self.barrier_rounds += other.barrier_rounds;
    }
}

/// Figure 3 / Figure 4: untar latency per process.
///
/// Returns the mean elapsed seconds per process.
pub fn run_untar_slice(
    processes: usize,
    dir_servers: usize,
    files_per_process: u64,
    policy: EnsemblePolicy,
) -> f64 {
    run_untar_slice_stats(processes, dir_servers, files_per_process, policy, 1).0
}

/// [`run_untar_slice`] variant that also harvests engine totals.
/// `shards` partitions the engine across worker threads; results and
/// counters are shard-count-invariant.
pub fn run_untar_slice_stats(
    processes: usize,
    dir_servers: usize,
    files_per_process: u64,
    policy: EnsemblePolicy,
    shards: usize,
) -> (f64, EngineTotals) {
    let cfg = SliceConfig {
        clients: processes,
        dir_servers,
        policy,
        shards,
        ..bench_config()
    };
    let workloads: Vec<Box<dyn slice_core::Workload>> = (0..processes)
        .map(|i| Box::new(Untar::new(i as u64, files_per_process)) as Box<dyn slice_core::Workload>)
        .collect();
    let mut ens = SliceEnsemble::build(&cfg, workloads);
    ens.start();
    ens.run_to_completion(deadline_secs(36_000));
    let mut total = 0.0;
    for i in 0..processes {
        let u = ens
            .client(i)
            .workload()
            .expect("workload")
            .as_any()
            .downcast_ref::<Untar>()
            .expect("untar");
        total += u
            .elapsed()
            .unwrap_or_else(|| panic!("process {i} unfinished"))
            .as_secs_f64();
    }
    (total / processes as f64, EngineTotals::harvest(&ens.engine))
}

/// Figure 3 baseline: untar against the MFS memory file server.
pub fn run_untar_mfs(processes: usize, files_per_process: u64) -> f64 {
    run_untar_mfs_stats(processes, files_per_process, 1).0
}

/// [`run_untar_mfs`] variant that also harvests engine totals. `shards`
/// partitions the engine across worker threads (server on shard 0,
/// clients round-robin); results are shard-count-invariant.
pub fn run_untar_mfs_stats(
    processes: usize,
    files_per_process: u64,
    shards: usize,
) -> (f64, EngineTotals) {
    let workloads: Vec<Box<dyn slice_core::Workload>> = (0..processes)
        .map(|i| Box::new(Untar::new(i as u64, files_per_process)) as Box<dyn slice_core::Workload>)
        .collect();
    let mut ens = BaselineEnsemble::build(BaselineKind::Mfs, 8, false, true, 42, workloads);
    ens.set_shards(shards);
    ens.start();
    ens.run_to_completion(deadline_secs(36_000));
    let mut total = 0.0;
    for i in 0..processes {
        let u = ens
            .client(i)
            .workload()
            .expect("workload")
            .as_any()
            .downcast_ref::<Untar>()
            .expect("untar");
        total += u
            .elapsed()
            .unwrap_or_else(|| panic!("process {i} unfinished"))
            .as_secs_f64();
    }
    (total / processes as f64, EngineTotals::harvest(&ens.engine))
}

/// Result of one SPECsfs-like run.
#[derive(Debug, Clone, Copy)]
pub struct SfsResult {
    /// Offered load, IOPS (aggregate).
    pub offered: f64,
    /// Delivered throughput, IOPS (aggregate).
    pub delivered: f64,
    /// Mean latency, milliseconds.
    pub latency_ms: f64,
}

/// Runs a SPECsfs-like point against a Slice ensemble with
/// `storage_nodes` nodes at aggregate `offered` IOPS over `processes`
/// generator processes.
pub fn run_sfs_slice(storage_nodes: usize, processes: usize, offered: f64) -> SfsResult {
    let cfg = SliceConfig {
        clients: processes,
        storage_nodes,
        dir_servers: 1,
        sf_servers: 2,
        // Scale the small-file caches with the reduced file-set scale
        // factor (see slice-workloads::specsfs docs).
        sf_cache_bytes: 64 * 1024 * 1024,
        storage_cache_bytes: 32 * 1024 * 1024,
        ..bench_config()
    };
    let per = offered / processes as f64;
    let workloads: Vec<Box<dyn slice_core::Workload>> = (0..processes)
        .map(|i| {
            Box::new(SpecSfs::new(SpecSfsConfig::new(i as u64, per)))
                as Box<dyn slice_core::Workload>
        })
        .collect();
    let mut ens = SliceEnsemble::build(&cfg, workloads);
    ens.start();
    ens.run_to_completion(deadline_secs(36_000));
    collect_sfs(
        offered,
        (0..processes).map(|i| {
            ens.client(i)
                .workload()
                .expect("workload")
                .as_any()
                .downcast_ref::<SpecSfs>()
                .expect("sfs")
                .summary(ens.engine.now())
        }),
    )
}

/// Runs a SPECsfs-like point against the monolithic NFS baseline.
pub fn run_sfs_baseline(processes: usize, offered: f64) -> SfsResult {
    let per = offered / processes as f64;
    let workloads: Vec<Box<dyn slice_core::Workload>> = (0..processes)
        .map(|i| {
            Box::new(SpecSfs::new(SpecSfsConfig::new(i as u64, per)))
                as Box<dyn slice_core::Workload>
        })
        .collect();
    let mut ens = BaselineEnsemble::build(BaselineKind::NfsFfs, 8, false, true, 42, workloads);
    ens.start();
    ens.run_to_completion(deadline_secs(36_000));
    let now = ens.engine.now();
    collect_sfs(
        offered,
        (0..processes).map(|i| {
            ens.client(i)
                .workload()
                .expect("workload")
                .as_any()
                .downcast_ref::<SpecSfs>()
                .expect("sfs")
                .summary(now)
        }),
    )
}

fn collect_sfs(offered: f64, parts: impl Iterator<Item = (f64, f64, usize)>) -> SfsResult {
    let mut delivered = 0.0;
    let mut lat_weighted = 0.0;
    let mut samples = 0usize;
    for (iops, mean_ms, n) in parts {
        delivered += iops;
        lat_weighted += mean_ms * n as f64;
        samples += n;
    }
    SfsResult {
        offered,
        delivered,
        latency_ms: if samples == 0 {
            0.0
        } else {
            lat_weighted / samples as f64
        },
    }
}

/// Renders a labelled series list for terminal output.
pub fn print_series(x_label: &str, y_label: &str, series: &[Series]) {
    println!("{}", slice_sim::render_table(x_label, y_label, series));
}

/// Builds a one-off slice-obs document: `fill` populates the registry and
/// the deterministic JSON export comes back — the canonical
/// machine-readable output of every figure/table binary.
pub fn obs_doc(fill: impl FnOnce(&mut slice_obs::Registry)) -> String {
    let mut obs = slice_obs::Obs::with_trace_capacity(1);
    fill(&mut obs.registry);
    obs.export_json(0)
}

/// Folds result series into a slice-obs document. Gauge names are
/// `<figure>.<series label>.<x>`.
pub fn series_obs_json(figure: &str, series: &[Series]) -> String {
    obs_doc(|reg| {
        for s in series {
            for &(x, y) in &s.points {
                reg.set_gauge(&format!("{figure}.{}.{x}", s.label), y);
            }
        }
    })
}

/// Folds measured µproxy phase costs into a slice-obs document.
pub fn phases_obs_json(table: &str, ph: &PhaseStats) -> String {
    obs_doc(|reg| {
        reg.set(&format!("{table}.packets"), ph.packets);
        reg.set(&format!("{table}.intercept_ns"), ph.intercept_ns);
        reg.set(&format!("{table}.decode_ns"), ph.decode_ns);
        reg.set(&format!("{table}.rewrite_ns"), ph.rewrite_ns);
        reg.set(&format!("{table}.soft_ns"), ph.soft_ns);
    })
}

/// Locates the repository root at runtime: the first ancestor of the
/// current working directory (then of the binary's own path) containing a
/// `Cargo.lock`. Compile-time `CARGO_MANIFEST_DIR` is wrong whenever the
/// binary runs from a different checkout or a CI workspace; walking up at
/// runtime finds the root of whichever tree actually invoked us. Falls
/// back to `.` when no lockfile is found (bare binary outside any
/// checkout).
pub fn repo_root() -> std::path::PathBuf {
    fn ascend(start: &std::path::Path) -> Option<std::path::PathBuf> {
        let mut dir = start;
        loop {
            if dir.join("Cargo.lock").exists() {
                return Some(dir.to_path_buf());
            }
            dir = dir.parent()?;
        }
    }
    if let Some(root) = std::env::current_dir().ok().and_then(|d| ascend(&d)) {
        return root;
    }
    if let Some(root) = std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().and_then(ascend))
    {
        return root;
    }
    std::path::PathBuf::from(".")
}

/// Writes `json` to `BENCH_<name>.json` at the repository root when the
/// invoking binary was passed `--json-out`; otherwise does nothing. The
/// snapshot files are gitignored run artifacts consumed by plotting and
/// regression tooling.
pub fn maybe_write_json(name: &str, json: &str) {
    if !cli::flag("--json-out") {
        return;
    }
    write_json(name, json);
}

/// Unconditionally writes `json` to `BENCH_<name>.json` at the repository
/// root (resolved at runtime; see [`repo_root`]).
pub fn write_json(name: &str, json: &str) {
    let file = repo_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&file, json).unwrap_or_else(|e| panic!("write {}: {e}", file.display()));
    eprintln!("wrote {}", file.display());
}
