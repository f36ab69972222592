//! Per-layer numbers: deterministic counts read from the ensemble after a
//! run, and host timings from replaying the run's reply mix through each
//! layer's public functions.

use crate::trace::{self, Mix};
use slice::core::actors::{CoordActor, DirActor};
use slice::core::SliceEnsemble;
use slice::nfsproto::{
    decode_call, decode_reply, encode_call, encode_reply, AuthUnix, Fattr3, Fhandle, FileType,
    NfsProc, NfsReply, NfsRequest, NfsTime, Packet, ReplyBody, Sattr3, SockAddr, StableHow,
    FH_FLAG_MIRRORED,
};
use slice::sim::{NodeId, SimDuration, SimTime};
use slice::uproxy::{PhaseStats, ProxyConfig, ProxyNamePolicy, ProxyOut, Uproxy};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sum of counters named `<class>.<index>.<field>`.
fn sum(reg: &slice::obs::Registry, class: &str, field: &str) -> u64 {
    reg.counters()
        .filter(|(k, _)| indexed(k, class, field))
        .map(|(_, v)| v)
        .sum()
}

fn indexed(key: &str, class: &str, field: &str) -> bool {
    key.strip_prefix(class)
        .and_then(|r| r.strip_prefix('.'))
        .and_then(|r| r.split_once('.'))
        .is_some_and(|(ix, rest)| ix.bytes().all(|b| b.is_ascii_digit()) && rest == field)
}

/// Served-weighted mean of per-server ratio gauges `<class>.<i>.<gauge>`.
fn weighted(reg: &slice::obs::Registry, class: &str, gauge: &str, weight: &[u64]) -> f64 {
    let total: u64 = weight.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for (i, w) in weight.iter().enumerate() {
        let g = reg.gauge(&format!("{class}.{i}.{gauge}")).unwrap_or(0.0);
        acc += g * *w as f64;
    }
    acc / total as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Deterministic per-layer counts after `obs_json()` has folded the
/// component statistics. Utilisation is the busiest node of a class over
/// the measured run's simulated time (`busy0` is every node's CPU busy
/// nanoseconds at its start).
pub fn counts(ens: &SliceEnsemble, busy0: &[u64], elapsed: f64) -> Vec<(&'static str, f64)> {
    let reg = &ens.engine.obs().registry;
    let util = |nodes: &[NodeId]| -> f64 {
        nodes
            .iter()
            .map(|&n| {
                let b = ens.engine.node_stats(n).cpu_busy.as_nanos() - busy0[n.0 as usize];
                b as f64 / 1e9 / elapsed.max(f64::MIN_POSITIVE)
            })
            .fold(0.0, f64::max)
    };
    let c = |field: &str| sum(reg, "client", field);
    let (hits, misses) = (c("uproxy.attr_cache.hits"), c("uproxy.attr_cache.misses"));
    // WAL (appends, group-commit batches) from the accessors: the
    // registry files a WAL's batch count under `wal.bytes`.
    let wal = |stats: &mut dyn Iterator<Item = (u64, u64, u64)>| {
        stats.fold((0, 0), |(a, b), (appends, batches, _)| {
            (a + appends, b + batches)
        })
    };
    let (dir_appends, dir_syncs) = wal(&mut ens
        .dirs
        .iter()
        .map(|&d| ens.engine.actor::<DirActor>(d).server.wal_stats()));
    let sf_served: Vec<u64> = (0..ens.sfs.len())
        .map(|i| reg.counter(&format!("smallfile.{i}.served")))
        .collect();
    let st_reads: Vec<u64> = (0..ens.storage.len())
        .map(|i| reg.counter(&format!("storage.{i}.reads")))
        .collect();
    let disk_ops = sum(reg, "storage", "disk.reads") + sum(reg, "storage", "disk.writes");
    let (co_appends, co_syncs) = wal(&mut ens
        .coords
        .iter()
        .map(|&c| ens.engine.actor::<CoordActor>(c).coord.wal_stats()));
    vec![
        ("sim.events", ens.engine.events_executed() as f64),
        ("sim.packets", ens.engine.packets_sent() as f64),
        ("sim.bytes", ens.engine.bytes_sent() as f64),
        ("sim.windows", ens.engine.shard_windows() as f64),
        ("sim.peak_live_events", ens.engine.peak_live_events() as f64),
        ("core.ops", c("ops") as f64),
        ("core.retransmits", c("retransmits") as f64),
        ("core.timeouts", c("timeouts") as f64),
        ("core.client_cpu_util", util(&ens.clients)),
        ("uproxy.requests_routed", c("uproxy.requests_routed") as f64),
        ("uproxy.replies_routed", c("uproxy.replies_routed") as f64),
        ("uproxy.absorbed", c("uproxy.absorbed") as f64),
        (
            "uproxy.stale_table_bounces",
            c("uproxy.stale_table_bounces") as f64,
        ),
        (
            "uproxy.soft_state_entries",
            c("uproxy.soft_state.entries") as f64,
        ),
        ("uproxy.attr_hit_ratio", ratio(hits, hits + misses)),
        ("uproxy.attr_lookups", (hits + misses) as f64),
        (
            "nfsproto.shallow_clones",
            reg.counter("payload.shallow_clones") as f64,
        ),
        (
            "nfsproto.deep_copy_bytes",
            reg.counter("payload.deep_copy_bytes") as f64,
        ),
        ("dirsvc.ops", sum(reg, "dirsvc", "ops_served") as f64),
        (
            "dirsvc.multisite_ops",
            sum(reg, "dirsvc", "multisite_ops") as f64,
        ),
        (
            "dirsvc.misdirected",
            sum(reg, "dirsvc", "misdirected") as f64,
        ),
        ("dirsvc.wal_appends_per_sync", ratio(dir_appends, dir_syncs)),
        ("dirsvc.wal_syncs", dir_syncs as f64),
        ("dirsvc.cpu_util", util(&ens.dirs)),
        ("smallfile.served", sf_served.iter().sum::<u64>() as f64),
        (
            "smallfile.cache_hit_ratio",
            weighted(reg, "smallfile", "cache_hit_ratio", &sf_served),
        ),
        (
            // The registry files the allocator's free bytes under
            // `alloc.spills`; the allocator keeps no spill count.
            "smallfile.alloc_free_bytes",
            sum(reg, "smallfile", "alloc.spills") as f64,
        ),
        ("smallfile.cpu_util", util(&ens.sfs)),
        ("storage.reads", st_reads.iter().sum::<u64>() as f64),
        ("storage.writes", sum(reg, "storage", "writes") as f64),
        (
            "storage.cache_hit_ratio",
            weighted(reg, "storage", "cache_hit_ratio", &st_reads),
        ),
        ("storage.disk_ops", disk_ops as f64),
        (
            "storage.disk_bytes",
            sum(reg, "storage", "disk.bytes") as f64,
        ),
        (
            "storage.disk_seq_ratio",
            ratio(sum(reg, "storage", "disk.seq_hits"), disk_ops),
        ),
        (
            "storage.seek_ms_per_op",
            ratio(sum(reg, "storage", "disk.seek_ns"), disk_ops) / 1e6,
        ),
        ("storage.cpu_util", util(&ens.storage)),
        ("coord.wal_appends_per_sync", ratio(co_appends, co_syncs)),
        ("coord.wal_syncs", co_syncs as f64),
        (
            "coord.resync_bytes",
            sum(reg, "coord", "resync_bytes") as f64,
        ),
        (
            "coord.open_intents_end",
            sum(reg, "coord", "open_intents") as f64,
        ),
        ("coord.cpu_util", util(&ens.coords)),
        ("ec.coded_writes", c("uproxy.ec.coded_writes") as f64),
        ("ec.degraded_reads", c("uproxy.ec.degraded_reads") as f64),
        (
            "ec.reconstructed_bytes",
            c("uproxy.ec.reconstructed_bytes") as f64,
        ),
    ]
}

/// The ensemble shape a replay routes over.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub dir_sites: u32,
    pub storage_sites: u32,
    /// Data ops address mirrored-policy files.
    pub mirrored: bool,
    /// Erasure code `(n, k)` and stripe unit, for the `ec` replay.
    pub coded: Option<(u32, u32, u64)>,
}

/// Replayed calls per pass. Each layer's replay repeats its pass at
/// least [`MIN_PASSES`] times and until [`REPLAY_BUDGET`] has passed, and
/// reports the median pass.
const REPLAY_CALLS: usize = 4096;
const MIN_PASSES: usize = 5;
const REPLAY_BUDGET: Duration = Duration::from_millis(100);

/// One replayed call: procedure, payload bytes, position in the stream.
#[derive(Debug, Clone, Copy)]
struct Item {
    proc: NfsProc,
    len: u32,
    ix: u64,
}

/// Expands the recorded reply mix to [`REPLAY_CALLS`] calls in the same
/// proportions, interleaved evenly, each with the mean payload of its
/// procedure.
fn items(mix: &Mix) -> Vec<Item> {
    let total: u64 = mix.values().map(|&(n, _)| n).sum();
    let mut keyed: Vec<(f64, NfsProc, u32)> = Vec::new();
    for (&p, &(n, bytes)) in mix {
        let Ok(proc) = NfsProc::from_u32(p) else {
            continue;
        };
        let k = ((REPLAY_CALLS as f64 * n as f64 / total as f64).round() as usize).max(1);
        let len = (bytes / n) as u32;
        keyed.extend((0..k).map(|j| ((j as f64 + 0.5) / k as f64, proc, len)));
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1 as u32).cmp(&(b.1 as u32))));
    keyed
        .into_iter()
        .enumerate()
        .map(|(i, (_, proc, len))| Item {
            proc,
            len,
            ix: i as u64,
        })
        .collect()
}

fn file_fh(ix: u64, geo: &Geometry) -> Fhandle {
    let id = 1000 + ix % 512;
    let flags = if geo.mirrored { FH_FLAG_MIRRORED } else { 0 };
    Fhandle::new(id, 0, flags, 7 * id, 0)
}

fn request(it: Item, geo: &Geometry) -> NfsRequest {
    let fh = file_fh(it.ix, geo);
    let dir = Fhandle::root();
    let name = format!("f{}.c", it.ix);
    let offset = (it.ix % 64) * u64::from(it.len.max(1));
    let attr = Sattr3 {
        mode: Some(0o644),
        ..Default::default()
    };
    match it.proc {
        NfsProc::Lookup => NfsRequest::Lookup { dir, name },
        NfsProc::Access => NfsRequest::Access { fh, mask: 0x3f },
        NfsProc::Create => NfsRequest::Create { dir, name, attr },
        NfsProc::Mkdir => NfsRequest::Mkdir { dir, name, attr },
        NfsProc::Symlink => NfsRequest::Symlink {
            dir,
            name,
            target: "target/elsewhere".into(),
            attr,
        },
        NfsProc::Remove => NfsRequest::Remove { dir, name },
        NfsProc::Setattr => NfsRequest::Setattr { fh, attr },
        NfsProc::Readlink => NfsRequest::Readlink { fh },
        NfsProc::Read => NfsRequest::Read {
            fh,
            offset,
            count: it.len,
        },
        NfsProc::Write => NfsRequest::Write {
            fh,
            offset,
            stable: StableHow::Unstable,
            data: vec![0x5a; it.len as usize],
        },
        NfsProc::Commit => NfsRequest::Commit {
            fh,
            offset: 0,
            count: 0,
        },
        NfsProc::Readdir => NfsRequest::Readdir {
            dir,
            cookie: 0,
            cookieverf: 0,
            count: 4096,
        },
        NfsProc::Readdirplus => NfsRequest::Readdirplus {
            dir,
            cookie: 0,
            cookieverf: 0,
            dircount: 1024,
            maxcount: 4096,
        },
        NfsProc::Fsstat => NfsRequest::Fsstat { fh: dir },
        _ => NfsRequest::Getattr { fh },
    }
}

/// A successful reply to `req`, shaped as a server would send it.
fn reply(req: &NfsRequest) -> NfsReply {
    let fh = req.primary_fh().copied().unwrap_or_else(Fhandle::root);
    let attr = Fattr3::new(FileType::Regular, fh.file_id(), 0o644, NfsTime::default());
    let body = match req {
        NfsRequest::Lookup { .. } => ReplyBody::Lookup {
            fh: Fhandle::new(fh.file_id() + 1, 0, 0, 0, 0),
            dir_attr: Some(attr),
        },
        NfsRequest::Access { mask, .. } => ReplyBody::Access { mask: *mask },
        NfsRequest::Create { .. } | NfsRequest::Mkdir { .. } | NfsRequest::Symlink { .. } => {
            ReplyBody::Create {
                fh: Some(Fhandle::new(fh.file_id() + 1, 0, 0, 0, 0)),
            }
        }
        NfsRequest::Readlink { .. } => ReplyBody::Readlink {
            target: "target/elsewhere".into(),
        },
        NfsRequest::Read { count, .. } => ReplyBody::Read {
            data: vec![0x5a; *count as usize],
            eof: false,
        },
        NfsRequest::Write { data, .. } => ReplyBody::Write {
            count: data.len() as u32,
            committed: StableHow::Unstable,
            verf: 1,
        },
        NfsRequest::Commit { .. } => ReplyBody::Commit { verf: 1 },
        NfsRequest::Readdir { .. } => ReplyBody::Readdir {
            entries: Vec::new(),
            cookieverf: 0,
            eof: true,
        },
        NfsRequest::Readdirplus { .. } => ReplyBody::Readdirplus {
            entries: Vec::new(),
            cookieverf: 0,
            eof: true,
        },
        NfsRequest::Fsstat { .. } => ReplyBody::Fsstat {
            tbytes: 1 << 40,
            fbytes: 1 << 39,
            abytes: 1 << 39,
            tfiles: 1 << 20,
            ffiles: 1 << 19,
        },
        _ => ReplyBody::None,
    };
    NfsReply {
        proc: req.proc(),
        status: slice::nfsproto::NfsStatus::Ok,
        attr: Some(attr),
        body,
    }
}

/// Runs `f` for [`MIN_PASSES`] passes and until [`REPLAY_BUDGET`] has
/// passed; returns every pass's result.
fn passes<T>(mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || start.elapsed() < REPLAY_BUDGET {
        out.push(f());
    }
    out
}

/// Median host nanoseconds of one pass of `f`.
fn median_ns(mut f: impl FnMut()) -> f64 {
    crate::median(passes(|| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    }))
}

/// Replays the run's reply mix through each layer and returns host
/// nanoseconds per unit of work; each layer's passes are recorded as a
/// `replay.<layer>` span.
pub fn replay(mix: &Mix, geo: &Geometry) -> Vec<(&'static str, f64)> {
    let items = items(mix);
    let n = items.len().max(1) as f64;
    let cred = AuthUnix::default();
    let reqs: Vec<NfsRequest> = items.iter().map(|&it| request(it, geo)).collect();
    let replies: Vec<NfsReply> = reqs.iter().map(reply).collect();
    let calls: Vec<Vec<u8>> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| encode_call(i as u32, &cred, r))
        .collect();
    let rets: Vec<Vec<u8>> = replies
        .iter()
        .enumerate()
        .map(|(i, r)| encode_reply(i as u32, r))
        .collect();

    let encode_ns = trace::span("replay.nfsproto", || {
        median_ns(|| {
            for (i, (q, r)) in reqs.iter().zip(&replies).enumerate() {
                black_box(encode_call(i as u32, &cred, black_box(q)));
                black_box(encode_reply(i as u32, black_box(r)));
            }
        })
    }) / n;
    let decode_ns = trace::span("replay.nfsproto", || {
        median_ns(|| {
            for (c, (r, q)) in calls.iter().zip(rets.iter().zip(&reqs)) {
                black_box(decode_call(black_box(c)).expect("own encoding decodes"));
                black_box(decode_reply(black_box(r), q.proc()).expect("own encoding decodes"));
            }
        })
    }) / n;

    let wire_kb = calls.iter().chain(&rets).map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let checksum_ns = trace::span("replay.hashes", || {
        median_ns(|| {
            for p in calls.iter().chain(&rets) {
                black_box(slice::hashes::inet_checksum(black_box(p)));
            }
        })
    });
    let root = Fhandle::root();
    let names: Vec<String> = items.iter().map(|it| format!("f{}.c", it.ix)).collect();
    let fingerprint_ns = trace::span("replay.hashes", || {
        median_ns(|| {
            for name in &names {
                black_box(slice::hashes::name_fingerprint(
                    black_box(&root.0),
                    name.as_bytes(),
                ));
            }
        })
    }) / n;

    let phases = trace::span("replay.uproxy", || passes(|| uproxy_phases(&reqs, geo)));
    let per_pkt = |ns: fn(&PhaseStats) -> u64| {
        crate::median(
            phases
                .iter()
                .map(|p| ns(p) as f64 / p.packets.max(1) as f64)
                .collect(),
        )
    };
    let (ec_encode, ec_decode) = match geo.coded {
        Some((cn, ck, unit)) => trace::span("replay.ec", || ec_ns_per_kb(cn, ck, unit)),
        None => (0.0, 0.0),
    };
    vec![
        ("nfsproto.encode_ns", encode_ns),
        ("nfsproto.decode_ns", decode_ns),
        (
            "hashes.checksum_ns_per_kb",
            checksum_ns / wire_kb.max(f64::MIN_POSITIVE),
        ),
        ("hashes.fingerprint_ns", fingerprint_ns),
        ("uproxy.intercept_ns", per_pkt(|p| p.intercept_ns)),
        ("uproxy.decode_ns", per_pkt(|p| p.decode_ns)),
        ("uproxy.rewrite_ns", per_pkt(|p| p.rewrite_ns)),
        ("uproxy.soft_ns", per_pkt(|p| p.soft_ns)),
        ("ec.encode_ns_per_kb", ec_encode),
        ("ec.decode_ns_per_kb", ec_decode),
    ]
}

/// Table 3's four phases over the replayed calls: each request goes out
/// through a fresh µproxy and every packet it routes is answered.
fn uproxy_phases(reqs: &[NfsRequest], geo: &Geometry) -> PhaseStats {
    let site = |base: u32, i: u32| SockAddr::new(base + i, 2049);
    let cfg = ProxyConfig {
        dir_sites: (0..geo.dir_sites).map(|i| site(0x0a00_1000, i)).collect(),
        sf_sites: (0..2).map(|i| site(0x0a00_2000, i)).collect(),
        storage_sites: (0..geo.storage_sites)
            .map(|i| site(0x0a00_3000, i))
            .collect(),
        name_policy: ProxyNamePolicy::MkdirSwitching {
            redirect_millis: 250,
        },
        measure_phases: true,
        ..ProxyConfig::test_default()
    };
    let cred = AuthUnix::default();
    let mut proxy = Uproxy::new(cfg.clone());
    let mut now = SimTime::ZERO;
    for (i, req) in reqs.iter().enumerate() {
        let pkt = Packet::new(
            cfg.client_addr,
            cfg.virtual_addr,
            encode_call(i as u32 + 1, &cred, req),
        );
        for out in proxy.outbound(now, pkt) {
            let ProxyOut::Net(p) = out else { continue };
            let Ok((hdr, routed)) = decode_call(&p.payload) else {
                continue;
            };
            let rp = Packet::new(p.dst, p.src, encode_reply(hdr.xid, &reply(&routed)));
            black_box(proxy.inbound(now, rp));
        }
        now += SimDuration::from_micros(160);
    }
    proxy.phase_stats()
}

/// Host ns per KB of data to encode a stripe's parity, and to decode a
/// stripe that lost one data shard, in the workload's geometry.
fn ec_ns_per_kb(n: u32, k: u32, stripe_unit: u64) -> (f64, f64) {
    let codec = slice_ec::Codec::new(n as usize, k as usize);
    let shard = (stripe_unit / u64::from(k)) as usize;
    let data: Vec<Vec<u8>> = (0..k as usize)
        .map(|j| {
            let mut d = vec![0u8; shard];
            crate::load::fill(j as u64, 0, &mut d);
            d
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let parity = codec.encode(&refs);
    let stripes = 64;
    let kb = (stripes * stripe_unit as usize) as f64 / 1024.0;
    let enc = median_ns(|| {
        for _ in 0..stripes {
            black_box(codec.encode(black_box(&refs)));
        }
    });
    let mut shards: Vec<Option<&[u8]>> = refs.iter().map(|&d| Some(d)).collect();
    shards.extend(parity.iter().map(|p| Some(p.as_slice())));
    shards[0] = None;
    let dec = median_ns(|| {
        for _ in 0..stripes {
            black_box(codec.decode(black_box(&shards)).expect("k shards survive"));
        }
    });
    (enc / kb, dec / kb)
}
