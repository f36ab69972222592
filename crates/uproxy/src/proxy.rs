//! The µproxy: an interposed request-routing packet filter.
//!
//! The µproxy "intercepts NFS requests addressed to virtual NFS servers,
//! and routes the request to a physical server by applying a function to
//! the request type and arguments. It then rewrites the IP address and
//! port to redirect the request to the selected server. When a response
//! arrives, the µproxy rewrites the source address and port before
//! forwarding it to the client" (paper §3). It is a nonblocking state
//! machine whose soft state consists of pending-request records, routing
//! tables, a block-map cache, and an attribute cache; it may initiate and
//! absorb packets (attribute write-backs, coordinator intentions) and is
//! free to lose its state — end-to-end RPC retransmission recovers.
//!
//! Per-packet work is accounted in four phases matching the paper's
//! Table 3: interception, decode, redirect/rewrite, and soft-state
//! maintenance; [`Uproxy::phase_stats`] reports real measured CPU
//! nanoseconds per phase.

use slice_sim::FxHashMap;
use std::time::Instant;

use slice_hashes::{fnv1a, name_fingerprint};
use slice_nfsproto::{
    decode_call, decode_reply, encode_call, AuthUnix, Fhandle, NfsProc, NfsRequest, NfsStatus,
    NfsTime, Packet, Sattr3, SetTime, SockAddr, REPLY_ATTR_OFFSET,
};
use slice_sim::{SimDuration, SimTime};
use slice_storage::{CoordMsg, CoordReply, IntentKind};
use slice_xdr::XdrEncoder;

use crate::attrcache::AttrCache;
use crate::tables::RoutingTable;

mod coded;
use coded::{CodedLegRole, CodedOp};

/// Name-space routing policy at the µproxy (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyNamePolicy {
    /// Route to the parent's home site; redirect mkdirs with probability
    /// `redirect_millis / 1000`.
    MkdirSwitching {
        /// Redirect probability in thousandths (p × 1000).
        redirect_millis: u32,
    },
    /// Route every name operation by the MD5 fingerprint of
    /// `(parent fh, name)`.
    NameHashing,
}

/// µproxy configuration: the ensemble map and the routing policies.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// The virtual NFS server address clients mount.
    pub virtual_addr: SockAddr,
    /// This client's address (source for µproxy-initiated packets).
    pub client_addr: SockAddr,
    /// Directory server addresses by physical index.
    pub dir_sites: Vec<SockAddr>,
    /// Small-file server addresses (empty disables the threshold split).
    pub sf_sites: Vec<SockAddr>,
    /// Storage node addresses by physical index.
    pub storage_sites: Vec<SockAddr>,
    /// Number of block-service coordinators (typed channel, not packets).
    pub coord_sites: u32,
    /// Name-space policy.
    pub name_policy: ProxyNamePolicy,
    /// The threshold offset (64 KB in the prototype).
    pub threshold: u64,
    /// Stripe unit for static placement.
    pub stripe_unit: u64,
    /// Replication degree for mirrored files.
    pub mirror_copies: u32,
    /// Erasure-coded layout `(n, k)` for mapped files' bulk regions.
    /// `None` keeps the mirrored/striped layouts. Requires
    /// [`ProxyConfig::use_block_maps`] and a coordinator running the same
    /// coded default placement.
    pub coded: Option<(u32, u32)>,
    /// Route bulk I/O through coordinator block maps instead of the
    /// static placement function.
    pub use_block_maps: bool,
    /// Wrap multisite commits in coordinator intentions.
    pub use_intents: bool,
    /// Attribute cache capacity (entries).
    pub attr_cache_entries: usize,
    /// Dirty attributes older than this are pushed back on
    /// [`Uproxy::tick`].
    pub writeback_interval: SimDuration,
    /// Retransmission strikes before a storage site is suspected down
    /// and removed from the mirrored-read rotation.
    pub suspect_after: u32,
    /// Interval between liveness probes of a suspected site (also the
    /// probe retry deadline when a coordinator does not answer).
    pub probe_interval: SimDuration,
    /// Sliding window for hot-set detection: per-file data-op and
    /// per-directory name-op counts are kept over roughly the last
    /// window (two half-window buckets).
    pub hot_window: SimDuration,
    /// Measure real per-phase CPU cost with `Instant::now` (Table 3
    /// benchmarking). Off by default: wall-clock reads are nondeterminism
    /// smuggled into an otherwise seeded simulation, and they cost two
    /// syscall-ish timer reads per phase on the packet path. When off,
    /// [`Uproxy::phase_stats`] reports zeros.
    pub measure_phases: bool,
}

impl ProxyConfig {
    /// A small single-client test configuration.
    pub fn test_default() -> Self {
        ProxyConfig {
            virtual_addr: SockAddr::new(0x0a00_00ff, 2049),
            client_addr: SockAddr::new(0x0a00_0001, 700),
            dir_sites: vec![SockAddr::new(0x0a00_1000, 2049)],
            sf_sites: vec![SockAddr::new(0x0a00_2000, 2049)],
            storage_sites: vec![
                SockAddr::new(0x0a00_3000, 2049),
                SockAddr::new(0x0a00_3001, 2049),
            ],
            coord_sites: 1,
            name_policy: ProxyNamePolicy::MkdirSwitching { redirect_millis: 0 },
            threshold: 64 * 1024,
            stripe_unit: 64 * 1024,
            mirror_copies: 2,
            coded: None,
            use_block_maps: false,
            use_intents: true,
            attr_cache_entries: 4096,
            writeback_interval: SimDuration::from_secs(3),
            suspect_after: 2,
            probe_interval: SimDuration::from_secs(2),
            hot_window: SimDuration::from_secs(10),
            measure_phases: false,
        }
    }
}

/// Outputs of a µproxy step, dispatched by the host.
#[derive(Debug, Clone)]
pub enum ProxyOut {
    /// Forward a (rewritten) packet into the network.
    Net(Packet),
    /// Deliver a (rewritten) packet up to the local client stack.
    Client(Packet),
    /// Send a typed message to a block-service coordinator.
    Coord {
        /// Coordinator index.
        site: u32,
        /// The message.
        msg: CoordMsg,
    },
    /// A directory server bounced a request as misdirected: the routing
    /// table is stale and must be refreshed from an external source
    /// (paper §3.3.1 — tables are hints loaded lazily).
    NeedDirTable,
    /// An availability event for the host's trace stream (suspicion,
    /// failover, degraded writes).
    Trace(slice_obs::EventKind),
}

/// Per-storage-site failure-suspicion state (slice-ha). Suspicion is
/// raised locally from observed retransmissions but cleared only by a
/// coordinator-verified probe: a site that looks alive to the µproxy may
/// still hold dirty regions that would satisfy reads with stale bytes.
#[derive(Debug, Clone)]
struct SiteHealth {
    /// Consecutive unanswered-retransmission strikes.
    strikes: u32,
    /// Removed from the mirrored-read rotation while set.
    suspected: bool,
    /// Next time a liveness probe may be issued for this site.
    probe_at: SimTime,
    /// Coordinator probe votes still outstanding.
    awaiting_votes: u32,
    /// Coordinator probe votes that answered "clean".
    clean_votes: u32,
}

impl SiteHealth {
    fn new() -> Self {
        SiteHealth {
            strikes: 0,
            suspected: false,
            probe_at: SimTime::ZERO,
            awaiting_votes: 0,
            clean_votes: 0,
        }
    }
}

/// Sliding-window operation counter over two half-window buckets: the
/// reported count for an id is its total over the current and previous
/// half windows, so the view always spans between one and two half
/// windows of history with O(1) roll-over cost.
#[derive(Debug)]
struct HotTracker {
    half: SimDuration,
    epoch_start: SimTime,
    cur: FxHashMap<u64, u64>,
    prev: FxHashMap<u64, u64>,
}

impl HotTracker {
    fn new(window: SimDuration) -> Self {
        HotTracker {
            half: SimDuration::from_nanos((window.as_nanos() / 2).max(1)),
            epoch_start: SimTime::ZERO,
            cur: FxHashMap::default(),
            prev: FxHashMap::default(),
        }
    }

    fn roll(&mut self, now: SimTime) {
        if now < self.epoch_start + self.half {
            return;
        }
        if now >= self.epoch_start + self.half + self.half {
            // Idle gap longer than the window: both buckets are stale.
            self.cur.clear();
            self.prev.clear();
            self.epoch_start = now;
            return;
        }
        self.prev = std::mem::take(&mut self.cur);
        self.epoch_start += self.half;
    }

    fn note(&mut self, now: SimTime, id: u64) {
        self.roll(now);
        *self.cur.entry(id).or_insert(0) += 1;
    }

    /// Ids with at least `min` ops in the window, hottest first (count
    /// descending, id ascending — deterministic).
    fn hot(&self, min: u64) -> Vec<(u64, u64)> {
        let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (&id, &n) in self.prev.iter().chain(self.cur.iter()) {
            *merged.entry(id).or_insert(0) += n;
        }
        let mut out: Vec<(u64, u64)> = merged.into_iter().filter(|&(_, n)| n >= min).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn entries(&self) -> usize {
        self.cur.len() + self.prev.len()
    }
}

/// A mirrored write parked while the coordinator logs its missed mirror
/// ranges: (original packet, live sites, missed sites, byte count).
type ParkedWrite = (Packet, Vec<u32>, Vec<u32>, u64);

/// Which server class a pending request was routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Dir,
    SmallFile,
    Storage,
}

/// Reassembly state for requests the µproxy split at the threshold
/// offset (one part served below the threshold, one above).
#[derive(Debug, Clone)]
enum MergeState {
    /// A split write: the merged reply must report the full byte count.
    Write { total: u32 },
    /// A split read: data halves arrive separately and are reassembled.
    Read {
        split: u64,
        low: Option<Vec<u8>>,
        high: Option<Vec<u8>>,
    },
}

#[derive(Debug, Clone)]
struct PendingReq {
    proc: NfsProc,
    fh: Option<Fhandle>,
    offset: u64,
    len: u32,
    class: Class,
    remaining: u32,
    absorb: bool,
    client_src: SockAddr,
    intent: Option<(u32, u64)>,
    /// Storage site indices still owed a reply for this request; a
    /// client retransmission strikes exactly these sites.
    awaiting: Vec<u32>,
    merge: Option<MergeState>,
    /// (file, attr version) for µproxy-initiated attribute write-backs:
    /// the entry is cleaned only when this push is acknowledged.
    push: Option<(u64, u64)>,
    /// Set on internal legs of an erasure-coded op: (parent xid, role).
    coded: Option<(u32, CodedLegRole)>,
}

/// Real-time cost accounting for the four µproxy phases (Table 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Packet interception nanoseconds.
    pub intercept_ns: u64,
    /// Packet decode nanoseconds.
    pub decode_ns: u64,
    /// Redirection/rewriting nanoseconds.
    pub rewrite_ns: u64,
    /// Soft-state maintenance nanoseconds.
    pub soft_ns: u64,
    /// Packets processed (requests + responses).
    pub packets: u64,
}

impl PhaseStats {
    /// Accumulates another measurement (all fields are sums).
    pub fn absorb(&mut self, other: &PhaseStats) {
        self.intercept_ns += other.intercept_ns;
        self.decode_ns += other.decode_ns;
        self.rewrite_ns += other.rewrite_ns;
        self.soft_ns += other.soft_ns;
        self.packets += other.packets;
    }
}

/// The µproxy state machine.
#[derive(Debug)]
pub struct Uproxy {
    cfg: ProxyConfig,
    dir_table: RoutingTable,
    sf_table: RoutingTable,
    pending: FxHashMap<u32, PendingReq>,
    attrs: AttrCache,
    /// Cached block-map fragments: (file, block) -> replica sites.
    map_cache: FxHashMap<(u64, u64), Vec<u32>>,
    /// Replicas still owed a resync/migration copy per the coordinator's
    /// last fragment: writes fan out to them, reads skip them until the
    /// log drains (and the next epoch flush refetches the fragment).
    warming_cache: FxHashMap<(u64, u64), Vec<u32>>,
    /// Requests parked on a block-map fetch, keyed by (file, block).
    map_waiters: FxHashMap<(u64, u64), Vec<Packet>>,
    /// Commit packets parked on an intent ack, keyed by xid.
    intent_waiters: FxHashMap<u64, Packet>,
    /// Failure-suspicion table, one entry per storage site.
    health: Vec<SiteHealth>,
    /// Sites removed by a planned drain: never routed to, never struck,
    /// never probed — their suspicion soft state is purged for good.
    retired: Vec<bool>,
    /// Routing-table epoch: bumped on every reconfiguration flush so
    /// observers can tell when new block-map entries took effect.
    map_epoch: u64,
    /// Per-file data-op counts over a sliding window (hot-set detection).
    hot_data: HotTracker,
    /// Per-directory name-op counts over a sliding window.
    hot_name: HotTracker,
    /// Mirrored writes parked on a coordinator dirty-region ack.
    degrade_pending: FxHashMap<u32, ParkedWrite>,
    /// Writes cleared to proceed at reduced redundancy: xid -> live
    /// replica set approved by the coordinator's DirtyAck.
    degrade_ok: FxHashMap<u32, Vec<u32>>,
    /// Suspicion transitions `(when, site, suspected)` for benchmarks.
    suspicion_log: Vec<(SimTime, u32, bool)>,
    /// Erasure-coded ops in flight, keyed by the client's (parent) xid.
    coded_ops: FxHashMap<u32, CodedOp>,
    /// Per-(file, stripe) exclusive locks held by coded ops that gather
    /// and decode (read-modify-write serialization).
    stripe_locks: FxHashMap<(u64, u64), u32>,
    /// Coded requests parked on a stripe lock, in arrival order.
    coded_waiters: Vec<((u64, u64), Packet)>,
    mirror_rr: u64,
    next_own_xid: u32,
    cred: AuthUnix,
    phases: PhaseStats,
    stale_table_bounces: u64,
    requests_routed: u64,
    replies_routed: u64,
    absorbed: u64,
    initiated: u64,
    read_failovers: u64,
    degraded_writes: u64,
    degraded_bytes: u64,
    probes_sent: u64,
    coded_reads: u64,
    coded_writes: u64,
    ec_degraded_reads: u64,
    ec_reconstructions: u64,
    ec_reconstructed_bytes: u64,
}

impl Uproxy {
    /// Creates a µproxy from `cfg`.
    pub fn new(cfg: ProxyConfig) -> Self {
        let dirs = cfg.dir_sites.len().max(1) as u32;
        let sfs = cfg.sf_sites.len().max(1) as u32;
        Uproxy {
            dir_table: RoutingTable::balanced(64, dirs),
            sf_table: RoutingTable::balanced(64, sfs),
            pending: FxHashMap::default(),
            attrs: AttrCache::new(cfg.attr_cache_entries),
            map_cache: FxHashMap::default(),
            warming_cache: FxHashMap::default(),
            map_waiters: FxHashMap::default(),
            intent_waiters: FxHashMap::default(),
            health: (0..cfg.storage_sites.len())
                .map(|_| SiteHealth::new())
                .collect(),
            retired: vec![false; cfg.storage_sites.len()],
            map_epoch: 0,
            hot_data: HotTracker::new(cfg.hot_window),
            hot_name: HotTracker::new(cfg.hot_window),
            degrade_pending: FxHashMap::default(),
            degrade_ok: FxHashMap::default(),
            suspicion_log: Vec::new(),
            coded_ops: FxHashMap::default(),
            stripe_locks: FxHashMap::default(),
            coded_waiters: Vec::new(),
            mirror_rr: 0,
            next_own_xid: 0x8000_0000,
            cred: AuthUnix {
                machine: "uproxy".into(),
                ..Default::default()
            },
            phases: PhaseStats::default(),
            stale_table_bounces: 0,
            requests_routed: 0,
            replies_routed: 0,
            absorbed: 0,
            initiated: 0,
            read_failovers: 0,
            degraded_writes: 0,
            degraded_bytes: 0,
            probes_sent: 0,
            coded_reads: 0,
            coded_writes: 0,
            ec_degraded_reads: 0,
            ec_reconstructions: 0,
            ec_reconstructed_bytes: 0,
            cfg,
        }
    }

    /// Measured per-phase CPU cost (Table 3). All-zero durations unless
    /// [`ProxyConfig::measure_phases`] is set.
    pub fn phase_stats(&self) -> PhaseStats {
        self.phases
    }

    /// This µproxy's configuration (read-only; placement parameters are
    /// needed by external auditors like the `slice-check` oracles).
    pub fn config(&self) -> &ProxyConfig {
        &self.cfg
    }

    /// Starts a phase timer, or `None` when phase measurement is off.
    #[inline]
    fn phase_start(&self) -> Option<Instant> {
        self.cfg.measure_phases.then(Instant::now)
    }

    /// Nanoseconds since a phase timer started (0 when measurement is
    /// off).
    #[inline]
    fn elapsed_ns(t: Option<Instant>) -> u64 {
        t.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }

    /// Nanoseconds between two phase marks (0 when measurement is off).
    #[inline]
    fn between_ns(a: Option<Instant>, b: Option<Instant>) -> u64 {
        match (a, b) {
            (Some(a), Some(b)) => (b - a).as_nanos() as u64,
            _ => 0,
        }
    }

    /// (requests routed, replies routed, absorbed, initiated).
    pub fn traffic_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.requests_routed,
            self.replies_routed,
            self.absorbed,
            self.initiated,
        )
    }

    /// Folds this µproxy's counters into `reg` under `prefix` (e.g.
    /// `"client.0.uproxy"`). Uses absolute (`set`) semantics so repeated
    /// folds are idempotent. Phase nanoseconds are zeros unless
    /// [`ProxyConfig::measure_phases`] is on.
    pub fn export_metrics(&self, prefix: &str, reg: &mut slice_obs::Registry) {
        let set = |reg: &mut slice_obs::Registry, k: &str, v: u64| {
            reg.set(&format!("{prefix}.{k}"), v);
        };
        set(reg, "requests_routed", self.requests_routed);
        set(reg, "replies_routed", self.replies_routed);
        set(reg, "absorbed", self.absorbed);
        set(reg, "initiated", self.initiated);
        set(reg, "stale_table_bounces", self.stale_table_bounces);
        let (hits, misses) = self.attrs.stats();
        set(reg, "attr_cache.hits", hits);
        set(reg, "attr_cache.misses", misses);
        set(reg, "attr_cache.entries", self.attrs.len() as u64);
        set(reg, "attr_cache.push_retries", self.attrs.push_retries());
        set(
            reg,
            "ha.suspected_sites",
            self.suspected_sites().len() as u64,
        );
        set(reg, "ha.read_failovers", self.read_failovers);
        set(reg, "ha.degraded_writes", self.degraded_writes);
        set(reg, "ha.degraded_bytes", self.degraded_bytes);
        set(reg, "ha.probes_sent", self.probes_sent);
        set(reg, "ec.coded_reads", self.coded_reads);
        set(reg, "ec.coded_writes", self.coded_writes);
        set(reg, "ec.degraded_reads", self.ec_degraded_reads);
        set(reg, "ec.reconstructions", self.ec_reconstructions);
        set(reg, "ec.reconstructed_bytes", self.ec_reconstructed_bytes);
        set(reg, "soft_state.entries", self.soft_state_entries() as u64);
        set(reg, "reconf.map_epoch", self.map_epoch);
        set(
            reg,
            "reconf.retired_sites",
            self.retired_sites().len() as u64,
        );
        set(
            reg,
            "reconf.hot_tracked",
            (self.hot_data.entries() + self.hot_name.entries()) as u64,
        );
        set(reg, "phase.packets", self.phases.packets);
        set(reg, "phase.intercept_ns", self.phases.intercept_ns);
        set(reg, "phase.decode_ns", self.phases.decode_ns);
        set(reg, "phase.rewrite_ns", self.phases.rewrite_ns);
        set(reg, "phase.soft_ns", self.phases.soft_ns);
    }

    /// Attribute-cache (hits, misses) since creation.
    pub fn attr_cache_stats(&self) -> (u64, u64) {
        self.attrs.stats()
    }

    /// Current attributes the µproxy would report for `file`.
    pub fn cached_attr(&mut self, file: u64) -> Option<slice_nfsproto::Fattr3> {
        self.attrs.get(file)
    }

    /// True while any cached attribute awaits a write-back
    /// acknowledgement — the periodic tick must keep running.
    pub fn has_dirty_attrs(&self) -> bool {
        self.attrs.has_dirty()
    }

    /// Audit snapshot of the attribute cache `(file, dirty, cached size)`
    /// for the `slice-check` structural oracles.
    pub fn audit_attr_cache(&self) -> Vec<(u64, bool, u64)> {
        self.attrs.audit()
    }

    /// Attribute pushes re-issued because an earlier push of the same
    /// version went unacknowledged — retransmissions performed by the
    /// interposed layer rather than the client's RPC machinery.
    pub fn push_retries(&self) -> u64 {
        self.attrs.push_retries()
    }

    /// Replaces the directory routing table (reconfiguration, §3.3.1).
    pub fn load_dir_table(&mut self, table: RoutingTable) {
        self.dir_table = table;
    }

    /// Misdirected-request bounces observed (stale-table detections).
    pub fn stale_table_bounces(&self) -> u64 {
        self.stale_table_bounces
    }

    /// The directory table's current generation.
    pub fn dir_table_generation(&self) -> u64 {
        self.dir_table.generation()
    }

    /// Replaces the small-file routing table.
    pub fn load_sf_table(&mut self, table: RoutingTable) {
        self.sf_table = table;
    }

    /// Drops all soft state (the µproxy is "free to discard its state ...
    /// without compromising correctness").
    pub fn lose_state(&mut self) {
        self.pending.clear();
        self.attrs.clear();
        self.map_cache.clear();
        self.warming_cache.clear();
        self.map_waiters.clear();
        self.intent_waiters.clear();
        self.degrade_pending.clear();
        self.degrade_ok.clear();
        self.coded_ops.clear();
        self.stripe_locks.clear();
        self.coded_waiters.clear();
        // Suspicion is a hint; rebuilt from observed retransmissions.
        for h in &mut self.health {
            *h = SiteHealth::new();
        }
        // Hot-set counters are observations; rebuilt from traffic.
        self.hot_data = HotTracker::new(self.cfg.hot_window);
        self.hot_name = HotTracker::new(self.cfg.hot_window);
        // `retired` survives: like the routing tables it is loaded from
        // the reconfiguration plane, not inferred from traffic.
    }

    /// Removes a drained site from every routing decision: it is never
    /// read from, written to, struck, or probed again, and its suspicion
    /// soft state is purged (a retired node never returns, so keeping
    /// the entry would leak it forever).
    pub fn retire_site(&mut self, now: SimTime, site: u32) {
        let Some(flag) = self.retired.get_mut(site as usize) else {
            return;
        };
        *flag = true;
        let h = &mut self.health[site as usize];
        if h.suspected {
            self.suspicion_log.push((now, site, false));
        }
        *h = SiteHealth::new();
    }

    /// Sites retired by a planned drain, sorted.
    pub fn retired_sites(&self) -> Vec<u32> {
        self.retired
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Drops every cached block-map fragment and bumps the routing
    /// epoch: the next bulk I/O re-fetches fresh entries from the
    /// coordinators, picking up reconfigured (widened/rebalanced)
    /// replica sets. The paper's tables-are-hints rule makes this safe
    /// at any time.
    pub fn flush_map_cache(&mut self) {
        self.map_cache.clear();
        self.warming_cache.clear();
        self.map_epoch += 1;
    }

    /// Routing-table epoch (count of reconfiguration flushes).
    pub fn map_epoch(&self) -> u64 {
        self.map_epoch
    }

    /// Files with at least `min` data operations over the sliding hot
    /// window, hottest first.
    pub fn hot_files(&self, min: u64) -> Vec<(u64, u64)> {
        self.hot_data.hot(min)
    }

    /// Directories with at least `min` name operations over the sliding
    /// hot window, hottest first.
    pub fn hot_dirs(&self, min: u64) -> Vec<(u64, u64)> {
        self.hot_name.hot(min)
    }

    /// Storage sites currently suspected down.
    pub fn suspected_sites(&self) -> Vec<u32> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.suspected)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Suspicion transitions `(when, site, suspected)` since creation.
    pub fn suspicion_log(&self) -> &[(SimTime, u32, bool)] {
        &self.suspicion_log
    }

    /// (coded reads, coded writes, degraded reads, reconstructions,
    /// reconstructed bytes) for the erasure-coded layout.
    pub fn ec_stats(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.coded_reads,
            self.coded_writes,
            self.ec_degraded_reads,
            self.ec_reconstructions,
            self.ec_reconstructed_bytes,
        )
    }

    /// Total soft-state entries currently held (pending requests, block-map
    /// fragments, cached attributes, parked packets, coded ops): the
    /// µproxy's live working-set size for capacity benchmarks.
    pub fn soft_state_entries(&self) -> usize {
        self.pending.len()
            + self.map_cache.len()
            + self.warming_cache.len()
            + self.attrs.len()
            + self.map_waiters.values().map(Vec::len).sum::<usize>()
            + self.intent_waiters.len()
            + self.degrade_pending.len()
            + self.degrade_ok.len()
            + self.coded_ops.len()
            + self.coded_waiters.len()
            + self.stripe_locks.len()
    }

    /// (read failovers, degraded writes, degraded bytes, probes sent).
    pub fn ha_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.read_failovers,
            self.degraded_writes,
            self.degraded_bytes,
            self.probes_sent,
        )
    }

    /// Notes a client RPC retransmission of `xid`: every storage site
    /// still owed a reply takes a suspicion strike (the paper's client
    /// retransmissions are the µproxy's only failure signal — it sees
    /// all of them, being interposed on the packet path).
    pub fn note_retransmit(&mut self, now: SimTime, xid: u32) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        // A coded op's storage legs carry internal xids; the client only
        // retransmits the parent, so strike the legs' sites here.
        if let Some(op) = self.coded_ops.get(&xid) {
            for site in op.awaiting.clone() {
                self.strike(now, &mut out, site);
            }
            return out;
        }
        let awaiting = match self.pending.get(&xid) {
            Some(r) if r.class == Class::Storage => r.awaiting.clone(),
            _ => return out,
        };
        for site in awaiting {
            self.strike(now, &mut out, site);
        }
        out
    }

    fn strike(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, site: u32) {
        if self.retired.get(site as usize).copied().unwrap_or(false) {
            return;
        }
        let Some(h) = self.health.get_mut(site as usize) else {
            return;
        };
        h.strikes += 1;
        if !h.suspected && h.strikes >= self.cfg.suspect_after {
            h.suspected = true;
            h.probe_at = now + self.cfg.probe_interval;
            h.awaiting_votes = 0;
            self.suspicion_log.push((now, site, true));
            out.push(ProxyOut::Trace(slice_obs::EventKind::SiteSuspected {
                site: site as usize,
            }));
        }
    }

    /// Splits a replica set into (live, suspected). All-suspected sets
    /// come back whole: with no live mirror there is nothing to degrade
    /// to, and routing everywhere keeps retransmissions probing.
    fn partition_live(&self, sites: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mut live = Vec::new();
        let mut missed = Vec::new();
        for &s in sites {
            if self.site_retired(s) || self.health.get(s as usize).is_some_and(|h| h.suspected) {
                missed.push(s);
            } else {
                live.push(s);
            }
        }
        if live.is_empty() {
            // Retired sites stay excluded even from the all-suspected
            // fallback: they hold no data and never answer.
            let present: Vec<u32> = sites
                .iter()
                .copied()
                .filter(|&s| !self.site_retired(s))
                .collect();
            if present.is_empty() {
                (sites.to_vec(), Vec::new())
            } else {
                (present, Vec::new())
            }
        } else {
            (live, missed)
        }
    }

    fn site_retired(&self, site: u32) -> bool {
        self.retired.get(site as usize).copied().unwrap_or(false)
    }

    /// Degraded-write gate. A mirrored write whose replica set includes
    /// suspected sites must not complete before the coordinator has
    /// durably logged the skipped mirror's (file, range): otherwise a
    /// crash forgets which regions diverged and resync cannot restore
    /// redundancy. Returns the replica set to fan out to, or `None` when
    /// the packet was parked awaiting the coordinator's `DirtyAck`.
    #[allow(clippy::too_many_arguments)]
    fn degrade_gate(
        &mut self,
        out: &mut Vec<ProxyOut>,
        pkt: &Packet,
        xid: u32,
        file: u64,
        offset: u64,
        len: u64,
        sites: Vec<u32>,
    ) -> Option<Vec<u32>> {
        if let Some(live) = self.degrade_ok.get(&xid) {
            return Some(live.clone());
        }
        let (live, missed) = self.partition_live(&sites);
        if missed.is_empty() || self.cfg.coord_sites == 0 {
            return Some(sites);
        }
        self.degrade_pending
            .insert(xid, (pkt.clone(), live.clone(), missed.clone(), len));
        out.push(ProxyOut::Coord {
            site: self.coord_site(file),
            msg: CoordMsg::MarkDirty {
                op_id: u64::from(xid),
                obj: file,
                offset,
                len,
                missed,
                sources: live,
            },
        });
        None
    }

    fn dir_dest(&self, logical: u32) -> SockAddr {
        self.cfg.dir_sites
            [self.dir_table.route_logical(logical) as usize % self.cfg.dir_sites.len()]
    }

    fn dir_dest_key(&self, key: u64) -> SockAddr {
        self.cfg.dir_sites[self.dir_table.route(key) as usize % self.cfg.dir_sites.len()]
    }

    fn sf_dest(&self, file: u64) -> SockAddr {
        let key = fnv1a(&file.to_le_bytes());
        self.cfg.sf_sites[self.sf_table.route(key) as usize % self.cfg.sf_sites.len()]
    }

    /// Static striping/placement function: replica site list for one
    /// stripe of a file (must agree with the coordinator's map policy).
    fn static_sites(&self, file: u64, offset: u64, mirrored: bool) -> Vec<u32> {
        let n = self.cfg.storage_sites.len() as u64;
        let base = fnv1a(&file.to_le_bytes()) % n;
        let stripe = offset / self.cfg.stripe_unit;
        let first = ((base + stripe % n) % n) as u32;
        if mirrored {
            (0..self.cfg.mirror_copies.min(n as u32))
                .map(|c| (first + c) % n as u32)
                .collect()
        } else {
            vec![first]
        }
    }

    /// Resolves the storage sites for a bulk I/O request, consulting the
    /// block-map cache when dynamic placement is enabled. `None` means the
    /// request must wait for a map fragment (a `MapGet` was emitted).
    fn storage_sites_for(
        &mut self,
        out: &mut Vec<ProxyOut>,
        fh: &Fhandle,
        offset: u64,
    ) -> Option<Vec<u32>> {
        let file = fh.file_id();
        if self.cfg.use_block_maps && fh.is_mapped() {
            let block = offset / self.cfg.stripe_unit;
            if let Some(sites) = self.map_cache.get(&(file, block)) {
                return Some(sites.clone());
            }
            // Fetch a fragment of 16 blocks around the miss.
            let first = block - block % 16;
            out.push(ProxyOut::Coord {
                site: (fnv1a(&file.to_le_bytes()) % u64::from(self.cfg.coord_sites.max(1))) as u32,
                msg: CoordMsg::MapGet {
                    file,
                    first_block: first,
                    count: 16,
                },
            });
            return None;
        }
        Some(self.static_sites(file, offset, fh.is_mirrored()))
    }

    fn coord_site(&self, file: u64) -> u32 {
        (fnv1a(&file.to_le_bytes()) % u64::from(self.cfg.coord_sites.max(1))) as u32
    }

    fn nfs_time(now: SimTime) -> NfsTime {
        NfsTime::from_nanos(now.as_nanos())
    }

    /// Generates an attribute write-back: a µproxy-initiated SETATTR to
    /// the directory server (absorbed on reply).
    fn push_attrs(&mut self, out: &mut Vec<ProxyOut>, entry: &crate::attrcache::CachedAttr) {
        let req = NfsRequest::Setattr {
            fh: entry.fh,
            attr: Sattr3 {
                size: Some(entry.attr.size),
                atime: SetTime::Client(entry.attr.atime),
                mtime: SetTime::Client(entry.attr.mtime),
                ..Default::default()
            },
        };
        let xid = self.next_own_xid;
        self.next_own_xid = self.next_own_xid.wrapping_add(1);
        let payload = encode_call(xid, &self.cred, &req);
        let dest = self.dir_dest(entry.fh.home_site());
        let pkt = Packet::new(self.cfg.client_addr, dest, payload);
        self.pending.insert(
            xid,
            PendingReq {
                proc: NfsProc::Setattr,
                fh: Some(entry.fh),
                offset: 0,
                len: 0,
                class: Class::Dir,
                remaining: 1,
                absorb: true,
                client_src: self.cfg.client_addr,
                intent: None,
                awaiting: Vec::new(),
                merge: None,
                push: Some((entry.fh.file_id(), entry.version)),
                coded: None,
            },
        );
        self.initiated += 1;
        out.push(ProxyOut::Net(pkt));
    }

    /// Processes a client-to-server packet.
    pub fn outbound(&mut self, now: SimTime, pkt: Packet) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        // Phase 1: interception.
        let t0 = self.phase_start();
        self.phases.packets += 1;
        if pkt.dst != self.cfg.virtual_addr {
            self.phases.intercept_ns += Self::elapsed_ns(t0);
            out.push(ProxyOut::Net(pkt));
            return out;
        }
        let t1 = self.phase_start();
        self.phases.intercept_ns += Self::between_ns(t0, t1);
        // Phase 2: decode.
        let decoded = decode_call(&pkt.payload);
        let t2 = self.phase_start();
        self.phases.decode_ns += Self::between_ns(t1, t2);
        let Ok((hdr, req)) = decoded else {
            // Undecodable packet: drop; RPC retransmission recovers.
            return out;
        };
        self.route_call(now, &mut out, pkt, hdr.xid, req);
        out
    }

    fn route_call(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        pkt: Packet,
        xid: u32,
        req: NfsRequest,
    ) {
        self.requests_routed += 1;
        // Hot-set tracking for demand-driven replication: data ops count
        // against the file, name ops against the parent directory.
        match &req {
            NfsRequest::Read { fh, .. } | NfsRequest::Write { fh, .. } => {
                self.hot_data.note(now, fh.file_id());
            }
            NfsRequest::Lookup { dir, .. }
            | NfsRequest::Create { dir, .. }
            | NfsRequest::Mkdir { dir, .. }
            | NfsRequest::Remove { dir, .. }
            | NfsRequest::Rmdir { dir, .. } => {
                self.hot_name.note(now, dir.file_id());
            }
            _ => {}
        }
        let client_src = pkt.src;
        // Phase 4 pieces are timed inside; phase 3 around the rewrites.
        match &req {
            // Erasure-coded layouts intercept all bulk (and straddling)
            // I/O on mapped files: the µproxy stripes it into shard legs.
            NfsRequest::Read { fh, offset, count }
                if self.coded_geom(fh).is_some()
                    && self.coded_touches_bulk(*offset, u64::from(*count)) =>
            {
                let (fh, offset, count) = (*fh, *offset, *count);
                let t4 = self.phase_start();
                self.coded_read(now, out, pkt, xid, fh, offset, count);
                self.phases.soft_ns += Self::elapsed_ns(t4);
            }
            NfsRequest::Write {
                fh,
                offset,
                data,
                stable,
            } if self.coded_geom(fh).is_some()
                && self.coded_touches_bulk(*offset, data.len() as u64) =>
            {
                let (fh, offset, stable) = (*fh, *offset, *stable);
                let data = data.clone();
                let t4 = self.phase_start();
                self.coded_write(now, out, pkt, xid, fh, offset, data, stable);
                self.phases.soft_ns += Self::elapsed_ns(t4);
            }
            // I/O that straddles the threshold offset is split: the head
            // belongs to a small-file server, the tail to the storage
            // array. The halves share the xid; replies are reassembled.
            NfsRequest::Read { fh, offset, count }
                if self.straddles(fh, *offset, u64::from(*count)) =>
            {
                let split = self.cfg.threshold;
                let low = NfsRequest::Read {
                    fh: *fh,
                    offset: *offset,
                    count: (split - offset) as u32,
                };
                let high_len = (offset + u64::from(*count) - split) as u32;
                let high = NfsRequest::Read {
                    fh: *fh,
                    offset: split,
                    count: high_len,
                };
                let t_soft = self.phase_start();
                let sites = self.storage_sites_for(out, fh, split);
                self.phases.soft_ns += Self::elapsed_ns(t_soft);
                let Some(sites) = sites else {
                    let block = split / self.cfg.stripe_unit;
                    self.map_waiters
                        .entry((fh.file_id(), block))
                        .or_default()
                        .push(pkt);
                    return;
                };
                let site = self.pick_read_site(out, fh.file_id(), &sites, split, xid);
                let t3 = self.phase_start();
                let low_pkt = Packet::new(
                    client_src,
                    self.sf_dest(fh.file_id()),
                    encode_call(xid, &self.cred, &low),
                );
                let high_pkt = Packet::new(
                    client_src,
                    self.cfg.storage_sites[site as usize],
                    encode_call(xid, &self.cred, &high),
                );
                self.phases.rewrite_ns += Self::elapsed_ns(t3);
                self.initiated += 2;
                out.push(ProxyOut::Net(low_pkt));
                out.push(ProxyOut::Net(high_pkt));
                let t4 = self.phase_start();
                self.pending.insert(
                    xid,
                    PendingReq {
                        proc: NfsProc::Read,
                        fh: Some(*fh),
                        offset: *offset,
                        len: *count,
                        class: Class::Storage,
                        remaining: 2,
                        absorb: false,
                        client_src,
                        intent: None,
                        awaiting: vec![site],
                        merge: Some(MergeState::Read {
                            split,
                            low: None,
                            high: None,
                        }),
                        push: None,
                        coded: None,
                    },
                );
                self.phases.soft_ns += Self::elapsed_ns(t4);
            }
            NfsRequest::Write {
                fh,
                offset,
                data,
                stable,
            } if self.straddles(fh, *offset, data.len() as u64) => {
                let split = self.cfg.threshold;
                let cut = (split - offset) as usize;
                let low = NfsRequest::Write {
                    fh: *fh,
                    offset: *offset,
                    stable: *stable,
                    data: data[..cut].to_vec(),
                };
                let high = NfsRequest::Write {
                    fh: *fh,
                    offset: split,
                    stable: *stable,
                    data: data[cut..].to_vec(),
                };
                let t_soft = self.phase_start();
                let sites = self.storage_sites_for(out, fh, split);
                self.phases.soft_ns += Self::elapsed_ns(t_soft);
                let Some(sites) = sites else {
                    let block = split / self.cfg.stripe_unit;
                    self.map_waiters
                        .entry((fh.file_id(), block))
                        .or_default()
                        .push(pkt);
                    return;
                };
                let high_len = (data.len() - cut) as u64;
                let Some(sites) =
                    self.degrade_gate(out, &pkt, xid, fh.file_id(), split, high_len, sites)
                else {
                    return;
                };
                let t3 = self.phase_start();
                let low_pkt = Packet::new(
                    client_src,
                    self.sf_dest(fh.file_id()),
                    encode_call(xid, &self.cred, &low),
                );
                out.push(ProxyOut::Net(low_pkt));
                for site in &sites {
                    let p = Packet::new(
                        client_src,
                        self.cfg.storage_sites[*site as usize],
                        encode_call(xid, &self.cred, &high),
                    );
                    out.push(ProxyOut::Net(p));
                }
                self.phases.rewrite_ns += Self::elapsed_ns(t3);
                self.initiated += 1 + sites.len() as u64;
                let t4 = self.phase_start();
                self.pending.insert(
                    xid,
                    PendingReq {
                        proc: NfsProc::Write,
                        fh: Some(*fh),
                        offset: *offset,
                        len: data.len() as u32,
                        class: Class::Storage,
                        remaining: 1 + sites.len() as u32,
                        absorb: false,
                        client_src,
                        intent: None,
                        awaiting: sites.clone(),
                        merge: Some(MergeState::Write {
                            total: data.len() as u32,
                        }),
                        push: None,
                        coded: None,
                    },
                );
                self.phases.soft_ns += Self::elapsed_ns(t4);
            }
            NfsRequest::Read { fh, offset, count } if self.is_bulk(fh, *offset) => {
                let t_soft = self.phase_start();
                let sites = self.storage_sites_for(out, fh, *offset);
                self.phases.soft_ns += Self::elapsed_ns(t_soft);
                let Some(sites) = sites else {
                    let block = *offset / self.cfg.stripe_unit;
                    self.map_waiters
                        .entry((fh.file_id(), block))
                        .or_default()
                        .push(pkt);
                    return;
                };
                // Mirrored reads alternate between the mirrors to balance
                // load: replica choice flips every full placement rotation,
                // so each node serves half of the blocks it stores and the
                // rest of its prefetched data goes unused (Table 2).
                let site = self.pick_read_site(out, fh.file_id(), &sites, *offset, xid);
                let t3 = self.phase_start();
                let mut p = pkt;
                p.rewrite_dst(self.cfg.storage_sites[site as usize]);
                self.phases.rewrite_ns += Self::elapsed_ns(t3);
                let t4 = self.phase_start();
                self.pending.insert(
                    xid,
                    PendingReq {
                        proc: NfsProc::Read,
                        fh: Some(*fh),
                        offset: *offset,
                        len: *count,
                        class: Class::Storage,
                        remaining: 1,
                        absorb: false,
                        client_src,
                        intent: None,
                        awaiting: vec![site],
                        merge: None,
                        push: None,
                        coded: None,
                    },
                );
                self.phases.soft_ns += Self::elapsed_ns(t4);
                out.push(ProxyOut::Net(p));
            }
            NfsRequest::Write {
                fh, offset, data, ..
            } if self.is_bulk(fh, *offset) => {
                let t_soft = self.phase_start();
                let sites = self.storage_sites_for(out, fh, *offset);
                self.phases.soft_ns += Self::elapsed_ns(t_soft);
                let Some(sites) = sites else {
                    let block = *offset / self.cfg.stripe_unit;
                    self.map_waiters
                        .entry((fh.file_id(), block))
                        .or_default()
                        .push(pkt);
                    return;
                };
                let Some(sites) = self.degrade_gate(
                    out,
                    &pkt,
                    xid,
                    fh.file_id(),
                    *offset,
                    data.len() as u64,
                    sites,
                ) else {
                    return;
                };
                let t3 = self.phase_start();
                // Mirrored writes go to every replica (µproxy duplicates
                // the packet).
                for site in &sites {
                    let mut p = pkt.clone();
                    p.rewrite_dst(self.cfg.storage_sites[*site as usize]);
                    out.push(ProxyOut::Net(p));
                }
                self.phases.rewrite_ns += Self::elapsed_ns(t3);
                let t4 = self.phase_start();
                self.pending.insert(
                    xid,
                    PendingReq {
                        proc: NfsProc::Write,
                        fh: Some(*fh),
                        offset: *offset,
                        len: data.len() as u32,
                        class: Class::Storage,
                        remaining: sites.len() as u32,
                        absorb: false,
                        client_src,
                        intent: None,
                        awaiting: sites.clone(),
                        merge: None,
                        push: None,
                        coded: None,
                    },
                );
                self.phases.soft_ns += Self::elapsed_ns(t4);
            }
            NfsRequest::Commit { fh, .. } if self.commit_is_multisite(fh) => {
                // Push modified attributes back on commit (paper §4.1).
                let t4 = self.phase_start();
                let dirty = self.attrs.take_dirty(fh.file_id());
                self.phases.soft_ns += Self::elapsed_ns(t4);
                if let Some(e) = dirty {
                    self.push_attrs(out, &e);
                }
                if self.cfg.use_intents && self.cfg.coord_sites > 0 {
                    // Intention first; the commit fans out on the ack.
                    let site = self.coord_site(fh.file_id());
                    self.intent_waiters.insert(u64::from(xid), pkt);
                    out.push(ProxyOut::Coord {
                        site,
                        msg: CoordMsg::BeginIntent {
                            op_id: u64::from(xid),
                            kind: IntentKind::Commit { obj: fh.file_id() },
                            participants: (0..self.cfg.storage_sites.len() as u32).collect(),
                        },
                    });
                } else {
                    self.fanout_commit(out, pkt, xid, *fh, None);
                }
            }
            other => {
                // Name-space, attribute, and small-file traffic.
                let dest = self.name_dest(other);
                let (class, fh, offset, len) = match other {
                    NfsRequest::Read { fh, offset, count } => {
                        (Class::SmallFile, Some(*fh), *offset, *count)
                    }
                    NfsRequest::Write {
                        fh, offset, data, ..
                    } => (Class::SmallFile, Some(*fh), *offset, data.len() as u32),
                    NfsRequest::Commit { fh, .. } => (Class::SmallFile, Some(*fh), 0, 0),
                    req => (Class::Dir, req.primary_fh().copied(), 0, 0),
                };
                // Commit below threshold still flushes cached attributes.
                if matches!(other, NfsRequest::Commit { .. }) {
                    let t4 = self.phase_start();
                    let dirty = fh.and_then(|f| self.attrs.take_dirty(f.file_id()));
                    self.phases.soft_ns += Self::elapsed_ns(t4);
                    if let Some(e) = dirty {
                        self.push_attrs(out, &e);
                    }
                }
                let t3 = self.phase_start();
                let mut p = pkt;
                p.rewrite_dst(dest);
                self.phases.rewrite_ns += Self::elapsed_ns(t3);
                let t4 = self.phase_start();
                self.pending.insert(
                    xid,
                    PendingReq {
                        proc: other.proc(),
                        fh,
                        offset,
                        len,
                        class,
                        remaining: 1,
                        absorb: false,
                        client_src,
                        intent: None,
                        awaiting: Vec::new(),
                        merge: None,
                        push: None,
                        coded: None,
                    },
                );
                self.phases.soft_ns += Self::elapsed_ns(t4);
                out.push(ProxyOut::Net(p));
            }
        }
    }

    fn is_bulk(&self, fh: &Fhandle, offset: u64) -> bool {
        if fh.is_dir() || fh.is_symlink() {
            return false;
        }
        self.cfg.sf_sites.is_empty() || offset >= self.cfg.threshold
    }

    /// True when an I/O range crosses the threshold offset and therefore
    /// spans the small-file/bulk split.
    fn straddles(&self, fh: &Fhandle, offset: u64, len: u64) -> bool {
        !self.cfg.sf_sites.is_empty()
            && !fh.is_dir()
            && !fh.is_symlink()
            && offset < self.cfg.threshold
            && offset + len > self.cfg.threshold
    }

    /// Replica choice for a mirrored read: alternate between the mirrors
    /// by placement rotation (each node serves half of what it stores).
    /// Suspected sites are skipped — the read fails over to the first
    /// live mirror instead of stalling through the suspected site's
    /// retransmission timeouts. Warming replicas (a migration or resync
    /// copy still owed per the coordinator's fragment) are skipped too:
    /// a freshly pinned replica joins the rotation only after the log
    /// drains and an epoch flush refetches the fragment.
    fn pick_read_site(
        &mut self,
        out: &mut Vec<ProxyOut>,
        file: u64,
        sites: &[u32],
        offset: u64,
        xid: u32,
    ) -> u32 {
        let block = offset / self.cfg.stripe_unit;
        let warming = self
            .warming_cache
            .get(&(file, block))
            .cloned()
            .unwrap_or_default();
        let idx = if sites.len() > 1 {
            let stripe = offset / self.cfg.stripe_unit;
            let rotation = stripe / self.cfg.storage_sites.len() as u64;
            self.mirror_rr += 1;
            (rotation % sites.len() as u64) as usize
        } else {
            0
        };
        let preferred = sites[idx];
        if !self.health[preferred as usize].suspected
            && !self.site_retired(preferred)
            && !warming.contains(&preferred)
        {
            return preferred;
        }
        for k in 1..sites.len() {
            let cand = sites[(idx + k) % sites.len()];
            if !self.health[cand as usize].suspected
                && !self.site_retired(cand)
                && !warming.contains(&cand)
            {
                self.read_failovers += 1;
                out.push(ProxyOut::Trace(slice_obs::EventKind::ReadFailover {
                    site: preferred as usize,
                    xid: u64::from(xid),
                }));
                return cand;
            }
        }
        // Every mirror suspected: route to the rotation choice anyway so
        // retransmissions keep exercising (and eventually clearing) it.
        preferred
    }

    /// A commit is multisite when the file plausibly has data on storage
    /// nodes (cached size above the threshold, or no small-file servers).
    fn commit_is_multisite(&mut self, fh: &Fhandle) -> bool {
        if self.cfg.sf_sites.is_empty() {
            return true;
        }
        match self.attrs.get(fh.file_id()) {
            Some(a) => a.size > self.cfg.threshold,
            None => false,
        }
    }

    fn fanout_commit(
        &mut self,
        out: &mut Vec<ProxyOut>,
        pkt: Packet,
        xid: u32,
        fh: Fhandle,
        intent: Option<(u32, u64)>,
    ) {
        let client_src = pkt.src;
        let mut n = 0;
        let mut awaiting = Vec::new();
        // Suspected sites are skipped: a commit fan-out that includes a
        // crashed node would never complete. Any unstable data a merely
        // slow (not crashed) site holds stays unstable until a later
        // commit — the register model treats it as optional.
        let any_live = self
            .health
            .iter()
            .enumerate()
            .any(|(i, h)| !h.suspected && !self.retired[i]);
        for (i, site) in self.cfg.storage_sites.iter().enumerate() {
            if self.retired[i] || (any_live && self.health[i].suspected) {
                continue;
            }
            let mut p = pkt.clone();
            p.rewrite_dst(*site);
            out.push(ProxyOut::Net(p));
            awaiting.push(i as u32);
            n += 1;
        }
        // The below-threshold region commits at its small-file server.
        if !self.cfg.sf_sites.is_empty() {
            let mut p = pkt.clone();
            p.rewrite_dst(self.sf_dest(fh.file_id()));
            out.push(ProxyOut::Net(p));
            n += 1;
        }
        self.pending.insert(
            xid,
            PendingReq {
                proc: NfsProc::Commit,
                fh: Some(fh),
                offset: 0,
                len: 0,
                class: Class::Storage,
                remaining: n,
                absorb: false,
                client_src,
                intent,
                awaiting,
                merge: None,
                push: None,
                coded: None,
            },
        );
    }

    /// Destination for non-bulk requests per the name-space policy.
    fn name_dest(&self, req: &NfsRequest) -> SockAddr {
        match req {
            NfsRequest::Read { fh, .. }
            | NfsRequest::Write { fh, .. }
            | NfsRequest::Commit { fh, .. } => self.sf_dest(fh.file_id()),
            NfsRequest::Getattr { fh }
            | NfsRequest::Setattr { fh, .. }
            | NfsRequest::Access { fh, .. }
            | NfsRequest::Readlink { fh }
            | NfsRequest::Fsstat { fh } => self.dir_dest(fh.home_site()),
            NfsRequest::Lookup { dir, name }
            | NfsRequest::Create { dir, name, .. }
            | NfsRequest::Symlink { dir, name, .. }
            | NfsRequest::Remove { dir, name }
            | NfsRequest::Rmdir { dir, name }
            | NfsRequest::Link { dir, name, .. } => self.name_pair_dest(dir, name),
            NfsRequest::Mkdir { dir, name, .. } => match self.cfg.name_policy {
                ProxyNamePolicy::MkdirSwitching { redirect_millis } => {
                    let fp = name_fingerprint(&dir.0, name.as_bytes());
                    // Deterministic pseudo-random redirect decision drawn
                    // from fingerprint bits.
                    if ((fp >> 48) % 1000) < u64::from(redirect_millis) {
                        self.cfg.dir_sites
                            [self.dir_table.route(fp) as usize % self.cfg.dir_sites.len()]
                    } else {
                        self.dir_dest(dir.home_site())
                    }
                }
                ProxyNamePolicy::NameHashing => self.name_pair_dest(dir, name),
            },
            NfsRequest::Rename {
                from_dir,
                from_name,
                ..
            } => self.name_pair_dest(from_dir, from_name),
            NfsRequest::Readdir { dir, cookie, .. }
            | NfsRequest::Readdirplus { dir, cookie, .. } => match self.cfg.name_policy {
                ProxyNamePolicy::MkdirSwitching { .. } => self.dir_dest(dir.home_site()),
                ProxyNamePolicy::NameHashing => self.dir_dest_site_index((cookie >> 56) as u32),
            },
            NfsRequest::Null => self.cfg.dir_sites[0],
        }
    }

    fn dir_dest_site_index(&self, idx: u32) -> SockAddr {
        self.cfg.dir_sites[idx as usize % self.cfg.dir_sites.len()]
    }

    fn name_pair_dest(&self, dir: &Fhandle, name: &str) -> SockAddr {
        match self.cfg.name_policy {
            ProxyNamePolicy::MkdirSwitching { .. } => self.dir_dest(dir.home_site()),
            ProxyNamePolicy::NameHashing => {
                self.dir_dest_key(name_fingerprint(&dir.0, name.as_bytes()))
            }
        }
    }

    /// Processes a server-to-client packet.
    pub fn inbound(&mut self, now: SimTime, pkt: Packet) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        // Phase 1: interception — pair the reply with its pending record.
        let t0 = self.phase_start();
        self.phases.packets += 1;
        let xid = slice_nfsproto::peek_xid_type(&pkt.payload)
            .map(|(x, _)| x)
            .ok();
        // Only `proc` and `coded` are needed before the record is
        // re-fetched below; cloning the whole record here would deep-copy
        // its awaiting list and any stashed split-read data per reply.
        let pending = xid.and_then(|x| self.pending.get(&x).map(|r| (r.proc, r.coded)));
        let t1 = self.phase_start();
        self.phases.intercept_ns += Self::between_ns(t0, t1);
        let Some(xid) = xid else {
            out.push(ProxyOut::Client(pkt));
            return out;
        };
        let Some((rec_proc, rec_coded)) = pending else {
            // Lost soft state: restore the virtual source so the client's
            // RPC layer can still match (it will usually have timed out
            // and retransmitted already).
            let mut p = pkt;
            let t3 = self.phase_start();
            p.rewrite_src(self.cfg.virtual_addr);
            self.phases.rewrite_ns += Self::elapsed_ns(t3);
            out.push(ProxyOut::Client(p));
            return out;
        };
        // Phase 2: decode the reply.
        let t2 = self.phase_start();
        let reply = decode_reply(&pkt.payload, rec_proc).ok().map(|(_, r)| r);
        self.phases.decode_ns += Self::elapsed_ns(t2);
        // Failure-suspicion bookkeeping: any reply from a storage site
        // resets its strike count — but suspicion itself clears only via
        // a coordinator-verified probe, because an alive-looking site may
        // still hold regions that diverged during a degraded window. A
        // JUKEBOX bounce from a storage node counts as a strike instead.
        let src_site = self
            .cfg
            .storage_sites
            .iter()
            .position(|a| *a == pkt.src)
            .map(|i| i as u32);
        if let Some(s) = src_site {
            let juke = reply
                .as_ref()
                .is_some_and(|r| r.status == NfsStatus::JukeBox);
            if juke {
                self.strike(now, &mut out, s);
            } else if !self.health[s as usize].suspected {
                self.health[s as usize].strikes = 0;
            }
        }
        // Internal legs of an erasure-coded op are absorbed here and
        // drive the parent op's state machine instead of the generic
        // bookkeeping below.
        if let Some((parent, role)) = rec_coded {
            let t4 = self.phase_start();
            self.pending.remove(&xid);
            self.absorbed += 1;
            self.coded_leg_reply(now, &mut out, parent, role, src_site, reply);
            self.phases.soft_ns += Self::elapsed_ns(t4);
            return out;
        }
        // Phase 4: soft state — multi-reply bookkeeping + attribute cache.
        let t4 = self.phase_start();
        let remaining = {
            let r = self.pending.get_mut(&xid).expect("checked pending");
            r.remaining = r.remaining.saturating_sub(1);
            if let Some(s) = src_site {
                r.awaiting.retain(|&x| x != s);
            }
            // Split reads: stash this half's data for reassembly. The
            // source address says which half answered.
            if let Some(MergeState::Read { low, high, .. }) = &mut r.merge {
                if let Some(slice_nfsproto::ReplyBody::Read { data, .. }) =
                    reply.as_ref().map(|rp| &rp.body)
                {
                    if self.cfg.sf_sites.contains(&pkt.src) {
                        low.get_or_insert_with(|| data.clone());
                    } else {
                        high.get_or_insert_with(|| data.clone());
                    }
                }
            }
            r.remaining
        };
        if remaining > 0 {
            self.absorbed += 1;
            self.phases.soft_ns += Self::elapsed_ns(t4);
            return out; // merge: forward only the final reply
        }
        let rec = self.pending.remove(&xid).expect("checked pending");
        self.degrade_ok.remove(&xid);
        // A JUKEBOX bounce from a directory server marks this µproxy's
        // routing table stale: ask the host to refresh it and absorb the
        // reply — the client's RPC retransmission will re-route the
        // request through the fresh table.
        if rec.class == Class::Dir && !rec.absorb {
            if let Some(r) = &reply {
                if r.status == slice_nfsproto::NfsStatus::JukeBox {
                    self.stale_table_bounces += 1;
                    out.push(ProxyOut::NeedDirTable);
                    self.phases.soft_ns += Self::elapsed_ns(t4);
                    return out;
                }
            }
        }
        let mut evicted = Vec::new();
        // The file whose attribute block rides in this reply (for lookup
        // and create replies that is the *child*, not the request target).
        let mut attr_file = rec.fh;
        if let Some(reply) = &reply {
            if reply.status.is_ok() {
                match rec.class {
                    Class::Dir => {
                        // Authoritative attributes; also harvest handles
                        // from lookup/create bodies.
                        if let Some(attr) = reply.attr {
                            let fh = match &reply.body {
                                slice_nfsproto::ReplyBody::Lookup { fh, .. } => Some(*fh),
                                slice_nfsproto::ReplyBody::Create { fh: Some(fh) } => Some(*fh),
                                _ => rec.fh,
                            };
                            if let Some(fh) = fh {
                                attr_file = Some(fh);
                                if rec.proc == NfsProc::Setattr {
                                    // SETATTR replies replace local deltas:
                                    // an explicit truncate must not be
                                    // re-grown by the merge rule.
                                    evicted.extend(self.attrs.store_replacing(now, &fh, attr));
                                } else {
                                    evicted.extend(self.attrs.store_authoritative(now, &fh, attr));
                                }
                            }
                        }
                    }
                    Class::Storage | Class::SmallFile => {
                        if let Some(fh) = rec.fh {
                            let t = Self::nfs_time(now);
                            match rec.proc {
                                NfsProc::Read => {
                                    evicted.extend(self.attrs.apply_read(now, &fh, t));
                                }
                                NfsProc::Write => {
                                    evicted.extend(self.attrs.apply_write(
                                        now,
                                        &fh,
                                        rec.offset + u64::from(rec.len),
                                        t,
                                    ));
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        // Completion of an intent-guarded fan-out clears the intention.
        if let Some((site, intent)) = rec.intent {
            out.push(ProxyOut::Coord {
                site,
                msg: CoordMsg::CompleteIntent { intent },
            });
        }
        self.phases.soft_ns += Self::elapsed_ns(t4);
        for e in evicted {
            self.push_attrs(&mut out, &e);
        }
        if rec.absorb {
            self.absorbed += 1;
            // A confirmed attribute write-back cleans the cache entry
            // (unless a newer local modification raced with the push). A
            // permanent failure — the home site no longer knows the file —
            // drops the entry instead: the push can never succeed, and
            // leaving it dirty would retry it every interval forever.
            // Transient failures (JUKEBOX, server fault) keep the entry
            // dirty so the next interval retries.
            if let Some((file, version)) = rec.push {
                match reply.as_ref().map(|r| r.status) {
                    Some(NfsStatus::Ok) => self.attrs.mark_clean(file, version),
                    Some(NfsStatus::NoEnt | NfsStatus::Stale | NfsStatus::BadHandle) => {
                        self.attrs.discard(file, version)
                    }
                    _ => {}
                }
            }
            return out;
        }
        // Finalize split requests by re-initiating a merged reply.
        if let Some(merge) = &rec.merge {
            if let (Some(reply), Some(fh)) = (&reply, rec.fh) {
                let t3 = self.phase_start();
                let mut merged = reply.clone();
                if let Some(attr) = self.attrs.get(fh.file_id()) {
                    merged.attr = Some(attr);
                }
                match merge {
                    MergeState::Write { total } => {
                        if let slice_nfsproto::ReplyBody::Write { count, .. } = &mut merged.body {
                            *count = *total;
                        }
                    }
                    MergeState::Read { split, low, high } => {
                        let size = merged
                            .attr
                            .map(|a| a.size)
                            .unwrap_or(rec.offset + u64::from(rec.len));
                        let expected =
                            size.saturating_sub(rec.offset).min(u64::from(rec.len)) as usize;
                        let mut data = vec![0u8; expected];
                        if let Some(lo) = low {
                            let n = lo.len().min(expected);
                            data[..n].copy_from_slice(&lo[..n]);
                        }
                        if let Some(hi) = high {
                            let start = (*split - rec.offset) as usize;
                            if start < expected {
                                let n = hi.len().min(expected - start);
                                data[start..start + n].copy_from_slice(&hi[..n]);
                            }
                        }
                        let eof = rec.offset + expected as u64 >= size;
                        merged.body = slice_nfsproto::ReplyBody::Read { data, eof };
                    }
                }
                let p = Packet::new(
                    self.cfg.virtual_addr,
                    rec.client_src,
                    slice_nfsproto::encode_reply(xid, &merged),
                );
                self.phases.rewrite_ns += Self::elapsed_ns(t3);
                self.replies_routed += 1;
                out.push(ProxyOut::Client(p));
                return out;
            }
        }
        // Reads must reflect the *global* file size the µproxy tracks:
        // storage and small-file servers only know their local extent, so
        // a read in a hole (or past local data) comes back short and is
        // zero-extended here, and a read past EOF is truncated. This is a
        // reply the µproxy re-initiates rather than rewrites in place.
        if rec.proc == NfsProc::Read {
            if let (Some(reply), Some(fh)) = (&reply, rec.fh) {
                if reply.status.is_ok() {
                    if let (Some(attr), slice_nfsproto::ReplyBody::Read { data, .. }) =
                        (self.attrs.get(fh.file_id()), &reply.body)
                    {
                        let expected =
                            attr.size.saturating_sub(rec.offset).min(u64::from(rec.len)) as usize;
                        if data.len() != expected {
                            let t3 = self.phase_start();
                            let mut fixed = reply.clone();
                            fixed.attr = Some(attr);
                            if let slice_nfsproto::ReplyBody::Read { data, eof } = &mut fixed.body {
                                data.resize(expected, 0);
                                *eof = rec.offset + expected as u64 >= attr.size;
                            }
                            let p = Packet::new(
                                self.cfg.virtual_addr,
                                rec.client_src,
                                slice_nfsproto::encode_reply(xid, &fixed),
                            );
                            self.phases.rewrite_ns += Self::elapsed_ns(t3);
                            self.replies_routed += 1;
                            out.push(ProxyOut::Client(p));
                            return out;
                        }
                    }
                }
            }
        }
        // Phase 3: rewrite — restore the virtual source and patch the
        // attribute block with the authoritative cached attributes.
        let t3 = self.phase_start();
        let mut p = pkt;
        p.rewrite_src(self.cfg.virtual_addr);
        {
            // Return a complete, current set of attributes in every
            // response (paper §4.1): overwrite the reply's attribute block
            // with the merged cached attributes.
            if let Some(fh) = attr_file {
                if let Some(attr) = self.attrs.get(fh.file_id()) {
                    // Patch in place when the reply carries an attr block.
                    let flag_off = REPLY_ATTR_OFFSET;
                    if p.payload.len() >= flag_off + 4 + 84 {
                        let flag = u32::from_be_bytes(
                            p.payload[flag_off..flag_off + 4].try_into().expect("fixed"),
                        );
                        if flag == 1 {
                            let mut enc = XdrEncoder::with_capacity(84);
                            attr.encode(&mut enc);
                            p.rewrite_payload(flag_off + 4, enc.as_bytes());
                        }
                    }
                }
            }
        }
        self.phases.rewrite_ns += Self::elapsed_ns(t3);
        self.replies_routed += 1;
        // Restore the original client destination.
        let t3b = self.phase_start();
        p.rewrite_dst(rec.client_src);
        self.phases.rewrite_ns += Self::elapsed_ns(t3b);
        out.push(ProxyOut::Client(p));
        out
    }

    /// Handles a coordinator reply (intent acks and map fragments).
    pub fn coord_reply(&mut self, now: SimTime, reply: CoordReply) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        match reply {
            CoordReply::IntentAck { op_id, intent } => {
                if let Some(pkt) = self.intent_waiters.remove(&op_id) {
                    let xid = op_id as u32;
                    let fh = decode_call(&pkt.payload)
                        .ok()
                        .and_then(|(_, req)| req.primary_fh().copied());
                    if let Some(fh) = fh {
                        let site = self.coord_site(fh.file_id());
                        self.fanout_commit(&mut out, pkt, xid, fh, Some((site, intent)));
                    }
                }
            }
            CoordReply::MapFragment {
                file,
                first_block,
                sites,
                warming,
            } => {
                for (i, s) in sites.iter().enumerate() {
                    self.map_cache
                        .insert((file, first_block + i as u64), s.clone());
                }
                for (i, w) in warming.iter().enumerate() {
                    let key = (file, first_block + i as u64);
                    if w.is_empty() {
                        self.warming_cache.remove(&key);
                    } else {
                        self.warming_cache.insert(key, w.clone());
                    }
                }
                // Release parked requests covered by the fragment.
                let keys: Vec<(u64, u64)> = self
                    .map_waiters
                    .keys()
                    .filter(|(f, b)| {
                        *f == file && *b >= first_block && *b < first_block + sites.len() as u64
                    })
                    .copied()
                    .collect();
                for k in keys {
                    for pkt in self.map_waiters.remove(&k).unwrap_or_default() {
                        let mut more = self.outbound(now, pkt);
                        out.append(&mut more);
                    }
                }
            }
            CoordReply::DirtyAck { op_id } => {
                // The coordinator's dirty-region log now covers the
                // skipped mirror: release the parked write at reduced
                // redundancy.
                if let Some((pkt, live, missed, bytes)) =
                    self.degrade_pending.remove(&(op_id as u32))
                {
                    self.degrade_ok.insert(op_id as u32, live);
                    for site in missed {
                        self.degraded_writes += 1;
                        self.degraded_bytes += bytes;
                        out.push(ProxyOut::Trace(slice_obs::EventKind::DegradedWrite {
                            site: site as usize,
                            bytes,
                        }));
                    }
                    let mut more = self.outbound(now, pkt);
                    out.append(&mut more);
                }
            }
            CoordReply::SiteProbe { site, clean } => {
                if let Some(h) = self.health.get_mut(site as usize) {
                    if h.awaiting_votes > 0 {
                        h.awaiting_votes -= 1;
                        if clean {
                            h.clean_votes += 1;
                        }
                        // Suspicion clears only on a unanimous clean
                        // verdict: the site answered a probe *and* no
                        // coordinator holds dirty regions for it.
                        if h.awaiting_votes == 0
                            && h.clean_votes == self.cfg.coord_sites
                            && h.suspected
                        {
                            h.suspected = false;
                            h.strikes = 0;
                            self.suspicion_log.push((now, site, false));
                            out.push(ProxyOut::Trace(slice_obs::EventKind::SiteCleared {
                                site: site as usize,
                            }));
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Periodic maintenance: pushes back dirty attributes older than the
    /// write-back interval (bounds timestamp drift, §4.1).
    pub fn tick(&mut self, now: SimTime) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        let stale = self
            .attrs
            .take_stale_dirty(now, self.cfg.writeback_interval);
        for e in stale {
            self.push_attrs(&mut out, &e);
        }
        // Probe suspected sites through the coordinators. A probe with
        // no answer (dead coordinator, dead site) simply re-arms at the
        // next interval — probe_at doubles as the retry deadline.
        if self.cfg.coord_sites > 0 {
            for site in 0..self.health.len() as u32 {
                if self.retired[site as usize] {
                    continue;
                }
                let h = &mut self.health[site as usize];
                if h.suspected && now >= h.probe_at {
                    h.probe_at = now + self.cfg.probe_interval;
                    h.awaiting_votes = self.cfg.coord_sites;
                    h.clean_votes = 0;
                    self.probes_sent += 1;
                    for c in 0..self.cfg.coord_sites {
                        out.push(ProxyOut::Coord {
                            site: c,
                            msg: CoordMsg::ProbeSite { site },
                        });
                    }
                }
            }
        }
        out
    }
}
