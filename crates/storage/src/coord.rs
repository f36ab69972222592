//! The block-service coordinator: per-file block maps and multisite
//! atomicity via intention logging.
//!
//! "The Slice block service includes a coordinator module for files that
//! span multiple storage nodes. The coordinator manages optional block maps
//! and preserves atomicity of multisite operations" (§2.2). The protocol is
//! the paper's §3.3.2: the µproxy sends an *intention* before a multisite
//! operation; the coordinator logs it to stable storage; a *completion*
//! message clears it asynchronously; if no completion arrives within a time
//! bound the coordinator probes the participants and completes or aborts
//! the operation. A failed coordinator recovers by scanning its intentions
//! log.
//!
//! The coordinator is a pure state machine: incoming messages produce a
//! reply time (log durability) and a list of [`CoordAction`]s that the
//! hosting actor dispatches. Requesters are identified by opaque tokens the
//! host supplies.

use slice_ec::{Codec, CodedLayout};
use slice_sim::FxHashMap;

use slice_sim::time::{SimDuration, SimTime};

use crate::node::{StorageCtl, StorageCtlReply};
use crate::wal::{Wal, WalParams};

/// Lifecycle of a logical storage site under online reconfiguration.
///
/// Transitions are WAL-logged ([`IntentKind::SiteChange`]) so a recovered
/// coordinator rebuilds the same active set its block maps were assigned
/// over. `Active` sites take new block assignments; `Standby` sites are
/// provisioned but hold nothing until a join; `Draining` sites keep
/// serving while their map entries migrate away; `Retired` sites hold
/// nothing and are never assigned again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteState {
    /// Serving traffic and eligible for new block assignments.
    Active,
    /// Provisioned but not yet joined: no assignments, no data.
    Standby,
    /// Planned removal in progress: entries migrating away, still serving.
    Draining,
    /// Fully drained: objects removed, never assigned again.
    Retired,
}

impl SiteState {
    fn to_u8(self) -> u8 {
        match self {
            SiteState::Active => 0,
            SiteState::Standby => 1,
            SiteState::Draining => 2,
            SiteState::Retired => 3,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => SiteState::Standby,
            2 => SiteState::Draining,
            3 => SiteState::Retired,
            _ => SiteState::Active,
        }
    }
}

/// Placement policy recorded per file in the coordinator's maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Stripe blocks round-robin over all storage sites, starting at a
    /// file-derived site.
    Striped,
    /// Replicate every block on `copies` sites.
    Mirrored {
        /// Replication degree.
        copies: u32,
    },
    /// Erasure-code every block (stripe) into k data + n−k parity shards
    /// across n disjoint sites (geometry in [`slice_ec::CodedLayout`]).
    Coded {
        /// Total shards per stripe.
        n: u32,
        /// Data shards per stripe.
        k: u32,
    },
}

/// One file's block map as dumped for structural checking:
/// `(file, placement, [(block, replica sites)])` with blocks sorted.
pub type BlockMapDump = Vec<(u64, Placement, Vec<(u64, Vec<u32>)>)>;

/// The kind of multisite operation an intention covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentKind {
    /// A mirrored write to several replicas.
    MirroredWrite {
        /// Object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// Byte length.
        len: u32,
    },
    /// A commit spanning several storage sites.
    Commit {
        /// Object id.
        obj: u64,
    },
    /// Removal of an object from all sites.
    Remove {
        /// Object id.
        obj: u64,
    },
    /// Truncation of an object on all sites.
    Truncate {
        /// Object id.
        obj: u64,
        /// New size.
        size: u64,
    },
    /// A copy owed to the participant site: it lacks `[offset, offset+len)`
    /// of `obj` (see [`CopyCause`]) and must be resynchronized from
    /// `sources` before it may serve reads of those bytes.
    DirtyRange {
        /// Object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// Byte length.
        len: u64,
        /// Sites holding the bytes (replicas, or the stripe's shards).
        sources: Vec<u32>,
        /// Why the copy is owed.
        cause: CopyCause,
    },
    /// A block-map entry pinned by a migration, overriding the
    /// deterministic assignment (widened or drained entries are no longer
    /// derivable from the file hash and active set).
    MapPin {
        /// File / object id.
        file: u64,
        /// Logical block.
        block: u64,
        /// The pinned replica site list.
        sites: Vec<u32>,
    },
    /// A site lifecycle transition ([`SiteState`] as `u8`). `Draining`
    /// records carry the mapped objects the site held, so retirement can
    /// remove them even across a coordinator crash.
    SiteChange {
        /// Logical storage site.
        site: u32,
        /// New [`SiteState`], encoded with [`SiteState::to_u8`].
        state: u8,
        /// Mapped objects held at drain initiation (empty otherwise).
        objs: Vec<u64>,
    },
}

/// Why a [`IntentKind::DirtyRange`] is owed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyCause {
    /// A degraded write missed the site, or a coded truncate left its
    /// parity stale.
    Repair,
    /// A planned migration (widening, join rebalance, drain) moves a
    /// replica onto the site.
    Migration {
        /// The draining site whose retirement waits on this range.
        origin: Option<u32>,
    },
}

/// How an intention was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntentOutcome {
    /// Completion message arrived (common case).
    Completed,
    /// Probe found every participant finished; completed on their behalf.
    ProbedComplete,
    /// Probe found no participant finished; the operation never happened.
    Aborted,
    /// Probe found partial completion; the coordinator re-issued the
    /// operation (remove/truncate) or discarded the uncommitted data
    /// (writes, permitted by NFS V3 for uncommitted writes).
    Repaired,
}

/// A durable intention record (what the WAL stores).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentRecord {
    /// Intention id.
    pub id: u64,
    /// Operation.
    pub kind: IntentKind,
    /// Participant logical storage sites.
    pub participants: Vec<u32>,
    /// True for completion records (clearing the intention).
    pub is_completion: bool,
}

#[derive(Debug, Clone)]
struct PendingIntent {
    kind: IntentKind,
    participants: Vec<u32>,
    logged_at: SimTime,
    /// Probes outstanding, with completion flags gathered so far.
    probe_results: FxHashMap<u32, bool>,
    /// When the last probe round went out. Probes repeat every
    /// `intent_timeout` until every participant answers: a probe sent at
    /// a crashed node is simply lost, and only a fresh round after the
    /// node recovers can resolve the intention.
    last_probe: Option<SimTime>,
}

#[derive(Debug, Clone)]
struct PendingFanout {
    requester: u64,
    req_id: u64,
    waiting: Vec<u32>,
    intent: u64,
    is_remove: bool,
}

/// Site-liveness probes carry this bit so they never collide with
/// intention ids (which count up from 1).
const SITE_PROBE_BASE: u64 = 1 << 62;

/// Re-send a stalled resync leg after this long (the target may still be
/// down; the control messages are idempotent).
const RESYNC_RETRY: SimDuration = SimDuration::from_secs(2);

/// Shelve a resync after this many consecutive unanswered legs; a
/// [`Coordinator::kick_resync`] (node recovery) starts it again. Without
/// a cap, a never-recovered site would keep the timer wheel alive
/// forever.
const RESYNC_MAX_ATTEMPTS: u32 = 30;

/// One copy owed to a site, queued on its dirty log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyRange {
    /// WAL record id (completion records reference it).
    pub id: u64,
    /// Object id.
    pub obj: u64,
    /// Byte offset.
    pub offset: u64,
    /// Byte length.
    pub len: u64,
    /// Sites holding the bytes (replicas, or the stripe's shards).
    pub sources: Vec<u32>,
    /// Why the copy is owed.
    pub cause: CopyCause,
}

impl DirtyRange {
    /// The record kind that logs this range.
    fn kind(&self) -> IntentKind {
        IntentKind::DirtyRange {
            obj: self.obj,
            offset: self.offset,
            len: self.len,
            sources: self.sources.clone(),
            cause: self.cause,
        }
    }
}

/// One copy job's source side: it gathers `need` source windows (one
/// from a mirror, k from a coded stripe) out of a list fixed when the
/// range is planned, then turns them into the bytes the target applies.
#[derive(Debug, Clone)]
struct Gather {
    range: DirtyRange,
    /// Planned sources `(site, shard index, object offset of the
    /// window)`; attempts rotate over them. A mirror copy lists its
    /// replicas as shard 0 at the range's own offset.
    eligible: Vec<(u32, u32, u64)>,
    /// `(n, k, target shard index)` of a coded stripe; `None` for a
    /// mirror copy.
    code: Option<(u32, u32, u32)>,
    /// How far the current attempt's legs are rotated over `eligible`.
    rotation: u32,
    /// Windows gathered this attempt: `(source site, shard index, bytes)`.
    got: Vec<(u32, u32, slice_nfsproto::ByteBuf)>,
}

impl Gather {
    fn need(&self) -> usize {
        self.code.map_or(1, |(_, k, _)| k as usize)
    }

    /// The `need` legs the current attempt reads. Only their windows are
    /// taken, so every window of a decode comes from one attempt.
    fn legs(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        let at = self.rotation as usize;
        (0..self.need()).map(move |i| self.eligible[(at + i) % self.eligible.len()])
    }

    /// The bytes the target applies once every window is in: a mirror's
    /// one window as read, or a coded stripe's decoded target shard.
    /// `None` only if the decode fails.
    fn finish(mut self) -> Option<slice_nfsproto::ByteBuf> {
        let Some((n, k, target_idx)) = self.code else {
            return self.got.pop().map(|(_, _, data)| data);
        };
        // Short reads are holes: pad to the window — zeros are exactly
        // what the code sees for never-written bytes.
        let windows: Vec<(u32, Vec<u8>)> = self
            .got
            .iter()
            .map(|(_, idx, data)| {
                let mut bytes = data.to_vec();
                bytes.resize(self.range.len as usize, 0);
                (*idx, bytes)
            })
            .collect();
        let mut slots: Vec<Option<&[u8]>> = vec![None; n as usize];
        for (idx, bytes) in &windows {
            slots[*idx as usize] = Some(bytes);
        }
        Codec::new(n as usize, k as usize)
            .reconstruct_shard(&slots, target_idx as usize)
            .map(Into::into)
    }
}

#[derive(Debug, Clone)]
enum ResyncStage {
    /// Gathering the source windows.
    Gather(Gather),
    /// Waiting for the target to make the bytes durable. The stash is a
    /// shared window: retransmitting the apply leg clones a refcount, not
    /// the payload.
    Apply(DirtyRange, slice_nfsproto::ByteBuf),
}

#[derive(Debug, Clone)]
struct ResyncJob {
    queue: std::collections::VecDeque<DirtyRange>,
    stage: Option<ResyncStage>,
    bytes: u64,
    started: SimTime,
    last_attempt: SimTime,
    attempts: u32,
}

/// A resync lifecycle event drained by the hosting actor for tracing:
/// `(site, done, at, bytes)` — `done == false` marks the start.
pub type ResyncEvent = (u32, bool, SimTime, u64);

/// Bookkeeping for one in-progress planned drain.
#[derive(Debug, Clone)]
struct DrainInfo {
    started: SimTime,
    /// Migration ranges still outstanding before retirement.
    pending: usize,
    /// Mapped objects the site held at drain initiation (removed from the
    /// site at retirement).
    objs: std::collections::BTreeSet<u64>,
    /// Bytes migrated away so far.
    bytes: u64,
}

/// Messages addressed to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordMsg {
    /// Declare an intention before a multisite operation.
    BeginIntent {
        /// Caller-chosen correlation id.
        op_id: u64,
        /// Operation.
        kind: IntentKind,
        /// Participant sites.
        participants: Vec<u32>,
    },
    /// Clear an intention after the operation completed.
    CompleteIntent {
        /// Intention id from the ack.
        intent: u64,
    },
    /// Fetch (and assign, if absent) a block-map fragment.
    MapGet {
        /// File / object id.
        file: u64,
        /// First logical block of the fragment.
        first_block: u64,
        /// Number of blocks requested.
        count: u32,
    },
    /// Set a file's placement policy (at create time).
    SetPlacement {
        /// File / object id.
        file: u64,
        /// Policy to apply.
        placement: Placement,
    },
    /// Remove a file's data from all storage sites atomically.
    RemoveFile {
        /// Caller-chosen correlation id.
        req_id: u64,
        /// File / object id.
        file: u64,
    },
    /// Truncate a file's data on all storage sites atomically.
    TruncateFile {
        /// Caller-chosen correlation id.
        req_id: u64,
        /// File / object id.
        file: u64,
        /// New size.
        size: u64,
    },
    /// Record that a mirrored write is about to complete at reduced
    /// redundancy: `missed` sites are down and will not receive
    /// `[offset, offset+len)` of `obj`. The write may proceed only after
    /// the dirty ranges are durable (the ack gates the degraded fan-out).
    MarkDirty {
        /// Caller-chosen correlation id (the write's xid; unique per
        /// requester only).
        op_id: u64,
        /// Object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// Byte length.
        len: u64,
        /// Suspected/crashed sites that will miss the write.
        missed: Vec<u32>,
        /// Live replica sites that will hold the bytes.
        sources: Vec<u32>,
    },
    /// Ask whether `site` is safe to serve mirrored reads: alive, with no
    /// dirty ranges outstanding and no resynchronization in progress.
    ProbeSite {
        /// Logical storage site.
        site: u32,
    },
}

/// Replies the coordinator sends to requesters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordReply {
    /// Intention is durable; proceed with the operation.
    IntentAck {
        /// Echo of the caller's op id.
        op_id: u64,
        /// Assigned intention id (for the completion message).
        intent: u64,
    },
    /// A block-map fragment.
    MapFragment {
        /// File id.
        file: u64,
        /// First block covered.
        first_block: u64,
        /// Per-block replica site lists.
        sites: Vec<Vec<u32>>,
        /// Per-block subsets of `sites` still owed a copy (an open
        /// dirty-region or migration range overlaps the block). Writes
        /// fan out to them as usual, but the µproxy keeps them out of the
        /// mirror-read rotation until the log drains — a freshly pinned
        /// migration target holds no bytes yet.
        warming: Vec<Vec<u32>>,
    },
    /// Placement recorded.
    PlacementSet {
        /// File id.
        file: u64,
    },
    /// Remove finished on all sites.
    RemoveDone {
        /// Echo of the caller's request id.
        req_id: u64,
    },
    /// Truncate finished on all sites.
    TruncateDone {
        /// Echo of the caller's request id.
        req_id: u64,
    },
    /// Dirty ranges are durable; the degraded write may proceed.
    DirtyAck {
        /// Echo of the caller's op id.
        op_id: u64,
    },
    /// Answer to a [`CoordMsg::ProbeSite`]: sent only once the probed
    /// site answered a liveness probe (no answer means no reply — the
    /// requester re-probes on its own schedule).
    SiteProbe {
        /// The probed site.
        site: u32,
        /// True when the site is alive with no dirty ranges and no
        /// resynchronization in progress at this coordinator.
        clean: bool,
    },
}

/// Actions for the hosting actor to dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordAction {
    /// Send `reply` to the requester identified by `to`.
    Reply {
        /// Requester token (supplied by the host with the request).
        to: u64,
        /// The reply.
        reply: CoordReply,
        /// Earliest send time (log durability for acks).
        at: SimTime,
    },
    /// Send a control message to a logical storage site.
    SendCtl {
        /// Logical storage site.
        site: u32,
        /// The control message.
        ctl: StorageCtl,
    },
}

/// The coordinator state machine.
#[derive(Debug)]
pub struct Coordinator {
    wal: Wal<IntentRecord>,
    next_intent: u64,
    pending: FxHashMap<u64, PendingIntent>,
    fanouts: FxHashMap<u64, PendingFanout>,
    maps: FxHashMap<u64, (Placement, FxHashMap<u64, Vec<u32>>)>,
    storage_sites: u32,
    /// Placement applied to files that never received a `SetPlacement`
    /// (configuration, survives crashes like `storage_sites`).
    default_placement: Placement,
    /// Stripe (block) size in bytes; coded geometry derives from it.
    stripe_unit: u64,
    /// Probe intentions older than this.
    pub intent_timeout: SimDuration,
    resolved: Vec<(u64, IntentOutcome)>,
    /// Per-site ranges missed by degraded writes, WAL-durable.
    dirty_log: FxHashMap<u32, Vec<DirtyRange>>,
    /// Active resynchronizations, one per recovering site.
    resync: FxHashMap<u32, ResyncJob>,
    /// Sites whose resync exhausted its retries (still dirty; a kick
    /// restarts them).
    gave_up: std::collections::BTreeSet<u32>,
    /// Requesters parked on a site probe, per site.
    site_probes: FxHashMap<u32, Vec<u64>>,
    /// Durable times of acknowledged MarkDirty ops, keyed by
    /// `(requester, op id)`, for idempotent re-acks of retransmissions.
    /// The op id is the client's xid, unique only per requester.
    marks_acked: FxHashMap<(u64, u64), SimTime>,
    /// Resync start/done events awaiting pickup by the hosting actor.
    resync_events: Vec<ResyncEvent>,
    /// Completed resyncs: `(site, started, finished, bytes)`.
    resync_history: Vec<(u32, SimTime, SimTime, u64)>,
    /// Per-site lifecycle; rebuilt from `SiteChange` records on recovery.
    site_state: Vec<SiteState>,
    /// The configured (pre-reconfiguration) states `crash` resets to
    /// before the WAL replays the logged transitions.
    initial_state: Vec<SiteState>,
    /// Pinned block-map entries `(file -> block -> (record id, sites))`,
    /// WAL-durable; they override the deterministic assignment.
    pins: FxHashMap<u64, std::collections::BTreeMap<u64, (u64, Vec<u32>)>>,
    /// In-flight planned drains, keyed by draining site.
    drains: FxHashMap<u32, DrainInfo>,
    /// Bytes copied by completed migration ranges.
    migrated_bytes: u64,
    /// Completed drains: `(site, started, retired, bytes migrated)`.
    reconf_history: Vec<(u32, SimTime, SimTime, u64)>,
}

impl Coordinator {
    /// Creates a coordinator over `storage_sites` logical storage sites.
    pub fn new(storage_sites: u32) -> Self {
        Coordinator {
            wal: Wal::new(WalParams::default()),
            next_intent: 1,
            pending: FxHashMap::default(),
            fanouts: FxHashMap::default(),
            maps: FxHashMap::default(),
            storage_sites,
            default_placement: Placement::Striped,
            stripe_unit: 64 * 1024,
            intent_timeout: SimDuration::from_secs(5),
            resolved: Vec::new(),
            dirty_log: FxHashMap::default(),
            resync: FxHashMap::default(),
            gave_up: std::collections::BTreeSet::new(),
            site_probes: FxHashMap::default(),
            marks_acked: FxHashMap::default(),
            resync_events: Vec::new(),
            resync_history: Vec::new(),
            site_state: vec![SiteState::Active; storage_sites as usize],
            initial_state: vec![SiteState::Active; storage_sites as usize],
            pins: FxHashMap::default(),
            drains: FxHashMap::default(),
            migrated_bytes: 0,
            reconf_history: Vec::new(),
        }
    }

    /// Configures the first `active` sites as `Active` and the rest as
    /// `Standby` (awaiting a join). Configuration, not a logged
    /// transition: it is the state `crash` resets to before WAL replay.
    pub fn set_active_sites(&mut self, active: u32) {
        let active = (active.max(1)).min(self.storage_sites) as usize;
        for (i, s) in self.site_state.iter_mut().enumerate() {
            *s = if i < active {
                SiteState::Active
            } else {
                SiteState::Standby
            };
        }
        self.initial_state = self.site_state.clone();
    }

    /// Per-site lifecycle states.
    pub fn site_states(&self) -> &[SiteState] {
        &self.site_state
    }

    /// True once `site` finished a planned drain.
    pub fn is_retired(&self, site: u32) -> bool {
        self.site_state
            .get(site as usize)
            .is_some_and(|&s| s == SiteState::Retired)
    }

    /// Sites that finished a planned drain, sorted.
    pub fn retired_sites(&self) -> Vec<u32> {
        (0..self.storage_sites)
            .filter(|&s| self.is_retired(s))
            .collect()
    }

    /// Sites new block assignments may land on, sorted.
    fn assignable_sites(&self) -> Vec<u32> {
        (0..self.storage_sites)
            .filter(|&s| self.site_state[s as usize] == SiteState::Active)
            .collect()
    }

    /// Outstanding migration ranges (widen + rebalance + drain copies).
    pub fn migrations_pending(&self) -> usize {
        self.owed_migrations(|_| true)
    }

    /// Outstanding migration ranges whose drain origin passes `keep`.
    fn owed_migrations(&self, keep: impl Fn(Option<u32>) -> bool) -> usize {
        self.dirty_log
            .values()
            .flatten()
            .filter(|r| matches!(r.cause, CopyCause::Migration { origin } if keep(origin)))
            .count()
    }

    /// Bytes copied by completed migration ranges.
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes
    }

    /// Completed drains: `(site, started, retired, bytes migrated)`.
    pub fn reconf_history(&self) -> &[(u32, SimTime, SimTime, u64)] {
        &self.reconf_history
    }

    /// Pinned block-map entries held (live soft state).
    pub fn pinned_entries(&self) -> usize {
        self.pins.values().map(|m| m.len()).sum()
    }

    /// Every durable pin: `(file, block, sites)`, sorted by file then
    /// block (for the drain oracle and deterministic audits).
    pub fn pinned_entries_dump(&self) -> Vec<(u64, u64, Vec<u32>)> {
        let mut files: Vec<u64> = self.pins.keys().copied().collect();
        files.sort_unstable();
        let mut out = Vec::new();
        for f in files {
            for (&b, (_, sites)) in &self.pins[&f] {
                out.push((f, b, sites.clone()));
            }
        }
        out
    }

    /// Sets the placement applied to files without an explicit
    /// `SetPlacement` (configuration; survives coordinator crashes).
    pub fn set_default_placement(&mut self, placement: Placement) {
        if let Placement::Coded { n, k } = placement {
            assert!(
                k > 0 && k < n && n <= self.storage_sites,
                "coded (n,k) needs n sites"
            );
        }
        self.default_placement = placement;
    }

    /// Sets the stripe (block) size coded geometry derives from.
    pub fn set_stripe_unit(&mut self, stripe_unit: u64) {
        assert!(stripe_unit > 0);
        self.stripe_unit = stripe_unit;
    }

    /// The block size map entries are keyed on (audit/oracle use).
    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// Intentions currently open (logged, not completed).
    pub fn open_intents(&self) -> usize {
        self.pending.len()
    }

    /// Block-map entries held across all files (live soft state).
    pub fn map_entries(&self) -> usize {
        self.maps.values().map(|(_, m)| m.len()).sum()
    }

    /// The resolution history `(intent, outcome)`.
    pub fn resolutions(&self) -> &[(u64, IntentOutcome)] {
        &self.resolved
    }

    /// WAL statistics (appends, batches, bytes).
    pub fn wal_stats(&self) -> (u64, u64, u64) {
        self.wal.stats()
    }

    /// True while the periodic sweep must keep running: open intentions,
    /// an active resync, or dirty ranges not yet shelved as hopeless.
    pub fn needs_sweep(&self) -> bool {
        !self.pending.is_empty()
            || !self.resync.is_empty()
            || self
                .dirty_log
                .keys()
                .any(|s| !self.gave_up.contains(s) && !self.resync.contains_key(s))
    }

    /// Dirty ranges outstanding across all sites.
    pub fn dirty_ranges(&self) -> usize {
        self.dirty_log.values().map(Vec::len).sum()
    }

    /// A sorted dump of the dirty-region log for structural checking:
    /// `(site, obj, offset, len)`.
    pub fn dirty_log_dump(&self) -> Vec<(u32, u64, u64, u64)> {
        let mut out: Vec<_> = self
            .dirty_log
            .iter()
            .flat_map(|(&site, ranges)| ranges.iter().map(move |r| (site, r.obj, r.offset, r.len)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Completed resynchronizations: `(site, started, finished, bytes)`.
    pub fn resync_history(&self) -> &[(u32, SimTime, SimTime, u64)] {
        &self.resync_history
    }

    /// Total bytes copied by finished and in-flight resyncs.
    pub fn resync_bytes(&self) -> u64 {
        self.resync_history
            .iter()
            .map(|&(_, _, _, b)| b)
            .sum::<u64>()
            + self.resync.values().map(|j| j.bytes).sum::<u64>()
    }

    /// Drains resync start/done events for the hosting actor's trace.
    pub fn take_resync_events(&mut self) -> Vec<ResyncEvent> {
        std::mem::take(&mut self.resync_events)
    }

    /// Restarts resynchronization of `site` (called when the node is
    /// known to have recovered): un-shelves it and forces the next sweep
    /// to retry immediately.
    pub fn kick_resync(&mut self, site: u32) {
        self.gave_up.remove(&site);
        if let Some(job) = self.resync.get_mut(&site) {
            job.attempts = 0;
            job.last_attempt = SimTime::ZERO;
        }
    }

    /// A sorted snapshot of the block maps for structural checking.
    pub fn block_map_dump(&self) -> BlockMapDump {
        let mut out: Vec<_> = self
            .maps
            .iter()
            .map(|(&file, (placement, map))| {
                let mut blocks: Vec<_> = map.iter().map(|(&b, s)| (b, s.clone())).collect();
                blocks.sort_unstable_by_key(|&(b, _)| b);
                (file, *placement, blocks)
            })
            .collect();
        out.sort_unstable_by_key(|&(f, _, _)| f);
        out
    }

    /// The deterministic assignment of one block over `active` sites
    /// (logical slots rotate over the active list, so with every site
    /// active this is the historical all-sites assignment).
    fn compute_sites(placement: Placement, active: &[u32], file: u64, b: u64) -> Vec<u32> {
        let n = active.len() as u32;
        let base = (slice_hashes::fnv1a(&file.to_le_bytes()) % u64::from(n)) as u32;
        let slot = |c: u32| active[((base + (b % u64::from(n)) as u32 + c) % n) as usize];
        match placement {
            Placement::Striped => vec![slot(0)],
            Placement::Mirrored { copies } => (0..copies.min(n)).map(slot).collect(),
            // n consecutive sites starting at a per-stripe rotation:
            // disjoint within the stripe, and load spreads over all
            // sites across stripes.
            Placement::Coded { n: cn, .. } => (0..cn.min(n)).map(slot).collect(),
        }
    }

    fn assign_blocks(
        placement: Placement,
        active: &[u32],
        file: u64,
        blocks: std::ops::Range<u64>,
        map: &mut FxHashMap<u64, Vec<u32>>,
    ) -> Vec<Vec<u32>> {
        blocks
            .map(|b| {
                map.entry(b)
                    .or_insert_with(|| Self::compute_sites(placement, active, file, b))
                    .clone()
            })
            .collect()
    }

    /// The file's map slot, created on first use with its pinned entries
    /// seeded (pins override the deterministic assignment, and a lazily
    /// rebuilt map — e.g. after a coordinator crash — must honor them).
    fn file_map(&mut self, file: u64) -> &mut (Placement, FxHashMap<u64, Vec<u32>>) {
        let default = self.default_placement;
        let entry = self
            .maps
            .entry(file)
            .or_insert_with(|| (default, FxHashMap::default()));
        if entry.1.is_empty() {
            if let Some(pinned) = self.pins.get(&file) {
                for (&b, (_, sites)) in pinned {
                    entry.1.insert(b, sites.clone());
                }
            }
        }
        entry
    }

    /// Handles a request from `requester` (an opaque host token); returns
    /// dispatch actions.
    pub fn handle(&mut self, now: SimTime, requester: u64, msg: CoordMsg) -> Vec<CoordAction> {
        match msg {
            CoordMsg::BeginIntent {
                op_id,
                kind,
                participants,
            } => {
                let (id, durable) = self.open_intent(now, kind, participants);
                vec![CoordAction::Reply {
                    to: requester,
                    reply: CoordReply::IntentAck { op_id, intent: id },
                    at: durable,
                }]
            }
            CoordMsg::CompleteIntent { intent } => {
                if let Some(p) = self.pending.remove(&intent) {
                    // Completion records are logged asynchronously; their
                    // durability does not gate anything.
                    self.log(now, intent, p.kind, p.participants, true);
                    self.resolved.push((intent, IntentOutcome::Completed));
                }
                vec![]
            }
            CoordMsg::MapGet {
                file,
                first_block,
                count,
            } => {
                let active = self.assignable_sites();
                let (placement, map) = self.file_map(file);
                let placement = *placement;
                let sites = Self::assign_blocks(
                    placement,
                    &active,
                    file,
                    first_block..first_block + u64::from(count),
                    map,
                );
                // Mirrored replicas with an open dirty/migration range
                // over the block are "warming": a pinned migration target
                // has no bytes until resync copies them, so reads must
                // not rotate onto it yet. Coded placements repair per
                // shard through degraded reads instead.
                let warming: Vec<Vec<u32>> = if matches!(placement, Placement::Coded { .. }) {
                    vec![Vec::new(); sites.len()]
                } else {
                    (0..sites.len() as u64)
                        .map(|i| {
                            let lo = (first_block + i) * self.stripe_unit;
                            let hi = lo + self.stripe_unit;
                            let mut w: Vec<u32> = self
                                .dirty_log
                                .iter()
                                .filter(|(_, ranges)| {
                                    ranges.iter().any(|r| {
                                        r.obj == file && r.offset < hi && r.offset + r.len > lo
                                    })
                                })
                                .map(|(&site, _)| site)
                                .collect();
                            w.sort_unstable();
                            w
                        })
                        .collect()
                };
                vec![CoordAction::Reply {
                    to: requester,
                    reply: CoordReply::MapFragment {
                        file,
                        first_block,
                        sites,
                        warming,
                    },
                    at: now,
                }]
            }
            CoordMsg::SetPlacement { file, placement } => {
                self.file_map(file).0 = placement;
                vec![CoordAction::Reply {
                    to: requester,
                    reply: CoordReply::PlacementSet { file },
                    at: now,
                }]
            }
            CoordMsg::RemoveFile { req_id, file } => {
                self.fanout(now, requester, req_id, IntentKind::Remove { obj: file })
            }
            CoordMsg::TruncateFile { req_id, file, size } => self.fanout(
                now,
                requester,
                req_id,
                IntentKind::Truncate { obj: file, size },
            ),
            CoordMsg::MarkDirty {
                op_id,
                obj,
                offset,
                len,
                missed,
                sources,
            } => {
                // Retransmission of an already-durable mark: re-ack
                // without duplicating the ranges.
                if let Some(&at) = self.marks_acked.get(&(requester, op_id)) {
                    return vec![CoordAction::Reply {
                        to: requester,
                        reply: CoordReply::DirtyAck { op_id },
                        at: at.max(now),
                    }];
                }
                let coded = matches!(self.placement_of(obj), Placement::Coded { .. });
                let mut durable = now;
                for &site in &missed {
                    // A retired site never returns: queuing copy-back for
                    // it would leak soft state forever.
                    if self.is_retired(site) {
                        continue;
                    }
                    // Mirrored ranges are file ranges; coded ranges are
                    // split per stripe into the site's own shard windows
                    // (object offsets), so each queued range rebuilds
                    // exactly one shard.
                    let windows = if coded {
                        self.coded_missed_windows(obj, offset, len, site, &sources)
                    } else {
                        vec![(offset, len, sources.clone())]
                    };
                    for (w_off, w_len, srcs) in windows {
                        durable =
                            self.owe_copy(now, site, obj, w_off, w_len, srcs, CopyCause::Repair);
                    }
                }
                self.marks_acked.insert((requester, op_id), durable);
                vec![CoordAction::Reply {
                    to: requester,
                    reply: CoordReply::DirtyAck { op_id },
                    at: durable,
                }]
            }
            CoordMsg::ProbeSite { site } => {
                if self.site_is_dirty(site) {
                    return vec![CoordAction::Reply {
                        to: requester,
                        reply: CoordReply::SiteProbe { site, clean: false },
                        at: now,
                    }];
                }
                // Clean on the books — but only the node itself can prove
                // it is alive. Park the requester; the probe reply (if
                // any) releases every parked requester.
                let waiters = self.site_probes.entry(site).or_default();
                if !waiters.contains(&requester) {
                    waiters.push(requester);
                }
                vec![CoordAction::SendCtl {
                    site,
                    ctl: StorageCtl::Probe {
                        intent: SITE_PROBE_BASE | u64::from(site),
                    },
                }]
            }
        }
    }

    /// Allocates the next intention / record id.
    fn next_id(&mut self) -> u64 {
        let id = self.next_intent;
        self.next_intent += 1;
        id
    }

    /// Appends one record to the WAL — 64 bytes for an intention, 32 for
    /// a completion — and returns when it is durable.
    fn log(
        &mut self,
        now: SimTime,
        id: u64,
        kind: IntentKind,
        participants: Vec<u32>,
        is_completion: bool,
    ) -> SimTime {
        let size = if is_completion { 32 } else { 64 };
        let record = IntentRecord {
            id,
            kind,
            participants,
            is_completion,
        };
        self.wal.append(now, record, size)
    }

    /// Logs a multisite intention and opens it (probed if no completion
    /// arrives in time); returns its id and when it is durable.
    fn open_intent(
        &mut self,
        now: SimTime,
        kind: IntentKind,
        participants: Vec<u32>,
    ) -> (u64, SimTime) {
        let id = self.next_id();
        let durable = self.log(now, id, kind.clone(), participants.clone(), false);
        let intent = PendingIntent {
            kind,
            participants,
            logged_at: now,
            probe_results: FxHashMap::default(),
            last_probe: None,
        };
        self.pending.insert(id, intent);
        (id, durable)
    }

    fn site_is_dirty(&self, site: u32) -> bool {
        self.dirty_log.get(&site).is_some_and(|v| !v.is_empty()) || self.resync.contains_key(&site)
    }

    fn placement_of(&self, obj: u64) -> Placement {
        self.maps
            .get(&obj)
            .map_or(self.default_placement, |(p, _)| *p)
    }

    /// The (assigned-if-absent) site list of one stripe of `file` — the
    /// same deterministic assignment `MapGet` hands the µproxy.
    fn stripe_sites(&mut self, file: u64, stripe: u64) -> Vec<u32> {
        let active = self.assignable_sites();
        let (placement, map) = self.file_map(file);
        let placement = *placement;
        Self::assign_blocks(placement, &active, file, stripe..stripe + 1, map)
            .pop()
            .unwrap_or_default()
    }

    /// The object windows `site` missed from a coded write of
    /// `[offset, offset+len)`: one `(object offset, len, stripe sources)`
    /// per overlapped stripe the site participates in — its own data
    /// window when it holds a data shard, the parity hull when it holds
    /// parity.
    fn coded_missed_windows(
        &mut self,
        obj: u64,
        offset: u64,
        len: u64,
        site: u32,
        sources: &[u32],
    ) -> Vec<(u64, u64, Vec<u32>)> {
        let Placement::Coded { n, k } = self.placement_of(obj) else {
            return vec![];
        };
        if len == 0 {
            return vec![];
        }
        let layout = CodedLayout::new(n, k, self.stripe_unit);
        let mut out = Vec::new();
        for s in offset / self.stripe_unit..=(offset + len - 1) / self.stripe_unit {
            let sites = self.stripe_sites(obj, s);
            let Some(idx) = sites.iter().position(|&x| x == site) else {
                continue;
            };
            let idx = idx as u32;
            let (lo, hi) = if idx < k {
                layout.data_window(s, idx, offset, len)
            } else {
                layout.parity_window(s, offset, len)
            };
            if lo >= hi {
                continue;
            }
            let srcs: Vec<u32> = sites
                .iter()
                .copied()
                .filter(|&x| x != site && sources.contains(&x))
                .collect();
            out.push((layout.shard_obj_offset(s, idx, lo), hi - lo, srcs));
        }
        out
    }

    /// Queues a parity rebuild of the boundary stripe after a mid-stripe
    /// truncate of a coded file: the surviving parity bytes still encode
    /// the clipped data, so re-encode from the k data shards (the other
    /// parity shards are equally stale and must not serve as sources).
    fn queue_truncate_parity_rebuild(&mut self, now: SimTime, file: u64, size: u64) {
        let Placement::Coded { n, k } = self.placement_of(file) else {
            return;
        };
        if size.is_multiple_of(self.stripe_unit) {
            return;
        }
        let layout = CodedLayout::new(n, k, self.stripe_unit);
        let stripe = size / self.stripe_unit;
        let sites = self.stripe_sites(file, stripe);
        if sites.len() < n as usize {
            return;
        }
        let data_sites: Vec<u32> = sites[..k as usize].to_vec();
        for p in k..n {
            let offset = layout.shard_obj_offset(stripe, p, 0);
            self.owe_copy(
                now,
                sites[p as usize],
                file,
                offset,
                layout.shard_size(),
                data_sites.clone(),
                CopyCause::Repair,
            );
        }
    }

    /// Plans the copy of `range` to `target`: the source windows to
    /// gather and, for a coded stripe, the decode. A mirror copy reads
    /// the live replicas of the current block map; a coded copy reads
    /// the same shard position from k of the stripe's other sites.
    /// `None` means nothing can be copied (no source survives, the site
    /// left the stripe, or fewer than k shards survive) and the range
    /// should be drained rather than stall forever.
    fn plan_copy(&mut self, target: u32, range: &DirtyRange) -> Option<Gather> {
        if range.sources.is_empty() {
            return None;
        }
        let Placement::Coded { n, k } = self.placement_of(range.obj) else {
            // Re-derive the sources from the current block map: a
            // rebalance between the mark and this copy can move the live
            // replicas.
            let eligible = self
                .map_sources(target, range)
                .into_iter()
                .map(|s| (s, 0, range.offset))
                .collect();
            return Some(Gather {
                range: range.clone(),
                eligible,
                code: None,
                rotation: 0,
                got: Vec::new(),
            });
        };
        let layout = CodedLayout::new(n, k, self.stripe_unit);
        let stripe = range.offset / self.stripe_unit;
        let sites = self.stripe_sites(range.obj, stripe);
        let target_idx = sites.iter().position(|&s| s == target)? as u32;
        let pos = range
            .offset
            .checked_sub(layout.shard_obj_offset(stripe, target_idx, 0))?;
        if pos + range.len > layout.shard_size() {
            return None;
        }
        let eligible: Vec<(u32, u32, u64)> = sites
            .iter()
            .enumerate()
            .filter(|&(i, &s)| i as u32 != target_idx && range.sources.contains(&s))
            .map(|(i, &s)| (s, i as u32, layout.shard_obj_offset(stripe, i as u32, pos)))
            .collect();
        if eligible.len() < k as usize {
            return None;
        }
        Some(Gather {
            range: range.clone(),
            eligible,
            code: Some((n, k, target_idx)),
            rotation: 0,
            got: Vec::new(),
        })
    }

    /// Logs a copy owed to `site` and queues it on the site's dirty log,
    /// un-shelving the site's resync (it is dirty again, so a shelved job
    /// must restart once the node is back). Returns when the record is
    /// durable.
    #[allow(clippy::too_many_arguments)]
    fn owe_copy(
        &mut self,
        now: SimTime,
        site: u32,
        obj: u64,
        offset: u64,
        len: u64,
        sources: Vec<u32>,
        cause: CopyCause,
    ) -> SimTime {
        let range = DirtyRange {
            id: self.next_id(),
            obj,
            offset,
            len,
            sources,
            cause,
        };
        let durable = self.log(now, range.id, range.kind(), vec![site], false);
        self.dirty_log.entry(site).or_default().push(range);
        self.gave_up.remove(&site);
        durable
    }

    /// Durably pins `file`'s `block` entry to `sites`, completing any
    /// previous pin of the same block so replay keeps only the newest.
    fn pin_entry(&mut self, now: SimTime, file: u64, block: u64, sites: Vec<u32>) {
        let id = self.next_id();
        if let Some((old_id, old_sites)) = self
            .pins
            .entry(file)
            .or_default()
            .insert(block, (id, sites.clone()))
        {
            let old = IntentKind::MapPin {
                file,
                block,
                sites: old_sites,
            };
            self.log(now, old_id, old, vec![], true);
        }
        let pin = IntentKind::MapPin { file, block, sites };
        self.log(now, id, pin, vec![], false);
    }

    fn log_site_change(&mut self, now: SimTime, site: u32, state: SiteState, objs: Vec<u64>) {
        let id = self.next_id();
        let kind = IntentKind::SiteChange {
            site,
            state: state.to_u8(),
            objs,
        };
        self.log(now, id, kind, vec![], false);
        self.site_state[site as usize] = state;
    }

    /// Pins every materialized block-map entry. Membership changes alter
    /// the deterministic assignment function, so entries materialized
    /// under the old site set must be made durable before the set
    /// changes — otherwise a coordinator crash would rebuild them
    /// differently and strand the bytes.
    fn pin_all_entries(&mut self, now: SimTime) {
        let mut files: Vec<u64> = self.maps.keys().copied().collect();
        files.sort_unstable();
        for file in files {
            let mut blocks: Vec<(u64, Vec<u32>)> = self.maps[&file]
                .1
                .iter()
                .map(|(&b, s)| (b, s.clone()))
                .collect();
            blocks.sort_unstable_by_key(|&(b, _)| b);
            for (block, sites) in blocks {
                if self.pins.get(&file).is_some_and(|p| p.contains_key(&block)) {
                    continue;
                }
                self.pin_entry(now, file, block, sites);
            }
        }
    }

    /// Widens every mirrored block entry of `file` by one replica on an
    /// active site (demand-driven replication of a hot file): the entry
    /// is pinned with the extra site immediately and the bytes flow to it
    /// through the dirty-region resync path, so readers pick up the new
    /// replica only after the log drains. Returns ranges queued.
    pub fn widen_file(&mut self, now: SimTime, file: u64) -> usize {
        if !matches!(self.placement_of(file), Placement::Mirrored { .. }) {
            return 0;
        }
        let active = self.assignable_sites();
        let blocks: Vec<(u64, Vec<u32>)> = match self.maps.get(&file) {
            Some((_, map)) => {
                let mut v: Vec<_> = map.iter().map(|(&b, s)| (b, s.clone())).collect();
                v.sort_unstable_by_key(|&(b, _)| b);
                v
            }
            None => return 0,
        };
        let unit = self.stripe_unit;
        let mut queued = 0;
        for (block, old) in blocks {
            let candidates: Vec<u32> = active
                .iter()
                .copied()
                .filter(|s| !old.contains(s))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            // Rotate the extra replica across candidates by block so the
            // widened load spreads instead of piling on one site.
            let target = candidates[(block % candidates.len() as u64) as usize];
            let mut sites = old.clone();
            sites.push(target);
            self.pin_entry(now, file, block, sites.clone());
            if let Some((_, map)) = self.maps.get_mut(&file) {
                map.insert(block, sites);
            }
            let cause = CopyCause::Migration { origin: None };
            self.owe_copy(now, target, file, block * unit, unit, old, cause);
            queued += 1;
        }
        queued
    }

    /// Joins a standby `site` and rebalances: mirrored entries whose
    /// fresh assignment over the widened active set lands on the new site
    /// move one replica onto it (pinned, bytes copied online through the
    /// resync path; the surviving old replica keeps serving reads until
    /// the log drains). Returns ranges queued.
    pub fn join_site(&mut self, now: SimTime, site: u32) -> usize {
        if self
            .site_state
            .get(site as usize)
            .is_none_or(|&s| s != SiteState::Standby)
        {
            return 0;
        }
        // Entries pinned before the join (widen/drain placements) are
        // deliberate and stay put; `pin_all_entries` below pins the rest
        // only for crash durability of the old assignment.
        let pre_pinned: FxHashMap<u64, std::collections::BTreeSet<u64>> = self
            .pins
            .iter()
            .map(|(&f, p)| (f, p.keys().copied().collect()))
            .collect();
        self.pin_all_entries(now);
        self.log_site_change(now, site, SiteState::Active, vec![]);
        let active = self.assignable_sites();
        let unit = self.stripe_unit;
        let mut files: Vec<u64> = self.maps.keys().copied().collect();
        files.sort_unstable();
        let mut queued = 0;
        for file in files {
            let (placement, map) = self.maps.get(&file).expect("listed file");
            let placement = *placement;
            if !matches!(placement, Placement::Mirrored { .. }) {
                continue;
            }
            let mut blocks: Vec<(u64, Vec<u32>)> =
                map.iter().map(|(&b, s)| (b, s.clone())).collect();
            blocks.sort_unstable_by_key(|&(b, _)| b);
            for (block, old) in blocks {
                if old.len() < 2
                    || old.contains(&site)
                    || pre_pinned.get(&file).is_some_and(|p| p.contains(&block))
                {
                    continue;
                }
                let fresh = Self::compute_sites(placement, &active, file, block);
                if !fresh.contains(&site) {
                    continue;
                }
                // Move the last replica; the first keeps serving reads
                // while the new one syncs.
                let mut sites = old.clone();
                *sites.last_mut().expect("non-empty entry") = site;
                self.pin_entry(now, file, block, sites.clone());
                if let Some((_, map)) = self.maps.get_mut(&file) {
                    map.insert(block, sites);
                }
                let cause = CopyCause::Migration { origin: None };
                self.owe_copy(now, site, file, block * unit, unit, old, cause);
                queued += 1;
            }
        }
        queued
    }

    /// Starts a planned drain of `site` (migrate-then-retire, distinct
    /// from a crash): every non-coded map entry referencing it is
    /// re-pointed at a replacement site, the bytes are copied online
    /// through the resync path (the draining site stays live and serves
    /// as first source), and when the last migration completes the site
    /// retires — its mapped objects are removed and its per-site soft
    /// state purged. Returns `(ranges queued, immediate actions)`; the
    /// actions are non-empty only when nothing referenced the site and it
    /// retires on the spot.
    pub fn drain_site(&mut self, now: SimTime, site: u32) -> (usize, Vec<CoordAction>) {
        if self
            .site_state
            .get(site as usize)
            .is_none_or(|&s| s != SiteState::Active)
        {
            return (0, vec![]);
        }
        self.pin_all_entries(now);
        let mut files: Vec<u64> = self.maps.keys().copied().collect();
        files.sort_unstable();
        let mut objs = std::collections::BTreeSet::new();
        let mut moves: Vec<(u64, u64, Vec<u32>)> = Vec::new();
        for &file in &files {
            let (placement, map) = self.maps.get(&file).expect("listed file");
            if matches!(placement, Placement::Coded { .. }) {
                continue;
            }
            let mut blocks: Vec<(u64, Vec<u32>)> = map
                .iter()
                .filter(|(_, s)| s.contains(&site))
                .map(|(&b, s)| (b, s.clone()))
                .collect();
            if blocks.is_empty() {
                continue;
            }
            objs.insert(file);
            blocks.sort_unstable_by_key(|&(b, _)| b);
            for (b, old) in blocks {
                moves.push((file, b, old));
            }
        }
        self.log_site_change(
            now,
            site,
            SiteState::Draining,
            objs.iter().copied().collect(),
        );
        self.drains.insert(
            site,
            DrainInfo {
                started: now,
                pending: 0,
                objs,
                bytes: 0,
            },
        );
        let active = self.assignable_sites();
        let unit = self.stripe_unit;
        let mut queued = 0;
        for (file, block, old) in moves {
            let candidates: Vec<u32> = active
                .iter()
                .copied()
                .filter(|s| !old.contains(s))
                .collect();
            if candidates.is_empty() {
                // No replacement capacity: the entry keeps referencing the
                // site and the drain stays open (visible via gauges).
                continue;
            }
            let replacement = candidates[(block % candidates.len() as u64) as usize];
            let fresh: Vec<u32> = old
                .iter()
                .map(|&s| if s == site { replacement } else { s })
                .collect();
            self.pin_entry(now, file, block, fresh.clone());
            if let Some((_, map)) = self.maps.get_mut(&file) {
                map.insert(block, fresh);
            }
            // The draining site is alive and authoritative: it leads the
            // source list.
            let sources: Vec<u32> = std::iter::once(site)
                .chain(old.iter().copied().filter(|&s| s != site))
                .collect();
            let cause = CopyCause::Migration { origin: Some(site) };
            self.owe_copy(now, replacement, file, block * unit, unit, sources, cause);
            queued += 1;
        }
        self.drains.get_mut(&site).expect("just inserted").pending = queued;
        if queued == 0 {
            let actions = self.finish_drain(now, site);
            (0, actions)
        } else {
            (queued, vec![])
        }
    }

    /// Retires a fully drained site: logs the transition, purges its
    /// per-site soft state (the dirty log, resync job, shelf, and probe
    /// waiters a never-returning node would otherwise leak), and removes
    /// its mapped objects.
    fn finish_drain(&mut self, now: SimTime, site: u32) -> Vec<CoordAction> {
        // Only retire once nothing references the site (a move that found
        // no replacement capacity leaves the drain open).
        let referenced = self
            .maps
            .values()
            .any(|(_, m)| m.values().any(|s| s.contains(&site)))
            || self
                .pins
                .values()
                .any(|p| p.values().any(|(_, s)| s.contains(&site)));
        if referenced {
            return vec![];
        }
        let Some(info) = self.drains.remove(&site) else {
            return vec![];
        };
        self.log_site_change(now, site, SiteState::Retired, vec![]);
        for r in self.dirty_log.remove(&site).unwrap_or_default() {
            // Ranges still queued *for* the retired site are moot; complete
            // them durably so they cannot replay.
            self.log(now, r.id, r.kind(), vec![site], true);
        }
        self.resync.remove(&site);
        self.gave_up.remove(&site);
        self.site_probes.remove(&site);
        self.reconf_history
            .push((site, info.started, now, info.bytes));
        info.objs
            .iter()
            .map(|&obj| CoordAction::SendCtl {
                site,
                ctl: StorageCtl::Remove { obj },
            })
            .collect()
    }

    /// Live sources for a mirrored range derived from the *current* block
    /// map: after a rebalance the replica set can differ from the one
    /// recorded when the range was logged. Sites that are the target,
    /// retired, or themselves dirty over the same bytes are excluded; the
    /// recorded set is the fallback when nothing usable is mapped (the
    /// old replica may still physically hold the bytes).
    fn map_sources(&self, target: u32, range: &DirtyRange) -> Vec<u32> {
        let block = range.offset / self.stripe_unit;
        let Some(sites) = self.maps.get(&range.obj).and_then(|(_, m)| m.get(&block)) else {
            return range.sources.clone();
        };
        let derived: Vec<u32> = sites
            .iter()
            .copied()
            .filter(|&s| {
                s != target
                    && !self.is_retired(s)
                    && !self.dirty_log.get(&s).is_some_and(|rs| {
                        rs.iter().any(|r| {
                            r.obj == range.obj
                                && r.offset < range.offset + range.len
                                && range.offset < r.offset + r.len
                        })
                    })
            })
            .collect();
        if derived.is_empty() {
            range.sources.clone()
        } else {
            derived
        }
    }

    /// Logs a remove or truncate intention and fans it out to every
    /// site that may hold the file's data.
    fn fanout(
        &mut self,
        now: SimTime,
        requester: u64,
        req_id: u64,
        kind: IntentKind,
    ) -> Vec<CoordAction> {
        let (file, is_remove) = match kind {
            IntentKind::Remove { obj } => (obj, true),
            IntentKind::Truncate { obj, .. } => (obj, false),
            _ => unreachable!("only removes and truncates fan out"),
        };
        // Standby sites never held data and retired sites are gone; a
        // fan-out waiting on either would wedge for nothing.
        let participants: Vec<u32> = (0..self.storage_sites)
            .filter(|&s| {
                matches!(
                    self.site_state[s as usize],
                    SiteState::Active | SiteState::Draining
                )
            })
            .collect();
        if is_remove {
            // The file's pinned entries die with it (durably: a recovered
            // coordinator must not resurrect the map of a removed file).
            if let Some(pinned) = self.pins.remove(&file) {
                for (block, (pin_id, sites)) in pinned {
                    let pin = IntentKind::MapPin { file, block, sites };
                    self.log(now, pin_id, pin, vec![], true);
                }
            }
        }
        let ctls = fanout_ctls(&kind, &participants);
        let (id, _) = self.open_intent(now, kind, participants.clone());
        self.fanouts.insert(
            id,
            PendingFanout {
                requester,
                req_id,
                waiting: participants.clone(),
                intent: id,
                is_remove,
            },
        );
        self.maps.remove(&file);
        ctls
    }

    /// Handles a control reply from storage site `site`.
    pub fn handle_ctl_reply(
        &mut self,
        now: SimTime,
        site: u32,
        reply: StorageCtlReply,
    ) -> Vec<CoordAction> {
        match reply {
            StorageCtlReply::Done => {
                // Match against fan-out operations awaiting this site, in
                // intent order (oldest first) for determinism.
                let mut ids: Vec<u64> = self.fanouts.keys().copied().collect();
                ids.sort_unstable();
                let mut finished = None;
                for id in ids {
                    let f = self.fanouts.get_mut(&id).expect("listed fanout");
                    if let Some(pos) = f.waiting.iter().position(|&s| s == site) {
                        f.waiting.swap_remove(pos);
                        if f.waiting.is_empty() {
                            finished = Some(id);
                        }
                        break;
                    }
                }
                if let Some(id) = finished {
                    let f = self.fanouts.remove(&id).expect("finished fanout");
                    // A completed truncate of a coded file leaves stale
                    // parity in the boundary stripe; queue its rebuild
                    // now that every site holds the clipped data.
                    let trunc = match self.pending.get(&f.intent).map(|p| &p.kind) {
                        Some(&IntentKind::Truncate { obj, size }) => Some((obj, size)),
                        _ => None,
                    };
                    if let Some((obj, size)) = trunc {
                        self.queue_truncate_parity_rebuild(now, obj, size);
                    }
                    let mut actions =
                        self.handle(now, 0, CoordMsg::CompleteIntent { intent: f.intent });
                    actions.push(CoordAction::Reply {
                        to: f.requester,
                        reply: if f.is_remove {
                            CoordReply::RemoveDone { req_id: f.req_id }
                        } else {
                            CoordReply::TruncateDone { req_id: f.req_id }
                        },
                        at: now,
                    });
                    return actions;
                }
                vec![]
            }
            StorageCtlReply::ProbeResult { intent, .. } if intent >= SITE_PROBE_BASE => {
                // A site-liveness probe answered: the node is up. Report
                // whether it is also clean (no dirty ranges, no resync).
                let s = (intent & !SITE_PROBE_BASE) as u32;
                let clean = !self.site_is_dirty(s);
                self.site_probes
                    .remove(&s)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|to| CoordAction::Reply {
                        to,
                        reply: CoordReply::SiteProbe { site: s, clean },
                        at: now,
                    })
                    .collect()
            }
            StorageCtlReply::ProbeResult { intent, completed } => {
                let Some(p) = self.pending.get_mut(&intent) else {
                    return vec![];
                };
                p.probe_results.insert(site, completed);
                if p.probe_results.len() == p.participants.len() {
                    let p = self.pending.remove(&intent).expect("probed intent");
                    let done = p.probe_results.values().filter(|&&c| c).count();
                    let outcome = if done == p.participants.len() {
                        IntentOutcome::ProbedComplete
                    } else if done == 0 {
                        IntentOutcome::Aborted
                    } else {
                        IntentOutcome::Repaired
                    };
                    self.resolved.push((intent, outcome));
                    self.log(now, intent, p.kind.clone(), p.participants.clone(), true);
                    // A probed truncate that (partially) happened clips
                    // coded data shards: rebuild the boundary stripe's
                    // parity unless no site truncated at all.
                    if let IntentKind::Truncate { obj, size } = &p.kind {
                        if outcome != IntentOutcome::Aborted {
                            self.queue_truncate_parity_rebuild(now, *obj, *size);
                        }
                    }
                    // Repair for remove/truncate: re-issue to every site
                    // (idempotent); writes are resolved by NFS V3
                    // uncommitted-write semantics.
                    if outcome == IntentOutcome::Repaired {
                        return fanout_ctls(&p.kind, &p.participants);
                    }
                }
                vec![]
            }
            StorageCtlReply::ResyncData { obj, offset, data } => {
                // `site` is a source; find the job gathering this window
                // (sorted for determinism).
                let mut targets: Vec<u32> = self.resync.keys().copied().collect();
                targets.sort_unstable();
                let wanted = targets.into_iter().find_map(|target| {
                    let Some(ResyncStage::Gather(g)) = &self.resync[&target].stage else {
                        return None;
                    };
                    let idx = g.legs().find(|&(s, _, o)| s == site && o == offset)?.1;
                    let fresh = g.range.obj == obj && g.got.iter().all(|&(s, ..)| s != site);
                    fresh.then_some((target, idx))
                });
                let Some((target, idx)) = wanted else {
                    return vec![];
                };
                let job = self.resync.get_mut(&target).expect("found above");
                let Some(ResyncStage::Gather(mut g)) = job.stage.take() else {
                    unreachable!("matched above");
                };
                g.got.push((site, idx, data));
                if g.got.len() < g.need() {
                    job.stage = Some(ResyncStage::Gather(g));
                    return vec![];
                }
                let range = g.range.clone();
                match g.finish() {
                    Some(data) => {
                        job.stage = Some(ResyncStage::Apply(range.clone(), data.clone()));
                        job.last_attempt = now;
                        job.attempts = 0;
                        vec![CoordAction::SendCtl {
                            site: target,
                            ctl: StorageCtl::ResyncWrite {
                                obj,
                                offset: range.offset,
                                data,
                            },
                        }]
                    }
                    None => {
                        // Unreachable for a Cauchy code with k distinct
                        // shards; drain defensively rather than wedge the
                        // queue.
                        let mut acts = self.complete_range(now, target, &range);
                        acts.extend(self.advance_resync(now, target));
                        acts
                    }
                }
            }
            StorageCtlReply::ResyncApplied { obj, offset } => {
                // `site` is the recovering target.
                let hit = matches!(
                    self.resync.get(&site).and_then(|j| j.stage.as_ref()),
                    Some(ResyncStage::Apply(r, _)) if r.obj == obj && r.offset == offset
                );
                if !hit {
                    return vec![];
                }
                let job = self.resync.get_mut(&site).expect("checked");
                let Some(ResyncStage::Apply(range, _)) = job.stage.take() else {
                    unreachable!("matched above");
                };
                job.bytes += range.len;
                let mut acts = self.complete_range(now, site, &range);
                acts.extend(self.advance_resync(now, site));
                acts
            }
        }
    }

    /// Logs a durable completion for a copied range, drops it from the
    /// dirty log, and settles any migration/drain bookkeeping riding on
    /// it (retiring the origin site when its last migration lands).
    fn complete_range(&mut self, now: SimTime, site: u32, range: &DirtyRange) -> Vec<CoordAction> {
        self.log(now, range.id, range.kind(), vec![site], true);
        let Some(v) = self.dirty_log.get_mut(&site) else {
            return vec![];
        };
        let Some(pos) = v.iter().position(|r| r.id == range.id) else {
            return vec![];
        };
        let done = v.remove(pos);
        if v.is_empty() {
            self.dirty_log.remove(&site);
        }
        let CopyCause::Migration { origin } = done.cause else {
            return vec![];
        };
        self.migrated_bytes += done.len;
        let Some(info) = origin.and_then(|o| self.drains.get_mut(&o)) else {
            return vec![];
        };
        info.bytes += done.len;
        info.pending = info.pending.saturating_sub(1);
        if info.pending == 0 {
            return self.finish_drain(now, origin.expect("drain origin"));
        }
        vec![]
    }

    /// The current in-flight legs of `site`'s resync, for (re)sending:
    /// the attempt's source reads, or the apply.
    fn resync_leg(&self, site: u32) -> Vec<CoordAction> {
        let Some(job) = self.resync.get(&site) else {
            return vec![];
        };
        match job.stage.as_ref() {
            None => vec![],
            Some(ResyncStage::Gather(g)) => g
                .legs()
                .map(|(src, _, offset)| CoordAction::SendCtl {
                    site: src,
                    ctl: StorageCtl::ResyncRead {
                        obj: g.range.obj,
                        offset,
                        len: g.range.len,
                    },
                })
                .collect(),
            Some(ResyncStage::Apply(r, data)) => vec![CoordAction::SendCtl {
                site,
                ctl: StorageCtl::ResyncWrite {
                    obj: r.obj,
                    offset: r.offset,
                    data: data.clone(),
                },
            }],
        }
    }

    /// Pulls the next range off `site`'s resync queue (finishing the job
    /// when it drains) and emits the read legs for it.
    fn advance_resync(&mut self, now: SimTime, site: u32) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        loop {
            let popped = match self.resync.get_mut(&site) {
                Some(job) => job.queue.pop_front(),
                None => return actions,
            };
            let Some(range) = popped else {
                let job = self.resync.remove(&site).expect("present");
                self.resync_history
                    .push((site, job.started, now, job.bytes));
                self.resync_events.push((site, true, now, job.bytes));
                return actions;
            };
            let Some(gather) = self.plan_copy(site, &range) else {
                actions.extend(self.complete_range(now, site, &range));
                continue;
            };
            let job = self.resync.get_mut(&site).expect("present");
            job.stage = Some(ResyncStage::Gather(gather));
            job.last_attempt = now;
            job.attempts = 0;
            actions.extend(self.resync_leg(site));
            return actions;
        }
    }

    /// Starts copy-backs for dirty sites and retries stalled legs. Runs
    /// from the same periodic sweep as intention timeouts.
    fn pump_resync(&mut self, now: SimTime) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        let mut dirty_sites: Vec<u32> = self
            .dirty_log
            .keys()
            .copied()
            .filter(|s| !self.resync.contains_key(s) && !self.gave_up.contains(s))
            .collect();
        dirty_sites.sort_unstable();
        for site in dirty_sites {
            let queue: std::collections::VecDeque<DirtyRange> = self
                .dirty_log
                .get(&site)
                .cloned()
                .unwrap_or_default()
                .into();
            self.resync.insert(
                site,
                ResyncJob {
                    queue,
                    stage: None,
                    bytes: 0,
                    started: now,
                    last_attempt: now,
                    attempts: 0,
                },
            );
            self.resync_events.push((site, false, now, 0));
            actions.extend(self.advance_resync(now, site));
        }
        let mut active: Vec<u32> = self.resync.keys().copied().collect();
        active.sort_unstable();
        for site in active {
            let job = self.resync.get_mut(&site).expect("listed job");
            if job.stage.is_none() || now - job.last_attempt < RESYNC_RETRY {
                continue;
            }
            job.attempts += 1;
            if job.attempts > RESYNC_MAX_ATTEMPTS {
                // The dirty log is the ground truth; drop only the job.
                // A recovery kick starts a fresh one.
                self.resync.remove(&site);
                self.gave_up.insert(site);
                continue;
            }
            job.last_attempt = now;
            // The retry rotates to the next planned sources (one of them
            // may have died) and regathers every window.
            if let Some(ResyncStage::Gather(g)) = &mut job.stage {
                g.rotation = job.attempts;
                g.got.clear();
            }
            actions.extend(self.resync_leg(site));
        }
        actions
    }

    /// Scans for intentions older than the timeout and launches probes;
    /// also drives resynchronization of dirty sites. The host calls this
    /// from a periodic timer.
    pub fn check_timeouts(&mut self, now: SimTime) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        for (&id, p) in self.pending.iter_mut() {
            let due = now - p.last_probe.unwrap_or(p.logged_at) >= self.intent_timeout;
            if due {
                p.last_probe = Some(now);
                for &site in &p.participants {
                    actions.push(CoordAction::SendCtl {
                        site,
                        ctl: StorageCtl::Probe { intent: id },
                    });
                }
            }
        }
        actions.extend(self.pump_resync(now));
        actions
    }

    /// Simulates a coordinator crash: volatile state is lost; the WAL (in
    /// shared network storage) survives.
    pub fn crash(&mut self) -> Wal<IntentRecord> {
        self.pending.clear();
        self.fanouts.clear();
        self.maps.clear();
        self.dirty_log.clear();
        self.resync.clear();
        self.gave_up.clear();
        self.site_probes.clear();
        self.marks_acked.clear();
        self.resync_events.clear();
        self.pins.clear();
        self.drains.clear();
        self.site_state = self.initial_state.clone();
        std::mem::replace(&mut self.wal, Wal::new(WalParams::default()))
    }

    /// Recovers from a WAL: open intentions (logged, never completed by
    /// `crash_time`) are re-instated and immediately probed.
    pub fn recover(
        &mut self,
        now: SimTime,
        wal: Wal<IntentRecord>,
        crash_time: SimTime,
    ) -> Vec<CoordAction> {
        let records = wal.recover(crash_time);
        self.wal = wal;
        let mut open: FxHashMap<u64, IntentRecord> = FxHashMap::default();
        for r in records {
            if r.is_completion {
                open.remove(&r.id);
            } else {
                self.next_intent = self.next_intent.max(r.id + 1);
                open.insert(r.id, r);
            }
        }
        let mut actions = Vec::new();
        let mut records: Vec<(u64, IntentRecord)> = open.into_iter().collect();
        records.sort_unstable_by_key(|&(id, _)| id);
        for (id, r) in records {
            // Owed copies rebuild the dirty-region log (the sweep resyncs
            // them) and reconfiguration records replay into soft state
            // directly; none of them is a storage-side intention to probe.
            match r.kind {
                IntentKind::DirtyRange {
                    obj,
                    offset,
                    len,
                    ref sources,
                    cause,
                } => {
                    let site = r.participants.first().copied().unwrap_or(0);
                    self.dirty_log.entry(site).or_default().push(DirtyRange {
                        id,
                        obj,
                        offset,
                        len,
                        sources: sources.clone(),
                        cause,
                    });
                    continue;
                }
                IntentKind::MapPin {
                    file,
                    block,
                    ref sites,
                } => {
                    self.pins
                        .entry(file)
                        .or_default()
                        .insert(block, (id, sites.clone()));
                    continue;
                }
                IntentKind::SiteChange {
                    site,
                    state,
                    ref objs,
                } => {
                    let state = SiteState::from_u8(state);
                    if let Some(slot) = self.site_state.get_mut(site as usize) {
                        *slot = state;
                    }
                    match state {
                        SiteState::Draining => {
                            self.drains.insert(
                                site,
                                DrainInfo {
                                    started: now,
                                    pending: 0,
                                    objs: objs.iter().copied().collect(),
                                    bytes: 0,
                                },
                            );
                        }
                        SiteState::Retired => {
                            self.drains.remove(&site);
                        }
                        _ => {}
                    }
                    continue;
                }
                _ => {}
            }
            self.pending.insert(
                id,
                PendingIntent {
                    kind: r.kind,
                    participants: r.participants.clone(),
                    logged_at: now,
                    probe_results: FxHashMap::default(),
                    last_probe: Some(now),
                },
            );
            for site in r.participants {
                actions.push(CoordAction::SendCtl {
                    site,
                    ctl: StorageCtl::Probe { intent: id },
                });
            }
        }
        // Recount each replayed drain's pending migrations; a drain whose
        // last migration completed just before the crash retires now.
        let mut draining: Vec<u32> = self.drains.keys().copied().collect();
        draining.sort_unstable();
        for site in draining {
            let pending = self.owed_migrations(|o| o == Some(site));
            self.drains.get_mut(&site).expect("listed drain").pending = pending;
            if pending == 0 {
                let acts = self.finish_drain(now, site);
                actions.extend(acts);
            }
        }
        actions
    }
}

/// The control messages that carry out a remove or truncate intention
/// on every participant (none for any other kind).
fn fanout_ctls(kind: &IntentKind, participants: &[u32]) -> Vec<CoordAction> {
    let ctl = match *kind {
        IntentKind::Remove { obj } => StorageCtl::Remove { obj },
        IntentKind::Truncate { obj, size } => StorageCtl::Truncate { obj, size },
        _ => return vec![],
    };
    participants
        .iter()
        .map(|&site| CoordAction::SendCtl {
            site,
            ctl: ctl.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A degraded-write mark: `missed` sites will lack
    /// `[offset, offset+len)` of `obj`, which `sources` hold.
    fn mark(
        op_id: u64,
        obj: u64,
        offset: u64,
        len: u64,
        missed: &[u32],
        sources: &[u32],
    ) -> CoordMsg {
        CoordMsg::MarkDirty {
            op_id,
            obj,
            offset,
            len,
            missed: missed.to_vec(),
            sources: sources.to_vec(),
        }
    }

    fn begin(c: &mut Coordinator, now: SimTime) -> u64 {
        let actions = c.handle(
            now,
            7,
            CoordMsg::BeginIntent {
                op_id: 1,
                kind: IntentKind::MirroredWrite {
                    obj: 5,
                    offset: 0,
                    len: 8192,
                },
                participants: vec![0, 1],
            },
        );
        match &actions[0] {
            CoordAction::Reply {
                reply: CoordReply::IntentAck { intent, .. },
                at,
                ..
            } => {
                assert!(*at > now, "ack must wait for log durability");
                *intent
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn intent_complete_cycle() {
        let mut c = Coordinator::new(4);
        let id = begin(&mut c, t(0));
        assert_eq!(c.open_intents(), 1);
        c.handle(t(1), 7, CoordMsg::CompleteIntent { intent: id });
        assert_eq!(c.open_intents(), 0);
        assert_eq!(c.resolutions(), &[(id, IntentOutcome::Completed)]);
    }

    #[test]
    fn timeout_probes_participants() {
        let mut c = Coordinator::new(4);
        let id = begin(&mut c, t(0));
        assert!(c.check_timeouts(t(100)).is_empty(), "too early to probe");
        let probes = c.check_timeouts(t(6000));
        assert_eq!(probes.len(), 2);
        assert!(probes.iter().all(|a| matches!(
            a,
            CoordAction::SendCtl { ctl: StorageCtl::Probe { intent }, .. } if *intent == id
        )));
        // Probes are not re-sent.
        assert!(c.check_timeouts(t(7000)).is_empty());
    }

    #[test]
    fn probe_all_complete_resolves_completed() {
        let mut c = Coordinator::new(2);
        let id = begin(&mut c, t(0));
        c.check_timeouts(t(6000));
        c.handle_ctl_reply(
            t(6001),
            0,
            StorageCtlReply::ProbeResult {
                intent: id,
                completed: true,
            },
        );
        c.handle_ctl_reply(
            t(6002),
            1,
            StorageCtlReply::ProbeResult {
                intent: id,
                completed: true,
            },
        );
        assert_eq!(c.resolutions(), &[(id, IntentOutcome::ProbedComplete)]);
    }

    #[test]
    fn probe_none_complete_aborts() {
        let mut c = Coordinator::new(2);
        let id = begin(&mut c, t(0));
        c.check_timeouts(t(6000));
        c.handle_ctl_reply(
            t(6001),
            0,
            StorageCtlReply::ProbeResult {
                intent: id,
                completed: false,
            },
        );
        c.handle_ctl_reply(
            t(6002),
            1,
            StorageCtlReply::ProbeResult {
                intent: id,
                completed: false,
            },
        );
        assert_eq!(c.resolutions(), &[(id, IntentOutcome::Aborted)]);
    }

    #[test]
    fn remove_fanout_completes_when_all_sites_ack() {
        let mut c = Coordinator::new(3);
        let actions = c.handle(
            t(0),
            42,
            CoordMsg::RemoveFile {
                req_id: 9,
                file: 77,
            },
        );
        assert_eq!(actions.len(), 3);
        assert!(c
            .handle_ctl_reply(t(1), 0, StorageCtlReply::Done)
            .is_empty());
        assert!(c
            .handle_ctl_reply(t(2), 1, StorageCtlReply::Done)
            .is_empty());
        let done = c.handle_ctl_reply(t(3), 2, StorageCtlReply::Done);
        assert!(done.iter().any(|a| matches!(
            a,
            CoordAction::Reply {
                to: 42,
                reply: CoordReply::RemoveDone { req_id: 9 },
                ..
            }
        )));
        assert_eq!(c.open_intents(), 0);
    }

    #[test]
    fn map_fragments_are_stable_and_striped() {
        let mut c = Coordinator::new(4);
        let a1 = c.handle(
            t(0),
            1,
            CoordMsg::MapGet {
                file: 10,
                first_block: 0,
                count: 8,
            },
        );
        let a2 = c.handle(
            t(1),
            1,
            CoordMsg::MapGet {
                file: 10,
                first_block: 0,
                count: 8,
            },
        );
        let get = |a: &Vec<CoordAction>| match &a[0] {
            CoordAction::Reply {
                reply: CoordReply::MapFragment { sites, .. },
                ..
            } => sites.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let s1 = get(&a1);
        assert_eq!(s1, get(&a2), "map assignment must be stable");
        // Striped: 8 consecutive blocks cover all 4 sites twice.
        let mut counts = [0; 4];
        for s in &s1 {
            assert_eq!(s.len(), 1);
            counts[s[0] as usize] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
    }

    #[test]
    fn mirrored_placement_yields_replicas() {
        let mut c = Coordinator::new(4);
        c.handle(
            t(0),
            1,
            CoordMsg::SetPlacement {
                file: 3,
                placement: Placement::Mirrored { copies: 2 },
            },
        );
        let a = c.handle(
            t(1),
            1,
            CoordMsg::MapGet {
                file: 3,
                first_block: 0,
                count: 4,
            },
        );
        match &a[0] {
            CoordAction::Reply {
                reply: CoordReply::MapFragment { sites, .. },
                ..
            } => {
                for s in sites {
                    assert_eq!(s.len(), 2);
                    assert_ne!(s[0], s[1]);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recovery_reinstates_open_intents() {
        let mut c = Coordinator::new(2);
        let id_open = begin(&mut c, t(0));
        let id_closed = begin(&mut c, t(10));
        c.handle(t(20), 7, CoordMsg::CompleteIntent { intent: id_closed });
        let crash_time = t(1000);
        let wal = c.crash();
        assert_eq!(c.open_intents(), 0);
        let actions = c.recover(t(2000), wal, crash_time);
        assert_eq!(c.open_intents(), 1);
        assert!(actions.iter().all(|a| matches!(
            a,
            CoordAction::SendCtl { ctl: StorageCtl::Probe { intent }, .. } if *intent == id_open
        )));
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn mark_dirty_acks_durably_and_idempotently() {
        let mut c = Coordinator::new(4);
        let mark = mark(99, 5, 0, 65536, &[2], &[1]);
        let a = c.handle(t(0), 7, mark.clone());
        match &a[0] {
            CoordAction::Reply {
                reply: CoordReply::DirtyAck { op_id: 99 },
                at,
                ..
            } => assert!(*at > t(0), "ack must wait for log durability"),
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(c.dirty_ranges(), 1);
        // A retransmitted mark re-acks without duplicating the range.
        let a2 = c.handle(t(1), 7, mark);
        assert!(matches!(
            &a2[0],
            CoordAction::Reply {
                reply: CoordReply::DirtyAck { op_id: 99 },
                ..
            }
        ));
        assert_eq!(c.dirty_ranges(), 1);
    }

    #[test]
    fn mark_dirty_dedups_per_requester() {
        // Every client numbers its xids from 1, so two requesters can
        // mark different writes under the same op id.
        let mut c = Coordinator::new(4);
        c.handle(t(0), 7, mark(1, 5, 0, 100, &[2], &[1]));
        c.handle(t(1), 8, mark(1, 6, 0, 100, &[2], &[1]));
        assert_eq!(c.dirty_log_dump(), vec![(2, 5, 0, 100), (2, 6, 0, 100)]);
        // A real retransmission (same requester, same op id) re-acks only.
        let again = c.handle(t(2), 8, mark(1, 6, 0, 100, &[2], &[1]));
        assert!(matches!(
            &again[..],
            [CoordAction::Reply {
                to: 8,
                reply: CoordReply::DirtyAck { op_id: 1 },
                ..
            }]
        ));
        assert_eq!(c.dirty_ranges(), 2);
    }

    #[test]
    fn resync_copies_ranges_and_drains_dirty_log() {
        let mut c = Coordinator::new(4);
        c.handle(t(0), 7, mark(1, 9, 0, 100, &[2], &[1]));
        assert!(c.needs_sweep());
        let acts = c.check_timeouts(t(1000));
        assert!(acts.iter().any(|a| matches!(
            a,
            CoordAction::SendCtl {
                site: 1,
                ctl: StorageCtl::ResyncRead {
                    obj: 9,
                    offset: 0,
                    len: 100
                }
            }
        )));
        let acts = c.handle_ctl_reply(
            t(1001),
            1,
            StorageCtlReply::ResyncData {
                obj: 9,
                offset: 0,
                data: vec![7; 100].into(),
            },
        );
        assert!(matches!(
            &acts[0],
            CoordAction::SendCtl {
                site: 2,
                ctl: StorageCtl::ResyncWrite {
                    obj: 9,
                    offset: 0,
                    ..
                }
            }
        ));
        let acts = c.handle_ctl_reply(
            t(1002),
            2,
            StorageCtlReply::ResyncApplied { obj: 9, offset: 0 },
        );
        assert!(acts.is_empty());
        assert_eq!(c.dirty_ranges(), 0);
        assert!(!c.needs_sweep(), "drained coordinator must go idle");
        assert_eq!(c.resync_history().len(), 1);
        assert_eq!(c.resync_bytes(), 100);
    }

    #[test]
    fn dirty_ranges_survive_coordinator_crash() {
        let mut c = Coordinator::new(4);
        c.handle(t(0), 7, mark(1, 9, 0, 100, &[3], &[0]));
        let wal = c.crash();
        assert_eq!(c.dirty_ranges(), 0);
        let actions = c.recover(t(5000), wal, t(1000));
        assert!(actions.is_empty(), "dirty ranges are resynced, not probed");
        assert_eq!(c.dirty_ranges(), 1);
        assert!(c.needs_sweep());
    }

    #[test]
    fn site_probe_waits_for_node_liveness() {
        let mut c = Coordinator::new(4);
        let acts = c.handle(t(0), 7, CoordMsg::ProbeSite { site: 2 });
        let intent = match &acts[0] {
            CoordAction::SendCtl {
                site: 2,
                ctl: StorageCtl::Probe { intent },
            } => *intent,
            other => panic!("unexpected action {other:?}"),
        };
        let acts = c.handle_ctl_reply(
            t(1),
            2,
            StorageCtlReply::ProbeResult {
                intent,
                completed: false,
            },
        );
        assert!(matches!(
            &acts[0],
            CoordAction::Reply {
                to: 7,
                reply: CoordReply::SiteProbe {
                    site: 2,
                    clean: true
                },
                ..
            }
        ));
    }

    #[test]
    fn dirty_site_probe_is_immediately_unclean() {
        let mut c = Coordinator::new(4);
        c.handle(t(0), 7, mark(1, 9, 0, 100, &[2], &[1]));
        let acts = c.handle(t(1), 8, CoordMsg::ProbeSite { site: 2 });
        assert!(matches!(
            &acts[0],
            CoordAction::Reply {
                to: 8,
                reply: CoordReply::SiteProbe {
                    site: 2,
                    clean: false
                },
                ..
            }
        ));
    }

    /// A (4,2) coordinator with 4-shard stripes of 8 bytes (shards of
    /// 4), plus the site list of stripe 0 of `file`.
    fn coded_coord(file: u64) -> (Coordinator, Vec<u32>) {
        let mut c = Coordinator::new(4);
        c.set_default_placement(Placement::Coded { n: 4, k: 2 });
        c.set_stripe_unit(8);
        let acts = c.handle(
            t(0),
            1,
            CoordMsg::MapGet {
                file,
                first_block: 0,
                count: 1,
            },
        );
        let sites = match &acts[0] {
            CoordAction::Reply {
                reply: CoordReply::MapFragment { sites, .. },
                ..
            } => sites[0].clone(),
            other => panic!("unexpected {other:?}"),
        };
        (c, sites)
    }

    #[test]
    fn coded_placement_yields_n_disjoint_sites() {
        let (_, sites) = coded_coord(10);
        assert_eq!(sites.len(), 4);
        let mut uniq = sites.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "shard sites must be disjoint");
    }

    #[test]
    fn coded_mark_dirty_splits_into_shard_windows() {
        let (mut c, sites) = coded_coord(10);
        // A full-stripe write missed by the second parity site: its
        // window is object [4, 8) (p=1), not the file range [0, 8).
        let missed = [sites[3]];
        c.handle(t(0), 7, mark(1, 10, 0, 8, &missed, &sites[..3]));
        assert_eq!(
            c.dirty_log_dump(),
            vec![(sites[3], 10, 4, 4)],
            "parity shard window, in object offsets"
        );
    }

    #[test]
    fn coded_resync_rebuilds_shard_from_k_survivors() {
        let (mut c, sites) = coded_coord(10);
        let codec = slice_ec::Codec::new(4, 2);
        let d0 = [1u8, 2, 3, 4];
        let d1 = [5u8, 6, 7, 8];
        let parity = codec.encode(&[&d0, &d1]);
        // The site holding data shard 0 missed a full-stripe write.
        c.handle(t(0), 7, mark(1, 10, 0, 8, &sites[..1], &sites[1..]));
        assert_eq!(c.dirty_log_dump(), vec![(sites[0], 10, 0, 4)]);
        // The sweep reads the same position window of k=2 survivors:
        // data shard 1 (object [4,8)) and parity p=0 (object [0,4)).
        let acts = c.check_timeouts(t(1000));
        assert!(acts.contains(&CoordAction::SendCtl {
            site: sites[1],
            ctl: StorageCtl::ResyncRead {
                obj: 10,
                offset: 4,
                len: 4
            }
        }));
        assert!(acts.contains(&CoordAction::SendCtl {
            site: sites[2],
            ctl: StorageCtl::ResyncRead {
                obj: 10,
                offset: 0,
                len: 4
            }
        }));
        assert_eq!(acts.len(), 2);
        // Feed both windows back; the rebuilt shard must be d0.
        let acts = c.handle_ctl_reply(
            t(1001),
            sites[1],
            StorageCtlReply::ResyncData {
                obj: 10,
                offset: 4,
                data: d1.to_vec().into(),
            },
        );
        assert!(acts.is_empty(), "one of two windows is not enough");
        let acts = c.handle_ctl_reply(
            t(1002),
            sites[2],
            StorageCtlReply::ResyncData {
                obj: 10,
                offset: 0,
                data: parity[0].clone().into(),
            },
        );
        assert_eq!(
            acts,
            vec![CoordAction::SendCtl {
                site: sites[0],
                ctl: StorageCtl::ResyncWrite {
                    obj: 10,
                    offset: 0,
                    data: d0.to_vec().into()
                }
            }],
            "decoded shard goes back to the recovering site"
        );
        c.handle_ctl_reply(
            t(1003),
            sites[0],
            StorageCtlReply::ResyncApplied { obj: 10, offset: 0 },
        );
        assert_eq!(c.dirty_ranges(), 0);
        assert_eq!(c.resync_bytes(), 4);
    }

    /// The `ResyncRead` legs among `acts`, as `(site, offset, len)`.
    fn read_legs(acts: &[CoordAction]) -> Vec<(u32, u64, u64)> {
        acts.iter()
            .filter_map(|a| match a {
                CoordAction::SendCtl {
                    site,
                    ctl: StorageCtl::ResyncRead { offset, len, .. },
                } => Some((*site, *offset, *len)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn mirror_retry_moves_to_the_next_source() {
        let mut c = Coordinator::new(4);
        c.handle(t(0), 7, mark(1, 9, 0, 100, &[2], &[1, 3]));
        assert_eq!(read_legs(&c.check_timeouts(t(1000))), vec![(1, 0, 100)]);
        assert!(c.check_timeouts(t(2999)).is_empty(), "retry waits");
        // The first source stays silent: the retry asks the second.
        let retry = t(1000) + RESYNC_RETRY;
        assert_eq!(read_legs(&c.check_timeouts(retry)), vec![(3, 0, 100)]);
        // A short read (a hole past EOF) is applied as read, unpadded.
        let acts = c.handle_ctl_reply(
            retry,
            3,
            StorageCtlReply::ResyncData {
                obj: 9,
                offset: 0,
                data: vec![5; 40].into(),
            },
        );
        assert_eq!(
            acts,
            vec![CoordAction::SendCtl {
                site: 2,
                ctl: StorageCtl::ResyncWrite {
                    obj: 9,
                    offset: 0,
                    data: vec![5; 40].into()
                }
            }]
        );
    }

    #[test]
    fn coded_retry_rotates_the_survivor_subset() {
        let (mut c, sites) = coded_coord(10);
        let codec = slice_ec::Codec::new(4, 2);
        let d0 = [1u8, 2, 3, 4];
        let d1 = [5u8, 6, 7, 8];
        let parity = codec.encode(&[&d0, &d1]);
        c.handle(t(0), 7, mark(1, 10, 0, 8, &sites[..1], &sites[1..]));
        assert_eq!(
            read_legs(&c.check_timeouts(t(1000))),
            vec![(sites[1], 4, 4), (sites[2], 0, 4)]
        );
        // Parity 1 was planned but not asked: its window is not taken.
        let unasked = StorageCtlReply::ResyncData {
            obj: 10,
            offset: 4,
            data: parity[1].clone().into(),
        };
        assert!(c.handle_ctl_reply(t(1001), sites[3], unasked).is_empty());
        // Data shard 1 answers, parity 0 stays silent.
        let acts = c.handle_ctl_reply(
            t(1001),
            sites[1],
            StorageCtlReply::ResyncData {
                obj: 10,
                offset: 4,
                data: d1.to_vec().into(),
            },
        );
        assert!(acts.is_empty());
        // The retry rotates to the next k-subset and regathers it whole.
        let retry = t(1000) + RESYNC_RETRY;
        assert_eq!(
            read_legs(&c.check_timeouts(retry)),
            vec![(sites[2], 0, 4), (sites[3], 4, 4)]
        );
        c.handle_ctl_reply(
            retry,
            sites[2],
            StorageCtlReply::ResyncData {
                obj: 10,
                offset: 0,
                data: parity[0].clone().into(),
            },
        );
        let acts = c.handle_ctl_reply(
            retry,
            sites[3],
            StorageCtlReply::ResyncData {
                obj: 10,
                offset: 4,
                data: parity[1].clone().into(),
            },
        );
        assert_eq!(
            acts,
            vec![CoordAction::SendCtl {
                site: sites[0],
                ctl: StorageCtl::ResyncWrite {
                    obj: 10,
                    offset: 0,
                    data: d0.to_vec().into()
                }
            }],
            "two parity shards rebuild the data shard"
        );
    }

    #[test]
    fn exhausted_resync_shelves_until_kicked() {
        let mut c = Coordinator::new(4);
        c.handle(t(0), 7, mark(1, 9, 0, 100, &[2], &[1]));
        let mut now = t(1000);
        assert_eq!(read_legs(&c.check_timeouts(now)), vec![(1, 0, 100)]);
        for _ in 0..RESYNC_MAX_ATTEMPTS {
            now += RESYNC_RETRY;
            assert_eq!(read_legs(&c.check_timeouts(now)), vec![(1, 0, 100)]);
        }
        now += RESYNC_RETRY;
        assert!(c.check_timeouts(now).is_empty(), "the job shelves");
        assert!(!c.needs_sweep(), "a shelved site lets the sweep idle");
        assert_eq!(c.dirty_log_dump(), vec![(2, 9, 0, 100)], "range kept");
        c.kick_resync(2);
        assert!(c.needs_sweep());
        assert_eq!(
            read_legs(&c.check_timeouts(now + RESYNC_RETRY)),
            vec![(1, 0, 100)],
            "a kick restarts the job"
        );
    }

    #[test]
    fn unrequested_resync_data_is_ignored() {
        let mut c = Coordinator::new(4);
        c.handle(t(0), 7, mark(1, 9, 0, 100, &[2], &[1]));
        c.check_timeouts(t(1000));
        let data = |offset| StorageCtlReply::ResyncData {
            obj: 9,
            offset,
            data: vec![7; 100].into(),
        };
        assert!(
            c.handle_ctl_reply(t(1001), 3, data(0)).is_empty(),
            "not a source"
        );
        assert!(
            c.handle_ctl_reply(t(1001), 1, data(64)).is_empty(),
            "wrong offset"
        );
        assert_eq!(c.dirty_ranges(), 1);
        // The job still takes the window it asked for.
        let acts = c.handle_ctl_reply(t(1002), 1, data(0));
        assert!(matches!(
            &acts[..],
            [CoordAction::SendCtl {
                site: 2,
                ctl: StorageCtl::ResyncWrite {
                    obj: 9,
                    offset: 0,
                    ..
                }
            }]
        ));
    }

    #[test]
    fn mid_stripe_truncate_queues_parity_rebuild() {
        let (mut c, sites) = coded_coord(10);
        c.handle(
            t(0),
            7,
            CoordMsg::TruncateFile {
                req_id: 1,
                file: 10,
                size: 4,
            },
        );
        assert_eq!(c.dirty_ranges(), 0, "rebuild waits for the truncate");
        for site in 0..4 {
            c.handle_ctl_reply(t(1), site, StorageCtlReply::Done);
        }
        // Both parity shards of the boundary stripe are queued, sourced
        // from the data sites only (the other parity is equally stale).
        let dump = c.dirty_log_dump();
        assert_eq!(
            dump,
            {
                let mut want = vec![(sites[2], 10, 0, 4), (sites[3], 10, 4, 4)];
                want.sort_unstable();
                want
            },
            "one rebuild window per parity shard"
        );
    }

    #[test]
    fn recovery_loses_nondurable_intents() {
        let mut c = Coordinator::new(2);
        let _id = begin(&mut c, t(0));
        // Crash before the log write completed: nothing to recover.
        let wal = c.crash();
        let actions = c.recover(t(10), wal, t(0));
        assert!(actions.is_empty());
        assert_eq!(c.open_intents(), 0);
    }

    /// Materializes `blocks` mirrored map entries for `file`.
    fn mirrored_file(c: &mut Coordinator, file: u64, blocks: u32) {
        c.handle(
            t(0),
            1,
            CoordMsg::SetPlacement {
                file,
                placement: Placement::Mirrored { copies: 2 },
            },
        );
        c.handle(
            t(1),
            1,
            CoordMsg::MapGet {
                file,
                first_block: 0,
                count: blocks,
            },
        );
    }

    /// Drives every outstanding resync to completion by faithfully
    /// answering the coordinator's control legs; returns the non-resync
    /// actions it emitted along the way (e.g. retirement removals).
    fn pump_to_quiescence(c: &mut Coordinator, start_ms: u64) -> Vec<CoordAction> {
        let mut extra = Vec::new();
        let mut ms = start_ms;
        for _ in 0..200 {
            ms += 2100;
            let mut queue = c.check_timeouts(t(ms));
            while let Some(act) = queue.pop() {
                match act {
                    CoordAction::SendCtl {
                        site,
                        ctl: StorageCtl::ResyncRead { obj, offset, len },
                    } => queue.extend(c.handle_ctl_reply(
                        t(ms),
                        site,
                        StorageCtlReply::ResyncData {
                            obj,
                            offset,
                            data: vec![1u8; len as usize].into(),
                        },
                    )),
                    CoordAction::SendCtl {
                        site,
                        ctl: StorageCtl::ResyncWrite { obj, offset, .. },
                    } => queue.extend(c.handle_ctl_reply(
                        t(ms),
                        site,
                        StorageCtlReply::ResyncApplied { obj, offset },
                    )),
                    other => extra.push(other),
                }
            }
            if c.dirty_ranges() == 0 && !c.needs_sweep() {
                break;
            }
        }
        assert_eq!(c.dirty_ranges(), 0, "pump must converge");
        extra
    }

    #[test]
    fn widen_pins_extra_replica_and_copies_online() {
        let mut c = Coordinator::new(4);
        mirrored_file(&mut c, 3, 2);
        assert_eq!(c.widen_file(t(10), 3), 2);
        assert_eq!(c.migrations_pending(), 2);
        assert_eq!(c.pinned_entries(), 2);
        for (_, _, blocks) in c.block_map_dump() {
            for (_, sites) in blocks {
                assert_eq!(sites.len(), 3, "each entry gains one replica");
            }
        }
        pump_to_quiescence(&mut c, 10);
        assert_eq!(c.migrations_pending(), 0);
        assert_eq!(c.migrated_bytes(), 2 * 64 * 1024);
    }

    #[test]
    fn drain_migrates_entries_then_retires_and_purges() {
        let mut c = Coordinator::new(4);
        mirrored_file(&mut c, 3, 2);
        let victim = c.block_map_dump()[0].2[0].1[0];
        let (queued, acts) = c.drain_site(t(10), victim);
        assert!(queued > 0, "the victim held replicas");
        assert!(acts.is_empty(), "retirement waits for the log to drain");
        assert!(!c.is_retired(victim));
        let extra = pump_to_quiescence(&mut c, 10);
        assert!(c.is_retired(victim), "drain retires once copies land");
        assert!(
            extra.iter().any(|a| matches!(
                a,
                CoordAction::SendCtl {
                    site,
                    ctl: StorageCtl::Remove { obj: 3 }
                } if *site == victim
            )),
            "retirement removes the site's objects"
        );
        for (_, _, blocks) in c.block_map_dump() {
            for (_, sites) in blocks {
                assert!(!sites.contains(&victim), "no map entry is orphaned");
            }
        }
        assert_eq!(c.reconf_history().len(), 1);
        // Soft state for the retired site cannot re-accumulate: a stale
        // degraded-write mark against it is dropped.
        let live: Vec<u32> = (0..4).filter(|&s| s != victim).collect();
        c.handle(t(90_000), 7, mark(50, 3, 0, 100, &[victim], &live));
        assert_eq!(c.dirty_ranges(), 0, "retired sites take no dirty ranges");
    }

    #[test]
    fn join_rebalances_mirrored_entries_onto_new_site() {
        let mut c = Coordinator::new(4);
        c.set_active_sites(3);
        mirrored_file(&mut c, 3, 4);
        for (_, _, blocks) in c.block_map_dump() {
            for (_, sites) in blocks {
                assert!(!sites.contains(&3), "standby site takes no entries");
            }
        }
        let queued = c.join_site(t(10), 3);
        assert!(queued > 0, "rebalance moves entries onto the joiner");
        pump_to_quiescence(&mut c, 10);
        assert_eq!(c.migrations_pending(), 0);
        let on_joiner: usize = c
            .block_map_dump()
            .iter()
            .flat_map(|(_, _, blocks)| blocks.iter())
            .filter(|(_, sites)| sites.contains(&3))
            .count();
        assert_eq!(on_joiner, queued, "moved entries now reference the joiner");
    }

    #[test]
    fn reconfigured_maps_survive_coordinator_crash() {
        let mut c = Coordinator::new(4);
        // Placement via the durable default (as the ha ensemble runs):
        // per-file placement records are volatile, pins are not.
        c.set_default_placement(Placement::Mirrored { copies: 2 });
        c.handle(
            t(1),
            1,
            CoordMsg::MapGet {
                file: 3,
                first_block: 0,
                count: 2,
            },
        );
        assert_eq!(c.widen_file(t(10), 3), 2);
        let before = c.block_map_dump();
        let wal = c.crash();
        c.recover(t(5000), wal, t(4000));
        assert_eq!(
            c.migrations_pending(),
            2,
            "in-flight migrations replay from the log"
        );
        // Touch the map again: pinned entries win over recomputation.
        c.handle(
            t(5001),
            1,
            CoordMsg::MapGet {
                file: 3,
                first_block: 0,
                count: 2,
            },
        );
        assert_eq!(c.block_map_dump(), before, "pins reinstate widened entries");
        pump_to_quiescence(&mut c, 5001);
        assert_eq!(c.migrations_pending(), 0);
    }

    #[test]
    fn drain_retirement_completes_across_coordinator_crash() {
        let mut c = Coordinator::new(4);
        mirrored_file(&mut c, 3, 2);
        let victim = c.block_map_dump()[0].2[0].1[0];
        let (queued, _) = c.drain_site(t(10), victim);
        assert!(queued > 0);
        let wal = c.crash();
        assert!(!c.is_retired(victim), "crash resets to configured states");
        c.recover(t(5000), wal, t(4000));
        assert!(
            c.site_states()[victim as usize] == SiteState::Draining,
            "the logged drain replays"
        );
        let extra = pump_to_quiescence(&mut c, 5000);
        assert!(c.is_retired(victim));
        assert!(extra.iter().any(|a| matches!(
            a,
            CoordAction::SendCtl {
                site,
                ctl: StorageCtl::Remove { obj: 3 }
            } if *site == victim
        )));
    }

    #[test]
    fn resync_sources_follow_current_block_map() {
        let mut c = Coordinator::new(4);
        mirrored_file(&mut c, 3, 1);
        let entry = c.block_map_dump()[0].2[0].1.clone();
        let (keeper, old_src) = (entry[0], entry[1]);
        // Rebalance the second replica away and retire its old home.
        let (queued, _) = c.drain_site(t(10), old_src);
        assert!(queued > 0);
        pump_to_quiescence(&mut c, 10);
        assert!(c.is_retired(old_src));
        let new_src = c.block_map_dump()[0].2[0]
            .1
            .iter()
            .copied()
            .find(|&s| s != keeper)
            .expect("replacement replica");
        // A client with a pre-rebalance view marks the surviving replica
        // dirty against the *retired* source. The copy-back must derive
        // its source from the current map, not the recorded snapshot.
        c.handle(t(600_000), 7, mark(51, 3, 0, 100, &[keeper], &[old_src]));
        let acts = c.check_timeouts(t(610_000));
        assert!(
            acts.iter().any(|a| matches!(
                a,
                CoordAction::SendCtl {
                    site,
                    ctl: StorageCtl::ResyncRead { obj: 3, .. }
                } if *site == new_src
            )),
            "copy-back reads from the live replica, got {acts:?}"
        );
        assert!(
            !acts.iter().any(|a| matches!(
                a,
                CoordAction::SendCtl { site, .. } if *site == old_src
            )),
            "nothing is asked of the retired site"
        );
    }
}
