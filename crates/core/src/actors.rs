//! Engine actors wrapping the server state machines: storage nodes,
//! directory servers, small-file servers, and block-service coordinators.
//!
//! Each actor charges calibrated CPU time for the work it performs, turns
//! protocol-level actions into network sends, and uses deferred-send
//! timers to model disk and log completion times computed by the
//! underlying state machines.

use slice_sim::FxHashMap;
use std::any::Any;

use slice_dirsvc::{DirAction, DirServer};
use slice_nfsproto::{
    decode_call, decode_reply, encode_reply, Fhandle, NfsProc, NfsRequest, Packet, ReplyBody,
    SockAddr, StableHow,
};
use slice_sim::{Actor, Ctx, EventKind, NodeId, SimDuration, SimTime, Subsystem, START_TAG};
use slice_smallfile::{SfAction, SfCtl, SmallFileServer};
use slice_storage::{CoordAction, Coordinator, StorageNode};

use crate::calib;
use crate::wire::{Router, Wire};

/// Schedules messages for future instants via timers.
#[derive(Debug, Default)]
struct DeferredSender {
    stash: FxHashMap<u64, (NodeId, Wire)>,
    next_tag: u64,
}

impl DeferredSender {
    fn send_at(&mut self, ctx: &mut Ctx<'_, Wire>, at: SimTime, to: NodeId, msg: Wire) {
        if at <= ctx.now() {
            ctx.send(to, msg);
        } else {
            let tag = self.next_tag;
            self.next_tag += 1;
            self.stash.insert(tag, (to, msg));
            ctx.set_timer(at - ctx.now(), tag);
        }
    }

    /// Fires a deferred send; returns true if the tag belonged to us.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) -> bool {
        if let Some((to, msg)) = self.stash.remove(&tag) {
            ctx.send(to, msg);
            true
        } else {
            false
        }
    }
}

fn payload_cpu(bytes: usize, per_4k: SimDuration) -> SimDuration {
    per_4k.mul_f64(bytes as f64 / 4096.0)
}

/// A duplicate request cache (DRC), the standard NFS server defence
/// against non-idempotent retransmissions: replies to recent requests are
/// cached by (client, xid) and replayed verbatim; requests still being
/// processed are dropped so a retry cannot re-execute them.
///
/// The cache stashes the *decoded* reply, not the encoded packet, and the
/// replay path re-encodes (deterministic, so the retransmitted bytes are
/// identical to the originals). Stashing the packet would keep a second
/// reference to its payload alive, which forced the µproxy's in-flight
/// attribute patch into a copy-on-write deep copy on *every* directory
/// reply — millions of copies per untar run to protect against a
/// retransmission that almost never comes. The decoded form shares
/// nothing with the wire path, so the packet the server actually sends is
/// the payload's sole owner and the µproxy patches it in place.
#[derive(Debug)]
pub struct ReplyCache {
    /// One map holds both phases of an entry's life (in progress, then
    /// done): the admit/complete pair on every request costs one hash
    /// lookup each instead of crossing a separate set and map.
    entries: FxHashMap<(u32, u16, u32), DrcEntry>,
    order: std::collections::VecDeque<(u32, u16, u32)>,
}

impl Default for ReplyCache {
    fn default() -> Self {
        // Headroom above the eviction capacity: at steady state every
        // request inserts one entry and evicts one, and hashbrown turns
        // each removal into a tombstone. Without slack the table
        // rehashes in place every ~capacity/2 requests just to reclaim
        // tombstones; 4x slack makes that reclaim ~8x rarer.
        ReplyCache {
            entries: FxHashMap::with_capacity_and_hasher(DRC_CAPACITY * 4, Default::default()),
            order: std::collections::VecDeque::with_capacity(DRC_CAPACITY + 1),
        }
    }
}

#[derive(Debug)]
enum DrcEntry {
    InProgress,
    Done(slice_nfsproto::NfsReply),
}

/// DRC capacity (completed entries).
const DRC_CAPACITY: usize = 2048;

/// Outcome of a DRC admission check.
pub enum DrcCheck {
    /// New request: process it.
    Fresh,
    /// Retransmission of a request still being served: drop it.
    InProgress,
    /// Retransmission of a completed request: re-encode and replay this
    /// reply (byte-identical to the original — same xid, same encoder).
    Replay(slice_nfsproto::NfsReply),
}

impl ReplyCache {
    fn key(src: SockAddr, xid: u32) -> (u32, u16, u32) {
        (src.ip, src.port, xid)
    }

    /// Checks an incoming call and registers it as in progress when fresh.
    pub fn admit(&mut self, src: SockAddr, xid: u32) -> DrcCheck {
        match self.entries.entry(Self::key(src, xid)) {
            std::collections::hash_map::Entry::Occupied(e) => match e.get() {
                DrcEntry::InProgress => DrcCheck::InProgress,
                DrcEntry::Done(reply) => DrcCheck::Replay(reply.clone()),
            },
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(DrcEntry::InProgress);
                DrcCheck::Fresh
            }
        }
    }

    /// Records the reply for a completed request.
    pub fn complete(&mut self, dst: SockAddr, xid: u32, reply: &slice_nfsproto::NfsReply) {
        let key = Self::key(dst, xid);
        let prev = self.entries.insert(key, DrcEntry::Done(reply.clone()));
        if !matches!(prev, Some(DrcEntry::Done(_))) {
            self.order.push_back(key);
            if self.order.len() > DRC_CAPACITY {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
        }
    }

    /// Drops everything (server restart: the DRC is volatile).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

/// A network storage node actor.
pub struct StorageActor {
    /// The storage node state machine.
    pub node: StorageNode,
    addr: SockAddr,
    router: Router,
    deferred: DeferredSender,
    charge_cpu: bool,
}

impl StorageActor {
    /// Creates a storage actor serving at `addr`.
    pub fn new(node: StorageNode, addr: SockAddr, router: Router, charge_cpu: bool) -> Self {
        StorageActor {
            node,
            addr,
            router,
            deferred: DeferredSender::default(),
            charge_cpu,
        }
    }
}

impl Actor<Wire> for StorageActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, from: NodeId, msg: Wire) {
        match msg {
            Wire::Udp(pkt) => {
                let Ok((hdr, req)) = decode_call(&pkt.payload) else {
                    return;
                };
                if self.charge_cpu {
                    let bytes = match &req {
                        NfsRequest::Write { data, .. } => data.len(),
                        NfsRequest::Read { count, .. } => *count as usize,
                        _ => 0,
                    };
                    ctx.use_cpu(
                        calib::STORAGE_REQ_CPU + payload_cpu(bytes, calib::STORAGE_CPU_PER_4K),
                    );
                }
                let seeks_before = self.node.disk_seeks();
                let (done, reply) = self.node.handle_nfs(ctx.now(), &req);
                let (seeks, seek_ns) = self.node.disk_seeks();
                if seeks > seeks_before.0 {
                    ctx.trace(
                        Subsystem::Disk,
                        EventKind::DiskSeek {
                            node: ctx.node().0 as usize,
                            nanos: seek_ns - seeks_before.1,
                        },
                    );
                }
                let out = Packet::new(self.addr, pkt.src, encode_reply(hdr.xid, &reply));
                if let Some(node) = self.router.try_node_of(pkt.src) {
                    self.deferred.send_at(ctx, done, node, Wire::Udp(out));
                }
            }
            Wire::Ctl(ctl) => {
                if self.charge_cpu {
                    ctx.use_cpu(calib::STORAGE_REQ_CPU);
                }
                let (done, reply) = self.node.handle_ctl(ctx.now(), &ctl);
                self.deferred
                    .send_at(ctx, done, from, Wire::CtlReply(reply));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        self.deferred.on_timer(ctx, tag);
    }

    fn on_fail(&mut self, _now: SimTime) {
        self.node.crash_restart();
        self.deferred.stash.clear();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A directory server actor.
pub struct DirActor {
    /// The directory server state machine.
    pub server: DirServer,
    site: u32,
    addr: SockAddr,
    router: Router,
    dir_nodes: Vec<NodeId>,
    coord_node: Option<NodeId>,
    sf_nodes: Vec<NodeId>,
    deferred: DeferredSender,
    tokens: FxHashMap<u64, (SockAddr, u32)>,
    next_token: u64,
    next_req_id: u64,
    charge_cpu: bool,
    /// Routing-table generation this site's slot map corresponds to.
    pub table_generation: u64,
    /// Last activity instant (used as the crash point for recovery).
    last_seen: SimTime,
    /// WAL preserved across a crash (it lives in shared network storage).
    crashed_wal: Option<(slice_storage::Wal<slice_dirsvc::DirLog>, SimTime)>,
    drc: ReplyCache,
}

impl DirActor {
    /// Creates a directory actor for `site` at `addr`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        server: DirServer,
        site: u32,
        addr: SockAddr,
        router: Router,
        dir_nodes: Vec<NodeId>,
        coord_node: Option<NodeId>,
        sf_nodes: Vec<NodeId>,
        charge_cpu: bool,
    ) -> Self {
        DirActor {
            server,
            site,
            addr,
            router,
            dir_nodes,
            coord_node,
            sf_nodes,
            deferred: DeferredSender::default(),
            tokens: FxHashMap::default(),
            next_token: 1,
            next_req_id: 1,
            charge_cpu,
            table_generation: 1,
            last_seen: SimTime::ZERO,
            crashed_wal: None,
            drc: ReplyCache::default(),
        }
    }

    /// Small-file server index for a file (must agree with the µproxy's
    /// default table: FNV over the fileID).
    fn sf_index(&self, file: u64) -> usize {
        if self.sf_nodes.is_empty() {
            return 0;
        }
        slice_hashes::bucket_of(slice_hashes::fnv1a(&file.to_le_bytes()), 64) % self.sf_nodes.len()
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Wire>, actions: Vec<DirAction>) {
        for action in actions {
            match action {
                DirAction::Reply { token, reply, at } => {
                    let Some((dst, xid)) = self.tokens.remove(&token) else {
                        continue;
                    };
                    // Stash the decoded reply before encoding: the sent
                    // packet keeps sole ownership of its payload, so the
                    // µproxy's attribute patch mutates it in place.
                    self.drc.complete(dst, xid, &reply);
                    let pkt = Packet::new(self.addr, dst, encode_reply(xid, &reply));
                    if let Some(node) = self.router.try_node_of(dst) {
                        self.deferred.send_at(ctx, at, node, Wire::Udp(pkt));
                    }
                }
                DirAction::Peer { site, msg } => {
                    let node = self.dir_nodes[site as usize % self.dir_nodes.len()];
                    ctx.send(
                        node,
                        Wire::Peer {
                            from_site: self.site,
                            msg,
                        },
                    );
                }
                DirAction::DataRemove { file, .. } => {
                    let req_id = self.next_req_id;
                    self.next_req_id += 1;
                    if let Some(coord) = self.coord_node {
                        ctx.send(
                            coord,
                            Wire::Coord(slice_storage::CoordMsg::RemoveFile { req_id, file }),
                        );
                    }
                    if !self.sf_nodes.is_empty() {
                        let node = self.sf_nodes[self.sf_index(file)];
                        ctx.send(node, Wire::SfCtl(SfCtl::Remove { file }));
                    }
                }
                DirAction::DataTruncate { file, size, .. } => {
                    let req_id = self.next_req_id;
                    self.next_req_id += 1;
                    if let Some(coord) = self.coord_node {
                        ctx.send(
                            coord,
                            Wire::Coord(slice_storage::CoordMsg::TruncateFile {
                                req_id,
                                file,
                                size,
                            }),
                        );
                    }
                    if !self.sf_nodes.is_empty() {
                        let node = self.sf_nodes[self.sf_index(file)];
                        ctx.send(node, Wire::SfCtl(SfCtl::Truncate { file, size }));
                    }
                }
            }
        }
    }
}

impl Actor<Wire> for DirActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        self.last_seen = ctx.now();
        match msg {
            Wire::Udp(pkt) => {
                let Ok((hdr, req)) = decode_call(&pkt.payload) else {
                    return;
                };
                if self.charge_cpu {
                    ctx.use_cpu(calib::DIR_OP_CPU);
                }
                match self.drc.admit(pkt.src, hdr.xid) {
                    DrcCheck::Replay(reply) => {
                        let out = Packet::new(self.addr, pkt.src, encode_reply(hdr.xid, &reply));
                        if let Some(node) = self.router.try_node_of(pkt.src) {
                            ctx.send(node, Wire::Udp(out));
                        }
                        return;
                    }
                    DrcCheck::InProgress => return,
                    DrcCheck::Fresh => {}
                }
                let token = self.next_token;
                self.next_token += 1;
                self.tokens.insert(token, (pkt.src, hdr.xid));
                let actions = self.server.handle_nfs(ctx.now(), token, &req);
                self.dispatch(ctx, actions);
            }
            Wire::Peer { from_site, msg } => {
                if self.charge_cpu {
                    ctx.use_cpu(calib::DIR_PEER_CPU);
                }
                let actions = self.server.handle_peer(ctx.now(), from_site, msg);
                self.dispatch(ctx, actions);
            }
            Wire::CoordReply(_) => {
                // Data-removal completions need no action here.
            }
            Wire::TableFetch => {
                ctx.send(
                    _from,
                    Wire::TableData {
                        slots: self.server.slot_map().to_vec(),
                        generation: self.table_generation,
                    },
                );
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        self.deferred.on_timer(ctx, tag);
    }

    fn on_fail(&mut self, now: SimTime) {
        // Volatile state is lost; the WAL survives in shared storage and
        // is replayed up to the crash instant.
        let wal = self.server.crash();
        self.crashed_wal = Some((wal, now));
        self.tokens.clear();
        self.deferred.stash.clear();
        self.drc.clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if let Some((wal, crash_time)) = self.crashed_wal.take() {
            // Fast failover: replay backing objects + log (paper §2.3).
            ctx.use_cpu(SimDuration::from_millis(50));
            self.server.recover(wal, crash_time);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A small-file server actor.
pub struct SmallFileActor {
    /// The small-file server state machine.
    pub server: SmallFileServer,
    addr: SockAddr,
    router: Router,
    storage_addrs: Vec<SockAddr>,
    tokens: FxHashMap<u64, (SockAddr, u32)>,
    /// Backing RPC xid -> (sf tag, read?).
    backing: FxHashMap<u32, (u64, bool)>,
    next_token: u64,
    next_xid: u32,
    charge_cpu: bool,
    last_seen: SimTime,
    crashed_wal: Option<(slice_storage::Wal<slice_smallfile::SfLog>, SimTime)>,
}

impl SmallFileActor {
    /// Creates a small-file actor at `addr`, issuing backing I/O to
    /// `storage_addrs` by site index.
    pub fn new(
        server: SmallFileServer,
        addr: SockAddr,
        router: Router,
        storage_addrs: Vec<SockAddr>,
        charge_cpu: bool,
    ) -> Self {
        SmallFileActor {
            server,
            addr,
            router,
            storage_addrs,
            tokens: FxHashMap::default(),
            backing: FxHashMap::default(),
            next_token: 1,
            next_xid: 1,
            charge_cpu,
            last_seen: SimTime::ZERO,
            crashed_wal: None,
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Wire>, actions: Vec<SfAction>) {
        for action in actions {
            match action {
                SfAction::Reply { token, reply } => {
                    let Some((dst, xid)) = self.tokens.remove(&token) else {
                        continue;
                    };
                    let pkt = Packet::new(self.addr, dst, encode_reply(xid, &reply));
                    if let Some(node) = self.router.try_node_of(dst) {
                        ctx.send(node, Wire::Udp(pkt));
                    }
                }
                SfAction::BackingRead {
                    tag,
                    site,
                    obj,
                    offset,
                    len,
                } => {
                    let xid = self.next_xid;
                    self.next_xid = self.next_xid.wrapping_add(1);
                    self.backing.insert(xid, (tag, true));
                    let req = NfsRequest::Read {
                        fh: Fhandle::new(obj, 0, 0, 0, 0),
                        offset,
                        count: len,
                    };
                    let payload = slice_nfsproto::encode_call(
                        xid,
                        &slice_nfsproto::AuthUnix::default(),
                        &req,
                    );
                    let addr = self.storage_addrs[site as usize % self.storage_addrs.len()];
                    let pkt = Packet::new(self.addr, addr, payload);
                    if let Some(node) = self.router.try_node_of(addr) {
                        ctx.send(node, Wire::Udp(pkt));
                    }
                }
                SfAction::BackingWrite {
                    tag,
                    site,
                    obj,
                    offset,
                    data,
                    stable,
                } => {
                    let xid = self.next_xid;
                    self.next_xid = self.next_xid.wrapping_add(1);
                    if tag != 0 {
                        self.backing.insert(xid, (tag, false));
                    }
                    let req = NfsRequest::Write {
                        fh: Fhandle::new(obj, 0, 0, 0, 0),
                        offset,
                        stable: if stable {
                            StableHow::FileSync
                        } else {
                            StableHow::Unstable
                        },
                        data,
                    };
                    let payload = slice_nfsproto::encode_call(
                        xid,
                        &slice_nfsproto::AuthUnix::default(),
                        &req,
                    );
                    let addr = self.storage_addrs[site as usize % self.storage_addrs.len()];
                    let pkt = Packet::new(self.addr, addr, payload);
                    if let Some(node) = self.router.try_node_of(addr) {
                        ctx.send(node, Wire::Udp(pkt));
                    }
                }
            }
        }
    }
}

impl Actor<Wire> for SmallFileActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        self.last_seen = ctx.now();
        match msg {
            Wire::Udp(pkt) => {
                let Ok((_, msg_type)) = slice_nfsproto::peek_xid_type(&pkt.payload) else {
                    return;
                };
                if msg_type == slice_nfsproto::MSG_CALL {
                    let Ok((hdr, req)) = decode_call(&pkt.payload) else {
                        return;
                    };
                    if self.charge_cpu {
                        let bytes = match &req {
                            NfsRequest::Write { data, .. } => data.len(),
                            NfsRequest::Read { count, .. } => *count as usize,
                            _ => 0,
                        };
                        ctx.use_cpu(
                            calib::SF_OP_CPU + payload_cpu(bytes, calib::STORAGE_CPU_PER_4K),
                        );
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    self.tokens.insert(token, (pkt.src, hdr.xid));
                    let actions = self.server.handle_nfs(ctx.now(), token, req);
                    self.dispatch(ctx, actions);
                } else {
                    // A backing-I/O completion from a storage node.
                    let Ok((xid, _)) = slice_nfsproto::peek_xid_type(&pkt.payload) else {
                        return;
                    };
                    let Some((tag, is_read)) = self.backing.remove(&xid) else {
                        return;
                    };
                    let data = if is_read {
                        decode_reply(&pkt.payload, NfsProc::Read)
                            .ok()
                            .and_then(|(_, r)| match r.body {
                                ReplyBody::Read { data, .. } => Some(data),
                                _ => None,
                            })
                    } else {
                        let _ = decode_reply(&pkt.payload, NfsProc::Write);
                        None
                    };
                    if tag != 0 {
                        let actions = self.server.handle_backing_done(ctx.now(), tag, data);
                        self.dispatch(ctx, actions);
                    }
                }
            }
            Wire::SfCtl(ctl) => {
                if self.charge_cpu {
                    ctx.use_cpu(calib::SF_OP_CPU);
                }
                let actions = self.server.handle_ctl(ctx.now(), &ctl);
                self.dispatch(ctx, actions);
            }
            _ => {}
        }
    }

    fn on_fail(&mut self, now: SimTime) {
        let wal = self.server.crash();
        self.crashed_wal = Some((wal, now));
        self.tokens.clear();
        self.backing.clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if let Some((wal, crash_time)) = self.crashed_wal.take() {
            ctx.use_cpu(SimDuration::from_millis(50));
            self.server.recover(wal, crash_time);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const COORD_SWEEP_TAG: u64 = 1 << 41;
const COORD_SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// A block-service coordinator actor.
pub struct CoordActor {
    /// The coordinator state machine.
    pub coord: Coordinator,
    storage_nodes: Vec<NodeId>,
    deferred: DeferredSender,
    charge_cpu: bool,
    last_seen: SimTime,
    crashed_wal: Option<(slice_storage::Wal<slice_storage::IntentRecord>, SimTime)>,
    /// True while the timeout sweep timer is pending. The sweep only runs
    /// while intentions are open — an idle coordinator must not keep the
    /// event queue alive forever.
    sweep_armed: bool,
    /// Actions produced by quiesced direct mutation (the ensemble's
    /// reconfiguration drivers call into `coord` between engine steps);
    /// dispatched at the next kick, when a `Ctx` is available.
    pending_reconf: Vec<CoordAction>,
}

impl CoordActor {
    /// Creates a coordinator actor over the given storage nodes.
    pub fn new(coord: Coordinator, storage_nodes: Vec<NodeId>, charge_cpu: bool) -> Self {
        CoordActor {
            coord,
            storage_nodes,
            deferred: DeferredSender::default(),
            charge_cpu,
            last_seen: SimTime::ZERO,
            crashed_wal: None,
            sweep_armed: false,
            pending_reconf: Vec::new(),
        }
    }

    /// Queues coordinator actions produced outside an engine step; they
    /// are dispatched at the next kick (`START_TAG`).
    pub fn stash_reconf(&mut self, actions: Vec<CoordAction>) {
        self.pending_reconf.extend(actions);
    }

    fn arm_sweep_if_busy(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if !self.sweep_armed && self.coord.needs_sweep() {
            ctx.set_timer(COORD_SWEEP_INTERVAL, COORD_SWEEP_TAG);
            self.sweep_armed = true;
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Wire>, actions: Vec<CoordAction>) {
        for action in actions {
            match action {
                CoordAction::Reply { to, reply, at } => {
                    self.deferred
                        .send_at(ctx, at, NodeId(to as u32), Wire::CoordReply(reply));
                }
                CoordAction::SendCtl { site, ctl } => {
                    let node = self.storage_nodes[site as usize % self.storage_nodes.len()];
                    ctx.send(node, Wire::Ctl(ctl));
                }
            }
        }
        // Surface resynchronization progress in the trace stream and the
        // metrics registry (slice-ha availability timeline).
        for (site, done, _at, bytes) in self.coord.take_resync_events() {
            if done {
                ctx.obs().registry.add("coord.resyncs_completed", 1);
                ctx.trace(
                    Subsystem::Coord,
                    EventKind::ResyncDone {
                        site: site as usize,
                        bytes,
                    },
                );
            } else {
                ctx.obs().registry.add("coord.resyncs_started", 1);
                ctx.trace(
                    Subsystem::Coord,
                    EventKind::ResyncStart {
                        site: site as usize,
                    },
                );
            }
        }
    }
}

impl Actor<Wire> for CoordActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, from: NodeId, msg: Wire) {
        self.last_seen = ctx.now();
        match msg {
            Wire::Coord(m) => {
                if self.charge_cpu {
                    ctx.use_cpu(calib::COORD_MSG_CPU);
                }
                let actions = self.coord.handle(ctx.now(), u64::from(from.0), m);
                self.dispatch(ctx, actions);
                self.arm_sweep_if_busy(ctx);
            }
            Wire::CtlReply(reply) => {
                if self.charge_cpu {
                    ctx.use_cpu(calib::COORD_MSG_CPU);
                }
                let site = self
                    .storage_nodes
                    .iter()
                    .position(|&n| n == from)
                    .map(|p| p as u32)
                    .unwrap_or(0);
                let actions = self.coord.handle_ctl_reply(ctx.now(), site, reply);
                self.dispatch(ctx, actions);
                self.arm_sweep_if_busy(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        if tag == COORD_SWEEP_TAG {
            self.sweep_armed = false;
            let actions = self.coord.check_timeouts(ctx.now());
            self.dispatch(ctx, actions);
            self.arm_sweep_if_busy(ctx);
            return;
        }
        if tag == START_TAG {
            if !self.pending_reconf.is_empty() {
                let stashed = std::mem::take(&mut self.pending_reconf);
                self.dispatch(ctx, stashed);
            }
            self.arm_sweep_if_busy(ctx);
            return;
        }
        self.deferred.on_timer(ctx, tag);
    }

    fn on_fail(&mut self, now: SimTime) {
        let wal = self.coord.crash();
        self.crashed_wal = Some((wal, now));
        self.deferred.stash.clear();
        // Undelivered reconfiguration actions die with the crash; WAL
        // replay reconstructs the retirement state that produced them.
        self.pending_reconf.clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if let Some((wal, crash_time)) = self.crashed_wal.take() {
            ctx.use_cpu(SimDuration::from_millis(20));
            // Recovery scans the intentions log and probes participants
            // for operations in progress at the crash (paper §3.3.2).
            let actions = self.coord.recover(ctx.now(), wal, crash_time);
            self.dispatch(ctx, actions);
        }
        self.sweep_armed = false;
        self.arm_sweep_if_busy(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
