//! Erasure-coded striping at the µproxy (slice-ec).
//!
//! When the ensemble runs an (n,k) coded layout, the bulk region of every
//! mapped file is striped as Reed-Solomon groups: one stripe unit U per
//! block-map block, split into k data shards of S = U/k bytes plus n−k
//! parity shards, placed on the n disjoint sites the coordinator's block
//! map names for that block. Data shard j of stripe s holds file bytes
//! `[s·U + j·S, s·U + (j+1)·S)` at those *same* object offsets, so a clean
//! read is an ordinary per-shard READ and the storage nodes need no coded
//! awareness at all; parity shard p lives at object offsets
//! `[s·U + p·S, s·U + (p+1)·S)` on site `sites[k+p]`.
//!
//! The µproxy drives every coded request as a small state machine of
//! internal "legs" (µproxy-initiated RPCs with their own xids):
//!
//! * clean reads — one READ leg per touched data shard;
//! * degraded reads — when a needed shard's site is suspected, the hull
//!   window of any k live shards is gathered and the stripe decoded,
//!   reconstructing the missing bytes in flight;
//! * full-stripe writes — encode and fan n shard WRITE legs;
//! * partial writes — read-modify-write: gather the hull window from k
//!   live shards, decode, overlay the new bytes, re-encode parity, then
//!   write the touched data windows and all parity windows;
//! * degraded writes — suspected legs are skipped once the coordinator
//!   has logged their shard-local dirty windows (the same WAL-backed
//!   `MarkDirty` gate mirrored writes use); resync later rebuilds the
//!   skipped shards from k survivors.
//!
//! Because a partial write reads shards it does not overwrite, two
//! in-flight ops on the same stripe could interleave their
//! read-modify-write cycles and tear the parity. Ops that touch a stripe's
//! parity therefore hold per-(file, stripe) locks for their lifetime;
//! later ops on a locked stripe park and re-enter when the lock drops.
//! The client's RPC retransmission of the *parent* xid aborts and restarts
//! the whole op, so a leg lost to a dead site can never wedge the machine.

use super::*;
use slice_ec::{Codec, CodedLayout};
use slice_nfsproto::{encode_reply, NfsReply, ReplyBody, StableHow};

/// What a coded leg's reply means to its parent op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CodedLegRole {
    /// A survivor-window read feeding a stripe decode: (stripe index
    /// within the op, shard index within the stripe).
    Gather { stripe: u32, shard: u32 },
    /// A clean data-shard read whose bytes go straight to the client.
    Data { stripe: u32, shard: u32 },
    /// A shard write acknowledgement.
    WriteAck,
    /// The below-threshold half of a straddling request.
    SmallFile,
}

/// One stripe touched by a coded op.
#[derive(Debug, Clone)]
struct CodedStripe {
    /// Stripe (block) index.
    s: u64,
    /// The n placement sites, data shards first.
    sites: Vec<u32>,
    /// Hull window `[lo, hi)` of shard-local positions this op touches.
    lo: u64,
    hi: u64,
    /// True when survivor windows must be gathered and decoded (partial
    /// write, or degraded read of this stripe).
    gather: bool,
    /// Gathered survivor windows by shard index, zero-padded to hull len.
    got: Vec<Option<Vec<u8>>>,
}

/// A client request in flight as coded shard legs.
#[derive(Debug, Clone)]
pub(crate) struct CodedOp {
    fh: Fhandle,
    /// Original request range (including any below-threshold head).
    offset: u64,
    len: u32,
    /// Bulk sub-range served by the coded layout.
    blo: u64,
    bhi: u64,
    write: bool,
    stable: StableHow,
    /// Client write payload, indexed from `offset` (empty for reads).
    data: Vec<u8>,
    client_src: SockAddr,
    stripes: Vec<CodedStripe>,
    /// Sites this op routes to: the DirtyAck-approved live set when
    /// degraded, every placement site otherwise.
    live: Vec<u32>,
    /// Storage legs still outstanding in the current phase.
    outstanding: u32,
    /// Storage site per outstanding leg; a client retransmission of the
    /// parent xid strikes exactly these.
    pub(crate) awaiting: Vec<u32>,
    /// Every leg xid issued (removed from `pending` on abort).
    leg_xids: Vec<u32>,
    /// Below-threshold read data from the straddle low half.
    sf_data: Option<Vec<u8>>,
    sf_outstanding: bool,
    /// First WRITE-leg reply: template for the merged client reply (its
    /// verifier stands in for the fan-out, as with mirrored writes).
    template: Option<NfsReply>,
    /// Clean read windows collected: (stripe, shard, bytes).
    reads: Vec<(u32, u32, Vec<u8>)>,
    /// 0 = gathering survivor windows, 1 = final shard writes.
    phase: u8,
}

/// A planned leg, computed before any state is mutated.
struct LegPlan {
    site: u32,
    req: NfsRequest,
    role: CodedLegRole,
}

impl Uproxy {
    /// The coded layout geometry, when `fh`'s bulk region is coded.
    pub(crate) fn coded_geom(&self, fh: &Fhandle) -> Option<CodedLayout> {
        let (n, k) = self.cfg.coded?;
        if !self.cfg.use_block_maps || !fh.is_mapped() || fh.is_dir() || fh.is_symlink() {
            return None;
        }
        Some(CodedLayout::new(n, k, self.cfg.stripe_unit))
    }

    /// True when `[offset, offset+len)` reaches the coded bulk region.
    pub(crate) fn coded_touches_bulk(&self, offset: u64, len: u64) -> bool {
        len > 0 && (self.cfg.sf_sites.is_empty() || offset + len > self.cfg.threshold)
    }

    /// The bulk sub-range of a request (at or above the threshold).
    fn bulk_range(&self, offset: u64, len: u64) -> (u64, u64) {
        let lo = if self.cfg.sf_sites.is_empty() {
            offset
        } else {
            offset.max(self.cfg.threshold)
        };
        (lo, offset + len)
    }

    /// Placement sites for every stripe in `[first, last]`, or `None`
    /// after emitting a `MapGet` and parking the packet on the miss.
    fn coded_sites(
        &mut self,
        out: &mut Vec<ProxyOut>,
        fh: &Fhandle,
        pkt: &Packet,
        first: u64,
        last: u64,
    ) -> Option<Vec<Vec<u32>>> {
        let file = fh.file_id();
        let mut all = Vec::new();
        for b in first..=last {
            match self.map_cache.get(&(file, b)) {
                Some(s) => all.push(s.clone()),
                None => {
                    out.push(ProxyOut::Coord {
                        site: self.coord_site(file),
                        msg: CoordMsg::MapGet {
                            file,
                            first_block: b - b % 16,
                            count: 16,
                        },
                    });
                    self.map_waiters
                        .entry((file, b))
                        .or_default()
                        .push(pkt.clone());
                    return None;
                }
            }
        }
        Some(all)
    }

    /// Takes the per-(file, stripe) locks for `xid`, or parks the packet
    /// on the first busy stripe and returns false. An op re-entering with
    /// locks it already owns passes.
    fn lock_stripes(&mut self, file: u64, stripes: &[u64], xid: u32, pkt: &Packet) -> bool {
        for &s in stripes {
            if let Some(&owner) = self.stripe_locks.get(&(file, s)) {
                if owner != xid {
                    self.coded_waiters.push(((file, s), pkt.clone()));
                    return false;
                }
            }
        }
        for &s in stripes {
            self.stripe_locks.insert((file, s), xid);
        }
        true
    }

    /// Releases every stripe lock `xid` owns and re-admits parked ops.
    fn unlock_stripes(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, xid: u32) {
        let mut keys: Vec<(u64, u64)> = self
            .stripe_locks
            .iter()
            .filter(|&(_, &o)| o == xid)
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        for k in &keys {
            self.stripe_locks.remove(k);
        }
        if keys.is_empty() {
            return;
        }
        let mut rest = Vec::new();
        let mut release = Vec::new();
        for (k, p) in std::mem::take(&mut self.coded_waiters) {
            if keys.contains(&k) {
                release.push(p);
            } else {
                rest.push((k, p));
            }
        }
        self.coded_waiters = rest;
        for p in release {
            let mut more = self.outbound(now, p);
            out.append(&mut more);
        }
    }

    /// Discards a coded op and its legs (client restart or fatal leg
    /// error) and releases its stripe locks.
    pub(crate) fn abort_coded(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, xid: u32) {
        if let Some(op) = self.coded_ops.remove(&xid) {
            for leg in op.leg_xids {
                self.pending.remove(&leg);
            }
        }
        self.unlock_stripes(now, out, xid);
    }

    /// Issues one storage leg of a coded op.
    fn send_leg(&mut self, out: &mut Vec<ProxyOut>, parent: u32, fh: Fhandle, plan: &LegPlan) {
        let xid = self.next_own_xid;
        self.next_own_xid = self.next_own_xid.wrapping_add(1);
        let payload = encode_call(xid, &self.cred, &plan.req);
        let pkt = Packet::new(
            self.cfg.client_addr,
            self.cfg.storage_sites[plan.site as usize],
            payload,
        );
        let (proc, offset, len) = match &plan.req {
            NfsRequest::Read { offset, count, .. } => (NfsProc::Read, *offset, *count),
            NfsRequest::Write { offset, data, .. } => (NfsProc::Write, *offset, data.len() as u32),
            _ => unreachable!("coded legs are reads and writes"),
        };
        self.pending.insert(
            xid,
            PendingReq {
                proc,
                fh: Some(fh),
                offset,
                len,
                class: Class::Storage,
                remaining: 1,
                absorb: false,
                client_src: self.cfg.client_addr,
                intent: None,
                awaiting: vec![plan.site],
                merge: None,
                push: None,
                coded: Some((parent, plan.role)),
            },
        );
        self.initiated += 1;
        if let Some(op) = self.coded_ops.get_mut(&parent) {
            op.outstanding += 1;
            op.awaiting.push(plan.site);
            op.leg_xids.push(xid);
        }
        out.push(ProxyOut::Net(pkt));
    }

    /// Issues the below-threshold half of a straddling coded request to
    /// its small-file server.
    fn send_sf_leg(&mut self, out: &mut Vec<ProxyOut>, parent: u32, fh: Fhandle, req: &NfsRequest) {
        let xid = self.next_own_xid;
        self.next_own_xid = self.next_own_xid.wrapping_add(1);
        let payload = encode_call(xid, &self.cred, req);
        let pkt = Packet::new(self.cfg.client_addr, self.sf_dest(fh.file_id()), payload);
        let (proc, offset, len) = match req {
            NfsRequest::Read { offset, count, .. } => (NfsProc::Read, *offset, *count),
            NfsRequest::Write { offset, data, .. } => (NfsProc::Write, *offset, data.len() as u32),
            _ => unreachable!("sf legs are reads and writes"),
        };
        self.pending.insert(
            xid,
            PendingReq {
                proc,
                fh: Some(fh),
                offset,
                len,
                class: Class::SmallFile,
                remaining: 1,
                absorb: false,
                client_src: self.cfg.client_addr,
                intent: None,
                awaiting: Vec::new(),
                merge: None,
                push: None,
                coded: Some((parent, CodedLegRole::SmallFile)),
            },
        );
        self.initiated += 1;
        if let Some(op) = self.coded_ops.get_mut(&parent) {
            op.sf_outstanding = true;
            op.leg_xids.push(xid);
        }
        out.push(ProxyOut::Net(pkt));
    }

    /// Routes a coded bulk/straddling WRITE: stripes the payload into
    /// (n,k) shard legs, read-modify-writing partial stripes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn coded_write(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        pkt: Packet,
        xid: u32,
        fh: Fhandle,
        offset: u64,
        data: Vec<u8>,
        stable: StableHow,
    ) {
        let geom = self.coded_geom(&fh).expect("guarded by route_call");
        let (n, k) = (geom.n as usize, geom.k as usize);
        // A client retransmission of the parent xid restarts the op.
        self.abort_coded(now, out, xid);
        let (blo, bhi) = self.bulk_range(offset, data.len() as u64);
        let (first, last) = (geom.stripe_of(blo), geom.stripe_of(bhi - 1));
        let Some(site_lists) = self.coded_sites(out, &fh, &pkt, first, last) else {
            return;
        };
        let file = fh.file_id();
        let stripe_ids: Vec<u64> = (first..=last).collect();
        if !self.lock_stripes(file, &stripe_ids, xid, &pkt) {
            return;
        }
        let mut union: Vec<u32> = Vec::new();
        for sl in &site_lists {
            for &s in sl {
                if !union.contains(&s) {
                    union.push(s);
                }
            }
        }
        // With fewer than k live shards in some stripe there is nothing to
        // degrade to: route everywhere so retransmissions keep probing.
        let fallback = site_lists.iter().any(|sl| {
            let live = sl
                .iter()
                .filter(|&&s| !self.health[s as usize].suspected)
                .count();
            live < k
        });
        let live = if fallback {
            union
        } else {
            match self.degrade_gate(out, &pkt, xid, file, blo, bhi - blo, union) {
                Some(l) => l,
                // Parked awaiting DirtyAck; locks stay held so no other
                // write can slip in ahead of the logged ranges.
                None => return,
            }
        };
        let blen = bhi - blo;
        let mut stripes = Vec::new();
        for (i, &s) in stripe_ids.iter().enumerate() {
            let full = blo <= s * geom.stripe_unit && bhi >= (s + 1) * geom.stripe_unit;
            let (lo, hi) = geom.parity_window(s, blo, blen);
            stripes.push(CodedStripe {
                s,
                sites: site_lists[i].clone(),
                lo,
                hi,
                gather: !full && k > 1,
                got: vec![None; n],
            });
        }
        self.coded_writes += 1;
        let needs_gather = stripes.iter().any(|st| st.gather);
        // Plan the gather legs before mutating op state: the hull window
        // of the first k live shards of each partial stripe.
        let mut plans = Vec::new();
        for (i, st) in stripes.iter().enumerate() {
            if !st.gather {
                continue;
            }
            let wlen = (st.hi - st.lo) as u32;
            let mut picked = 0;
            for (idx, &site) in st.sites.iter().enumerate() {
                if picked == k {
                    break;
                }
                if !live.contains(&site) {
                    continue;
                }
                plans.push(LegPlan {
                    site,
                    req: NfsRequest::Read {
                        fh,
                        offset: geom.shard_obj_offset(st.s, idx as u32, st.lo),
                        count: wlen,
                    },
                    role: CodedLegRole::Gather {
                        stripe: i as u32,
                        shard: idx as u32,
                    },
                });
                picked += 1;
            }
        }
        let low = (blo > offset).then(|| NfsRequest::Write {
            fh,
            offset,
            stable,
            data: data[..(blo - offset) as usize].to_vec(),
        });
        self.coded_ops.insert(
            xid,
            CodedOp {
                fh,
                offset,
                len: data.len() as u32,
                blo,
                bhi,
                write: true,
                stable,
                data,
                client_src: pkt.src,
                stripes,
                live,
                outstanding: 0,
                awaiting: Vec::new(),
                leg_xids: Vec::new(),
                sf_data: None,
                sf_outstanding: false,
                template: None,
                reads: Vec::new(),
                phase: 0,
            },
        );
        if let Some(low) = low {
            self.send_sf_leg(out, xid, fh, &low);
        }
        for plan in &plans {
            self.send_leg(out, xid, fh, plan);
        }
        if !needs_gather {
            self.coded_write_phase1(now, out, xid);
        }
    }

    /// Computes and issues the final shard writes of a coded write op:
    /// overlays the client bytes on the (decoded or direct) old data,
    /// re-encodes parity, and writes every touched live shard window.
    fn coded_write_phase1(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, xid: u32) {
        let (fh, offset, blo, bhi, stable, live, stripes, data) = {
            let Some(op) = self.coded_ops.get_mut(&xid) else {
                return;
            };
            op.phase = 1;
            (
                op.fh,
                op.offset,
                op.blo,
                op.bhi,
                op.stable,
                op.live.clone(),
                op.stripes.clone(),
                std::mem::take(&mut op.data),
            )
        };
        let geom = self.coded_geom(&fh).expect("op exists only when coded");
        let (n, k) = (geom.n as usize, geom.k as usize);
        let codec = Codec::new(n, k);
        let blen = bhi - blo;
        let mut plans = Vec::new();
        for st in &stripes {
            let wlen = (st.hi - st.lo) as usize;
            // Old data windows over the hull, one per data shard.
            let mut datw: Vec<Vec<u8>> = if st.gather {
                let slots: Vec<Option<&[u8]>> = st.got.iter().map(|g| g.as_deref()).collect();
                match codec.decode(&slots) {
                    Some(w) => w,
                    // Unreachable with k gathered windows; drop the op and
                    // let the client's retransmission restart it.
                    None => {
                        self.abort_coded(now, out, xid);
                        return;
                    }
                }
            } else if blo <= st.s * geom.stripe_unit && bhi >= (st.s + 1) * geom.stripe_unit {
                // Full stripe: every byte comes from the client payload.
                (0..k)
                    .map(|j| {
                        let base = (st.s * geom.stripe_unit + j as u64 * geom.shard_size() - offset)
                            as usize;
                        data[base..base + geom.shard_size() as usize].to_vec()
                    })
                    .collect()
            } else {
                // k == 1 partial write: the hull is exactly the written
                // window, fully known from the payload after the overlay.
                vec![vec![0u8; wlen]; k]
            };
            // Overlay the new client bytes.
            for (j, w) in datw.iter_mut().enumerate() {
                let (a, b) = geom.data_window(st.s, j as u32, blo, blen);
                if a < b {
                    let src = (st.s * geom.stripe_unit + j as u64 * geom.shard_size() + a - offset)
                        as usize;
                    w[(a - st.lo) as usize..(b - st.lo) as usize]
                        .copy_from_slice(&data[src..src + (b - a) as usize]);
                }
            }
            let refs: Vec<&[u8]> = datw.iter().map(|w| w.as_slice()).collect();
            for p in 0..(n - k) {
                let site = st.sites[k + p];
                if !live.contains(&site) {
                    continue;
                }
                plans.push(LegPlan {
                    site,
                    req: NfsRequest::Write {
                        fh,
                        offset: geom.shard_obj_offset(st.s, (k + p) as u32, st.lo),
                        stable,
                        data: codec.parity_row(p, &refs),
                    },
                    role: CodedLegRole::WriteAck,
                });
            }
            for (j, w) in datw.iter().enumerate() {
                let (a, b) = geom.data_window(st.s, j as u32, blo, blen);
                if a < b && live.contains(&st.sites[j]) {
                    plans.push(LegPlan {
                        site: st.sites[j],
                        req: NfsRequest::Write {
                            fh,
                            offset: geom.shard_obj_offset(st.s, j as u32, a),
                            stable,
                            data: w[(a - st.lo) as usize..(b - st.lo) as usize].to_vec(),
                        },
                        role: CodedLegRole::WriteAck,
                    });
                }
            }
        }
        for plan in &plans {
            self.send_leg(out, xid, fh, plan);
        }
        let done = self
            .coded_ops
            .get(&xid)
            .is_some_and(|op| op.outstanding == 0 && !op.sf_outstanding);
        if done {
            self.coded_finish(now, out, xid);
        }
    }

    /// Routes a coded bulk/straddling READ: per-shard legs at natural
    /// offsets, reconstructing through parity when a needed site is
    /// suspected.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn coded_read(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        pkt: Packet,
        xid: u32,
        fh: Fhandle,
        offset: u64,
        count: u32,
    ) {
        let geom = self.coded_geom(&fh).expect("guarded by route_call");
        let k = geom.k as usize;
        self.abort_coded(now, out, xid);
        let (blo, bhi) = self.bulk_range(offset, u64::from(count));
        let (first, last) = (geom.stripe_of(blo), geom.stripe_of(bhi - 1));
        let Some(site_lists) = self.coded_sites(out, &fh, &pkt, first, last) else {
            return;
        };
        let file = fh.file_id();
        let blen = bhi - blo;
        // Plan each stripe: clean per-shard legs, or a gather-and-decode
        // when a needed shard's site is suspected and k survivors exist.
        let mut stripes = Vec::new();
        let mut plans = Vec::new();
        let mut gather_stripes = Vec::new();
        let mut failovers = Vec::new();
        for (i, s) in (first..=last).enumerate() {
            let sites = &site_lists[i];
            let live: Vec<u32> = sites
                .iter()
                .copied()
                .filter(|&x| !self.health[x as usize].suspected)
                .collect();
            let mut needed = Vec::new();
            for j in 0..k as u32 {
                let (a, b) = geom.data_window(s, j, blo, blen);
                if a < b {
                    needed.push((j, a, b));
                }
            }
            let degraded_site = needed
                .iter()
                .find(|&&(j, _, _)| !live.contains(&sites[j as usize]))
                .map(|&(j, _, _)| sites[j as usize]);
            let gather = degraded_site.is_some() && live.len() >= k;
            let (lo, hi) = geom.parity_window(s, blo, blen);
            if gather {
                let wlen = (hi - lo) as u32;
                let mut picked = 0;
                for (idx, &site) in sites.iter().enumerate() {
                    if picked == k {
                        break;
                    }
                    if !live.contains(&site) {
                        continue;
                    }
                    plans.push(LegPlan {
                        site,
                        req: NfsRequest::Read {
                            fh,
                            offset: geom.shard_obj_offset(s, idx as u32, lo),
                            count: wlen,
                        },
                        role: CodedLegRole::Gather {
                            stripe: i as u32,
                            shard: idx as u32,
                        },
                    });
                    picked += 1;
                }
                gather_stripes.push(s);
                failovers.push(degraded_site.unwrap_or_default());
            } else {
                // Clean (or <k survivors: route to the suspected shard
                // anyway so retransmissions keep probing it).
                for &(j, a, b) in &needed {
                    plans.push(LegPlan {
                        site: sites[j as usize],
                        req: NfsRequest::Read {
                            fh,
                            offset: geom.shard_obj_offset(s, j, a),
                            count: (b - a) as u32,
                        },
                        role: CodedLegRole::Data {
                            stripe: i as u32,
                            shard: j,
                        },
                    });
                }
            }
            stripes.push(CodedStripe {
                s,
                sites: sites.clone(),
                lo,
                hi,
                gather,
                got: vec![None; geom.n as usize],
            });
        }
        // Decoding mixes windows of several shards: hold the stripe locks
        // so a concurrent read-modify-write cannot tear the reconstruction.
        if !gather_stripes.is_empty() && !self.lock_stripes(file, &gather_stripes, xid, &pkt) {
            return;
        }
        self.coded_reads += 1;
        self.ec_degraded_reads += failovers.len() as u64;
        for site in failovers {
            self.read_failovers += 1;
            out.push(ProxyOut::Trace(slice_obs::EventKind::ReadFailover {
                site: site as usize,
                xid: u64::from(xid),
            }));
        }
        let live_union: Vec<u32> = site_lists.iter().flatten().copied().collect();
        self.coded_ops.insert(
            xid,
            CodedOp {
                fh,
                offset,
                len: count,
                blo,
                bhi,
                write: false,
                stable: StableHow::Unstable,
                data: Vec::new(),
                client_src: pkt.src,
                stripes,
                live: live_union,
                outstanding: 0,
                awaiting: Vec::new(),
                leg_xids: Vec::new(),
                sf_data: None,
                sf_outstanding: false,
                template: None,
                reads: Vec::new(),
                phase: 1,
            },
        );
        if blo > offset {
            let low = NfsRequest::Read {
                fh,
                offset,
                count: (blo - offset) as u32,
            };
            self.send_sf_leg(out, xid, fh, &low);
        }
        for plan in &plans {
            self.send_leg(out, xid, fh, plan);
        }
    }

    /// Absorbs one coded leg's reply and advances the parent op.
    pub(crate) fn coded_leg_reply(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        parent: u32,
        role: CodedLegRole,
        src_site: Option<u32>,
        reply: Option<NfsReply>,
    ) {
        let Some(op) = self.coded_ops.get_mut(&parent) else {
            return;
        };
        if let Some(s) = src_site {
            if let Some(pos) = op.awaiting.iter().position(|&x| x == s) {
                op.awaiting.remove(pos);
            }
        }
        match role {
            CodedLegRole::SmallFile => op.sf_outstanding = false,
            _ => op.outstanding = op.outstanding.saturating_sub(1),
        }
        let Some(reply) = reply else {
            // Undecodable leg reply: drop the op; retransmission restarts.
            self.abort_coded(now, out, parent);
            return;
        };
        if !reply.status.is_ok() {
            // Surface the first leg failure as the op's outcome; the
            // client's RPC layer retries (JUKEBOX) or errors out.
            let proc = if op.write {
                NfsProc::Write
            } else {
                NfsProc::Read
            };
            let client = op.client_src;
            let status = reply.status;
            self.abort_coded(now, out, parent);
            let p = Packet::new(
                self.cfg.virtual_addr,
                client,
                encode_reply(parent, &NfsReply::error(proc, status)),
            );
            self.replies_routed += 1;
            out.push(ProxyOut::Client(p));
            return;
        }
        match role {
            CodedLegRole::SmallFile => {
                if let ReplyBody::Read { data, .. } = &reply.body {
                    op.sf_data = Some(data.clone());
                }
            }
            CodedLegRole::Gather { stripe, shard } => {
                let st = &mut op.stripes[stripe as usize];
                let wlen = (st.hi - st.lo) as usize;
                let mut bytes = match reply.body {
                    ReplyBody::Read { data, .. } => data,
                    _ => Vec::new(),
                };
                // Short reads are holes or truncated tails: zeros under
                // the linear code.
                bytes.resize(wlen, 0);
                st.got[shard as usize] = Some(bytes);
            }
            CodedLegRole::Data { stripe, shard } => {
                if let ReplyBody::Read { data, .. } = reply.body {
                    op.reads.push((stripe, shard, data));
                }
            }
            CodedLegRole::WriteAck => {
                if op.template.is_none() {
                    op.template = Some(reply);
                }
            }
        }
        let op = self.coded_ops.get_mut(&parent).expect("still present");
        if op.outstanding == 0 && !op.sf_outstanding {
            if op.write && op.phase == 0 {
                self.coded_write_phase1(now, out, parent);
            } else {
                self.coded_finish(now, out, parent);
            }
        }
    }

    /// Completes a coded op: synthesizes the merged client reply, updates
    /// the attribute cache, and releases stripe locks.
    fn coded_finish(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, xid: u32) {
        let Some(mut op) = self.coded_ops.remove(&xid) else {
            return;
        };
        self.degrade_ok.remove(&xid);
        let geom = self.coded_geom(&op.fh).expect("op exists only when coded");
        let t = Self::nfs_time(now);
        let mut evicted = Vec::new();
        let mut reply = if op.write {
            evicted.extend(
                self.attrs
                    .apply_write(now, &op.fh, op.offset + u64::from(op.len), t),
            );
            let mut r = op.template.take().unwrap_or(NfsReply {
                proc: NfsProc::Write,
                status: slice_nfsproto::NfsStatus::Ok,
                attr: None,
                body: ReplyBody::Write {
                    count: 0,
                    committed: op.stable,
                    verf: 0,
                },
            });
            if let ReplyBody::Write { count, .. } = &mut r.body {
                *count = op.len;
            }
            r
        } else {
            evicted.extend(self.attrs.apply_read(now, &op.fh, t));
            // Decode the gathered stripes into served read windows.
            let codec = Codec::new(geom.n as usize, geom.k as usize);
            let blen = op.bhi - op.blo;
            let mut rebuilt = Vec::new();
            for (i, st) in op.stripes.iter().enumerate() {
                if !st.gather {
                    continue;
                }
                let slots: Vec<Option<&[u8]>> = st.got.iter().map(|g| g.as_deref()).collect();
                let Some(datw) = codec.decode(&slots) else {
                    // Unreachable with k gathered windows; drop the op.
                    self.abort_coded(now, out, xid);
                    return;
                };
                self.ec_reconstructions += 1;
                for (j, w) in datw.iter().enumerate() {
                    let (a, b) = geom.data_window(st.s, j as u32, op.blo, blen);
                    if a < b {
                        self.ec_reconstructed_bytes += b - a;
                        rebuilt.push((
                            i as u32,
                            j as u32,
                            w[(a - st.lo) as usize..(b - st.lo) as usize].to_vec(),
                        ));
                    }
                }
            }
            op.reads.append(&mut rebuilt);
            // Assemble the client buffer against the global size.
            let size = self
                .attrs
                .get(op.fh.file_id())
                .map(|a| a.size)
                .unwrap_or(op.offset + u64::from(op.len));
            let expected = size.saturating_sub(op.offset).min(u64::from(op.len)) as usize;
            let mut data = vec![0u8; expected];
            if let Some(sf) = &op.sf_data {
                let nb = sf.len().min(expected);
                data[..nb].copy_from_slice(&sf[..nb]);
            }
            for (i, j, bytes) in &op.reads {
                let st = &op.stripes[*i as usize];
                let (a, b) = geom.data_window(st.s, *j, op.blo, blen);
                if a >= b {
                    continue;
                }
                let file_pos = st.s * geom.stripe_unit + u64::from(*j) * geom.shard_size() + a;
                let start = (file_pos - op.offset) as usize;
                if start >= expected {
                    continue;
                }
                let want = ((b - a) as usize).min(expected - start);
                let nb = bytes.len().min(want);
                data[start..start + nb].copy_from_slice(&bytes[..nb]);
            }
            let eof = op.offset + expected as u64 >= size;
            NfsReply {
                proc: NfsProc::Read,
                status: slice_nfsproto::NfsStatus::Ok,
                attr: None,
                body: ReplyBody::Read { data, eof },
            }
        };
        if let Some(attr) = self.attrs.get(op.fh.file_id()) {
            reply.attr = Some(attr);
        }
        let p = Packet::new(
            self.cfg.virtual_addr,
            op.client_src,
            encode_reply(xid, &reply),
        );
        self.replies_routed += 1;
        out.push(ProxyOut::Client(p));
        for e in evicted {
            self.push_attrs(out, &e);
        }
        self.unlock_stripes(now, out, xid);
    }
}
