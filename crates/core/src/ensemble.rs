//! Ensemble assembly: builds a complete Slice deployment (or a baseline
//! single-server deployment) inside a simulation engine.

use slice_dirsvc::{DirServer, DirServerConfig, NamePolicy};
use slice_nfsproto::AuthUnix;
use slice_sim::{Engine, NetConfig, NodeId, SimDuration, SimTime};
use slice_smallfile::{SmallFileConfig, SmallFileServer};
use slice_storage::{Coordinator, Placement, StorageNode, StorageNodeConfig};
use slice_uproxy::{ProxyConfig, ProxyNamePolicy, Uproxy};

use crate::actors::{CoordActor, DirActor, SmallFileActor, StorageActor};
use crate::baseline::{BaselineActor, BaselineKind, MonoFs};
use crate::calib;
use crate::client::{ClientActor, ClientConfig, Workload};
use crate::wire::{AddrPlan, Router, Wire};

/// How far past client completion `run_to_completion` keeps stepping to
/// drain background work when the event queue never empties (liveness
/// probes re-arm forever). Must exceed [`calib::ATTR_WRITEBACK`] plus
/// one maintenance tick so every dirty attribute flushes before the
/// quiescence oracles run.
const DRAIN_HORIZON: SimDuration = SimDuration::from_secs(10);

/// Name-space policy for a whole ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsemblePolicy {
    /// Mkdir switching with redirect probability `redirect_millis / 1000`.
    MkdirSwitching {
        /// p × 1000.
        redirect_millis: u32,
    },
    /// Name hashing.
    NameHashing,
}

/// Configuration for a Slice ensemble.
#[derive(Debug, Clone)]
pub struct SliceConfig {
    /// Number of client nodes (each with an embedded µproxy).
    pub clients: usize,
    /// Number of directory servers.
    pub dir_servers: usize,
    /// Number of small-file servers (0 disables the threshold split).
    pub sf_servers: usize,
    /// Number of network storage nodes.
    pub storage_nodes: usize,
    /// Number of block-service coordinators.
    pub coordinators: usize,
    /// Disk arms per storage node.
    pub disks_per_node: usize,
    /// Name-space policy.
    pub policy: EnsemblePolicy,
    /// Retain file contents (tests) or metadata only (big benchmarks).
    pub retain_data: bool,
    /// Charge calibrated CPU costs (off for pure protocol tests).
    pub charge_cpu: bool,
    /// Record per-client op histories for the `slice-check` oracles.
    pub record_history: bool,
    /// Small-file server cache bytes.
    pub sf_cache_bytes: u64,
    /// Storage node cache bytes.
    pub storage_cache_bytes: u64,
    /// Wrap multisite commits in coordinator intentions.
    pub use_intents: bool,
    /// Route bulk I/O through coordinator block maps.
    pub use_block_maps: bool,
    /// Stripe unit for static placement (bytes).
    pub stripe_unit: u64,
    /// Erasure-coded layout `(n, k)` for mapped files' bulk regions:
    /// every stripe is split into k data + n−k parity shards across n
    /// disjoint sites. Implies block maps. `None` keeps mirroring.
    pub coded: Option<(u32, u32)>,
    /// Give mapped (block-map) files two-way mirrored placement instead
    /// of single-copy striping. Required for demand-driven replica
    /// widening and join rebalance, which operate on mirrored entries.
    /// Ignored when `coded` is set.
    pub mapped_mirror: bool,
    /// Group commit on file-manager write-ahead logs (ablation knob).
    pub wal_group_commit: bool,
    /// µproxy suspected-site probe cadence in milliseconds (how quickly a
    /// recovered mirror can rejoin the read rotation).
    pub probe_interval_ms: u64,
    /// Storage sites initially in the placement rotation; the rest start
    /// as standby spares eligible for online join. `None` activates all.
    pub active_storage: Option<usize>,
    /// µproxy hot-set detection window in milliseconds (two half-window
    /// buckets; see `Uproxy::hot_files`).
    pub hot_window_ms: u64,
    /// Engine shards: partitions the nodes across this many worker
    /// threads (conservative windowed parallel DES). Output is
    /// byte-identical at any value; 1 runs serially. Each node class is
    /// distributed round-robin so every shard carries a mix of clients,
    /// servers, and storage.
    pub shards: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SliceConfig {
    fn default() -> Self {
        SliceConfig {
            clients: 1,
            dir_servers: 1,
            sf_servers: 2,
            storage_nodes: 4,
            coordinators: 1,
            disks_per_node: calib::DISKS_PER_NODE,
            policy: EnsemblePolicy::MkdirSwitching {
                redirect_millis: 250,
            },
            retain_data: true,
            charge_cpu: true,
            record_history: false,
            sf_cache_bytes: calib::SF_CACHE_BYTES,
            storage_cache_bytes: calib::STORAGE_CACHE_BYTES,
            use_intents: true,
            use_block_maps: false,
            stripe_unit: 64 * 1024,
            coded: None,
            mapped_mirror: false,
            wal_group_commit: true,
            probe_interval_ms: 2000,
            active_storage: None,
            hot_window_ms: 10_000,
            shards: 1,
            seed: 42,
        }
    }
}

impl SliceConfig {
    /// Checks the configuration for geometric consistency before any
    /// ensemble state is built. [`SliceEnsemble::build`] calls this and
    /// panics with the returned message; callers that accept untrusted
    /// shapes (CLI flags, sweep generators) should call it themselves and
    /// surface the `Err` instead of hitting an assert deep inside the
    /// erasure-coding layout.
    pub fn validate(&self) -> Result<(), String> {
        if self.dir_servers == 0 {
            return Err("need at least one directory server".into());
        }
        if self.storage_nodes == 0 {
            return Err("need at least one storage node".into());
        }
        let active = self.active_storage.unwrap_or(self.storage_nodes);
        if active == 0 || active > self.storage_nodes {
            return Err(format!(
                "active_storage={active} must be in 1..={} (total storage nodes)",
                self.storage_nodes
            ));
        }
        if let Some((n, k)) = self.coded {
            if k == 0 || k >= n || n > 128 {
                return Err(format!(
                    "invalid coded layout (n,k)=({n},{k}): need 0 < k < n <= 128 \
                     (k data shards plus n-k parity shards per stripe)"
                ));
            }
            if n - k > k {
                return Err(format!(
                    "invalid coded layout (n,k)=({n},{k}): n-k={} parity shards exceed \
                     the k={k} data shards, so parity offsets would spill past the \
                     stripe's extent; choose n <= 2k",
                    n - k
                ));
            }
            if active < n as usize {
                return Err(format!(
                    "coded (n,k)=({n},{k}) needs at least n={n} active storage sites, \
                     have {active}"
                ));
            }
            if !self.stripe_unit.is_multiple_of(u64::from(k)) {
                return Err(format!(
                    "stripe unit {} must divide into k={k} equal shards",
                    self.stripe_unit
                ));
            }
            if self.coordinators == 0 {
                return Err("coded layouts need a coordinator".into());
            }
        }
        if self.mapped_mirror && self.coded.is_none() && active < 2 {
            return Err(format!(
                "mapped_mirror needs at least 2 active storage sites for the \
                 two-way mirror, have {active}"
            ));
        }
        Ok(())
    }
}

/// Distributes each node class round-robin across `shards` shards, so the
/// heavy classes (clients, storage) spread evenly instead of clumping.
fn round_robin_assignment(classes: &[&[NodeId]], shards: usize) -> Vec<u32> {
    let total: usize = classes.iter().map(|c| c.len()).sum();
    let mut assignment = vec![0u32; total];
    for ids in classes {
        for (j, &id) in ids.iter().enumerate() {
            assignment[id.0 as usize] = (j % shards) as u32;
        }
    }
    assignment
}

/// A built Slice ensemble.
pub struct SliceEnsemble {
    /// The simulation engine.
    pub engine: Engine<Wire>,
    /// The address plan.
    pub plan: AddrPlan,
    /// Client node ids (one per workload).
    pub clients: Vec<NodeId>,
    /// Directory server node ids.
    pub dirs: Vec<NodeId>,
    /// Small-file server node ids.
    pub sfs: Vec<NodeId>,
    /// Storage node ids.
    pub storage: Vec<NodeId>,
    /// Coordinator node ids.
    pub coords: Vec<NodeId>,
    /// This thread's payload copy counters sampled at build time; the
    /// delta at `collect_obs` attributes copy traffic to this ensemble.
    /// Valid because an ensemble is built, run, and harvested on one
    /// thread (the slice-par runtime keeps each scenario on one worker);
    /// the process-wide atomics in `slice-nfsproto` stay available as a
    /// cross-check that no traffic escaped attribution.
    payload_base: (u64, u64, u64),
}

impl SliceEnsemble {
    /// Builds an ensemble; `workloads` supplies one driver per client.
    ///
    /// # Panics
    ///
    /// Panics if `workloads.len() != cfg.clients` or a size is zero where
    /// one is required.
    pub fn build(cfg: &SliceConfig, workloads: Vec<Box<dyn Workload>>) -> Self {
        assert_eq!(workloads.len(), cfg.clients, "one workload per client");
        if let Err(e) = cfg.validate() {
            panic!("invalid SliceConfig: {e}");
        }
        // Coded layouts route through coordinator block maps; the µproxy
        // and coordinator must agree on the placement geometry.
        let use_block_maps = cfg.use_block_maps || cfg.coded.is_some();
        let plan = AddrPlan::new(
            cfg.clients,
            cfg.dir_servers,
            cfg.sf_servers,
            cfg.storage_nodes,
        );
        let mut engine: Engine<Wire> = Engine::new(NetConfig::gigabit(), cfg.seed);

        // Node ids are assigned sequentially; predict them so every actor
        // can carry a complete router from birth.
        let mut next = 0u32;
        let mut take = |n: usize| -> Vec<NodeId> {
            let v: Vec<NodeId> = (0..n).map(|i| NodeId(next + i as u32)).collect();
            next += n as u32;
            v
        };
        let client_ids = take(cfg.clients);
        let dir_ids = take(cfg.dir_servers);
        let sf_ids = take(cfg.sf_servers);
        let storage_ids = take(cfg.storage_nodes);
        let coord_ids = take(cfg.coordinators);

        let mut router = Router::new();
        for (i, &id) in client_ids.iter().enumerate() {
            router.register(plan.clients[i], id);
        }
        for (i, &id) in dir_ids.iter().enumerate() {
            router.register(plan.dirs[i], id);
        }
        for (i, &id) in sf_ids.iter().enumerate() {
            router.register(plan.sfs[i], id);
        }
        for (i, &id) in storage_ids.iter().enumerate() {
            router.register(plan.storage[i], id);
        }

        let name_policy = match cfg.policy {
            EnsemblePolicy::MkdirSwitching { redirect_millis } => {
                ProxyNamePolicy::MkdirSwitching { redirect_millis }
            }
            EnsemblePolicy::NameHashing => ProxyNamePolicy::NameHashing,
        };
        let dir_policy = match cfg.policy {
            EnsemblePolicy::MkdirSwitching { .. } => NamePolicy::MkdirSwitching,
            EnsemblePolicy::NameHashing => NamePolicy::NameHashing,
        };

        // Clients.
        for (i, workload) in workloads.into_iter().enumerate() {
            let proxy_cfg = ProxyConfig {
                virtual_addr: plan.virtual_addr,
                client_addr: plan.clients[i],
                dir_sites: plan.dirs.clone(),
                sf_sites: plan.sfs.clone(),
                storage_sites: plan.storage.clone(),
                coord_sites: cfg.coordinators as u32,
                name_policy,
                threshold: slice_smallfile::SF_THRESHOLD,
                stripe_unit: cfg.stripe_unit,
                mirror_copies: 2,
                coded: cfg.coded,
                use_block_maps,
                use_intents: cfg.use_intents,
                attr_cache_entries: 4096,
                writeback_interval: calib::ATTR_WRITEBACK,
                suspect_after: 2,
                probe_interval: SimDuration::from_millis(cfg.probe_interval_ms.max(1)),
                hot_window: SimDuration::from_millis(cfg.hot_window_ms.max(1)),
                // Wall-clock phase timing would inject nondeterminism
                // into the seeded simulation; Table 3 measures it in a
                // standalone harness instead.
                measure_phases: false,
            };
            let client_cfg = ClientConfig {
                addr: plan.clients[i],
                server_addr: plan.virtual_addr,
                cred: AuthUnix {
                    machine: format!("client{i}"),
                    ..Default::default()
                },
                charge_cpu: cfg.charge_cpu,
                record_history: cfg.record_history,
            };
            let actor = ClientActor::new(
                client_cfg,
                Some(Uproxy::new(proxy_cfg)),
                router.clone(),
                coord_ids.clone(),
                workload,
            );
            let id = engine.add_node(&format!("client{i}"), Box::new(actor));
            assert_eq!(id, client_ids[i]);
        }
        // Directory servers.
        for (i, &expect) in dir_ids.iter().enumerate() {
            let ds = DirServer::new(DirServerConfig {
                site: i as u32,
                sites: cfg.dir_servers as u32,
                policy: dir_policy,
                clock_skew: SimDuration::from_micros(i as u64 * 3),
                wal: slice_storage::WalParams {
                    batched: cfg.wal_group_commit,
                    ..Default::default()
                },
                default_mapped: use_block_maps,
            });
            let actor = DirActor::new(
                ds,
                i as u32,
                plan.dirs[i],
                router.clone(),
                dir_ids.clone(),
                coord_ids.first().copied(),
                sf_ids.clone(),
                cfg.charge_cpu,
            );
            let id = engine.add_node(&format!("dir{i}"), Box::new(actor));
            assert_eq!(id, expect);
        }
        // Small-file servers.
        for (i, &expect) in sf_ids.iter().enumerate() {
            let sf = SmallFileServer::new(SmallFileConfig {
                server_id: i as u32,
                storage_sites: cfg.storage_nodes as u32,
                cache_bytes: cfg.sf_cache_bytes,
                retain_data: cfg.retain_data,
            });
            let actor = SmallFileActor::new(
                sf,
                plan.sfs[i],
                router.clone(),
                plan.storage.clone(),
                cfg.charge_cpu,
            );
            let id = engine.add_node(&format!("sf{i}"), Box::new(actor));
            assert_eq!(id, expect);
        }
        // Storage nodes.
        for (i, &expect) in storage_ids.iter().enumerate() {
            let node = StorageNode::new(&StorageNodeConfig {
                disks: cfg.disks_per_node,
                disk_params: calib::disk_params(),
                channel_bps: calib::STORAGE_CHANNEL_BPS,
                cache_bytes: cfg.storage_cache_bytes,
                retain_data: cfg.retain_data,
            });
            let actor = StorageActor::new(node, plan.storage[i], router.clone(), cfg.charge_cpu);
            let id = engine.add_node(&format!("storage{i}"), Box::new(actor));
            assert_eq!(id, expect);
        }
        // Coordinators.
        for (i, &expect) in coord_ids.iter().enumerate() {
            let mut coordinator = Coordinator::new(cfg.storage_nodes as u32);
            if let Some(a) = cfg.active_storage {
                coordinator.set_active_sites(a as u32);
            }
            if let Some((n, k)) = cfg.coded {
                coordinator.set_default_placement(Placement::Coded { n, k });
                coordinator.set_stripe_unit(cfg.stripe_unit);
            } else if cfg.mapped_mirror {
                coordinator.set_default_placement(Placement::Mirrored { copies: 2 });
                coordinator.set_stripe_unit(cfg.stripe_unit);
            }
            let actor = CoordActor::new(coordinator, storage_ids.clone(), cfg.charge_cpu);
            let id = engine.add_node(&format!("coord{i}"), Box::new(actor));
            assert_eq!(id, expect);
        }
        for &c in &coord_ids {
            engine.kick(c);
        }
        for (i, &c) in client_ids.iter().enumerate() {
            let _ = i;
            engine
                .actor_mut::<ClientActor>(c)
                .set_dir_table_source(dir_ids[0]);
        }
        let total_nodes =
            client_ids.len() + dir_ids.len() + sf_ids.len() + storage_ids.len() + coord_ids.len();
        let shards = cfg.shards.max(1).min(total_nodes.max(1));
        if shards > 1 {
            let assignment = round_robin_assignment(
                &[&client_ids, &dir_ids, &sf_ids, &storage_ids, &coord_ids],
                shards,
            );
            engine.set_shards(shards, &assignment);
        }
        engine.set_payload_probe(std::sync::Arc::new(
            slice_nfsproto::bytes::local_clone_stats,
        ));
        SliceEnsemble {
            engine,
            plan,
            clients: client_ids,
            dirs: dir_ids,
            sfs: sf_ids,
            storage: storage_ids,
            coords: coord_ids,
            payload_base: slice_nfsproto::bytes::local_clone_stats(),
        }
    }

    /// Starts every client's workload.
    pub fn start(&mut self) {
        for &c in &self.clients.clone() {
            self.engine.kick(c);
        }
    }

    /// Runs until every client's workload reports finished and the
    /// trailing background work (attribute write-backs, probes) drains,
    /// the event queue empties, or `deadline` passes. Returns the finish
    /// time.
    ///
    /// Advances in whole simulated seconds of *unbudgeted* run
    /// ([`slice_sim::Engine::run_until`]): an unbudgeted run lets the
    /// serial engine cover each step with a single window and the sharded
    /// engine widen windows adaptively, while the between-step check
    /// keeps idle background timers from being simulated all the way to a
    /// distant deadline. Once the clients finish, the drain keeps
    /// stepping until the event queue empties so callers observe
    /// quiescence (the attr-cache dirty oracle depends on it) — but for
    /// at most [`DRAIN_HORIZON`] of simulated time, because
    /// self-rearming periodic timers (liveness probes) never let the
    /// queue empty and an event-budgeted drain would ride them
    /// arbitrarily far past the finish. The horizon comfortably covers
    /// an attribute write-back interval plus the maintenance tick that
    /// flushes it. Step boundaries — and therefore the returned finish
    /// time — are shard-count-invariant.
    pub fn run_to_completion(&mut self, deadline: SimTime) -> SimTime {
        loop {
            let step = (self.engine.now() + SimDuration::from_secs(1)).min(deadline);
            self.engine.run_until(step);
            let done = self
                .clients
                .iter()
                .all(|&c| self.engine.actor::<ClientActor>(c).finished());
            if done {
                let drain_cap = self.engine.now() + DRAIN_HORIZON;
                while self.engine.live_events() > 0 && self.engine.now() < drain_cap {
                    let step = (self.engine.now() + SimDuration::from_secs(1)).min(drain_cap);
                    self.engine.run_until(step);
                }
                return self.engine.now();
            }
            if self.engine.now() >= deadline || self.engine.live_events() == 0 {
                return self.engine.now();
            }
        }
    }

    /// Client actor access.
    pub fn client(&self, i: usize) -> &ClientActor {
        self.engine.actor::<ClientActor>(self.clients[i])
    }

    /// Mutable client actor access.
    pub fn client_mut(&mut self, i: usize) -> &mut ClientActor {
        self.engine.actor_mut::<ClientActor>(self.clients[i])
    }

    /// Brings a crashed storage node back online and triggers the
    /// coordinator-driven resynchronization of any regions that diverged
    /// during its outage. The node rejoins the mirrored-read rotation
    /// once resync drains and the µproxies' probes come back clean.
    pub fn recover_storage_node(&mut self, i: usize) {
        let node = self.storage[i];
        self.engine.recover_node(node);
        for &c in &self.coords.clone() {
            self.engine
                .actor_mut::<crate::actors::CoordActor>(c)
                .coord
                .kick_resync(i as u32);
            // START_TAG re-arms the coordinator's sweep timer, which
            // drives the resync state machine forward.
            self.engine.kick(c);
        }
    }

    /// Flushes every client µproxy's block-map cache (the routing-table
    /// epoch swap of paper §3.3): the next mapped I/O re-fetches the
    /// reconfigured entries from the coordinator.
    pub fn flush_map_caches(&mut self) {
        for &c in &self.clients.clone() {
            if let Some(p) = self.engine.actor_mut::<ClientActor>(c).proxy_mut() {
                p.flush_map_cache();
            }
        }
    }

    /// Re-arms every coordinator's sweep timer; stashed reconfiguration
    /// actions flush on the kick and open migrations drive to completion.
    fn kick_coords(&mut self) {
        for &c in &self.coords.clone() {
            self.engine.kick(c);
        }
    }

    /// Widens the named file's mirror set by one replica per coordinator
    /// holding it: the new copy is pinned into the block map and filled
    /// through the dirty-region resync path, and µproxy read rotation
    /// picks it up once the migration log drains. Returns the number of
    /// block migrations queued.
    pub fn widen_file(&mut self, file: u64) -> usize {
        let now = self.engine.now();
        let mut queued = 0;
        for &c in &self.coords.clone() {
            queued += self
                .engine
                .actor_mut::<CoordActor>(c)
                .coord
                .widen_file(now, file);
        }
        self.flush_map_caches();
        self.kick_coords();
        queued
    }

    /// Brings a standby storage site into the placement rotation and
    /// queues the background rebalance that moves a share of existing
    /// block-map entries onto it. Returns the migrations queued.
    pub fn join_storage_node(&mut self, i: usize) -> usize {
        let now = self.engine.now();
        let mut queued = 0;
        for &c in &self.coords.clone() {
            queued += self
                .engine
                .actor_mut::<CoordActor>(c)
                .coord
                .join_site(now, i as u32);
        }
        self.flush_map_caches();
        self.kick_coords();
        queued
    }

    /// Starts a planned drain of a storage site: every block-map entry
    /// referencing it is migrated to a replacement replica, and the site
    /// retires once its migration log drains (distinct from a crash — the
    /// site keeps serving reads while draining). Returns the migrations
    /// queued; poll [`SliceEnsemble::migrations_pending`] and then call
    /// [`SliceEnsemble::retire_storage_node`] to finish the client side.
    pub fn drain_storage_node(&mut self, i: usize) -> usize {
        let now = self.engine.now();
        let mut queued = 0;
        for &c in &self.coords.clone() {
            let actor = self.engine.actor_mut::<CoordActor>(c);
            let (q, actions) = actor.coord.drain_site(now, i as u32);
            actor.stash_reconf(actions);
            queued += q;
        }
        self.flush_map_caches();
        self.kick_coords();
        queued
    }

    /// Completes the client-visible half of a drain once every
    /// coordinator reports the site retired: µproxies drop it from the
    /// read rotation and fan-outs and purge its suspicion soft state.
    /// Returns false (and does nothing) while any coordinator still holds
    /// the site un-retired.
    pub fn retire_storage_node(&mut self, i: usize) -> bool {
        let all_retired = self.coords.iter().all(|&c| {
            self.engine
                .actor::<CoordActor>(c)
                .coord
                .is_retired(i as u32)
        });
        if !all_retired {
            return false;
        }
        let now = self.engine.now();
        for &c in &self.clients.clone() {
            if let Some(p) = self.engine.actor_mut::<ClientActor>(c).proxy_mut() {
                p.retire_site(now, i as u32);
            }
        }
        self.flush_map_caches();
        true
    }

    /// Outstanding migration ranges across every coordinator.
    pub fn migrations_pending(&self) -> usize {
        self.coords
            .iter()
            .map(|&c| {
                self.engine
                    .actor::<CoordActor>(c)
                    .coord
                    .migrations_pending()
            })
            .sum()
    }

    /// Bytes copied by completed migrations across every coordinator.
    pub fn migrated_bytes(&self) -> u64 {
        self.coords
            .iter()
            .map(|&c| self.engine.actor::<CoordActor>(c).coord.migrated_bytes())
            .sum()
    }

    /// Files whose data-op count over the sliding hot window reaches
    /// `min`, merged across every client µproxy; hottest first.
    pub fn hot_files(&self, min: u64) -> Vec<(u64, u64)> {
        self.merge_hot(min, |p| p.hot_files(1))
    }

    /// Directories whose name-op count over the sliding hot window
    /// reaches `min`, merged across every client µproxy; hottest first.
    pub fn hot_dirs(&self, min: u64) -> Vec<(u64, u64)> {
        self.merge_hot(min, |p| p.hot_dirs(1))
    }

    fn merge_hot(&self, min: u64, f: impl Fn(&Uproxy) -> Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for &c in &self.clients {
            if let Some(p) = self.engine.actor::<ClientActor>(c).proxy() {
                for (id, n) in f(p) {
                    *merged.entry(id).or_insert(0) += n;
                }
            }
        }
        let mut out: Vec<(u64, u64)> = merged.into_iter().filter(|&(_, n)| n >= min).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Every client's recorded op history, in client order (empty unless
    /// the ensemble was built with `record_history`).
    pub fn histories(&self) -> Vec<&crate::history::OpHistory> {
        self.clients
            .iter()
            .map(|&c| self.engine.actor::<ClientActor>(c).history())
            .collect()
    }

    /// Folds every component's statistics into the engine's slice-obs
    /// registry. Every value is written with absolute (`set`) semantics,
    /// so collecting repeatedly — e.g. once mid-run and once at the end —
    /// never double-counts.
    pub fn collect_obs(&mut self) {
        // Harvest component stats first (immutable borrows), then write.
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut gauges: Vec<(String, f64)> = Vec::new();

        for (i, &c) in self.clients.iter().enumerate() {
            let actor = self.engine.actor::<ClientActor>(c);
            let s = actor.stats();
            let p = format!("client.{i}");
            counters.push((format!("{p}.ops"), s.ops));
            counters.push((format!("{p}.bytes_read"), s.bytes_read));
            counters.push((format!("{p}.bytes_written"), s.bytes_written));
            counters.push((format!("{p}.retransmits"), s.retransmits));
            counters.push((format!("{p}.timeouts"), s.timeouts));
        }
        for (i, &d) in self.dirs.iter().enumerate() {
            let srv = &self.engine.actor::<crate::actors::DirActor>(d).server;
            let p = format!("dirsvc.{i}");
            counters.push((format!("{p}.ops_served"), srv.ops_served()));
            counters.push((format!("{p}.peer_ops"), srv.peer_ops()));
            counters.push((format!("{p}.multisite_ops"), srv.multisite_ops()));
            counters.push((format!("{p}.misdirected"), srv.misdirected()));
            counters.push((format!("{p}.name_cells"), srv.name_cells() as u64));
            let (appends, batches, bytes) = srv.wal_stats();
            counters.push((format!("{p}.wal.appends"), appends));
            counters.push((format!("{p}.wal.batches"), batches));
            counters.push((format!("{p}.wal.bytes"), bytes));
        }
        for (i, &s) in self.sfs.iter().enumerate() {
            let srv = &self.engine.actor::<crate::actors::SmallFileActor>(s).server;
            let p = format!("smallfile.{i}");
            counters.push((format!("{p}.served"), srv.served()));
            gauges.push((format!("{p}.cache_hit_ratio"), srv.cache_hit_ratio()));
            let (zones, spills) = srv.alloc_stats();
            counters.push((format!("{p}.alloc.zones"), zones));
            counters.push((format!("{p}.alloc.spills"), spills));
        }
        for (i, &s) in self.storage.iter().enumerate() {
            let node = &self.engine.actor::<crate::actors::StorageActor>(s).node;
            let p = format!("storage.{i}");
            let (reads, writes) = node.op_counts();
            counters.push((format!("{p}.reads"), reads));
            counters.push((format!("{p}.writes"), writes));
            gauges.push((format!("{p}.cache_hit_ratio"), node.cache_hit_ratio()));
            let (dr, dw, db, dseq) = node.disk_stats();
            counters.push((format!("{p}.disk.reads"), dr));
            counters.push((format!("{p}.disk.writes"), dw));
            counters.push((format!("{p}.disk.bytes"), db));
            counters.push((format!("{p}.disk.seq_hits"), dseq));
            let (seeks, seek_ns) = node.disk_seeks();
            counters.push((format!("{p}.disk.seeks"), seeks));
            counters.push((format!("{p}.disk.seek_ns"), seek_ns));
        }
        for (i, &c) in self.coords.iter().enumerate() {
            let coord = &self.engine.actor::<crate::actors::CoordActor>(c).coord;
            let p = format!("coord.{i}");
            counters.push((format!("{p}.open_intents"), coord.open_intents() as u64));
            counters.push((format!("{p}.resolutions"), coord.resolutions().len() as u64));
            counters.push((format!("{p}.dirty_ranges"), coord.dirty_ranges() as u64));
            counters.push((format!("{p}.resyncs"), coord.resync_history().len() as u64));
            counters.push((format!("{p}.resync_bytes"), coord.resync_bytes()));
            counters.push((
                format!("{p}.migrations_pending"),
                coord.migrations_pending() as u64,
            ));
            counters.push((format!("{p}.migrated_bytes"), coord.migrated_bytes()));
            counters.push((format!("{p}.pinned_entries"), coord.pinned_entries() as u64));
            counters.push((
                format!("{p}.retired_sites"),
                coord.retired_sites().len() as u64,
            ));
            counters.push((
                format!("{p}.drains_done"),
                coord.reconf_history().len() as u64,
            ));
            let (appends, batches, bytes) = coord.wal_stats();
            counters.push((format!("{p}.wal.appends"), appends));
            counters.push((format!("{p}.wal.batches"), batches));
            counters.push((format!("{p}.wal.bytes"), bytes));
        }

        // µproxies fold themselves (they own their own counter names).
        // The registry is taken out of the engine for the duration so the
        // actor borrow and the registry borrow do not overlap.
        for (i, &c) in self.clients.iter().enumerate() {
            let mut reg = std::mem::take(&mut self.engine.obs_mut().registry);
            if let Some(proxy) = self.engine.actor::<ClientActor>(c).proxy() {
                proxy.export_metrics(&format!("client.{i}.uproxy"), &mut reg);
            }
            self.engine.obs_mut().registry = reg;
        }

        // Per-engine payload copy accounting: the delta of this thread's
        // copy counters since build is this ensemble's own traffic
        // (scenarios never migrate threads mid-run). Saturating guards
        // the degenerate build-on-one-thread, collect-on-another case.
        let (s0, d0, b0) = self.payload_base;
        let (s1, d1, b1) = slice_nfsproto::bytes::local_clone_stats();
        // Shard worker threads keep their own thread-local payload
        // counters; the engine harvests them at the end of each parallel
        // run, so the total is this thread's delta plus the workers'.
        let (ws, wd, wb) = self.engine.worker_payload();
        counters.push((
            "payload.shallow_clones".to_string(),
            s1.saturating_sub(s0) + ws,
        ));
        counters.push((
            "payload.deep_copies".to_string(),
            d1.saturating_sub(d0) + wd,
        ));
        counters.push((
            "payload.deep_copy_bytes".to_string(),
            b1.saturating_sub(b0) + wb,
        ));

        let reg = &mut self.engine.obs_mut().registry;
        for (k, v) in counters {
            reg.set(&k, v);
        }
        for (k, v) in gauges {
            reg.set_gauge(&k, v);
        }
        self.engine.fold_engine_metrics();
    }

    /// Collects all component statistics and exports the observability
    /// snapshot as deterministic JSON, stamped with the current sim time.
    pub fn obs_json(&mut self) -> String {
        self.collect_obs();
        self.engine.export_obs_json()
    }

    /// Reconfigures the directory service onto a new logical-slot map
    /// (paper §3.3.1): every site installs the map, entries whose slots
    /// moved migrate to their new homes, and µproxies discover the change
    /// lazily — their next misdirected request is bounced, triggering a
    /// table refresh and an RPC retransmission through the fresh table.
    ///
    /// # Panics
    ///
    /// Panics if `new_map` does not cover all logical slots or names a
    /// site outside the ensemble.
    pub fn reconfigure_dir_servers(&mut self, new_map: Vec<u32>) {
        assert!(new_map.iter().all(|&s| (s as usize) < self.dirs.len()));
        let now = self.engine.now();
        // Install the map everywhere, bumping each site's generation.
        for &d in &self.dirs {
            let actor = self.engine.actor_mut::<crate::actors::DirActor>(d);
            actor.server.set_slot_map(new_map.clone());
            actor.table_generation += 1;
        }
        // Migrate entries: export from every site, import at the owner.
        let mut moving: Vec<(usize, Vec<(u64, slice_dirsvc::NameCell)>)> = Vec::new();
        for &d in &self.dirs {
            let actor = self.engine.actor_mut::<crate::actors::DirActor>(d);
            let cells = actor.server.export_entries(now);
            moving.push((0, cells));
        }
        let mut per_site: Vec<Vec<(u64, slice_dirsvc::NameCell)>> =
            vec![Vec::new(); self.dirs.len()];
        for (_, cells) in moving {
            for (key, cell) in cells {
                let site = new_map[slice_hashes::bucket_of(key, slice_hashes::LOGICAL_SLOTS)];
                per_site[site as usize].push((key, cell));
            }
        }
        for (site, cells) in per_site.into_iter().enumerate() {
            if cells.is_empty() {
                continue;
            }
            let actor = self
                .engine
                .actor_mut::<crate::actors::DirActor>(self.dirs[site]);
            actor.server.import_entries(now, cells);
        }
    }
}

/// A baseline (single-server) deployment.
pub struct BaselineEnsemble {
    /// The simulation engine.
    pub engine: Engine<Wire>,
    /// Client node ids.
    pub clients: Vec<NodeId>,
    /// The server node.
    pub server: NodeId,
}

impl BaselineEnsemble {
    /// Builds a baseline deployment of `kind` with one server of `disks`
    /// arms and one client per workload.
    pub fn build(
        kind: BaselineKind,
        disks: usize,
        retain_data: bool,
        charge_cpu: bool,
        seed: u64,
        workloads: Vec<Box<dyn Workload>>,
    ) -> Self {
        let n = workloads.len();
        let plan = AddrPlan::new(n, 1, 0, 0);
        let server_addr = plan.dirs[0];
        let mut engine: Engine<Wire> = Engine::new(NetConfig::gigabit(), seed);
        let client_ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let server_id = NodeId(n as u32);
        let mut router = Router::new();
        for (i, &id) in client_ids.iter().enumerate() {
            router.register(plan.clients[i], id);
        }
        router.register(server_addr, server_id);
        for (i, workload) in workloads.into_iter().enumerate() {
            let cfg = ClientConfig {
                addr: plan.clients[i],
                server_addr,
                cred: AuthUnix {
                    machine: format!("client{i}"),
                    ..Default::default()
                },
                charge_cpu,
                record_history: false,
            };
            let actor = ClientActor::new(cfg, None, router.clone(), vec![], workload);
            let id = engine.add_node(&format!("client{i}"), Box::new(actor));
            assert_eq!(id, client_ids[i]);
        }
        let fs = MonoFs::new(kind, disks, retain_data);
        let actor = BaselineActor::new(fs, server_addr, router, charge_cpu);
        let id = engine.add_node("baseline", Box::new(actor));
        assert_eq!(id, server_id);
        BaselineEnsemble {
            engine,
            clients: client_ids,
            server: server_id,
        }
    }

    /// Partitions the deployment across `shards` engine shards: the
    /// server stays on shard 0 and clients round-robin across all shards.
    /// Must be called before [`BaselineEnsemble::start`]. A no-op at 1.
    pub fn set_shards(&mut self, shards: usize) {
        let total = self.clients.len() + 1;
        let shards = shards.max(1).min(total);
        if shards <= 1 {
            return;
        }
        let mut assignment = round_robin_assignment(&[&self.clients], shards);
        assignment.push(0); // server
        self.engine.set_shards(shards, &assignment);
    }

    /// Starts every client's workload.
    pub fn start(&mut self) {
        for &c in &self.clients.clone() {
            self.engine.kick(c);
        }
    }

    /// Runs until every workload finishes (plus a time-capped drain of
    /// trailing background work) or `deadline` passes. Same stepping
    /// scheme as [`SliceEnsemble::run_to_completion`].
    pub fn run_to_completion(&mut self, deadline: SimTime) -> SimTime {
        loop {
            let step = (self.engine.now() + SimDuration::from_secs(1)).min(deadline);
            self.engine.run_until(step);
            let done = self
                .clients
                .iter()
                .all(|&c| self.engine.actor::<ClientActor>(c).finished());
            if done {
                let drain_cap = self.engine.now() + DRAIN_HORIZON;
                while self.engine.live_events() > 0 && self.engine.now() < drain_cap {
                    let step = (self.engine.now() + SimDuration::from_secs(1)).min(drain_cap);
                    self.engine.run_until(step);
                }
                return self.engine.now();
            }
            if self.engine.now() >= deadline || self.engine.live_events() == 0 {
                return self.engine.now();
            }
        }
    }

    /// Client actor access.
    pub fn client(&self, i: usize) -> &ClientActor {
        self.engine.actor::<ClientActor>(self.clients[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_excess_parity() {
        // n-k > k: parity shard offsets would spill past the stripe.
        let cfg = SliceConfig {
            storage_nodes: 8,
            coded: Some((6, 2)),
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("n-k=4"), "spell out the geometry: {err}");
        assert!(err.contains("n <= 2k"), "state the constraint: {err}");
    }

    #[test]
    fn validate_rejects_more_shards_than_sites() {
        // n > available sites: nowhere to place disjoint shards.
        let cfg = SliceConfig {
            storage_nodes: 4,
            coded: Some((6, 4)),
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("at least n=6"), "name the shortfall: {err}");

        // Enough physical sites but too few *active* ones fails the same
        // way: standby spares don't hold shards until they join.
        let cfg = SliceConfig {
            storage_nodes: 8,
            active_storage: Some(4),
            coded: Some((6, 4)),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_shapes() {
        for coded in [Some((4, 0)), Some((4, 4)), Some((200, 100))] {
            let cfg = SliceConfig {
                storage_nodes: 250,
                coded,
                ..Default::default()
            };
            assert!(cfg.validate().is_err(), "{coded:?} must be rejected");
        }
        let cfg = SliceConfig {
            active_storage: Some(0),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SliceConfig {
            active_storage: Some(5),
            storage_nodes: 4,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        assert!(SliceConfig::default().validate().is_ok());
    }
}
