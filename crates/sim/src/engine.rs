//! Discrete-event engine: nodes, CPU service queues, timers, and the
//! switched-LAN network model — shardable across OS threads.
//!
//! Every Slice component (client + embedded µproxy, storage node, directory
//! server, small-file server, baseline NFS/MFS servers) is an [`Actor`]
//! attached to a node. Nodes exchange messages through a star-topology
//! switched network (§ [`crate::net`] parameters) and serialize their message
//! handling on a single simulated CPU: a handler declares how much CPU time
//! the work consumed via [`Ctx::use_cpu`], and subsequent messages queue
//! behind it. This is what makes the paper's saturation behaviours — an MFS
//! server pegging its CPU, a client NFS stack topping out below 40 MB/s —
//! emerge from the model rather than being painted on.
//!
//! # Sharding
//!
//! The engine partitions its nodes into [`Shard`]s, each owning a disjoint
//! subset of nodes together with their pending events (its own slab + 4-ary
//! heap). Shards advance in lock-step *windows*: every shard runs all events
//! strictly before a common bound `w1 = w0 + lookahead`, where `w0` is the
//! global minimum pending-event time and the lookahead is the network's
//! [`NetConfig::min_hop_latency`] — no event executed inside a window can
//! affect another shard earlier than the window's end, so shards never see
//! a straggler from the past (conservative parallel DES). Cross-shard
//! messages are exchanged at window barriers (see [`crate::shard`]) and
//! merged in deterministic key order.
//!
//! # Determinism
//!
//! Simulation output is byte-identical at any shard count, including one.
//! Three rules make that hold:
//!
//! * **Keys.** Every event is keyed `(time, src, seq)` where `src` is the
//!   node whose per-node `seq` counter stamped it. A node's events are
//!   created only while dispatching that node's own events (or at driver
//!   time, which is serial), so its seq subsequence — and therefore every
//!   key — is independent of shard layout.
//! * **RNG.** Every node draws from its own [`Rng::stream`]; loss and
//!   duplication are drawn from the *sender's* stream, reorder jitter from
//!   the *receiver's*, always during that node's own dispatches.
//! * **Contention points.** Each destination's switch port is charged in
//!   [`Event::SwitchArrive`] order (a receiver-side event), not in send
//!   order, so port queueing resolves identically however sends interleave
//!   across shards.
//!
//! The clock `now` advances only when an event *dispatches* (cancelled
//! timers surfacing from the heap do not count), so `Engine::now` and
//! [`Engine::events_executed`] are also shard-invariant.
//!
//! # Crash semantics
//!
//! Failing a node bumps its *incarnation*; queued local work ([`Event::Process`])
//! and armed timers ([`Event::TimerFire`]) carry the incarnation they were
//! created under and are silently discarded if it no longer matches — a
//! timer armed before a crash can never fire into a recovered node's new
//! life. In-flight network packets ([`Event::Arrive`]) carry no incarnation:
//! the wire does not know the host rebooted, so a packet that arrives while
//! the node is down is lost, and one that arrives after recovery is
//! delivered.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use slice_obs::{EventKind, Obs, Subsystem};

use crate::net::NetConfig;
use crate::rng::Rng;
use crate::shard;
use crate::time::{SimDuration, SimTime};

/// Identifies a node (one actor) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a pending timer so it can be cancelled.
///
/// Internally a generation-counted slab slot: cancelling a timer that has
/// already fired (or whose slot was since reused by a re-arm) is rejected
/// by the generation check, so stale cancels are harmless no-ops and the
/// engine carries no tombstone state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    slot: u32,
    gen: u32,
}

/// Messages must report their wire size so the network model can charge
/// serialization time.
pub trait MessageSize {
    /// Size in bytes as transmitted on the wire (payload; framing overhead
    /// is added by the network model).
    fn wire_size(&self) -> usize;

    /// Whether this message rides an unreliable datagram transport.
    /// Duplication and reordering injection apply only to datagrams;
    /// messages modelling reliable typed channels are delivered in
    /// order, exactly once (loss and crashes still apply).
    fn datagram(&self) -> bool {
        true
    }
}

impl MessageSize for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

/// A simulation participant.
///
/// Handlers run to completion at a single instant; the CPU time they declare
/// with [`Ctx::use_cpu`] delays their *outputs* and any queued work behind
/// them. Implementors must also provide `Any` access so test and experiment
/// harnesses can inspect actor state after a run. Actors must be `Send`:
/// the sharded engine moves them to worker threads for parallel windows.
pub trait Actor<M>: Send + 'static {
    /// Handles a message delivered from `from`.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// Handles a timer previously set with [`Ctx::set_timer`].
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Invoked when the engine fails this node (crash injection); volatile
    /// state should be discarded here. `now` is the crash instant (e.g.
    /// the cut-off for write-ahead-log durability).
    fn on_fail(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Invoked when the engine brings this node back up.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// `Any` access for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable `Any` access for post-run inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Timer tag delivered by [`Engine::kick`]; actors treat it as "start".
pub const START_TAG: u64 = u64::MAX;

enum QueueItem<M> {
    Message { from: NodeId, msg: M },
    Timer { tag: u64 },
    Restart,
}

enum Event<M> {
    /// A message finishes its network journey and joins the node's queue.
    /// Deliberately incarnation-free: packets on the wire survive a crash
    /// of their destination (they are simply lost if it is still down).
    Arrive { to: NodeId, from: NodeId, msg: M },
    /// A message reaches the switch egress port toward `to`; port
    /// serialization is charged here, on the *receiver's* shard, so port
    /// contention resolves in arrival order regardless of shard layout.
    /// `size` is the wire size the sender already computed, so the
    /// receiver's port charge needs no second walk of the message.
    SwitchArrive {
        to: NodeId,
        from: NodeId,
        msg: M,
        size: u32,
    },
    /// The node's CPU is free to process the next queued item. Discarded
    /// if the node's incarnation no longer matches (crashed since).
    Process { node: NodeId, epoch: u32 },
    /// A timer fires (unless its slab slot was cancelled or the node has
    /// crashed since the arm — the incarnation check).
    TimerFire { node: NodeId, tag: u64, epoch: u32 },
}

impl<M> Event<M> {
    /// The node whose shard must dispatch this event.
    fn dest(&self) -> NodeId {
        match *self {
            Event::Arrive { to, .. } | Event::SwitchArrive { to, .. } => to,
            Event::Process { node, .. } | Event::TimerFire { node, .. } => node,
        }
    }
}

/// Min-heap key: the event payload itself lives in the slab, so the heap
/// only shuffles small keys. Ordering is `(time, src, seq)` — `src` is the
/// node whose counter issued `seq`, making the total order identical at
/// any shard count. Ties on one node break FIFO by `seq`.
#[derive(Clone, Copy)]
struct HeapKey {
    time: SimTime,
    src: u32,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.src == other.src && self.seq == other.seq
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.src, self.seq).cmp(&(other.time, other.src, other.seq))
    }
}

/// 4-ary arity: each sift-down level touches one 64-byte-ish run of keys
/// instead of two scattered children, and the tree is half as deep as a
/// binary heap's — the event loop is pop-dominated, so depth is what
/// costs.
const HEAP_ARITY: usize = 4;

/// In-tree 4-ary min-heap of [`HeapKey`]s (the event payloads live in the
/// slab, so this only shuffles small keys).
struct EventHeap {
    keys: Vec<HeapKey>,
}

impl EventHeap {
    fn new() -> Self {
        EventHeap { keys: Vec::new() }
    }

    fn peek(&self) -> Option<&HeapKey> {
        self.keys.first()
    }

    fn push(&mut self, key: HeapKey) {
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1);
    }

    fn pop(&mut self) -> Option<HeapKey> {
        let n = self.keys.len();
        if n == 0 {
            return None;
        }
        self.keys.swap(0, n - 1);
        let top = self.keys.pop();
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        top
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / HEAP_ARITY;
            if self.keys[i] < self.keys[parent] {
                self.keys.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        loop {
            let first = i * HEAP_ARITY + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for c in first + 1..(first + HEAP_ARITY).min(n) {
                if self.keys[c] < self.keys[min] {
                    min = c;
                }
            }
            if self.keys[min] < self.keys[i] {
                self.keys.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }

    /// Drops keys failing `keep` and restores the heap property — O(n).
    ///
    /// Lazy deletion alone lets cancelled timers dominate the heap (every
    /// RPC arms a timeout that is cancelled milliseconds later but would
    /// sit in the queue until its fire time); periodic compaction keeps
    /// the heap sized to *live* work.
    fn compact(&mut self, mut keep: impl FnMut(&HeapKey) -> bool) {
        self.keys.retain(|k| keep(k));
        if self.keys.len() > 1 {
            for i in (0..=(self.keys.len() - 2) / HEAP_ARITY).rev() {
                self.sift_down(i);
            }
        }
    }
}

/// One generation-counted slab slot.
struct EventSlot<M> {
    /// Bumped every time the slot is freed; a [`TimerId`] whose generation
    /// does not match is stale and its cancel is rejected.
    gen: u32,
    state: SlotState<M>,
}

enum SlotState<M> {
    /// On the free list.
    Free,
    /// A timer armed by a handler whose outputs have not flushed yet; no
    /// heap entry exists. `cancelled` covers set-then-cancel within one
    /// handler invocation.
    Armed { cancelled: bool },
    /// In the heap, waiting to pop.
    Scheduled { event: Event<M>, cancelled: bool },
}

/// Slab of pending events: O(1) insert, O(1) cancel (flag the slot), O(1)
/// free on pop. Slots are recycled through a free list, so long runs with
/// heavy timer re-arming stay at the high-water mark of *concurrently
/// live* events instead of accumulating tombstones.
struct EventSlab<M> {
    slots: Vec<EventSlot<M>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
}

impl<M> EventSlab<M> {
    fn new() -> Self {
        EventSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    fn alloc(&mut self, state: SlotState<M>) -> u32 {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize].state = state;
            slot
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(EventSlot { gen: 0, state });
            slot
        }
    }

    /// Frees `slot` and returns its state; the generation bump invalidates
    /// any outstanding [`TimerId`] pointing at it.
    fn take(&mut self, slot: u32) -> SlotState<M> {
        let s = &mut self.slots[slot as usize];
        let state = std::mem::replace(&mut s.state, SlotState::Free);
        debug_assert!(!matches!(state, SlotState::Free), "double free");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        state
    }

    fn gen_of(&self, slot: u32) -> u32 {
        self.slots[slot as usize].gen
    }
}

struct NodeState<M> {
    name: String,
    queue: VecDeque<QueueItem<M>>,
    /// True when a `Process` event is in flight for this node.
    process_scheduled: bool,
    /// CPU is busy (serving) until this instant.
    busy_until: SimTime,
    /// Egress link occupied until this instant.
    egress_free: SimTime,
    /// Switch egress port toward this node occupied until this instant.
    /// Lives on the receiver so only its owning shard ever touches it.
    switch_port_free: SimTime,
    up: bool,
    /// Bumped on every crash; events carrying an older incarnation are
    /// discarded when they surface.
    incarnation: u32,
    /// Issues this node's event sequence numbers (heap tie-break); the
    /// draw order is shard-invariant because all draws happen while
    /// dispatching this node's own events.
    seq: u64,
    /// This node's private RNG stream.
    rng: Rng,
    /// Total CPU busy time, for utilization reporting.
    cpu_busy: SimDuration,
    messages_handled: u64,
}

/// Per-node runtime statistics exposed after a run.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// Node name given at creation.
    pub name: String,
    /// Accumulated CPU service time.
    pub cpu_busy: SimDuration,
    /// Messages and timers handled.
    pub messages_handled: u64,
}

/// A cross-shard event in flight: a [`Event::SwitchArrive`] bound for a
/// node on another shard, key preserved verbatim so the destination heap
/// orders it exactly as a single-shard run would.
pub(crate) struct Cross<M> {
    pub(crate) time: SimTime,
    pub(crate) src: u32,
    pub(crate) seq: u64,
    pub(crate) to: NodeId,
    pub(crate) from: NodeId,
    pub(crate) msg: M,
    /// Sender-computed wire size (see [`Event::SwitchArrive`]).
    pub(crate) size: u32,
}

/// The event-owning half of a shard: clock, heap, slab, node states, and
/// counters. Split from the actors so a handler (which borrows its actor
/// mutably) can still reach the engine through [`Ctx`].
pub(crate) struct ShardCore<M> {
    /// This shard's index in the engine.
    id: u32,
    now: SimTime,
    events: EventHeap,
    slab: EventSlab<M>,
    /// Full-length: `nodes[i]` is `Some` iff node `i` lives on this shard.
    nodes: Vec<Option<NodeState<M>>>,
    /// Owning shard of every node (replicated to each shard for routing).
    owner: Vec<u32>,
    net: NetConfig,
    packets_sent: u64,
    packets_dropped: u64,
    packets_duplicated: u64,
    bytes_sent: u64,
    /// Events dispatched (cancelled pops excluded) — shard-invariant.
    dispatched: u64,
    /// Cancelled timers whose keys are still in the heap; when they
    /// outnumber live entries the heap is compacted (see
    /// [`EventHeap::compact`]).
    cancelled_in_heap: usize,
    obs: Obs,
    /// Outgoing cross-shard events, one bucket per destination shard,
    /// drained at window barriers.
    outbox: Vec<Vec<Cross<M>>>,
    /// The conservative window width (min network hop latency), cached
    /// here so cross-shard deposits can tighten `window_cap`.
    lookahead: SimDuration,
    /// Dynamic bound for the window in progress. Reset to `MAX` at
    /// window start; a cross-shard deposit arriving at the destination
    /// at `t` tightens it to `t + lookahead` — the earliest instant the
    /// receiver's reaction could influence this shard. Windows wider
    /// than the conservative lookahead (see the adaptive widening in
    /// `shard.rs`) stay safe because the run loop stops at this cap;
    /// for lookahead-wide windows the cap is provably past the window
    /// end and never binds.
    window_cap: SimTime,
}

impl<M: MessageSize + Clone + Send + 'static> ShardCore<M> {
    fn new(id: u32, shards: usize, net: NetConfig) -> Self {
        let lookahead = net.min_hop_latency();
        ShardCore {
            id,
            now: SimTime::ZERO,
            events: EventHeap::new(),
            slab: EventSlab::new(),
            nodes: Vec::new(),
            owner: Vec::new(),
            net,
            packets_sent: 0,
            packets_dropped: 0,
            packets_duplicated: 0,
            bytes_sent: 0,
            dispatched: 0,
            cancelled_in_heap: 0,
            obs: Obs::new(),
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            lookahead,
            window_cap: SimTime::from_nanos(u64::MAX),
        }
    }

    fn node(&self, id: NodeId) -> &NodeState<M> {
        self.nodes[id.idx()]
            .as_ref()
            .expect("node not on this shard")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeState<M> {
        self.nodes[id.idx()]
            .as_mut()
            .expect("node not on this shard")
    }

    /// Draws the next sequence number from `src`'s counter.
    fn next_seq(&mut self, src: NodeId) -> u64 {
        let n = self.node_mut(src);
        let seq = n.seq;
        n.seq += 1;
        seq
    }

    /// Schedules `event` at `time`, keyed by `src`'s next sequence number.
    fn push_from(&mut self, time: SimTime, src: NodeId, event: Event<M>) {
        debug_assert_eq!(
            self.owner[event.dest().idx()],
            self.id,
            "event routed to wrong shard"
        );
        let seq = self.next_seq(src);
        let slot = self.slab.alloc(SlotState::Scheduled {
            event,
            cancelled: false,
        });
        self.events.push(HeapKey {
            time,
            src: src.0,
            seq,
            slot,
        });
    }

    /// Enqueues a cross-shard event under its original key.
    pub(crate) fn push_cross(&mut self, c: Cross<M>) {
        debug_assert!(c.time >= self.now, "cross-shard event from the past");
        let slot = self.slab.alloc(SlotState::Scheduled {
            event: Event::SwitchArrive {
                to: c.to,
                from: c.from,
                msg: c.msg,
                size: c.size,
            },
            cancelled: false,
        });
        self.events.push(HeapKey {
            time: c.time,
            src: c.src,
            seq: c.seq,
            slot,
        });
    }

    /// Compacts the heap once cancelled entries outnumber live ones, so
    /// pops pay for the live working set, not for every timeout ever
    /// armed. Amortized O(1) per cancel: a compaction costing O(n) only
    /// runs after n/2 cancels.
    fn maybe_compact(&mut self) {
        if self.cancelled_in_heap <= 64 || self.cancelled_in_heap * 2 <= self.events.keys.len() {
            return;
        }
        let slab = &mut self.slab;
        self.events.compact(|k| {
            let dead = matches!(
                slab.slots[k.slot as usize].state,
                SlotState::Scheduled {
                    cancelled: true,
                    ..
                }
            );
            if dead {
                slab.take(k.slot);
            }
            !dead
        });
        self.cancelled_in_heap = 0;
    }

    /// Models the sender half of the network path (NIC serialization) and
    /// schedules the switch-arrival on the destination's shard. `depart`
    /// is when the first bit may leave the source NIC. Loss and
    /// duplication draw from the *sender's* RNG stream; the switch egress
    /// port is charged later, by [`Event::SwitchArrive`] on the receiver.
    fn transmit(&mut self, from: NodeId, to: NodeId, msg: M, depart: SimTime) {
        self.packets_sent += 1;
        let size = msg.wire_size();
        self.bytes_sent += size as u64;
        if self.net.loss_prob > 0.0 {
            let p: f64 = self.node_mut(from).rng.gen();
            if p < self.net.loss_prob {
                self.packets_dropped += 1;
                self.obs.record(
                    self.now.as_nanos(),
                    Subsystem::Net,
                    EventKind::PacketDropped {
                        from: from.idx(),
                        to: to.idx(),
                        bytes: size,
                    },
                );
                return;
            }
        }
        self.obs.record(
            self.now.as_nanos(),
            Subsystem::Net,
            EventKind::PacketRouted {
                from: from.idx(),
                to: to.idx(),
                bytes: size,
            },
        );
        let tx = self.net.tx_time(size);
        // Source NIC serialization.
        let src_start = self.node(from).egress_free.max(depart);
        let src_done = src_start + tx;
        self.node_mut(from).egress_free = src_done;
        // Store-and-forward: the packet reaches the switch egress port
        // toward `to` after propagation and the forwarding decision.
        // Injected duplication delivers a second copy that will take its
        // own slot on the egress port.
        let at_switch = src_done + self.net.prop_delay + self.net.switch_latency;
        let datagram = msg.datagram();
        let copies = if datagram && self.net.dup_prob > 0.0 {
            let p: f64 = self.node_mut(from).rng.gen();
            if p < self.net.dup_prob {
                self.packets_duplicated += 1;
                self.obs.record(
                    self.now.as_nanos(),
                    Subsystem::Net,
                    EventKind::PacketDuplicated {
                        from: from.idx(),
                        to: to.idx(),
                        bytes: size,
                    },
                );
                2
            } else {
                1
            }
        } else {
            1
        };
        let dst_shard = self.owner[to.idx()];
        let mut msg = Some(msg);
        for copy in 0..copies {
            let m = if copy + 1 == copies {
                msg.take().expect("copy accounting")
            } else {
                msg.as_ref().expect("copy accounting").clone()
            };
            let seq = self.next_seq(from);
            if dst_shard == self.id {
                let slot = self.slab.alloc(SlotState::Scheduled {
                    event: Event::SwitchArrive {
                        to,
                        from,
                        msg: m,
                        size: size as u32,
                    },
                    cancelled: false,
                });
                self.events.push(HeapKey {
                    time: at_switch,
                    src: from.0,
                    seq,
                    slot,
                });
            } else {
                // The destination shard reacts to this arrival no earlier
                // than `at_switch`, and its reaction reaches us no earlier
                // than `at_switch + lookahead`. Under a widened window this
                // shard must therefore not run past that point.
                self.window_cap = self.window_cap.min(at_switch + self.lookahead);
                self.outbox[dst_shard as usize].push(Cross {
                    time: at_switch,
                    src: from.0,
                    seq,
                    to,
                    from,
                    msg: m,
                    size: size as u32,
                });
            }
        }
    }

    /// Receiver half of the network path: serialization on the switch
    /// egress port toward `to` (charged in arrival order), propagation,
    /// and optional bounded-reorder jitter from the *receiver's* stream.
    fn switch_deliver(&mut self, to: NodeId, from: NodeId, msg: M, size: u32) {
        let tx = self.net.tx_time(size as usize);
        let datagram = msg.datagram();
        let prop = self.net.prop_delay;
        let window = self.net.reorder_window.as_nanos();
        let now = self.now;
        let n = self.node_mut(to);
        let port_start = n.switch_port_free.max(now);
        let port_done = port_start + tx;
        n.switch_port_free = port_done;
        let mut arrive = port_done + prop;
        if datagram && window > 0 {
            // Bounded reordering: an extra uniformly-drawn queueing delay
            // lets packets overtake each other by at most the window.
            arrive += SimDuration::from_nanos(n.rng.gen_range(0..window));
        }
        self.push_from(arrive, to, Event::Arrive { to, from, msg });
    }

    fn enqueue_local(&mut self, to: NodeId, item: QueueItem<M>, at: SimTime) {
        let epoch = {
            let n = self.node(to);
            if !n.up {
                return;
            }
            n.incarnation
        };
        let n = self.node_mut(to);
        n.queue.push_back(item);
        if !n.process_scheduled {
            n.process_scheduled = true;
            let when = n.busy_until.max(at);
            self.push_from(when, to, Event::Process { node: to, epoch });
        }
    }

    /// Dispatches a timer-fire: discarded if the node crashed since the
    /// arm (incarnation mismatch) — the fix for the stale-timer leak.
    fn timer_fire(&mut self, node: NodeId, tag: u64, epoch: u32) {
        if self.node(node).incarnation != epoch {
            return;
        }
        let now = self.now;
        self.enqueue_local(node, QueueItem::Timer { tag }, now);
    }
}

/// Buffered side effect of a handler invocation.
enum Output<M> {
    Send {
        to: NodeId,
        msg: M,
    },
    SendLocal {
        to: NodeId,
        msg: M,
    },
    Timer {
        delay: SimDuration,
        tag: u64,
        slot: u32,
    },
}

/// Handler-side view of the engine: clock, RNG, sends, timers, CPU charge.
pub struct Ctx<'a, M> {
    core: &'a mut ShardCore<M>,
    node: NodeId,
    cpu_used: SimDuration,
    outputs: Vec<Output<M>>,
}

impl<'a, M: MessageSize + Clone + Send + 'static> Ctx<'a, M> {
    /// Current simulated time (the instant this handler runs).
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The node this handler is running on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Charges `d` of CPU time to this node; outputs of this handler and
    /// any queued work are delayed accordingly.
    pub fn use_cpu(&mut self, d: SimDuration) {
        self.cpu_used += d;
    }

    /// Sends `msg` to `to` through the network model.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outputs.push(Output::Send { to, msg });
    }

    /// Delivers `msg` to `to` bypassing the network (host-internal path,
    /// e.g. a coordinator co-located with a storage node). The two nodes
    /// must live on the same shard.
    pub fn send_local(&mut self, to: NodeId, msg: M) {
        self.outputs.push(Output::SendLocal { to, msg });
    }

    /// Schedules `on_timer(tag)` on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        // Allocate the slab slot now so the returned id is valid for
        // cancellation immediately, even though the fire event is only
        // scheduled when this handler's outputs flush.
        let slot = self.core.slab.alloc(SlotState::Armed { cancelled: false });
        let id = TimerId {
            slot,
            gen: self.core.slab.gen_of(slot),
        };
        self.outputs.push(Output::Timer { delay, tag, slot });
        id
    }

    /// Cancels a pending timer; firing a cancelled timer is a no-op. A
    /// stale id — the timer already fired, or its slot was reused — fails
    /// the generation check and the cancel is ignored.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if self.core.slab.gen_of(id.slot) != id.gen {
            return;
        }
        match &mut self.core.slab.slots[id.slot as usize].state {
            SlotState::Armed { cancelled } => {
                *cancelled = true;
            }
            SlotState::Scheduled { cancelled, .. } => {
                if !*cancelled {
                    *cancelled = true;
                    self.core.cancelled_in_heap += 1;
                    self.core.maybe_compact();
                }
            }
            SlotState::Free => {}
        }
    }

    /// This node's private RNG stream (deterministic per `(seed, node)`,
    /// independent of other nodes' event interleavings).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.core.node_mut(self.node).rng
    }

    /// This shard's observability sink. Handlers record trace events
    /// and registry updates here; timestamps are the simulated clock.
    /// Per-shard sinks are folded into the engine-wide sink after every
    /// run, so driver-side readers see one merged view.
    pub fn obs(&mut self) -> &mut Obs {
        &mut self.core.obs
    }

    /// Records a trace event attributed to this handler at the current
    /// simulated time.
    pub fn trace(&mut self, subsystem: Subsystem, kind: EventKind) {
        let now = self.core.now.as_nanos();
        self.core.obs.record(now, subsystem, kind);
    }
}

/// One shard: a disjoint subset of nodes, their pending events, and their
/// actors. With one shard the engine is exactly the serial simulator.
pub(crate) struct Shard<M> {
    core: ShardCore<M>,
    /// Full-length: `actors[i]` is `Some` iff node `i` lives here.
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    /// Reusable output buffer loaned to [`Ctx`] per handler invocation,
    /// so dispatch does not allocate a fresh `Vec` per event.
    scratch_outputs: Vec<Output<M>>,
}

impl<M: MessageSize + Clone + Send + 'static> Shard<M> {
    fn new(id: u32, shards: usize, net: NetConfig) -> Self {
        Shard {
            core: ShardCore::new(id, shards, net),
            actors: Vec::new(),
            scratch_outputs: Vec::new(),
        }
    }

    /// Earliest pending event time, cancelled entries included (they only
    /// make the window conservative, never unsafe).
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.core.events.peek().map(|k| k.time)
    }

    /// Takes the outgoing cross-shard batch for `dst`.
    pub(crate) fn drain_outbox(&mut self, dst: usize) -> Vec<Cross<M>> {
        std::mem::take(&mut self.core.outbox[dst])
    }

    /// Enqueues a cross-shard event under its original key.
    pub(crate) fn push_cross(&mut self, c: Cross<M>) {
        self.core.push_cross(c);
    }

    /// Runs every event strictly before `bound`; returns how many
    /// dispatched. The clock advances only on dispatched events, so it is
    /// independent of when cancelled entries happen to surface.
    pub(crate) fn run_window(&mut self, bound: SimTime) -> u64 {
        // Deposits made during this window may tighten the cap (only
        // binding under adaptively widened windows); a cap left over
        // from an earlier window must not carry forward.
        self.core.window_cap = SimTime::from_nanos(u64::MAX);
        let mut n = 0;
        // Heap pops come out in exact (time, src, seq) order, including
        // same-instant events a handler schedules mid-window.
        while let Some(k) = self.core.events.peek() {
            if k.time >= bound.min(self.core.window_cap) {
                break;
            }
            let key = self.core.events.pop().expect("peeked");
            if self.dispatch(key) {
                n += 1;
            }
        }
        n
    }

    /// Frees the slot, skips cancelled entries, advances the clock, and
    /// runs one event. Returns whether anything actually dispatched.
    fn dispatch(&mut self, key: HeapKey) -> bool {
        // Freeing the slot here is what makes cancellation O(1)
        // overall: a cancelled entry is reclaimed the moment it
        // surfaces, and the generation bump turns any still-held
        // TimerId into a rejected stale cancel.
        let (event, cancelled) = match self.core.slab.take(key.slot) {
            SlotState::Scheduled { event, cancelled } => (event, cancelled),
            _ => unreachable!("heap key points at unscheduled slot"),
        };
        if cancelled {
            debug_assert!(self.core.cancelled_in_heap > 0, "cancelled count underflow");
            self.core.cancelled_in_heap -= 1;
            return false;
        }
        debug_assert!(key.time >= self.core.now, "time went backwards");
        self.core.now = key.time;
        self.core.dispatched += 1;
        match event {
            Event::Arrive { to, from, msg } => {
                let now = self.core.now;
                self.core
                    .enqueue_local(to, QueueItem::Message { from, msg }, now);
            }
            Event::SwitchArrive {
                to,
                from,
                msg,
                size,
            } => {
                self.core.switch_deliver(to, from, msg, size);
            }
            Event::TimerFire { node, tag, epoch } => {
                self.core.timer_fire(node, tag, epoch);
            }
            Event::Process { node, epoch } => {
                self.process(node, epoch);
            }
        }
        true
    }

    fn process(&mut self, node: NodeId, epoch: u32) {
        let item = {
            let n = self.core.node_mut(node);
            if n.incarnation != epoch {
                // Scheduled before a crash: the queue entry it pointed at
                // died with the old incarnation (fail_node cleared both
                // the queue and the process_scheduled flag).
                return;
            }
            debug_assert!(n.up, "live-incarnation Process on a down node");
            n.process_scheduled = false;
            match n.queue.pop_front() {
                Some(item) => item,
                None => return,
            }
        };
        let mut actor = self.actors[node.idx()].take().expect("actor reentrancy");
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
            cpu_used: SimDuration::ZERO,
            outputs: std::mem::take(&mut self.scratch_outputs),
        };
        match item {
            QueueItem::Message { from, msg } => actor.on_message(&mut ctx, from, msg),
            QueueItem::Timer { tag } => actor.on_timer(&mut ctx, tag),
            QueueItem::Restart => actor.on_restart(&mut ctx),
        }
        let cpu = ctx.cpu_used;
        let mut outputs = std::mem::take(&mut ctx.outputs);
        drop(ctx);
        self.actors[node.idx()] = Some(actor);

        let done = self.core.now + cpu;
        let epoch = {
            let n = self.core.node_mut(node);
            n.busy_until = done;
            n.cpu_busy += cpu;
            n.messages_handled += 1;
            n.incarnation
        };
        for out in outputs.drain(..) {
            match out {
                Output::Send { to, msg } => self.core.transmit(node, to, msg, done),
                Output::SendLocal { to, msg } => {
                    assert_eq!(
                        self.core.owner[to.idx()],
                        self.core.id,
                        "send_local requires co-sharded nodes"
                    );
                    self.core.push_from(
                        done,
                        node,
                        Event::Arrive {
                            to,
                            from: node,
                            msg,
                        },
                    );
                }
                Output::Timer { delay, tag, slot } => {
                    // The slot was allocated in set_timer; a cancel issued
                    // in the same handler frees it without scheduling.
                    if matches!(
                        self.core.slab.slots[slot as usize].state,
                        SlotState::Armed { cancelled: true }
                    ) {
                        self.core.slab.take(slot);
                        continue;
                    }
                    self.core.slab.slots[slot as usize].state = SlotState::Scheduled {
                        event: Event::TimerFire { node, tag, epoch },
                        cancelled: false,
                    };
                    let seq = self.core.next_seq(node);
                    self.core.events.push(HeapKey {
                        time: done + delay,
                        src: node.0,
                        seq,
                        slot,
                    });
                }
            }
        }
        // Hand the (now empty) buffer back for the next invocation.
        self.scratch_outputs = outputs;
        // Serve the next queued item once the CPU frees up.
        let more = !self.core.node(node).queue.is_empty();
        if more {
            self.core.node_mut(node).process_scheduled = true;
            self.core
                .push_from(done, node, Event::Process { node, epoch });
        }
    }
}

/// The discrete-event simulator: one or more time-synchronized [`Shard`]s.
pub struct Engine<M> {
    shards: Vec<Shard<M>>,
    /// Owning shard of every node.
    owner: Vec<u32>,
    now: SimTime,
    seed: u64,
    /// Conservative window width: no event can cross shards faster than
    /// this ([`NetConfig::min_hop_latency`]).
    lookahead: SimDuration,
    /// Harvests thread-local payload statistics from worker threads at
    /// the end of each parallel run (see [`Engine::set_payload_probe`]).
    payload_probe: Option<shard::Probe>,
    worker_payload: (u64, u64, u64),
    /// Persistent worker threads for shards `1..n`, created on the first
    /// parallel run. Keeping them across runs makes short budgeted runs
    /// (driver probe loops, stepped schedules) cost a channel hand-off
    /// instead of a thread spawn and join per call.
    pool: Option<shard::WorkerPool<M>>,
    /// Windows executed on the serial (single-shard) path.
    serial_windows: u64,
}

impl<M: MessageSize + Clone + Send + 'static> Engine<M> {
    /// Creates a single-shard engine with the given network model and RNG
    /// seed. Call [`Engine::set_shards`] after adding nodes to partition it.
    pub fn new(net: NetConfig, seed: u64) -> Self {
        let lookahead = net.min_hop_latency();
        Engine {
            shards: vec![Shard::new(0, 1, net)],
            owner: Vec::new(),
            now: SimTime::ZERO,
            seed,
            lookahead,
            payload_probe: None,
            worker_payload: (0, 0, 0),
            pool: None,
            serial_windows: 0,
        }
    }

    /// Adds a node running `actor`; returns its id. Nodes are always added
    /// to an unsharded engine (shard 0) and distributed by
    /// [`Engine::set_shards`].
    pub fn add_node(&mut self, name: &str, actor: Box<dyn Actor<M>>) -> NodeId {
        assert_eq!(self.shards.len(), 1, "add_node after set_shards");
        let id = NodeId(self.owner.len() as u32);
        let shard = &mut self.shards[0];
        shard.core.nodes.push(Some(NodeState {
            name: name.to_string(),
            queue: VecDeque::new(),
            process_scheduled: false,
            busy_until: SimTime::ZERO,
            egress_free: SimTime::ZERO,
            switch_port_free: SimTime::ZERO,
            up: true,
            incarnation: 0,
            seq: 0,
            rng: Rng::stream(self.seed, u64::from(id.0)),
            cpu_busy: SimDuration::ZERO,
            messages_handled: 0,
        }));
        shard.core.owner.push(0);
        shard.actors.push(Some(actor));
        self.owner.push(0);
        id
    }

    /// Partitions the engine into `shards` shards; `assignment[i]` is the
    /// shard owning node `i`. Must be called before any event dispatches
    /// (typically right after topology construction); pending start events
    /// migrate with their keys intact, so the run is byte-identical to an
    /// unsharded one.
    ///
    /// # Panics
    ///
    /// Panics if called twice, after events have run, or with an
    /// out-of-range assignment.
    pub fn set_shards(&mut self, shards: usize, assignment: &[u32]) {
        assert_eq!(self.shards.len(), 1, "set_shards may only be called once");
        assert!(shards >= 1, "need at least one shard");
        assert_eq!(assignment.len(), self.owner.len(), "one entry per node");
        assert!(
            assignment.iter().all(|&s| (s as usize) < shards),
            "assignment out of range"
        );
        assert_eq!(
            self.shards[0].core.dispatched, 0,
            "set_shards after events ran"
        );
        if shards == 1 {
            return;
        }
        let old = self.shards.pop().expect("one shard");
        let Shard {
            mut core,
            mut actors,
            ..
        } = old;
        let nnodes = assignment.len();
        let mut new_shards: Vec<Shard<M>> = (0..shards)
            .map(|sid| {
                let mut s = Shard::new(sid as u32, shards, core.net.clone());
                s.core.nodes = (0..nnodes).map(|_| None).collect();
                s.core.owner = assignment.to_vec();
                s.actors = (0..nnodes).map(|_| None).collect();
                s
            })
            .collect();
        // Shard 0 inherits the engine-wide sink and any driver-time
        // counters accumulated before partitioning.
        new_shards[0].core.obs = std::mem::take(&mut core.obs);
        new_shards[0].core.packets_sent = core.packets_sent;
        new_shards[0].core.packets_dropped = core.packets_dropped;
        new_shards[0].core.packets_duplicated = core.packets_duplicated;
        new_shards[0].core.bytes_sent = core.bytes_sent;
        for (i, (node, actor)) in core.nodes.drain(..).zip(actors.drain(..)).enumerate() {
            let sid = assignment[i] as usize;
            new_shards[sid].core.nodes[i] = node;
            new_shards[sid].actors[i] = actor;
        }
        // Migrate pending start events (kicks, injects) with their keys
        // preserved verbatim. No handler has run yet, so no timers can be
        // armed or cancelled and no TimerId can be outstanding.
        while let Some(key) = core.events.pop() {
            match core.slab.take(key.slot) {
                SlotState::Scheduled { event, cancelled } => {
                    debug_assert!(!cancelled, "cancelled event before any dispatch");
                    let sid = assignment[event.dest().idx()] as usize;
                    let slot = new_shards[sid].core.slab.alloc(SlotState::Scheduled {
                        event,
                        cancelled: false,
                    });
                    new_shards[sid].core.events.push(HeapKey {
                        time: key.time,
                        src: key.src,
                        seq: key.seq,
                        slot,
                    });
                }
                _ => unreachable!("heap key points at unscheduled slot"),
            }
        }
        assert_eq!(core.slab.live, 0, "armed timers cannot survive resharding");
        self.owner = assignment.to_vec();
        self.shards = new_shards;
    }

    /// Number of shards (1 unless [`Engine::set_shards`] partitioned it).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative window width used for parallel runs.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Installs a probe that reads the calling thread's payload statistics
    /// (shallow clones, deep copies, deep-copied bytes); the engine calls
    /// it on each worker thread after a parallel run and accumulates the
    /// result into [`Engine::worker_payload`], so thread-local counters
    /// from shard workers are not lost.
    pub fn set_payload_probe(&mut self, probe: Arc<dyn Fn() -> (u64, u64, u64) + Send + Sync>) {
        self.payload_probe = Some(probe);
    }

    /// Payload statistics harvested from worker threads so far.
    pub fn worker_payload(&self) -> (u64, u64, u64) {
        self.worker_payload
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network loss probability control (failure injection).
    pub fn set_loss_prob(&mut self, p: f64) {
        for s in &mut self.shards {
            s.core.net.loss_prob = p;
        }
    }

    /// Network duplication probability control (failure injection).
    pub fn set_dup_prob(&mut self, p: f64) {
        for s in &mut self.shards {
            s.core.net.dup_prob = p;
        }
    }

    /// Bounded-reordering window control (failure injection); `ZERO`
    /// restores in-order delivery. Jitter is applied on the receiver side
    /// of the switch, so this never affects the cross-shard lookahead.
    pub fn set_reorder_window(&mut self, w: SimDuration) {
        for s in &mut self.shards {
            s.core.net.reorder_window = w;
        }
    }

    /// Delivers `on_timer(START_TAG)` to `node` at the current time;
    /// conventionally starts workload generators.
    pub fn kick(&mut self, node: NodeId) {
        let now = self.now;
        let core = &mut self.shards[self.owner[node.idx()] as usize].core;
        let epoch = core.node(node).incarnation;
        core.push_from(
            now,
            node,
            Event::TimerFire {
                node,
                tag: START_TAG,
                epoch,
            },
        );
    }

    /// Injects a message from outside the simulation.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        let now = self.now;
        let core = &mut self.shards[self.owner[from.idx()] as usize].core;
        core.transmit(from, to, msg, now);
    }

    /// Crashes `node`: volatile state is dropped via [`Actor::on_fail`],
    /// queued work is lost, and the incarnation bump invalidates every
    /// armed timer and in-flight `Process` — they are discarded when they
    /// surface instead of firing into the node's next life.
    pub fn fail_node(&mut self, node: NodeId) {
        let now = self.now;
        let shard = &mut self.shards[self.owner[node.idx()] as usize];
        {
            let n = shard.core.node_mut(node);
            n.up = false;
            n.incarnation = n.incarnation.wrapping_add(1);
            n.process_scheduled = false;
            n.queue.clear();
        }
        if let Some(actor) = shard.actors[node.idx()].as_mut() {
            actor.on_fail(now);
        }
        self.shards[0].core.obs.record(
            now.as_nanos(),
            Subsystem::Engine,
            EventKind::Crash { node: node.idx() },
        );
    }

    /// Restarts a failed node; the actor's [`Actor::on_restart`] hook runs
    /// (as a queued item) so it can begin recovery.
    pub fn recover_node(&mut self, node: NodeId) {
        let now = self.now;
        let core = &mut self.shards[self.owner[node.idx()] as usize].core;
        {
            let n = core.node_mut(node);
            n.up = true;
            n.busy_until = now;
        }
        core.enqueue_local(node, QueueItem::Restart, now);
        self.shards[0].core.obs.record(
            now.as_nanos(),
            Subsystem::Engine,
            EventKind::Recover { node: node.idx() },
        );
    }

    /// True if the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.shards[self.owner[node.idx()] as usize]
            .core
            .node(node)
            .up
    }

    /// Delivers driver-time cross-shard sends ([`Engine::inject`] between
    /// runs) before the next windowed run starts.
    fn flush_driver_outboxes(&mut self) {
        let n = self.shards.len();
        if n == 1 {
            return;
        }
        for src in 0..n {
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                let batch = self.shards[src].drain_outbox(dst);
                for c in batch {
                    self.shards[dst].push_cross(c);
                }
            }
        }
    }

    /// Shared body of [`Engine::run_until_idle`] and [`Engine::run_until`]:
    /// runs lookahead-wide windows until idle, the dispatch budget is
    /// spent, or the horizon passes `until`. The budget is checked between
    /// windows only (never mid-window), at *every* shard count — that
    /// window granularity is what keeps a budgeted run identical at any
    /// `--shards`.
    fn run_bounded(&mut self, limit: u64, until: Option<SimTime>) -> u64 {
        self.flush_driver_outboxes();
        let total = if self.shards.len() == 1 {
            let shard = &mut self.shards[0];
            if limit == u64::MAX {
                // Unbudgeted serial run: no barrier to synchronize with
                // and no budget to check between windows, so one window
                // spanning the whole horizon dispatches the identical
                // event sequence without per-window peek/bound work.
                let bound = match until {
                    Some(t) => t + SimDuration::from_nanos(1),
                    None => SimTime::from_nanos(u64::MAX),
                };
                self.serial_windows += 1;
                shard.run_window(bound)
            } else {
                let mut total = 0u64;
                while total < limit {
                    let Some(w0) = shard.next_time() else { break };
                    if let Some(t) = until {
                        if w0 > t {
                            break;
                        }
                    }
                    let mut w1 = w0 + self.lookahead;
                    if let Some(t) = until {
                        let cap = t + SimDuration::from_nanos(1);
                        if w1 > cap {
                            w1 = cap;
                        }
                    }
                    self.serial_windows += 1;
                    total += shard.run_window(w1);
                }
                total
            }
        } else {
            if self.pool.is_none() {
                self.pool = Some(shard::WorkerPool::new(self.shards.len(), self.lookahead));
            }
            let pool = self.pool.as_mut().expect("pool just ensured");
            let (total, payload) =
                pool.run(&mut self.shards, limit, until, self.payload_probe.as_ref());
            self.worker_payload.0 += payload.0;
            self.worker_payload.1 += payload.1;
            self.worker_payload.2 += payload.2;
            // Fold per-shard sinks into the engine-wide one (shard 0),
            // preserving each shard's trace configuration for the next run.
            let (root, rest) = self.shards.split_first_mut().expect("shards");
            let mut batches = Vec::with_capacity(rest.len());
            for s in rest.iter_mut() {
                root.core
                    .obs
                    .registry
                    .absorb(std::mem::take(&mut s.core.obs.registry));
                batches.push(s.core.obs.trace.take_events());
            }
            root.core.obs.trace.absorb_sorted(batches);
            total
        };
        // All remaining events sit at or beyond the last window bound, so
        // aligning every shard's clock to the global maximum preserves the
        // no-event-in-the-past invariant and gives driver-time operations
        // (kick, inject, fail) one consistent timestamp.
        let mut now = self.now;
        for s in &self.shards {
            now = now.max(s.core.now);
        }
        if let Some(t) = until {
            now = now.max(t);
        }
        self.now = now;
        for s in &mut self.shards {
            s.core.now = now;
        }
        total
    }

    /// Runs until the event queue drains or at least `limit` events
    /// dispatch (checked at window granularity).
    ///
    /// Returns the number of events dispatched by this call.
    pub fn run_until_idle(&mut self, limit: u64) -> u64 {
        self.run_bounded(limit, None)
    }

    /// Runs until simulated time reaches `t` (events at exactly `t` run).
    pub fn run_until(&mut self, t: SimTime) {
        self.run_bounded(u64::MAX, Some(t));
    }

    /// Immutable access to an actor's concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range or the type does not match.
    pub fn actor<T: Actor<M>>(&self, node: NodeId) -> &T {
        self.shards[self.owner[node.idx()] as usize].actors[node.idx()]
            .as_ref()
            .expect("actor checked out")
            .as_any()
            .downcast_ref::<T>()
            .expect("actor type mismatch")
    }

    /// Mutable access to an actor's concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range or the type does not match.
    pub fn actor_mut<T: Actor<M>>(&mut self, node: NodeId) -> &mut T {
        self.shards[self.owner[node.idx()] as usize].actors[node.idx()]
            .as_mut()
            .expect("actor checked out")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("actor type mismatch")
    }

    /// Per-node statistics.
    pub fn node_stats(&self, node: NodeId) -> NodeStats {
        let n = self.shards[self.owner[node.idx()] as usize].core.node(node);
        NodeStats {
            name: n.name.clone(),
            cpu_busy: n.cpu_busy,
            messages_handled: n.messages_handled,
        }
    }

    /// Total packets handed to the network model.
    pub fn packets_sent(&self) -> u64 {
        self.shards.iter().map(|s| s.core.packets_sent).sum()
    }

    /// Packets dropped by loss injection.
    pub fn packets_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.core.packets_dropped).sum()
    }

    /// Packets delivered twice by duplication injection.
    pub fn packets_duplicated(&self) -> u64 {
        self.shards.iter().map(|s| s.core.packets_duplicated).sum()
    }

    /// Total payload bytes handed to the network model.
    pub fn bytes_sent(&self) -> u64 {
        self.shards.iter().map(|s| s.core.bytes_sent).sum()
    }

    /// Events dispatched since creation (cancelled pops excluded) —
    /// identical at any shard count.
    pub fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.core.dispatched).sum()
    }

    /// Time windows executed across the engine's lifetime: serial
    /// single-shard windows plus barrier-synchronized parallel ones.
    /// Adaptive widening shows up here as fewer windows for the same
    /// number of dispatched events.
    pub fn shard_windows(&self) -> u64 {
        self.serial_windows + self.pool.as_ref().map_or(0, |p| p.windows())
    }

    /// Barrier crossings paid by the parallel window loop (zero for
    /// serial runs).
    pub fn shard_barrier_rounds(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.barrier_rounds())
    }

    /// Events currently live in the slabs (scheduled or armed).
    pub fn live_events(&self) -> usize {
        self.shards.iter().map(|s| s.core.slab.live).sum()
    }

    /// High-water mark of concurrently live events. With multiple shards
    /// this sums per-shard peaks, which may overstate the true concurrent
    /// peak (the shards need not peak at the same instant).
    pub fn peak_live_events(&self) -> usize {
        self.shards.iter().map(|s| s.core.slab.peak_live).sum()
    }

    /// Total slab slots ever allocated (peak capacity). Long runs that
    /// arm and cancel millions of timers stay at the concurrency
    /// high-water mark; growth here would mean a slot leak.
    pub fn event_slab_slots(&self) -> usize {
        self.shards.iter().map(|s| s.core.slab.slots.len()).sum()
    }

    /// Current free-list length (recyclable slots).
    pub fn event_slab_free(&self) -> usize {
        self.shards.iter().map(|s| s.core.slab.free.len()).sum()
    }

    /// The engine-wide observability sink (shard 0's; per-shard sinks are
    /// folded into it after every run).
    pub fn obs(&self) -> &Obs {
        &self.shards[0].core.obs
    }

    /// Mutable access to the observability sink (for configuring trace
    /// flags or folding external statistics before export).
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.shards[0].core.obs
    }

    /// Folds engine-level statistics into the registry with absolute
    /// (`set`) semantics, so harvesting repeatedly never double-counts,
    /// then returns the snapshot JSON stamped with the current sim time.
    pub fn export_obs_json(&mut self) -> String {
        self.fold_engine_metrics();
        let now_ns = self.now.as_nanos();
        self.shards[0].core.obs.export_json(now_ns)
    }

    /// Folds engine counters (packets, bytes, events, per-node CPU) into
    /// the registry without exporting.
    pub fn fold_engine_metrics(&mut self) {
        let events_executed = self.events_executed();
        let peak_live = self.peak_live_events();
        let packets_sent = self.packets_sent();
        let packets_dropped = self.packets_dropped();
        let packets_duplicated = self.packets_duplicated();
        let bytes_sent = self.bytes_sent();
        let elapsed = self.now.as_secs_f64();
        let mut rows = Vec::with_capacity(self.owner.len());
        for i in 0..self.owner.len() {
            let n = self.shards[self.owner[i] as usize]
                .core
                .node(NodeId(i as u32));
            rows.push((n.name.clone(), n.messages_handled, n.cpu_busy));
        }
        let reg = &mut self.shards[0].core.obs.registry;
        reg.set("engine.events_executed", events_executed);
        reg.set("engine.peak_live_events", peak_live as u64);
        reg.set("net.packets_sent", packets_sent);
        reg.set("net.packets_dropped", packets_dropped);
        reg.set("net.packets_duplicated", packets_duplicated);
        reg.set("net.bytes_sent", bytes_sent);
        for (i, (name, handled, cpu_busy)) in rows.into_iter().enumerate() {
            let prefix = format!("node.{i}.{name}");
            reg.set(&format!("{prefix}.messages_handled"), handled);
            reg.set(&format!("{prefix}.cpu_busy_ns"), cpu_busy.as_nanos());
            if elapsed > 0.0 {
                let util = cpu_busy.as_nanos() as f64 / 1e9 / elapsed;
                reg.set_gauge(&format!("{prefix}.cpu_utilization"), util);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetConfig;
    use std::any::Any;

    /// Echoes every message back to its sender after `service` CPU time.
    struct Echo {
        service: SimDuration,
        seen: Vec<(SimTime, Vec<u8>)>,
    }

    impl Actor<Vec<u8>> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, from: NodeId, msg: Vec<u8>) {
            ctx.use_cpu(self.service);
            self.seen.push((ctx.now(), msg.clone()));
            ctx.send(from, msg);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `count` pings at start, records reply times.
    struct Pinger {
        peer: NodeId,
        count: usize,
        replies: Vec<SimTime>,
    }

    impl Actor<Vec<u8>> for Pinger {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, _from: NodeId, _msg: Vec<u8>) {
            self.replies.push(ctx.now());
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
            assert_eq!(tag, START_TAG);
            for i in 0..self.count {
                ctx.send(self.peer, vec![i as u8; 100]);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn net() -> NetConfig {
        NetConfig::gigabit()
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut eng = Engine::new(net(), 1);
        let echo = eng.add_node(
            "echo",
            Box::new(Echo {
                service: SimDuration::from_micros(10),
                seen: vec![],
            }),
        );
        let pinger = eng.add_node(
            "pinger",
            Box::new(Pinger {
                peer: echo,
                count: 3,
                replies: vec![],
            }),
        );
        eng.kick(pinger);
        eng.run_until_idle(10_000);
        let p: &Pinger = eng.actor(pinger);
        assert_eq!(p.replies.len(), 3);
        let e: &Echo = eng.actor(echo);
        assert_eq!(e.seen.len(), 3);
        // CPU serialization: consecutive handlings at least `service` apart.
        for w in e.seen.windows(2) {
            assert!(w[1].0 - w[0].0 >= SimDuration::from_micros(10));
        }
    }

    #[test]
    fn cpu_queueing_delays_followers() {
        let mut eng = Engine::new(net(), 1);
        let echo = eng.add_node(
            "echo",
            Box::new(Echo {
                service: SimDuration::from_millis(1),
                seen: vec![],
            }),
        );
        let pinger = eng.add_node(
            "pinger",
            Box::new(Pinger {
                peer: echo,
                count: 5,
                replies: vec![],
            }),
        );
        eng.kick(pinger);
        eng.run_until_idle(10_000);
        let p: &Pinger = eng.actor(pinger);
        assert_eq!(p.replies.len(), 5);
        // Replies spaced by the 1 ms service time (server is the bottleneck).
        for w in p.replies.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                gap >= SimDuration::from_micros(990),
                "replies not serialized: gap {gap}"
            );
        }
        let stats = eng.node_stats(echo);
        assert_eq!(stats.cpu_busy, SimDuration::from_millis(5));
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut eng = Engine::new(net(), 42);
            let echo = eng.add_node(
                "echo",
                Box::new(Echo {
                    service: SimDuration::from_micros(7),
                    seen: vec![],
                }),
            );
            let pinger = eng.add_node(
                "pinger",
                Box::new(Pinger {
                    peer: echo,
                    count: 10,
                    replies: vec![],
                }),
            );
            eng.kick(pinger);
            eng.run_until_idle(100_000);
            let p: &Pinger = eng.actor(pinger);
            (p.replies.clone(), eng.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn packet_loss_drops_messages() {
        let mut cfg = net();
        cfg.loss_prob = 1.0;
        let mut eng = Engine::new(cfg, 1);
        let echo = eng.add_node(
            "echo",
            Box::new(Echo {
                service: SimDuration::ZERO,
                seen: vec![],
            }),
        );
        let pinger = eng.add_node(
            "pinger",
            Box::new(Pinger {
                peer: echo,
                count: 4,
                replies: vec![],
            }),
        );
        eng.kick(pinger);
        eng.run_until_idle(10_000);
        assert_eq!(eng.actor::<Echo>(echo).seen.len(), 0);
        assert_eq!(eng.packets_dropped(), 4);
    }

    #[test]
    fn packet_duplication_delivers_twice() {
        let mut cfg = net();
        cfg.dup_prob = 1.0;
        let mut eng = Engine::new(cfg, 1);
        let echo = eng.add_node(
            "echo",
            Box::new(Echo {
                service: SimDuration::ZERO,
                seen: vec![],
            }),
        );
        let pinger = eng.add_node(
            "pinger",
            Box::new(Pinger {
                peer: echo,
                count: 4,
                replies: vec![],
            }),
        );
        eng.kick(pinger);
        eng.run_until_idle(10_000);
        // Every ping (and every echo reply) is delivered twice.
        assert_eq!(eng.actor::<Echo>(echo).seen.len(), 8);
        assert!(eng.packets_duplicated() >= 4);
    }

    #[test]
    fn reordering_is_bounded_and_deterministic() {
        let run = || {
            let mut cfg = net();
            cfg.reorder_window = SimDuration::from_micros(200);
            let mut eng = Engine::new(cfg, 9);
            let echo = eng.add_node(
                "echo",
                Box::new(Echo {
                    service: SimDuration::ZERO,
                    seen: vec![],
                }),
            );
            let pinger = eng.add_node(
                "pinger",
                Box::new(Pinger {
                    peer: echo,
                    count: 16,
                    replies: vec![],
                }),
            );
            eng.kick(pinger);
            eng.run_until_idle(100_000);
            let e: &Echo = eng.actor(echo);
            assert_eq!(e.seen.len(), 16, "reordering must not lose packets");
            e.seen.iter().map(|(_, m)| m[0]).collect::<Vec<u8>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same (re)ordering");
        // With a 200 µs window over back-to-back small frames, at least
        // one pair must have swapped — otherwise the injector is inert.
        assert_ne!(a, (0..16).collect::<Vec<u8>>(), "no reordering happened");
    }

    #[test]
    fn failed_node_drops_traffic_until_recovered() {
        let mut eng = Engine::new(net(), 1);
        let echo = eng.add_node(
            "echo",
            Box::new(Echo {
                service: SimDuration::ZERO,
                seen: vec![],
            }),
        );
        let pinger = eng.add_node(
            "pinger",
            Box::new(Pinger {
                peer: echo,
                count: 2,
                replies: vec![],
            }),
        );
        eng.fail_node(echo);
        eng.kick(pinger);
        eng.run_until_idle(10_000);
        assert_eq!(eng.actor::<Pinger>(pinger).replies.len(), 0);
        eng.recover_node(echo);
        eng.inject(pinger, echo, vec![9]);
        eng.run_until_idle(10_000);
        assert_eq!(eng.actor::<Echo>(echo).seen.len(), 1);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut eng: Engine<Vec<u8>> = Engine::new(net(), 1);
        eng.run_until(SimTime::from_nanos(500));
        assert_eq!(eng.now(), SimTime::from_nanos(500));
    }

    /// A timer-heavy actor driving the slab: re-arms a timer on every
    /// fire, cancelling the previous arm, in the demand-armed tick
    /// pattern the clients and coordinator use.
    struct Rearmer {
        rounds: u64,
        fired: u64,
        cancelled_fires: u64,
        last: Option<TimerId>,
    }

    impl Actor<Vec<u8>> for Rearmer {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Vec<u8>>, _f: NodeId, _m: Vec<u8>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
            if tag == START_TAG || tag == 1 {
                if tag == 1 {
                    self.fired += 1;
                }
                if self.rounds > 0 {
                    self.rounds -= 1;
                    // Arm two timers, cancel one: only tag 1 may fire.
                    let doomed = ctx.set_timer(SimDuration::from_micros(5), 2);
                    self.last = Some(doomed);
                    ctx.set_timer(SimDuration::from_micros(10), 1);
                    ctx.cancel_timer(doomed);
                }
            } else {
                self.cancelled_fires += 1;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn event_ties_break_fifo_by_seq() {
        // Ten local sends flushed from one handler all arrive at the same
        // instant (no network serialization): identical heap time, ties
        // broken only by insertion seq — delivery must stay in send order.
        struct Burst {
            peer: NodeId,
        }
        impl Actor<Vec<u8>> for Burst {
            fn on_message(&mut self, _c: &mut Ctx<'_, Vec<u8>>, _f: NodeId, _m: Vec<u8>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, _tag: u64) {
                for i in 0..10u8 {
                    ctx.send_local(self.peer, vec![i]);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut eng = Engine::new(net(), 1);
        let src = eng.add_node("burst", Box::new(Burst { peer: NodeId(0) }));
        let echo = eng.add_node(
            "echo",
            Box::new(Echo {
                service: SimDuration::ZERO,
                seen: vec![],
            }),
        );
        eng.actor_mut::<Burst>(src).peer = echo;
        eng.kick(src);
        eng.run_until_idle(100);
        let e: &Echo = eng.actor(echo);
        let order: Vec<u8> = e.seen.iter().map(|(_, m)| m[0]).collect();
        assert_eq!(order, (0..10).collect::<Vec<u8>>(), "FIFO tie-break");
        // All ten arrivals shared one instant; order came from seq alone.
        assert!(e.seen.windows(2).all(|w| w[0].0 == w[1].0));
    }

    #[test]
    fn cancel_then_fire_is_noop() {
        let mut eng = Engine::new(net(), 1);
        let node = eng.add_node(
            "rearm",
            Box::new(Rearmer {
                rounds: 1,
                fired: 0,
                cancelled_fires: 0,
                last: None,
            }),
        );
        eng.kick(node);
        eng.run_until_idle(1_000);
        let r: &Rearmer = eng.actor(node);
        assert_eq!(r.fired, 1, "kept timer fires");
        assert_eq!(r.cancelled_fires, 0, "cancelled timer must not fire");
        assert_eq!(eng.live_events(), 0, "queue drained");

        // Timers already in the heap, cancelled by a handler running at
        // the same instant. Keys at one instant order by source node, so
        // every keeper handler on node 0 runs while node 1's victims are
        // still queued behind it; enough cancels pile up to compact the
        // heap mid-instant, and the rest surface as cancelled pops.
        const PAIRS: u64 = 200;
        type Victims = std::sync::Arc<std::sync::Mutex<Vec<TimerId>>>;
        struct SameInstant {
            keeper: bool,
            victims: Victims,
            kept: u64,
            victim_fires: u64,
            compactions: u64,
        }
        impl Actor<Vec<u8>> for SameInstant {
            fn on_message(&mut self, _c: &mut Ctx<'_, Vec<u8>>, _f: NodeId, _m: Vec<u8>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
                let due = SimDuration::from_micros(5);
                if tag == START_TAG {
                    let ids: Vec<TimerId> = (0..PAIRS).map(|i| ctx.set_timer(due, i)).collect();
                    if !self.keeper {
                        *self.victims.lock().unwrap() = ids;
                    }
                } else if self.keeper {
                    self.kept += 1;
                    let victim = self.victims.lock().unwrap()[tag as usize];
                    let before = ctx.core.cancelled_in_heap;
                    ctx.cancel_timer(victim);
                    if ctx.core.cancelled_in_heap != before + 1 {
                        self.compactions += 1;
                    }
                } else {
                    self.victim_fires += 1;
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let victims = Victims::default();
        let mut eng = Engine::new(net(), 1);
        let [keeper, holder] = [true, false].map(|keeper| {
            eng.add_node(
                if keeper { "keeper" } else { "victims" },
                Box::new(SameInstant {
                    keeper,
                    victims: victims.clone(),
                    kept: 0,
                    victim_fires: 0,
                    compactions: 0,
                }),
            )
        });
        eng.kick(keeper);
        eng.kick(holder);
        eng.run_until_idle(10_000);
        let k: &SameInstant = eng.actor(keeper);
        assert_eq!(k.kept, PAIRS, "every keeper fires");
        assert!(k.compactions > 0, "cancels never triggered a compaction");
        let v: &SameInstant = eng.actor(holder);
        assert_eq!(v.victim_fires, 0, "cancelled timer must not fire");
        assert_eq!(eng.shards[0].core.cancelled_in_heap, 0, "count exact");
        assert_eq!(eng.live_events(), 0, "queue drained");
        assert_eq!(
            eng.event_slab_free(),
            eng.event_slab_slots(),
            "all slots recycled at quiescence"
        );
    }

    #[test]
    fn stale_cancel_is_rejected_by_generation() {
        // Cancelling a timer that already fired must not disturb whatever
        // re-arm now occupies the recycled slot.
        struct StaleCancel {
            old: Option<TimerId>,
            fired: Vec<u64>,
        }
        impl Actor<Vec<u8>> for StaleCancel {
            fn on_message(&mut self, _c: &mut Ctx<'_, Vec<u8>>, _f: NodeId, _m: Vec<u8>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
                match tag {
                    START_TAG => {
                        self.old = Some(ctx.set_timer(SimDuration::from_micros(1), 1));
                    }
                    1 => {
                        // The old timer has fired; its slot is free and will
                        // be recycled for the new arm. A late cancel of the
                        // stale id must not kill the new timer.
                        ctx.set_timer(SimDuration::from_micros(1), 2);
                        ctx.cancel_timer(self.old.take().expect("armed"));
                    }
                    other => self.fired.push(other),
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut eng = Engine::new(net(), 1);
        let node = eng.add_node(
            "stale",
            Box::new(StaleCancel {
                old: None,
                fired: vec![],
            }),
        );
        eng.kick(node);
        eng.run_until_idle(1_000);
        let s: &StaleCancel = eng.actor(node);
        assert_eq!(s.fired, vec![2], "recycled slot survived stale cancel");
    }

    #[test]
    fn rearm_reuses_slots_and_memory_stays_bounded() {
        // One million re-armed + cancelled timers: the slab must stay at
        // the concurrency high-water mark (a handful of slots), not
        // accumulate a tombstone per cancel as the old cancelled-set did.
        const ROUNDS: u64 = 1_000_000;
        let mut eng = Engine::new(net(), 1);
        let node = eng.add_node(
            "rearm",
            Box::new(Rearmer {
                rounds: ROUNDS,
                fired: 0,
                cancelled_fires: 0,
                last: None,
            }),
        );
        eng.kick(node);
        eng.run_until_idle(u64::MAX);
        let r: &Rearmer = eng.actor(node);
        assert_eq!(r.fired, ROUNDS);
        assert_eq!(r.cancelled_fires, 0);
        assert!(
            eng.event_slab_slots() <= 16,
            "slab grew to {} slots over {} cancels — tombstones leak",
            eng.event_slab_slots(),
            ROUNDS
        );
        assert_eq!(
            eng.event_slab_free(),
            eng.event_slab_slots(),
            "all slots recycled at quiescence"
        );
        assert!(eng.peak_live_events() <= 16);
    }

    #[test]
    fn bandwidth_limits_throughput() {
        // 100 x 100 KB messages over a 1 Gb/s link must take at least
        // 10 MB / 125 MB/s = 80 ms of serialization time.
        struct Sink {
            last: SimTime,
            n: usize,
        }
        impl Actor<Vec<u8>> for Sink {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, _f: NodeId, _m: Vec<u8>) {
                self.last = ctx.now();
                self.n += 1;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut eng = Engine::new(net(), 1);
        let sink = eng.add_node(
            "sink",
            Box::new(Sink {
                last: SimTime::ZERO,
                n: 0,
            }),
        );
        let pinger = eng.add_node(
            "pinger",
            Box::new(Pinger {
                peer: sink,
                count: 100,
                replies: vec![],
            }),
        );
        // Pinger sends 100-byte messages; replace with large ones via inject.
        let _ = pinger;
        for _ in 0..100 {
            eng.inject(pinger, sink, vec![0u8; 100 * 1024]);
        }
        eng.run_until_idle(100_000);
        let s: &Sink = eng.actor(sink);
        assert_eq!(s.n, 100);
        assert!(
            s.last >= SimTime::ZERO + SimDuration::from_millis(80),
            "arrived too fast: {}",
            s.last
        );
    }

    /// Arms one long timer at start; records every non-start fire.
    struct Armer {
        fired: Vec<u64>,
    }

    impl Actor<Vec<u8>> for Armer {
        fn on_message(&mut self, _c: &mut Ctx<'_, Vec<u8>>, _f: NodeId, _m: Vec<u8>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
            if tag == START_TAG {
                ctx.set_timer(SimDuration::from_micros(100), 7);
            } else {
                self.fired.push(tag);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn stale_incarnation_timer_never_fires_after_crash() {
        // Regression for the crash-incarnation timer leak: a timer armed
        // in incarnation N must not fire into incarnation N+1 after a
        // fail/recover cycle that happens before its deadline.
        let mut eng = Engine::new(net(), 1);
        let node = eng.add_node("armer", Box::new(Armer { fired: vec![] }));
        eng.kick(node);
        // Let the arm happen, then crash and recover well before the
        // 100 µs deadline.
        eng.run_until(SimTime::from_nanos(10_000));
        eng.fail_node(node);
        eng.recover_node(node);
        eng.run_until_idle(10_000);
        assert_eq!(
            eng.actor::<Armer>(node).fired,
            Vec::<u64>::new(),
            "timer from a dead incarnation fired after recovery"
        );
        // The recovered node is fully functional: a fresh kick re-arms and
        // the new-incarnation timer fires normally.
        eng.kick(node);
        eng.run_until_idle(10_000);
        assert_eq!(eng.actor::<Armer>(node).fired, vec![7]);
    }

    #[test]
    fn in_flight_packet_outcome_depends_on_receiver_state_at_arrival() {
        // Network packets carry no incarnation: one already on the wire
        // when the receiver crashes is delivered if the receiver is back
        // up by arrival time, and lost if it is still down.
        let build = || {
            let mut eng = Engine::new(net(), 1);
            let echo = eng.add_node(
                "echo",
                Box::new(Echo {
                    service: SimDuration::ZERO,
                    seen: vec![],
                }),
            );
            let src = eng.add_node(
                "src",
                Box::new(Pinger {
                    peer: echo,
                    count: 0,
                    replies: vec![],
                }),
            );
            (eng, echo, src)
        };
        // Recovered before arrival: delivered.
        let (mut eng, echo, src) = build();
        eng.inject(src, echo, vec![1]);
        eng.fail_node(echo);
        eng.recover_node(echo);
        eng.run_until_idle(10_000);
        assert_eq!(eng.actor::<Echo>(echo).seen.len(), 1);
        // Still down at arrival: lost, and recovery does not resurrect it.
        let (mut eng, echo, src) = build();
        eng.inject(src, echo, vec![1]);
        eng.fail_node(echo);
        eng.run_until_idle(10_000);
        assert_eq!(eng.actor::<Echo>(echo).seen.len(), 0);
        eng.recover_node(echo);
        eng.run_until_idle(10_000);
        assert_eq!(eng.actor::<Echo>(echo).seen.len(), 0);
    }

    #[test]
    fn queued_local_work_dies_with_the_incarnation() {
        // Two messages queue behind a slow handler; the crash hits while
        // the second is still queued. The stale Process event must not
        // resurrect it, and the node must serve new work after recovery.
        let mut eng = Engine::new(net(), 1);
        let echo = eng.add_node(
            "echo",
            Box::new(Echo {
                service: SimDuration::from_millis(1),
                seen: vec![],
            }),
        );
        let src = eng.add_node(
            "src",
            Box::new(Pinger {
                peer: echo,
                count: 0,
                replies: vec![],
            }),
        );
        eng.inject(src, echo, vec![1]);
        eng.inject(src, echo, vec![2]);
        // First message is handled (~7 µs) and occupies the CPU for 1 ms;
        // the second sits in the queue at the 500 µs mark.
        eng.run_until(SimTime::from_nanos(500_000));
        assert_eq!(eng.actor::<Echo>(echo).seen.len(), 1);
        eng.fail_node(echo);
        eng.recover_node(echo);
        eng.run_until_idle(10_000);
        assert_eq!(
            eng.actor::<Echo>(echo).seen.len(),
            1,
            "queued work must die with the crash"
        );
        eng.inject(src, echo, vec![3]);
        eng.run_until_idle(10_000);
        let seen = &eng.actor::<Echo>(echo).seen;
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1].1, vec![3]);
    }

    /// Builds `pairs` independent echo/pinger pairs and returns the engine plus
    /// the node ids, optionally partitioned across `shards` shards with
    /// echoes and pingers interleaved round-robin.
    fn sharded_pairs(
        pairs: usize,
        shards: usize,
        seed: u64,
    ) -> (Engine<Vec<u8>>, Vec<NodeId>, Vec<NodeId>) {
        let mut eng = Engine::new(net(), seed);
        let mut echoes = Vec::new();
        let mut pingers = Vec::new();
        for i in 0..pairs {
            let echo = eng.add_node(
                &format!("echo{i}"),
                Box::new(Echo {
                    service: SimDuration::from_micros(5),
                    seen: vec![],
                }),
            );
            echoes.push(echo);
            pingers.push(eng.add_node(
                &format!("pinger{i}"),
                Box::new(Pinger {
                    peer: echo,
                    count: 8,
                    replies: vec![],
                }),
            ));
        }
        let assignment: Vec<u32> = (0..2 * pairs).map(|i| (i % shards) as u32).collect();
        eng.set_shards(shards, &assignment);
        for &p in &pingers {
            eng.kick(p);
        }
        (eng, echoes, pingers)
    }

    #[test]
    fn sharded_run_matches_serial_exactly() {
        // The same scenario at 1, 2, and 3 shards must produce identical
        // timings, counters, and final clock — the cross-shard pairs make
        // every ping/reply a cross-shard event at S > 1.
        let run = |shards: usize| {
            let (mut eng, echoes, pingers) = sharded_pairs(4, shards, 77);
            eng.run_until_idle(u64::MAX);
            let replies: Vec<Vec<SimTime>> = pingers
                .iter()
                .map(|&p| eng.actor::<Pinger>(p).replies.clone())
                .collect();
            let seen: Vec<Vec<(SimTime, Vec<u8>)>> = echoes
                .iter()
                .map(|&e| eng.actor::<Echo>(e).seen.clone())
                .collect();
            (
                replies,
                seen,
                eng.now(),
                eng.packets_sent(),
                eng.bytes_sent(),
                eng.events_executed(),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "2 shards diverged from serial");
        assert_eq!(serial, run(3), "3 shards diverged from serial");
    }

    /// Adaptive widening: when only one shard has events below the
    /// conservative horizon (the other is idle), the active shard's
    /// window extends to the idle shard's published minimum — here
    /// infinity — so a sparse millisecond-spaced timer chain runs in a
    /// handful of windows instead of one per hop-latency lookahead.
    #[test]
    fn lone_active_shard_widens_past_conservative_lookahead() {
        struct Chain {
            fires: u64,
        }
        impl Actor<Vec<u8>> for Chain {
            fn on_message(&mut self, _c: &mut Ctx<'_, Vec<u8>>, _f: NodeId, _m: Vec<u8>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, _tag: u64) {
                self.fires += 1;
                if self.fires < 100 {
                    ctx.set_timer(SimDuration::from_millis(1), 1);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut eng: Engine<Vec<u8>> = Engine::new(net(), 3);
        let chain = eng.add_node("chain", Box::new(Chain { fires: 0 }));
        eng.add_node(
            "idle",
            Box::new(Echo {
                service: SimDuration::ZERO,
                seen: vec![],
            }),
        );
        eng.set_shards(2, &[0, 1]);
        eng.kick(chain);
        eng.run_until(SimTime::from_nanos(200_000_000));
        assert_eq!(eng.actor::<Chain>(chain).fires, 100);
        // 100 ms of 1 ms-spaced timers with a ~µs lookahead would cost
        // tens of thousands of conservative windows; widening must
        // collapse that by orders of magnitude.
        let windows = eng.shard_windows();
        assert!(
            windows < 100,
            "expected widened windows, got {windows} for 100 timer fires"
        );
        assert!(eng.shard_barrier_rounds() > 0, "pool never ran a round");
    }

    #[test]
    fn sharded_run_matches_serial_with_fault_injection() {
        // Loss, duplication, and reordering draw from per-node streams, so
        // they too must be shard-invariant.
        let run = |shards: usize| {
            let mut cfg = net();
            cfg.loss_prob = 0.2;
            cfg.dup_prob = 0.2;
            cfg.reorder_window = SimDuration::from_micros(50);
            let mut eng = Engine::new(cfg, 1234);
            let mut nodes = Vec::new();
            for i in 0..6 {
                let echo = eng.add_node(
                    &format!("echo{i}"),
                    Box::new(Echo {
                        service: SimDuration::from_micros(3),
                        seen: vec![],
                    }),
                );
                nodes.push(echo);
            }
            let pinger = eng.add_node(
                "pinger",
                Box::new(Pinger {
                    peer: nodes[0],
                    count: 12,
                    replies: vec![],
                }),
            );
            let assignment: Vec<u32> = (0..7).map(|i| (i % shards) as u32).collect();
            eng.set_shards(shards, &assignment);
            eng.kick(pinger);
            eng.run_until_idle(u64::MAX);
            let seen: Vec<usize> = nodes
                .iter()
                .map(|&e| eng.actor::<Echo>(e).seen.len())
                .collect();
            (
                seen,
                eng.now(),
                eng.packets_sent(),
                eng.packets_dropped(),
                eng.packets_duplicated(),
                eng.events_executed(),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "fault injection diverged at 2 shards");
        assert_eq!(serial, run(4), "fault injection diverged at 4 shards");
    }

    #[test]
    fn cross_shard_events_merge_in_key_order() {
        // Cross-shard batches arriving out of order must still dispatch in
        // global (time, src, seq) order on the destination shard.
        let mut eng = Engine::new(net(), 5);
        let echo = eng.add_node(
            "echo",
            Box::new(Echo {
                service: SimDuration::ZERO,
                seen: vec![],
            }),
        );
        let a = eng.add_node(
            "a",
            Box::new(Pinger {
                peer: echo,
                count: 0,
                replies: vec![],
            }),
        );
        let b = eng.add_node(
            "b",
            Box::new(Pinger {
                peer: echo,
                count: 0,
                replies: vec![],
            }),
        );
        eng.set_shards(2, &[0, 1, 1]);
        let t = SimTime::from_nanos(10_000);
        // Shuffled injection order; expected dispatch order is
        // (t, a, 3) < (t, a, 5) < (t, b, 0).
        for (src, seq, from, tagbyte) in [
            (a.0, 5u64, a, 2u8),
            (b.0, 0u64, b, 3u8),
            (a.0, 3u64, a, 1u8),
        ] {
            let msg = vec![tagbyte];
            let size = msg.wire_size() as u32;
            eng.shards[0].push_cross(Cross {
                time: t,
                src,
                seq,
                to: echo,
                from,
                msg,
                size,
            });
        }
        eng.run_until_idle(10_000);
        let order: Vec<u8> = eng
            .actor::<Echo>(echo)
            .seen
            .iter()
            .map(|(_, m)| m[0])
            .collect();
        assert_eq!(order, vec![1, 2, 3], "merge broke (time, src, seq) order");
    }

    #[test]
    fn sharded_fail_and_recover_route_to_owner() {
        let (mut eng, echoes, pingers) = sharded_pairs(2, 2, 9);
        eng.run_until_idle(u64::MAX);
        let before = eng.actor::<Echo>(echoes[1]).seen.len();
        assert_eq!(before, 8);
        eng.fail_node(echoes[1]);
        assert!(!eng.is_up(echoes[1]));
        eng.inject(pingers[1], echoes[1], vec![9]);
        eng.run_until_idle(10_000);
        assert_eq!(eng.actor::<Echo>(echoes[1]).seen.len(), before);
        eng.recover_node(echoes[1]);
        assert!(eng.is_up(echoes[1]));
        eng.inject(pingers[1], echoes[1], vec![9]);
        eng.run_until_idle(10_000);
        assert_eq!(eng.actor::<Echo>(echoes[1]).seen.len(), before + 1);
    }
}
