//! Per-queue dataplane workers: the multi-queue sharding layer.
//!
//! [`Host::run_workers`](crate::Host::run_workers) starts one worker
//! thread per NIC RSS queue. Each queue has a *shard*: the ring pairs of
//! every connection whose flow hash steers to its queue, a private LLC
//! slice, local delivery counters, and a buffer of trace events stamped
//! with the policy generation in force when the frame was handled. A
//! shard lives behind its own lock (`Arc<Mutex<Shard>>`), not inside its
//! thread, so any thread can run shard code and no shard shares state
//! with another.
//!
//! The calling thread runs every per-call op — app receive and send,
//! ring install and close, drain, quiesce, trace clear — directly on the
//! locked shard, with no thread hop. A pump batch is the one thing
//! handed off: each shard's jobs go into its *inbox* and its thread is
//! woken. The caller then visits the shards in index order, runs every
//! inbox no thread has taken yet, and collects each shard's *outbox*
//! under the lock. It only ever waits on a thread that is already
//! running a batch.
//!
//! Shard-local state is reconciled at a **quiesce barrier**
//! ([`Host::quiesce`](crate::Host::quiesce)): every shard drains its
//! counters, busy time, and buffered events back to the host, which
//! merges them into the global [`HostStats`](crate::host::HostStats),
//! the per-core CPU meters, and the telemetry hub (via
//! [`telemetry::Telemetry::absorb`], which preserves each event's
//! generation stamp). Policy commits, bitstream-reprogram reconciles,
//! and audits all quiesce first, so a generation swap is atomic across
//! shards: no shard can keep emitting under the old generation after the
//! commit returns.
//!
//! Determinism: the caller touches a shard only when it has no batch in
//! flight, and every outbox is collected before the pump returns, so each
//! shard's rings and LLC model see the same operation sequence whichever
//! thread ran its batch. Replies are reassembled in arrival order. A
//! multi-worker run is therefore a pure function of its inputs —
//! replaying the same frame schedule twice produces identical reports,
//! and `run_workers(1)` is byte-identical to the single-queue
//! [`Host::pump`](crate::Host::pump) path.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use memsim::{Llc, LlcConfig, LlcPartitionPlan, LlcStats, MemCosts};
use pkt::{FiveTuple, Packet};
use sim::{Dur, Time};
use telemetry::{DropCause, Owner, Stage, TraceEvent, TraceVerdict};

use crate::host::{FastMap, PktRing, RingKey};

/// Why [`Host::run_workers`](crate::Host::run_workers) refused, or what
/// the shard supervisor reports after a worker crash.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WorkerError {
    /// Worker mode is already active; stop it first.
    AlreadyRunning,
    /// Worker mode is not active.
    NotRunning,
    /// The worker count must match the NIC's RSS queue count so each
    /// queue has exactly one owner.
    QueueMismatch {
        /// Requested worker count.
        workers: usize,
        /// The NIC's configured RSS queue count.
        queues: usize,
    },
    /// Shared (per-process) rings cannot be sharded by flow: two
    /// connections of one process may steer to different queues.
    SharedRings,
    /// Shard code panicked. The supervisor caught it at the shard
    /// boundary: the shard's rings, counters, and events were salvaged
    /// and the shard was restarted in place — the remaining shards never
    /// stop serving.
    ShardPanicked {
        /// Which shard crashed.
        shard: usize,
        /// The panic payload, stringified.
        payload: String,
    },
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::AlreadyRunning => write!(f, "workers already running"),
            WorkerError::NotRunning => write!(f, "workers not running"),
            WorkerError::QueueMismatch { workers, queues } => {
                write!(f, "{workers} workers cannot own {queues} RSS queues 1:1")
            }
            WorkerError::SharedRings => {
                write!(f, "shared per-process rings cannot be sharded by flow")
            }
            WorkerError::ShardPanicked { shard, payload } => {
                write!(f, "worker shard {shard} panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for WorkerError {}

/// Delivery counters a shard maintains locally between quiesces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames DMA'd into this shard's RX rings.
    pub fast_delivered: u64,
    /// Frames dropped because the target ring was full.
    pub ring_drops: u64,
    /// Frames whose connection had no ring in this shard.
    pub ring_missing: u64,
}

/// What one shard hands back at a quiesce barrier. Counters and events
/// are *deltas* since the previous quiesce; the shard resets them after
/// reporting.
#[derive(Debug)]
pub struct ShardReport {
    /// Delivery counters accumulated since the last quiesce.
    pub stats: ShardStats,
    /// Trace events buffered since the last quiesce, each stamped with
    /// the policy generation in force when it was recorded.
    pub events: Vec<TraceEvent>,
    /// Worker CPU consumed on deliveries since the last quiesce.
    pub busy: Dur,
    /// LLC traffic through this shard's private partition since the last
    /// quiesce (hits, misses, DDIO evictions).
    pub llc: LlcStats,
    /// Frames currently resident in this shard's RX rings (an absolute
    /// occupancy, not a delta — the audit's third ledger).
    pub queued_fids: u64,
    /// Arena-backed frame descriptors currently resident in this shard's
    /// rings, both directions (absolute occupancy — the host's arena
    /// leak audit sums these against the arena's live-slot count).
    pub arena_resident: u64,
}

/// One frame the host asks a shard to DMA into its rings.
#[derive(Debug)]
pub(crate) struct DeliverJob {
    /// Position in the pump batch, for reassembly in arrival order.
    pub idx: usize,
    /// The ring pair the frame targets.
    pub key: RingKey,
    /// The frame itself, riding the ring as its descriptor. The host
    /// keeps its own handle to the same buffer, so a frame the shard
    /// never answers can still be rerouted after a crash.
    pub pkt: Packet,
    /// Frame length on the wire.
    pub len: usize,
    /// Telemetry frame id (0 when tracing is off).
    pub fid: u64,
    /// RX five-tuple, for trace events.
    pub tuple: Option<FiveTuple>,
    /// Owning process of the destination ring, for drop attribution in
    /// trace events. Only populated when `trace` is set.
    pub owner: Option<Owner>,
    /// When the NIC finished with the frame.
    pub ready_at: Time,
    /// Whether the flow was resolved from the cold tier: its ring DMA
    /// bypasses DDIO allocation so demoted flows cannot thrash the
    /// shard's LLC partition.
    pub cold: bool,
    /// Whether tracing is enabled for this batch.
    pub trace: bool,
    /// Policy generation in force when the batch was dispatched.
    pub generation: u64,
}

/// Shard-side outcome of one [`DeliverJob`].
#[derive(Clone, Copy, Debug)]
struct DeliverReply {
    idx: usize,
    outcome: ShardOutcome,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum ShardOutcome {
    /// DMA'd into the RX ring at this memory cost.
    Fast(Dur),
    /// The ring was full; the frame was dropped.
    RingFull,
    /// The shard has no ring for this key (torn-down state mid-race).
    RingMissing,
    /// The shard crashed before answering this job. The frame is still
    /// in host memory — the supervisor reroutes it through the software
    /// slow path so it is accounted, not silently dropped.
    Crashed,
}

/// Shard-side outcome of one receive.
#[derive(Clone, Debug)]
pub(crate) enum RecvReply {
    /// Dequeued the frame at this cost; `fid` is the frame id that
    /// filled the slot (0 when untracked).
    Data {
        pkt: Packet,
        len: usize,
        cost: Dur,
        fid: u64,
    },
    /// The ring is empty.
    Empty,
    /// The shard has no ring for this key.
    Missing,
}

/// Shard-side outcome of one send (payload write + NIC DMA read).
#[derive(Clone, Copy, Debug)]
pub(crate) enum SendReply {
    /// Payload written into the TX ring at this CPU cost.
    Produced(Dur),
    /// The TX ring is full.
    Full,
    /// The shard has no ring for this key.
    Missing,
}

/// One ring pair in flight between shards (rebalance / teardown).
pub(crate) struct RingEntry {
    pub key: RingKey,
    pub rx: PktRing,
    pub tx: PktRing,
    pub fids: VecDeque<u64>,
}

thread_local! {
    /// Whether this thread is running shard code inside
    /// [`Shard::guarded`], so a panic raised now is caught at the shard
    /// boundary and reported by the supervisor. The panic hook keys on it.
    static IN_SHARD: Cell<bool> = const { Cell::new(false) };
}

/// The state of one shard, owned by its lock.
struct Shard {
    rings: HashMap<RingKey, (PktRing, PktRing)>,
    ring_frame_ids: FastMap<RingKey, VecDeque<u64>>,
    llc: Llc,
    mem: MemCosts,
    stats: ShardStats,
    events: Vec<TraceEvent>,
    busy: Dur,
    /// The pump batch waiting to run. Jobs leave it one at a time, so
    /// after a crash it holds exactly the frames never started.
    inbox: VecDeque<DeliverJob>,
    /// Replies for the batch, collected by the caller under the lock.
    outbox: Vec<DeliverReply>,
    /// The frame being delivered right now, unanswered if a panic hits.
    current: Option<usize>,
    /// Fault injection: panic with this message once this many more
    /// frames have been delivered.
    armed: Option<(usize, String)>,
    /// Set when shard code panicked: the payload, awaiting salvage.
    crashed: Option<String>,
}

impl Shard {
    fn new(llc: LlcConfig, mem: MemCosts) -> Shard {
        Shard {
            rings: HashMap::new(),
            ring_frame_ids: FastMap::default(),
            llc: Llc::new(llc),
            mem,
            stats: ShardStats::default(),
            events: Vec::new(),
            busy: Dur::ZERO,
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            current: None,
            armed: None,
            crashed: None,
        }
    }

    /// Runs `op` at the shard boundary: a panic inside it is caught here,
    /// on whichever thread ran it, and its payload parked in `crashed`
    /// for the supervisor. Returns `None` when `op` panicked.
    fn guarded<R>(&mut self, op: impl FnOnce(&mut Shard) -> R) -> Option<R> {
        IN_SHARD.set(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(self)));
        IN_SHARD.set(false);
        match caught {
            Ok(r) => Some(r),
            Err(e) => {
                self.crashed = Some(panic_message(e.as_ref()));
                None
            }
        }
    }

    /// Runs the pending pump batch, if there is one and the shard is not
    /// awaiting salvage. Whichever thread locks the shard first does it.
    fn take_batch(&mut self) {
        if self.crashed.is_none() && !self.inbox.is_empty() {
            self.guarded(Shard::run_inbox);
        }
    }

    fn run_inbox(&mut self) {
        while !self.inbox.is_empty() {
            match &mut self.armed {
                Some((0, msg)) => {
                    let msg = std::mem::take(msg);
                    self.armed = None;
                    panic!("{msg}");
                }
                Some((after, _)) => *after -= 1,
                None => {}
            }
            let job = self.inbox.pop_front().expect("inbox is not empty");
            self.current = Some(job.idx);
            let reply = self.deliver(job);
            self.outbox.push(reply);
            self.current = None;
        }
    }

    fn deliver(&mut self, job: DeliverJob) -> DeliverReply {
        let Some((rx_ring, _)) = self.rings.get_mut(&job.key) else {
            self.stats.ring_missing += 1;
            return DeliverReply {
                idx: job.idx,
                outcome: ShardOutcome::RingMissing,
            };
        };
        // The packet handle itself is the ring descriptor: a refused
        // produce drops it (refcount release), never copies it.
        let produced = if job.cold {
            rx_ring.produce_dma_bypass_with(job.pkt, job.len, &mut self.llc, &self.mem)
        } else {
            rx_ring.produce_dma_with(job.pkt, job.len, &mut self.llc, &self.mem)
        };
        match produced {
            Ok(cost) => {
                self.stats.fast_delivered += 1;
                self.busy += cost;
                if job.trace {
                    self.ring_frame_ids
                        .entry(job.key)
                        .or_default()
                        .push_back(job.fid);
                    self.events.push(TraceEvent {
                        frame_id: job.fid,
                        at: job.ready_at,
                        stage: Stage::RingEnqueue,
                        verdict: TraceVerdict::Pass,
                        tuple: job.tuple,
                        len: job.len as u32,
                        owner: job.owner,
                        generation: job.generation,
                    });
                }
                DeliverReply {
                    idx: job.idx,
                    outcome: ShardOutcome::Fast(cost),
                }
            }
            Err(_) => {
                self.stats.ring_drops += 1;
                if job.trace {
                    self.events.push(TraceEvent {
                        frame_id: job.fid,
                        at: job.ready_at,
                        stage: Stage::RingEnqueue,
                        verdict: TraceVerdict::Drop(DropCause::RingFull),
                        tuple: job.tuple,
                        len: job.len as u32,
                        owner: job.owner,
                        generation: job.generation,
                    });
                }
                DeliverReply {
                    idx: job.idx,
                    outcome: ShardOutcome::RingFull,
                }
            }
        }
    }

    fn recv(&mut self, key: RingKey, trace: bool) -> RecvReply {
        let Some((rx_ring, _)) = self.rings.get_mut(&key) else {
            return RecvReply::Missing;
        };
        match rx_ring.consume_cpu_desc(&mut self.llc, &self.mem) {
            Some((pkt, len, cost)) => {
                let fid = if trace {
                    self.ring_frame_ids
                        .get_mut(&key)
                        .and_then(|q| q.pop_front())
                        .unwrap_or(0)
                } else {
                    0
                };
                RecvReply::Data {
                    pkt,
                    len,
                    cost,
                    fid,
                }
            }
            None => RecvReply::Empty,
        }
    }

    fn send(&mut self, key: RingKey, pkt: Packet, len: usize) -> SendReply {
        let Some((_, tx_ring)) = self.rings.get_mut(&key) else {
            return SendReply::Missing;
        };
        match tx_ring.produce_cpu_with(pkt, len, &mut self.llc, &self.mem) {
            Ok(cost) => {
                // NIC side: DMA-read the frame back out of the ring (the
                // discarded descriptor is the NIC releasing its reference).
                let _ = tx_ring.consume_dma(&mut self.llc, &self.mem);
                SendReply::Produced(cost)
            }
            Err(_) => SendReply::Full,
        }
    }

    fn install(&mut self, e: RingEntry) {
        if !e.fids.is_empty() {
            self.ring_frame_ids.insert(e.key, e.fids);
        }
        self.rings.insert(e.key, (e.rx, e.tx));
    }

    fn close(&mut self, key: RingKey) {
        self.rings.remove(&key);
        self.ring_frame_ids.remove(&key);
    }

    fn clear_trace(&mut self) {
        self.events.clear();
        self.ring_frame_ids.clear();
    }

    fn drain_rings(&mut self) -> Vec<RingEntry> {
        let mut keys: Vec<RingKey> = self.rings.keys().copied().collect();
        keys.sort_unstable_by_key(|k| k.order());
        keys.into_iter()
            .map(|key| {
                let (rx, tx) = self.rings.remove(&key).expect("key came from the map");
                RingEntry {
                    key,
                    rx,
                    tx,
                    fids: self.ring_frame_ids.remove(&key).unwrap_or_default(),
                }
            })
            .collect()
    }

    fn report(&mut self) -> ShardReport {
        let llc = self.llc.stats();
        self.llc.reset_stats(); // contents stay; counters restart as deltas
        ShardReport {
            stats: std::mem::take(&mut self.stats),
            events: std::mem::take(&mut self.events),
            busy: std::mem::replace(&mut self.busy, Dur::ZERO),
            llc,
            queued_fids: self.ring_frame_ids.values().map(|q| q.len() as u64).sum(),
            arena_resident: self
                .rings
                .values()
                .map(|(rx, tx)| {
                    (rx.iter_descs().filter(|p| p.is_arena()).count()
                        + tx.iter_descs().filter(|p| p.is_arena()).count())
                        as u64
                })
                .sum(),
        }
    }
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Shard panics are reported through the supervisor, so the default
/// panic hook's backtrace spew on stderr is pure noise (and would make
/// chaos runs unreadable). Suppress it while shard code runs, on any
/// thread; everything else keeps the previous hook.
fn quiet_shard_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_SHARD.get() {
                prev(info);
            }
        }));
    });
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    // Shard code panics are caught inside the lock, so it never poisons.
    shard.lock().expect("shard lock poisoned")
}

/// A worker thread: sleeps until a pump wakes it, then runs its shard's
/// batch unless the caller has already taken it.
fn worker_loop(shard: &Mutex<Shard>, stop: &AtomicBool) {
    loop {
        std::thread::park();
        if stop.load(Ordering::Acquire) {
            return;
        }
        lock(shard).take_batch();
    }
}

struct Worker {
    shard: Arc<Mutex<Shard>>,
    thread: JoinHandle<()>,
}

/// One supervised shard restart, recorded for the host to account.
#[derive(Clone, Debug)]
pub(crate) struct ShardCrash {
    /// Which shard crashed.
    pub shard: usize,
    /// The panic payload, stringified.
    pub payload: String,
    /// Cumulative restarts of this shard (1 on the first crash).
    pub restarts: u64,
    /// Backoff penalty the supervisor charges for this restart:
    /// doubling from 50 µs, capped after six doublings.
    pub penalty: Dur,
}

/// Restarts crashed shards and keeps what they leave behind.
struct Supervisor {
    /// The way-disjoint carve-up of the host LLC: shard `i` owns
    /// partition `i` outright, with a per-partition DDIO mask floored
    /// at one way, so one shard's ring working set cannot evict
    /// another's and every shard can absorb inbound DMA.
    plan: LlcPartitionPlan,
    mem: MemCosts,
    /// Per-shard cumulative restart counts (drives backoff doubling).
    restarts: Vec<u64>,
    /// Reports salvaged from crashed shards, folded into the next
    /// quiesce so no counter or event is lost.
    pending_reports: Vec<(usize, ShardReport)>,
    /// Crash records since the last [`WorkerPool::take_crashes`].
    crashes: Vec<ShardCrash>,
}

impl Supervisor {
    /// Restarts crashed shard `i` in place: its ring pairs (host memory,
    /// so they survive the crash) are drained *before* the final report,
    /// so the banked report's `queued_fids` is zero and occupancy travels
    /// with the rings. The shard starts over with a fresh LLC partition,
    /// the rings are reinstalled, the report is banked for the next
    /// quiesce, and the crash is recorded with its backoff penalty.
    fn salvage(&mut self, i: usize, s: &mut Shard) {
        let payload = s.crashed.take().expect("salvage follows a crash");
        let rings = s.drain_rings();
        let report = s.report();
        *s = Shard::new(self.plan.shard(i).clone(), self.mem.clone());
        for e in rings {
            s.install(e);
        }
        self.restarts[i] += 1;
        let n = self.restarts[i];
        self.pending_reports.push((i, report));
        self.crashes.push(ShardCrash {
            shard: i,
            payload,
            restarts: n,
            penalty: Dur::from_us(50 << (n - 1).min(6)),
        });
    }
}

/// The host-side handle to the shards: one lock-owned shard and one
/// thread per queue, the key→shard ownership map, and the shard
/// supervisor, which catches a panic in shard code on any thread,
/// salvages and restarts the shard, and records the crash for the host
/// to account (restart counters, backoff CPU penalty, recovery
/// telemetry).
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
    stop: Arc<AtomicBool>,
    /// Jobs for the next [`WorkerPool::deliver`], one list per shard.
    staged: Vec<Vec<DeliverJob>>,
    shard_of: HashMap<RingKey, usize>,
    sup: Supervisor,
}

impl WorkerPool {
    pub(crate) fn new(n: usize, plan: LlcPartitionPlan, mem: MemCosts) -> WorkerPool {
        assert!(n > 0, "need at least one worker");
        assert_eq!(plan.len(), n, "one LLC partition per shard");
        quiet_shard_panics();
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..n)
            .map(|i| {
                let shard = Arc::new(Mutex::new(Shard::new(plan.shard(i).clone(), mem.clone())));
                let (s, st) = (Arc::clone(&shard), Arc::clone(&stop));
                let thread = std::thread::Builder::new()
                    .name(format!("norman-worker-{i}"))
                    .spawn(move || worker_loop(&s, &st))
                    .expect("spawn worker thread");
                Worker { shard, thread }
            })
            .collect();
        WorkerPool {
            workers,
            stop,
            staged: (0..n).map(|_| Vec::new()).collect(),
            shard_of: HashMap::new(),
            sup: Supervisor {
                plan,
                mem,
                restarts: vec![0; n],
                pending_reports: Vec::new(),
                crashes: Vec::new(),
            },
        }
    }

    /// Runs `op` on shard `i` from the calling thread, under the shard's
    /// lock and panic boundary. A crash is salvaged and `op` retried once
    /// on the restarted shard, which inherited the rings.
    fn exec<R>(&mut self, i: usize, mut op: impl FnMut(&mut Shard) -> R) -> R {
        let mut s = lock(&self.workers[i].shard);
        if let Some(r) = s.guarded(&mut op) {
            return r;
        }
        self.sup.salvage(i, &mut s);
        s.guarded(op)
            .unwrap_or_else(|| panic!("worker shard {i} crashed twice in one op"))
    }

    /// Fault injection: with `after_frames` unset, panic shard `shard`
    /// with `msg` now — the supervisor handles the crash before this
    /// returns. With `Some(k)`, arm the shard to panic once it has
    /// delivered `k` more frames, in the middle of a pump batch; frames
    /// of that batch it never answers come back
    /// [`ShardOutcome::Crashed`]. Either way the crash record is
    /// available via [`WorkerPool::take_crashes`] once it fired.
    pub(crate) fn inject_panic(&mut self, shard: usize, msg: &str, after_frames: Option<usize>) {
        let mut s = lock(&self.workers[shard].shard);
        match after_frames {
            Some(k) => s.armed = Some((k, msg.to_string())),
            None => {
                if s.guarded(|_| panic!("{msg}")).is_none() {
                    self.sup.salvage(shard, &mut s);
                }
            }
        }
    }

    /// Crash records accumulated since the last call.
    pub(crate) fn take_crashes(&mut self) -> Vec<ShardCrash> {
        std::mem::take(&mut self.sup.crashes)
    }

    /// Total shard restarts over the pool's lifetime.
    pub(crate) fn total_restarts(&self) -> u64 {
        self.sup.restarts.iter().sum()
    }

    pub(crate) fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The LLC partition plan shards were built from (audited by
    /// [`Host::audit`](crate::Host::audit) for way conservation).
    pub(crate) fn plan(&self) -> &LlcPartitionPlan {
        &self.sup.plan
    }

    /// Which shard owns `key`, if any.
    pub(crate) fn owner_of(&self, key: RingKey) -> Option<usize> {
        self.shard_of.get(&key).copied()
    }

    /// Installs a ring pair (with its tracked frame ids) into `shard`.
    pub(crate) fn install(
        &mut self,
        shard: usize,
        key: RingKey,
        rx: PktRing,
        tx: PktRing,
        fids: VecDeque<u64>,
    ) {
        self.shard_of.insert(key, shard);
        let mut entry = Some(RingEntry { key, rx, tx, fids });
        self.exec(shard, |s| {
            if let Some(e) = entry.take() {
                s.install(e);
            }
        });
    }

    /// Tears down `key`'s rings wherever they live.
    pub(crate) fn close(&mut self, key: RingKey) {
        if let Some(shard) = self.shard_of.remove(&key) {
            self.exec(shard, |s| s.close(key));
        }
    }

    /// Queues `job` for `shard`'s part of the next [`WorkerPool::deliver`].
    pub(crate) fn stage(&mut self, shard: usize, job: DeliverJob) {
        self.staged[shard].push(job);
    }

    /// Runs the staged batch on every shard and writes each frame's
    /// outcome at its arrival index. Each batch goes into its shard's
    /// inbox and the shard's thread is woken; the caller then runs, in
    /// shard order, every inbox no thread has taken yet, and last
    /// collects every outbox in shard order — salvaging crashed shards
    /// in that order too — so the result is deterministic regardless of
    /// thread scheduling.
    pub(crate) fn deliver(&mut self, outcomes: &mut [Option<ShardOutcome>]) {
        for (w, jobs) in self.workers.iter().zip(&mut self.staged) {
            if !jobs.is_empty() {
                lock(&w.shard).inbox.extend(jobs.drain(..));
                w.thread.thread().unpark();
            }
        }
        for w in &self.workers {
            if let Ok(mut s) = w.shard.try_lock() {
                s.take_batch();
            }
        }
        for (i, w) in self.workers.iter().enumerate() {
            let mut s = lock(&w.shard);
            for r in s.outbox.drain(..) {
                outcomes[r.idx] = Some(r.outcome);
            }
            if s.crashed.is_some() {
                // Frames the shard never answered come back Crashed; the
                // host reroutes them through the slow path, so nothing
                // silently disappears.
                let current = s.current.take();
                for idx in current.into_iter().chain(s.inbox.drain(..).map(|j| j.idx)) {
                    outcomes[idx] = Some(ShardOutcome::Crashed);
                }
                self.sup.salvage(i, &mut s);
            }
        }
    }

    pub(crate) fn recv(&mut self, shard: usize, key: RingKey, trace: bool) -> RecvReply {
        self.exec(shard, |s| s.recv(key, trace))
    }

    pub(crate) fn send(&mut self, shard: usize, key: RingKey, pkt: &Packet) -> SendReply {
        self.exec(shard, |s| s.send(key, pkt.clone(), pkt.len()))
    }

    /// The quiesce barrier: every shard drains its counters, busy time,
    /// and buffered events. Reports come back in shard (core) order,
    /// with anything salvaged from crashed shards folded back in so the
    /// merge is conservation-exact across restarts.
    pub(crate) fn quiesce(&mut self) -> Vec<ShardReport> {
        let mut reports: Vec<ShardReport> = (0..self.workers.len())
            .map(|i| self.exec(i, Shard::report))
            .collect();
        // Fold in reports salvaged from crashed shards since the last
        // quiesce: their events predate the live report's, so prepend;
        // counters and busy time sum. queued_fids needs no folding — the
        // salvage drained the rings before reporting (so its own count
        // is zero) and the restarted shard that inherited them reports
        // the occupancy.
        for (i, banked) in std::mem::take(&mut self.sup.pending_reports) {
            let live = &mut reports[i];
            live.stats.fast_delivered += banked.stats.fast_delivered;
            live.stats.ring_drops += banked.stats.ring_drops;
            live.stats.ring_missing += banked.stats.ring_missing;
            live.busy += banked.busy;
            live.llc.absorb(&banked.llc);
            let mut events = banked.events;
            events.append(&mut live.events);
            live.events = events;
        }
        reports
    }

    /// Clears trace buffers in every shard (a `start_trace` restart).
    pub(crate) fn clear_trace(&mut self) {
        for i in 0..self.workers.len() {
            self.exec(i, Shard::clear_trace);
        }
    }

    /// Pulls every ring pair out of every shard (teardown or rebalance).
    pub(crate) fn drain_all(&mut self) -> Vec<RingEntry> {
        let mut entries = Vec::new();
        for i in 0..self.workers.len() {
            entries.append(&mut self.exec(i, Shard::drain_rings));
        }
        self.shard_of.clear();
        entries
    }

    /// Moves every ring pair to the shard `assign` names (missing keys
    /// default to shard 0). Called after a policy commit changed the RSS
    /// steering, under the quiesce barrier.
    pub(crate) fn rebalance(&mut self, assign: &HashMap<RingKey, usize>) {
        for e in self.drain_all() {
            let shard = assign.get(&e.key).copied().unwrap_or(0) % self.workers.len();
            self.install(shard, e.key, e.rx, e.tx, e.fids);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Wake every thread into the stop flag and join, so no thread
        // outlives the pool.
        self.stop.store(true, Ordering::Release);
        for w in self.workers.drain(..) {
            w.thread.thread().unpark();
            let _ = w.thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> Shard {
        let llc = LlcConfig {
            size_bytes: 64 << 10,
            ways: 4,
            ddio_ways: 1,
            line_bytes: 64,
            hash_sets: false,
        };
        Shard::new(llc, MemCosts::default())
    }

    #[test]
    fn panic_hook_keys_on_shard_execution_not_thread_name() {
        quiet_shard_panics();
        // A worker-named thread outside shard code keeps the normal hook.
        let named = std::thread::Builder::new()
            .name("norman-worker-0".into())
            .spawn(|| IN_SHARD.get())
            .expect("spawn")
            .join()
            .expect("join");
        assert!(!named, "thread name must not silence a panic");
        // Shard code run on any thread is silenced, and only while it runs.
        let mut s = shard();
        assert!(!IN_SHARD.get());
        assert_eq!(s.guarded(|_| IN_SHARD.get()), Some(true));
        assert!(!IN_SHARD.get());
        // A panic is caught at the boundary, its payload parked for the
        // supervisor, and the flag cleared on the way out.
        assert!(s.guarded(|_| panic!("shard fault")).is_none());
        assert_eq!(s.crashed.as_deref(), Some("shard fault"));
        assert!(!IN_SHARD.get(), "flag must clear after a caught panic");
    }
}
