//! Dataplane shards: the one layer every fast-path frame crosses.
//!
//! Every connection's ring pair lives in a *shard*: the ring pairs of
//! every connection whose flow hash steers to its RSS queue, an LLC
//! model, and the trace ids of the frames queued in its rings. A shard
//! lives behind its own lock (`Arc<Mutex<Shard>>`), not inside a thread,
//! so any thread can run shard code and no shard shares state with
//! another.
//!
//! A host always runs its dataplane through a pool of shards. Inline
//! mode is a pool of one *caller-run* shard: it holds the whole LLC
//! ([`LlcPartitionPlan::split`] with one shard is the host geometry),
//! has no thread, and the calling thread runs it.
//! [`Host::run_workers`](crate::Host::run_workers) re-splits the pool
//! into one shard and one worker thread per NIC RSS queue, each with a
//! way-disjoint LLC slice; [`Host::stop_workers`](crate::Host::stop_workers)
//! folds it back into one caller-run shard. The rings move between
//! pools; nothing else changes.
//!
//! The calling thread runs every per-call op — app receive and send,
//! ring install and close, drain, quiesce, trace clear — directly on the
//! locked shard, with no thread hop. A caller-run shard takes each RX
//! frame the same way, as the host classifies it. A pump batch is the
//! one thing a threaded pool hands off: each shard's jobs go into its
//! *inbox* and its thread is woken. The caller then visits the shards in
//! index order, runs every inbox no thread has taken yet, and collects
//! each shard's *outbox* under the lock. It only ever waits on a thread
//! that is already running a batch. Either way a frame reaches its ring
//! through the one shard delivery function.
//!
//! A shard only moves frames and models the cache. The host counts each
//! outcome, charges worker-core busy time, and emits the ring trace
//! events itself, in arrival order. At the **quiesce barrier**
//! ([`Host::quiesce`](crate::Host::quiesce)) each shard's LLC counters
//! merge back into the host's metrics. Policy commits, bitstream
//! reconciles, and audits all quiesce first.
//!
//! Determinism: the caller touches a shard only when it has no batch in
//! flight, and every outbox is collected before the pump returns, so each
//! shard's rings and LLC model see the same operation sequence whichever
//! thread ran its batch. Outcomes are applied in arrival order. A
//! multi-worker run is therefore a pure function of its inputs —
//! replaying the same frame schedule twice produces identical reports,
//! and `run_workers(1)` is byte-identical to the caller-run
//! [`Host::pump`](crate::Host::pump) path.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use memsim::{Llc, LlcConfig, LlcPartitionPlan, LlcStats, MemCosts};
use pkt::Packet;
use sim::Dur;

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
    /// boundary: the shard's rings were salvaged and the shard was
    /// restarted in place — the remaining shards never stop serving.
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

/// What one shard hands back at a quiesce barrier.
#[derive(Debug)]
pub(crate) struct ShardReport {
    /// LLC traffic through this shard's partition since the last quiesce
    /// (hits, misses, DDIO evictions); the shard restarts its counters.
    pub llc: LlcStats,
    /// Traced frames currently resident in this shard's RX rings (an
    /// absolute occupancy, not a delta — the audit's third ledger).
    pub queued_fids: u64,
}

/// One frame the host asks a shard to DMA into its rings.
#[derive(Debug)]
pub(crate) struct DeliverJob {
    /// The host's handle for this frame, echoed back with its outcome.
    pub slot: usize,
    /// The ring pair the frame targets.
    pub key: RingKey,
    /// The frame itself, riding the ring as its descriptor. The host
    /// keeps its own handle to the same buffer, so a frame the shard
    /// never answers can still be rerouted after a crash.
    pub pkt: Packet,
    /// Telemetry frame id, queued beside the frame while tracing.
    pub fid: u64,
    /// Whether the flow was resolved from the cold tier: its ring DMA
    /// bypasses DDIO allocation so demoted flows cannot thrash the LLC.
    pub cold: bool,
    /// Whether tracing is enabled for this batch.
    pub trace: bool,
}

/// Shard-side outcome of one [`DeliverJob`].
#[derive(Clone, Copy, Debug)]
struct DeliverReply {
    slot: usize,
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

/// One ring pair in flight between shards (install, re-shard, re-split).
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
    rings: FastMap<RingKey, (PktRing, PktRing)>,
    /// Frame ids sitting in each RX ring, FIFO order — lets a receive
    /// attribute the dequeued slot to the frame that filled it.
    /// Maintained only while tracing is enabled.
    ring_frame_ids: FastMap<RingKey, VecDeque<u64>>,
    llc: Llc,
    mem: MemCosts,
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
            rings: FastMap::default(),
            ring_frame_ids: FastMap::default(),
            llc: Llc::new(llc),
            mem,
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
            self.current = Some(job.slot);
            let reply = DeliverReply {
                slot: job.slot,
                outcome: self.deliver(job),
            };
            self.outbox.push(reply);
            self.current = None;
        }
    }

    fn deliver(&mut self, job: DeliverJob) -> ShardOutcome {
        let Some((rx_ring, _)) = self.rings.get_mut(&job.key) else {
            return ShardOutcome::RingMissing;
        };
        // The packet handle itself is the ring descriptor: a refused
        // produce drops it (refcount release), never copies it. Cold-tier
        // flows DMA with DDIO bypass so their ring traffic cannot evict
        // the DDIO lines hot flows depend on (the §5 cliff mechanism).
        let len = job.pkt.len();
        let produced = if job.cold {
            rx_ring.produce_dma_bypass_with(job.pkt, len, &mut self.llc, &self.mem)
        } else {
            rx_ring.produce_dma_with(job.pkt, len, &mut self.llc, &self.mem)
        };
        match produced {
            Ok(cost) => {
                if job.trace {
                    self.ring_frame_ids
                        .entry(job.key)
                        .or_default()
                        .push_back(job.fid);
                }
                ShardOutcome::Fast(cost)
            }
            Err(_) => ShardOutcome::RingFull,
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

    fn take_ring(&mut self, key: RingKey) -> Option<RingEntry> {
        let (rx, tx) = self.rings.remove(&key)?;
        Some(RingEntry {
            key,
            rx,
            tx,
            fids: self.ring_frame_ids.remove(&key).unwrap_or_default(),
        })
    }

    fn drain_rings(&mut self) -> Vec<RingEntry> {
        let mut keys: Vec<RingKey> = self.rings.keys().copied().collect();
        keys.sort_unstable_by_key(|k| k.order());
        keys.into_iter()
            .filter_map(|key| self.take_ring(key))
            .collect()
    }

    fn report(&mut self) -> ShardReport {
        let llc = self.llc.stats();
        self.llc.reset_stats(); // contents stay; counters restart as deltas
        ShardReport {
            llc,
            queued_fids: self.ring_frame_ids.values().map(|q| q.len() as u64).sum(),
        }
    }

    fn arena_resident(&self) -> u64 {
        self.rings
            .values()
            .flat_map(|(rx, tx)| rx.iter_descs().chain(tx.iter_descs()))
            .filter(|p| p.is_arena())
            .count() as u64
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
    /// LLC traffic of crashed shards since the last quiesce, folded
    /// into the next quiesce so no counter is lost.
    pending_llc: Vec<(usize, LlcStats)>,
    /// Crash records since the last [`WorkerPool::take_crashes`].
    crashes: Vec<ShardCrash>,
}

impl Supervisor {
    /// Restarts crashed shard `i` in place: its ring pairs (host memory,
    /// so they survive the crash) are drained and reinstalled into a
    /// shard with a fresh LLC partition, the old partition's traffic is
    /// banked for the next quiesce, and the crash is recorded with its
    /// backoff penalty.
    fn salvage(&mut self, i: usize, s: &mut Shard) {
        let payload = s.crashed.take().expect("salvage follows a crash");
        let rings = s.drain_rings();
        self.pending_llc.push((i, s.llc.stats()));
        *s = Shard::new(self.plan.shard(i).clone(), self.mem.clone());
        for e in rings {
            s.install(e);
        }
        self.restarts[i] += 1;
        let n = self.restarts[i];
        self.crashes.push(ShardCrash {
            shard: i,
            payload,
            restarts: n,
            penalty: Dur::from_us(50 << (n - 1).min(6)),
        });
    }
}

/// The host-side handle to the shards: one lock-owned shard per LLC
/// partition, one worker thread per shard in a threaded pool (none in
/// the caller-run pool), and the shard supervisor, which catches a panic
/// in shard code on any thread, salvages and restarts the shard, and
/// records the crash for the host to account (restart counters, backoff
/// CPU penalty, recovery telemetry).
pub(crate) struct WorkerPool {
    shards: Vec<Arc<Mutex<Shard>>>,
    /// One worker thread per shard; empty when the caller runs them.
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    /// Jobs for the next [`WorkerPool::deliver`], one list per shard.
    staged: Vec<Vec<DeliverJob>>,
    sup: Supervisor,
}

impl WorkerPool {
    /// A pool with one shard per partition of `plan`. With `threaded`,
    /// each shard also gets a worker thread; without, the caller runs
    /// every shard.
    pub(crate) fn new(plan: LlcPartitionPlan, mem: MemCosts, threaded: bool) -> WorkerPool {
        quiet_shard_panics();
        let n = plan.len();
        let stop = Arc::new(AtomicBool::new(false));
        let shards: Vec<_> = (0..n)
            .map(|i| Arc::new(Mutex::new(Shard::new(plan.shard(i).clone(), mem.clone()))))
            .collect();
        let threads = if threaded {
            shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    let (s, st) = (Arc::clone(shard), Arc::clone(&stop));
                    std::thread::Builder::new()
                        .name(format!("norman-worker-{i}"))
                        .spawn(move || worker_loop(&s, &st))
                        .expect("spawn worker thread")
                })
                .collect()
        } else {
            Vec::new()
        };
        WorkerPool {
            shards,
            threads,
            stop,
            staged: (0..n).map(|_| Vec::new()).collect(),
            sup: Supervisor {
                plan,
                mem,
                restarts: vec![0; n],
                pending_llc: Vec::new(),
                crashes: Vec::new(),
            },
        }
    }

    /// Runs `op` on shard `i` from the calling thread, under the shard's
    /// lock and panic boundary. A crash is salvaged and `op` retried once
    /// on the restarted shard, which inherited the rings.
    fn exec<R>(&mut self, i: usize, mut op: impl FnMut(&mut Shard) -> R) -> R {
        let mut s = lock(&self.shards[i]);
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
        let mut s = lock(&self.shards[shard]);
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

    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether each shard has its own worker thread (worker mode), as
    /// opposed to one caller-run shard.
    pub(crate) fn threaded(&self) -> bool {
        !self.threads.is_empty()
    }

    /// The LLC partition plan shards were built from (audited by
    /// [`Host::audit`](crate::Host::audit) for way conservation).
    pub(crate) fn plan(&self) -> &LlcPartitionPlan {
        &self.sup.plan
    }

    /// Whether `shard` holds a ring pair for `key`.
    pub(crate) fn has_ring(&mut self, shard: usize, key: RingKey) -> bool {
        self.exec(shard, |s| s.rings.contains_key(&key))
    }

    /// Installs a ring pair (with its tracked frame ids) into `shard`.
    pub(crate) fn install(&mut self, shard: usize, entry: RingEntry) {
        let mut entry = Some(entry);
        self.exec(shard, |s| {
            if let Some(e) = entry.take() {
                s.install(e);
            }
        });
    }

    /// Tears down `key`'s rings in `shard`.
    pub(crate) fn close(&mut self, shard: usize, key: RingKey) {
        self.exec(shard, |s| drop(s.take_ring(key)));
    }

    /// Moves `key`'s ring pair from shard `from` to shard `to` (a policy
    /// commit changed the RSS steering).
    pub(crate) fn move_ring(&mut self, key: RingKey, from: usize, to: usize) {
        if let Some(e) = self.exec(from, |s| s.take_ring(key)) {
            self.install(to, e);
        }
    }

    /// Queues `job` for `shard`'s part of the next [`WorkerPool::deliver`].
    pub(crate) fn stage(&mut self, shard: usize, job: DeliverJob) {
        self.staged[shard].push(job);
    }

    /// Runs the staged batch on every shard and hands each frame's
    /// outcome to `answer` with its job's slot. Each batch goes into its
    /// shard's inbox and the shard's thread is woken; the caller then
    /// runs, in shard order, every inbox no thread has taken yet, and
    /// last collects every outbox in shard order — salvaging crashed
    /// shards in that order too — so the result is deterministic
    /// regardless of thread scheduling.
    pub(crate) fn deliver(&mut self, mut answer: impl FnMut(usize, ShardOutcome)) {
        for ((shard, jobs), t) in self.shards.iter().zip(&mut self.staged).zip(&self.threads) {
            if !jobs.is_empty() {
                lock(shard).inbox.extend(jobs.drain(..));
                t.thread().unpark();
            }
        }
        for shard in &self.shards {
            if let Ok(mut s) = shard.try_lock() {
                s.take_batch();
            }
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let mut s = lock(shard);
            for r in s.outbox.drain(..) {
                answer(r.slot, r.outcome);
            }
            if s.crashed.is_some() {
                // Frames the shard never answered come back Crashed; the
                // host reroutes them through the slow path, so nothing
                // silently disappears.
                let current = s.current.take();
                for slot in current.into_iter().chain(s.inbox.drain(..).map(|j| j.slot)) {
                    answer(slot, ShardOutcome::Crashed);
                }
                self.sup.salvage(i, &mut s);
            }
        }
    }

    /// Delivers one frame on shard `shard` from the calling thread — how
    /// a caller-run shard takes its frames, one at a time as the host
    /// classifies them.
    pub(crate) fn deliver_now(&mut self, shard: usize, job: DeliverJob) -> ShardOutcome {
        let mut job = Some(job);
        self.exec(shard, |s| match job.take() {
            Some(job) => s.deliver(job),
            // Only a retry after a crash mid-delivery finds the job
            // gone: the frame is still in host memory, so reroute it.
            None => ShardOutcome::Crashed,
        })
    }

    pub(crate) fn recv(&mut self, shard: usize, key: RingKey, trace: bool) -> RecvReply {
        self.exec(shard, |s| s.recv(key, trace))
    }

    pub(crate) fn send(&mut self, shard: usize, key: RingKey, pkt: &Packet) -> SendReply {
        self.exec(shard, |s| s.send(key, pkt.clone(), pkt.len()))
    }

    /// The quiesce barrier: every shard reports its LLC traffic since the
    /// last barrier and its traced ring occupancy. Reports come back in
    /// shard (core) order, with the traffic of crashed shards' old
    /// partitions folded back in.
    pub(crate) fn quiesce(&mut self) -> Vec<ShardReport> {
        let mut reports: Vec<ShardReport> = (0..self.shards.len())
            .map(|i| self.exec(i, Shard::report))
            .collect();
        for (i, llc) in std::mem::take(&mut self.sup.pending_llc) {
            reports[i].llc.absorb(&llc);
        }
        reports
    }

    /// Arena-backed frame descriptors resident in every shard's rings,
    /// both directions (the arena leak audit's ring term).
    pub(crate) fn arena_resident(&mut self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.exec(i, |s| s.arena_resident()))
            .sum()
    }

    /// The LLC counters shard `i` has accumulated since its last report.
    pub(crate) fn live_llc_stats(&self, i: usize) -> LlcStats {
        lock(&self.shards[i]).llc.stats()
    }

    /// Runs `f` on shard `i`'s LLC model under the shard's lock.
    pub(crate) fn with_llc<R>(&mut self, i: usize, f: impl FnOnce(&mut Llc) -> R) -> R {
        f(&mut lock(&self.shards[i]).llc)
    }

    /// Clears the traced frame ids in every shard (a `start_trace`
    /// restart).
    pub(crate) fn clear_trace(&mut self) {
        for i in 0..self.shards.len() {
            self.exec(i, |s| s.ring_frame_ids.clear());
        }
    }

    /// Pulls every ring pair out of every shard, in shard order (a pool
    /// re-split).
    pub(crate) fn drain_all(&mut self) -> Vec<RingEntry> {
        let mut entries = Vec::new();
        for i in 0..self.shards.len() {
            entries.append(&mut self.exec(i, Shard::drain_rings));
        }
        entries
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Wake every thread into the stop flag and join, so no thread
        // outlives the pool.
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            t.thread().unpark();
            let _ = t.join();
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
