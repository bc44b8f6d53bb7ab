//! The three traffic mixes, their set-up, and the closed-loop step that
//! drives each through the public `norman::Host` API.
//!
//! Every step adopts [`BATCH`] pre-generated wire frames, hands them to
//! one `Host::pump`, then makes the application calls the mix asks for.
//! Frame arrival instants follow a seeded Poisson schedule in model
//! time, so the modeled figures behave as an open loop even though the
//! caller runs closed-loop in wall-clock time.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::time::Instant;

use nicsim::{ConnId, FlowCacheConfig, NicConfig, RssTable};
use norman::host::{DeliveryOutcome, RecvResult};
use norman::{Host, HostConfig, PortReservation, ShapingPolicy};
use oskernel::{Pid, Uid};
use overlay::builtins;
use pkt::{FiveTuple, IpProto, Mac, Packet, PacketBuilder};
use sim::rng::ZipfTable;
use sim::{DetRng, Dur, Time};

use crate::measure::{Span, Spans};

/// Frames per step (one `Host::pump` call).
pub const BATCH: usize = 32;
/// Offered load as a share of the 100 GbE line rate; sets the mean of
/// the Poisson inter-arrival gaps.
const LOAD: f64 = 0.5;
const LINE_GBPS: f64 = 100.0;
/// Ethernet + IPv4 + UDP headers; the payload starts here.
const UDP_HDR: usize = 42;
/// The mixed workload's listener port.
pub const LISTEN_PORT: u16 = 5000;
/// Steps an accepted connection stays open before the app closes it.
const ACCEPT_LIFE: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    RxSmallPolicy,
    RxBulkWorkers,
    MixedChurnTraced,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RxSmallPolicy,
        Workload::RxBulkWorkers,
        Workload::MixedChurnTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RxSmallPolicy => "rx_small_policy",
            Workload::RxBulkWorkers => "rx_bulk_workers",
            Workload::MixedChurnTraced => "mixed_churn_traced",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::RxSmallPolicy => Shape {
                conns: 64,
                ring_slots: 32,
                pool_steps: 512,
                model_steps: 8192,
                workers: 0,
                commit_every: 50,
                quiesce_every: 0,
                churn_every: 0,
                reply_every: 0,
                slow_frac: 0.0,
            },
            Workload::RxBulkWorkers => Shape {
                conns: 256,
                ring_slots: 32,
                pool_steps: 256,
                model_steps: 4096,
                workers: 2,
                commit_every: 0,
                quiesce_every: 64,
                churn_every: 0,
                reply_every: 0,
                slow_frac: 0.0,
            },
            Workload::MixedChurnTraced => Shape {
                conns: 32_768,
                ring_slots: 8,
                pool_steps: 1024,
                model_steps: 4096,
                workers: 0,
                commit_every: 0,
                quiesce_every: 0,
                churn_every: 4,
                reply_every: 8,
                slow_frac: 0.05,
            },
        }
    }
}

/// The fixed parameters of one mix (everything but the seed).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub conns: usize,
    pub ring_slots: usize,
    /// Steps of distinct pre-generated frames; the run cycles through
    /// them.
    pub pool_steps: usize,
    /// Timed steps whose modeled outputs and layer counts are reported
    /// (a fixed window, so they repeat exactly for a seed).
    pub model_steps: u64,
    /// Worker shards (`Host::run_workers`), 0 for inline delivery.
    pub workers: usize,
    /// Every this many steps re-commit one of two alternating policy
    /// bundles (0 = never).
    pub commit_every: u64,
    /// Every this many steps take the `Host::quiesce` barrier, as a
    /// stats poller would (0 = never).
    pub quiesce_every: u64,
    /// Every this many steps close one connection and reopen it.
    pub churn_every: u64,
    /// One `app_send` reply per this many received data frames.
    pub reply_every: u64,
    /// Share of frames that leave the fast path: half ARP who-has, half
    /// first packets to a listener.
    pub slow_frac: f64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dest {
    Conn(u32),
    Arp,
    Listener,
}

/// One pre-generated wire frame.
#[derive(Clone, Copy, Debug)]
pub struct WireFrame {
    off: u32,
    len: u16,
    pub dest: Dest,
    /// Index into [`Pool::replies`], or `u32::MAX` for no reply.
    reply: u32,
}

/// Frames generated once during set-up and cycled by the run.
pub struct Pool {
    bytes: Vec<u8>,
    pub frames: Vec<WireFrame>,
    replies: Vec<Packet>,
    /// Model-time gap before each arrival, for `model_steps` steps. The
    /// schedule is longer than the frame pool, so the modeled latency
    /// tail samples every step of the window rather than the pool's.
    gaps: Vec<Dur>,
}

impl Pool {
    pub fn bytes(&self, f: &WireFrame) -> &[u8] {
        &self.bytes[f.off as usize..f.off as usize + usize::from(f.len)]
    }

    pub fn steps(&self) -> usize {
        self.frames.len() / BATCH
    }
}

/// Who owns a connection and what its five-tuple is.
#[derive(Clone, Copy, Debug)]
pub struct ConnSpec {
    pub pid: Pid,
    pub uid: Uid,
    pub port: u16,
    pub remote_ip: Ipv4Addr,
    pub remote_port: u16,
}

/// Whole-run operation tallies.
#[derive(Default, Debug)]
pub struct Tally {
    /// RX frames offered + sends + connects + accepts + commits.
    pub attempted: u64,
    pub failed: u64,
    pub frames: u64,
    /// RX frames that reached their consumer (app, or the kernel for ARP).
    pub rx_completed: u64,
    pub tx_departed: u64,
    pub sends_queued: u64,
    pub arp_frames: u64,
    /// Output mismatches (wrong frame received, stray frame): any one
    /// makes the run incorrect.
    pub errors: Vec<String>,
}

/// Modeled (virtual-time) outputs accumulated over the model window.
#[derive(Default, Debug)]
pub struct Model {
    /// Wire-to-consumer latency per completed RX frame, picoseconds.
    pub vlat_ps: Vec<u64>,
    /// Host CPU charged on the RX path: DMA/cache cost, kernel CPU and
    /// every receive call, including the empty poll that ends a drain.
    pub vcpu: Dur,
    pub attempted: u64,
    pub failed: u64,
    pub frames: u64,
    pub fast: u64,
    /// Frames the host handled off the fast path.
    pub slow: u64,
    pub slow_kernel_cpu: Dur,
    pub tx_backlog_peak: u64,
}

pub struct Bench {
    pub w: Workload,
    pub shape: Shape,
    pub host: Host,
    pub specs: Vec<ConnSpec>,
    pub ids: Vec<ConnId>,
    pub pool: Pool,
    listener: Option<ConnId>,
    accepted: VecDeque<(ConnId, u64)>,
    churn_order: Vec<u32>,
    churn_next: usize,
    commit_flip: bool,
    pub now: Time,
    /// Steps run since set-up began (warm-up included).
    pub steps: u64,
    /// Per connection: the last step it was drained in, plus one.
    polled: Vec<u64>,
    pkts: Vec<Packet>,
    fast: Vec<(usize, u32)>,
    recvd: Vec<RecvResult>,
    touched: Vec<u32>,
    polls: Vec<(bool, Dur)>,
    sends: Vec<(ConnId, u32)>,
    sent: Vec<bool>,
    pub tally: Tally,
    pub model: Model,
}

fn shaping(flip: bool) -> ShapingPolicy {
    let w = [1.0, 2.0, 3.0, 4.0];
    ShapingPolicy::new(
        (0..4)
            .map(|u| {
                let weight = if flip { w[3 - u] } else { w[u] };
                (Uid(1001 + u as u32), weight)
            })
            .collect(),
    )
}

/// `per_queue` local ports per RSS queue under the boot-time uniform
/// table, so the offered load splits evenly across shards.
fn ports_covering_queues(ip: Ipv4Addr, n: usize, per_queue: usize) -> Vec<u16> {
    let table = RssTable::uniform(n);
    let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); n];
    for port in 7000..u16::MAX {
        let tuple = FiveTuple::udp(Ipv4Addr::new(10, 0, 0, 2), 9000, ip, port);
        let q = usize::from(table.queue_for(pkt::meta::flow_hash_of(&tuple)));
        if buckets[q].len() < per_queue {
            buckets[q].push(port);
        }
        if buckets.iter().all(|b| b.len() == per_queue) {
            break;
        }
    }
    let mut ports: Vec<u16> = buckets.into_iter().flatten().collect();
    ports.sort_unstable();
    ports
}

fn udp_frame(src: (Mac, Ipv4Addr, u16), dst: (Mac, Ipv4Addr, u16), len: usize, tag: u64) -> Packet {
    let mut payload = vec![0u8; len - UDP_HDR];
    payload[..8].copy_from_slice(&tag.to_le_bytes());
    PacketBuilder::new()
        .ether(src.0, dst.0)
        .ipv4(src.1, dst.1)
        .udp(src.2, dst.2, &payload)
        .build()
}

fn frame_tag(bytes: &[u8]) -> Option<u64> {
    let t = bytes.get(UDP_HDR..UDP_HDR + 8)?;
    Some(u64::from_le_bytes(t.try_into().expect("8 bytes")))
}

fn shuffled(n: usize, rng: &mut DetRng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range_usize(0, i + 1));
    }
    v
}

impl Bench {
    /// Builds the host, opens the mix's connections, commits its policy,
    /// generates its frames and runs one warm-up pass over them.
    pub fn setup(w: Workload, seed: u64) -> Bench {
        let shape = w.shape();
        let mut rng = DetRng::seed_from_u64(seed);
        let mut cfg = HostConfig {
            ring_slots: shape.ring_slots,
            ..HostConfig::default()
        };
        if shape.workers > 0 {
            cfg.nic = NicConfig {
                num_queues: shape.workers,
                ..NicConfig::default()
            };
        }
        let mut host = Host::new(cfg);
        let ip = host.cfg.ip;
        let mut specs = Vec::with_capacity(shape.conns);
        let mut listener = None;
        match w {
            Workload::RxSmallPolicy => {
                let pids: Vec<Pid> = (0..4u32)
                    .map(|u| host.spawn(Uid(1001 + u), &format!("user{u}"), "server"))
                    .collect();
                for i in 0..shape.conns {
                    specs.push(ConnSpec {
                        pid: pids[i % 4],
                        uid: Uid(1001 + (i % 4) as u32),
                        port: 7000 + i as u16,
                        remote_ip: Ipv4Addr::new(10, 0, 0, 2),
                        remote_port: 9000,
                    });
                }
                let reservations: Vec<PortReservation> = specs
                    .iter()
                    .map(|s| PortReservation::new(s.port, s.uid))
                    .collect();
                host.update_policy(Time::ZERO, |p| {
                    p.reservations = reservations;
                    p.shaping = Some(shaping(false));
                    p.accounting = vec![builtins::byte_accounting(), builtins::arp_counter()];
                })
                .expect("commit the full policy");
            }
            Workload::RxBulkWorkers => {
                let pid = host.spawn(Uid(1001), "bulk", "server");
                for port in ports_covering_queues(ip, shape.workers, shape.conns / shape.workers) {
                    specs.push(ConnSpec {
                        pid,
                        uid: Uid(1001),
                        port,
                        remote_ip: Ipv4Addr::new(10, 0, 0, 2),
                        remote_port: 9000,
                    });
                }
            }
            Workload::MixedChurnTraced => {
                host.update_policy(Time::ZERO, |p| {
                    p.flow_cache = Some(FlowCacheConfig::priority_aware(1024, &[443]))
                })
                .expect("commit the flow-cache policy");
                let pids: Vec<Pid> = (0..8u32)
                    .map(|u| host.spawn(Uid(2000 + u), &format!("tenant{u}"), "server"))
                    .collect();
                for i in 0..shape.conns {
                    specs.push(ConnSpec {
                        pid: pids[i % 8],
                        uid: Uid(2000 + (i % 8) as u32),
                        port: if i < 512 { 443 } else { 8080 },
                        remote_ip: Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8),
                        remote_port: 9000,
                    });
                }
                let pid = host.spawn(Uid(2100), "web", "listener");
                let l = host
                    .listen(pid, IpProto::UDP, LISTEN_PORT)
                    .expect("open the listener");
                // The listener's kernel socket: first packets of inbound
                // connections are queued here for the app to read.
                assert!(host.stack.bind(IpProto::UDP, LISTEN_PORT, pid, &host.procs));
                listener = Some(l);
            }
        }
        let ids: Vec<ConnId> = specs
            .iter()
            .map(|s| {
                host.connect(
                    s.pid,
                    IpProto::UDP,
                    s.port,
                    s.remote_ip,
                    s.remote_port,
                    false,
                )
                .expect("open a connection")
            })
            .collect();
        let pool = generate(w, &shape, &specs, &host, &mut rng.fork(1));
        let churn_order = shuffled(specs.len(), &mut rng.fork(2));
        if shape.workers > 0 {
            host.run_workers(shape.workers)
                .expect("start worker shards");
        }
        if w == Workload::MixedChurnTraced {
            host.start_trace();
        }
        let mut bench = Bench {
            w,
            shape,
            polled: vec![0; specs.len()],
            host,
            specs,
            ids,
            pool,
            listener,
            accepted: VecDeque::new(),
            churn_order,
            churn_next: 0,
            commit_flip: false,
            now: Time::ZERO,
            steps: 0,
            pkts: Vec::with_capacity(BATCH),
            fast: Vec::with_capacity(BATCH),
            recvd: Vec::with_capacity(BATCH),
            touched: Vec::with_capacity(BATCH),
            polls: Vec::with_capacity(BATCH),
            sends: Vec::with_capacity(BATCH),
            sent: Vec::with_capacity(BATCH),
            tally: Tally::default(),
            model: Model::default(),
        };
        let mut spans = Spans::new();
        for _ in 0..bench.pool.steps() {
            bench.step(&mut spans, false);
        }
        // The timed phase starts with an empty TX queue, so its departures
        // are exactly its own sends.
        bench.flush_tx();
        bench.tally = Tally::default();
        bench
    }

    /// Runs one closed-loop step. With `model` set, the step's modeled
    /// outputs accumulate into [`Bench::model`]. Returns the step's wall
    /// time in nanoseconds.
    pub fn step(&mut self, spans: &mut Spans, model: bool) -> u64 {
        let t0 = Instant::now();
        let base = (self.steps as usize % self.pool.steps()) * BATCH;
        let gbase = self.steps as usize * BATCH % self.pool.gaps.len();
        let mut arrivals = [Time::ZERO; BATCH];
        let mut t = self.now;
        for (a, &gap) in arrivals
            .iter_mut()
            .zip(&self.pool.gaps[gbase..gbase + BATCH])
        {
            t += gap;
            *a = t;
        }
        let now = t;
        if self.shape.reply_every > 0 {
            self.drain_tx(now, spans);
        }
        let frames = &self.pool.frames[base..base + BATCH];

        let host = &mut self.host;
        let pool = &self.pool;
        let pkts = &mut self.pkts;
        spans.time(Span::Adopt, BATCH as u64, || {
            for f in frames {
                pkts.push(host.adopt_frame(pool.bytes(f)));
            }
        });
        let (reports, departures) = spans.time_pump(BATCH as u64, || host.pump(pkts, now));
        pkts.clear();
        self.tally.tx_departed += departures.len() as u64;
        self.tally.attempted += BATCH as u64;
        self.tally.frames += BATCH as u64;

        let m = &mut self.model;
        if model {
            m.attempted += BATCH as u64;
            m.frames += BATCH as u64;
        }
        self.fast.clear();
        let mut listener_frames = 0usize;
        let mut listener_at = [0usize; BATCH];
        for (i, (f, rep)) in frames.iter().zip(&reports).enumerate() {
            match (f.dest, rep.outcome) {
                (Dest::Conn(c), DeliveryOutcome::FastPath(id)) if id == self.ids[c as usize] => {
                    self.fast.push((i, c));
                }
                (Dest::Arp, DeliveryOutcome::SlowPath) => {
                    self.tally.rx_completed += 1;
                    self.tally.arp_frames += 1;
                    if model {
                        m.slow += 1;
                        m.slow_kernel_cpu += rep.kernel_cpu;
                        m.vcpu += rep.kernel_cpu;
                        m.vlat_ps
                            .push((now - arrivals[i] + rep.nic_latency + rep.kernel_cpu).0);
                    }
                }
                (Dest::Listener, DeliveryOutcome::SlowPath) => {
                    listener_at[listener_frames] = i;
                    listener_frames += 1;
                    if model {
                        m.slow += 1;
                        m.slow_kernel_cpu += rep.kernel_cpu;
                    }
                }
                _ => {
                    self.tally.failed += 1;
                    if model {
                        m.failed += 1;
                    }
                }
            }
        }

        // The application: one receive per delivered frame in arrival
        // order (rings are FIFO per connection, so each returns exactly
        // the frame delivered), one empty poll per touched connection to
        // finish its drain, then a reply every `reply_every` frames. Each
        // phase is one span, so tracing reads the clock per phase, not
        // per call.
        let (fast, ids, recvd) = (&self.fast, &self.ids, &mut self.recvd);
        recvd.clear();
        spans.time(Span::AppRecv, fast.len() as u64, || {
            for &(_, c) in fast {
                recvd.push(host.app_recv(ids[c as usize], now, false));
            }
        });
        self.touched.clear();
        self.sends.clear();
        let stamp = self.steps + 1;
        for (&(i, c), r) in fast.iter().zip(recvd.drain(..)) {
            let f = &frames[i];
            match r.pkt {
                Some(p) if frame_tag(p.bytes()) == frame_tag(pool.bytes(f)) => {
                    self.tally.rx_completed += 1;
                    if model {
                        let rep = &reports[i];
                        m.fast += 1;
                        m.vcpu += rep.mem_cost + r.cpu;
                        m.vlat_ps
                            .push((now - arrivals[i] + rep.nic_latency + rep.mem_cost + r.cpu).0);
                    }
                }
                other => {
                    self.tally.errors.push(format!(
                        "step {}: conn {c} returned {} instead of its delivered frame",
                        self.steps,
                        if other.is_some() {
                            "another frame"
                        } else {
                            "nothing"
                        }
                    ));
                    continue;
                }
            }
            if f.reply != u32::MAX {
                self.sends.push((ids[c as usize], f.reply));
            }
            if self.polled[c as usize] != stamp {
                self.polled[c as usize] = stamp;
                self.touched.push(c);
            }
        }
        let (touched, polls) = (&self.touched, &mut self.polls);
        polls.clear();
        spans.time(Span::AppRecv, touched.len() as u64, || {
            for &c in touched {
                let r = host.app_recv(ids[c as usize], now, false);
                polls.push((r.pkt.is_some(), r.cpu));
            }
        });
        for (&c, &(stray, cpu)) in touched.iter().zip(polls.iter()) {
            if stray {
                self.tally
                    .errors
                    .push(format!("step {}: conn {c} held a stray frame", self.steps));
            }
            if model {
                m.vcpu += cpu;
            }
        }
        let (sends, sent) = (&self.sends, &mut self.sent);
        sent.clear();
        spans.time(Span::AppSend, sends.len() as u64, || {
            for &(id, reply) in sends {
                sent.push(host.app_send(id, &pool.replies[reply as usize], now).queued);
            }
        });
        for &queued in sent.iter() {
            self.tally.attempted += 1;
            if model {
                m.attempted += 1;
            }
            if queued {
                self.tally.sends_queued += 1;
            } else {
                self.tally.failed += 1;
                if model {
                    m.failed += 1;
                }
            }
        }

        // First packets to the listener: the app reads each from the
        // kernel socket, then accepts the connection.
        if let Some(listener) = self.listener {
            for &i in &listener_at[..listener_frames] {
                let (p, cost) = spans.time(Span::SockRecv, 1, || {
                    host.stack.recv(IpProto::UDP, LISTEN_PORT, false)
                });
                if p.as_ref().map(|p| frame_tag(p.bytes()))
                    != Some(frame_tag(pool.bytes(&frames[i])))
                {
                    self.tally.errors.push(format!(
                        "step {}: listener socket did not return the first packet",
                        self.steps
                    ));
                    continue;
                }
                self.tally.rx_completed += 1;
                if model {
                    let rep = &reports[i];
                    m.vcpu += rep.kernel_cpu + cost;
                    m.vlat_ps
                        .push((now - arrivals[i] + rep.nic_latency + rep.kernel_cpu + cost).0);
                }
                let accepted = spans.time(Span::Accept, 1, || host.accept(listener, false));
                self.tally.attempted += 1;
                if model {
                    m.attempted += 1;
                }
                match accepted {
                    Some(id) => self.accepted.push_back((id, self.steps + ACCEPT_LIFE)),
                    None => {
                        self.tally.failed += 1;
                        if model {
                            m.failed += 1;
                        }
                    }
                }
            }
            while let Some(&(id, close_at)) = self.accepted.front() {
                if close_at > self.steps {
                    break;
                }
                self.accepted.pop_front();
                spans.time(Span::Close, 1, || host.close(id));
            }
        }

        let k = self.steps + 1;
        if self.shape.commit_every > 0 && k.is_multiple_of(self.shape.commit_every) {
            self.commit_flip = !self.commit_flip;
            let policy = shaping(self.commit_flip);
            let r = spans.time(Span::Commit, 1, || {
                host.update_policy(now, |p| p.shaping = Some(policy))
            });
            self.tally.attempted += 1;
            if model {
                m.attempted += 1;
            }
            if r.is_err() {
                self.tally.failed += 1;
                if model {
                    m.failed += 1;
                }
            }
        }
        if self.shape.quiesce_every > 0 && k.is_multiple_of(self.shape.quiesce_every) {
            spans.time(Span::Quiesce, 1, || host.quiesce());
        }
        if self.shape.churn_every > 0 && k.is_multiple_of(self.shape.churn_every) {
            let c = self.churn_order[self.churn_next % self.churn_order.len()] as usize;
            self.churn_next += 1;
            let s = self.specs[c];
            let old = self.ids[c];
            spans.time(Span::Close, 1, || host.close(old));
            let r = spans.time(Span::Connect, 1, || {
                host.connect(
                    s.pid,
                    IpProto::UDP,
                    s.port,
                    s.remote_ip,
                    s.remote_port,
                    false,
                )
            });
            self.tally.attempted += 1;
            if model {
                m.attempted += 1;
            }
            match r {
                Ok(id) => self.ids[c] = id,
                Err(_) => {
                    self.tally.failed += 1;
                    if model {
                        m.failed += 1;
                    }
                }
            }
        }
        if model {
            m.tx_backlog_peak = m.tx_backlog_peak.max(host.nic.tx_backlog() as u64);
        }
        self.now = now;
        self.steps += 1;
        t0.elapsed().as_nanos() as u64
    }

    /// The application's TX loop: puts every queued reply on the wire
    /// whose turn comes by `until`.
    fn drain_tx(&mut self, until: Time, spans: &mut Spans) {
        let host = &mut self.host;
        while let Some(t) = host.nic.tx_next_ready(self.now) {
            if t > until {
                break;
            }
            let d = spans.time(Span::PumpTx, 1, || host.pump_tx(t));
            self.tally.tx_departed += d.len() as u64;
            self.now = t;
            if d.is_empty() {
                break;
            }
        }
    }

    /// After the timed phase: drains every ring, socket and TX queue so
    /// the end-of-run checks see an idle host.
    pub fn final_drain(&mut self) {
        let host = &mut self.host;
        for (c, &id) in self.ids.iter().enumerate() {
            while host.app_recv(id, self.now, false).pkt.is_some() {
                self.tally
                    .errors
                    .push(format!("final drain: conn {c} held a stray frame"));
            }
        }
        while host
            .stack
            .recv(IpProto::UDP, LISTEN_PORT, false)
            .0
            .is_some()
        {
            self.tally
                .errors
                .push("final drain: listener socket held a stray frame".into());
        }
        self.flush_tx();
        self.host.quiesce();
    }

    /// Advances model time until every queued TX frame has departed.
    fn flush_tx(&mut self) {
        // Bounded: the TX backlog is a handful of frames, each of which
        // departs once the wire frees up.
        for _ in 0..1_000_000 {
            let Some(t) = self.host.nic.tx_next_ready(self.now) else {
                break;
            };
            self.now = t;
            let d = self.host.pump_tx(t);
            self.tally.tx_departed += d.len() as u64;
            if d.is_empty() {
                self.now += Dur::from_us(1);
            }
        }
    }
}

/// Generates the mix's frames: arrival gaps, destinations, sizes, and
/// the reply each receiving app sends.
fn generate(w: Workload, shape: &Shape, specs: &[ConnSpec], host: &Host, rng: &mut DetRng) -> Pool {
    let host_mac = host.cfg.mac;
    let ip = host.cfg.ip;
    let n = shape.pool_steps * BATCH;
    assert!(
        (shape.model_steps as usize).is_multiple_of(shape.pool_steps),
        "the arrival schedule must stay aligned with the frame pool"
    );
    let mut pool = Pool {
        bytes: Vec::new(),
        frames: Vec::with_capacity(n),
        replies: Vec::new(),
        gaps: Vec::new(),
    };
    let mut imix = workloads::generators::Imix::new(rng.fork(1));
    let zipf = (w == Workload::MixedChurnTraced).then(|| ZipfTable::new(specs.len(), 1.0));
    let rank_to_conn = shuffled(specs.len(), rng);
    let mut per_step: Vec<(u32, usize)> = Vec::with_capacity(BATCH);
    let (mut data, mut listeners, mut arps) = (0u64, 0u32, 0u32);
    for i in 0..n {
        if i % BATCH == 0 {
            per_step.clear();
        }
        let len = match w {
            Workload::RxSmallPolicy => 64,
            Workload::RxBulkWorkers => 1500,
            Workload::MixedChurnTraced => imix.sample(),
        };
        let u = rng.f64();
        let (dest, pkt) = if u < shape.slow_frac / 2.0 {
            arps += 1;
            let sender = Ipv4Addr::new(10, 2, 0, (arps % 250) as u8 + 1);
            (
                Dest::Arp,
                PacketBuilder::arp_request(Mac::local(9), sender, ip),
            )
        } else if u < shape.slow_frac {
            listeners += 1;
            let src = Ipv4Addr::new(10, 3, (listeners >> 8) as u8, listeners as u8);
            (
                Dest::Listener,
                udp_frame(
                    (Mac::local(9), src, 40_000),
                    (host_mac, ip, LISTEN_PORT),
                    len,
                    i as u64,
                ),
            )
        } else {
            // A connection may receive at most `ring_slots` frames in one
            // step: the app drains every ring once per step, so the mix
            // never overflows a ring by construction.
            let c = loop {
                let c = match &zipf {
                    Some(z) => rank_to_conn[z.sample(rng)],
                    None => rng.range_usize(0, specs.len()) as u32,
                };
                match per_step.iter_mut().find(|(x, _)| *x == c) {
                    Some((_, k)) if *k >= shape.ring_slots => continue,
                    Some((_, k)) => *k += 1,
                    None => per_step.push((c, 1)),
                }
                break c;
            };
            let s = &specs[c as usize];
            (
                Dest::Conn(c),
                udp_frame(
                    (Mac::local(9), s.remote_ip, s.remote_port),
                    (host_mac, ip, s.port),
                    len,
                    i as u64,
                ),
            )
        };
        let mut reply = u32::MAX;
        if let Dest::Conn(c) = dest {
            data += 1;
            if shape.reply_every > 0 && data.is_multiple_of(shape.reply_every) {
                let s = &specs[c as usize];
                reply = pool.replies.len() as u32;
                pool.replies.push(udp_frame(
                    (host_mac, ip, s.port),
                    (Mac::local(9), s.remote_ip, s.remote_port),
                    imix.sample(),
                    0,
                ));
            }
        }
        pool.frames.push(WireFrame {
            off: pool.bytes.len() as u32,
            len: pkt.len() as u16,
            dest,
            reply,
        });
        pool.bytes.extend_from_slice(pkt.bytes());
    }
    let mut arrivals = rng.fork(3);
    pool.gaps = (0..shape.model_steps as usize * BATCH)
        .map(|k| {
            let wire_ns = f64::from(pool.frames[k % n].len) * 8.0 / LINE_GBPS;
            Dur::from_ns_f64(arrivals.exponential(wire_ns / LOAD))
        })
        .collect();
    pool
}
