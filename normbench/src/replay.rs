//! Layer replays for the traced run. `nicsim`, `overlay`, `memsim` and
//! `oskernel` are only called from inside `Host`, so after the run's
//! checks the benchmark feeds the run's own frames through each layer's
//! public entry point and times those calls from outside.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use memsim::{HostRing, Llc};
use overlay::{PktCtx, Program, Vm};
use pkt::{FrameMeta, IpProto, Packet};
use sim::{Dur, Time};

use crate::workload::{Bench, Dest, BATCH, LISTEN_PORT};

/// Distinct pool steps each replay draws its frames from.
const REPLAY_STEPS: usize = 256;
/// Passes over those steps, so each replay times enough calls to be
/// steady (8 x 256 x 32 = 65,536 frames).
const PASSES: usize = 8;
/// Rings the ring replay spreads frames over (one per connection, up to
/// this many).
const MAX_RINGS: usize = 1024;
const COMPILE_REPS: u32 = 20;

/// Wall-clock cost per call of each replayed layer entry point, in
/// nanoseconds (0 when the workload never reaches the layer).
#[derive(Default, Debug)]
pub struct Replay {
    /// `SmartNic::rx_batch`, per frame (overlay programs included).
    pub nic_rx_ns: f64,
    /// `Vm::run` on `overlay::compile` output, per program per frame.
    pub overlay_run_ns: f64,
    /// `overlay::compile`, per program, in microseconds.
    pub overlay_compile_us: f64,
    /// `HostRing::produce_dma` + `consume_cpu`, per fast-path frame.
    pub ring_ns: f64,
    /// `NetStack::rx` (listener first packets) and `ArpCache::handle_meta`
    /// (ARP), per slow-path frame.
    pub stack_rx_ns: f64,
}

fn per(d: Duration, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_nanos() as f64 / n as f64
    }
}

/// Runs every replay against the bench's host, whose dataplane state it
/// advances: call only after the run's checks.
pub fn run(b: &mut Bench) -> Replay {
    let steps = b.pool.steps().min(REPLAY_STEPS);
    let frames = &b.pool.frames[..steps * BATCH];
    let batches: Vec<Vec<Packet>> = frames
        .chunks(BATCH)
        .map(|c| {
            c.iter()
                .map(|f| Packet::from_bytes(b.pool.bytes(f).to_vec()))
                .collect()
        })
        .collect();
    let metas: Vec<FrameMeta> = batches
        .iter()
        .flatten()
        .map(|p| FrameMeta::of(p).expect("generated frames parse"))
        .collect();
    let mut out = Replay::default();
    let mut t = b.now;

    // nicsim: the batched ingress pipeline the host calls from pump.
    let mut wall = Duration::ZERO;
    for _ in 0..PASSES {
        for batch in &batches {
            t += Dur::from_us(10);
            let t0 = Instant::now();
            black_box(b.host.nic.rx_batch(batch, t));
            wall += t0.elapsed();
        }
    }
    out.nic_rx_ns = per(wall, PASSES * frames.len());

    // overlay: the ingress programs the committed policy installs.
    let programs = ingress_programs(b);
    if !programs.is_empty() {
        let mut wall = Duration::ZERO;
        for _ in 0..COMPILE_REPS {
            for (p, _) in &programs {
                let t0 = Instant::now();
                black_box(overlay::compile(p).expect("committed programs compile"));
                wall += t0.elapsed();
            }
        }
        out.overlay_compile_us = per(wall, COMPILE_REPS as usize * programs.len()) / 1e3;
        let ctxs: Vec<PktCtx> = frames
            .iter()
            .zip(&metas)
            .map(|(f, m)| ctx_of(b, f.dest, m, t))
            .collect();
        let mut wall = Duration::ZERO;
        for (p, fills) in &programs {
            let compiled = overlay::compile(p).expect("committed programs compile");
            let mut vm = Vm::with_compiled(p.clone(), compiled);
            for &(key, value) in fills {
                vm.map_set(0, key, value);
            }
            for _ in 0..PASSES {
                let t0 = Instant::now();
                for c in &ctxs {
                    let _ = black_box(vm.run(c));
                }
                wall += t0.elapsed();
            }
        }
        out.overlay_run_ns = per(wall, PASSES * ctxs.len() * programs.len());
    }

    // memsim: DMA produce + CPU consume at the run's frame lengths, over
    // rings of the host's geometry.
    let slot_bytes = b.host.cfg.ring_slot_bytes;
    let slots = b.host.cfg.ring_slots;
    let cell = (slots as u64 * (HostRing::DESC_BYTES + slot_bytes as u64)).next_multiple_of(4096);
    let nrings = b.specs.len().min(MAX_RINGS);
    let mut rings: Vec<HostRing> = (0..nrings as u64)
        .map(|i| HostRing::new(0x1_0000_0000 + i * cell, slots, slot_bytes))
        .collect();
    let mut llc = Llc::new(b.host.cfg.llc.clone());
    let costs = b.host.cfg.mem.clone();
    let mut wall = Duration::ZERO;
    let mut n = 0;
    let mut used: Vec<usize> = Vec::with_capacity(BATCH);
    for _ in 0..PASSES {
        for step in frames.chunks(BATCH) {
            let t0 = Instant::now();
            used.clear();
            for f in step {
                if let Dest::Conn(c) = f.dest {
                    let r = c as usize % nrings;
                    let _ =
                        black_box(rings[r].produce_dma(b.pool.bytes(f).len(), &mut llc, &costs));
                    used.push(r);
                }
            }
            for &r in &used {
                black_box(rings[r].consume_cpu(&mut llc, &costs));
            }
            wall += t0.elapsed();
            n += used.len();
        }
    }
    out.ring_ns = per(wall, n);

    // oskernel: the slow-path frames through the kernel entry points the
    // host hands them to.
    let slow: Vec<(Dest, &Packet, &FrameMeta)> = frames
        .iter()
        .zip(batches.iter().flatten())
        .zip(&metas)
        .filter(|((f, _), _)| !matches!(f.dest, Dest::Conn(_)))
        .map(|((f, p), m)| (f.dest, p, m))
        .collect();
    if !slow.is_empty() {
        let mut wall = Duration::ZERO;
        for _ in 0..PASSES {
            let t0 = Instant::now();
            for &(dest, p, m) in &slow {
                match dest {
                    Dest::Arp => {
                        black_box(b.host.arp.handle_meta(p, m, t));
                    }
                    _ => {
                        black_box(b.host.stack.rx(p, t));
                    }
                }
            }
            wall += t0.elapsed();
            while b
                .host
                .stack
                .recv(IpProto::UDP, LISTEN_PORT, false)
                .0
                .is_some()
            {}
        }
        out.stack_rx_ns = per(wall, PASSES * slow.len());
    }
    out
}

/// The ingress-side overlay programs of the committed policy, each with
/// its map-0 fills: the port-owner filter lowered from the port
/// reservations (uid + 1 per reserved port), then the accounting
/// programs in commit order.
fn ingress_programs(b: &Bench) -> Vec<(Program, Vec<(usize, u64)>)> {
    let store = b.host.policy();
    let mut out = Vec::new();
    if !store.reservations.is_empty() {
        let fills = store
            .reservations
            .iter()
            .map(|r| (usize::from(r.port), u64::from(r.uid.0) + 1))
            .collect();
        out.push((overlay::builtins::port_owner_filter(), fills));
    }
    out.extend(store.accounting.iter().map(|p| (p.clone(), Vec::new())));
    out
}

/// The context the NIC builds for an ingress frame (see
/// `SmartNic::rx_finish`), with ownership from the frame's connection.
fn ctx_of(b: &Bench, dest: Dest, m: &FrameMeta, now: Time) -> PktCtx {
    let owner = match dest {
        Dest::Conn(c) => {
            let s = &b.specs[c as usize];
            Some((s.uid.0, s.pid.0, b.ids[c as usize].0))
        }
        _ => None,
    };
    let tuple = m.tuple;
    let ip = |a: Option<Ipv4Addr>| a.map(u32::from).unwrap_or(0);
    PktCtx {
        flow_key: tuple
            .as_ref()
            .map(nicsim::flowtable::exact_key)
            .unwrap_or(0),
        pkt_len: m.frame_len as u64,
        proto: tuple.map(|t| u64::from(t.proto.0)).unwrap_or(0),
        src_ip: ip(tuple.map(|t| t.src_ip)),
        dst_ip: ip(tuple.map(|t| t.dst_ip)),
        src_port: tuple.map(|t| t.src_port).unwrap_or(0),
        dst_port: tuple.map(|t| t.dst_port).unwrap_or(0),
        uid: owner.map_or(u32::MAX, |o| o.0),
        pid: owner.map_or(0, |o| o.1),
        flow_hash: m.flow_hash,
        conn_id: owner.map_or(u64::MAX, |o| o.2),
        now_ns: now.as_ns_f64() as u64,
        ethertype: m.ethertype,
        dscp: m.dscp_ecn,
        is_arp: m.is_arp(),
        egress: false,
        mark: 0,
    }
}
