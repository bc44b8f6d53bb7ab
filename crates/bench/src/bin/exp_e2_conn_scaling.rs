//! E2 — goodput vs. concurrent connections (the §5 scaling cliff).
//!
//! Paper anchor: "Our current implementation fails to sustain full
//! (100Gbps) throughput when there are more than 1024 concurrent
//! connections … DDIO … can only use a fixed fraction of LLC cache
//! space … We suspect that the number of active ring buffers is
//! outstripping the DDIO cache."
//!
//! Each connection owns a 2-slot × 2 KiB RX ring (≈4 KiB hot footprint).
//! With the Xeon-default LLC (32 MiB, 2 of 16 ways for DDIO = 4 MiB DDIO
//! share), the live-ring working set outgrows DDIO at ≈1024 connections
//! — exactly where the paper saw the cliff. Ablations: (a) DDIO
//! unrestricted (cliff moves to LLC capacity), (b) shared rings per
//! process (§5's proposed mitigation; the cliff disappears).
//!
//! The host is modelled as a 6-core receiver with parallel DMA engines; the
//! bottleneck per packet is max(DMA time, consume time)/4, capped by the
//! 100 Gbps line.

use memsim::LlcConfig;
use norman::{Host, HostConfig};
use oskernel::Uid;
use pkt::{Mac, PacketBuilder};
use serde::Serialize;
use sim::{Dur, Time};
use std::net::Ipv4Addr;

const FRAME: usize = 1500;
const CORES: f64 = 6.0;
const LINE_GBPS: f64 = 100.0;

#[derive(Serialize)]
struct Row {
    config: &'static str,
    connections: usize,
    goodput_gbps: f64,
    consumer_hit_rate: f64,
    dma_ns_per_pkt: f64,
    recv_ns_per_pkt: f64,
}

fn run(conns: usize, llc: LlcConfig, shared_rings: bool) -> (f64, f64, f64, f64) {
    let mut cfg = HostConfig {
        llc,
        shared_rings,
        ..HostConfig::default()
    };
    // Per-connection mode: a 2-slot ring pair per connection (~4 KiB hot
    // RX footprint). Shared mode (§5's mitigation): one larger ring per
    // process, drained in arrival order with bounded lag.
    cfg.ring_slots = if shared_rings { 64 } else { 2 };
    cfg.ring_slot_bytes = 2048;
    cfg.nic.sram_bytes = 1 << 30; // SRAM is E3's experiment, not this one
    let mut host = Host::new(cfg);
    let pid = host.spawn(Uid(1001), "bob", "server");

    // Open the connections across the port space.
    let mut ids = Vec::with_capacity(conns);
    for i in 0..conns {
        let port = 1024 + (i as u16 % 60_000);
        let remote_port = 10_000 + (i / 60_000) as u16;
        let id = host
            .connect(
                pid,
                pkt::IpProto::UDP,
                port,
                Ipv4Addr::new(10, 0, 0, 2),
                remote_port,
                false,
            )
            .expect("open connection");
        ids.push((id, port, remote_port));
    }

    // Pre-build one frame per connection.
    let frames: Vec<pkt::Packet> = ids
        .iter()
        .map(|&(_, port, remote_port)| {
            PacketBuilder::new()
                .ether(Mac::local(9), host.cfg.mac)
                .ipv4(Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
                .udp(remote_port, port, &vec![0u8; FRAME - 42])
                .build()
        })
        .collect();

    // The applications also *compute*: between service rounds they sweep
    // their own working sets through the cache. Without this pressure the
    // LLC's 14 non-DDIO ways would quietly absorb every ring (an idle
    // host has no DDIO problem); with it, ring lines survive only as long
    // as the DDIO share holds them — the condition the paper describes.
    let bg_bytes: u64 = 48 << 20;
    let bg_base: u64 = 0x80_0000_0000;
    let mem = host.cfg.mem.clone();

    // Steady state: warm rounds, then two measured rounds. The shared
    // ring needs enough rounds to wrap at small connection counts.
    let rounds = if shared_rings { 8 } else { 4 };
    let mut dma_total = Dur::ZERO;
    let mut recv_total = Dur::ZERO;
    let mut measured_pkts = 0u64;
    let mut cpu_hits = 0u64;
    let mut cpu_misses = 0u64;
    for round in 0..rounds {
        let measure = round >= rounds - 2;
        // Snapshot CPU hit/miss around the service phase so the
        // background sweep does not pollute the consumer hit rate.
        let s0 = host.llc_stats();
        if shared_rings {
            // One shared ring per process drains in arrival order: the
            // produce-to-consume reuse distance is bounded by ring
            // occupancy (here 32 frames), not by the connection count —
            // that bounded distance is exactly why §5 floats sharing.
            let lag = 32usize;
            for (i, &(id, ..)) in ids.iter().enumerate() {
                let rep = host.deliver_from_wire(&frames[i], Time::ZERO);
                if measure {
                    dma_total += rep.mem_cost;
                }
                if i >= lag {
                    let r = host.app_recv(id, Time::ZERO, false);
                    assert!(r.len.is_some(), "shared ring holds the lagged frame");
                    if measure {
                        recv_total += r.cpu;
                        measured_pkts += 1;
                    }
                }
            }
            // Drain the tail.
            for &(id, ..) in ids.iter().take(lag) {
                let r = host.app_recv(id, Time::ZERO, false);
                assert!(r.len.is_some());
                if measure {
                    recv_total += r.cpu;
                    measured_pkts += 1;
                }
            }
        } else {
            // Per-connection rings with spread load: the NIC fills every
            // connection's ring (both slots) before the application's
            // service loop comes back around — the reuse distance spans
            // all live rings.
            for (i, &(id, ..)) in ids.iter().enumerate() {
                for _ in 0..2 {
                    let rep = host.deliver_from_wire(&frames[i], Time::ZERO);
                    if measure {
                        dma_total += rep.mem_cost;
                    }
                }
                let _ = id;
            }
            for &(id, ..) in &ids {
                for _ in 0..2 {
                    let r = host.app_recv(id, Time::ZERO, false);
                    assert!(r.len.is_some(), "ring holds both delivered frames");
                    if measure {
                        recv_total += r.cpu;
                        measured_pkts += 1;
                    }
                }
            }
        }
        if measure {
            let s1 = host.llc_stats();
            cpu_hits += s1.cpu_hits - s0.cpu_hits;
            cpu_misses += s1.cpu_misses - s0.cpu_misses;
        }
        // Application compute phase: sweep the background working set.
        // (Not charged to per-packet costs; it is the apps' own work.)
        host.with_llc(|llc| {
            let mut addr = bg_base;
            while addr < bg_base + bg_bytes {
                llc.access_range(addr, 64, memsim::AccessKind::CpuRead, &mem);
                addr += 64;
            }
        });
    }

    let dma_ns = dma_total.as_ns_f64() / measured_pkts as f64;
    let recv_ns = recv_total.as_ns_f64() / measured_pkts as f64;
    let bottleneck_ns = dma_ns.max(recv_ns) / CORES;
    let gbps = (FRAME as f64 * 8.0 / bottleneck_ns).min(LINE_GBPS);
    let hit_rate = if cpu_hits + cpu_misses == 0 {
        1.0
    } else {
        cpu_hits as f64 / (cpu_hits + cpu_misses) as f64
    };
    (gbps, hit_rate, dma_ns, recv_ns)
}

fn main() {
    println!("E2: goodput vs concurrent connections (paper §5 cliff)");
    println!("(6-core receiver, 1500B frames, 2x2KiB rings per connection)\n");

    type Config = (&'static str, fn() -> LlcConfig, bool);
    let conn_counts = [16usize, 64, 256, 512, 1024, 2048, 4096, 8192, 16384];
    let configs: [Config; 3] = [
        ("ddio-2way (paper)", LlcConfig::xeon_default, false),
        ("ddio-unlimited", LlcConfig::unlimited_ddio, false),
        ("shared-rings", LlcConfig::xeon_default, true),
    ];

    let mut rows = Vec::new();
    for (name, llc_fn, shared) in configs {
        let mut table = bench::Table::new(
            &format!("E2 — {name}"),
            &[
                "connections",
                "goodput (Gbps)",
                "consumer hit rate",
                "DMA ns/pkt",
                "recv ns/pkt",
            ],
        );
        for &n in &conn_counts {
            let (gbps, hit, dma, recv) = run(n, llc_fn(), shared);
            table.row(&[
                n.to_string(),
                format!("{gbps:.1}"),
                bench::pct(hit),
                format!("{dma:.0}"),
                format!("{recv:.0}"),
            ]);
            rows.push(Row {
                config: name,
                connections: n,
                goodput_gbps: gbps,
                consumer_hit_rate: hit,
                dma_ns_per_pkt: dma,
                recv_ns_per_pkt: recv,
            });
        }
        table.print();
    }

    // Shape checks: full line rate at <=1024 conns with the paper's DDIO
    // config, a cliff beyond it, and the mitigation/ablation behaviours.
    let g = |config: &str, conns: usize| {
        rows.iter()
            .find(|r| r.config == config && r.connections == conns)
            .unwrap()
            .goodput_gbps
    };
    assert!(g("ddio-2way (paper)", 1024) >= 99.0, "line rate at 1024");
    assert!(
        g("ddio-2way (paper)", 2048) < 0.8 * g("ddio-2way (paper)", 1024),
        "degradation beyond 1024"
    );
    assert!(
        g("ddio-2way (paper)", 16384) < 0.35 * g("ddio-2way (paper)", 1024),
        "deep degradation at high counts"
    );
    assert!(
        g("ddio-unlimited", 4096) > 1.4 * g("ddio-2way (paper)", 4096),
        "unrestricted DDIO moves the cliff out"
    );
    assert!(
        g("shared-rings", 16384) >= 99.0,
        "shared rings sustain line rate"
    );
    println!("\nShape check PASSED: the paper's cliff appears just past 1024 connections under");
    println!("the DDIO way-cap, moves out when DDIO may fill the whole LLC, and disappears");
    println!("entirely with shared per-process rings (the §5 mitigation).");

    bench::write_json("exp_e2_conn_scaling", &rows);
}
