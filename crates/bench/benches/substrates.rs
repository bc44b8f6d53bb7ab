//! Microbenchmarks of the hot substrates: packet parse/build, Toeplitz
//! hashing, qdisc enqueue/dequeue, overlay dispatch, flow-table lookup,
//! and the ring/LLC model. These are the per-packet building blocks every
//! experiment composes.
//!
//! Plain `Instant`-based harness (no external bench framework): each
//! benchmark warms up briefly, then reports mean ns/iter over a fixed
//! duration. Run with `cargo bench --bench substrates`.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Serialize;

use memsim::{HostRing, Llc, LlcConfig, MemCosts};
use nicsim::{FlowCacheConfig, FlowTable, Sram};
use overlay::{builtins, PktCtx, Vm};
use pkt::{FiveTuple, Mac, PacketBuilder, RssHasher};
use qdisc::{Drr, Fifo, QPkt, Qdisc, Tbf, Wfq};
use sim::{DetRng, Time};

/// CI smoke mode: run each benchmark body exactly once (correctness
/// check, no timing) when `BENCH_SMOKE` is set.
fn smoke_mode() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// One benchmark's result, mirrored to `results/substrates.json` so
/// `scripts/check_bench.py` can diff coverage (and, on timed runs,
/// wall-clock cost) against the committed baseline.
#[derive(Serialize)]
struct BenchResult {
    group: String,
    name: String,
    /// Mean wall-clock ns/iter; `None` in smoke mode (one untimed iter).
    ns_per_iter: Option<f64>,
}

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

fn record(group: &str, name: &str, ns_per_iter: Option<f64>) {
    RESULTS.lock().unwrap().push(BenchResult {
        group: group.to_string(),
        name: name.to_string(),
        ns_per_iter,
    });
}

/// Runs `f` repeatedly for ~200 ms after a 20 ms warmup and prints the
/// mean wall-clock cost per iteration.
fn bench(group: &str, name: &str, mut f: impl FnMut()) {
    if smoke_mode() {
        f();
        println!("{group}/{name}: smoke ok (1 iter)");
        record(group, name, None);
        return;
    }
    let warmup = Instant::now();
    while warmup.elapsed() < Duration::from_millis(20) {
        f();
    }
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(200) {
        // Batch 64 calls per clock read so timing overhead stays small.
        for _ in 0..64 {
            f();
        }
        iters += 64;
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{group}/{name}: {ns:10.1} ns/iter  ({iters} iters)");
    record(group, name, Some(ns));
}

fn bench_pkt() {
    let frame = PacketBuilder::new()
        .ether(Mac::local(1), Mac::local(2))
        .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
        .udp(5432, 9000, &[0u8; 1458])
        .build();
    bench("pkt", "parse_1500B", || {
        black_box(black_box(&frame).parse().unwrap());
    });
    bench("pkt", "build_udp_1500B", || {
        black_box(
            PacketBuilder::new()
                .ether(Mac::local(1), Mac::local(2))
                .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
                .udp(5432, 9000, black_box(&[0u8; 1458]))
                .build(),
        );
    });
    let hasher = RssHasher::with_default_key(16);
    let ft = FiveTuple::udp(
        "10.0.0.1".parse().unwrap(),
        5432,
        "10.0.0.2".parse().unwrap(),
        9000,
    );
    bench("pkt", "toeplitz_hash", || {
        black_box(hasher.hash(black_box(&ft)));
    });
}

fn bench_qdisc() {
    let pkt = QPkt::new(1, 1500, Time::ZERO);
    let mut fifo = Fifo::new(4096);
    bench("qdisc", "fifo_enq_deq", || {
        fifo.enqueue(black_box(pkt), Time::ZERO).unwrap();
        black_box(fifo.dequeue(Time::ZERO).unwrap());
    });
    let mut wfq = Wfq::new(&[1.0; 8], 4096);
    let mut i = 0u32;
    bench("qdisc", "wfq_enq_deq_8class", || {
        i = (i + 1) % 8;
        wfq.enqueue(pkt.with_class(i), Time::ZERO).unwrap();
        black_box(wfq.dequeue(Time::ZERO).unwrap());
    });
    let mut drr = Drr::new(&[1500; 8], 4096);
    let mut j = 0u32;
    bench("qdisc", "drr_enq_deq_8class", || {
        j = (j + 1) % 8;
        drr.enqueue(pkt.with_class(j), Time::ZERO).unwrap();
        black_box(drr.dequeue(Time::ZERO).unwrap());
    });
    let mut tbf = Tbf::new(u64::MAX / 2, u64::MAX / 2, 4096);
    bench("qdisc", "tbf_enq_deq", || {
        tbf.enqueue(black_box(pkt), Time::ZERO).unwrap();
        black_box(tbf.dequeue(Time::ZERO).unwrap());
    });
}

fn bench_overlay() {
    let ctx = PktCtx {
        dst_port: 5432,
        uid: 1001,
        pkt_len: 1500,
        ..PktCtx::default()
    };
    for (name, prog) in [
        ("port_owner_filter", builtins::port_owner_filter()),
        ("token_bucket", builtins::token_bucket()),
        ("uid_classifier", builtins::uid_classifier()),
        ("byte_accounting", builtins::byte_accounting()),
    ] {
        let mut vm = Vm::new(prog);
        bench("overlay", name, || {
            black_box(vm.run(black_box(&ctx)).unwrap());
        });
    }
}

/// The PR-10 engine comparison: one ~32-instruction classifier-style
/// program (context loads, a constant mixing chain, packet-dependent
/// arithmetic, one branch) run on the interpreter vs the AOT-compiled
/// closure artifact. Same program, same context, same verdict — only
/// the execution engine differs. `scripts/check_bench.py --pr10` holds
/// the compiled row to ≥3× the interpreted row.
fn overlay_x32_source() -> &'static str {
    "
        ldctx r0, dst_port
        ldctx r1, uid
        ldctx r2, pkt_len
        ldimm r3, 2654435761
        mul r3, 2246822519
        add r3, 374761393
        xor r3, 668265263
        shl r3, 7
        add r3, 2166136261
        mul r3, 16777619
        xor r3, 40503
        shr r3, 3
        add r3, 97531
        mul r3, 31
        xor r3, 65599
        add r3, 131071
        mod r3, 16777213
        mul r3, 2654435769
        xor r3, 2246822519
        shr r3, 5
        add r3, 2166136261
        xor r3, 77041
        add r3, 999983
        min r3, 1099511627775
        max r3, 4097
        xor r0, r3
        xor r0, r1
        xor r0, r2
        and r0, 1048575
        max r0, 3
        jlt r2, 512, small
        ret class 2
        small:
        ret class 1
    "
}

fn bench_overlay_engines() {
    let prog = overlay::assemble("x32", overlay_x32_source()).unwrap();
    overlay::verify(&prog).unwrap();
    let ctx = PktCtx {
        dst_port: 5432,
        uid: 1001,
        pkt_len: 1500,
        ..PktCtx::default()
    };
    let mut interp = Vm::new(prog.clone());
    bench("overlay", "interp_x32", || {
        black_box(interp.run_interp(black_box(&ctx)).unwrap());
    });
    let artifact = overlay::compile(&prog).unwrap();
    let mut compiled = Vm::with_compiled(prog, artifact);
    bench("overlay", "compiled_x32", || {
        black_box(compiled.run(black_box(&ctx)).unwrap());
    });
}

fn bench_flowtable() {
    let mut sram = Sram::new(1 << 30);
    let mut ft = FlowTable::new();
    let mut tuples = Vec::new();
    for i in 0..10_000u32 {
        let t = FiveTuple::udp(
            std::net::Ipv4Addr::from(0x0A00_0000 + i),
            1000,
            "10.0.0.1".parse().unwrap(),
            (i % 60_000) as u16,
        );
        ft.insert(t, 0, 1, "app", false, 0, &mut sram).unwrap();
        tuples.push(t);
    }
    let mut i = 0;
    bench("flowtable", "lookup_10k_entries", || {
        i = (i + 1) % tuples.len();
        black_box(ft.lookup(black_box(&tuples[i]), &mut sram).unwrap());
    });

    // The scale of the paper's §5 state cliff: 32,768 connections behind
    // a 1024-entry hot tier, keyed the way one host sees its RX traffic
    // (fixed local address and proto, varying remote address), looked up
    // in a seeded random order so no probe chain stays cached.
    let mut sram = Sram::new(1 << 30);
    let mut ft = FlowTable::new();
    ft.configure_cache(
        Some(FlowCacheConfig::priority_aware(1024, &[443])),
        1,
        |_| 0,
        &mut sram,
    );
    let tuples: Vec<FiveTuple> = (0..32_768u32)
        .map(|i| {
            let t = FiveTuple::udp(
                std::net::Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8),
                9000,
                "10.0.0.1".parse().unwrap(),
                if i < 512 { 443 } else { 8080 },
            );
            ft.insert(t, 0, 1, "app", false, 0, &mut sram).unwrap();
            t
        })
        .collect();
    let mut rng = DetRng::seed_from_u64(1);
    let mut order: Vec<usize> = (0..tuples.len()).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, rng.range_usize(0, k + 1));
    }
    let mut i = 0;
    bench("flowtable", "lookup_32k_host_tuples", || {
        i = (i + 1) % order.len();
        black_box(ft.lookup(black_box(&tuples[order[i]]), &mut sram).unwrap());
    });
}

fn bench_memsim() {
    let costs = MemCosts::default();
    let mut llc = Llc::new(LlcConfig::xeon_default());
    llc.access(0, memsim::AccessKind::CpuRead);
    bench("memsim", "llc_access_hot_line", || {
        black_box(llc.access(black_box(0), memsim::AccessKind::CpuRead));
    });
    let mut llc2 = Llc::new(LlcConfig::xeon_default());
    let mut ring = HostRing::new(0, 64, 2048);
    bench("memsim", "ring_produce_consume_1500B", || {
        ring.produce_dma(1500, &mut llc2, &costs).unwrap();
        black_box(ring.consume_cpu(&mut llc2, &costs).unwrap());
    });
}

fn bench_arena() {
    use pkt::BufArena;

    // Pool cycle: take a slot, write a frame header's worth, publish,
    // drop (recycle). This is the per-frame allocator cost the arena
    // replaces heap allocation with.
    let arena = BufArena::new(64, 2048);
    bench("arena", "alloc_free", || {
        let mut w = arena.alloc().unwrap();
        w.bytes_mut()[..64].fill(0xAB);
        black_box(arena_frame_len(&w.freeze(1458)));
    });

    // Full RX delivery of an arena frame: NIC accept -> ring descriptor
    // (refcount bump) -> app receive (index hand-off). No payload bytes
    // move in host memory; only the charge model walks the slot lines.
    let mut host = norman::Host::new(norman::HostConfig {
        ring_slots: 64,
        ..norman::HostConfig::default()
    });
    let pid = host.spawn(oskernel::Uid(1001), "bob", "server");
    let conn = host
        .connect(
            pid,
            pkt::IpProto::UDP,
            7000,
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            9000,
            false,
        )
        .unwrap();
    let inbound = PacketBuilder::new()
        .ether(Mac::local(9), host.cfg.mac)
        .ipv4(std::net::Ipv4Addr::new(10, 0, 0, 2), host.cfg.ip)
        .udp_zeroes(9000, 7000, 1458)
        .build_in(host.arena());
    let mut i = 0u64;
    bench("arena", "rx_zero_copy", || {
        let t = Time::ZERO + sim::Dur(200_000) * i;
        black_box(host.deliver_frame(inbound.clone(), t));
        let r = host.app_recv(conn, t, false);
        black_box(r.len);
        i += 1;
    });

    // The representation the rings replaced, side by side: moving the
    // payload bytes through the slot (copy) vs. moving a descriptor
    // handle (refcount bump). Same modeled charges; only the host's
    // real data movement differs.
    let costs = MemCosts::default();
    let payload = vec![0u8; 1458];
    let mut llc_copy = Llc::new(LlcConfig::xeon_default());
    let mut copy_ring = HostRing::new(0, 64, 2048);
    bench("ring", "transfer_copy", || {
        let bytes = black_box(&payload[..]).to_vec();
        copy_ring
            .produce_dma(bytes.len(), &mut llc_copy, &costs)
            .unwrap();
        black_box(copy_ring.consume_cpu(&mut llc_copy, &costs).unwrap());
        black_box(bytes);
    });
    let mut llc_idx = Llc::new(LlcConfig::xeon_default());
    let mut idx_ring: memsim::DescRing<pkt::Packet> = memsim::DescRing::new(0, 64, 2048);
    bench("ring", "transfer_index", || {
        idx_ring
            .produce_dma_with(inbound.clone(), inbound.len(), &mut llc_idx, &costs)
            .unwrap();
        black_box(idx_ring.consume_cpu_desc(&mut llc_idx, &costs).unwrap());
    });
}

/// Keeps the freeze from being optimized out without naming its fields.
fn arena_frame_len(f: &pkt::FrameRef) -> usize {
    f.len()
}

fn bench_asm() {
    let src = "
        map rules 65536
        ldctx r3, egress
        jeq r3, 1, eg
        ldctx r0, dst_port
        jmp check
        eg:
        ldctx r0, src_port
        check:
        mapld r1, rules, r0
        jeq r1, 0, allow
        ldctx r2, uid
        add r2, 1
        jeq r1, r2, allow
        ret drop
        allow:
        ret pass
    ";
    bench("overlay_toolchain", "assemble_port_filter", || {
        black_box(overlay::assemble("bench", black_box(src)).unwrap());
    });
    let prog = overlay::assemble("bench", src).unwrap();
    bench("overlay_toolchain", "verify_port_filter", || {
        black_box(overlay::verify(black_box(&prog)).unwrap());
    });
    bench("overlay_toolchain", "instantiate_vm", || {
        black_box(Vm::new(prog.clone()));
    });
    bench("overlay_toolchain", "compile_port_filter", || {
        black_box(overlay::compile(black_box(&prog)).unwrap());
    });
}

fn bench_extensions() {
    use nicsim::{CcParams, CongestionControl, ConnId, NatTable};
    use qdisc::{Codel, CodelConfig, Red, RedConfig};

    // NAT translate (existing mapping: the hot path).
    let mut nat = NatTable::new("203.0.113.1".parse().unwrap());
    let mut sram = Sram::new(1 << 20);
    let frame = PacketBuilder::new()
        .ether(Mac::local(1), Mac::local(2))
        .ipv4("192.168.1.10".parse().unwrap(), "8.8.8.8".parse().unwrap())
        .udp(5555, 53, &[0u8; 256])
        .build();
    nat.translate_outbound(frame.clone(), &mut sram).unwrap();
    bench("extensions", "nat_translate_outbound_hot", || {
        black_box(
            nat.translate_outbound(black_box(frame.clone()), &mut sram)
                .unwrap(),
        );
    });

    // Incremental checksum rewrite alone.
    bench("extensions", "mutate_rewrite_addrs", || {
        black_box(
            pkt::mutate::rewrite_ipv4_addrs(
                black_box(&frame),
                Some("203.0.113.1".parse().unwrap()),
                None,
            )
            .unwrap(),
        );
    });

    // Congestion-control ack processing.
    let mut cc = CongestionControl::new(CcParams::default());
    cc.open(ConnId(1));
    bench("extensions", "cc_on_ack", || {
        cc.on_send(ConnId(1), 1500);
        cc.on_ack(ConnId(1), 1500, black_box(false));
    });

    // RED and CoDel enqueue/dequeue cycles.
    let pkt = QPkt::new(1, 1500, Time::ZERO);
    let mut red = Red::new(RedConfig::default(), 4096);
    bench("extensions", "red_enq_deq", || {
        let _ = red.enqueue_ecn(black_box(pkt), Time::ZERO);
        black_box(red.dequeue(Time::ZERO));
    });
    let mut codel = Codel::new(CodelConfig::default(), 4096);
    bench("extensions", "codel_enq_deq", || {
        let _ = codel.enqueue(black_box(pkt), Time::ZERO);
        black_box(codel.dequeue(Time::ZERO));
    });
}

/// The PR-2 tentpole comparison: parse-once `FrameMeta` dispatch vs
/// every stage re-parsing the frame bytes. Four stages model the
/// steady-state vertical path (parser, filter ctx, sniffer summary
/// fields, host demux).
fn bench_meta() {
    use pkt::{FrameMeta, Packet};

    let built = PacketBuilder::new()
        .ether(Mac::local(1), Mac::local(2))
        .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
        .udp(5432, 9000, &[0u8; 256])
        .build();
    // A wire frame: raw bytes, no build-time descriptor attached.
    let raw = Packet::from_bytes(built.bytes().to_vec());

    let hasher = RssHasher::with_default_key(1);
    bench("meta", "four_stage_reparse", || {
        // The pre-descriptor pipeline: the NIC parser parses, verifies
        // the transport checksum, and Toeplitz-hashes the tuple; then the
        // filter ctx, sniffer, and host demux each re-parse the bytes.
        let p = black_box(&raw).parse().unwrap();
        assert!(p.l4_checksum_ok(raw.bytes()));
        let t = FiveTuple::from_parsed(&p).unwrap();
        let mut acc = u64::from(hasher.hash(&t));
        for _ in 0..3 {
            let p = black_box(&raw).parse().unwrap();
            let t = FiveTuple::from_parsed(&p).unwrap();
            acc ^= u64::from(t.src_port) ^ u64::from(p.ether.ethertype.0);
        }
        black_box(acc);
    });
    bench("meta", "four_stage_meta_dispatch", || {
        // Ingress derives the descriptor once (parse + checksum verify +
        // flow hash); every later stage reads precomputed fields.
        let meta = FrameMeta::derive(black_box(raw.bytes())).unwrap();
        let mut acc = u64::from(meta.flow_hash);
        for _ in 0..3 {
            let t = meta.tuple.unwrap();
            acc ^= u64::from(t.src_port) ^ u64::from(meta.ethertype);
        }
        black_box(acc);
    });
}

/// The PR-2 batching comparison: 32 same-flow frames through
/// `SmartNic::rx_batch` one frame at a time vs one 32-frame call (single
/// frozen check, batched stats, hash-sorted coalesced flow probe).
fn bench_batch_rx() {
    use nicsim::{NicConfig, SmartNic};

    let local: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
    let remote: std::net::Ipv4Addr = "10.0.0.2".parse().unwrap();
    let mut nic = SmartNic::new(NicConfig::default());
    let tuple = FiveTuple::udp(remote, 9000, local, 7000);
    nic.open_connection(tuple, 1001, 42, "app", false).unwrap();
    let pkts: Vec<pkt::Packet> = (0..32)
        .map(|_| {
            PacketBuilder::new()
                .ether(Mac::local(2), Mac::local(1))
                .ipv4(remote, local)
                .udp(9000, 7000, &[0u8; 256])
                .build()
        })
        .collect();

    bench("batch", "rx_batch1_x32", || {
        for p in &pkts {
            black_box(nic.rx_batch(std::slice::from_ref(p), Time::ZERO));
        }
    });
    bench("batch", "rx_batch32", || {
        black_box(nic.rx_batch(&pkts, Time::ZERO));
    });
}

/// The PR-3 introspection guard: the same 32-frame RX loop as
/// `bench_batch_rx` with lifecycle telemetry left disabled (the default
/// everywhere — this is the overhead the dataplane pays for *having* the
/// trace points) and with it enabled (the cost of actually recording).
/// The disabled number must track `batch/rx_batch1_x32` within noise.
fn bench_telemetry() {
    use nicsim::{NicConfig, SmartNic};
    use telemetry::{Stage, Telemetry, TraceEvent, TraceVerdict};

    let local: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
    let remote: std::net::Ipv4Addr = "10.0.0.2".parse().unwrap();
    let tuple = FiveTuple::udp(remote, 9000, local, 7000);
    let pkts: Vec<pkt::Packet> = (0..32)
        .map(|_| {
            PacketBuilder::new()
                .ether(Mac::local(2), Mac::local(1))
                .ipv4(remote, local)
                .udp(9000, 7000, &[0u8; 256])
                .build()
        })
        .collect();

    // Disabled hub (the default a fresh SmartNic carries): every trace
    // point costs one flag load, the event closures never run.
    let mut nic = SmartNic::new(NicConfig::default());
    nic.open_connection(tuple, 1001, 42, "app", false).unwrap();
    bench("telemetry", "rx_x32_disabled", || {
        for p in &pkts {
            black_box(nic.rx_batch(std::slice::from_ref(p), Time::ZERO));
        }
    });

    // Enabled hub: frame-id tagging, event construction, ledger updates,
    // and per-stage histogram samples all on.
    let mut nic = SmartNic::new(NicConfig::default());
    nic.open_connection(tuple, 1001, 42, "app", false).unwrap();
    let tel = Telemetry::new();
    tel.set_enabled(true);
    nic.set_telemetry(tel.clone());
    bench("telemetry", "rx_x32_enabled", || {
        for p in &pkts {
            black_box(nic.rx_batch(std::slice::from_ref(p), Time::ZERO));
        }
    });

    // Enabled hub with a durable file sink attached (the `ktrace
    // collect` hot path): everything above plus the per-event filter /
    // collector checks and, for collected events, serialization into
    // the BufWriter. Full lifecycle per measurement-visible unit so the
    // file never grows unboundedly between iterations.
    let mut nic = SmartNic::new(NicConfig::default());
    nic.open_connection(tuple, 1001, 42, "app", false).unwrap();
    let tel = Telemetry::new();
    tel.set_enabled(true);
    nic.set_telemetry(tel.clone());
    let sink_path = std::env::temp_dir().join(format!(
        "norman-substrates-sink-{}.ntrace",
        std::process::id()
    ));
    tel.start_sink(
        &sink_path,
        &telemetry::Profile::drop_forensics(),
        &telemetry::CollectorRegistry::builtin(),
    )
    .unwrap();
    bench("telemetry", "rx_x32_file_sink", || {
        for p in &pkts {
            black_box(nic.rx_batch(std::slice::from_ref(p), Time::ZERO));
        }
    });
    tel.finish_sink().unwrap();
    std::fs::remove_file(&sink_path).ok();

    // The bare cost of a disabled trace point, isolated.
    let off = Telemetry::new();
    bench("telemetry", "emit_disabled", || {
        off.emit(|| TraceEvent {
            frame_id: 1,
            at: Time::ZERO,
            stage: Stage::RxIngress,
            verdict: TraceVerdict::Pass,
            tuple: Some(black_box(tuple)),
            len: 298,
            owner: None,
            generation: 0,
        });
    });
}

#[derive(Serialize)]
struct Output {
    schema: &'static str,
    mode: &'static str,
    benches: Vec<BenchResult>,
}

fn main() {
    bench_pkt();
    bench_qdisc();
    bench_overlay();
    bench_overlay_engines();
    bench_flowtable();
    bench_memsim();
    bench_arena();
    bench_asm();
    bench_extensions();
    bench_meta();
    bench_batch_rx();
    bench_telemetry();
    let out = Output {
        schema: "norman-bench-substrates-v1",
        mode: if smoke_mode() { "smoke" } else { "timed" },
        benches: std::mem::take(&mut RESULTS.lock().unwrap()),
    };
    bench::write_json("substrates", &out);
}
