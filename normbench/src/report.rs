//! Turns a run into metrics, runs the correctness checks, and formats
//! the result: a human-readable table, the one-line JSON result, and an
//! optional full record in the output directory.

use std::fmt::Write as _;
use std::path::Path;

use norman::{Snapshot, Stage};
use pkt::ArenaStats;

use crate::measure::{median, quantile, Span};
use crate::workload::{Bench, BATCH};
use crate::{Args, Run};

/// Layer counters at one instant: the unified metrics snapshot, arena
/// stats and the telemetry ledger.
pub struct Counts {
    snap: Snapshot,
    arena: ArenaStats,
    stage_events: u64,
    total_drops: u64,
    workers: usize,
}

impl Counts {
    /// Takes the quiesce barrier first so worker-shard counters are merged.
    pub fn take(b: &mut Bench) -> Counts {
        b.host.quiesce();
        let tel = b.host.telemetry();
        Counts {
            snap: b.host.metrics_snapshot(),
            arena: b.host.arena().stats(),
            stage_events: Stage::ALL.iter().map(|&s| tel.stage_count(s)).sum(),
            total_drops: tel.total_drops(),
            workers: b.shape.workers,
        }
    }

    fn c(&self, name: &str) -> u64 {
        self.snap.counter(name).unwrap_or(0)
    }

    /// LLC DMA hits and misses, worker-shard partitions included.
    fn dma(&self) -> (u64, u64) {
        let mut hits = self.c("llc.dma_hits");
        let mut misses = self.c("llc.dma_misses");
        for i in 0..self.workers {
            hits += self.c(&format!("llc.shard.{i}.dma_hits"));
            misses += self.c(&format!("llc.shard.{i}.dma_misses"));
        }
        (hits, misses)
    }

    fn ddio_evictions(&self) -> u64 {
        (0..self.workers)
            .map(|i| self.c(&format!("llc.shard.{i}.ddio_evictions")))
            .sum::<u64>()
            + self.c("llc.ddio_evictions")
    }

    /// Every drop a host or NIC counter records.
    fn counted_drops(&self) -> u64 {
        [
            "host.ring_drops",
            "host.nic_dropped",
            "host.malformed_dropped",
            "host.tx_retry_dropped",
            "nic.tx.filtered",
            "nic.sched.dropped",
        ]
        .iter()
        .map(|n| self.c(n))
        .sum()
    }

    /// Frames the host accounted for: delivered, handed to the kernel,
    /// or dropped with a counted cause.
    fn rx_accounted(&self) -> u64 {
        [
            "host.fast_delivered",
            "host.slowpath",
            "host.ring_missing",
            "host.ring_drops",
            "host.nic_dropped",
            "host.malformed_dropped",
        ]
        .iter()
        .map(|n| self.c(n))
        .sum()
    }
}

/// `after - before` of a named counter.
fn delta(before: &Counts, after: &Counts, name: &str) -> u64 {
    after.c(name).saturating_sub(before.c(name))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct Report {
    workload: &'static str,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
    /// Virtual-time outputs and layer counts over the model window:
    /// identical for a seed on every run.
    modeled: Vec<Metric>,
    metrics: Vec<Metric>,
    info: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(args: &Args, b: &Bench, r: &Run) -> Report {
        let (before, window, after) = (&r.before, &r.window, &r.after);
        let md = &b.model;
        let t = &b.tally;
        let mut checks = Vec::new();
        let mut check = |name: String, ok: bool| checks.push((name, ok));

        // Correctness: every check runs on every workload.
        check(
            format!("Host::audit() clean ({} violations)", r.audit.len()),
            r.audit.is_empty(),
        );
        check(
            format!(
                "arena drained: {} live slots after the final drain",
                r.arena_live
            ),
            r.arena_live == 0,
        );
        let offered = delta(before, after, "nic.rx.frames");
        let accounted = after.rx_accounted() - before.rx_accounted();
        check(
            format!("conservation: {offered} offered = {accounted} delivered + counted drops"),
            offered == accounted && offered == t.frames,
        );
        let handed =
            delta(before, after, "host.fast_delivered") + delta(before, after, "host.slowpath");
        check(
            format!(
                "no silent loss: {} frames reached their consumer, host handed over {handed}",
                t.rx_completed
            ),
            t.rx_completed == handed,
        );
        let sent = delta(before, after, "nic.tx.sent");
        check(
            format!(
                "TX: {} departed = {sent} sent = {} replies + {} ARP answers",
                t.tx_departed, t.sends_queued, t.arp_frames
            ),
            t.tx_departed == sent && sent == t.sends_queued + t.arp_frames,
        );
        let gap = |a: &Counts, z: &Counts| {
            (z.counted_drops() as i64 - a.counted_drops() as i64)
                - (z.total_drops as i64 - a.total_drops as i64)
        };
        let ledger_gap = gap(before, window);
        check(
            format!(
                "telemetry ledger gap {ledger_gap} (run {})",
                gap(before, after)
            ),
            ledger_gap == 0 && gap(before, after) == 0,
        );
        let rerouted = delta(before, after, "host.worker_rerouted");
        let restarts = delta(before, after, "host.worker_restarts");
        check(
            format!("workers: {rerouted} rerouted, {restarts} restarts"),
            rerouted == 0 && restarts == 0,
        );
        check(
            format!("outputs: {} mismatched frames", t.errors.len()),
            t.errors.is_empty(),
        );
        for e in t.errors.iter().take(5) {
            eprintln!("normbench: {e}");
        }
        for v in r.audit.iter().take(5) {
            eprintln!("normbench: audit: {v}");
        }

        // Modeled outputs over the window.
        let mut vlat = md.vlat_ps.clone();
        let vlat_p50 = quantile(&mut vlat, 0.50) as f64 / 1e3;
        let vlat_p99 = quantile(&mut vlat, 0.99) as f64 / 1e3;
        let vcpu = ratio(md.vcpu.0 as f64 / 1e3, md.vlat_ps.len() as f64);
        let loss = ratio(md.failed as f64, md.attempted as f64);
        let wd = |name| delta(before, window, name) as f64;
        let (h0, m0) = before.dma();
        let (h1, m1) = window.dma();
        let modeled = vec![
            m("vlat_p50_ns", vlat_p50, "ns"),
            m("vlat_p99_ns", vlat_p99, "ns"),
            m("vcpu_ns_per_frame", vcpu, "ns"),
            m("loss_frac", loss, "frac"),
            m(
                "pkt.arena_high_water",
                window.arena.high_water as f64,
                "count",
            ),
            m(
                "pkt.arena_exhausted",
                (window.arena.exhausted - before.arena.exhausted) as f64,
                "count",
            ),
            m(
                "nicsim.cold_hit_frac",
                ratio(wd("flowtable.cold_hits"), wd("nic.rx.frames")),
                "frac",
            ),
            m("nicsim.promotions", wd("flowtable.promotions"), "count"),
            m("nicsim.evictions", wd("flowtable.evictions"), "count"),
            m(
                "nicsim.slowpath_frac",
                ratio(md.slow as f64, md.frames as f64),
                "frac",
            ),
            m("nicsim.tx_backlog_peak", md.tx_backlog_peak as f64, "count"),
            m(
                "nicsim.sram_used_frac",
                window.snap.gauge("nic.sram.used_frac").unwrap_or(0.0),
                "frac",
            ),
            m(
                "memsim.ddio_hit_frac",
                ratio((h1 - h0) as f64, (h1 - h0 + m1 - m0) as f64),
                "frac",
            ),
            m(
                "memsim.ddio_evictions",
                (window.ddio_evictions() - before.ddio_evictions()) as f64,
                "count",
            ),
            m("memsim.ring_drops", wd("host.ring_drops"), "count"),
            m("workers.rerouted", wd("host.worker_rerouted"), "count"),
            m("workers.restarts", wd("host.worker_restarts"), "count"),
            m("ctrl.commits", wd("ctrl.commits"), "count"),
            m("ctrl.rollbacks", wd("ctrl.rollbacks"), "count"),
            m(
                "ctrl.compile_rejected",
                wd("ctrl.compile_rejected"),
                "count",
            ),
            m(
                "oskernel.kernel_cpu_ns",
                ratio(md.slow_kernel_cpu.0 as f64 / 1e3, md.slow as f64),
                "ns",
            ),
            m(
                "telemetry.events_per_frame",
                ratio(
                    (window.stage_events - before.stage_events) as f64,
                    md.frames as f64,
                ),
                "count",
            ),
            m("telemetry.evicted", wd("trace.buffer.evicted"), "count"),
            m("telemetry.ledger_gap", ledger_gap as f64, "count"),
        ];

        let metrics = if args.trace {
            layer_metrics(b, r, &modeled)
        } else {
            let (mfps, p50, p95) = r.steps.medians();
            vec![
                m("wall_mfps", mfps, "Mframe/s"),
                m("burst_p50_us", p50 / 1e3, "us"),
                m("burst_p95_us", p95 / 1e3, "us"),
                m("vlat_p50_ns", vlat_p50, "ns"),
                m("vlat_p99_ns", vlat_p99, "ns"),
                m("vcpu_ns_per_frame", vcpu, "ns"),
                m("delivered_frac", 1.0 - loss, "frac"),
                m("setup_s", median(&r.setup_s), "s"),
                m("peak_rss_mib", r.peak_rss_kib as f64 / 1024.0, "MiB"),
            ]
        };

        let info = vec![
            (
                "nproc",
                std::thread::available_parallelism()
                    .map_or(0, |n| n.get())
                    .to_string(),
            ),
            ("cpu", cpu_model()),
            ("rustc", env!("NORMBENCH_RUSTC").to_string()),
            ("commit", git_commit()),
            ("model_steps", b.shape.model_steps.to_string()),
            ("burst_samples", r.steps.count.to_string()),
            ("segments", r.steps.segments.len().to_string()),
            (
                "segment_mfps",
                r.steps
                    .segments
                    .iter()
                    .map(|s| format!("{:.4}", s.mfps))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            ("vlat_samples", md.vlat_ps.len().to_string()),
            ("frames_per_step", BATCH.to_string()),
            ("setup_s_each", join(&r.setup_s)),
        ];
        Report {
            workload: b.w.name(),
            seed: args.seed,
            trace: args.trace,
            attempted: t.attempted,
            failed: t.failed,
            checks,
            modeled,
            metrics,
            info,
        }
    }

    /// Replaces `setup_s` with the median over `setups`.
    pub fn set_setup_s(&mut self, setups: &[f64]) {
        for x in self.metrics.iter_mut().filter(|x| x.name == "setup_s") {
            x.value = median(setups);
        }
        for (_, v) in self.info.iter_mut().filter(|(k, _)| *k == "setup_s_each") {
            *v = join(setups);
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn print(&self) {
        println!(
            "normbench {} seed {} trace {}",
            self.workload, self.seed, self.trace as u8
        );
        for (k, v) in &self.info {
            println!("  {k:<16} {v}");
        }
        for (name, ok) in &self.checks {
            println!("  [{}] {name}", if *ok { "ok" } else { "FAIL" });
        }
        println!("  {:<28} {:>16} unit", "metric", "value");
        for x in &self.metrics {
            println!("  {:<28} {:>16.4} {}", x.name, x.value, x.unit);
        }
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        push_metrics(&mut s, &self.metrics);
        s.push_str("}}");
        s
    }

    /// Writes the full record to `<dir>/<workload>.seed<n>.trace<t>.json`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut s = String::from("{\n");
        let _ = writeln!(s, "\"workload\": {},", json_str(self.workload));
        let _ = writeln!(s, "\"seed\": {},", self.seed);
        let _ = writeln!(s, "\"trace\": {},", self.trace as u8);
        s.push_str("\"info\": {");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {}",
                if i > 0 { ", " } else { "" },
                json_str(k),
                json_str(v)
            );
        }
        s.push_str("},\n\"checks\": [");
        for (i, (name, ok)) in self.checks.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"check\": {}, \"ok\": {ok}}}",
                if i > 0 { ", " } else { "" },
                json_str(name)
            );
        }
        let _ = writeln!(
            s,
            "],\n\"correct\": {}, \"attempted\": {}, \"failed\": {},",
            self.correct(),
            self.attempted,
            self.failed
        );
        // One line, so two runs' modeled outputs compare byte for byte.
        s.push_str("\"modeled\": {");
        push_metrics(&mut s, &self.modeled);
        s.push_str("},\n\"metrics\": {");
        push_metrics(&mut s, &self.metrics);
        s.push_str("}\n}\n");
        let path = dir.join(format!(
            "{}.seed{}.trace{}.json",
            self.workload, self.seed, self.trace as u8
        ));
        std::fs::write(path, s)
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(b: &Bench, r: &Run, modeled: &[Metric]) -> Vec<Metric> {
    let sp = &r.spans;
    let rp = r.replay.as_ref().expect("traced runs replay the layers");
    let md = &b.model;
    let st = &r.steps;
    let (on_ns, on_steps, off_ns, off_steps) = (st.on_ns, st.on_steps, st.off_ns, st.off_steps);
    let per_frame_on = ratio(on_ns as f64, (on_steps as usize * BATCH) as f64);
    let per_frame_off = ratio(off_ns as f64, (off_steps as usize * BATCH) as f64);
    let pump = sp.get(Span::Pump);
    let pump_ns = pump.ns_per_item();
    let frames = md.frames as f64;
    let unattributed = pump_ns
        - rp.nic_rx_ns
        - rp.ring_ns * ratio(md.fast as f64, frames)
        - rp.stack_rx_ns * ratio(md.slow as f64, frames);
    let caller_wait = ratio(
        pump.wall.saturating_sub(sp.pump_cpu).as_nanos() as f64,
        pump.items as f64,
    );
    let get = |name: &str| {
        modeled
            .iter()
            .find(|x| x.name == name)
            .map_or(0.0, |x| x.value)
    };
    let from_modeled = |name: &'static str, unit: &'static str| m(name, get(name), unit);
    vec![
        m("pkt.adopt_ns", sp.get(Span::Adopt).ns_per_item(), "ns"),
        from_modeled("pkt.arena_high_water", "count"),
        from_modeled("pkt.arena_exhausted", "count"),
        m("nicsim.rx_ns", rp.nic_rx_ns, "ns"),
        from_modeled("nicsim.cold_hit_frac", "frac"),
        from_modeled("nicsim.promotions", "count"),
        from_modeled("nicsim.evictions", "count"),
        from_modeled("nicsim.slowpath_frac", "frac"),
        from_modeled("nicsim.tx_backlog_peak", "count"),
        from_modeled("nicsim.sram_used_frac", "frac"),
        m("overlay.run_ns", rp.overlay_run_ns, "ns"),
        m("overlay.compile_us", rp.overlay_compile_us, "us"),
        m("memsim.ring_ns", rp.ring_ns, "ns"),
        from_modeled("memsim.ddio_hit_frac", "frac"),
        from_modeled("memsim.ddio_evictions", "count"),
        from_modeled("memsim.ring_drops", "count"),
        m("norman.pump_ns", pump_ns, "ns"),
        m(
            "norman.app_recv_ns",
            sp.get(Span::AppRecv).ns_per_item(),
            "ns",
        ),
        m(
            "norman.app_send_ns",
            sp.get(Span::AppSend).ns_per_item(),
            "ns",
        ),
        m(
            "norman.pump_tx_ns",
            sp.get(Span::PumpTx).ns_per_item(),
            "ns",
        ),
        m(
            "norman.connect_us",
            sp.get(Span::Connect).ns_per_item() / 1e3,
            "us",
        ),
        m(
            "norman.close_us",
            sp.get(Span::Close).ns_per_item() / 1e3,
            "us",
        ),
        m("norman.accept_ns", sp.get(Span::Accept).ns_per_item(), "ns"),
        m("norman.unattributed_ns", unattributed, "ns"),
        m("workers.caller_wait_ns", caller_wait, "ns"),
        m(
            "workers.quiesce_us",
            sp.get(Span::Quiesce).ns_per_item() / 1e3,
            "us",
        ),
        from_modeled("workers.rerouted", "count"),
        from_modeled("workers.restarts", "count"),
        m(
            "ctrl.commit_us",
            sp.get(Span::Commit).ns_per_item() / 1e3,
            "us",
        ),
        from_modeled("ctrl.commits", "count"),
        from_modeled("ctrl.rollbacks", "count"),
        from_modeled("ctrl.compile_rejected", "count"),
        m("oskernel.stack_rx_ns", rp.stack_rx_ns, "ns"),
        from_modeled("oskernel.kernel_cpu_ns", "ns"),
        from_modeled("telemetry.events_per_frame", "count"),
        from_modeled("telemetry.evicted", "count"),
        from_modeled("telemetry.ledger_gap", "count"),
        m(
            "bench.span_overhead_frac",
            ratio(per_frame_on, per_frame_off) - 1.0,
            "frac",
        ),
        m(
            "bench.attributed_frac",
            ratio(sp.total_wall().as_nanos() as f64, on_ns as f64),
            "frac",
        ),
    ]
}

fn join(v: &[f64]) -> String {
    v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ")
}

fn push_metrics(s: &mut String, metrics: &[Metric]) {
    for (i, x) in metrics.iter().enumerate() {
        let v = if x.value.is_finite() { x.value } else { 0.0 };
        let _ = write!(
            s,
            "{}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(x.name),
            json_str(x.unit)
        );
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set (`VmHWM`) of this process, KiB.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
