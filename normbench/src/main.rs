//! One benchmark for the Norman dataplane.
//!
//! ```text
//! normbench --workload <rx_small_policy|rx_bulk_workers|mixed_churn_traced>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with no spans;
//! `--trace 1` prints the per-layer metrics, from spans recorded around
//! the benchmark's own calls plus replays of the run's frames through
//! each inner layer. Either way the run checks its outputs and exits
//! non-zero when a check fails. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--out`, a full record (machine, build, checks, modeled outputs) is
//! written into that directory, and nowhere else.
//!
//! See `README.md` beside this package for the workloads and metrics.

mod measure;
mod replay;
mod report;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{Spans, Steps};
use report::Counts;
use workload::{Bench, Workload};

/// Set-ups per untraced run; `setup_s` is their median. The first builds
/// the measured host; the others follow its teardown, so they add nothing
/// to its peak memory.
const SETUPS: usize = 3;
/// Steps per span-on / span-off block in a traced run. Blocks alternate
/// so both halves see the same machine conditions.
const TRACE_BLOCK: u64 = 64;

const USAGE: &str =
    "usage: normbench --workload <rx_small_policy|rx_bulk_workers|mixed_churn_traced> \
--seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// What the timed phase measured, handed to the report.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub steps: Steps,
    pub spans: Spans,
    pub before: Counts,
    pub window: Counts,
    pub after: Counts,
    pub audit: Vec<String>,
    pub arena_live: usize,
    pub peak_rss_kib: u64,
    pub replay: Option<replay::Replay>,
}

fn run(args: &Args) -> (Bench, Run) {
    let t0 = Instant::now();
    let mut b = Bench::setup(args.workload, args.seed);
    let setup_s = vec![t0.elapsed().as_secs_f64()];

    let model_steps = b.shape.model_steps;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut spans = Spans::new();
    let mut steps = Steps::new(budget);
    let before = Counts::take(&mut b);
    let mut window = None;
    let t0 = Instant::now();
    let mut timed = 0u64;
    loop {
        spans.on = args.trace && (timed / TRACE_BLOCK) % 2 == 1;
        let done = b.tally.rx_completed + b.tally.tx_departed;
        let ns = b.step(&mut spans, timed < model_steps);
        let done = b.tally.rx_completed + b.tally.tx_departed - done;
        timed += 1;
        if timed == model_steps {
            window = Some(Counts::take(&mut b));
        }
        let elapsed = t0.elapsed();
        steps.push(ns, done, spans.on, elapsed);
        if timed >= model_steps && elapsed >= budget {
            break;
        }
    }
    steps.finish();
    spans.on = false;

    b.final_drain();
    let audit = b.host.audit();
    let arena_live = b.host.arena().live();
    let after = Counts::take(&mut b);
    let peak_rss_kib = report::peak_rss_kib();
    let replay = args.trace.then(|| replay::run(&mut b));
    let run = Run {
        setup_s,
        steps,
        spans,
        before,
        window: window.expect("model window completed"),
        after,
        audit,
        arena_live,
        peak_rss_kib,
        replay,
    };
    (b, run)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("normbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (bench, mut run) = run(&args);
    let mut report = report::Report::new(&args, &bench, &run);
    // Tear the measured host down (joining its workers) untimed.
    drop(bench);
    if !args.trace {
        for _ in 1..SETUPS {
            let t0 = Instant::now();
            let b = Bench::setup(args.workload, args.seed);
            run.setup_s.push(t0.elapsed().as_secs_f64());
            drop(b);
        }
        report.set_setup_s(&run.setup_s);
    }
    report.print();
    if let Some(dir) = &args.out {
        if let Err(e) = report.write(dir) {
            eprintln!("normbench: writing results to {}: {e}", dir.display());
            return ExitCode::from(3);
        }
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
