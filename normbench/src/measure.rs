//! Wall-clock instruments: spans the benchmark records around its own
//! calls into each layer, the calling thread's CPU clock, and the order
//! statistics every reported figure is built from.

use std::time::{Duration, Instant};

/// The calls the benchmark times from outside `Host`. Each is one span
/// kind; a traced run accumulates wall time and call counts per kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// `Host::adopt_frame`, timed over the step's whole batch.
    Adopt,
    /// `Host::pump`.
    Pump,
    /// `Host::app_recv`, including the final empty poll per connection.
    AppRecv,
    /// `Host::app_send`.
    AppSend,
    /// `Host::pump_tx` called by the application's TX loop.
    PumpTx,
    /// `Host::connect` on connection churn.
    Connect,
    /// `Host::close`.
    Close,
    /// `Host::accept`.
    Accept,
    /// `Host::update_policy`.
    Commit,
    /// `Host::quiesce`.
    Quiesce,
    /// `NetStack::recv` on the listener's kernel socket.
    SockRecv,
}

impl Span {
    pub const COUNT: usize = 11;
}

#[derive(Clone, Copy, Default, Debug)]
pub struct SpanAcc {
    pub wall: Duration,
    /// Work items covered (frames for `Adopt` and `Pump`, else calls).
    pub items: u64,
}

impl SpanAcc {
    /// Mean wall nanoseconds per item, or 0 when the span never ran.
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.wall.as_nanos() as f64 / self.items as f64
        }
    }
}

/// Span recorder. While `on` is false, [`Spans::time`] calls straight
/// through and reads no clock, so an untraced block pays one branch per
/// call.
pub struct Spans {
    pub on: bool,
    pub acc: [SpanAcc; Span::COUNT],
    /// Calling-thread CPU time spent inside `Host::pump` (traced blocks).
    pub pump_cpu: Duration,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            on: false,
            acc: [SpanAcc::default(); Span::COUNT],
            pump_cpu: Duration::ZERO,
        }
    }

    #[inline]
    pub fn time<R>(&mut self, span: Span, items: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let a = &mut self.acc[span as usize];
        a.wall += t0.elapsed();
        a.items += items;
        r
    }

    /// [`Spans::time`] for `Host::pump`, also charging the calling
    /// thread's CPU time so the wait for worker shards can be separated
    /// from work done on the caller.
    #[inline]
    pub fn time_pump<R>(&mut self, items: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let c0 = thread_cpu();
        let r = self.time(Span::Pump, items, f);
        self.pump_cpu += thread_cpu().saturating_sub(c0);
        r
    }

    pub fn get(&self, span: Span) -> SpanAcc {
        self.acc[span as usize]
    }

    pub fn total_wall(&self) -> Duration {
        self.acc.iter().map(|a| a.wall).sum()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Contiguous segments the timed phase is split into, by wall time.
/// Wall-clock figures are medians over segments, so a burst of machine
/// noise moves one segment, not the result.
pub const SEGMENTS: usize = 30;

/// One segment's wall-clock figures.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// Frames completed per second of step time, millions.
    pub mfps: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
}

/// Per-step wall times folded into segment figures as the run goes, so
/// memory stays flat however many steps the run makes.
pub struct Steps {
    seg_len: Duration,
    cur_ns: Vec<u64>,
    cur_done: u64,
    pub segments: Vec<Segment>,
    pub count: u64,
    /// Step time and step count with spans on and off (traced runs).
    pub on_ns: u64,
    pub on_steps: u64,
    pub off_ns: u64,
    pub off_steps: u64,
}

impl Steps {
    pub fn new(budget: Duration) -> Steps {
        Steps {
            seg_len: budget / SEGMENTS as u32,
            cur_ns: Vec::with_capacity(1 << 16),
            cur_done: 0,
            segments: Vec::with_capacity(SEGMENTS),
            count: 0,
            on_ns: 0,
            on_steps: 0,
            off_ns: 0,
            off_steps: 0,
        }
    }

    /// Records one step of `ns` that completed `done` frames, ending at
    /// `elapsed` into the timed phase.
    pub fn push(&mut self, ns: u64, done: u64, traced: bool, elapsed: Duration) {
        self.count += 1;
        self.cur_ns.push(ns);
        self.cur_done += done;
        if traced {
            self.on_ns += ns;
            self.on_steps += 1;
        } else {
            self.off_ns += ns;
            self.off_steps += 1;
        }
        let boundary = self.seg_len * (self.segments.len() as u32 + 1);
        if self.segments.len() + 1 < SEGMENTS && elapsed >= boundary {
            self.close();
        }
    }

    /// Closes the last segment.
    pub fn finish(&mut self) {
        if !self.cur_ns.is_empty() {
            self.close();
        }
    }

    fn close(&mut self) {
        let total: u64 = self.cur_ns.iter().sum();
        let mfps = self.cur_done as f64 * 1e3 / total.max(1) as f64;
        let p50_ns = quantile(&mut self.cur_ns, 0.50);
        let p95_ns = quantile(&mut self.cur_ns, 0.95);
        self.segments.push(Segment {
            mfps,
            p50_ns,
            p95_ns,
        });
        self.cur_ns.clear();
        self.cur_done = 0;
    }

    /// Medians over segments: (Mframe/s, p50 step ns, p95 step ns).
    pub fn medians(&self) -> (f64, f64, f64) {
        let col = |f: fn(&Segment) -> f64| median(&self.segments.iter().map(f).collect::<Vec<_>>());
        (
            col(|s| s.mfps),
            col(|s| s.p50_ns as f64),
            col(|s| s.p95_ns as f64),
        )
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; sorts `v` in place.
/// Returns 0 for an empty sample.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of floats (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
