//! Discrete-event simulation substrate for the Norman KOPI reproduction.
//!
//! This crate provides the foundation every other crate in the workspace
//! builds on:
//!
//! * [`time`] — picosecond-resolution virtual time ([`Time`]) and durations
//!   ([`Dur`]). Picoseconds are required because a 64-byte frame on a
//!   100 Gbps link serializes in 5.12 ns; nanosecond resolution would
//!   accumulate large rounding errors across millions of packets.
//! * [`engine`] — a deterministic discrete-event queue with stable FIFO
//!   ordering for simultaneous events.
//! * [`rng`] — a seeded, deterministic random number generator with the
//!   distributions the workload generators need (uniform, exponential,
//!   Zipf, Pareto).
//! * [`stats`] — streaming summaries, log-bucketed latency histograms,
//!   time series, and rate meters used by the experiment harnesses.
//! * [`link`] — serialization/propagation delay modelling for a fixed-rate
//!   network link.
//! * [`fault`] — seeded wire faults (loss, corruption, reordering) and
//!   op-schedule crash and control-op fault injectors.
//! * [`hash`] — the fast deterministic hasher behind hot-path maps.
//!
//! Tracing note: the free-form `sim::trace::Tracer` this crate once
//! carried is gone. Typed per-packet lifecycle tracing lives in the
//! `telemetry` crate (`telemetry::Telemetry`, `telemetry::TraceEvent`),
//! which adds the stage/drop-cause vocabulary, uid/pid attribution, and
//! the durable trace pipeline the legacy recorder lacked.
//!
//! All simulation state is single-threaded and deterministic: running the
//! same experiment twice with the same seed produces byte-identical output.

pub mod engine;
pub mod fault;
pub mod hash;
pub mod link;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{EventQueue, ScheduledId};
pub use fault::{
    CrashInjector, FaultInjector, FaultSchedule, FaultStats, FaultyLink, LossModel,
    OpFaultInjector, Verdict, WireDelivery,
};
pub use hash::{FastMap, FxHasher};
pub use link::Link;
pub use rng::DetRng;
pub use stats::{Counter, Histogram, RateMeter, Summary, TimeSeries};
pub use time::{Dur, Time};
