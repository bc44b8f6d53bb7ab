//! The shared telemetry hub.
//!
//! One [`Telemetry`] handle is cloned into every component of a simulated
//! host (NIC, netstack, NAT, host glue). It is an `Rc` over interior-
//! mutable state — the whole workspace is single-threaded and
//! deterministic, so no locking is needed and event order is exactly
//! simulation order.
//!
//! Overhead discipline (the "effectively free when disabled" guarantee):
//!
//! * [`Telemetry::emit`] takes a *closure*. When tracing is off the only
//!   work done is one `Cell<bool>` load — the event (and any `String`
//!   attribution inside it) is never constructed.
//! * [`Telemetry::record_hist`] is likewise gated on the same flag before
//!   touching the `RefCell`.
//! * Frame-id allocation is a bare `Cell<u64>` increment and runs even
//!   when disabled, so ids are stable across enable/disable and replay
//!   remains deterministic.
//!
//! Two data structures live behind the handle:
//!
//! * the **event buffer** — a bounded ring of [`TraceEvent`]s (oldest
//!   evicted first, with an eviction counter so truncation is visible);
//! * the **ledger** — per-[`Stage`] and per-[`DropCause`] totals that
//!   never evict. Audits cross-check the ledger (not the buffer) against
//!   dataplane counters, so conservation checking survives buffer wrap.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use sim::stats::Histogram;
use sim::Dur;

use std::path::Path;

use crate::collect::{CollectError, CollectorRegistry, CollectorSet, Profile};
use crate::event::{DropCause, RecoveryEvent, RecoveryKind, Stage, TraceEvent, TraceFilter};
use crate::file::{EventFileWriter, FileError, SinkStats};
use crate::metrics::Registry;

/// Default event-buffer capacity (events, not bytes).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Handle to a pre-registered latency histogram; lets hot paths record
/// by index without a name lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// A running collection: the durable file sink a profile attached.
/// Events stream through `writer` (bounded buffering — one `BufWriter`
/// block); the first write error is latched and surfaced when the
/// collection finishes, so the hot path never branches on I/O results
/// twice.
struct Sink {
    writer: EventFileWriter,
    filter: TraceFilter,
    collectors: CollectorSet,
    spill_ledger: bool,
    error: Option<FileError>,
}

impl Sink {
    fn offer(&mut self, event: &TraceEvent) {
        if self.error.is_some() || !self.filter.matches(event) || !self.collectors.wants(event) {
            return;
        }
        if let Err(e) = self.writer.append_event(event) {
            self.error = Some(e);
        }
    }

    fn offer_recovery(&mut self, event: &RecoveryEvent) {
        if self.error.is_some() || !self.collectors.wants_recovery(event) {
            return;
        }
        if let Err(e) = self.writer.append_recovery(event) {
            self.error = Some(e);
        }
    }
}

struct Hub {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    evicted: u64,
    stage_counts: [u64; Stage::COUNT],
    drop_counts: [u64; DropCause::COUNT],
    hists: Vec<(String, Histogram)>,
    /// Failure-domain transitions (crash, reset, restart, degrade).
    /// Control-plane-scale and rare, so unbounded and — unlike frame
    /// events — recorded even when tracing is disabled: a chaos run's
    /// recovery story must be observable without paying for per-frame
    /// tracing.
    recovery: Vec<RecoveryEvent>,
    recovery_counts: [u64; RecoveryKind::COUNT],
    /// The attached collection sink, when a profile is recording to disk.
    sink: Option<Sink>,
}

impl Hub {
    fn push(&mut self, event: TraceEvent) {
        self.stage_counts[event.stage.index()] += 1;
        if let Some(cause) = event.verdict.drop_cause() {
            self.drop_counts[cause.index()] += 1;
        }
        // While a collection is running, the durable file *is* the query
        // surface — buffering every event a second time in the in-memory
        // ring would double the hot-path cost for a record nobody reads
        // (post-hoc forensics work from the file). The ledger above still
        // counts everything, so conservation audits are unaffected.
        if let Some(sink) = self.sink.as_mut() {
            sink.offer(&event);
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(event);
    }

    fn spill_sink(&mut self) -> Result<(), FileError> {
        let Some(sink) = self.sink.as_mut() else {
            return Ok(());
        };
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        if sink.spill_ledger {
            sink.writer
                .append_ledger(&self.stage_counts, &self.drop_counts, self.evicted)?;
        }
        sink.writer.flush()?;
        Ok(())
    }
}

/// The shared, cheaply-cloneable telemetry handle.
#[derive(Clone)]
pub struct Telemetry {
    enabled: Rc<Cell<bool>>,
    next_frame_id: Rc<Cell<u64>>,
    generation: Rc<Cell<u64>>,
    hub: Rc<RefCell<Hub>>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Creates a disabled hub with the default event-buffer capacity.
    pub fn new() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a disabled hub bounding the event buffer at `capacity`.
    pub fn with_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            enabled: Rc::new(Cell::new(false)),
            next_frame_id: Rc::new(Cell::new(1)),
            generation: Rc::new(Cell::new(0)),
            hub: Rc::new(RefCell::new(Hub {
                // Preallocated: growing to capacity mid-run would memcpy
                // the ring repeatedly inside the traced hot path.
                events: VecDeque::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
                evicted: 0,
                stage_counts: [0; Stage::COUNT],
                drop_counts: [0; DropCause::COUNT],
                hists: Vec::new(),
                recovery: Vec::new(),
                recovery_counts: [0; RecoveryKind::COUNT],
                sink: None,
            })),
        }
    }

    /// Returns whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Turns recording on or off. Turning it on does not clear existing
    /// state; callers that need a clean ledger (audit baselines) call
    /// [`Telemetry::clear`] first.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Allocates the next dataplane-unique frame id (never 0). Runs even
    /// when disabled so ids — and therefore replay — are independent of
    /// whether anyone is watching.
    #[inline]
    pub fn alloc_frame_id(&self) -> u64 {
        let id = self.next_frame_id.get();
        self.next_frame_id.set(id + 1);
        id
    }

    /// Adopts an id already carried by a frame (nonzero) or allocates a
    /// fresh one. Lets an upstream stage (e.g. a NAT box in front of the
    /// NIC) tag the frame first and have the NIC keep the same id.
    #[inline]
    pub fn adopt_frame_id(&self, carried: u64) -> u64 {
        if carried != 0 {
            carried
        } else {
            self.alloc_frame_id()
        }
    }

    /// Sets the policy generation stamped into every subsequently emitted
    /// event. The control plane calls this at commit time so telemetry is
    /// attributable to the exact policy epoch in force.
    pub fn set_generation(&self, generation: u64) {
        self.generation.set(generation);
    }

    /// The policy generation currently stamped into emitted events.
    pub fn generation(&self) -> u64 {
        self.generation.get()
    }

    /// Records the event built by `build` — if tracing is enabled. When
    /// disabled, `build` is never called; the cost is one flag load. The
    /// hub stamps the current policy generation over whatever the builder
    /// left in `generation` (producers write 0).
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if self.enabled.get() {
            let mut event = build();
            event.generation = self.generation.get();
            self.hub.borrow_mut().push(event);
        }
    }

    /// Registers (or finds) the latency histogram `name`, returning a
    /// dense handle for hot-path recording.
    pub fn register_hist(&self, name: &str) -> HistId {
        let mut hub = self.hub.borrow_mut();
        if let Some(i) = hub.hists.iter().position(|(n, _)| n == name) {
            return HistId(i);
        }
        hub.hists.push((name.to_string(), Histogram::new()));
        HistId(hub.hists.len() - 1)
    }

    /// Records a virtual-time sample into a pre-registered histogram —
    /// if tracing is enabled.
    #[inline]
    pub fn record_hist(&self, id: HistId, d: Dur) {
        if self.enabled.get() {
            self.hub.borrow_mut().hists[id.0].1.record_dur(d);
        }
    }

    /// Records a failure-domain transition (crash, reset, shard restart,
    /// degradation flip). Unlike [`Telemetry::emit`] this is *not* gated
    /// on the enabled flag: recovery events are rare, control-plane-scale
    /// facts and a chaos run must be self-describing even with per-frame
    /// tracing off.
    pub fn record_recovery(&self, at: sim::Time, kind: RecoveryKind, detail: impl Into<String>) {
        let mut hub = self.hub.borrow_mut();
        hub.recovery_counts[kind.index()] += 1;
        let event = RecoveryEvent {
            at,
            kind,
            detail: detail.into(),
        };
        if let Some(sink) = hub.sink.as_mut() {
            sink.offer_recovery(&event);
        }
        hub.recovery.push(event);
    }

    /// Total recovery events recorded with `kind`.
    pub fn recovery_count(&self, kind: RecoveryKind) -> u64 {
        self.hub.borrow().recovery_counts[kind.index()]
    }

    /// Snapshot of all recorded recovery events, oldest first.
    pub fn recovery_events(&self) -> Vec<RecoveryEvent> {
        self.hub.borrow().recovery.clone()
    }

    /// Total events recorded at `stage` (ledger; survives buffer wrap).
    pub fn stage_count(&self, stage: Stage) -> u64 {
        self.hub.borrow().stage_counts[stage.index()]
    }

    /// Total drops recorded with `cause` (ledger; survives buffer wrap).
    pub fn drop_count(&self, cause: DropCause) -> u64 {
        self.hub.borrow().drop_counts[cause.index()]
    }

    /// Total drops across all causes.
    pub fn total_drops(&self) -> u64 {
        self.hub.borrow().drop_counts.iter().sum()
    }

    /// Number of events evicted from the bounded buffer so far.
    pub fn evicted(&self) -> u64 {
        self.hub.borrow().evicted
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.hub.borrow().events.len()
    }

    /// Returns `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.hub.borrow().events.iter().cloned().collect()
    }

    /// Buffered events matching `filter`, oldest first.
    pub fn query(&self, filter: &TraceFilter) -> Vec<TraceEvent> {
        self.hub
            .borrow()
            .events
            .iter()
            .filter(|e| filter.matches(e))
            .cloned()
            .collect()
    }

    /// The full buffered lifecycle of one frame, oldest first.
    pub fn lifecycle(&self, frame_id: u64) -> Vec<TraceEvent> {
        self.query(&TraceFilter::any().with_frame(frame_id))
    }

    /// Clears the event buffer, ledger, eviction counter and histogram
    /// contents (registrations survive). Frame-id allocation is *not*
    /// reset — ids stay unique for the life of the hub.
    pub fn clear(&self) {
        let mut hub = self.hub.borrow_mut();
        hub.events.clear();
        hub.evicted = 0;
        hub.stage_counts = [0; Stage::COUNT];
        hub.drop_counts = [0; DropCause::COUNT];
        for (_, h) in hub.hists.iter_mut() {
            *h = Histogram::new();
        }
        hub.recovery.clear();
        hub.recovery_counts = [0; RecoveryKind::COUNT];
    }

    /// Dumps the ledger and histograms into `reg` under `trace.*` /
    /// `lat.*` keys.
    pub fn fill_registry(&self, reg: &mut Registry) {
        let hub = self.hub.borrow();
        for stage in Stage::ALL {
            let n = hub.stage_counts[stage.index()];
            if n != 0 {
                reg.set_counter(&format!("trace.stage.{}", stage.name()), n);
            }
        }
        for cause in DropCause::ALL {
            let n = hub.drop_counts[cause.index()];
            if n != 0 {
                reg.set_counter(&format!("trace.drop.{}", cause.name()), n);
            }
        }
        for kind in RecoveryKind::ALL {
            let n = hub.recovery_counts[kind.index()];
            if n != 0 {
                reg.set_counter(&format!("recovery.{}", kind.name()), n);
            }
        }
        reg.set_counter("trace.buffer.evicted", hub.evicted);
        reg.set_counter("trace.buffer.len", hub.events.len() as u64);
        for (name, h) in hub.hists.iter() {
            reg.merge_hist(name, h);
        }
    }

    /// Attaches a durable file sink driven by `profile`: every
    /// subsequently recorded event that passes the profile's filter and
    /// is wanted by one of its collectors (resolved against `registry`)
    /// streams into the event-series file at `path`. While the sink is
    /// attached, events bypass the in-memory ring (the file is the query
    /// surface; the ledger still counts everything). Does **not** enable
    /// tracing or clear state — callers (e.g. `Host::start_collect`)
    /// own that sequencing.
    pub fn start_sink(
        &self,
        path: &Path,
        profile: &Profile,
        registry: &CollectorRegistry,
    ) -> Result<(), CollectError> {
        let collectors = registry.resolve(&profile.collectors)?;
        let mut hub = self.hub.borrow_mut();
        if hub.sink.is_some() {
            return Err(CollectError::AlreadyCollecting);
        }
        let writer = EventFileWriter::create(path, &profile.name, self.generation.get())?;
        hub.sink = Some(Sink {
            writer,
            filter: profile.filter.clone(),
            collectors,
            spill_ledger: profile.spills_ledger(),
            error: None,
        });
        Ok(())
    }

    /// Whether a collection sink is attached.
    pub fn sink_active(&self) -> bool {
        self.hub.borrow().sink.is_some()
    }

    /// A spill point: writes a ledger snapshot (if the profile asked for
    /// one) and flushes buffered bytes to the OS. No-op without a sink.
    /// Surfaces any write error latched since the last spill.
    pub fn spill_sink(&self) -> Result<(), FileError> {
        self.hub.borrow_mut().spill_sink()
    }

    /// Detaches the sink: writes a final ledger snapshot (when the
    /// profile spills the ledger) and the fin record, flushes, and
    /// returns writer statistics. `Ok(None)` when no sink was attached.
    pub fn finish_sink(&self) -> Result<Option<SinkStats>, FileError> {
        let mut hub = self.hub.borrow_mut();
        let Some(mut sink) = hub.sink.take() else {
            return Ok(None);
        };
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        if sink.spill_ledger {
            sink.writer
                .append_ledger(&hub.stage_counts, &hub.drop_counts, hub.evicted)?;
        }
        let stats = sink.writer.finish()?;
        Ok(Some(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceVerdict;
    use sim::Time;

    fn ev(id: u64, stage: Stage, verdict: TraceVerdict) -> TraceEvent {
        TraceEvent {
            frame_id: id,
            at: Time::from_ns(id),
            stage,
            verdict,
            tuple: None,
            len: 64,
            owner: None,
            generation: 0,
        }
    }

    #[test]
    fn disabled_hub_never_builds_events() {
        let tel = Telemetry::new();
        let mut built = false;
        tel.emit(|| {
            built = true;
            ev(1, Stage::RxIngress, TraceVerdict::Pass)
        });
        assert!(!built, "closure must not run when disabled");
        assert!(tel.is_empty());
        assert_eq!(tel.stage_count(Stage::RxIngress), 0);
    }

    #[test]
    fn ledger_and_buffer_track_events() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        tel.emit(|| ev(1, Stage::RxIngress, TraceVerdict::Pass));
        tel.emit(|| ev(1, Stage::RxDrop, TraceVerdict::Drop(DropCause::Malformed)));
        assert_eq!(tel.len(), 2);
        assert_eq!(tel.stage_count(Stage::RxIngress), 1);
        assert_eq!(tel.stage_count(Stage::RxDrop), 1);
        assert_eq!(tel.drop_count(DropCause::Malformed), 1);
        assert_eq!(tel.total_drops(), 1);
    }

    #[test]
    fn buffer_bounds_but_ledger_survives() {
        let tel = Telemetry::with_capacity(4);
        tel.set_enabled(true);
        for i in 0..10 {
            tel.emit(|| ev(i, Stage::RxIngress, TraceVerdict::Pass));
        }
        assert_eq!(tel.len(), 4);
        assert_eq!(tel.evicted(), 6);
        assert_eq!(tel.stage_count(Stage::RxIngress), 10);
        // Oldest evicted first: remaining ids are 6..10.
        assert_eq!(tel.events()[0].frame_id, 6);
    }

    #[test]
    fn frame_ids_are_unique_and_enable_independent() {
        let tel = Telemetry::new();
        let a = tel.alloc_frame_id();
        tel.set_enabled(true);
        let b = tel.alloc_frame_id();
        assert!(a != 0 && b != 0 && a != b);
        assert_eq!(tel.adopt_frame_id(a), a);
        let c = tel.adopt_frame_id(0);
        assert!(c > b);
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new();
        let other = tel.clone();
        other.set_enabled(true);
        tel.emit(|| ev(3, Stage::TxOffer, TraceVerdict::Pass));
        assert_eq!(other.stage_count(Stage::TxOffer), 1);
        assert_eq!(other.lifecycle(3).len(), 1);
    }

    #[test]
    fn hist_registration_and_gated_recording() {
        let tel = Telemetry::new();
        let h = tel.register_hist("lat.nic.parse");
        let again = tel.register_hist("lat.nic.parse");
        assert_eq!(h, again);
        tel.record_hist(h, Dur::from_ns(50)); // disabled: dropped
        tel.set_enabled(true);
        tel.record_hist(h, Dur::from_ns(30));
        let mut reg = Registry::new();
        tel.fill_registry(&mut reg);
        let snap = reg.snapshot();
        let row = snap.hist("lat.nic.parse").expect("hist present");
        assert_eq!(row.count, 1);
    }

    #[test]
    fn emit_stamps_current_generation() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        tel.emit(|| ev(1, Stage::RxIngress, TraceVerdict::Pass));
        tel.set_generation(5);
        tel.emit(|| ev(2, Stage::RxIngress, TraceVerdict::Pass));
        let events = tel.events();
        assert_eq!(events[0].generation, 0);
        assert_eq!(events[1].generation, 5);
        assert_eq!(tel.generation(), 5);
        let clone = tel.clone();
        assert_eq!(clone.generation(), 5, "clones share the generation cell");
    }

    #[test]
    fn recovery_events_recorded_even_when_disabled() {
        let tel = Telemetry::new();
        assert!(!tel.is_enabled());
        tel.record_recovery(Time::from_ns(5), RecoveryKind::NicCrash, "rx op 7");
        tel.record_recovery(Time::from_ns(9), RecoveryKind::NicReset, "kernel reset");
        assert_eq!(tel.recovery_count(RecoveryKind::NicCrash), 1);
        assert_eq!(tel.recovery_count(RecoveryKind::NicReset), 1);
        assert_eq!(tel.recovery_count(RecoveryKind::ShardPanic), 0);
        let events = tel.recovery_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, RecoveryKind::NicCrash);
        assert_eq!(events[0].detail, "rx op 7");
        let mut reg = Registry::new();
        tel.fill_registry(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("recovery.nic_crash"), Some(1));
        assert_eq!(snap.counter("recovery.nic_reset"), Some(1));
        assert_eq!(snap.counter("recovery.shard_panic"), None);
        tel.clear();
        assert_eq!(tel.recovery_count(RecoveryKind::NicCrash), 0);
        assert!(tel.recovery_events().is_empty());
    }

    #[test]
    fn sink_streams_matching_events_to_disk() {
        use crate::collect::{CollectorRegistry, Profile};
        use crate::file::EventSeries;
        let path =
            std::env::temp_dir().join(format!("norman-hub-sink-{}.nrmtrace", std::process::id()));
        let tel = Telemetry::new();
        tel.set_enabled(true);
        tel.set_generation(4);
        tel.start_sink(
            &path,
            &Profile::drop_forensics(),
            &CollectorRegistry::builtin(),
        )
        .unwrap();
        assert!(tel.sink_active());
        tel.emit(|| ev(1, Stage::RxIngress, TraceVerdict::Pass)); // not collected
        tel.emit(|| ev(1, Stage::RxDrop, TraceVerdict::Drop(DropCause::Malformed)));
        tel.record_recovery(Time::from_ns(9), RecoveryKind::NicCrash, "boom");
        tel.spill_sink().unwrap();
        let stats = tel.finish_sink().unwrap().expect("sink was attached");
        assert!(!tel.sink_active());
        assert_eq!(stats.events, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.ledgers, 2, "one spill + one final snapshot");
        let series = EventSeries::load(&path).unwrap();
        assert_eq!(series.header.profile, "drop-forensics");
        assert_eq!(series.header.generation, 4);
        assert_eq!(series.events.len(), 1);
        assert_eq!(series.events[0].event.stage, Stage::RxDrop);
        assert_eq!(series.events[0].event.generation, 4);
        // The final ledger snapshot saw *both* events (ledger counts all
        // stages, the file keeps only collected ones).
        let ledger = series.ledger.expect("final snapshot");
        assert_eq!(ledger.stage_counts[Stage::RxIngress.index()], 1);
        assert_eq!(ledger.drop_counts[DropCause::Malformed.index()], 1);
        assert!(series.fin.is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clear_resets_ledger_not_ids() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        let before = tel.alloc_frame_id();
        tel.emit(|| ev(9, Stage::RxIngress, TraceVerdict::Pass));
        tel.clear();
        assert!(tel.is_empty());
        assert_eq!(tel.stage_count(Stage::RxIngress), 0);
        assert!(tel.alloc_frame_id() > before);
    }
}
