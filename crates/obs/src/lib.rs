//! # eos-obs — per-operation cost attribution for the EOS stack
//!
//! The paper states every cost in observable units — §4.2 quotes "3
//! disk seeks plus the cost to transfer 6 pages" for a search, and the
//! §5 evaluation is entirely seek/transfer tables — but a raw
//! [`IoStats`] snapshot is *volume-global*: it cannot say which logical
//! operation paid for which I/O. This crate closes that gap in the
//! house style (hand-rolled, zero external dependencies, like
//! `eos-check` and `eos-lint`):
//!
//! * [`Metrics`] — a shareable registry of named atomic
//!   [`Counter`]s, [`Gauge`]s and log2-bucketed [`Histogram`]s, plus a
//!   fixed table of per-operation I/O aggregates.
//! * [`OpSpan`] — a scope guard that snapshots the volume's
//!   [`IoStats`] at entry and exit and attributes the *delta* (seeks,
//!   page reads/writes, simulated µs, faults) plus wall time to one
//!   [`OpKind`]. Spans nest: a child's I/O is subtracted from its
//!   parent, so summing the per-op attributed transfers over a
//!   single-threaded workload reproduces the volume-global delta
//!   exactly (see `tests/paper_costs.rs` at the workspace root).
//! * [`TraceEvent`] ring — a fixed-capacity buffer of the most recent
//!   span completions for post-mortem dumps (`eos stats --trace`).
//! * [`PipeEvent`] ring (eos-trace, DESIGN.md §16) — wait-free
//!   begin/end/instant events carrying a trace id, batch id, thread
//!   ordinal and phase label, for causal timelines of the concurrent
//!   commit pipeline (`eos trace summary|export|dump`), plus the
//!   flight recorder ([`Metrics::flight_dump`]) and a stall watchdog.
//!
//! All recording paths are atomics-only; the few `parking_lot` locks
//! (registry maps, the span stack, ring slots) guard pure in-memory
//! state and are never held across volume I/O, which `eos-lint`'s L3
//! rule enforces for this crate. Overhead is documented in DESIGN.md
//! §11 (<2% on the `compare` bench with metrics on) and §16 for the
//! pipeline events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flight;
mod registry;
mod snapshot;
mod span;
mod trace;
mod tracer;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use eos_pager::{IoStats, SharedVolume};
use parking_lot::Mutex;

pub use flight::{chrome_trace_json, install_flight_panic_hook, pipe_doc_json, FLIGHT_PATH_ENV};
pub use registry::{Counter, Gauge, Histogram};
pub use snapshot::{json_string, render_trace, HistogramSnapshot, MetricsSnapshot, OpSnapshot};
pub use span::OpSpan;
pub use trace::TraceEvent;
pub use tracer::{PipeEvent, PipeKind, PipeSpan, PIN_TRACE_BIT};

use registry::HistogramInner;
use span::IoDelta;
use trace::Ring;
use tracer::thread_ordinal;

/// The logical operations I/O can be attributed to.
///
/// These are the entry points of the object manager plus the three
/// "infrastructure" operations (WAL commit/checkpoint and restart
/// recovery) whose I/O would otherwise pollute the per-op numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `ObjectStore::create_with` — initial object load.
    Create,
    /// `ObjectStore::append` / a public append session.
    Append,
    /// `ObjectStore::read` / `read_all`.
    Read,
    /// `ObjectStore::replace` — in-place overwrite.
    Replace,
    /// `ObjectStore::insert` — mid-object byte insertion.
    Insert,
    /// `ObjectStore::delete` / `truncate` / `delete_object`.
    Delete,
    /// Whole-object compaction (`ObjectStore::compact`); local §4.4
    /// reshuffles stay attributed to the insert/delete that triggered
    /// them and are tracked by the `reshuffle.*` counters instead.
    Reshuffle,
    /// Transaction commit: log frames, data-before-log syncs, deferred
    /// frees published at commit.
    WalCommit,
    /// WAL checkpoint (half-flip + superblock publication).
    WalCheckpoint,
    /// Restart recovery inside `ObjectStore::open_durable`.
    Recovery,
}

impl OpKind {
    /// Every kind, in display order.
    pub const ALL: [OpKind; 10] = [
        OpKind::Create,
        OpKind::Append,
        OpKind::Read,
        OpKind::Replace,
        OpKind::Insert,
        OpKind::Delete,
        OpKind::Reshuffle,
        OpKind::WalCommit,
        OpKind::WalCheckpoint,
        OpKind::Recovery,
    ];

    /// Stable label used in tables, JSON and trace events.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Append => "append",
            OpKind::Read => "read",
            OpKind::Replace => "replace",
            OpKind::Insert => "insert",
            OpKind::Delete => "delete",
            OpKind::Reshuffle => "reshuffle",
            OpKind::WalCommit => "wal.commit",
            OpKind::WalCheckpoint => "wal.checkpoint",
            OpKind::Recovery => "recovery",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-operation atomic aggregates (one row of the fixed op table).
#[derive(Default)]
pub(crate) struct OpAgg {
    pub(crate) count: AtomicU64,
    pub(crate) seeks: AtomicU64,
    pub(crate) page_reads: AtomicU64,
    pub(crate) page_writes: AtomicU64,
    pub(crate) elapsed_us: AtomicU64,
    pub(crate) faults: AtomicU64,
    pub(crate) wall_ns_inclusive: AtomicU64,
    pub(crate) wall_ns_exclusive: AtomicU64,
}

pub(crate) struct OpTable {
    aggs: [OpAgg; OpKind::ALL.len()],
}

impl OpTable {
    fn new() -> Self {
        OpTable {
            aggs: std::array::from_fn(|_| OpAgg::default()),
        }
    }

    pub(crate) fn agg(&self, kind: OpKind) -> &OpAgg {
        &self.aggs[kind.index()]
    }
}

/// Default capacity of the trace ring (events retained for a dump).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Default capacity of the pipeline-event ring (eos-trace, §16).
pub const DEFAULT_PIPE_CAPACITY: usize = 4096;

/// Default stall-watchdog threshold: a phase or lock wait longer than
/// this many microseconds records a [`PipeKind::Stall`] event and bumps
/// the `trace.stalls` counter. Override per domain with
/// [`Metrics::set_stall_threshold_us`], or for [`global`] with the
/// `EOS_TRACE_STALL_US` environment variable.
pub const DEFAULT_STALL_THRESHOLD_US: u64 = 100_000;

struct Inner {
    enabled: AtomicBool,
    /// Domain birth instant — the zero point of [`PipeEvent::ts_ns`].
    born: Instant,
    ops: OpTable,
    // lock-class: counters = obs.counters rank = 60 io = forbidden
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    // lock-class: gauges = obs.gauges rank = 61 io = forbidden
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    // lock-class: histograms = obs.histograms rank = 62 io = forbidden
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
    /// One frame per live span (LIFO); each frame accumulates the
    /// *inclusive* I/O of completed child spans so the parent can
    /// report its own exclusive share.
    // lock-class: stack = obs.stack rank = 63 io = forbidden
    stack: Mutex<Vec<IoDelta>>,
    ring: Ring<TraceEvent>,
    pipe: Ring<PipeEvent>,
    /// Stall-watchdog threshold in µs (0 disables the watchdog).
    stall_threshold_us: AtomicU64,
}

/// A shareable handle to one metrics domain.
///
/// Cloning is cheap (an `Arc` bump); every [`ObjectStore`] gets its own
/// fresh `Metrics` so tests stay isolated, while the CLI threads
/// [`global()`] through every store it opens so counts accumulate
/// across subcommands within one process.
///
/// [`ObjectStore`]: https://docs.rs/eos-core
#[derive(Clone)]
pub struct Metrics {
    inner: Arc<Inner>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// A fresh, enabled metrics domain with the default trace capacity.
    pub fn new() -> Metrics {
        Metrics::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A fresh, enabled metrics domain retaining up to `capacity` trace
    /// events (clamped to at least 1) and the default pipeline-event
    /// capacity.
    pub fn with_trace_capacity(capacity: usize) -> Metrics {
        Metrics::with_capacities(capacity, DEFAULT_PIPE_CAPACITY)
    }

    /// A fresh, enabled metrics domain with explicit trace-ring and
    /// pipeline-ring capacities (each clamped to at least 1).
    pub fn with_capacities(trace_capacity: usize, pipe_capacity: usize) -> Metrics {
        Metrics {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                born: Instant::now(),
                ops: OpTable::new(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                stack: Mutex::new(Vec::new()),
                ring: Ring::new(trace_capacity),
                pipe: Ring::new(pipe_capacity),
                stall_threshold_us: AtomicU64::new(DEFAULT_STALL_THRESHOLD_US),
            }),
        }
    }

    /// Turn recording on or off. Disabled spans skip the entry/exit
    /// stats snapshots entirely, which is what the DESIGN.md §11
    /// overhead measurement toggles.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is recording currently enabled?
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Do these two handles share one domain?
    pub fn same_domain(&self, other: &Metrics) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Open a span attributing `volume`'s I/O delta to `kind` until the
    /// returned guard drops. See [`OpSpan`] for the nesting rules.
    pub fn span(&self, kind: OpKind, volume: &SharedVolume) -> OpSpan {
        OpSpan::open(self.clone(), kind, volume.clone())
    }

    /// Named monotonic counter (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock();
        Counter::from_cell(map.entry(name.to_string()).or_default().clone())
    }

    /// Named gauge (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock();
        Gauge::from_cell(map.entry(name.to_string()).or_default().clone())
    }

    /// Named log2-bucketed histogram (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock();
        Histogram::from_cell(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramInner::new()))
                .clone(),
        )
    }

    /// Point-in-time copy of every aggregate in this domain.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let ops = OpKind::ALL
            .iter()
            .map(|&kind| OpSnapshot::load(kind.label(), self.inner.ops.agg(kind)))
            .collect();
        let (counters, gauges, histograms) = {
            let counters_g = self.inner.counters.lock();
            // lint: allow(latch, reason = "registry maps guard pure in-memory atomics; holding all three yields one consistent snapshot and no volume I/O ever happens under them")
            let gauges_g = self.inner.gauges.lock();
            // lint: allow(latch, reason = "third registry map of the same pure in-memory snapshot; still no volume I/O under any guard")
            let hists_g = self.inner.histograms.lock();
            (
                counters_g
                    .iter()
                    .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                    .collect(),
                gauges_g
                    .iter()
                    .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                    .collect(),
                hists_g
                    .iter()
                    .map(|(k, v)| HistogramSnapshot::load(k, v))
                    .collect(),
            )
        };
        MetricsSnapshot {
            ops,
            counters,
            gauges,
            histograms,
            trace_recorded: self.inner.ring.recorded(),
            trace_capacity: self.inner.ring.capacity() as u64,
            pipe_recorded: self.inner.pipe.recorded(),
            pipe_capacity: self.inner.pipe.capacity() as u64,
        }
    }

    /// The retained trace events, oldest first.
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.inner.ring.events()
    }

    // ---- eos-trace: structured pipeline events (DESIGN.md §16) -----------

    /// Nanoseconds since this domain was created — the timebase of
    /// every [`PipeEvent::ts_ns`], shared across threads.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.born.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record one pipeline event stamped "now" on the current thread.
    /// No-op when the domain is disabled.
    pub fn pipe_event(&self, kind: PipeKind, phase: &'static str, trace_id: u64, batch_id: u64) {
        if !self.enabled() {
            return;
        }
        self.pipe_event_at(self.now_ns(), kind, phase, trace_id, batch_id);
    }

    /// Record one pipeline event with an explicit timestamp — how the
    /// group-commit leader emits Phase A–D spans sharing exact
    /// boundary instants (phase N's end *is* phase N+1's begin, so the
    /// timeline is contiguous by construction).
    pub fn pipe_event_at(
        &self,
        ts_ns: u64,
        kind: PipeKind,
        phase: &'static str,
        trace_id: u64,
        batch_id: u64,
    ) {
        if !self.enabled() {
            return;
        }
        self.inner.pipe.record(|seq| PipeEvent {
            seq,
            ts_ns,
            kind,
            phase,
            trace_id,
            batch_id,
            thread: thread_ordinal(),
        });
    }

    /// Open a begin/end span on the pipeline timeline; the guard's
    /// drop emits the end event and applies the stall watchdog.
    pub fn pipe_span(&self, phase: &'static str, trace_id: u64, batch_id: u64) -> PipeSpan {
        PipeSpan::open(self.clone(), phase, trace_id, batch_id)
    }

    /// The retained pipeline events, oldest first.
    pub fn pipe_events(&self) -> Vec<PipeEvent> {
        self.inner.pipe.events()
    }

    /// Pipeline events recorded since creation (may exceed capacity).
    pub fn pipe_recorded(&self) -> u64 {
        self.inner.pipe.recorded()
    }

    /// Pipeline ring capacity.
    pub fn pipe_capacity(&self) -> usize {
        self.inner.pipe.capacity()
    }

    /// The stall-watchdog threshold in microseconds (0 = off).
    pub fn stall_threshold_us(&self) -> u64 {
        self.inner.stall_threshold_us.load(Ordering::Relaxed)
    }

    /// Set the stall-watchdog threshold in microseconds (0 disables).
    pub fn set_stall_threshold_us(&self, us: u64) {
        self.inner.stall_threshold_us.store(us, Ordering::Relaxed);
    }

    /// Apply the stall watchdog to a measured wall time: past the
    /// threshold, record a [`PipeKind::Stall`] event for `phase` and
    /// bump the `trace.stalls` counter. Returns whether it fired.
    pub fn check_stall(
        &self,
        phase: &'static str,
        trace_id: u64,
        batch_id: u64,
        wall_ns: u64,
    ) -> bool {
        let threshold_us = self.stall_threshold_us();
        if !self.enabled() || threshold_us == 0 || wall_ns / 1000 < threshold_us {
            return false;
        }
        self.pipe_event(PipeKind::Stall, phase, trace_id, batch_id);
        self.counter("trace.stalls").inc();
        true
    }

    pub(crate) fn push_frame(&self) {
        self.inner.stack.lock().push(IoDelta::default());
    }

    /// Close the current frame: pop it, fold this span's *inclusive*
    /// delta into the parent frame (if any), and return the children's
    /// accumulated inclusive I/O.
    pub(crate) fn pop_frame(&self, inclusive: &IoDelta) -> IoDelta {
        let mut stack = self.inner.stack.lock();
        let children = stack.pop().unwrap_or_default();
        if let Some(parent) = stack.last_mut() {
            parent.add(inclusive);
        }
        children
    }

    pub(crate) fn record_op(&self, kind: OpKind, exclusive: &IoDelta, wall_ns: u64) {
        let agg = self.inner.ops.agg(kind);
        agg.count.fetch_add(1, Ordering::Relaxed);
        agg.seeks.fetch_add(exclusive.seeks, Ordering::Relaxed);
        agg.page_reads
            .fetch_add(exclusive.page_reads, Ordering::Relaxed);
        agg.page_writes
            .fetch_add(exclusive.page_writes, Ordering::Relaxed);
        agg.elapsed_us
            .fetch_add(exclusive.elapsed_us, Ordering::Relaxed);
        agg.faults.fetch_add(exclusive.faults, Ordering::Relaxed);
        agg.wall_ns_inclusive.fetch_add(wall_ns, Ordering::Relaxed);
        agg.wall_ns_exclusive
            .fetch_add(exclusive.wall_ns, Ordering::Relaxed);
        self.inner.ring.record(|seq| TraceEvent {
            seq,
            op: kind.label(),
            seeks: exclusive.seeks,
            page_reads: exclusive.page_reads,
            page_writes: exclusive.page_writes,
            elapsed_us: exclusive.elapsed_us,
            wall_ns_inclusive: wall_ns,
            wall_ns_exclusive: exclusive.wall_ns,
        });
    }
}

/// The process-global metrics domain used by the `eos` CLI, so counts
/// accumulate across subcommand invocations within one process.
///
/// Setting `EOS_OBS_DISABLED=1` in the environment starts the domain
/// disabled — the hook DESIGN.md §11's overhead measurement uses to
/// run an experiment binary with span recording off.
pub fn global() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let m = Metrics::new();
        if std::env::var_os("EOS_OBS_DISABLED").is_some_and(|v| v == "1") {
            m.set_enabled(false);
        }
        if let Some(us) = std::env::var("EOS_TRACE_STALL_US")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            m.set_stall_threshold_us(us);
        }
        m
    })
}

/// Saturating per-field difference `now - entry` of two [`IoStats`]
/// snapshots. Saturating because `reset_stats` may race a live span;
/// attribution then loses that span's I/O instead of panicking.
pub fn saturating_io_delta(now: IoStats, entry: IoStats) -> IoStats {
    IoStats {
        seeks: now.seeks.saturating_sub(entry.seeks),
        page_reads: now.page_reads.saturating_sub(entry.page_reads),
        page_writes: now.page_writes.saturating_sub(entry.page_writes),
        read_calls: now.read_calls.saturating_sub(entry.read_calls),
        write_calls: now.write_calls.saturating_sub(entry.write_calls),
        elapsed_us: now.elapsed_us.saturating_sub(entry.elapsed_us),
        read_faults: now.read_faults.saturating_sub(entry.read_faults),
        write_faults: now.write_faults.saturating_sub(entry.write_faults),
        sync_faults: now.sync_faults.saturating_sub(entry.sync_faults),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_pager::MemVolume;

    fn vol() -> SharedVolume {
        MemVolume::new(128, 256).shared()
    }

    #[test]
    fn span_attributes_io_to_its_op() {
        let m = Metrics::new();
        let v = vol();
        {
            let _s = m.span(OpKind::Read, &v);
            v.read_pages(0, 3).unwrap();
        }
        let snap = m.snapshot();
        let read = snap.op("read").unwrap();
        assert_eq!(read.count, 1);
        assert_eq!(read.page_reads, 3);
        assert_eq!(read.page_writes, 0);
        assert!(read.seeks >= 1);
        assert_eq!(snap.op("append").unwrap().count, 0);
    }

    #[test]
    fn nested_spans_attribute_exclusively() {
        let m = Metrics::new();
        let v = vol();
        {
            let _outer = m.span(OpKind::Insert, &v);
            v.write_pages(0, &[1u8; 128]).unwrap();
            {
                let _inner = m.span(OpKind::WalCommit, &v);
                v.write_pages(10, &[2u8; 256]).unwrap();
            }
            v.write_pages(20, &[3u8; 128]).unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.op("insert").unwrap().page_writes, 2);
        assert_eq!(snap.op("wal.commit").unwrap().page_writes, 2);
        // Exclusive attribution sums back to the global delta.
        assert_eq!(snap.attributed_transfers(), v.stats().transfers());
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = Metrics::new();
        m.set_enabled(false);
        assert!(!m.enabled());
        let v = vol();
        {
            let _s = m.span(OpKind::Read, &v);
            v.read_pages(0, 2).unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.op("read").unwrap().count, 0);
        assert_eq!(snap.trace_recorded, 0);
    }

    #[test]
    fn registry_handles_are_shared_by_name() {
        let m = Metrics::new();
        m.counter("x").add(2);
        m.counter("x").add(3);
        m.gauge("g").set(7);
        m.histogram("h").record(5);
        m.histogram("h").record(900);
        let snap = m.snapshot();
        assert_eq!(snap.counter("x"), Some(5));
        assert_eq!(snap.gauge("g"), Some(7));
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 905);
    }

    #[test]
    fn saturating_delta_survives_reset() {
        let entry = IoStats {
            seeks: 10,
            page_reads: 10,
            ..IoStats::default()
        };
        let now = IoStats::default(); // reset_stats happened mid-span
        let d = saturating_io_delta(now, entry);
        assert_eq!(d.seeks, 0);
        assert_eq!(d.page_reads, 0);
    }

    #[test]
    fn global_is_one_domain() {
        assert!(global().same_domain(&global().clone()));
    }

    #[test]
    fn pipe_span_emits_matched_events_on_one_timeline() {
        let m = Metrics::new();
        {
            let _s = m.pipe_span("commit.phase_a", 7, 2);
        }
        let events = m.pipe_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, PipeKind::Begin);
        assert_eq!(events[1].kind, PipeKind::End);
        assert_eq!(events[0].phase, "commit.phase_a");
        assert_eq!(events[0].trace_id, 7);
        assert_eq!(events[1].batch_id, 2);
        assert_eq!(events[0].thread, events[1].thread);
        assert!(events[0].ts_ns <= events[1].ts_ns);
        let snap = m.snapshot();
        assert_eq!(snap.pipe_recorded, 2);
        assert_eq!(snap.pipe_capacity, DEFAULT_PIPE_CAPACITY as u64);
    }

    #[test]
    fn disabled_domain_records_no_pipe_events() {
        let m = Metrics::new();
        m.set_enabled(false);
        m.pipe_event(PipeKind::Instant, "wal.frame", 1, 0);
        {
            let _s = m.pipe_span("commit.phase_b", 1, 1);
        }
        assert_eq!(m.pipe_recorded(), 0);
    }

    #[test]
    fn stall_watchdog_fires_past_threshold_only() {
        let m = Metrics::new();
        assert_eq!(m.stall_threshold_us(), DEFAULT_STALL_THRESHOLD_US);
        m.set_stall_threshold_us(1000);
        assert!(!m.check_stall("commit.phase_c", 3, 1, 999_000));
        assert!(m.check_stall("commit.phase_c", 3, 1, 1_000_000));
        let events = m.pipe_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, PipeKind::Stall);
        assert_eq!(m.snapshot().counter("trace.stalls"), Some(1));
        // Threshold 0 disables the watchdog entirely.
        m.set_stall_threshold_us(0);
        assert!(!m.check_stall("commit.phase_c", 3, 1, u64::MAX));
    }

    #[test]
    fn explicit_timestamps_make_contiguous_phases() {
        let m = Metrics::new();
        let t0 = m.now_ns();
        let t1 = t0 + 10;
        m.pipe_event_at(t0, PipeKind::Begin, "commit.phase_a", 1, 1);
        m.pipe_event_at(t1, PipeKind::End, "commit.phase_a", 1, 1);
        m.pipe_event_at(t1, PipeKind::Begin, "commit.phase_b", 1, 1);
        let events = m.pipe_events();
        assert_eq!(events[1].ts_ns, events[2].ts_ns);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = OpKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec![
                "create",
                "append",
                "read",
                "replace",
                "insert",
                "delete",
                "reshuffle",
                "wal.commit",
                "wal.checkpoint",
                "recovery"
            ]
        );
    }
}
