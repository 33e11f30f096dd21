//! eos-trace — wait-free, thread-aware structured pipeline events.
//!
//! The [`crate::TraceEvent`] ring answers "what did completed spans
//! cost"; this module answers "where did a commit's wall time go". A
//! [`PipeEvent`] is a begin/end/instant mark on a causal timeline: it
//! carries a `trace_id` (the TxnId of a committing scope, or a snapshot
//! pin's epoch with [`PIN_TRACE_BIT`] set), the group-commit `batch_id`
//! linking a leader's phase spans to every follower it retired, a
//! small per-process thread ordinal, and a static phase label
//! (`commit.phase_a`, `wal.force`, `lock.block`, …).
//!
//! Events land in a second instance of the trace ring (`Ring<T>`):
//! one atomic sequence allocation picks the slot, each slot has its
//! own tiny latch, overflow overwrites the oldest event. Timestamps are
//! nanoseconds since the owning [`crate::Metrics`] domain was created,
//! so events from different threads order on one clock. DESIGN.md §16
//! documents the schema and the trace_id propagation rules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::Metrics;

/// Set on `trace_id` when the id is a snapshot-pin epoch rather than a
/// TxnId, so the two id spaces never collide on a timeline.
pub const PIN_TRACE_BIT: u64 = 1 << 63;

/// What a pipeline event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeKind {
    /// A phase opened (matched by an [`PipeKind::End`] with the same
    /// phase label and trace id, later on the timeline).
    Begin,
    /// A phase closed.
    End,
    /// A point event with no duration (frame append, park, wake).
    Instant,
    /// A stall-watchdog firing: the matching phase exceeded the
    /// domain's stall threshold. `ts_ns` is the detection time.
    Stall,
}

impl PipeKind {
    /// Stable label used in dumps (`begin`, `end`, `instant`, `stall`).
    pub fn label(self) -> &'static str {
        match self {
            PipeKind::Begin => "begin",
            PipeKind::End => "end",
            PipeKind::Instant => "instant",
            PipeKind::Stall => "stall",
        }
    }

    /// The Chrome `trace_event` phase code (`B`, `E`, `i`).
    pub fn chrome_ph(self) -> &'static str {
        match self {
            PipeKind::Begin => "B",
            PipeKind::End => "E",
            PipeKind::Instant | PipeKind::Stall => "i",
        }
    }
}

/// One structured pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeEvent {
    /// Global sequence number (0-based, monotonically increasing).
    pub seq: u64,
    /// Nanoseconds since the owning metrics domain was created.
    pub ts_ns: u64,
    /// Begin/end/instant/stall.
    pub kind: PipeKind,
    /// Static phase label (`commit.phase_a`, `wal.force`, …).
    pub phase: &'static str,
    /// TxnId of the scope, or pin epoch with [`PIN_TRACE_BIT`] set;
    /// 0 when the event belongs to no transaction (a checkpoint, say).
    pub trace_id: u64,
    /// Group-commit batch the event belongs to; 0 when unknown or not
    /// applicable (a follower learns its batch id only on retirement).
    pub batch_id: u64,
    /// Small per-process thread ordinal (first use assigns 1, 2, …).
    pub thread: u64,
}

/// The per-thread ordinal stamped into [`PipeEvent::thread`]: stable
/// for the thread's lifetime, assigned 1, 2, … on first use.
pub(crate) fn thread_ordinal() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: Cell<u64> = const { Cell::new(0) };
    }
    ORDINAL.with(|cell| {
        let v = cell.get();
        if v != 0 {
            return v;
        }
        let v = NEXT.fetch_add(1, Ordering::Relaxed);
        cell.set(v);
        v
    })
}

/// A scope guard emitting a [`PipeKind::Begin`] on creation and the
/// matching [`PipeKind::End`] on drop, with the stall watchdog applied
/// to the span's wall time. Disabled domains make it a no-op.
#[must_use = "a PipeSpan emits its End event only when dropped"]
pub struct PipeSpan {
    metrics: Metrics,
    phase: &'static str,
    trace_id: u64,
    batch_id: u64,
    started: Instant,
    armed: bool,
}

impl PipeSpan {
    pub(crate) fn open(
        metrics: Metrics,
        phase: &'static str,
        trace_id: u64,
        batch_id: u64,
    ) -> PipeSpan {
        let armed = metrics.enabled();
        if armed {
            metrics.pipe_event(PipeKind::Begin, phase, trace_id, batch_id);
        }
        PipeSpan {
            metrics,
            phase,
            trace_id,
            batch_id,
            started: Instant::now(),
            armed,
        }
    }
}

impl Drop for PipeSpan {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.metrics
            .pipe_event(PipeKind::End, self.phase, self.trace_id, self.batch_id);
        let wall_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metrics
            .check_stall(self.phase, self.trace_id, self.batch_id, wall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ordinals_are_stable_and_distinct() {
        let here = thread_ordinal();
        assert_eq!(here, thread_ordinal());
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, 0);
        assert_ne!(other, 0);
        assert_ne!(here, other);
    }

    #[test]
    fn kind_labels_and_chrome_phases() {
        assert_eq!(PipeKind::Begin.label(), "begin");
        assert_eq!(PipeKind::Begin.chrome_ph(), "B");
        assert_eq!(PipeKind::End.chrome_ph(), "E");
        assert_eq!(PipeKind::Instant.chrome_ph(), "i");
        assert_eq!(PipeKind::Stall.label(), "stall");
        assert_eq!(PipeKind::Stall.chrome_ph(), "i");
    }
}
