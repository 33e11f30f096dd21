//! Fixed-capacity event ring, and the completed-span trace events
//! it retains.
//!
//! The ring is wait-free for writers on the hot path: a single atomic
//! sequence allocation picks the slot, and each slot has its own tiny
//! latch so concurrent writers never contend on a shared guard. On
//! overflow the oldest event is overwritten — post-mortem dumps always
//! show the *most recent* `capacity` completions, and the snapshot's
//! `trace_recorded` count says how many were recorded in total (so a
//! reader can tell that `recorded - capacity` events were dropped).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// One completed span, as retained for post-mortem dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (0-based, monotonically increasing).
    pub seq: u64,
    /// The operation label (see [`crate::OpKind::label`]).
    pub op: &'static str,
    /// Seeks attributed exclusively to this span.
    pub seeks: u64,
    /// Pages read, exclusive.
    pub page_reads: u64,
    /// Pages written, exclusive.
    pub page_writes: u64,
    /// Simulated microseconds, exclusive.
    pub elapsed_us: u64,
    /// Wall-clock nanoseconds **inclusive** of child spans — "how long
    /// did the caller wait". Note the convention differs from the I/O
    /// fields above, which are exclusive; use
    /// [`TraceEvent::wall_ns_exclusive`] when summing rows so nested
    /// spans are not double-counted.
    pub wall_ns_inclusive: u64,
    /// Wall-clock nanoseconds **exclusive** of child spans (inclusive
    /// minus the children's inclusive wall) — the same convention as
    /// the I/O fields, safe to sum across rows.
    pub wall_ns_exclusive: u64,
}

/// Wait-free overwrite-oldest ring, shared by the completed-span
/// [`TraceEvent`]s and the pipeline [`crate::PipeEvent`]s.
pub(crate) struct Ring<T> {
    next: AtomicU64,
    // One tiny latch per slot, never held across another acquisition:
    // above every core latch so an event can be recorded while any of
    // them is held.
    // lock-class: slots = obs.ring rank = 64 io = forbidden
    slots: Vec<Mutex<Option<(u64, T)>>>,
}

impl<T: Copy> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        let capacity = capacity.max(1);
        Ring {
            next: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (may exceed capacity).
    pub(crate) fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Allocate the next sequence number and store the event `stamp`
    /// builds around it.
    pub(crate) fn record(&self, stamp: impl FnOnce(u64) -> T) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        *self.slots[idx].lock() = Some((seq, stamp(seq)));
    }

    /// The retained events, oldest first. Under concurrent writers the
    /// result is a best-effort consistent view (each slot is read
    /// atomically; ordering is restored by sequence number).
    pub(crate) fn events(&self) -> Vec<T> {
        let mut out: Vec<(u64, T)> = self.slots.iter().filter_map(|slot| *slot.lock()).collect();
        out.sort_by_key(|&(seq, _)| seq);
        out.into_iter().map(|(_, ev)| ev).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &'static str) -> impl FnOnce(u64) -> TraceEvent {
        move |seq| TraceEvent {
            seq,
            op,
            seeks: 1,
            page_reads: 2,
            page_writes: 3,
            elapsed_us: 4,
            wall_ns_inclusive: 5,
            wall_ns_exclusive: 5,
        }
    }

    #[test]
    fn retains_most_recent_on_overflow() {
        let ring = Ring::new(4);
        for _ in 0..10 {
            ring.record(ev("read"));
        }
        assert_eq!(ring.recorded(), 10);
        let events = ring.events();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = Ring::new(0);
        ring.record(ev("append"));
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.events().len(), 1);
    }

    #[test]
    fn events_come_back_oldest_first() {
        let ring = Ring::new(8);
        ring.record(ev("create"));
        ring.record(ev("read"));
        let events = ring.events();
        assert_eq!(events[0].op, "create");
        assert_eq!(events[1].op, "read");
    }
}
