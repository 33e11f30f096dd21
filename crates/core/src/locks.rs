//! Whole-object locking, the coarse option of §4.5: one exclusive owner
//! per object until commit or abort (strict 2PL). Byte ranges are not
//! offered: under per-scope root shadowing they lose updates (DESIGN.md
//! §7). One owner per lock makes the wait-for graph a set of chains;
//! before blocking and after each wake-up the requester walks the chain
//! from the holder, and reaching itself fails with [`Error::Deadlock`].
//! A stale edge points at a finished transaction (locks go only at
//! commit or abort), which ends the walk: no live transaction is refused.

use std::collections::HashMap;
use std::time::Instant;

use eos_obs::{Counter, Histogram, Metrics, PipeKind};
use parking_lot::{LockClass, TrackedCondvar, TrackedMutex};

use crate::error::{Error, Result};

/// A transaction identity.
pub type TxnId = u64;

#[derive(Default)]
struct State {
    /// Object → owner.
    owner: HashMap<u64, TxnId>,
    /// Owner → objects held, so a release touches only its own entries.
    held: HashMap<TxnId, Vec<u64>>,
    /// Waiter → the holder it waits on (the wait-for edges).
    waits: HashMap<TxnId, TxnId>,
}

impl State {
    /// Whether `txn` waiting on `holder` closes a cycle (bound: a guard).
    fn closes_cycle(&self, txn: TxnId, holder: TxnId) -> bool {
        std::iter::successors(Some(holder), |at| self.waits.get(at).copied())
            .take(self.waits.len() + 1)
            .any(|at| at == txn)
    }
}

/// The exclusive per-object lock table of a
/// [`ConcurrentStore`](crate::ConcurrentStore).
pub(crate) struct ObjectLocks {
    // lock-class: state = locks.state rank = 20 io = forbidden
    state: TrackedMutex<State>,
    cv: TrackedCondvar,
    /// `locks.*`: grants (repeats included), requests that found another
    /// holder (counted before waiting), waits, and microseconds waited.
    acquired: Counter,
    conflicts: Counter,
    blocks: Counter,
    wait_us: Histogram,
    /// Waits emit `lock.block` begin/end events and feed the watchdog.
    metrics: Metrics,
}

impl ObjectLocks {
    pub(crate) fn new(metrics: &Metrics) -> ObjectLocks {
        ObjectLocks {
            state: TrackedMutex::new(LockClass::forbids_io("locks.state"), State::default()),
            cv: TrackedCondvar::new(),
            acquired: metrics.counter("locks.acquired"),
            conflicts: metrics.counter("locks.conflicts"),
            blocks: metrics.counter("locks.blocks"),
            wait_us: metrics.histogram("locks.wait_us"),
            metrics: metrics.clone(),
        }
    }

    /// Lock `object` for `txn`, waiting while another transaction holds
    /// it; [`Error::Deadlock`] if waiting would close a cycle.
    pub(crate) fn lock_object(&self, txn: TxnId, object: u64) -> Result<()> {
        let (mut blocked, mut st) = (None, self.state.lock());
        let granted = loop {
            let holder = match st.owner.get(&object) {
                Some(&h) if h == txn => break Ok(()),
                Some(&h) => h,
                None => {
                    st.owner.insert(object, txn);
                    st.held.entry(txn).or_default().push(object);
                    break Ok(());
                }
            };
            if blocked.is_none() {
                self.conflicts.inc();
            }
            if st.closes_cycle(txn, holder) {
                break Err(Error::Deadlock { txn, object });
            }
            st.waits.insert(txn, holder);
            blocked.get_or_insert_with(|| {
                self.metrics
                    .pipe_event(PipeKind::Begin, "lock.block", txn, 0);
                Instant::now()
            });
            self.cv.wait(&mut st);
        };
        st.waits.remove(&txn);
        drop(st);
        if granted.is_ok() {
            self.acquired.inc();
        }
        if let Some(t0) = blocked {
            let waited = t0.elapsed();
            self.blocks.inc();
            let ns = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
            self.wait_us.record(ns / 1_000);
            self.metrics.pipe_event(PipeKind::End, "lock.block", txn, 0);
            self.metrics.check_stall("lock.block", txn, 0, ns);
        }
        granted
    }

    /// Release every lock `txn` holds and wake the waiters.
    pub(crate) fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        if let Some(objects) = st.held.remove(&txn) {
            for object in objects {
                st.owner.remove(&object);
            }
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reacquire_by_same_txn_is_compatible() {
        let lm = ObjectLocks::new(&Metrics::new());
        lm.lock_object(1, 7).unwrap();
        lm.lock_object(1, 7).unwrap();
        assert_eq!(lm.state.lock().held[&1], vec![7]);
        lm.release_all(1);
        let st = lm.state.lock();
        assert!(st.owner.is_empty() && st.held.is_empty() && st.waits.is_empty());
    }

    #[test]
    fn blocking_lock_wakes_on_release() {
        let lm = std::sync::Arc::new(ObjectLocks::new(&Metrics::new()));
        lm.lock_object(1, 7).unwrap();
        let lm2 = lm.clone();
        let waiter = std::thread::spawn(move || lm2.lock_object(2, 7));
        while !lm.state.lock().waits.contains_key(&2) {
            std::thread::yield_now();
        }
        lm.release_all(1);
        waiter.join().unwrap().unwrap();
    }

    /// Txn 2 waits for txn 1; txn 1's request for txn 2's object would
    /// close the cycle and is refused without waiting.
    #[test]
    fn metrics_capture_conflicts_blocks_and_waits() {
        let m = Metrics::new();
        let lm = std::sync::Arc::new(ObjectLocks::new(&m));
        lm.lock_object(1, 7).unwrap();
        lm.lock_object(2, 8).unwrap();
        let lm2 = lm.clone();
        let waiter = std::thread::spawn(move || lm2.lock_object(2, 7));
        while m.snapshot().counter("locks.conflicts") != Some(1) {
            std::thread::yield_now();
        }
        let refused = lm.lock_object(1, 8).unwrap_err();
        assert!(matches!(refused, Error::Deadlock { txn: 1, object: 8 }));
        lm.release_all(1);
        waiter.join().unwrap().unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.counter("locks.acquired"), Some(3));
        assert_eq!(snap.counter("locks.conflicts"), Some(2));
        assert_eq!(snap.counter("locks.blocks"), Some(1));
        let wait = snap.histogram("locks.wait_us").unwrap();
        assert_eq!(wait.count, 1);
        assert!(wait.sum > 0, "blocked for a measurable time");
    }
}
