//! The §4.5 object lock as a `ConcurrentStore` writer sees it: a write
//! waits while another transaction holds the object, whatever bytes
//! either touches; strict 2PL releases every lock at commit and leaves
//! no entry behind; and two transactions colliding in opposite orders
//! end in a typed error that the refused one backs off from, not a hang.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eos_core::obs::Metrics;
use eos_core::{ConcurrentStore, Error, LargeObject, ObjectStore, StoreConfig, Txn};
use eos_pager::{DiskProfile, MemVolume};

/// A durable store whose lock metrics land in `metrics`, with two
/// committed 2 000-byte objects.
fn store(metrics: &Metrics) -> (ConcurrentStore, LargeObject, LargeObject) {
    let volume = MemVolume::with_profile(1024, 2 * 257 + 62, DiskProfile::FREE).shared();
    let mut store =
        ObjectStore::create_durable(volume, 2, 256, StoreConfig::default(), 62).unwrap();
    store.set_metrics(metrics);
    let cs = ConcurrentStore::new(store);
    let txn = cs.begin();
    let a = txn.create(&[0u8; 2_000], None).unwrap();
    let b = txn.create(&[0u8; 2_000], None).unwrap();
    txn.commit().unwrap();
    (cs, a, b)
}

fn counter(metrics: &Metrics, name: &str) -> u64 {
    metrics.snapshot().counter(name).unwrap_or(0)
}

/// Run `f` in a transaction on its own thread and return once it has
/// found the lock it needs held (`locks.conflicts` moved): it is then
/// parked, or about to park, on the holder.
fn blocked_writer(
    cs: &ConcurrentStore,
    metrics: &Metrics,
    f: impl FnOnce(&Txn) + Send + 'static,
) -> JoinHandle<()> {
    let before = counter(metrics, "locks.conflicts");
    let cs = cs.clone();
    let t = std::thread::spawn(move || {
        let txn = cs.begin();
        f(&txn);
        txn.commit().unwrap();
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while counter(metrics, "locks.conflicts") == before {
        assert!(Instant::now() < deadline, "the writer never met the lock");
        std::thread::yield_now();
    }
    t
}

/// A write to an overlapping range waits until the holder commits, then
/// edits the version the holder committed.
#[test]
fn overlapping_range_blocks_until_release() {
    let m = Metrics::new();
    let (cs, mut a, _) = store(&m);
    let holder = cs.begin();
    holder.replace(&mut a, 0, &[1u8; 1_000]).unwrap();
    let mut a2 = a.clone();
    let t = blocked_writer(&cs, &m, move |txn| {
        txn.replace(&mut a2, 500, &[2u8; 100]).unwrap();
    });
    holder.commit().unwrap();
    t.join().unwrap();
    let bytes = cs.snapshot().read_all(a.id()).unwrap();
    assert_eq!(&bytes[..500], &[1u8; 500][..]);
    assert_eq!(&bytes[500..600], &[2u8; 100][..]);
    assert_eq!(&bytes[600..1_000], &[1u8; 400][..]);
    assert_eq!(counter(&m, "locks.blocks"), 1);
}

/// The lock covers the object, so even a disjoint byte range waits,
/// while another object is free.
#[test]
fn whole_object_lock_blocks_all_ranges() {
    let m = Metrics::new();
    let (cs, mut a, mut b) = store(&m);
    let holder = cs.begin();
    holder.replace(&mut a, 0, &[1u8; 10]).unwrap();
    let other = cs.begin();
    other.replace(&mut b, 0, &[3u8; 10]).unwrap();
    other.commit().unwrap();
    assert_eq!(counter(&m, "locks.conflicts"), 0, "another object is free");

    let mut a2 = a.clone();
    let t = blocked_writer(&cs, &m, move |txn| {
        txn.append(&mut a2, &[2u8; 10]).unwrap();
    });
    holder.abort().unwrap();
    t.join().unwrap();
    assert_eq!(cs.snapshot().size_of(a.id()).unwrap(), 2_010);
}

/// Strict 2PL: a transaction accumulates locks while it works and
/// releases them all at commit. A waiter that needs two of them sees
/// the whole set vanish at once, and no entry leaks: a later writer of
/// both objects never waits.
#[test]
fn strict_2pl_releases_everything_at_commit() {
    let m = Metrics::new();
    let (cs, mut a, mut b) = store(&m);
    let holder = cs.begin();
    holder.replace(&mut a, 0, &[1u8; 10]).unwrap();
    holder.insert(&mut a, 90, &[1u8; 30]).unwrap();
    holder.delete(&mut b, 500, 10).unwrap();
    let (mut a2, mut b2) = (a.clone(), b.clone());
    let t = blocked_writer(&cs, &m, move |txn| {
        txn.replace(&mut a2, 100, &[2u8; 10]).unwrap();
        txn.replace(&mut b2, 600, &[2u8; 10]).unwrap();
    });
    holder.commit().unwrap();
    t.join().unwrap();
    assert_eq!(counter(&m, "locks.blocks"), 1, "one wait, for both locks");

    let later = cs.begin();
    later.truncate(&mut a, 100).unwrap();
    later.truncate(&mut b, 100).unwrap();
    later.commit().unwrap();
    assert_eq!(counter(&m, "locks.conflicts"), 1, "a lock outlived its txn");
}

/// Two transactions take the two objects in opposite orders, the
/// classic deadlock shape. The one whose wait would close the cycle is
/// refused with `Error::Deadlock`, backs off (its abort releases its
/// lock, then it pauses) and retries from scratch: both updates land,
/// once each, and nothing hangs. Locks are not handed to waiters in
/// order, so a retry that comes back before the woken waiter runs can
/// take its first lock again and be refused again; the pause makes
/// that rare, and the count is only bounded below.
#[test]
fn two_txn_interleaving_with_backoff_never_deadlocks() {
    let m = Metrics::new();
    let (cs, a, b) = store(&m);
    let both_hold_one = Arc::new(Barrier::new(2));
    let (tx, rx) = mpsc::channel();
    for (at, stamp, first, second) in [(0, 1u8, &a, &b), (1_000, 2, &b, &a)] {
        let (cs, barrier, tx) = (cs.clone(), both_hold_one.clone(), tx.clone());
        let (mut first, mut second) = (first.clone(), second.clone());
        std::thread::spawn(move || {
            let mut refusals = 0;
            loop {
                let txn = cs.begin();
                txn.replace(&mut first, at, &[stamp; 100]).unwrap();
                if refusals == 0 {
                    barrier.wait();
                }
                match txn.replace(&mut second, at, &[stamp; 100]) {
                    Ok(()) => break txn.commit().unwrap(),
                    Err(Error::Deadlock { .. }) => refusals += 1,
                    Err(e) => panic!("{e}"),
                }
                txn.abort().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            tx.send(refusals).unwrap();
        });
    }
    let refusals: u32 = (0..2)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("the schedule hung")
        })
        .sum();
    assert!(refusals >= 1, "the opposite orders never met");
    let snap = cs.snapshot();
    for id in [a.id(), b.id()] {
        let bytes = snap.read_all(id).unwrap();
        assert_eq!(&bytes[..100], &[1u8; 100][..]);
        assert_eq!(&bytes[1_000..1_100], &[2u8; 100][..]);
    }
}
