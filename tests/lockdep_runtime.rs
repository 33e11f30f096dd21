//! Runtime half of eos-lockdep (build with `--features lockdep`): the
//! `Tracked*` wrappers must panic with *both* witness stacks on the
//! first observed lock-order inversion or volume I/O under a
//! `forbids_io` class — and stay silent on the real concurrent
//! front-end, which is exactly what CI runs the stress suite for.
//!
//! Lock classes live in a process-global registry, so every test here
//! uses its own `test.rt*` class names.
#![cfg(feature = "lockdep")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use eos::core::{ConcurrentStore, ObjectStore, StoreConfig};
use eos::pager::{DiskProfile, MemVolume, SharedVolume};
use parking_lot::{on_volume_io, LockClass, TrackedMutex, TrackedRwLock};

/// Run `f`, require a panic, and hand back the message.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("witness did not fire");
    if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        panic!("panic payload was not a string");
    }
}

#[test]
fn ab_ba_inversion_panics_with_both_witness_stacks() {
    let a = TrackedMutex::new(LockClass::forbids_io("test.rt_inv_a"), ());
    let b = TrackedMutex::new(LockClass::forbids_io("test.rt_inv_b"), ());

    // Teach the graph the edge A → B.
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }

    // B → A must now panic *before* blocking, naming both witnesses.
    let msg = panic_message(|| {
        let _gb = b.lock();
        let _ga = a.lock();
    });
    assert!(msg.contains("lock-order inversion"), "{msg}");
    assert!(msg.contains("test.rt_inv_a"), "{msg}");
    assert!(msg.contains("test.rt_inv_b"), "{msg}");
    // The first-observed edge (the A → B run)...
    assert!(msg.contains("first observed on thread"), "{msg}");
    // ...and the conflicting acquisition (this run), with its held stack.
    assert!(msg.contains("conflicting acquisition on thread"), "{msg}");
    assert!(msg.contains("holds `test.rt_inv_b`"), "{msg}");
    assert!(msg.contains(file!()), "{msg}");
}

#[test]
fn recursive_acquisition_panics() {
    let m = Arc::new(TrackedMutex::new(LockClass::forbids_io("test.rt_rec"), ()));
    let m2 = m.clone();
    let msg = panic_message(move || {
        let _g1 = m2.lock();
        let _g2 = m2.lock();
    });
    assert!(msg.contains("recursive acquisition"), "{msg}");
    assert!(msg.contains("test.rt_rec"), "{msg}");
}

#[test]
fn volume_io_under_forbidden_class_panics() {
    let m = TrackedMutex::new(LockClass::forbids_io("test.rt_io"), ());
    let msg = panic_message(|| {
        let _g = m.lock();
        on_volume_io("write");
    });
    assert!(msg.contains("volume I/O `write`"), "{msg}");
    assert!(msg.contains("test.rt_io"), "{msg}");
    assert!(msg.contains("forbids I/O"), "{msg}");
}

#[test]
fn volume_io_under_allowed_class_is_silent() {
    let m = TrackedRwLock::new(LockClass::allows_io("test.rt_io_ok"), ());
    let _g = m.write();
    on_volume_io("sync");
}

/// The real front-end, driven hard enough to exercise the store latch,
/// the group-commit mutex, the object-lock table, and the pager volume
/// lock on several threads at once. The witness observing an inversion
/// anywhere in that stack fails this test with the two stacks above —
/// silence is the assertion.
#[test]
fn concurrent_store_is_silent_under_the_witness() {
    let volume: SharedVolume = MemVolume::with_profile(1024, 4096, DiskProfile::FREE).shared();
    let store = ObjectStore::create_durable(
        volume,
        2,
        1024,
        StoreConfig {
            sync_on_commit: true,
            ..StoreConfig::default()
        },
        62,
    )
    .unwrap();
    let cs = Arc::new(ConcurrentStore::new(store));

    let mut handles = Vec::new();
    for w in 0..4u64 {
        let cs = Arc::clone(&cs);
        handles.push(std::thread::spawn(move || {
            let txn = cs.begin();
            let mut obj = txn.create(&vec![w as u8; 1000], None).unwrap();
            for i in 0..8u64 {
                let byte = (w * 8 + i) as u8;
                txn.append(&mut obj, &vec![byte; 700]).unwrap();
            }
            txn.commit().unwrap();
            let txn = cs.begin();
            txn.replace(&mut obj, 100, &[0xAB; 300]).unwrap();
            txn.delete(&mut obj, 0, 50).unwrap();
            let back = txn.read(&obj, 0, 1000).unwrap();
            assert_eq!(back.len(), 1000);
            txn.commit().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
