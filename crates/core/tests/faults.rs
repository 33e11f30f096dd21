//! Failure injection: every operation must surface an injected I/O
//! fault as an `Err` (never a panic), and under a transaction scope the
//! committed image must survive any mid-operation failure — the §4.5
//! no-overwrite discipline at work.

use eos_core::{Error, LargeObject, ObjectStore, StoreConfig};
use eos_pager::{Calls, DiskProfile, FaultVolume, MemVolume, Plan};
use std::sync::Arc;

fn faulty_store() -> (ObjectStore, Arc<FaultVolume>) {
    let inner = MemVolume::with_profile(512, 2002, DiskProfile::FREE).shared();
    let f = FaultVolume::new(inner);
    let store = ObjectStore::create(f.clone(), 1, 1960, StoreConfig::default()).unwrap();
    (store, f)
}

/// Allow `budget` more reads and writes (one shared count) and fail
/// every one after that, until the next `heal`.
fn heal(f: &FaultVolume, budget: u64) {
    f.arm(Plan::new().fail_from(Calls::ReadsAndWrites, budget))
        .unwrap();
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

#[test]
fn every_op_returns_err_when_io_fails() {
    let (mut store, f) = faulty_store();
    let mut obj = store.create_with(&pattern(50_000), None).unwrap();

    // Exhaust the budget: each op must fail cleanly.
    heal(&f, 0);
    assert!(store.read(&obj, 0, 100).is_err());
    assert!(store.replace(&mut obj, 0, b"x").is_err());
    assert!(store.insert(&mut obj, 10, b"x").is_err());
    assert!(store.delete(&mut obj, 10, 5).is_err());
    assert!(store.append(&mut obj, b"x").is_err());
    assert!(
        store.object_stats(&obj).is_ok(),
        "stats on height-1 need no I/O"
    );

    // Heal: the store is usable again (the failed ops may have torn the
    // in-flight object, but fresh objects work).
    heal(&f, u64::MAX);
    let fresh = store.create_with(&pattern(1000), None).unwrap();
    assert_eq!(store.read_all(&fresh).unwrap(), pattern(1000));
}

#[test]
fn faults_at_every_budget_never_panic() {
    // Sweep the failure point across an update; whatever happens must be
    // an Err or an Ok, never a panic.
    for budget in 0..60 {
        let (mut store, f) = faulty_store();
        let mut obj = store.create_with(&pattern(30_000), None).unwrap();
        heal(&f, budget);
        let _ = store.insert(&mut obj, 15_000, &pattern(2_000));
        let _ = store.delete(&mut obj, 1_000, 500);
        heal(&f, u64::MAX);
    }
}

#[test]
fn committed_image_survives_mid_txn_fault() {
    for budget in [1u64, 2, 3, 4, 5, 6] {
        let (mut store, f) = faulty_store();
        let content = pattern(40_000);
        let obj = store.create_with(&content, None).unwrap();
        let committed = obj.to_bytes();

        store.begin_txn();
        let mut inflight = obj;
        heal(&f, budget);
        // The update fails somewhere in the middle.
        let r1 = store.insert(&mut inflight, 20_000, &pattern(3_000));
        let r2 = store.delete(&mut inflight, 100, 2_000);
        heal(&f, u64::MAX);
        store.abort_txn().unwrap();
        if r1.is_ok() && r2.is_ok() {
            continue; // the budget covered both ops; nothing failed
        }

        // The committed tree is untouched: deferred frees + shadowing
        // mean the failed operation only ever wrote fresh pages.
        let recovered = LargeObject::from_bytes(&committed).unwrap();
        assert_eq!(
            store.read_all(&recovered).unwrap(),
            content,
            "committed image damaged at budget {budget}"
        );
        store.verify_object(&recovered).unwrap();
    }
}

#[test]
fn buddy_directory_fault_does_not_corrupt_on_reopen() {
    // A fault while writing the buddy directory: the in-memory image is
    // ahead of disk. Reopening from disk must still validate (the
    // directory page is written atomically per op).
    let inner = MemVolume::with_profile(512, 2002, DiskProfile::FREE).shared();
    let f = FaultVolume::new(inner.clone());
    {
        let mut store = ObjectStore::create(f.clone(), 1, 1960, StoreConfig::default()).unwrap();
        let _keep = store.create_with(&pattern(10_000), None).unwrap();
        heal(&f, 2);
        let _ = store.create_with(&pattern(50_000), None); // dies mid-way
    }
    // Reopen from the raw volume: every directory page must parse and
    // satisfy the buddy invariants.
    let reopened = eos_buddy::BuddyManager::open(inner, 1, 1960).unwrap();
    reopened.check_invariants().unwrap();
}

/// The single-threaded durable commit whose log force fails: durability
/// is unknown, so it must surface `CommitFailed` (not the raw I/O error)
/// and drop its deferred-free batch from the buddy registry — the same
/// outcome the concurrent front-end gives, because it is the same code.
#[test]
fn failed_log_force_fails_the_commit_and_drops_its_frees() {
    let failer = FaultVolume::new(
        MemVolume::with_profile(1024, (1024 + 1) * 4 + 62, DiskProfile::FREE).shared(),
    );
    let mut store =
        ObjectStore::create_durable(failer.clone(), 4, 1024, StoreConfig::default(), 62).unwrap();
    let mut obj = store.create_with(&pattern(30_000), None).unwrap();

    store.begin_txn();
    store.delete(&mut obj, 10_000, 9_000).unwrap();
    let pending = |s: &ObjectStore| s.metrics_snapshot().gauge("buddy.pending.extents");
    assert!(
        pending(&store).unwrap_or(0) > 0,
        "the delete deferred no frees"
    );

    // Let the data barrier (sync #1) through, fail the log force (#2).
    failer.arm(Plan::new().fail_once(Calls::Syncs, 1)).unwrap();
    let err = store.commit_txn().unwrap_err();
    assert!(
        matches!(err, Error::CommitFailed { .. }),
        "force failure surfaced as {err:?}"
    );
    assert!(!store.in_txn());
    assert_eq!(
        pending(&store).unwrap_or(0),
        0,
        "the failed commit's free batch leaked in the buddy registry"
    );
}

#[test]
fn commit_and_abort_without_a_scope_are_typed_errors() {
    let mut store = ObjectStore::in_memory(512, 100);
    assert!(matches!(store.commit_txn(), Err(Error::StaleTransaction)));
    assert!(matches!(store.abort_txn(), Err(Error::StaleTransaction)));
}
