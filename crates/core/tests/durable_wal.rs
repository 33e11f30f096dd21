//! Durable-store lifecycle tests: create, mutate, reopen, recover.
//!
//! The exhaustive crash-point sweep lives at the workspace root
//! (`tests/crash_sweep.rs`); these tests cover the happy paths and the
//! targeted failure modes of the durable WAL integration.

use eos_core::{ObjectStore, StoreConfig};
use eos_pager::{DiskProfile, Entry, FaultVolume, MemVolume, Plan, SharedVolume};

const PAGE: usize = 512;
const SPACES: usize = 2;
const PPS: u64 = 126;
const WAL_PAGES: u64 = 66;

fn fresh_volume() -> SharedVolume {
    let pages = (PPS + 1) * SPACES as u64 + WAL_PAGES;
    MemVolume::with_profile(PAGE, pages, DiskProfile::FREE).shared()
}

fn create(volume: SharedVolume) -> ObjectStore {
    ObjectStore::create_durable(volume, SPACES, PPS, StoreConfig::default(), WAL_PAGES).unwrap()
}

fn reopen(volume: SharedVolume) -> (ObjectStore, eos_core::RecoveryReport) {
    ObjectStore::open_durable(volume, SPACES, PPS, StoreConfig::default(), WAL_PAGES).unwrap()
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

#[test]
fn committed_objects_survive_reopen() {
    let vol = fresh_volume();
    let a_bytes = pattern(3000, 1);
    let b_bytes = pattern(700, 2);
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&a_bytes, None).unwrap();
        let _b = store.create_with(&b_bytes, None).unwrap();
        store.insert(&mut a, 100, &pattern(40, 3)).unwrap();
        store.delete(&mut a, 0, 100).unwrap();
        store.replace(&mut a, 10, b"REPLACED").unwrap();
    }
    let (store, report) = reopen(vol);
    assert!(!report.torn_tail);
    assert_eq!(report.rolled_back_ops, 0);
    assert_eq!(report.objects.len(), 2);

    // Model what the mutations did.
    let mut model = a_bytes.clone();
    let ins = pattern(40, 3);
    model.splice(100..100, ins.iter().copied());
    model.drain(0..100);
    model[10..18].copy_from_slice(b"REPLACED");

    let a = report.objects.iter().find(|o| o.id() == 1).unwrap();
    let b = report.objects.iter().find(|o| o.id() == 2).unwrap();
    assert_eq!(store.read_all(a).unwrap(), model);
    assert_eq!(store.read_all(b).unwrap(), b_bytes);
    store.verify_object(a).unwrap();
    store.verify_object(b).unwrap();
    store.buddy().check_invariants().unwrap();
}

#[test]
fn deleted_objects_stay_deleted() {
    let vol = fresh_volume();
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&pattern(2000, 1), None).unwrap();
        let _b = store.create_with(&pattern(50, 2), None).unwrap();
        store.delete_object(&mut a).unwrap();
    }
    let (_store, report) = reopen(vol);
    assert_eq!(report.objects.len(), 1);
    assert_eq!(report.objects[0].id(), 2);
}

#[test]
fn explicit_txn_groups_ops_and_abort_reverts() {
    let vol = fresh_volume();
    let base = pattern(1500, 7);
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&base, None).unwrap();
        let pre_txn = a.clone();

        store.begin_txn();
        store.append(&mut a, &pattern(300, 8)).unwrap();
        store.replace(&mut a, 0, b"xxxx").unwrap();
        store.abort_txn().unwrap();
        a = pre_txn;
        assert_eq!(store.read_all(&a).unwrap(), base, "abort reverted");

        store.begin_txn();
        store.append(&mut a, b"tail").unwrap();
        store.commit_txn().unwrap();
    }
    let (store, report) = reopen(vol);
    let a = &report.objects[0];
    let mut want = base;
    want.extend_from_slice(b"tail");
    assert_eq!(store.read_all(a).unwrap(), want);
}

#[test]
fn uncommitted_replace_rolls_back_on_reopen() {
    let vol = fresh_volume();
    let base = pattern(4 * PAGE, 9);
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&base, None).unwrap();
        // Simulate a crash mid-transaction: mutate inside an explicit
        // scope and drop the store without committing.
        store.begin_txn();
        store.replace(&mut a, 100, &pattern(600, 10)).unwrap();
        store.append(&mut a, &pattern(123, 11)).unwrap();
        // no commit — the store (and its in-memory state) just vanish
    }
    let (store, report) = reopen(vol);
    assert_eq!(report.rolled_back_ops, 2);
    assert!(report.restored_pages > 0, "replace images were restored");
    let a = &report.objects[0];
    assert_eq!(store.read_all(a).unwrap(), base, "back to committed state");
    store.buddy().check_invariants().unwrap();
}

#[test]
fn recovered_store_keeps_working() {
    let vol = fresh_volume();
    {
        let mut store = create(vol.clone());
        store.create_with(&pattern(900, 1), None).unwrap();
    }
    let (mut store, report) = reopen(vol.clone());
    let mut a = report.objects[0].clone();
    store.append(&mut a, &pattern(200, 2)).unwrap();
    let mut b = store.create_with(&pattern(80, 3), None).unwrap();
    assert_eq!(b.id(), report.objects[0].id() + 1, "ids keep advancing");
    store.insert(&mut b, 0, b"hdr").unwrap();
    drop(store);

    let (store, report) = reopen(vol);
    assert_eq!(report.objects.len(), 2);
    let a2 = report.objects.iter().find(|o| o.id() == a.id()).unwrap();
    assert_eq!(store.read_all(a2).unwrap().len(), 1100);
}

#[test]
fn reopen_is_idempotent() {
    let vol = fresh_volume();
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&pattern(1000, 5), None).unwrap();
        store.begin_txn();
        store.replace(&mut a, 0, &pattern(300, 6)).unwrap();
        // crash with the scope open
    }
    let (_s1, r1) = reopen(vol.clone());
    let (store, r2) = reopen(vol);
    assert_eq!(r1.objects.len(), r2.objects.len());
    assert_eq!(
        r2.rolled_back_ops, 0,
        "first recovery checkpointed the rollback"
    );
    assert_eq!(
        store.read_all(&r2.objects[0]).unwrap(),
        pattern(1000, 5),
        "double recovery lands on the same bytes"
    );
}

// ---- write-ordering barriers --------------------------------------------
//
// The crash sweep's lost-unsynced scenario and the barrier-mutation
// sweep show that recovery *needs* each barrier; these tests pin where
// the barriers sit, by asserting on the journaled interleaving of
// write and sync calls.

/// A call-journaling volume over a fresh one.
fn recorder() -> std::sync::Arc<FaultVolume> {
    FaultVolume::with_plan(fresh_volume(), Plan::new().journal()).unwrap()
}

/// The write/sync stream since the last call (reads are not part of
/// the ordering contract).
fn take_events(recorder: &FaultVolume) -> Vec<Entry> {
    let mut events = recorder.take_journal();
    events.retain(|e| !matches!(e, Entry::Read { .. }));
    events
}

const SYNC: Entry = Entry::Sync { forwarded: true };

const WAL_BASE: u64 = (PPS + 1) * SPACES as u64;

fn is_log_write(e: &Entry) -> bool {
    matches!(e, Entry::Write { start, .. } if *start >= WAL_BASE)
}

fn is_data_write(e: &Entry) -> bool {
    matches!(e, Entry::Write { start, .. } if *start < WAL_BASE)
}

/// Index of the first sync strictly after `from`, if any.
fn sync_after(events: &[Entry], from: usize) -> Option<usize> {
    events[from + 1..]
        .iter()
        .position(|e| *e == SYNC)
        .map(|i| from + 1 + i)
}

#[test]
fn replace_barriers_order_undo_data_and_commit() {
    let recorder = recorder();
    let vol: SharedVolume = recorder.clone();
    let mut store = create(vol);
    let mut a = store.create_with(&pattern(4 * PAGE, 1), None).unwrap();
    take_events(&recorder);

    store.replace(&mut a, 100, &pattern(900, 2)).unwrap();
    let events = take_events(&recorder);

    // WAL rule: the Op frame (undo images) is written and *synced*
    // before the first in-place data write.
    let first_log = events.iter().position(is_log_write).expect("an Op frame");
    let first_data = events
        .iter()
        .position(is_data_write)
        .expect("in-place writes");
    assert!(first_log < first_data, "undo frame precedes the overwrite");
    let barrier = sync_after(&events, first_log).expect("a sync after the Op frame");
    assert!(
        barrier < first_data,
        "undo images must be durable before the first in-place byte: {events:?}"
    );

    // Data-before-log: every data write is synced before the Commit
    // frame (the last log write) lands.
    let last_log = events.iter().rposition(is_log_write).unwrap();
    let last_data = events.iter().rposition(is_data_write).unwrap();
    assert!(last_data < last_log, "commit frame is the final frame");
    let commit_barrier = sync_after(&events, last_data).expect("a sync after the data writes");
    assert!(
        commit_barrier < last_log,
        "data pages must be durable before the commit frame: {events:?}"
    );
    assert_eq!(
        events.last(),
        Some(&SYNC),
        "the commit frame itself is synced"
    );
}

#[test]
fn abort_syncs_restores_before_the_abort_frame() {
    let recorder = recorder();
    let vol: SharedVolume = recorder.clone();
    let mut store = create(vol);
    let mut a = store.create_with(&pattern(4 * PAGE, 1), None).unwrap();

    store.begin_txn();
    store.replace(&mut a, 0, &pattern(700, 3)).unwrap();
    take_events(&recorder);
    store.abort_txn().unwrap();
    let events = take_events(&recorder);

    // The before-image restores (data writes) must be durable before
    // the Abort frame — otherwise a crash can persist the Abort and
    // recovery would skip the undo.
    let last_data = events.iter().rposition(is_data_write).expect("restores");
    let abort_frame = events.iter().rposition(is_log_write).expect("Abort frame");
    assert!(last_data < abort_frame);
    let barrier = sync_after(&events, last_data).expect("a sync after the restores");
    assert!(
        barrier < abort_frame,
        "restores must be durable before the Abort frame: {events:?}"
    );
}

#[test]
fn log_wraps_under_sustained_load() {
    let vol = fresh_volume();
    let mut store = create(vol.clone());
    let mut a = store.create_with(&pattern(2 * PAGE, 1), None).unwrap();
    for i in 0..200u64 {
        store
            .replace(&mut a, (i % 64) * 8, &pattern(64, i as u8))
            .unwrap();
    }
    let wal = store.durable_wal().unwrap();
    assert!(wal.checkpoints_taken() > 0, "the log flipped halves");
    drop(store);
    let (store, report) = reopen(vol);
    assert_eq!(report.objects.len(), 1);
    store.verify_object(&report.objects[0]).unwrap();
}
