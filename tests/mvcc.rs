//! MVCC snapshot reads (DESIGN.md §14): epoch pins, root publication,
//! deferred-free parking and reclaim, and the lock-free read path.
//!
//! Three properties are pinned here, each against the `mvcc.*` and
//! `locks.*` instruments so regressions surface as counter drift, not
//! just as corrupted bytes:
//!
//! 1. A stalled reader parks every superseded page: writers churn, the
//!    reader's view stays byte-identical, nothing is reclaimed until it
//!    drops — and then everything is.
//! 2. Readers acquire **zero** object locks: the `locks.acquired`
//!    counter is flat across a read-only phase.
//! 3. A snapshot is one frozen epoch: later commits (including objects
//!    created after the pin) are invisible to it, while fresh reads see
//!    them immediately.

use std::sync::Arc;
use std::time::Duration;

use eos::core::{ConcurrentStore, Error, LargeObject, ObjectStore, StoreConfig};
use eos::obs::Metrics;
use eos::pager::{Calls, DiskProfile, Entry, FaultVolume, MemVolume, Plan, SharedVolume};

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i % 249) as u8))
        .collect()
}

/// A durable store on an in-memory volume behind a [`FaultVolume`]
/// armed with `plan`, with its own metrics domain so the `mvcc.*` /
/// `locks.*` assertions are not polluted by other tests in the process.
fn store_on(plan: Plan, metrics: &Metrics) -> (ObjectStore, Arc<FaultVolume>) {
    // Four buddy spaces: parked deferred-free batches keep superseded
    // pages *allocated* until the stalled reader drops, so the churn
    // tests need roughly double the live working set.
    let inner: SharedVolume =
        MemVolume::with_profile(1024, (1024 + 1) * 4 + 62, DiskProfile::FREE).shared();
    let volume = FaultVolume::with_plan(inner, plan).unwrap();
    let mut store = ObjectStore::create_durable(
        volume.clone(),
        4,
        1024,
        StoreConfig {
            sync_on_commit: true,
            ..StoreConfig::default()
        },
        62,
    )
    .unwrap();
    store.set_metrics(metrics);
    (store, volume)
}

/// A durable store with a log large enough to checkpoint the roots of
/// several hundred small objects, so the root set spans every shard.
fn many_object_store(metrics: &Metrics) -> ObjectStore {
    let volume = MemVolume::with_profile(1024, (1024 + 1) * 4 + 512, DiskProfile::FREE).shared();
    let mut store =
        ObjectStore::create_durable(volume, 4, 1024, StoreConfig::default(), 512).unwrap();
    store.set_metrics(metrics);
    store
}

/// Create `n` small objects, 64 per transaction; object `i` holds
/// `pattern(i, 100 + i)`.
fn create_small_objects(cs: &ConcurrentStore, n: usize) -> Vec<(LargeObject, Vec<u8>)> {
    let mut out = Vec::with_capacity(n);
    for chunk in (0..n).collect::<Vec<_>>().chunks(64) {
        let txn = cs.begin();
        for &i in chunk {
            let bytes = pattern(i as u8, 100 + i);
            out.push((txn.create(&bytes, None).unwrap(), bytes));
        }
        txn.commit().unwrap();
    }
    out
}

/// The default substrate: every sync costs 50 µs.
fn durable_store(metrics: &Metrics) -> ObjectStore {
    store_on(Plan::new().sync_delay(Duration::from_micros(50)), metrics).0
}

fn check_clean(cs: ConcurrentStore, named: &[(String, LargeObject)]) {
    let store = match cs.try_into_inner() {
        Ok(s) => s,
        Err(_) => panic!("a ConcurrentStore handle outlived the test"),
    };
    let report = eos_check::check_store(&store, named, None);
    assert!(report.is_clean(), "{}", report.render_table());
}

/// Satellite: the reclaim-safety stress. A deliberately stalled reader
/// pins the first epoch while writer threads churn replace/append
/// transactions; superseded pages must park (deferred_pages > 0), the
/// stalled view must stay byte-identical throughout, and dropping the
/// reader must reclaim every parked batch (deferred_pages back to 0).
#[test]
fn stalled_reader_parks_superseded_pages_until_it_drops() {
    const WRITERS: u64 = 4;
    const TXNS: u64 = 12;
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);

    let before = pattern(3, 60_000);
    let target = store.create_with(&before, None).unwrap();
    let cs = ConcurrentStore::new(store);

    // The stalled reader: pins the epoch *before* any churn.
    let stalled = cs.snapshot();
    assert_eq!(stalled.read_all(target.id()).unwrap(), before);

    // Churn: every writer owns one object and replaces ranges of it,
    // freeing its superseded segments at each commit — all of which
    // must park behind the stalled pin.
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let cs = cs.clone();
        handles.push(std::thread::spawn(move || {
            let txn = cs.begin();
            let mut obj = txn.create(&pattern(w as u8, 20_000), None).unwrap();
            txn.commit().unwrap();
            for i in 0..TXNS {
                let txn = cs.begin();
                let off = (i * 1_337) % 10_000;
                txn.replace(&mut obj, off, &pattern((w + i) as u8, 4_000))
                    .unwrap();
                txn.commit().unwrap();
            }
            obj
        }));
    }
    let churned: Vec<LargeObject> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let snap = metrics.snapshot();
    let parked = snap.gauge("mvcc.deferred_pages").unwrap_or(0);
    assert!(
        parked > 0,
        "writer churn under a stalled reader parked nothing"
    );
    assert!(snap.gauge("mvcc.oldest_epoch_lag").unwrap_or(0) > 0);

    // The stalled view is still byte-identical — the pages its roots
    // reference were superseded but not reclaimed.
    assert_eq!(stalled.read_all(target.id()).unwrap(), before);

    // Drop the pin: everything parked is reclaimable now (no other
    // reader is live), so the deferred list must drain to zero.
    drop(stalled);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.gauge("mvcc.deferred_pages").unwrap_or(0),
        0,
        "parked batches survived the last reader"
    );
    assert!(snap.counter("mvcc.reclaim_batches").unwrap_or(0) > 0);
    assert!(snap.counter("mvcc.reclaimed_pages").unwrap_or(0) > 0);
    assert_eq!(snap.gauge("mvcc.oldest_epoch_lag").unwrap_or(0), 0);

    let mut named = vec![("target".to_string(), target)];
    for (w, obj) in churned.into_iter().enumerate() {
        named.push((format!("churn-{w}"), obj));
    }
    check_clean(cs, &named);
}

/// Satellite: the read path takes no object locks. After a write phase
/// (which does lock), a read-only phase of `Txn::read` and snapshot
/// reads must leave `locks.acquired` exactly where it was.
#[test]
fn readers_acquire_zero_range_locks() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let bytes = pattern(9, 50_000);
    let shared = store.create_with(&bytes, None).unwrap();
    let cs = ConcurrentStore::new(store);

    // Write phase: locks are taken (sanity for the instrument itself).
    let txn = cs.begin();
    let mut obj = txn.create(&pattern(1, 8_000), None).unwrap();
    txn.commit().unwrap();
    let txn = cs.begin();
    txn.replace(&mut obj, 100, &pattern(2, 2_000)).unwrap();
    txn.commit().unwrap();
    let locks_after_writes = metrics.snapshot().counter("locks.acquired").unwrap_or(0);
    assert!(locks_after_writes > 0, "writers never touched the table");

    // Read-only phase: four reader threads, a mix of per-read implicit
    // pins and block reads under one snapshot, all content-checked.
    let mut readers = Vec::new();
    for r in 0..4u64 {
        let cs = cs.clone();
        let expect = bytes.clone();
        let obj = shared.clone();
        readers.push(std::thread::spawn(move || {
            for i in 0..30u64 {
                let off = (r * 997 + i * 4_099) % 45_000;
                let txn = cs.begin();
                let got = txn.read(&obj, off, 4_000).unwrap();
                assert_eq!(got, &expect[off as usize..off as usize + 4_000]);
                txn.commit().unwrap();
            }
            let snap = cs.snapshot();
            for i in 0..30u64 {
                let off = (r * 31 + i * 2_003) % 45_000;
                let got = snap.read(obj.id(), off, 4_000).unwrap();
                assert_eq!(got, &expect[off as usize..off as usize + 4_000]);
            }
        }));
    }
    for h in readers {
        h.join().unwrap();
    }

    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("locks.acquired").unwrap_or(0),
        locks_after_writes,
        "the read-only phase moved the lock-grant counter"
    );
    assert_eq!(snap.counter("locks.conflicts").unwrap_or(0), 0);
    // Every read (implicit or snapshot) pinned an epoch.
    assert!(snap.counter("mvcc.snapshots").unwrap_or(0) >= 4 * 31);

    check_clean(
        cs,
        &[("shared".to_string(), shared), ("w".to_string(), obj)],
    );
}

/// A snapshot is one frozen epoch: commits after the pin — replaces,
/// appends, deletes, and whole new objects — are invisible through it,
/// while fresh transactions and fresh snapshots see every one of them.
#[test]
fn snapshot_is_a_frozen_epoch() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let v1 = pattern(5, 30_000);
    let a = store.create_with(&v1, None).unwrap();
    let cs = ConcurrentStore::new(store);

    let old = cs.snapshot();
    assert_eq!(old.object_ids(), vec![a.id()]);
    assert_eq!(old.size_of(a.id()).unwrap(), v1.len() as u64);

    // Advance the store: mutate `a` and create `b`.
    let mut a2 = a.clone();
    let txn = cs.begin();
    txn.replace(&mut a2, 1_000, &pattern(77, 5_000)).unwrap();
    txn.append(&mut a2, &pattern(78, 2_000)).unwrap();
    let b = txn.create(&pattern(79, 9_000), None).unwrap();
    txn.commit().unwrap();

    // The frozen view: pre-commit bytes, no `b`.
    assert_eq!(old.read_all(a.id()).unwrap(), v1);
    assert!(matches!(
        old.read_all(b.id()),
        Err(Error::UnknownObject { .. })
    ));
    assert!(old.object(b.id()).is_none());

    // A *fresh* snapshot and a fresh transaction both see the commit.
    let new = cs.snapshot();
    assert!(new.epoch() > old.epoch());
    let mut want = v1.clone();
    want[1_000..6_000].copy_from_slice(&pattern(77, 5_000));
    want.extend(pattern(78, 2_000));
    assert_eq!(new.read_all(a.id()).unwrap(), want);
    assert_eq!(new.read_all(b.id()).unwrap(), pattern(79, 9_000));
    let txn = cs.begin();
    assert_eq!(txn.read_all(&a2).unwrap(), want);
    txn.commit().unwrap();

    // Read-your-writes: inside a writing transaction, reads of the
    // written object resolve to the uncommitted view, not the pin.
    let txn = cs.begin();
    let mut a3 = a2.clone();
    txn.replace(&mut a3, 0, b"XYZZY").unwrap();
    assert_eq!(&txn.read(&a3, 0, 5).unwrap(), b"XYZZY");
    txn.abort().unwrap();
    // ... and the abort keeps the committed view intact.
    let txn = cs.begin();
    assert_eq!(txn.read(&a2, 0, 5).unwrap(), &want[..5]);
    txn.commit().unwrap();

    drop(old);
    drop(new);
    check_clean(cs, &[("a".to_string(), a2), ("b".to_string(), b)]);
}

/// The solo (non-grouped) commit path publishes roots the same way the
/// grouped path does: without publication, a snapshot after a solo
/// commit would still resolve the old root.
#[test]
fn solo_commits_publish_to_readers_too() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let v1 = pattern(11, 12_000);
    let a = store.create_with(&v1, None).unwrap();
    let cs = ConcurrentStore::with_group_commit(store, false);

    let mut a2 = a.clone();
    let txn = cs.begin();
    txn.replace(&mut a2, 0, &pattern(12, 3_000)).unwrap();
    txn.commit().unwrap();

    let snap = cs.snapshot();
    let mut want = v1.clone();
    want[..3_000].copy_from_slice(&pattern(12, 3_000));
    assert_eq!(snap.read_all(a.id()).unwrap(), want);
    drop(snap);

    // A stalled reader parks solo-commit frees just the same.
    let pin = cs.snapshot();
    let txn = cs.begin();
    txn.replace(&mut a2, 4_000, &pattern(13, 3_000)).unwrap();
    txn.commit().unwrap();
    assert!(metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0) > 0);
    assert_eq!(pin.read_all(a.id()).unwrap(), want);
    drop(pin);
    assert_eq!(
        metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0),
        0
    );

    check_clean(cs, &[("a".to_string(), a2)]);
}

/// "Solo is a batch of one": with group commit off, each commit runs
/// the same protocol as a grouped batch, on the committing thread. One
/// writer driving the same transactions through both settings must
/// produce the identical write/sync sequence, and every solo commit
/// must show up in `wal.group_commit.batch` as a batch of exactly 1.
#[test]
fn solo_commit_is_a_group_commit_batch_of_one() {
    const TXNS: u64 = 5;
    let run = |group: bool| {
        let metrics = Metrics::new();
        let (mut store, recorder) = recorder_store(&metrics);
        let mut a = store.create_with(&pattern(41, 20_000), None).unwrap();
        let cs = ConcurrentStore::with_group_commit(store, group);
        take_events(&recorder);

        let txn = cs.begin();
        let mut b = txn.create(&pattern(42, 6_000), None).unwrap();
        txn.commit().unwrap();
        let txn = cs.begin();
        txn.replace(&mut a, 1_000, &pattern(43, 5_000)).unwrap();
        txn.insert(&mut b, 500, &pattern(44, 700)).unwrap();
        txn.commit().unwrap();
        let txn = cs.begin();
        txn.delete(&mut a, 8_000, 3_000).unwrap();
        txn.commit().unwrap();
        let txn = cs.begin();
        txn.append(&mut b, &pattern(45, 2_000)).unwrap();
        txn.truncate(&mut a, 9_000).unwrap();
        txn.commit().unwrap();
        // A read-only scope: no barrier, no record, still one batch.
        let txn = cs.begin();
        txn.read_all(&b).unwrap();
        txn.commit().unwrap();

        let events = take_events(&recorder);
        check_clean(cs, &[("a".to_string(), a), ("b".to_string(), b)]);
        (events, metrics.snapshot())
    };

    let (solo_events, solo) = run(false);
    let (group_events, group) = run(true);
    assert!(solo_events.contains(&SYNC));
    assert_eq!(
        solo_events, group_events,
        "a solo commit and a one-scope group batch diverged in their I/O"
    );
    for (name, snap) in [("solo", &solo), ("grouped", &group)] {
        let batches = snap
            .histogram("wal.group_commit.batch")
            .unwrap_or_else(|| panic!("{name} commits recorded no batch sizes"));
        assert_eq!((batches.count, batches.sum), (TXNS, TXNS), "{name}");
        assert_eq!(snap.counter("wal.group_commits"), Some(TXNS), "{name}");
    }
    assert_eq!(solo.counter("wal.syncs"), group.counter("wal.syncs"));
}

// ---- reclaim write-ordering (eos-crashdep L6, DESIGN.md §15) ------------
//
// The `mvcc-publish` durability class requires `commit-frame`: pages a
// commit superseded must not re-enter the free pool (`apply_commit`)
// before that commit's log frame is forced. The counter tests above
// show *that* parked batches drain; these two record the raw
// write/sync interleaving and pin *when*. A durable store writes no
// directory page for a free (DESIGN.md §7), so the frees themselves
// leave no I/O: what the stream pins is that nothing of theirs reaches
// the volume before the force and the log is silent after it.

/// The write/sync stream since the last call (reads are not part of
/// the ordering contract).
fn take_events(recorder: &FaultVolume) -> Vec<Entry> {
    let mut events = recorder.take_journal();
    events.retain(|e| !matches!(e, Entry::Read { .. }));
    events
}

const SYNC: Entry = Entry::Sync { forwarded: true };

/// Log (WAL) region base for the recorder-store geometry below.
const REC_WAL_BASE: u64 = (1024 + 1) * 4;

fn is_log_write(e: &Entry) -> bool {
    matches!(e, Entry::Write { start, .. } if *start >= REC_WAL_BASE)
}

fn is_data_write(e: &Entry) -> bool {
    matches!(e, Entry::Write { start, .. } if *start < REC_WAL_BASE)
}

/// A write of one of the recorder store's four directory pages.
fn is_dir_write(e: &Entry) -> bool {
    is_data_write(e) && matches!(e, Entry::Write { start, .. } if start % (1024 + 1) == 0)
}

/// A durable store on a call-journaling volume.
fn recorder_store(metrics: &Metrics) -> (ObjectStore, Arc<FaultVolume>) {
    store_on(Plan::new().journal(), metrics)
}

/// With a reader pinned, a superseding commit parks its frees; the
/// reclaim runs only when the pin drops — strictly after the commit's
/// frame force in the event stream — and writes neither the log nor a
/// directory page.
#[test]
fn parked_reclaim_runs_after_the_superseding_commit_force() {
    let metrics = Metrics::new();
    let (mut store, recorder) = recorder_store(&metrics);
    let mut a = store.create_with(&pattern(21, 12_000), None).unwrap();
    let cs = ConcurrentStore::new(store);

    let pin = cs.snapshot();
    take_events(&recorder);

    // Copy-on-write replace: the superseded segment's pages become a
    // deferred-free batch, parked behind the pin.
    let txn = cs.begin();
    txn.replace(&mut a, 0, &pattern(22, 8_000)).unwrap();
    txn.commit().unwrap();
    let commit_events = take_events(&recorder);

    let last_log = commit_events
        .iter()
        .rposition(is_log_write)
        .expect("the commit wrote a log frame");
    assert!(
        commit_events[last_log + 1..].contains(&SYNC),
        "the commit frame was never forced"
    );
    assert!(
        metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0) > 0,
        "the superseded pages did not park behind the pin"
    );

    // The pin drops: whatever reclaim writes sits after the force above
    // in the stream (it is in a later `take`), and none of it is log
    // I/O or a directory page.
    drop(pin);
    let reclaim_events = take_events(&recorder);
    assert!(
        !reclaim_events.iter().any(is_log_write),
        "reclaim must not write the log: {reclaim_events:?}"
    );
    assert!(
        !reclaim_events.iter().any(is_dir_write),
        "a durable reclaim wrote a directory page: {reclaim_events:?}"
    );
    let snap = metrics.snapshot();
    assert!(
        snap.counter("mvcc.reclaimed_pages").unwrap_or(0) > 0,
        "dropping the last pin reclaimed nothing"
    );
    assert_eq!(snap.gauge("mvcc.deferred_pages").unwrap_or(0), 0);

    check_clean(cs, &[("a".to_string(), a)]);
}

/// With no reader pinned, the frees apply inside the commit itself —
/// but still only after the frame force: no directory page is written
/// before the force, anything written after the commit's last sync is
/// data-region I/O (the `mvcc-publish` batch), and the log is silent
/// from the force onwards.
#[test]
fn immediate_free_application_follows_the_frame_force() {
    let metrics = Metrics::new();
    let (mut store, recorder) = recorder_store(&metrics);
    let mut a = store.create_with(&pattern(31, 12_000), None).unwrap();
    let cs = ConcurrentStore::new(store);
    take_events(&recorder);

    let frees = |m: &Metrics| {
        m.snapshot()
            .histogram("buddy.free.pages")
            .map_or(0, |h| h.count)
    };
    let frees_before = frees(&metrics);
    let txn = cs.begin();
    txn.replace(&mut a, 0, &pattern(32, 8_000)).unwrap();
    txn.commit().unwrap();
    let events = take_events(&recorder);
    assert!(
        frees(&metrics) > frees_before,
        "the commit applied no frees"
    );
    assert_eq!(
        metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0),
        0,
        "with no pin the frees must not park"
    );

    let last_sync = events
        .iter()
        .rposition(|e| *e == SYNC)
        .expect("the commit synced");
    let last_log = events.iter().rposition(is_log_write).unwrap();
    assert!(
        last_log < last_sync,
        "the frame force must follow the last log write"
    );
    assert!(
        !events[..last_sync].iter().any(is_dir_write),
        "a free reached a directory page before the force: {events:?}"
    );
    let tail = &events[last_sync + 1..];
    assert!(
        tail.iter().all(is_data_write),
        "only data-region writes may follow the force: {tail:?}"
    );

    check_clean(cs, &[("a".to_string(), a)]);
}

/// Satellite (PR 10): out-of-order reader unpin. Three readers pin
/// three distinct epochs with a parked deferred-free batch between
/// each. Dropping the *youngest* pin first must reclaim nothing;
/// dropping the *oldest* while the middle one is still live must
/// recompute the oldest pinned epoch and drain exactly the batch the
/// surviving pin has passed — not everything, not nothing — while the
/// survivor's view stays byte-identical.
#[test]
fn out_of_order_unpin_recomputes_the_oldest_pin() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let v1 = pattern(1, 30_000);
    let mut obj = store.create_with(&v1, None).unwrap();
    let cs = ConcurrentStore::new(store);

    let r1 = cs.snapshot();

    // Commit #1 (supersedes pages under r1's pin — parks one batch).
    let seg = pattern(2, 8_000);
    let txn = cs.begin();
    txn.replace(&mut obj, 0, &seg).unwrap();
    txn.commit().unwrap();
    let mut v2 = v1.clone();
    v2[..8_000].copy_from_slice(&seg);
    let r2 = cs.snapshot();

    // Commit #2 (parks a second batch, now behind r1 *and* r2).
    let txn = cs.begin();
    txn.replace(&mut obj, 10_000, &pattern(3, 8_000)).unwrap();
    txn.commit().unwrap();
    let r3 = cs.snapshot();

    let snap = metrics.snapshot();
    let parked = snap.gauge("mvcc.deferred_pages").unwrap_or(0);
    assert!(parked > 0, "commits under pinned readers parked nothing");

    // Youngest drops first: the oldest pin (r1) still protects both
    // batches, so nothing may be reclaimed.
    drop(r3);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.gauge("mvcc.deferred_pages").unwrap_or(0),
        parked,
        "dropping a younger pin reclaimed pages an older pin protects"
    );
    assert_eq!(snap.counter("mvcc.reclaim_batches").unwrap_or(0), 0);

    // Oldest drops while the middle pin lives: the oldest pinned epoch
    // is recomputed to r2's, draining exactly commit #1's batch.
    drop(r1);
    let snap = metrics.snapshot();
    let left = snap.gauge("mvcc.deferred_pages").unwrap_or(0);
    assert!(left < parked, "dropping the oldest pin reclaimed nothing");
    assert!(
        left > 0,
        "a batch parked past the surviving pin was reclaimed early"
    );
    assert_eq!(snap.counter("mvcc.reclaim_batches").unwrap_or(0), 1);

    // The survivor still reads its pinned version, byte-exact.
    assert_eq!(r2.read_all(obj.id()).unwrap(), v2);

    drop(r2);
    let snap = metrics.snapshot();
    assert_eq!(snap.gauge("mvcc.deferred_pages").unwrap_or(0), 0);

    check_clean(cs, &[("obj".to_string(), obj)]);
}

/// Satellite (PR 10) regression: the group-commit force-failure path.
/// A commit whose log force fails must surface `CommitFailed` *and*
/// leave nothing stuck behind it: its deferred-free batch leaves the
/// buddy registry (`buddy.pending.extents` back to 0 once readers
/// drain), previously parked batches still drain to
/// `mvcc.deferred_pages = 0`, and the failed scope's byte ranges are
/// immediately re-lockable by a new transaction.
#[test]
fn failed_force_releases_locks_and_drains_parked_batches() {
    let metrics = Metrics::new();
    let (mut store, failer) = store_on(Plan::new(), &metrics);
    let mut obj = store.create_with(&pattern(7, 30_000), None).unwrap();
    let cs = ConcurrentStore::new(store);

    // A pinned reader, and a successful commit that parks its frees
    // behind it.
    let reader = cs.snapshot();
    let txn = cs.begin();
    txn.replace(&mut obj, 0, &pattern(8, 6_000)).unwrap();
    txn.commit().unwrap();
    assert!(metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0) > 0);

    // The failing commit: let the data barrier (sync #1) through and
    // fail the log force (sync #2).
    let txn = cs.begin();
    let mut failed_view = obj.clone();
    txn.replace(&mut failed_view, 10_000, &pattern(9, 6_000))
        .unwrap();
    failer.arm(Plan::new().fail_once(Calls::Syncs, 1)).unwrap();
    let err = txn.commit().unwrap_err();
    failer.arm(Plan::new()).unwrap();
    assert!(
        matches!(err, Error::CommitFailed { .. }),
        "force failure surfaced as {err:?}"
    );

    // Its ranges are immediately re-lockable: a fresh transaction
    // writes the same bytes without deadlocking on leaked locks.
    let txn = cs.begin();
    txn.replace(&mut obj, 10_000, &pattern(10, 6_000)).unwrap();
    txn.commit().unwrap();

    // Dropping the reader drains every *parked* batch, and the failed
    // commit's batch is out of the buddy registry too — nothing holds
    // `pending.extents` up once the deferred list is empty.
    drop(reader);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.gauge("mvcc.deferred_pages").unwrap_or(0),
        0,
        "parked batches survived the last reader after a failed force"
    );
    assert_eq!(
        snap.gauge("buddy.pending.extents").unwrap_or(0),
        0,
        "the failed commit's free batch leaked in the buddy registry"
    );
}

/// Sharded publication keeps snapshot isolation inside the one shard a
/// commit touches. With 512 objects committed, the next id shares its
/// shard (`id % 256`) with two existing ones; one commit replaces the
/// first, deletes the second and creates the third. A snapshot pinned
/// before it still reads the old root of every id in that shard, still
/// sees the deleted object and does not see the new one; a fresh
/// snapshot sees the new state.
#[test]
fn snapshot_keeps_the_old_roots_of_a_shard_a_commit_touched() {
    let metrics = Metrics::new();
    let cs = ConcurrentStore::new(many_object_store(&metrics));
    let mut objs = create_small_objects(&cs, 512);

    let old = cs.snapshot();
    let txn = cs.begin();
    let created_bytes = pattern(200, 3_000);
    let created = txn.create(&created_bytes, None).unwrap();
    let shard = created.id() % 256;
    let mates: Vec<usize> = (0..objs.len())
        .filter(|&i| objs[i].0.id() % 256 == shard)
        .collect();
    assert!(
        mates.len() >= 2,
        "ids {:?} share no shard with new id {}",
        mates,
        created.id()
    );
    let (replaced, deleted) = (mates[0], mates[1]);
    txn.replace(&mut objs[replaced].0, 0, &pattern(201, 50))
        .unwrap();
    txn.delete_object(&mut objs[deleted].0).unwrap();
    txn.commit().unwrap();

    // The pinned view: every id of the shard at its old root.
    for &i in &mates {
        let (obj, bytes) = &objs[i];
        assert_eq!(&old.read_all(obj.id()).unwrap(), bytes, "id {}", obj.id());
    }
    assert!(old.object_ids().contains(&objs[deleted].0.id()));
    assert!(old.object(created.id()).is_none());
    assert_eq!(old.object_ids().len(), 512);

    // A fresh snapshot sees the commit.
    let new = cs.snapshot();
    let mut want = objs[replaced].1.clone();
    want[..50].copy_from_slice(&pattern(201, 50));
    assert_eq!(new.read_all(objs[replaced].0.id()).unwrap(), want);
    assert!(matches!(
        new.read_all(objs[deleted].0.id()),
        Err(Error::UnknownObject { .. })
    ));
    assert_eq!(new.read_all(created.id()).unwrap(), created_bytes);
    for &i in &mates[2..] {
        let (obj, bytes) = &objs[i];
        assert_eq!(&new.read_all(obj.id()).unwrap(), bytes);
    }

    drop(old);
    drop(new);
    let mut named: Vec<(String, LargeObject)> = objs
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| i != deleted)
        .map(|(i, (obj, _))| (format!("o{i}"), obj))
        .collect();
    named.push(("created".to_string(), created));
    check_clean(cs, &named);
}

/// With ids in every shard, `object_ids` is strictly ascending and
/// equals a model's key set through creates and deletes.
#[test]
fn object_ids_are_ascending_across_all_shards() {
    let metrics = Metrics::new();
    let cs = ConcurrentStore::new(many_object_store(&metrics));
    let mut objs = create_small_objects(&cs, 600);
    let mut model: std::collections::BTreeSet<u64> = objs.iter().map(|(o, _)| o.id()).collect();

    let txn = cs.begin();
    for (obj, _) in objs.iter_mut().step_by(7) {
        model.remove(&obj.id());
        txn.delete_object(obj).unwrap();
    }
    for i in 0..40 {
        model.insert(txn.create(&pattern(i, 10), None).unwrap().id());
    }
    txn.commit().unwrap();

    let ids = cs.snapshot().object_ids();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "not strictly ascending"
    );
    assert_eq!(ids, model.into_iter().collect::<Vec<_>>());
}

/// A `ConcurrentStore` has one write path, the `Txn`. A write made to
/// the plain store between `try_into_inner` and a fresh
/// `ConcurrentStore::new` is re-seeded from the log, so a later `Txn`
/// rebases on it instead of losing it, and snapshots see both writes.
#[test]
fn plain_store_write_between_wraps_is_seen_by_the_next_txn() {
    let metrics = Metrics::new();
    let cs = ConcurrentStore::new(durable_store(&metrics));
    let txn = cs.begin();
    let mut o = txn.create(b"aaaa", None).unwrap();
    txn.commit().unwrap();

    let mut store = match cs.try_into_inner() {
        Ok(s) => s,
        Err(_) => panic!("a ConcurrentStore handle outlived the wrap"),
    };
    store.append(&mut o, b"bb").unwrap();
    let cs = ConcurrentStore::new(store);

    let txn = cs.begin();
    txn.append(&mut o, b"cc").unwrap();
    txn.commit().unwrap();

    let txn = cs.begin();
    assert_eq!(txn.read_all(&o).unwrap(), b"aaaabbcc");
    txn.commit().unwrap();
    assert_eq!(cs.snapshot().read_all(o.id()).unwrap(), b"aaaabbcc");
    check_clean(cs, &[("o".to_string(), o)]);
}
