//! Where the buddy directories are written (DESIGN.md §7, §9).
//!
//! The paper's §3.3 writes a space's directory page on every allocation
//! and every free, and a volatile store still does exactly that. A
//! durable store does not: restart recovery reformats the directories
//! and rebuilds them from the log's committed roots, so the on-disk
//! page is a cache written at format time and once per space at the
//! end of each recovery, never by an allocation or a free. What it
//! leaves on disk between those points is stale but coherent, and the
//! next open recovers every committed object regardless.

use std::collections::BTreeMap;

use eos::core::{ConcurrentStore, Error, LargeObject, ObjectStore, StoreConfig};
use eos::obs::Metrics;
use eos::pager::{DiskProfile, Entry, FaultVolume, MemVolume, Plan, SharedVolume};

const PAGE: usize = 1024;
const SPACES: usize = 2;
const PPS: u64 = 1024;
const WAL_PAGES: u64 = 62;
const VOLUME_PAGES: u64 = (PPS + 1) * SPACES as u64 + WAL_PAGES;

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i % 251) as u8))
        .collect()
}

/// Journaled writes that start at a directory page `i·(pps+1)`.
fn dir_writes(journal: &[Entry]) -> u64 {
    journal
        .iter()
        .filter(|e| {
            matches!(e, Entry::Write { start, .. }
                if start % (PPS + 1) == 0 && *start < (PPS + 1) * SPACES as u64)
        })
        .count() as u64
}

/// Create, copy-on-write replace and delete objects through `cs`, one
/// transaction per step. Returns the survivors with their bytes.
fn churn(cs: &ConcurrentStore) -> Vec<(LargeObject, Vec<u8>)> {
    let mut live = Vec::new();
    for i in 0..6u8 {
        let bytes = pattern(i, 3_000 + 2_500 * i as usize);
        let txn = cs.begin();
        live.push((txn.create(&bytes, None).unwrap(), bytes));
        txn.commit().unwrap();
    }
    for (round, (obj, bytes)) in live.iter_mut().enumerate() {
        let patch = pattern(100 + round as u8, 1_500);
        let txn = cs.begin();
        txn.replace(obj, 700, &patch).unwrap();
        txn.commit().unwrap();
        bytes[700..2_200].copy_from_slice(&patch);
    }
    for _ in 0..2 {
        let (mut obj, _) = live.remove(1);
        let txn = cs.begin();
        txn.delete_object(&mut obj).unwrap();
        txn.commit().unwrap();
    }
    let bytes = pattern(200, 9_000);
    let txn = cs.begin();
    live.push((txn.create(&bytes, None).unwrap(), bytes));
    txn.commit().unwrap();
    live
}

/// A volatile store keeps the paper's cost: exactly one directory-page
/// write per allocation and per free.
#[test]
fn volatile_store_writes_one_directory_page_per_allocation_and_free() {
    let inner = MemVolume::with_profile(PAGE, VOLUME_PAGES, DiskProfile::FREE).shared();
    let volume = FaultVolume::with_plan(inner, Plan::new().journal()).unwrap();
    let mut store =
        ObjectStore::create(volume.clone(), SPACES, PPS, StoreConfig::default()).unwrap();
    let metrics = Metrics::new();
    store.set_metrics(&metrics);
    volume.take_journal();

    let cs = ConcurrentStore::new(store);
    churn(&cs);
    let snap = metrics.snapshot();
    let allocs = snap.histogram("buddy.alloc.pages").unwrap().count;
    let frees = snap.histogram("buddy.free.pages").unwrap().count;
    assert!(allocs > 0 && frees > 0, "the churn allocated and freed");
    assert_eq!(dir_writes(&volume.take_journal()), allocs + frees);
}

/// A durable store writes no directory page between format and the
/// next recovery; the raw directories it leaves are stale but
/// coherent, and recovery rebuilds them in memory and writes each
/// space once, at the end.
#[test]
fn durable_store_writes_no_directory_page_outside_format_and_recovery() {
    let inner: SharedVolume =
        MemVolume::with_profile(PAGE, VOLUME_PAGES, DiskProfile::FREE).shared();
    let volume = FaultVolume::with_plan(inner.clone(), Plan::new().journal()).unwrap();
    let mut store = ObjectStore::create_durable(
        volume.clone(),
        SPACES,
        PPS,
        StoreConfig::default(),
        WAL_PAGES,
    )
    .unwrap();
    let metrics = Metrics::new();
    store.set_metrics(&metrics);
    volume.take_journal();

    let cs = ConcurrentStore::new(store);
    let live = churn(&cs);
    drop(cs);
    let journal = volume.take_journal();
    let snap = metrics.snapshot();
    assert!(snap.histogram("buddy.free.pages").unwrap().count > 0);
    assert!(
        journal.iter().any(|e| matches!(e, Entry::Write { .. })),
        "the churn wrote nothing"
    );
    assert_eq!(
        dir_writes(&journal),
        0,
        "a durable op wrote a directory page"
    );

    let audit = eos_check::audit_volume(&inner, SPACES, PPS);
    assert!(audit.is_clean(), "{}", audit.render_table());

    let reopen = FaultVolume::with_plan(inner, Plan::new().journal()).unwrap();
    let (store, report) = ObjectStore::open_durable(
        reopen.clone(),
        SPACES,
        PPS,
        StoreConfig::default(),
        WAL_PAGES,
    )
    .unwrap();
    assert_eq!(
        dir_writes(&reopen.take_journal()),
        SPACES as u64,
        "recovery writes each directory once, after its rebuild"
    );
    let recovered: BTreeMap<u64, Vec<u8>> = report
        .objects
        .iter()
        .map(|o| (o.id(), store.read_all(o).unwrap()))
        .collect();
    let expected: BTreeMap<u64, Vec<u8>> = live
        .iter()
        .map(|(o, bytes)| (o.id(), bytes.clone()))
        .collect();
    assert_eq!(recovered, expected);
    let named: Vec<(String, LargeObject)> = report
        .objects
        .iter()
        .map(|o| (format!("obj-{}", o.id()), o.clone()))
        .collect();
    let check = eos_check::check_store(&store, &named, None);
    assert!(check.is_clean(), "{}", check.render_table());
}

/// The volatile `open` reads the directory pages back as they are, and
/// on a durable volume those are only as fresh as the last recovery: a
/// reopened store would hand out pages live objects own. So `open`
/// refuses a volume with a log region; `open_durable` is its way in.
#[test]
fn volatile_open_refuses_a_volume_with_a_log() {
    let volume = MemVolume::with_profile(PAGE, VOLUME_PAGES, DiskProfile::FREE).shared();
    let config = StoreConfig::default();
    let mut store =
        ObjectStore::create_durable(volume.clone(), SPACES, PPS, config, WAL_PAGES).unwrap();
    let obj = store.create_with(&pattern(1, 50_000), None).unwrap();
    drop(store);

    match ObjectStore::open(volume.clone(), SPACES, PPS, config, obj.id() + 1) {
        Err(Error::Unsupported { op: "open", .. }) => {}
        Err(e) => panic!("refused for the wrong reason: {e}"),
        Ok(mut store) => {
            let other = store.create_with(&pattern(2, 50_000), None).unwrap();
            let named = [("obj".to_string(), obj), ("other".to_string(), other)];
            let report = eos_check::check_store(&store, &named, None);
            panic!("open accepted a durable volume:\n{}", report.render_table());
        }
    }
    let (store, report) =
        ObjectStore::open_durable(volume, SPACES, PPS, config, WAL_PAGES).unwrap();
    assert_eq!(report.objects.len(), 1);
    assert_eq!(
        store.read_all(&report.objects[0]).unwrap(),
        pattern(1, 50_000)
    );
}
