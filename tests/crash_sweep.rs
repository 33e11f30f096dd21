//! The exhaustive crash-point sweep: for a scripted workload of
//! transactional create/append/insert/delete/replace/delete-object
//! operations against a durable store, simulate a power loss after
//! exactly *k* page writes — for **every** k the workload performs, and
//! for every [`Scenario`]: the final write vanishing, the final write
//! torn, and the device losing everything it had not been told to sync
//! — then reopen the half-written volume, run restart recovery, and
//! assert:
//!
//! 1. every transaction whose commit returned success before the crash
//!    is present byte-for-byte (committed-prefix equality);
//! 2. the transaction in flight at the crash is either fully present or
//!    fully absent — present only if the crash hit its commit append
//!    (the limbo window §4.5 allows), never a byte-mixture;
//! 3. `eos-check` finds nothing wrong with the recovered volume.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::*;
use eos::core::{ConcurrentStore, LargeObject, ObjectStore, StoreConfig};
use eos::pager::{
    Calls, Cut, DiskProfile, FaultVolume, MemVolume, Persistence, Plan, SharedVolume,
};

// The striped variant runs two WAL stripes; each slice gets the full
// single-log capacity so checkpoint pressure stays comparable.
const STRIPED_WAL_PAGES: u64 = 2 * WAL_PAGES;
const STRIPED_VOLUME_PAGES: u64 = (PPS + 1) * SPACES as u64 + STRIPED_WAL_PAGES;

/// `(config, WAL pages, volume pages)` of a sweep's store.
type Geometry = (StoreConfig, u64, u64);

fn single_log() -> Geometry {
    (StoreConfig::default(), WAL_PAGES, VOLUME_PAGES)
}

fn striped() -> Geometry {
    let config = StoreConfig {
        wal_stripes: 2,
        ..StoreConfig::default()
    };
    (config, STRIPED_WAL_PAGES, STRIPED_VOLUME_PAGES)
}

/// Where the crash error (if any) surfaced.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Every transaction committed.
    Completed,
    /// Crash surfaced mid-operation or mid-abort: `n` txns committed,
    /// the in-flight one cannot have reached its commit record.
    CrashedInTxn(usize),
    /// Crash surfaced inside `commit_txn` of txn `n` (0-based): the
    /// commit record may or may not have become durable — limbo.
    CrashedInCommit(usize),
}

/// Run a scripted workload transaction by transaction.
fn run_ops(store: &mut ObjectStore, txns: &[Vec<Op>]) -> Outcome {
    let mut handles = BTreeMap::new();
    for (t, txn) in txns.iter().enumerate() {
        store.begin_txn();
        for op in txn {
            if store_apply(store, &mut handles, op).is_err() {
                return Outcome::CrashedInTxn(t);
            }
        }
        if store.commit_txn().is_err() {
            return Outcome::CrashedInCommit(t);
        }
    }
    Outcome::Completed
}

/// How the power dies at write `k`, and what the device kept.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Write `k` vanishes; everything before it is on disk.
    Clean,
    /// Half of write `k`'s first page lands; everything before it is
    /// on disk.
    Torn,
    /// Write `k` vanishes, and so does every write since the last
    /// sync: the device had a volatile cache.
    LostUnsynced,
}

impl Scenario {
    const ALL: [Scenario; 3] = [Scenario::Clean, Scenario::Torn, Scenario::LostUnsynced];

    /// Arm `gate` to die at write `k` (`u64::MAX`: never — a counting
    /// run), journaling what [`Self::image`] needs.
    fn arm(self, gate: &FaultVolume, k: u64) {
        let torn = matches!(self, Scenario::Torn);
        gate.arm(Plan::new().power_cut(k, torn).journal_images())
            .unwrap();
    }

    /// The disk as of the power loss.
    fn image(self, gate: &FaultVolume) -> Vec<u8> {
        let model = match self {
            Scenario::Clean | Scenario::Torn => Persistence::InOrder,
            Scenario::LostUnsynced => Persistence::SealedOnly,
        };
        gate.image(Cut::End, model).unwrap()
    }
}

/// A fresh durable store on a fault-injection gate over an in-memory
/// volume.
fn fresh_store((config, wal_pages, volume_pages): Geometry) -> (ObjectStore, Arc<FaultVolume>) {
    let mem = MemVolume::with_profile(PAGE, volume_pages, DiskProfile::FREE).shared();
    let gate = FaultVolume::new(mem);
    let vol: SharedVolume = gate.clone();
    let store = ObjectStore::create_durable(vol, SPACES, PPS, config, wal_pages).unwrap();
    (store, gate)
}

/// Recover the post-crash disk image and return (store, id → bytes).
fn recover(
    image: Vec<u8>,
    (config, wal_pages, _): Geometry,
) -> (ObjectStore, BTreeMap<u64, Vec<u8>>, Vec<LargeObject>) {
    let vol = MemVolume::from_bytes(PAGE, image, DiskProfile::FREE).shared();
    let (store, report) = ObjectStore::open_durable(vol, SPACES, PPS, config, wal_pages)
        .expect("recovery must succeed on any crash image");
    let mut bytes = BTreeMap::new();
    for obj in &report.objects {
        bytes.insert(obj.id(), store.read_all(obj).unwrap());
    }
    (store, bytes, report.objects)
}

fn assert_checker_clean(store: &ObjectStore, objects: &[LargeObject], ctx: &str) {
    let named: Vec<(String, LargeObject)> = objects
        .iter()
        .map(|o| (format!("obj-{}", o.id()), o.clone()))
        .collect();
    let report = eos_check::check_store(store, &named, None);
    assert!(
        report.is_clean(),
        "{ctx}: eos-check found problems:\n{}",
        report.render_table()
    );
}

/// The sweep itself, shared by every workload: one counting run to
/// size it and pin the end state, then one run per I/O point `k` and
/// [`Scenario`], each recovered and held to the oracle in the module
/// docs. `run` drives a fresh store through the workload and reports
/// where the crash surfaced; `states[j]` is the model after `j`
/// committed transactions. Returns the number of I/O points.
fn sweep(
    label: &str,
    geometry: Geometry,
    states: &[BTreeMap<u64, Vec<u8>>],
    run: impl Fn(ObjectStore) -> Outcome,
) -> u64 {
    let (store, gate) = fresh_store(geometry);
    Scenario::Clean.arm(&gate, u64::MAX);
    assert_eq!(run(store), Outcome::Completed);
    let total_writes = gate.seen(Calls::Writes);
    println!(
        "{label}: {total_writes} I/O points x {{clean, torn, lost-unsynced}} = {} scenarios",
        Scenario::ALL.len() as u64 * total_writes
    );
    let (_, final_bytes, _) = recover(Scenario::Clean.image(&gate), geometry);
    assert_eq!(&final_bytes, states.last().unwrap(), "{label}: end state");

    for scenario in Scenario::ALL {
        for k in 0..total_writes {
            let ctx = format!("{label} k={k} {scenario:?}");
            let (store, gate) = fresh_store(geometry);
            scenario.arm(&gate, k);
            let outcome = run(store);
            assert!(gate.has_crashed(), "{ctx}: the armed crash never fired");
            let (rstore, recovered, objects) = recover(scenario.image(&gate), geometry);

            let committed = match outcome {
                Outcome::Completed => panic!("{ctx}: workload completed despite the crash"),
                Outcome::CrashedInTxn(n) | Outcome::CrashedInCommit(n) => n,
            };
            // In commit limbo a cross-stripe scope has one extra legal
            // outcome a single log never sees: all parts durable →
            // present (states[committed + 1]); any part missing →
            // presumed abort → absent (states[committed]). Both reduce
            // to the same prefix-or-successor assertion.
            let limbo_ok = matches!(outcome, Outcome::CrashedInCommit(_))
                && recovered == states[committed + 1];
            assert!(
                recovered == states[committed] || limbo_ok,
                "{ctx}: recovered state matches neither the {committed}-txn \
                 prefix nor (in commit limbo) the next one.\n\
                 recovered ids: {:?}\nexpected ids: {:?}",
                recovered.keys().collect::<Vec<_>>(),
                states[committed].keys().collect::<Vec<_>>(),
            );
            assert_checker_clean(&rstore, &objects, &ctx);
        }
    }
    total_writes
}

#[test]
fn crash_sweep_every_io_point() {
    let total_writes = sweep("crash sweep", single_log(), &model_states(), |mut store| {
        run_ops(&mut store, &workload())
    });
    assert!(
        total_writes >= 100,
        "workload too small for a meaningful sweep: {total_writes} writes"
    );
}

// ---- Striped-WAL crash sweep (DESIGN.md §17, FORMAT.md §Striped WAL) -------

/// The striped workload: objects hash onto stripes by id (`id % 2`), so
/// object 1 and 3 log on stripe 1, object 2 on stripe 0. The scopes are
/// chosen to cover every cross-stripe shape the commit pipeline has:
///
/// * single-stripe commits landing on each stripe *alternately*, so both
///   stripes carry non-contiguous global LSNs and recovery must merge
///   them by LSN, not by position;
/// * cross-stripe commits (two `participants` parts, one per stripe)
///   whose crash window between the part appends must presume abort;
/// * a cross-stripe delete-object + create, the tombstone part and the
///   birth part on different stripes.
fn striped_workload() -> Vec<Vec<Op>> {
    vec![
        // txn 1: objects 1 (stripe 1) and 2 (stripe 0) born together —
        // a two-participant commit from the very first scope.
        vec![
            Op::Create(pattern(2 * PAGE + 100, 41)),
            Op::Create(pattern(PAGE + 40, 42)),
        ],
        // txn 2: stripe-1 solo commit.
        vec![
            Op::Append(1, pattern(PAGE + 33, 43)),
            Op::Insert(1, 300, pattern(150, 44)),
            Op::Append(1, pattern(2 * PAGE, 54)),
        ],
        // txn 3: stripe-0 solo commit — stripe 0's log now skips the
        // LSNs txn 2 burned on stripe 1.
        vec![
            Op::Replace(2, 64, pattern(200, 45)),
            Op::Append(2, pattern(PAGE, 46)),
        ],
        // txn 4: back to both stripes, shrink + splice in one scope.
        vec![Op::Delete(1, 200, 500), Op::Truncate(2, 700)],
        // txn 5: object 2 dies on stripe 0 while object 3 is born on
        // stripe 1 — the tombstone and the birth are separate parts of
        // one commit.
        vec![Op::DeleteObj(2), Op::Create(pattern(PAGE + 77, 47))],
        // txn 6: growth spurt on the newcomer — multi-page appends keep
        // stripe 1's log busy while stripe 0 sits idle.
        vec![
            Op::Append(3, pattern(3 * PAGE, 48)),
            Op::Replace(1, 10, pattern(90, 49)),
            Op::Insert(3, 100, pattern(PAGE + 8, 55)),
        ],
        // txn 7: a fourth object (stripe 0) revives cross-stripe
        // traffic after the stripe had gone quiet.
        vec![
            Op::Create(pattern(2 * PAGE + 31, 50)),
            Op::Insert(3, PAGE as u64, pattern(250, 51)),
        ],
        // txn 8: stripe-0 solo, then a final cross-stripe shrink.
        vec![
            Op::Replace(4, 0, pattern(300, 52)),
            Op::Append(4, pattern(PAGE / 2, 53)),
        ],
        vec![
            Op::Truncate(3, 600),
            Op::Delete(4, 100, 350),
            Op::Append(1, pattern(PAGE + 3, 56)),
        ],
    ]
}

/// Tentpole satellite: crash at every write I/O point of a two-stripe
/// log whose commits force the stripes together — part appends, the
/// per-stripe commit barriers, and the data-page traffic in between —
/// under every [`Scenario`]. Recovery must merge the stripes by
/// global LSN, presume abort on any incomplete cross-stripe part set,
/// and land every image on a committed prefix (or the §4.5 limbo
/// successor) with `eos-check` clean.
#[test]
fn crash_sweep_striped_wal_two_stripes() {
    let txns = striped_workload();
    let total_writes = sweep(
        "striped crash sweep (2 stripes)",
        striped(),
        &model_states_for(&txns),
        |mut store| run_ops(&mut store, &txns),
    );
    assert!(
        total_writes >= 60,
        "striped workload too small for a meaningful sweep: {total_writes} writes"
    );
}

// ---- MVCC publication/reclaim crash sweep (DESIGN.md §14) ------------------

/// The MVCC workload, replayed transaction by transaction through the
/// concurrent front-end: commits publish roots while snapshots pin
/// epochs (parking the deferred frees), and snapshot drops run the
/// reclaim I/O. Returns how many transactions committed and whether
/// the failure surfaced inside a commit (the limbo window).
fn run_mvcc_workload(cs: &ConcurrentStore) -> Outcome {
    let mut committed = 0usize;

    // txn 1: two objects are born.
    let txn = cs.begin();
    let mut a = match txn.create(&pattern(3 * PAGE + 50, 31), None) {
        Ok(o) => o,
        Err(_) => return Outcome::CrashedInTxn(committed),
    };
    let mut b = match txn.create(&pattern(PAGE + 30, 32), None) {
        Ok(o) => o,
        Err(_) => return Outcome::CrashedInTxn(committed),
    };
    if txn.commit().is_err() {
        return Outcome::CrashedInCommit(committed);
    }
    committed += 1;

    // A stalled reader pins the two-object epoch: every free below
    // parks behind it until the drop.
    let pin = cs.snapshot();

    // txn 2: copy-on-write replace + growth — all frees parked.
    let txn = cs.begin();
    if txn.replace(&mut a, 100, &pattern(400, 33)).is_err()
        || txn.append(&mut b, &pattern(600, 34)).is_err()
        || txn.append(&mut a, &pattern(2 * PAGE, 37)).is_err()
    {
        return Outcome::CrashedInTxn(committed);
    }
    if txn.commit().is_err() {
        return Outcome::CrashedInCommit(committed);
    }
    committed += 1;

    // txn 3: shrink + splice, still pinned.
    let txn = cs.begin();
    if txn.delete(&mut a, 300, 700).is_err()
        || txn.insert(&mut b, 64, &pattern(200, 35)).is_err()
        || txn.append(&mut b, &pattern(PAGE + 40, 38)).is_err()
    {
        return Outcome::CrashedInTxn(committed);
    }
    if txn.commit().is_err() {
        return Outcome::CrashedInCommit(committed);
    }
    committed += 1;

    // Reclaim I/O point: dropping the pin applies every parked batch
    // (directory-page writes). A crash in here is swallowed by the
    // drop — the next transaction surfaces it.
    drop(pin);

    // txn 4 under a second pin: one object dies (tombstone publish).
    let pin = cs.snapshot();
    let txn = cs.begin();
    if txn.replace(&mut a, 0, &pattern(128, 36)).is_err()
        || txn.append(&mut a, &pattern(3 * PAGE, 39)).is_err()
        || txn.delete_object(&mut b).is_err()
    {
        return Outcome::CrashedInTxn(committed);
    }
    if txn.commit().is_err() {
        return Outcome::CrashedInCommit(committed);
    }
    committed += 1;
    drop(pin);

    // txn 5: shrink and regrow with no reader pinned — frees apply
    // inline.
    let txn = cs.begin();
    if txn.truncate(&mut a, 800).is_err()
        || txn.append(&mut a, &pattern(2 * PAGE + 10, 40)).is_err()
    {
        return Outcome::CrashedInTxn(committed);
    }
    if txn.commit().is_err() {
        return Outcome::CrashedInCommit(committed);
    }
    committed += 1;

    // txn 6 under a third pin: copy-on-write replace and a head
    // insert, then the drop reclaims them.
    let pin = cs.snapshot();
    let txn = cs.begin();
    if txn.replace(&mut a, 200, &pattern(300, 41)).is_err()
        || txn.insert(&mut a, 0, &pattern(PAGE, 42)).is_err()
    {
        return Outcome::CrashedInTxn(committed);
    }
    if txn.commit().is_err() {
        return Outcome::CrashedInCommit(committed);
    }
    drop(pin);

    Outcome::Completed
}

/// `states[j]` = object id → bytes after `j` committed MVCC txns.
fn mvcc_model_states() -> Vec<BTreeMap<u64, Vec<u8>>> {
    let mut states = vec![BTreeMap::new()];
    let mut a = pattern(3 * PAGE + 50, 31);
    let mut b = pattern(PAGE + 30, 32);
    states.push(BTreeMap::from([(1, a.clone()), (2, b.clone())]));
    a[100..500].copy_from_slice(&pattern(400, 33));
    b.extend(pattern(600, 34));
    a.extend(pattern(2 * PAGE, 37));
    states.push(BTreeMap::from([(1, a.clone()), (2, b.clone())]));
    a.drain(300..1000);
    b.splice(64..64, pattern(200, 35));
    b.extend(pattern(PAGE + 40, 38));
    states.push(BTreeMap::from([(1, a.clone()), (2, b.clone())]));
    a[..128].copy_from_slice(&pattern(128, 36));
    a.extend(pattern(3 * PAGE, 39));
    states.push(BTreeMap::from([(1, a.clone())]));
    a.truncate(800);
    a.extend(pattern(2 * PAGE + 10, 40));
    states.push(BTreeMap::from([(1, a.clone())]));
    a[200..500].copy_from_slice(&pattern(300, 41));
    a.splice(0..0, pattern(PAGE, 42));
    states.push(BTreeMap::from([(1, a.clone())]));
    states
}

/// Satellite: crash at every write I/O point of the MVCC commit path —
/// root publication, deferred-free parking, and the reclaim that runs
/// when the last pin drops. Every image must recover to a committed
/// prefix (or the §4.5 limbo successor) with `eos-check` clean: a
/// parked batch lost in the crash must come back as *free* pages, not
/// as leaks.
#[test]
fn crash_sweep_mvcc_publish_and_reclaim() {
    let total_writes = sweep(
        "mvcc crash sweep",
        single_log(),
        &mvcc_model_states(),
        |store| run_mvcc_workload(&ConcurrentStore::new(store)),
    );
    assert!(
        total_writes >= 40,
        "MVCC workload too small for a meaningful sweep: {total_writes} writes"
    );
}

/// Recovery is idempotent even when the power dies again *during*
/// recovery: crash the recovery run itself at every one of its own I/O
/// points, then recover from that second-generation image.
#[test]
fn crash_sweep_double_crash_during_recovery() {
    // First-generation crash image: power loss mid-way through txn 3
    // (the replace transaction — the one with undo work to redo).
    let (mut store, gate) = fresh_store(single_log());
    Scenario::Clean.arm(&gate, u64::MAX);
    let mut handles = BTreeMap::new();
    let txns = workload();
    for txn in txns.iter().take(3) {
        store.begin_txn();
        for op in txn {
            store_apply(&mut store, &mut handles, op).unwrap();
        }
        store.commit_txn().unwrap();
    }
    // Open scope, never committed: pending replace images in the log.
    store.begin_txn();
    for op in &txns[3] {
        store_apply(&mut store, &mut handles, op).unwrap();
    }
    drop(store);
    let image = Scenario::Clean.image(&gate);

    // Recovery is the workload: reopen the first-generation image
    // through a gate armed to die at recovery's own write `k`.
    let recover_through_gate = |scenario: Scenario, k: u64| {
        let mem = MemVolume::from_bytes(PAGE, image.clone(), DiskProfile::FREE).shared();
        let gate = FaultVolume::new(mem);
        scenario.arm(&gate, k);
        let v: SharedVolume = gate.clone();
        let opened = ObjectStore::open_durable(v, SPACES, PPS, StoreConfig::default(), WAL_PAGES);
        (opened.is_ok(), gate)
    };
    let (finished, gate) = recover_through_gate(Scenario::Clean, u64::MAX);
    assert!(finished);
    let recovery_writes = gate.seen(Calls::Writes);
    assert!(recovery_writes > 0);
    println!("double-crash sweep: {recovery_writes} I/O points inside recovery");

    let states = model_states();
    for scenario in Scenario::ALL {
        for k in 0..recovery_writes {
            let ctx = format!("double-crash k={k} {scenario:?}");
            let (finished, gate) = recover_through_gate(scenario, k);
            assert!(!finished, "{ctx}: recovery finished despite the crash");
            let (rstore, recovered, objects) = recover(scenario.image(&gate), single_log());
            assert_eq!(
                recovered, states[3],
                "{ctx}: second recovery must land on the 3-txn prefix"
            );
            assert_checker_clean(&rstore, &objects, &ctx);
        }
    }
}
