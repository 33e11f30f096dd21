//! The barrier-mutation sweep — runtime half of eos-crashdep (L6).
//!
//! `tests/crash_sweep.rs` proves recovery holds at every I/O point when
//! every sync actually reached the platter. This suite attacks the
//! *syncs themselves*: the scripted crash workload runs once per
//! enumerated sync site with exactly that sync elided (the write group
//! it was supposed to seal stays queued behind the missing barrier),
//! and for each elision we search the crash images "power died after
//! sync *m*" for one that breaks recovery, committed-prefix equality,
//! or the `eos-check` invariants. A sync whose elision never produces a
//! failing image is dead weight — or worse, the static L6 contract
//! (DESIGN.md §15) claims an ordering the code does not need. Every
//! sync must be load-bearing.
//!
//! The census test closes the loop from the other side: the static
//! seal-site list extracted by `eos_lint::crashdep_analysis` must match
//! a pinned inventory, so adding/removing a sync in eos-core forces
//! whoever did it to revisit both the L6 annotations and this sweep.

mod common;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use common::*;
use eos::core::{LargeObject, ObjectStore, StoreConfig};
use eos::pager::{
    Calls, Cut, DiskProfile, FaultVolume, MemVolume, Persistence, Plan, SharedVolume,
};

/// Sync-count bookkeeping from one full (pass-through) workload run:
/// `pre[t]` / `post[t]` = syncs observed before `commit_txn` of txn `t`
/// was called / after it returned. Everything txn `t` made durable sits
/// at sync indices `< post[t]`, and its commit frame cannot be on disk
/// in any image that cuts before sync `pre[t]`.
struct SyncTrace {
    pre: Vec<usize>,
    post: Vec<usize>,
}

impl SyncTrace {
    /// Transactions **guaranteed** durable in the image "crashed after
    /// sync `m`" (groups `0..=m` applied): all of txn `t`'s writes and
    /// barriers landed iff `post[t] - 1 <= m`.
    fn must_have(&self, m: usize) -> usize {
        self.post.iter().filter(|&&c| c <= m + 1).count()
    }

    /// Transactions that **could** appear committed in that image: the
    /// commit frame write of txn `t` is issued after sync `pre[t]`, so
    /// it can be in a group `<= m` only if `pre[t] <= m`.
    fn may_have(&self, m: usize) -> usize {
        self.pre.iter().filter(|&&c| c <= m).count()
    }
}

/// A fresh durable store behind a journaling [`FaultVolume`]. `elide`
/// arms the mutation *before* the store is formatted, so the format and
/// checkpoint syncs are part of the enumerated site space too.
fn fresh_store(elide: Option<usize>) -> (ObjectStore, Arc<FaultVolume>) {
    let mem = MemVolume::with_profile(PAGE, VOLUME_PAGES, DiskProfile::FREE).shared();
    let mut plan = Plan::new().journal_images();
    if let Some(k) = elide {
        plan = plan.elide_sync(k as u64);
    }
    let mv = FaultVolume::with_plan(mem, plan).unwrap();
    let vol: SharedVolume = mv.clone();
    let store =
        ObjectStore::create_durable(vol, SPACES, PPS, StoreConfig::default(), WAL_PAGES).unwrap();
    (store, mv)
}

/// Syncs observed (forwarded or elided) since the store was formatted.
fn sync_count(mv: &FaultVolume) -> usize {
    mv.seen(Calls::Syncs) as usize
}

/// The crash image "power died after sync `m` fired" under `model`.
fn crash_image(mv: &FaultVolume, m: usize, model: Persistence) -> Vec<u8> {
    mv.image(Cut::AfterSync(m as u64), model).unwrap()
}

/// Run the scripted workload to completion (an elided sync still
/// returns `Ok`, so nothing fails live) and record the sync trace.
fn run_workload(store: &mut ObjectStore, mv: &FaultVolume) -> SyncTrace {
    let mut handles = BTreeMap::new();
    let mut trace = SyncTrace {
        pre: Vec::new(),
        post: Vec::new(),
    };
    for txn in workload() {
        store.begin_txn();
        for op in &txn {
            store_apply(store, &mut handles, op).unwrap();
        }
        trace.pre.push(sync_count(mv));
        store.commit_txn().unwrap();
        trace.post.push(sync_count(mv));
    }
    trace
}

type Recovered = (ObjectStore, BTreeMap<u64, Vec<u8>>, Vec<LargeObject>);

/// Recover a crash image; `None` if restart recovery itself rejects the
/// volume or a recovered object cannot be read back.
fn try_recover(image: Vec<u8>) -> Option<Recovered> {
    let vol = MemVolume::from_bytes(PAGE, image, DiskProfile::FREE).shared();
    let (store, report) =
        ObjectStore::open_durable(vol, SPACES, PPS, StoreConfig::default(), WAL_PAGES).ok()?;
    let mut bytes = BTreeMap::new();
    for obj in &report.objects {
        bytes.insert(obj.id(), store.read_all(obj).ok()?);
    }
    Some((store, bytes, report.objects))
}

fn checker_clean(store: &ObjectStore, objects: &[LargeObject]) -> bool {
    let named: Vec<(String, LargeObject)> = objects
        .iter()
        .map(|o| (format!("obj-{}", o.id()), o.clone()))
        .collect();
    eos_check::check_store(store, &named, None).is_clean()
}

/// Does this crash image violate the durability contract? A violation
/// is any of: recovery refuses the volume, the recovered state matches
/// no acceptable committed prefix, or `eos-check` finds structural rot.
fn image_violates(
    image: Vec<u8>,
    states: &[BTreeMap<u64, Vec<u8>>],
    trace: &SyncTrace,
    m: usize,
) -> bool {
    let Some((store, bytes, objects)) = try_recover(image) else {
        return true;
    };
    let lo = trace.must_have(m);
    let hi = trace.may_have(m);
    let prefix_ok = (lo..=hi).any(|j| states[j] == bytes);
    !prefix_ok || !checker_clean(&store, &objects)
}

/// Baseline: with every sync intact, every "crashed after sync m" image
/// (from the end of format onwards) recovers to an acceptable committed
/// prefix. This is the control for the sweep below — it shows a failing
/// image under elision is the *elision's* doing.
#[test]
fn baseline_images_all_recover() {
    let states = model_states();
    let (mut store, mv) = fresh_store(None);
    let format_syncs = sync_count(&mv);
    assert!(format_syncs >= 1, "format must sync at least once");
    let trace = run_workload(&mut store, &mv);
    drop(store);

    let sealed = sync_count(&mv);
    assert_eq!(
        states.last().unwrap().len(),
        3,
        "model end state should hold three objects"
    );
    for m in format_syncs - 1..sealed {
        assert!(
            !image_violates(
                crash_image(&mv, m, Persistence::SealedOnly),
                &states,
                &trace,
                m
            ),
            "baseline image after sync {m} (of {sealed}) failed recovery"
        );
    }
}

/// The sweep: elide each sync site in turn and demand at least one
/// failing crash image. `SealedOnly` (the whole unsealed group stayed
/// in the queue) is tried first; `ReorderedTail` (the queue was
/// reordered and only the group's last write jumped the dead barrier)
/// is the fallback ordering.
#[test]
fn every_sync_site_is_load_bearing() {
    let states = model_states();

    // Baseline run fixes the sync-site count for the deterministic
    // workload (the same count is re-asserted per elision run).
    let (mut store, mv) = fresh_store(None);
    run_workload(&mut store, &mv);
    drop(store);
    let total = sync_count(&mv);
    println!("barrier mutation: {total} sync sites enumerated");
    assert!(total >= 10, "too few sync sites for a meaningful sweep");

    let mut unbroken: Vec<usize> = Vec::new();
    for k in 0..total {
        let (mut store, mv) = fresh_store(Some(k));
        let trace = run_workload(&mut store, &mv);
        drop(store);
        assert_eq!(
            sync_count(&mv),
            total,
            "k={k}: workload must be deterministic in its sync count"
        );
        if !elision_breaks_some_image(&mv, &states, &trace, k, total) {
            unbroken.push(k);
        }
    }
    assert!(
        unbroken.is_empty(),
        "sync sites {unbroken:?} (of {total}) were elided without any crash \
         image failing recovery — either the sync is dead weight or the \
         sweep's orderings are too tame"
    );
}

fn elision_breaks_some_image(
    mv: &FaultVolume,
    states: &[BTreeMap<u64, Vec<u8>>],
    trace: &SyncTrace,
    k: usize,
    total: usize,
) -> bool {
    for m in k..total {
        if image_violates(
            crash_image(mv, m, Persistence::SealedOnly),
            states,
            trace,
            m,
        ) || image_violates(
            crash_image(mv, m, Persistence::ReorderedTail),
            states,
            trace,
            m,
        ) {
            return true;
        }
    }
    false
}

/// CI smoke (`cargo test --test barrier_mutation quick_`): the three
/// barriers whose removal the static L6 rule provably catches —
/// txn 3's undo-image force in `logged_replace`, the data-before-log
/// barrier (`commit_barrier`), and the commit-frame force
/// (`commit_force`) — each also break a crash image at runtime.
#[test]
fn quick_pinned_barriers_each_break_recovery() {
    let states = model_states();
    let (mut store, mv) = fresh_store(None);
    let trace = run_workload(&mut store, &mv);
    drop(store);
    let total = sync_count(&mv);

    // txn 3 (index 2) is pure in-place replaces: its first sync is the
    // undo-image WAL force; its commit's last two syncs are the
    // shadow-data barrier and the commit-frame force.
    let undo_force = trace.post[1];
    let data_barrier = trace.post[2] - 2;
    let frame_force = trace.post[2] - 1;
    for (name, k) in [
        ("undo-image force", undo_force),
        ("shadow-data barrier", data_barrier),
        ("commit-frame force", frame_force),
    ] {
        let (mut store, mv) = fresh_store(Some(k));
        let trace = run_workload(&mut store, &mv);
        drop(store);
        assert!(
            elision_breaks_some_image(&mv, &states, &trace, k, total),
            "eliding the {name} (sync {k}) broke no crash image"
        );
    }
}

/// Anti-drift census: the seal sites the static L6 analysis extracts
/// from eos-core must match this pinned inventory, and the runtime
/// workload must actually cross enough sync sites to exercise them.
/// Adding or removing a `durability: seals(...)` annotation — or the
/// sync under it — fails this test until the sweep above is revisited.
#[test]
fn quick_static_seal_census_matches_runtime() {
    let analysis = eos_lint::crashdep_analysis(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();

    assert_eq!(
        analysis
            .classes
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>(),
        vec![
            "commit-frame",
            "committed-page",
            "mvcc-publish",
            "shadow-data",
            "superblock",
            "undo-image",
        ],
        "durability class table drifted (DESIGN.md §15)"
    );

    // (file, classes sealed) per seal site, sorted by location.
    let seal_sites: Vec<(String, Vec<String>)> = analysis
        .seal_sites_in("eos-core")
        .iter()
        .map(|c| {
            let file = c
                .location
                .rsplit_once(':')
                .map_or(c.location.as_str(), |(f, _)| f)
                .to_string();
            (file, c.seals.clone())
        })
        .collect();
    let expect = |f: &str, s: &[&str]| {
        (
            format!("crates/core/src/{f}"),
            s.iter().map(|c| (*c).to_string()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(
        seal_sites,
        vec![
            expect("durable.rs", &["shadow-data", "superblock"]),
            expect("durable.rs", &["shadow-data"]),
            expect("durable.rs", &["superblock"]),
            // The commit protocol's two syncs (commit_barrier,
            // commit_force), then abort_scope's restores-before-Abort.
            expect("store.rs", &["shadow-data"]),
            expect("store.rs", &["commit-frame"]),
            expect("store.rs", &["shadow-data"]),
            expect("store/logged.rs", &["undo-image"]),
            // StripedWal::data_barrier and ::sync_stripes — the syncs
            // under those two stages.
            expect("striped.rs", &["shadow-data"]),
            expect("striped.rs", &["commit-frame"]),
        ],
        "eos-core seal-site census drifted: update the L6 annotations, this \
         pin, and re-run the barrier-mutation sweep"
    );

    // Runtime side: the canonical workload crosses the format sync plus
    // at least one undo force, data barrier, and commit force per txn.
    let (mut store, mv) = fresh_store(None);
    let format_syncs = sync_count(&mv);
    let trace = run_workload(&mut store, &mv);
    drop(store);
    assert!(format_syncs >= 1);
    assert!(
        sync_count(&mv) >= format_syncs + 2 * workload().len(),
        "workload crossed only {} sync sites — too few to exercise the \
         declared barriers",
        sync_count(&mv)
    );
    assert_eq!(trace.post.len(), workload().len());
}
