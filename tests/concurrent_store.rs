//! The concurrent front-end under load: a seeded multi-writer /
//! multi-reader stress test against a single-threaded replay, two
//! writers on one object (no lost update), plus the commit-path failure
//! drills (log-full mid-commit must abort cleanly).

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use eos::core::durable::WalEntry;
use eos::core::{ConcurrentStore, Error, ObjectStore, StoreConfig};
use eos::obs::Metrics;
use eos::pager::{DiskProfile, FaultVolume, MemVolume, Plan, SharedVolume};

fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            ((i as u64)
                .wrapping_mul(31)
                .wrapping_add(seed.wrapping_mul(17))
                % 251) as u8
        })
        .collect()
}

/// Deterministic xorshift so every run (and the serial replay) sees
/// the same operation stream. Override the default with
/// `EOS_STRESS_SEED` to explore other schedules.
fn stress_seed() -> u64 {
    std::env::var("EOS_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE05_BEEF)
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One writer's scripted transaction stream: mutate its own object,
/// mirror every operation into a byte model, commit each transaction.
/// Returns the object and the model for the final comparison. The same
/// function drives the threaded run and the serial replay.
fn writer_script(txns: u64, seed: u64) -> Vec<(u8, u64, u64)> {
    let mut r = XorShift(seed | 1);
    let mut script = Vec::new();
    for _ in 0..txns {
        let op = (r.next() % 4) as u8;
        script.push((op, r.next(), r.next()));
    }
    script
}

/// Apply one scripted step to `(txn, obj)` and the `model` in step.
fn apply_step(
    step: (u8, u64, u64),
    txn: &eos::core::Txn,
    obj: &mut eos::core::LargeObject,
    model: &mut Vec<u8>,
) {
    let (op, a, b) = step;
    let size = model.len() as u64;
    match op {
        0 => {
            let data = pattern(a, 200 + (b % 800) as usize);
            txn.append(obj, &data).unwrap();
            model.extend_from_slice(&data);
        }
        1 if size > 0 => {
            let off = a % size;
            let len = (b % 500).min(size - off).max(1);
            let data = pattern(b, len as usize);
            txn.replace(obj, off, &data).unwrap();
            model[off as usize..(off + len) as usize].copy_from_slice(&data);
        }
        2 => {
            let off = a % (size + 1);
            let data = pattern(a ^ b, 100 + (b % 300) as usize);
            txn.insert(obj, off, &data).unwrap();
            model.splice(off as usize..off as usize, data.iter().copied());
        }
        _ if size > 1 => {
            let off = a % size;
            let len = (b % 400).min(size - off).max(1);
            txn.delete(obj, off, len).unwrap();
            model.drain(off as usize..(off + len) as usize);
        }
        _ => {
            let data = pattern(a, 64);
            txn.append(obj, &data).unwrap();
            model.extend_from_slice(&data);
        }
    }
}

/// Four writers on disjoint objects, two readers on a shared object,
/// group commit on. The final bytes of every object must equal a
/// single-threaded replay of the same scripts, the group-commit
/// histogram must show real batching, and the volume must pass a full
/// `eos check` afterwards.
#[test]
fn seeded_multiwriter_stress_matches_serial_replay() {
    const WRITERS: u64 = 4;
    const TXNS: u64 = 20;
    let seed = stress_seed();

    let run = |concurrent: bool| -> Vec<Vec<u8>> {
        let inner: SharedVolume =
            MemVolume::with_profile(1024, (1024 + 1) * 2 + 62, DiskProfile::FREE).shared();
        let throttle = Plan::new().sync_delay(Duration::from_micros(300));
        let volume: SharedVolume = FaultVolume::with_plan(inner, throttle).unwrap();
        let mut store = ObjectStore::create_durable(
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
        let metrics = Metrics::new();
        store.set_metrics(&metrics);

        // The shared object readers will hammer; committed up front.
        let shared_bytes = pattern(99, 120_000);
        let shared_obj = store.create_with(&shared_bytes, None).unwrap();

        let cs = ConcurrentStore::new(store);
        let mut finals: Vec<Vec<u8>> = Vec::new();
        let mut objs: Vec<eos::core::LargeObject> = Vec::new();

        if concurrent {
            let mut handles = Vec::new();
            for w in 0..WRITERS {
                let cs = cs.clone();
                handles.push(std::thread::spawn(move || {
                    let script = writer_script(TXNS, seed.wrapping_add(w));
                    let txn = cs.begin();
                    let mut obj = txn.create(&pattern(w, 1000), None).unwrap();
                    txn.commit().unwrap();
                    let mut model = pattern(w, 1000);
                    for step in script {
                        let txn = cs.begin();
                        apply_step(step, &txn, &mut obj, &mut model);
                        txn.commit().unwrap();
                    }
                    (obj, model)
                }));
            }
            let mut readers = Vec::new();
            for r in 0..2u64 {
                let cs = cs.clone();
                let expect = shared_bytes.clone();
                let obj = shared_obj.clone();
                readers.push(std::thread::spawn(move || {
                    let mut x = XorShift(seed ^ (r + 77));
                    for _ in 0..40 {
                        let txn = cs.begin();
                        let off = x.next() % (expect.len() as u64 - 4096);
                        let len = x.next() % 4096;
                        let got = txn.read(&obj, off, len).unwrap();
                        assert_eq!(got, &expect[off as usize..(off + len) as usize]);
                        txn.commit().unwrap();
                    }
                }));
            }
            for h in handles {
                let (obj, model) = h.join().unwrap();
                objs.push(obj);
                finals.push(model);
            }
            for r in readers {
                r.join().unwrap();
            }
        } else {
            for w in 0..WRITERS {
                let script = writer_script(TXNS, seed.wrapping_add(w));
                let txn = cs.begin();
                let mut obj = txn.create(&pattern(w, 1000), None).unwrap();
                txn.commit().unwrap();
                let mut model = pattern(w, 1000);
                for step in script {
                    let txn = cs.begin();
                    apply_step(step, &txn, &mut obj, &mut model);
                    txn.commit().unwrap();
                }
                objs.push(obj);
                finals.push(model);
            }
        }

        // The threaded phase garbles span attribution (concurrent
        // spans interleave), so snapshot the group-commit evidence
        // first, then reconcile attribution over a *serialized* tail.
        let snap = metrics.snapshot();
        if concurrent {
            let batches = snap.counter("wal.group_commits").unwrap_or(0);
            let hist = snap
                .histogram("wal.group_commit.batch")
                .expect("batch histogram registered");
            assert!(batches > 0, "group leader never ran");
            assert_eq!(hist.count, batches);
            assert!(
                hist.sum > hist.count,
                "no batch ever exceeded one transaction (sum {}, count {})",
                hist.sum,
                hist.count
            );
        }

        let mut store = match cs.try_into_inner() {
            Ok(s) => s,
            Err(_) => panic!("a handle outlived the threads"),
        };

        // Everything the threads wrote is visible through the plain
        // store, byte for byte.
        for (obj, model) in objs.iter().zip(&finals) {
            assert_eq!(&store.read_all(obj).unwrap(), model);
        }
        assert_eq!(store.read_all(&shared_obj).unwrap(), shared_bytes);

        // Serialized phase: with one thread every page of I/O happens
        // under exactly one span, so per-op attribution must sum to
        // the volume-global IoStats delta.
        let fresh = Metrics::new();
        store.set_metrics(&fresh);
        store.reset_io_stats();
        let mut extra = store.create_with(&pattern(7, 30_000), None).unwrap();
        store.append(&mut extra, &pattern(8, 5_000)).unwrap();
        store.replace(&mut extra, 100, &pattern(9, 2_000)).unwrap();
        let _ = store.read_all(&extra).unwrap();
        let snap = store.metrics_snapshot();
        let io = store.io_stats();
        assert_eq!(snap.attributed_seeks(), io.seeks);
        assert_eq!(snap.attributed_transfers(), io.page_reads + io.page_writes);

        // The volume is structurally clean: no leaks, no double-owned
        // pages, directories consistent.
        let mut named: Vec<(String, eos::core::LargeObject)> = objs
            .iter()
            .enumerate()
            .map(|(i, o)| (format!("writer-{i}"), o.clone()))
            .collect();
        named.push(("shared".to_string(), shared_obj.clone()));
        named.push(("extra".to_string(), extra.clone()));
        let report = eos_check::check_store(&store, &named, None);
        assert!(report.is_clean(), "{}", report.render_table());

        finals
    };

    let threaded = run(true);
    let serial = run(false);
    assert_eq!(threaded, serial, "threaded run diverged from serial replay");
}

/// A durable two-space store on memory, syncs costing `sync_delay`.
fn small_durable_store(sync_delay: Duration) -> ObjectStore {
    let inner: SharedVolume =
        MemVolume::with_profile(1024, (1024 + 1) * 2 + 62, DiskProfile::FREE).shared();
    let volume: SharedVolume =
        FaultVolume::with_plan(inner, Plan::new().sync_delay(sync_delay)).unwrap();
    ObjectStore::create_durable(
        volume,
        2,
        1024,
        StoreConfig {
            sync_on_commit: true,
            ..StoreConfig::default()
        },
        62,
    )
    .unwrap()
}

fn assert_clean(cs: ConcurrentStore, named: &[(String, eos::core::LargeObject)]) {
    let store = match cs.try_into_inner() {
        Ok(s) => s,
        Err(_) => panic!("a handle outlived the threads"),
    };
    let report = eos_check::check_store(&store, named, None);
    assert!(report.is_clean(), "{}", report.render_table());
}

/// Regression: two transactions write disjoint byte ranges of one
/// committed 64 KiB object, each through its own clone of the
/// descriptor. Both must land, and the volume must stay clean. When
/// the lock table admitted both writers at once, each shadowed the
/// object from its own copy of the root: the later commit dropped the
/// earlier one's bytes and freed pages the other root still
/// referenced.
#[test]
fn two_writers_on_one_object_lose_no_update() {
    let cs = ConcurrentStore::new(small_durable_store(Duration::ZERO));
    let txn = cs.begin();
    let obj = txn.create(&pattern(1, 65_536), None).unwrap();
    txn.commit().unwrap();

    let (mut a, b) = (obj.clone(), obj.clone());
    let ta = cs.begin();
    ta.replace(&mut a, 0, &pattern(2, 1_000)).unwrap();
    let (replaced, b_replaced) = mpsc::channel();
    let writer_b = {
        let cs = cs.clone();
        std::thread::spawn(move || {
            let mut b = b;
            let tb = cs.begin();
            tb.replace(&mut b, 40_000, &pattern(3, 1_000)).unwrap();
            replaced.send(()).unwrap();
            tb.commit().unwrap();
            b
        })
    };
    // Let B's replace run first if the lock table admits it beside A;
    // if B waits for A's lock instead, go on after a short grace.
    let _ = b_replaced.recv_timeout(Duration::from_millis(100));
    ta.commit().unwrap();
    let b = writer_b.join().unwrap();

    let mut want = pattern(1, 65_536);
    want[..1_000].copy_from_slice(&pattern(2, 1_000));
    want[40_000..41_000].copy_from_slice(&pattern(3, 1_000));
    let got = cs.snapshot().read_all(obj.id()).unwrap();
    let lost = got.iter().zip(&want).position(|(g, w)| g != w);
    assert!(
        got.len() == want.len() && lost.is_none(),
        "lost update: committed bytes differ from both edits at byte {lost:?}"
    );
    assert_clean(cs, &[("obj".to_string(), b)]);
}

/// Two threads run scripted transactions against one shared object.
/// Each transaction appends a tag (taking the object lock), then
/// applies one scripted step sized from the object's current bytes and
/// records both in a shared history while it still holds the lock, so
/// the history is the commit order. A single-threaded replay of that
/// history must produce the same bytes, and both volumes must pass
/// `eos check`.
#[test]
fn two_threaded_writers_on_one_object_match_serial_replay() {
    const TXNS: u64 = 15;
    type History = Vec<(u64, (u8, u64, u64))>;
    let seed = stress_seed();
    let initial = pattern(5, 20_000);

    let cs = ConcurrentStore::new(small_durable_store(Duration::from_micros(100)));
    let txn = cs.begin();
    let obj = txn.create(&initial, None).unwrap();
    txn.commit().unwrap();

    let shared = Arc::new(Mutex::new((initial.clone(), History::new())));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (cs, shared, mut obj) = (cs.clone(), Arc::clone(&shared), obj.clone());
            std::thread::spawn(move || {
                for (i, step) in writer_script(TXNS, seed.wrapping_add(w))
                    .into_iter()
                    .enumerate()
                {
                    let tag = w * 1_000 + i as u64;
                    let txn = cs.begin();
                    txn.append(&mut obj, &pattern(tag, 16)).unwrap();
                    {
                        let mut guard = shared.lock().unwrap();
                        let (model, history) = &mut *guard;
                        model.extend_from_slice(&pattern(tag, 16));
                        apply_step(step, &txn, &mut obj, model);
                        history.push((tag, step));
                    }
                    txn.commit().unwrap();
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    let (model, history) = Arc::try_unwrap(shared).unwrap().into_inner().unwrap();
    assert_eq!(history.len() as u64, 2 * TXNS);
    let threaded = cs.snapshot().read_all(obj.id()).unwrap();
    assert_eq!(
        threaded, model,
        "committed bytes differ from the commit-order model"
    );
    let committed = cs.snapshot().object(obj.id()).unwrap();
    assert_clean(cs, &[("obj".to_string(), committed)]);

    let replay = ConcurrentStore::new(small_durable_store(Duration::ZERO));
    let txn = replay.begin();
    let mut robj = txn.create(&initial, None).unwrap();
    txn.commit().unwrap();
    let mut rmodel = initial;
    for (tag, step) in history {
        let txn = replay.begin();
        txn.append(&mut robj, &pattern(tag, 16)).unwrap();
        rmodel.extend_from_slice(&pattern(tag, 16));
        apply_step(step, &txn, &mut robj, &mut rmodel);
        txn.commit().unwrap();
    }
    assert_eq!(replay.snapshot().read_all(robj.id()).unwrap(), threaded);
    assert_clean(replay, &[("obj".to_string(), robj)]);
}

/// Sixteen writers on a sharded store (8 WAL stripes, 4 buddy
/// spaces), run through both commit pipelines — solo (per-stripe
/// forces overlap) and grouped (one leader lane per stripe) — and
/// checked against a single-threaded replay of the same scripts.
/// Under `--features lockdep` the runtime witness watches the whole
/// sharded lock order: `wal.scopes` → `wal.stripe`, `buddy.space`,
/// and the store latch never wrapping a lane mutex.
#[test]
fn sixteen_writer_striped_stress_matches_serial_replay() {
    const WRITERS: u64 = 16;
    const TXNS: u64 = 6;
    let seed = stress_seed();

    for group in [false, true] {
        let run = |concurrent: bool| -> Vec<Vec<u8>> {
            let inner: SharedVolume =
                MemVolume::with_profile(1024, (1024 + 1) * 4 + 8 * 62, DiskProfile::FREE).shared();
            let throttle = Plan::new().sync_delay(Duration::from_micros(100));
            let volume: SharedVolume = FaultVolume::with_plan(inner, throttle).unwrap();
            let store = ObjectStore::create_durable(
                volume,
                4,
                1024,
                StoreConfig {
                    sync_on_commit: true,
                    wal_stripes: 8,
                    ..StoreConfig::default()
                },
                8 * 62,
            )
            .unwrap();
            let cs = ConcurrentStore::with_group_commit(store, group);

            let worker = |w: u64, cs: &ConcurrentStore| -> (eos::core::LargeObject, Vec<u8>) {
                let script = writer_script(TXNS, seed.wrapping_add(w));
                let txn = cs.begin();
                let mut obj = txn.create(&pattern(w, 600), None).unwrap();
                txn.commit().unwrap();
                let mut model = pattern(w, 600);
                for step in script {
                    let txn = cs.begin();
                    apply_step(step, &txn, &mut obj, &mut model);
                    txn.commit().unwrap();
                }
                (obj, model)
            };

            let mut finals: Vec<Vec<u8>> = Vec::new();
            let mut objs: Vec<eos::core::LargeObject> = Vec::new();
            if concurrent {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..WRITERS)
                        .map(|w| {
                            let cs = cs.clone();
                            s.spawn(move || worker(w, &cs))
                        })
                        .collect();
                    for h in handles {
                        let (obj, model) = h.join().unwrap();
                        objs.push(obj);
                        finals.push(model);
                    }
                });
            } else {
                for w in 0..WRITERS {
                    let (obj, model) = worker(w, &cs);
                    objs.push(obj);
                    finals.push(model);
                }
            }

            let store = match cs.try_into_inner() {
                Ok(s) => s,
                Err(_) => panic!("a handle outlived the threads"),
            };
            for (obj, model) in objs.iter().zip(&finals) {
                assert_eq!(&store.read_all(obj).unwrap(), model);
            }
            let named: Vec<(String, eos::core::LargeObject)> = objs
                .iter()
                .enumerate()
                .map(|(i, o)| (format!("writer-{i}"), o.clone()))
                .collect();
            let report = eos_check::check_store(&store, &named, None);
            assert!(
                report.is_clean(),
                "group={group}: {}",
                report.render_table()
            );
            finals
        };

        let threaded = run(true);
        let serial = run(false);
        assert_eq!(
            threaded, serial,
            "group={group}: threaded run diverged from serial replay"
        );
    }
}

/// A commit whose record cannot fit in the log (even after a
/// checkpoint flip) must fail with `LogFull` and leave the store
/// exactly as an abort would: transaction gone, objects intact,
/// allocator clean, next transaction unaffected.
#[test]
fn log_full_during_commit_aborts_cleanly() {
    // 256-byte pages; the WAL gets 18 pages = 2 superblocks + two
    // 8-page halves, so each half holds 2048 log bytes.
    const HALF: usize = 8 * 256;
    let vol: SharedVolume = MemVolume::with_profile(256, 513 + 18, DiskProfile::FREE).shared();
    let mut store = ObjectStore::create_durable(vol, 1, 512, StoreConfig::default(), 18).unwrap();

    // Create small committed objects until one transaction deleting
    // all of them could not possibly commit: its commit record (one
    // tombstone per object) plus the checkpoint that the append would
    // flip to (one root per object) exceed the half. Deletes log no
    // per-op entries, so the commit record is the first thing to hit
    // the limit — exactly the mid-commit failure under test.
    let mut objs = Vec::new();
    loop {
        let data = pattern(objs.len() as u64, 40);
        objs.push((store.create_with(&data, None).unwrap(), data));
        let wal = store.durable_wal().unwrap();
        let cp = WalEntry::Checkpoint {
            max_lsn: 0,
            roots: wal
                .committed()
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
        };
        let commit = WalEntry::Commit {
            txn: 0,
            lsn: 0,
            participants: 1,
            touched: Vec::new(),
            deleted: objs.iter().map(|(o, _)| o.id()).collect(),
        };
        // Three frame headers (checkpoint, commit, terminator) are
        // deliberately ignored: requiring the payloads alone to
        // overflow only makes the condition stronger.
        if cp.to_bytes().len() + commit.to_bytes().len() > HALF {
            break;
        }
        assert!(objs.len() < 200, "calibration ran away");
    }

    store.begin_txn();
    for (obj, _) in objs.iter_mut() {
        store.delete_object(obj).unwrap();
    }
    let err = store.commit_txn().unwrap_err();
    assert!(matches!(err, Error::LogFull { .. }), "got {err}");

    // The failed commit degenerated into a clean abort: no open scope,
    // every object byte-intact, and the allocator took no damage. The
    // client-side descriptors were mutated by the (rolled-back)
    // deletes, so rehydrate them from the committed root map — exactly
    // what a client recovering from an abort does.
    assert!(!store.in_txn());
    let committed: Vec<(u64, Vec<u8>)> = {
        let wal = store.durable_wal().unwrap();
        wal.committed()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    };
    for (obj, data) in objs.iter_mut() {
        let root = committed
            .iter()
            .find(|(id, _)| *id == obj.id())
            .unwrap_or_else(|| panic!("object {} missing from the committed map", obj.id()));
        *obj = eos::core::LargeObject::from_bytes(&root.1).unwrap();
        assert_eq!(&store.read_all(obj).unwrap(), data);
    }

    // The store remains fully usable for a normal-sized transaction.
    store.begin_txn();
    let keeper = store.create_with(&pattern(500, 64), None).unwrap();
    store.commit_txn().unwrap();

    let mut named: Vec<(String, eos::core::LargeObject)> = objs
        .iter()
        .enumerate()
        .map(|(i, (o, _))| (format!("obj-{i}"), o.clone()))
        .collect();
    named.push(("keeper".to_string(), keeper));
    let report = eos_check::check_store(&store, &named, None);
    assert!(report.is_clean(), "{}", report.render_table());
}
