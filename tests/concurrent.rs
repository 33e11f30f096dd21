//! Concurrency smoke tests: shared read access across threads (reads
//! take `&ObjectStore`), writers serialized by the §4.5 whole-object
//! lock of a `ConcurrentStore`, and a lock cycle refused with a typed
//! error instead of a hang.

use eos::core::{ConcurrentStore, Error, LargeObject, ObjectStore, StoreConfig, Threshold};
use eos::pager::{DiskProfile, MemVolume};
use std::sync::{mpsc, Arc, Barrier, Mutex, RwLock};
use std::time::Duration;

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 11) % 251) as u8).collect()
}

#[test]
fn parallel_readers_share_the_store() {
    let vol = MemVolume::with_profile(1024, 8_002, DiskProfile::FREE).shared();
    let mut store = ObjectStore::create(
        vol,
        2,
        4_000,
        StoreConfig {
            threshold: Threshold::Fixed(4),
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let data = pattern(2_000_000);
    let mut obj = store.create_with(&data, Some(data.len() as u64)).unwrap();
    // Fragment a little so descents hit real index pages.
    for i in 0..30u64 {
        store
            .insert(&mut obj, (i * 65_537) % 1_900_000, b"wedge")
            .unwrap();
    }
    let model = store.read_all(&obj).unwrap();

    let store = Arc::new(store);
    let obj = Arc::new(obj);
    let model = Arc::new(model);
    let mut threads = Vec::new();
    for t in 0..8u64 {
        let store = store.clone();
        let obj = obj.clone();
        let model = model.clone();
        threads.push(std::thread::spawn(move || {
            let mut x = 0x9E37_79B9u64 ^ t;
            for _ in 0..200 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let size = obj.size();
                let off = x % size;
                let len = (x >> 32) % 5_000;
                let len = len.min(size - off);
                let got = store.read(&obj, off, len).unwrap();
                assert_eq!(got, &model[off as usize..(off + len) as usize]);
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn locked_writers_serialize_correctly() {
    // Six writer threads insert into one shared object, one transaction
    // per insert. The exclusive object lock serializes them, and each
    // transaction rebases on the root its predecessor committed, so
    // every insert lands and every commit succeeds.
    let cs = ConcurrentStore::new(durable_store());
    let txn = cs.begin();
    let obj = txn.create(&pattern(100_000), None).unwrap();
    txn.commit().unwrap();

    let mut threads = Vec::new();
    for t in 0..6u64 {
        let (cs, mut obj) = (cs.clone(), obj.clone());
        threads.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let off = (t * 9973 + i * 131) % 90_000;
                let txn = cs.begin();
                txn.insert(&mut obj, off, &[t as u8; 16]).unwrap();
                assert_eq!(txn.read(&obj, off, 16).unwrap(), [t as u8; 16]);
                txn.commit().unwrap();
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let committed = cs.snapshot().object(obj.id()).unwrap();
    assert_eq!(committed.size(), 100_000 + 6 * 50 * 16);
    check_clean(cs, &[committed]);
}

/// Two writers take objects A and B in opposite orders. Waiting for its
/// second lock would close a cycle for exactly one of them: that one
/// gets `Error::Deadlock` and aborts, which lets the other commit. The
/// watchdog turns a regression into a failure instead of a hang.
#[test]
fn ab_ba_lock_cycle_ends_in_one_commit_and_one_deadlock() {
    let cs = ConcurrentStore::new(durable_store());
    let txn = cs.begin();
    let a = txn.create(&pattern(4_000), None).unwrap();
    let b = txn.create(&pattern(4_000), None).unwrap();
    txn.commit().unwrap();

    let both_hold_one = Arc::new(Barrier::new(2));
    let mut writers = Vec::new();
    let (tx, rx) = mpsc::channel();
    for (w, (mut first, mut second)) in [(a.clone(), b.clone()), (b.clone(), a.clone())]
        .into_iter()
        .enumerate()
    {
        let (cs, barrier, tx) = (cs.clone(), both_hold_one.clone(), tx.clone());
        writers.push(std::thread::spawn(move || {
            let stamp = [w as u8 + 1; 8];
            let txn = cs.begin();
            txn.replace(&mut first, 0, &stamp).unwrap();
            barrier.wait();
            let outcome = match txn.replace(&mut second, 0, &stamp) {
                Ok(()) => txn.commit().map(|()| w),
                Err(e) => {
                    drop(txn); // aborts, releasing its lock
                    Err(e)
                }
            };
            tx.send(outcome).unwrap();
        }));
    }
    let outcomes: Vec<_> = (0..2)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("the AB/BA schedule hung")
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let winners: Vec<usize> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok())
        .copied()
        .collect();
    let deadlocks = outcomes
        .iter()
        .filter(|o| matches!(o, Err(Error::Deadlock { .. })))
        .count();
    assert_eq!((winners.len(), deadlocks), (1, 1), "{outcomes:?}");

    // Only the winner's bytes are committed, in both objects.
    let stamp = [winners[0] as u8 + 1; 8];
    let snap = cs.snapshot();
    for id in [a.id(), b.id()] {
        let bytes = snap.read_all(id).unwrap();
        assert_eq!(&bytes[..8], &stamp, "object {id}");
        assert_eq!(bytes[8..], pattern(4_000)[8..], "object {id}");
    }
    let named = [a.id(), b.id()].map(|id| snap.object(id).unwrap());
    drop(snap);
    check_clean(cs, &named);
}

/// A durable in-memory store: its commits publish the roots that a
/// writer rebases on once it holds the object lock.
fn durable_store() -> ObjectStore {
    let vol = MemVolume::with_profile(1024, 2 * 4_001 + 62, DiskProfile::FREE).shared();
    ObjectStore::create_durable(vol, 2, 4_000, StoreConfig::default(), 62).unwrap()
}

/// `eos check` over the unwrapped store, naming `objects`.
fn check_clean(cs: ConcurrentStore, objects: &[LargeObject]) {
    let Ok(store) = cs.try_into_inner() else {
        panic!("a ConcurrentStore handle outlived the test");
    };
    let named: Vec<(String, LargeObject)> = objects
        .iter()
        .map(|o| (format!("obj-{}", o.id()), o.clone()))
        .collect();
    let report = eos_check::check_store(&store, &named, None);
    assert!(report.is_clean(), "{}", report.render_table());
}

/// Readers during open writer transactions (§4.5 deferred deallocation).
///
/// Shadowed updates (insert/delete/append/truncate) never overwrite
/// committed pages, and the pages an update supersedes are only freed
/// when the transaction commits. So a reader holding the last
/// *committed* descriptor must see byte-exact committed contents even
/// while a writer transaction has already shadow-updated the object.
///
/// The schedule is deterministic (barrier-stepped, fixed xorshift
/// seed): each round the writer opens a transaction and applies a few
/// shadowed ops, then parks while every reader hammers the previous
/// committed descriptor — concurrently with the open, uncommitted
/// transaction — then the writer commits (or aborts, every 5th round)
/// and publishes. A torn read or a reused-too-early page shows up as a
/// byte mismatch.
#[test]
fn readers_see_committed_state_during_writer_txns() {
    const ROUNDS: usize = 24;
    const READERS: usize = 4;
    const READS_PER_ROUND: usize = 16;

    let store = Arc::new(RwLock::new(ObjectStore::in_memory(1024, 8_000)));
    // (descriptor bytes, expected contents) of the last committed state.
    let published = {
        let mut s = store.write().unwrap();
        let data = pattern(120_000);
        let o = s.create_with(&data, None).unwrap();
        Arc::new(Mutex::new((o, data)))
    };
    // Three rendezvous per round: A = txn open, readers go; B = readers
    // done, writer may commit; C = published, next round.
    let barrier = Arc::new(Barrier::new(READERS + 1));

    let mut threads = Vec::new();
    for t in 0..READERS as u64 {
        let store = store.clone();
        let published = published.clone();
        let barrier = barrier.clone();
        threads.push(std::thread::spawn(move || {
            let mut x = 0x2545_F491_4F6C_DD1Du64 ^ (t + 1);
            for _ in 0..ROUNDS {
                barrier.wait(); // A: txn is open, shadows in place
                let (obj, expected) = published.lock().unwrap().clone();
                let s = store.read().unwrap();
                assert!(s.in_txn(), "writer transaction should be open");
                for _ in 0..READS_PER_ROUND {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let size = obj.size();
                    let off = x % size;
                    let len = ((x >> 33) % 7_000).min(size - off);
                    let got = s.read(&obj, off, len).unwrap();
                    assert_eq!(
                        got,
                        &expected[off as usize..(off + len) as usize],
                        "torn read at {off}+{len} during open txn"
                    );
                }
                drop(s);
                barrier.wait(); // B: readers done
                barrier.wait(); // C: writer published
            }
        }));
    }

    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for round in 0..ROUNDS {
        let (mut obj, mut model) = published.lock().unwrap().clone();
        {
            let mut s = store.write().unwrap();
            s.begin_txn();
            for _ in 0..3 {
                let size = model.len() as u64;
                match step() % 4 {
                    0 => {
                        let at = step() % (size + 1);
                        let data = pattern(1 + (step() % 4_000) as usize);
                        s.insert(&mut obj, at, &data).unwrap();
                        model.splice(at as usize..at as usize, data.iter().copied());
                    }
                    1 if size > 1 => {
                        let at = step() % size;
                        let len = (step() % 3_000).min(size - at).max(1);
                        s.delete(&mut obj, at, len).unwrap();
                        model.drain(at as usize..(at + len) as usize);
                    }
                    2 => {
                        let data = pattern(1 + (step() % 5_000) as usize);
                        s.append(&mut obj, &data).unwrap();
                        model.extend_from_slice(&data);
                    }
                    _ if size > 1 => {
                        let to = size - (step() % (size / 2)).max(1);
                        s.truncate(&mut obj, to).unwrap();
                        model.truncate(to as usize);
                    }
                    _ => {}
                }
            }
        } // drop write guard: txn stays open, deferred frees pending
        barrier.wait(); // A — readers verify the *previous* commit
        barrier.wait(); // B — readers done
        {
            let mut s = store.write().unwrap();
            if round % 5 == 4 {
                // Abort: shadow pages are freed, the committed state
                // (what readers just verified) remains the truth.
                s.abort_txn().unwrap();
            } else {
                s.commit_txn().unwrap();
                *published.lock().unwrap() = (obj, model);
            }
        }
        barrier.wait(); // C
    }
    for t in threads {
        t.join().unwrap();
    }

    let s = store.read().unwrap();
    let (obj, model) = published.lock().unwrap().clone();
    assert_eq!(s.read_all(&obj).unwrap(), model);
    let named = vec![("obj".to_string(), obj.clone())];
    let report = eos_check::check_store(&s, &named, None);
    assert!(report.is_clean(), "{}", report.render_table());
}
