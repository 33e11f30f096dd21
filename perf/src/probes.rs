//! Probes: direct calls into the public functions of layers the
//! workloads only reach through the store, with the shapes the
//! workloads generate; and the un-gated real-disk measurements.
//!
//! Each probe returns `(metric name, value)` pairs by their final name.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use eos_buddy::BuddyManager;
use eos_core::durable::WalEntry;
use eos_core::{ConcurrentStore, ObjectStore, StoreConfig, StripedWal};
use eos_pager::{DiskProfile, FileVolume, MemVolume, SharedVolume, Volume};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::substrate::{prefill, Scratch, PAGE};
use crate::util::{nanos_since, quantile_us, rate_per_s, ratio};

type Pairs = Vec<(&'static str, f64)>;

/// Mean nanoseconds of `f` over `n` calls.
fn mean_ns(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    nanos_since(t0) as f64 / n as f64
}

/// Keep the first error of a timed loop without branching out of it.
fn keep_first<E: std::fmt::Display>(slot: &mut Option<String>, r: Result<(), E>) {
    if let Err(e) = r {
        slot.get_or_insert_with(|| e.to_string());
    }
}

/// A prefilled probe file of `pages` pages with real `sync_all`.
fn probe_file(scratch: &Scratch, name: &str, pages: u64) -> Result<SharedVolume, String> {
    let v = FileVolume::create(scratch.file(name), PAGE, pages, DiskProfile::FREE)
        .map_err(|e| format!("probe file {name}: {e}"))?
        .shared();
    prefill(&v).map_err(|e| format!("probe file {name}: {e}"))?;
    Ok(v)
}

/// `pager.probe.*`: one 4 KiB read or write at a random page, a 1 MiB
/// write, and the 4 KiB read again while a second thread keeps the file
/// syncing — `FileVolume` holds its mutex across `sync_all`.
pub fn pager(scratch: &Scratch, seed: u64, calls: u64) -> Result<Pairs, String> {
    const PAGES: u64 = 16_384;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A6E);
    let mut buf = vec![0u8; PAGE];
    let big = vec![0x5Au8; 256 * PAGE];
    let mut failed = None;

    let mem = MemVolume::with_profile(PAGE, PAGES, DiskProfile::FREE);
    let mem_read = mean_ns(calls, |_| {
        let at = rng.gen_range(0..PAGES);
        keep_first(&mut failed, mem.read_into(at, 1, &mut buf));
    });

    let file = probe_file(scratch, "probe.vol", PAGES)?;
    let file_read = mean_ns(calls, |_| {
        let at = rng.gen_range(0..PAGES);
        keep_first(&mut failed, file.read_into(at, 1, &mut buf));
    });
    let file_write = mean_ns(calls, |_| {
        let at = rng.gen_range(0..PAGES);
        keep_first(&mut failed, file.write_pages(at, &buf));
    });
    let file_write_1m = mean_ns((calls / 64).max(8), |_| {
        let at = rng.gen_range(0..PAGES - 256);
        keep_first(&mut failed, file.write_pages(at, &big));
    });

    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|s| {
        let syncer = s.spawn(|| {
            let page = vec![1u8; PAGE];
            // `Relaxed`: the flag only ends the loop.
            while !stop.load(Ordering::Relaxed) {
                let _ = file.write_pages(0, &page).and_then(|()| file.sync());
            }
        });
        let ns = mean_ns(calls, |_| {
            let at = rng.gen_range(1..PAGES);
            keep_first(&mut failed, file.read_into(at, 1, &mut buf));
        });
        stop.store(true, Ordering::Relaxed);
        let _ = syncer.join();
        ns
    });
    drop(file);
    let _ = std::fs::remove_file(scratch.file("probe.vol"));
    if let Some(e) = failed {
        return Err(format!("pager probe: {e}"));
    }
    Ok(vec![
        ("pager.probe.mem_read_4k_ns", mem_read),
        ("pager.probe.file_read_4k_ns", file_read),
        ("pager.probe.file_write_4k_ns", file_write),
        ("pager.probe.file_write_1m_ns", file_write_1m),
        ("pager.probe.file_read_4k_contended_ns", contended),
    ])
}

/// Fill a fresh two-space manager to `fraction` with the extent sizes
/// the workloads allocate, freeing a seeded third as it goes so the map
/// is fragmented, not packed.
fn filled_buddy(seed: u64, fraction: f64) -> Result<BuddyManager, String> {
    const SPACES: usize = 2;
    const PAGES_PER_SPACE: u64 = 16_272;
    let vol = MemVolume::with_profile(
        PAGE,
        (PAGES_PER_SPACE + 1) * SPACES as u64,
        DiskProfile::FREE,
    )
    .shared();
    let buddy = BuddyManager::create(vol, SPACES, PAGES_PER_SPACE)
        .map_err(|e| format!("buddy probe: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0DD);
    let total = buddy.total_data_pages();
    let full = |b: &BuddyManager| (total - b.total_free_pages()) as f64 / total as f64;
    let mut held = Vec::new();
    while full(&buddy) < fraction {
        let pages = [1u64, 1, 2, 8, 16, 64, 256][rng.gen_range(0..7usize)];
        match buddy.allocate(pages) {
            Ok(e) => held.push(e),
            Err(_) => break,
        }
        if held.len() > 8 && rng.gen_range(0..3) == 0 {
            let e = held.swap_remove(rng.gen_range(0..held.len()));
            buddy
                .free(e.start, e.pages)
                .map_err(|e| format!("buddy probe: {e}"))?;
        }
    }
    Ok(buddy)
}

/// `buddy.probe.*`: `allocate` of 1, 64 and 1024 pages and `free` on a
/// half-full map, and the 1-page `allocate` again at 90 % full.
pub fn buddy(seed: u64, calls: u64) -> Result<Pairs, String> {
    let half = filled_buddy(seed, 0.5)?;
    let mut out = Pairs::new();
    let (mut free_ns, mut frees) = (0u64, 0u64);
    for (name, pages, n) in [
        ("buddy.probe.alloc_1p_ns", 1, calls.min(4_096)),
        ("buddy.probe.alloc_64p_ns", 64, calls.min(64)),
        ("buddy.probe.alloc_1024p_ns", 1024, 4),
    ] {
        let mut got = Vec::with_capacity(n as usize);
        let t0 = Instant::now();
        for _ in 0..n {
            got.push(half.allocate(pages));
        }
        out.push((name, nanos_since(t0) as f64 / n as f64));
        let t0 = Instant::now();
        for e in got {
            let e = e.map_err(|e| format!("{name}: {e}"))?;
            half.free(e.start, e.pages)
                .map_err(|e| format!("{name}: {e}"))?;
            frees += 1;
        }
        free_ns += nanos_since(t0);
    }
    out.push(("buddy.probe.free_ns", ratio(free_ns as f64, frees as f64)));

    let nearly = filled_buddy(seed, 0.9)?;
    let n = calls.min(nearly.total_free_pages() / 2).max(1);
    let t0 = Instant::now();
    let got: Vec<_> = (0..n).map(|_| nearly.allocate(1)).collect();
    out.push((
        "buddy.probe.alloc_1p_full90_ns",
        nanos_since(t0) as f64 / n as f64,
    ));
    if let Some(Err(e)) = got.into_iter().find(Result::is_err) {
        return Err(format!("buddy.probe.alloc_1p_full90_ns: {e}"));
    }
    Ok(out)
}

/// `wal.probe.*`: `StripedWal::append` of a Touch frame carrying a
/// small root, the CPU side of `sync` on a memory volume (the flush
/// itself is the substrate's constant), and `checkpoint` with as many
/// committed roots as the commit workload's population.
pub fn wal(calls: u64, roots: u64) -> Result<Pairs, String> {
    const WAL_PAGES: u64 = 8_192;
    let e = |e: eos_core::Error| format!("wal probe: {e}");
    let vol = MemVolume::with_profile(PAGE, WAL_PAGES, DiskProfile::FREE).shared();
    let wal = StripedWal::format(&vol, 0, WAL_PAGES, 1).map_err(e)?;
    let root = vec![0xA5u8; 61];

    // Committed roots first, 100 per commit record.
    for txn in 0..roots.div_ceil(100) {
        let touched = (0..100)
            .map(|i| (txn * 100 + i + 1, root.clone()))
            .collect();
        wal.append_commit(txn + 1, wal.allocate_lsn(), touched, Vec::new())
            .map_err(e)?;
    }
    let first_txn = roots.div_ceil(100) + 1;
    let mut failed = None;
    let append = mean_ns(calls, |i| {
        let txn = first_txn + i;
        let r = wal
            .append(WalEntry::Touch {
                txn,
                lsn: wal.allocate_lsn(),
                object: i % roots.max(1) + 1,
                root_after: root.clone(),
            })
            .and_then(|()| {
                wal.append_commit(txn, wal.allocate_lsn(), Vec::new(), Vec::new())
                    .map(|_| ())
            });
        keep_first(&mut failed, r);
    }) / 2.0;
    let force = mean_ns(calls, |_| keep_first(&mut failed, wal.sync()));
    let t0 = Instant::now();
    let rounds = 4;
    for _ in 0..rounds {
        wal.checkpoint().map_err(e)?;
    }
    let checkpoint_ms = nanos_since(t0) as f64 / 1e6 / f64::from(rounds);
    if let Some(err) = failed {
        return Err(format!("wal probe: {err}"));
    }
    Ok(vec![
        ("wal.probe.append_ns", append),
        ("wal.probe.force_ns", force),
        ("wal.probe.checkpoint_ms", checkpoint_ms),
    ])
}

/// `realdisk.*`: the same calls against a `FileVolume` in the scratch
/// directory with its real `sync_all`, `each` per measurement. Un-gated:
/// on the development box the real fsync drifted 200 → 420 µs within
/// minutes, which moved a durable edit mix between 1 272 and 2 625
/// ops/s. This is where the `FileVolume` mutex held across `sync_all`
/// and the per-stripe whole-file fsyncs show in wall time.
pub fn realdisk(scratch: &Scratch, seed: u64, each: Duration) -> Result<Pairs, String> {
    const SPACES: usize = 2;
    const PAGES_PER_SPACE: u64 = 8_192;
    const WAL_PAGES: u64 = 1_024;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
    let page = vec![0x77u8; PAGE];

    let raw = probe_file(scratch, "realdisk-raw.vol", 4_096)?;
    let mut fsync_ns = Vec::new();
    let t_end = Instant::now() + each;
    while Instant::now() < t_end {
        raw.write_pages(rng.gen_range(0..4_096), &page)
            .map_err(|e| format!("realdisk write: {e}"))?;
        let t0 = Instant::now();
        raw.sync().map_err(|e| format!("realdisk fsync: {e}"))?;
        fsync_ns.push(nanos_since(t0));
    }
    drop(raw);
    let _ = std::fs::remove_file(scratch.file("realdisk-raw.vol"));

    let config = StoreConfig {
        sync_on_commit: true,
        wal_stripes: 2,
        ..StoreConfig::default()
    };
    let vol = probe_file(
        scratch,
        "realdisk-store.vol",
        (PAGES_PER_SPACE + 1) * SPACES as u64 + WAL_PAGES,
    )?;
    let store = ObjectStore::create_durable(vol, SPACES, PAGES_PER_SPACE, config, WAL_PAGES)
        .map(|s| ConcurrentStore::with_group_commit(s, true))
        .map_err(|e| format!("realdisk store: {e}"))?;
    let e = |e: eos_core::Error| format!("realdisk commit: {e}");

    let mut commit_ns = Vec::new();
    let t_start = Instant::now();
    while t_start.elapsed() < each {
        let t0 = Instant::now();
        let txn = store.begin();
        let mut obj = txn.create(&page[..512], Some(512)).map_err(e)?;
        txn.commit().map_err(e)?;
        commit_ns.push(nanos_since(t0));
        // Delete it again, untimed, so the volume never fills.
        let txn = store.begin();
        txn.delete_object(&mut obj).map_err(e)?;
        txn.commit().map_err(e)?;
    }
    let blob = vec![0x42u8; 1 << 20];
    let (mut ingest_ns, mut ingested) = (0u64, 0u64);
    let t_start = Instant::now();
    while t_start.elapsed() < each {
        let t0 = Instant::now();
        let txn = store.begin();
        let mut obj = txn.create(&blob, Some(blob.len() as u64)).map_err(e)?;
        txn.commit().map_err(e)?;
        ingest_ns += nanos_since(t0);
        ingested += blob.len() as u64;
        let txn = store.begin();
        txn.delete_object(&mut obj).map_err(e)?;
        txn.commit().map_err(e)?;
    }
    drop(store);
    let _ = std::fs::remove_file(scratch.file("realdisk-store.vol"));

    Ok(vec![
        ("realdisk.fsync_p50_us", quantile_us(&mut fsync_ns, 0.50)),
        ("realdisk.fsync_p99_us", quantile_us(&mut fsync_ns, 0.99)),
        ("realdisk.commits_s", rate_per_s(&commit_ns)),
        ("realdisk.commit_p50_us", quantile_us(&mut commit_ns, 0.50)),
        (
            "realdisk.ingest_mb_s",
            ratio(ingested as f64 / 1e6, ingest_ns as f64 / 1e9),
        ),
    ])
}
