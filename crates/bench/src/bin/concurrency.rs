//! Group-commit throughput under concurrent writers (`DESIGN.md` §12).
//!
//! Each writer thread runs a loop of small durable transactions
//! (create a 512-byte object, commit). The volume is a
//! [`FaultVolume`] whose plan is nothing but a fixed delay per `sync`
//! — the in-memory stand-in for an fsync — so the commit pipeline's
//! sync count is what the benchmark actually measures:
//!
//! * **solo commit** pays two syncs per transaction (data barrier +
//!   log force), serialized under the store latch: adding writers
//!   cannot help.
//! * **group commit** pays two syncs per *batch*: while the leader is
//!   syncing, the other writers queue up, so throughput scales with
//!   the batch size.
//!
//! The second table measures the MVCC read path (`DESIGN.md` §14):
//! a fixed pool of snapshot readers against a growing pool of
//! replace-churning writers. Readers pin an epoch and traverse
//! committed roots without a single lock, so their throughput
//! should stay flat as writers are added — that flatness *is* the
//! result.
//!
//! ```text
//! cargo run --release -p eos-bench --bin concurrency
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eos_bench::table::{f2, Table};
use eos_core::{ConcurrentStore, ObjectStore, StoreConfig};
use eos_pager::{Calls, DiskProfile, FaultVolume, MemVolume, Plan, SharedVolume};

/// Simulated fsync cost. Real 1992 disks paid ~15 ms; even a modern
/// NVMe flush is tens of microseconds. 400 µs keeps the run short
/// while dwarfing the in-memory page work.
const SYNC_DELAY: Duration = Duration::from_micros(400);

/// `inner` behind the simulated fsync. A delay-only plan keeps reads
/// and writes off the fault volume's latch.
fn throttled(inner: SharedVolume) -> Arc<FaultVolume> {
    FaultVolume::with_plan(inner, Plan::new().sync_delay(SYNC_DELAY))
        .expect("a delay-only plan takes no snapshot and cannot fail")
}

fn run_config(writers: usize, group: bool, stripes: usize, per_thread: u64) -> (f64, u64, f64) {
    let inner: SharedVolume = MemVolume::with_profile(4096, 6144, DiskProfile::FREE).shared();
    let throttled = throttled(inner);
    let volume: SharedVolume = throttled.clone();
    // Striped runs shard the buddy directories too (one space per
    // stripe), so allocation and log traffic shard together — the §17
    // configuration the tentpole targets.
    let (spaces, pps) = if stripes > 1 {
        (stripes, 256)
    } else {
        (1, 4096)
    };
    let mut store = ObjectStore::create_durable(
        volume,
        spaces,
        pps,
        StoreConfig {
            sync_on_commit: true,
            wal_stripes: stripes,
            ..StoreConfig::default()
        },
        1024,
    )
    .unwrap();
    store.set_metrics(eos_obs::global());
    let before = eos_obs::global().snapshot();
    let cs = ConcurrentStore::with_group_commit(store, group);

    // Store/WAL format syncs are setup, not workload — a 16-stripe
    // format alone pays 16+ of them.
    let syncs_at_start = throttled.seen(Calls::Syncs);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..writers {
            let cs = cs.clone();
            s.spawn(move || {
                for _ in 0..per_thread {
                    let txn = cs.begin();
                    txn.create(&[0xAB; 512], None).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let after = eos_obs::global().snapshot();
    let commits = writers as u64 * per_thread;
    let d = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let mean_batch = if group {
        let batches = d("wal.group_commits");
        if batches > 0 {
            commits as f64 / batches as f64
        } else {
            0.0
        }
    } else {
        1.0
    };
    (
        commits as f64 / elapsed,
        throttled.seen(Calls::Syncs) - syncs_at_start,
        mean_batch,
    )
}

/// Fixed reader pool for the readers+writers table.
const READERS: usize = 4;

/// Snapshot-read throughput with `writers` replace-churning writer
/// threads running alongside. Returns (reads/sec, writer commits).
fn run_rw_config(writers: usize, reads_per_reader: u64) -> (f64, u64) {
    let inner: SharedVolume = MemVolume::with_profile(4096, 8192, DiskProfile::FREE).shared();
    let volume: SharedVolume = throttled(inner);
    let mut store = ObjectStore::create_durable(
        volume,
        1,
        4096,
        StoreConfig {
            sync_on_commit: true,
            ..StoreConfig::default()
        },
        1024,
    )
    .unwrap();
    store.set_metrics(eos_obs::global());

    // Committed before the front-end wraps the store, so the seeded
    // root set publishes them to every snapshot from epoch 1 on.
    let target = store.create_with(&vec![0x5Au8; 64 << 10], None).unwrap();
    let churn: Vec<_> = (0..writers)
        .map(|_| store.create_with(&vec![0x77u8; 32 << 10], None).unwrap())
        .collect();
    let cs = ConcurrentStore::with_group_commit(store, true);

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (elapsed, commits) = std::thread::scope(|s| {
        let writer_handles: Vec<_> = churn
            .into_iter()
            .map(|mut obj| {
                let cs = cs.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut commits = 0u64;
                    let mut x = 0x9E37_79B9u64 ^ obj.id();
                    while !stop.load(Ordering::Relaxed) {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let off = x % ((32 << 10) - 4096);
                        let txn = cs.begin();
                        txn.replace(&mut obj, off, &[x as u8; 4096]).unwrap();
                        txn.commit().unwrap();
                        commits += 1;
                    }
                    commits
                })
            })
            .collect();
        let reader_handles: Vec<_> = (0..READERS)
            .map(|r| {
                let cs = cs.clone();
                let id = target.id();
                s.spawn(move || {
                    let mut x = 0xDEAD_BEEFu64 ^ r as u64;
                    let mut left = reads_per_reader;
                    // One pinned snapshot serves a block of reads — the
                    // intended usage pattern (a snapshot is a consistent
                    // view, not a per-read token), and it keeps the pin
                    // table out of the per-read hot path.
                    while left > 0 {
                        let block = left.min(32);
                        let snap = cs.snapshot();
                        for _ in 0..block {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let off = x % ((64 << 10) - 4096);
                            let bytes = snap.read(id, off, 4096).unwrap();
                            assert_eq!(bytes.len(), 4096);
                        }
                        left -= block;
                    }
                })
            })
            .collect();
        for h in reader_handles {
            h.join().unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let commits: u64 = writer_handles.into_iter().map(|h| h.join().unwrap()).sum();
        (elapsed, commits)
    });

    let reads = READERS as u64 * reads_per_reader;
    (reads as f64 / elapsed, commits)
}

/// `--trace` mode (DESIGN.md §16): one traced 4-writer grouped round
/// on a **private** metrics domain (so the pipeline ring holds only
/// this round), exported as a raw event dump for `eos trace
/// summary`/`export`, with per-phase p50/p99 latencies recorded as
/// gauges on the global domain so they land in `BENCH_obs.json`.
fn run_traced(per_thread: u64) {
    const TRACE_WRITERS: usize = 4;
    let metrics = eos_obs::Metrics::new();
    let inner: SharedVolume = MemVolume::with_profile(4096, 6144, DiskProfile::FREE).shared();
    let volume: SharedVolume = throttled(inner);
    let mut store = ObjectStore::create_durable(
        volume,
        1,
        4096,
        StoreConfig {
            sync_on_commit: true,
            ..StoreConfig::default()
        },
        1024,
    )
    .unwrap();
    store.set_metrics(&metrics);
    let cs = ConcurrentStore::with_group_commit(store, true);

    std::thread::scope(|s| {
        for _ in 0..TRACE_WRITERS {
            let cs = cs.clone();
            s.spawn(move || {
                for _ in 0..per_thread {
                    let txn = cs.begin();
                    txn.create(&[0xAB; 512], None).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });

    let path = std::env::var("EOS_TRACE_PATH").unwrap_or_else(|_| "TRACE_events.json".to_string());
    match std::fs::write(&path, eos_obs::pipe_doc_json(&metrics)) {
        Ok(()) => println!(
            "\n== trace mode: {} pipeline event(s) from {TRACE_WRITERS} writers x \
             {per_thread} commits -> {path} ==",
            metrics.pipe_recorded()
        ),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    let snap = metrics.snapshot();
    let g = eos_obs::global();
    let mut t = Table::new(vec!["phase", "samples", "p50 us", "p99 us"]);
    for (short, name) in [
        ("queue_wait", "commit.queue_wait_us"),
        ("phase_a", "commit.phase_a.wall_us"),
        ("phase_b", "commit.phase_b.wall_us"),
        ("phase_c", "commit.phase_c.wall_us"),
        ("phase_d", "commit.phase_d.wall_us"),
    ] {
        let Some(h) = snap.histogram(name) else {
            continue;
        };
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        g.gauge(&format!("bench.concurrency.trace.{short}.p50_us"))
            .set(p50);
        g.gauge(&format!("bench.concurrency.trace.{short}.p99_us"))
            .set(p99);
        t.row(vec![
            short.to_string(),
            format!("{}", h.count),
            format!("{p50}"),
            format!("{p99}"),
        ]);
    }
    t.print();
    println!(
        "per-phase log2-bucket latencies from the traced round; the raw event\n\
         dump replays the same batches: `eos trace summary {path}`."
    );
}

fn main() {
    eos_obs::install_flight_panic_hook();
    println!("== durable commit throughput vs writer threads (sync = {SYNC_DELAY:?}) ==");
    let per_thread = eos_bench::obs_json::scaled(24);
    let mut t = Table::new(vec![
        "writers",
        "group commit",
        "commits",
        "commits/s",
        "syncs/commit",
        "mean batch",
    ]);
    let mut grouped_1 = 0.0f64;
    let mut grouped_16 = 0.0f64;
    for &group in &[false, true] {
        for &writers in &[1usize, 2, 4, 8, 16] {
            let (rate, syncs, mean_batch) = run_config(writers, group, 1, per_thread);
            let commits = writers as u64 * per_thread;
            if group && writers == 1 {
                grouped_1 = rate;
            }
            if group && writers == 16 {
                grouped_16 = rate;
            }
            let label = format!(
                "bench.concurrency.{}.t{writers}",
                if group { "group" } else { "solo" }
            );
            let g = eos_obs::global();
            g.gauge(&format!("{label}.commits_per_sec"))
                .set(rate as u64);
            g.gauge(&format!("{label}.syncs")).set(syncs);
            t.row(vec![
                format!("{writers}"),
                if group { "on" } else { "off" }.to_string(),
                format!("{commits}"),
                f2(rate),
                f2(syncs as f64 / commits as f64),
                f2(mean_batch),
            ]);
        }
    }
    t.print();
    println!(
        "\nsolo commits pay 2 syncs each regardless of writers; group commit\n\
         amortizes the same 2 syncs over the whole batch, so throughput climbs\n\
         with the writer count (16-writer grouped = {:.1}x the 1-writer rate).",
        grouped_16 / grouped_1.max(1e-9)
    );

    println!(
        "\n== striped WAL: solo commits, single latch vs 16 stripes \
         (equal 2 syncs/commit) =="
    );
    let mut t = Table::new(vec![
        "writers",
        "stripes",
        "commits",
        "commits/s",
        "syncs/commit",
    ]);
    let mut striped_rate = std::collections::BTreeMap::new();
    for &stripes in &[1usize, 16] {
        for &writers in &[8usize, 16] {
            let (rate, syncs, _) = run_config(writers, false, stripes, per_thread);
            striped_rate.insert((stripes, writers), rate);
            let commits = writers as u64 * per_thread;
            let label = format!("bench.concurrency.striped.s{stripes}.t{writers}");
            let g = eos_obs::global();
            g.gauge(&format!("{label}.commits_per_sec"))
                .set(rate as u64);
            g.gauge(&format!("{label}.syncs")).set(syncs);
            t.row(vec![
                format!("{writers}"),
                format!("{stripes}"),
                format!("{commits}"),
                f2(rate),
                f2(syncs as f64 / commits as f64),
            ]);
        }
    }
    t.print();
    // Every commit here pays the same 2 syncs (data barrier + log
    // force); only the force's *latch scope* differs. With one stripe
    // the forces serialize behind the single log latch; with 16, forces
    // for disjoint stripes overlap, so the 16-writer rate scales with
    // the stripes instead of flat-lining.
    let advantage = striped_rate[&(16, 16)] / striped_rate[&(1, 16)].max(1e-9);
    let scaling = striped_rate[&(16, 16)] / striped_rate[&(16, 8)].max(1e-9);
    let g = eos_obs::global();
    g.gauge("bench.concurrency.striped.advantage_t16_x100")
        .set((advantage * 100.0) as u64);
    g.gauge("bench.concurrency.striped.scaling_8_16_x100")
        .set((scaling * 100.0) as u64);
    println!(
        "\n16 writers, same 2 syncs/commit: 16 stripes = {advantage:.2}x the \
         single-latch rate\n(8 -> 16 writers on 16 stripes scales {scaling:.2}x)."
    );

    println!("\n== snapshot-read throughput vs writer threads ({READERS} readers, MVCC) ==");
    let reads_per_reader = eos_bench::obs_json::scaled(20_000);
    let mut t = Table::new(vec![
        "writers",
        "reads",
        "reads/s",
        "writer commits",
        "vs 0 writers",
    ]);
    let mut baseline = 0.0f64;
    let mut at_8 = 0.0f64;
    for &writers in &[0usize, 2, 4, 8] {
        let (rate, commits) = run_rw_config(writers, reads_per_reader);
        if writers == 0 {
            baseline = rate;
        }
        if writers == 8 {
            at_8 = rate;
        }
        let g = eos_obs::global();
        g.gauge(&format!("bench.concurrency.rw.w{writers}.reads_per_sec"))
            .set(rate as u64);
        g.gauge(&format!("bench.concurrency.rw.w{writers}.writer_commits"))
            .set(commits);
        t.row(vec![
            format!("{writers}"),
            format!("{}", READERS as u64 * reads_per_reader),
            f2(rate),
            format!("{commits}"),
            f2(rate / baseline.max(1e-9)),
        ]);
    }
    t.print();
    println!(
        "\nreaders pin an epoch and traverse committed roots lock-free, so the\n\
         read rate stays flat as replace-churning writers are added\n\
         (8-writer rate = {:.2}x the zero-writer baseline).",
        at_8 / baseline.max(1e-9)
    );
    if std::env::args().any(|a| a == "--trace") {
        run_traced(eos_bench::obs_json::scaled(24));
    }
    eos_bench::obs_json::emit_or_warn("concurrency", &eos_obs::global().snapshot());
}
