//! Section 4 — snapshot reads beside churn (file substrate, one reader
//! and one writer thread).
//!
//! The writer's transaction replaces two 4 KiB blocks of one object, at
//! offsets `k` and `k + half`, with the same version stamp, and commits.
//! The reader opens a [`eos_core::Snapshot`], reads 16 random pairs and
//! fails the operation if the two stamps of a pair differ — a torn view.
//! The reader's operation count is fixed; the writer runs until the
//! reader is done. It is the edit workload's read path used beside
//! writes: MVCC pin/publish/reclaim, the store latch and the file mutex
//! do the work, and a change that buys writer speed with reader latency
//! (or the reverse) moves one metric up and one down.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use eos_core::{ConcurrentStore, LargeObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::api;
use crate::section::{pages_of, Env, Outcome, Progress};
use crate::substrate::{build, Built, Medium, Shape};
use crate::trace;
use crate::util::{nanos_since, pin_current_thread, quantile_us, rate_per_s, Tally};

const BLOCK: usize = 4 << 10;
/// Pair-reads per snapshot.
const PAIRS_PER_SNAPSHOT: usize = 16;
/// Untimed operations each thread runs before its first round.
const WARMUP_OPS: u64 = 20;
/// Free pages below which the writer waits for the reader's pin to go:
/// four transactions' worth of shadow copies.
const RESERVE_PAGES: u64 = 2_048;
/// Writer commits between MVCC gauge samples.
const SAMPLE_EVERY: usize = 32;

/// The churned objects, both generators and the progress.
pub struct State {
    built: Built,
    objects: Vec<LargeObject>,
    object_bytes: usize,
    writer_rng: StdRng,
    reader_rng: StdRng,
    stamp: u64,
    deferred_pages_max: u64,
    epoch_lag_max: u64,
    progress: Progress,
    warm: bool,
}

/// A block filled with `stamp`.
fn stamped(stamp: u64) -> Vec<u8> {
    stamp.to_le_bytes().repeat(BLOCK / 8)
}

/// The stamp of a block, if the block is uniformly stamped.
fn stamp_of(block: &[u8]) -> Option<u64> {
    let first: [u8; 8] = block.get(..8)?.try_into().ok()?;
    block
        .chunks_exact(8)
        .all(|w| w == first)
        .then(|| u64::from_le_bytes(first))
}

/// Create the objects, every block stamped 0.
pub fn setup(env: &Env<'_>) -> Result<State, String> {
    let sc = env.scale;
    let pages = (sc.snap_objects * sc.snap_object_bytes / 4096) as u64;
    let shape = Shape {
        medium: Medium::File,
        // Five times the live bytes. Every commit parks two 256-page
        // shadow copies behind the reader's pin; a reader descheduled
        // for 150 ms with a snapshot open must not run the writer out
        // of space (twice the live bytes did, once in forty runs).
        spaces: (5 * pages).div_ceil(16_272).max(1) as usize,
        pages_per_space: 16_272,
        wal_pages: 1_024,
        wal_stripes: 1,
    };
    let built = build(env.scratch, "snapshot.vol", shape, env.traced)?;
    let blank = vec![0u8; sc.snap_object_bytes];
    let mut objects = Vec::with_capacity(sc.snap_objects);
    for _ in 0..sc.snap_objects {
        let (made, done, _) =
            api::txn(&built.store, |t| t.create(&blank, Some(blank.len() as u64)));
        match (made, done) {
            (Ok(obj), Ok(())) => objects.push(obj),
            (Err(e), _) | (_, Err(e)) => return Err(format!("snapshot set-up: {e}")),
        }
    }
    Ok(State {
        built,
        objects,
        object_bytes: sc.snap_object_bytes,
        writer_rng: StdRng::seed_from_u64(env.seed ^ 0x5AA9_0001),
        reader_rng: StdRng::seed_from_u64(env.seed ^ 0x5AA9_0002),
        stamp: 0,
        deferred_pages_max: 0,
        epoch_lag_max: 0,
        progress: Progress::default(),
        warm: false,
    })
}

/// One snapshot: open, 16 pair-reads, close. Returns its latency.
fn read_op(
    store: &ConcurrentStore,
    ids: &[u64],
    blocks: usize,
    rng: &mut StdRng,
    tally: &mut Tally,
) -> u64 {
    let t0 = Instant::now();
    let top = trace::span(trace::Name::Snapshot, 0);
    let snap = api::snapshot(store);
    top.set_txn(snap.epoch());
    let mut torn = false;
    for _ in 0..PAIRS_PER_SNAPSHOT {
        let id = ids[rng.gen_range(0..ids.len())];
        let k = rng.gen_range(0..blocks);
        let lo = api::snapshot_read(&snap, id, (k * BLOCK) as u64, BLOCK as u64);
        let hi = api::snapshot_read(&snap, id, ((k + blocks) * BLOCK) as u64, BLOCK as u64);
        match (lo, hi) {
            (Ok(lo), Ok(hi)) => {
                let (a, b) = (stamp_of(&lo), stamp_of(&hi));
                torn |= a.is_none() || a != b;
            }
            (Err(e), _) | (_, Err(e)) => {
                torn = true;
                tally.fail(|| format!("snapshot read: {e}"));
            }
        }
    }
    api::snapshot_close(snap);
    drop(top);
    let ns = nanos_since(t0);
    tally.expect(!torn, || "a snapshot saw a torn pair".to_string());
    ns
}

/// One writer transaction: the same stamp into both blocks of a pair.
/// Returns its begin-to-ack latency.
fn churn_op(
    store: &ConcurrentStore,
    objects: &mut [LargeObject],
    blocks: usize,
    stamp: u64,
    rng: &mut StdRng,
    tally: &mut Tally,
) -> u64 {
    let obj = &mut objects[rng.gen_range(0..objects.len())];
    let k = rng.gen_range(0..blocks);
    let block = stamped(stamp);
    let (r, done, ns) = api::txn(store, |t| {
        api::replace(t, obj, (k * BLOCK) as u64, &block)?;
        api::replace(t, obj, ((k + blocks) * BLOCK) as u64, &block)
    });
    tally.attempt_txn("replace pair", r, done);
    ns
}

/// One round: the reader runs `ops` snapshots; the writer churns until
/// the reader is done.
pub fn round(st: &mut State, ops: u64) {
    let store = st.built.store.clone();
    let blocks = st.object_bytes / BLOCK / 2;
    let ids: Vec<u64> = st.objects.iter().map(LargeObject::id).collect();
    let warmup = if st.warm { 0 } else { WARMUP_OPS };
    st.warm = true;
    let gate = Barrier::new(3);
    let stop = AtomicBool::new(false);
    let (built, progress, objects) = (&st.built, &mut st.progress, &mut st.objects);
    let (writer_rng, reader_rng, stamp) = (&mut st.writer_rng, &mut st.reader_rng, &mut st.stamp);
    let (deferred_max, lag_max) = (&mut st.deferred_pages_max, &mut st.epoch_lag_max);

    let (churn, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            pin_current_thread(1);
            let mut tally = Tally::default();
            let mut commit_ns = Vec::new();
            let obs = store.with_store(|s| s.metrics().clone());
            let (deferred, lag) = (
                obs.gauge("mvcc.deferred_pages"),
                obs.gauge("mvcc.oldest_epoch_lag"),
            );
            for _ in 0..warmup {
                *stamp += 1;
                churn_op(&store, objects, blocks, *stamp, writer_rng, &mut tally);
            }
            gate.wait();
            gate.wait();
            // `Relaxed`: the flag publishes nothing, it only ends the loop.
            while !stop.load(Ordering::Relaxed) {
                // Back-pressure, as an application would apply it: every
                // commit parks two segments behind the reader's pin, and
                // a reader descheduled with a snapshot open must stall
                // the writer, not run it out of space.
                if store.with_store(|s| s.buddy().total_free_pages()) < RESERVE_PAGES {
                    std::thread::yield_now();
                    continue;
                }
                *stamp += 1;
                commit_ns.push(churn_op(
                    &store, objects, blocks, *stamp, writer_rng, &mut tally,
                ));
                if commit_ns.len() % SAMPLE_EVERY == 0 {
                    *deferred_max = (*deferred_max).max(deferred.get());
                    *lag_max = (*lag_max).max(lag.get());
                }
            }
            trace::flush_thread();
            (tally, commit_ns)
        });
        let reader = s.spawn(|| {
            pin_current_thread(0);
            let mut tally = Tally::default();
            for _ in 0..warmup {
                read_op(&store, &ids, blocks, reader_rng, &mut tally);
            }
            gate.wait();
            gate.wait();
            let op_ns: Vec<u64> = (0..ops)
                .map(|_| read_op(&store, &ids, blocks, reader_rng, &mut tally))
                .collect();
            stop.store(true, Ordering::Relaxed);
            trace::flush_thread();
            (tally, op_ns)
        });
        gate.wait();
        progress.begin_round(built);
        gate.wait();
        let reads = reader.join().unwrap_or_else(|_| {
            // A dead reader must still release the writer.
            stop.store(true, Ordering::Relaxed);
            let mut t = Tally::default();
            t.attempted += 1;
            t.fail(|| "the snapshot reader panicked".to_string());
            (t, Vec::new())
        });
        let churn = writer.join().unwrap_or_else(|_| {
            let mut t = Tally::default();
            t.attempted += 1;
            t.fail(|| "the churn writer panicked".to_string());
            (t, Vec::new())
        });
        progress.end_round();
        (churn, reads)
    });

    let ((churn_tally, commit_ns), (read_tally, mut op_ns)) = (churn, reads);
    progress.tally.absorb(churn_tally);
    progress.tally.absorb(read_tally);
    progress.user_bytes += commit_ns.len() as u64 * 2 * BLOCK as u64;
    progress.busy_ns += commit_ns.iter().chain(&op_ns).sum::<u64>();
    // A snapshot operation is 16 pair-reads: the pair-read rate is 16 over
    // the mean operation latency, and the latency per pair-read is an
    // operation's latency over 16. Timed pair by pair, the p95 sits on the
    // knee between a read that met the writer's latch and one that did
    // not, and cannot hold still.
    let pairs = PAIRS_PER_SNAPSHOT as f64;
    let series = &mut progress.series;
    // The reader's rate is a per-layer metric, not an end-to-end one: it
    // swings by a fifth of itself with the host (see `metrics.rs`).
    series.push(
        "core.snapshot.pair_reads_s",
        pairs * rate_per_s(&op_ns),
        op_ns.len(),
    );
    series.push(
        "snap_read_p95_us",
        quantile_us(&mut op_ns, 0.95) / pairs,
        op_ns.len(),
    );
    series.push("churn_commits_s", rate_per_s(&commit_ns), commit_ns.len());
}

/// Check that no pair ended torn, run `eos-check`, hand the results back.
pub fn finish(st: &mut State) -> Outcome {
    let mut progress = std::mem::take(&mut st.progress);
    let store = &st.built.store;
    // Every block of every object must still be uniformly stamped, and
    // the halves of each pair must agree.
    let snap = store.snapshot();
    for obj in &st.objects {
        let got = snap.read_all(obj.id());
        if let Some(all) = progress.tally.attempt("verify read_all", got) {
            let (lo, hi) = all.split_at(all.len() / 2);
            let whole = lo
                .chunks(BLOCK)
                .zip(hi.chunks(BLOCK))
                .all(|(a, b)| stamp_of(a).is_some() && stamp_of(a) == stamp_of(b));
            if !whole {
                progress
                    .tally
                    .fail(|| format!("object {} ended with a torn pair", obj.id()));
            }
        }
    }
    drop(snap);
    progress.note_fullness(store, st.objects.iter().map(|o| pages_of(o.size())).sum());
    let extras = vec![
        ("mvcc.deferred_pages_max", st.deferred_pages_max as f64),
        ("mvcc.oldest_epoch_lag_max", st.epoch_lag_max as f64),
    ];
    progress.finish(&st.built, st.objects.clone(), "churn_commits_s", extras)
}
