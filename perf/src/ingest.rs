//! Section 1 — bulk ingest and scan (file substrate, one client).
//!
//! A pass durably creates a spread of objects from 64 KiB to 16 MiB
//! (one transaction each, size hint given) plus one object grown by
//! 8 KiB appends with no hint (the §4.1 doubling path), reads every
//! object back whole in shuffled order against its checksum, then
//! deletes them all. Pager transfer and large-extent buddy work do
//! nearly everything; the tree is one level and the WAL logs a root per
//! object.

use eos_core::LargeObject;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api;
use crate::section::{pages_of, Env, Outcome, Progress};
use crate::substrate::{build, Built, Medium, Shape};
use crate::util::{checksum, ratio, shuffle, Pool, Tally};

/// Bytes per append of the grown object.
const APPEND_BYTES: usize = 8 << 10;
/// Appends per transaction: a Touch frame per append must fit a log half.
const APPENDS_PER_TXN: usize = 64;

/// The built store, the payload pool and the progress so far.
pub struct State {
    built: Built,
    pool: Pool,
    rng: StdRng,
    progress: Progress,
    warm: bool,
}

/// Build the volume (prefilled) and the payload pool.
pub fn setup(env: &Env<'_>) -> Result<State, String> {
    let largest = env
        .scale
        .ingest_mix
        .iter()
        .map(|&(_, bytes)| bytes)
        .max()
        .unwrap_or(0)
        .max(env.scale.ingest_grown_bytes);
    let shape = Shape {
        medium: Medium::File,
        spaces: env.scale.ingest_spaces,
        pages_per_space: 16_272,
        wal_pages: 2_048,
        wal_stripes: 1,
    };
    Ok(State {
        built: build(env.scratch, "ingest.vol", shape, env.traced)?,
        pool: Pool::new(env.seed ^ 0x1A6E, largest + (64 << 10)),
        rng: StdRng::seed_from_u64(env.seed ^ 0x001A_6E57),
        progress: Progress::default(),
        warm: false,
    })
}

struct Stored {
    obj: LargeObject,
    sum: u64,
}

/// One create/scan/delete pass. Returns (ingest MB/s, scan MB/s).
fn pass(st: &mut State, env: &Env<'_>, measured: bool) -> (f64, f64) {
    let store = st.built.store.clone();
    let mut sizes: Vec<usize> = env
        .scale
        .ingest_mix
        .iter()
        .flat_map(|&(n, bytes)| std::iter::repeat_n(bytes, n))
        .collect();
    shuffle(&mut sizes, &mut st.rng);
    let mut tally = Tally::default();
    let mut stored: Vec<Stored> = Vec::with_capacity(sizes.len() + 1);
    let (mut ingest_ns, mut ingest_bytes) = (0u64, 0u64);

    for len in sizes {
        let data = st.pool.slice(&mut st.rng, len);
        let sum = checksum(data);
        let (made, done, ns) = api::txn(&store, |t| api::create(t, data, Some(len as u64)));
        ingest_ns += ns;
        ingest_bytes += len as u64;
        if let Some(obj) = tally.attempt_txn("create", made, done) {
            stored.push(Stored { obj, sum });
        }
    }

    // The grown object: an empty create, then appends without a hint.
    let grown = st.pool.slice(&mut st.rng, env.scale.ingest_grown_bytes);
    let (made, done, ns) = api::txn(&store, |t| api::create(t, &[], None));
    ingest_ns += ns;
    if let Some(mut obj) = tally.attempt_txn("create empty", made, done) {
        for batch in grown.chunks(APPEND_BYTES * APPENDS_PER_TXN) {
            let ((), done, ns) = api::txn(&store, |t| {
                for piece in batch.chunks(APPEND_BYTES) {
                    tally.attempt("append", api::append(t, &mut obj, piece));
                }
            });
            ingest_ns += ns;
            tally.attempt("append commit", done);
        }
        ingest_bytes += grown.len() as u64;
        stored.push(Stored {
            obj,
            sum: checksum(grown),
        });
    }

    // The fullest point of the pass: everything created, nothing freed.
    if measured {
        let needed = stored.iter().map(|s| pages_of(s.obj.size())).sum();
        st.progress.note_fullness(&store, needed);
    }

    let mut order: Vec<usize> = (0..stored.len()).collect();
    shuffle(&mut order, &mut st.rng);
    let (mut scan_ns, mut scan_bytes) = (0u64, 0u64);
    for i in order {
        let s = &stored[i];
        let (got, done, ns) = api::txn(&store, |t| api::read_all(t, &s.obj));
        scan_ns += ns;
        if let Some(bytes) = tally.attempt_txn("read_all", got, done) {
            scan_bytes += bytes.len() as u64;
            if checksum(&bytes) != s.sum {
                tally.fail(|| format!("object {} read back with a wrong checksum", s.obj.id()));
            }
        }
    }

    let mut delete_ns = 0u64;
    for mut s in stored {
        let (gone, done, ns) = api::txn(&store, |t| api::delete_object(t, &mut s.obj));
        delete_ns += ns;
        tally.attempt_txn("delete_object", gone, done);
    }

    st.progress.tally.absorb(tally);
    if measured {
        st.progress.user_bytes += ingest_bytes;
        st.progress.busy_ns += ingest_ns + scan_ns + delete_ns;
    }
    (
        ratio(ingest_bytes as f64 / 1e6, ingest_ns as f64 / 1e9),
        ratio(scan_bytes as f64 / 1e6, scan_ns as f64 / 1e9),
    )
}

/// One round: `passes` measured passes, after one untimed pass the
/// first time. Every pass is one sample of both metrics.
pub fn round(st: &mut State, env: &Env<'_>, passes: u64) {
    if !st.warm {
        pass(st, env, false);
        st.warm = true;
    }
    st.progress.begin_round(&st.built);
    for _ in 0..passes {
        let (ingest, scan) = pass(st, env, true);
        st.progress.series.push("ingest_mb_s", ingest, 1);
        st.progress.series.push("scan_mb_s", scan, 1);
    }
    st.progress.end_round();
}

/// Check the (now empty) volume and hand the results back.
pub fn finish(st: &mut State) -> Outcome {
    let progress = std::mem::take(&mut st.progress);
    progress.finish(&st.built, Vec::new(), "ingest_mb_s", Vec::new())
}
