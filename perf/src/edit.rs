//! Section 2 — small edits of aged objects (memory substrate, one
//! client): the paper's dynamic-object case.
//!
//! Set-up creates the objects and ages them with a pass of the same
//! edit mix; the measured rounds are that mix again, every operation its
//! own durable transaction (`begin → op → commit`). Tree descent, byte
//! and page reshuffling at threshold T, segment copy-on-write on
//! `replace`, small buddy calls and WAL framing do the work; the pager
//! is a memcpy and sync is free, so an I/O-path change does not show
//! here and a tree, buddy or WAL CPU change does. Every edit is
//! mirrored in a [`Model`] outside the timed span and every read is
//! checked against it.

use eos_core::LargeObject;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::api;
use crate::section::{pages_of, Env, Outcome, Progress};
use crate::substrate::{build, Built, Medium, Shape};
use crate::util::{quantile_us, rate_per_s, ratio, Model, Pool};

const READ_BYTES: u64 = 4 << 10;
const INSERT_BYTES: usize = 100;
const DELETE_BYTES: u64 = 100;
const REPLACE_BYTES: usize = 512;
const APPEND_BYTES: usize = 8 << 10;
const TRUNCATE_BYTES: u64 = 16 << 10;
/// Below this size an object takes an append where the mix asked for a
/// shrinking operation, so no object can drain to nothing.
const FLOOR_BYTES: u64 = 256 << 10;
/// Operations between fullness samples.
const SAMPLE_EVERY: u64 = 512;

/// The operation kinds of the mix, in the order of [`Kind::pick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Insert,
    Delete,
    Replace,
    Append,
    Truncate,
}

impl Kind {
    /// 25 % read, 20 % insert, 20 % delete, 20 % replace, 10 % append,
    /// 5 % truncate — balanced so object sizes drift without trend
    /// (20·100 − 20·100 + 10·8 KiB − 5·16 KiB = 0).
    fn pick(rng: &mut StdRng) -> Kind {
        match rng.gen_range(0..100u32) {
            0..25 => Kind::Read,
            25..45 => Kind::Insert,
            45..65 => Kind::Delete,
            65..85 => Kind::Replace,
            85..95 => Kind::Append,
            _ => Kind::Truncate,
        }
    }
}

/// The aged objects, their models, the generator and the progress.
pub struct State {
    built: Built,
    objects: Vec<LargeObject>,
    models: Vec<Model>,
    pool: Pool,
    rng: StdRng,
    progress: Progress,
    reads: u64,
    read_seeks: u64,
}

/// Latencies of one round, by what the metrics pool.
#[derive(Default)]
struct Latencies {
    all: Vec<u64>,
    insert: Vec<u64>,
    replace: Vec<u64>,
    update: Vec<u64>,
}

/// Create the objects, then age them.
pub fn setup(env: &Env<'_>) -> Result<State, String> {
    let sc = env.scale;
    let pages = (sc.edit_objects * sc.edit_object_bytes / 4096) as u64;
    let shape = Shape {
        medium: Medium::Mem,
        // Twice the initial bytes: room for shadow copies and drift.
        spaces: (2 * pages).div_ceil(16_272).max(1) as usize,
        pages_per_space: 16_272,
        wal_pages: 1_024,
        wal_stripes: 1,
    };
    let mut st = State {
        built: build(env.scratch, "edit.vol", shape, env.traced)?,
        objects: Vec::new(),
        models: Vec::new(),
        pool: Pool::new(env.seed ^ 0xED17, sc.edit_object_bytes + (64 << 10)),
        rng: StdRng::seed_from_u64(env.seed ^ 0x00ED_1757),
        progress: Progress::default(),
        reads: 0,
        read_seeks: 0,
    };
    for _ in 0..sc.edit_objects {
        let data = st.pool.slice(&mut st.rng, sc.edit_object_bytes);
        let (made, done, _) =
            api::txn(&st.built.store, |t| t.create(data, Some(data.len() as u64)));
        match (made, done) {
            (Ok(obj), Ok(())) => {
                st.objects.push(obj);
                st.models.push(Model::from_bytes(data));
            }
            (Err(e), _) | (_, Err(e)) => return Err(format!("edit set-up: {e}")),
        }
    }
    mix(&mut st, sc.edit_age_ops, &mut Latencies::default());
    let aged = std::mem::take(&mut st.progress);
    if aged.tally.failed > 0 {
        return Err(format!("edit ageing pass: {:?}", aged.tally.notes));
    }
    (st.reads, st.read_seeks) = (0, 0);
    Ok(st)
}

/// Run `ops` operations of the mix.
fn mix(st: &mut State, ops: u64, lat: &mut Latencies) {
    let store = st.built.store.clone();
    for i in 0..ops {
        let at = st.rng.gen_range(0..st.objects.len());
        let (obj, model) = (&mut st.objects[at], &mut st.models[at]);
        let size = obj.size();
        let mut kind = Kind::pick(&mut st.rng);
        if size < FLOOR_BYTES && matches!(kind, Kind::Delete | Kind::Truncate) {
            kind = Kind::Append;
        }
        let tally = &mut st.progress.tally;
        let ns = match kind {
            Kind::Read => {
                let off = st.rng.gen_range(0..=size - READ_BYTES);
                let seeks0 = st.built.volume.stats().seeks;
                let (got, done, ns) = api::txn(&store, |t| api::read(t, obj, off, READ_BYTES));
                st.read_seeks += st.built.volume.stats().seeks - seeks0;
                st.reads += 1;
                if let Some(bytes) = tally.attempt_txn("read", got, done) {
                    if !model.matches(off, &bytes) {
                        tally.fail(|| {
                            format!("object {} differs from its model at {off}", obj.id())
                        });
                    }
                }
                ns
            }
            Kind::Insert => {
                let off = st.rng.gen_range(0..=size);
                let data = st.pool.slice(&mut st.rng, INSERT_BYTES);
                let (r, done, ns) = api::txn(&store, |t| api::insert(t, obj, off, data));
                lat.insert.push(ns);
                st.progress.user_bytes += data.len() as u64;
                if tally.attempt_txn("insert", r, done).is_some() {
                    model.insert(off, data);
                }
                ns
            }
            Kind::Delete => {
                let off = st.rng.gen_range(0..=size - DELETE_BYTES);
                let (r, done, ns) = api::txn(&store, |t| api::delete(t, obj, off, DELETE_BYTES));
                if tally.attempt_txn("delete", r, done).is_some() {
                    model.delete(off, DELETE_BYTES);
                }
                ns
            }
            Kind::Replace => {
                let off = st.rng.gen_range(0..=size - REPLACE_BYTES as u64);
                let data = st.pool.slice(&mut st.rng, REPLACE_BYTES);
                let (r, done, ns) = api::txn(&store, |t| api::replace(t, obj, off, data));
                lat.replace.push(ns);
                st.progress.user_bytes += data.len() as u64;
                if tally.attempt_txn("replace", r, done).is_some() {
                    model.replace(off, data);
                }
                ns
            }
            Kind::Append => {
                let data = st.pool.slice(&mut st.rng, APPEND_BYTES);
                let (r, done, ns) = api::txn(&store, |t| api::append(t, obj, data));
                st.progress.user_bytes += data.len() as u64;
                if tally.attempt_txn("append", r, done).is_some() {
                    model.insert(size, data);
                }
                ns
            }
            Kind::Truncate => {
                let keep = size - TRUNCATE_BYTES;
                let (r, done, ns) = api::txn(&store, |t| api::truncate(t, obj, keep));
                if tally.attempt_txn("truncate", r, done).is_some() {
                    model.delete(keep, TRUNCATE_BYTES);
                }
                ns
            }
        };
        lat.all.push(ns);
        if kind != Kind::Read {
            lat.update.push(ns);
        }
        if (i + 1) % SAMPLE_EVERY == 0 || i + 1 == ops {
            let needed = st.objects.iter().map(|o| pages_of(o.size())).sum();
            st.progress.note_fullness(&store, needed);
        }
    }
}

/// One round: `ops` operations of the mix, one value per timing metric.
pub fn round(st: &mut State, ops: u64) {
    let mut lat = Latencies::default();
    st.progress.begin_round(&st.built);
    mix(st, ops, &mut lat);
    st.progress.end_round();
    st.progress.busy_ns += lat.all.iter().sum::<u64>();
    let series = &mut st.progress.series;
    series.push("edit_ops_s", rate_per_s(&lat.all), lat.all.len());
    for (name, q, v) in [
        ("insert_p50_us", 0.50, &mut lat.insert),
        ("replace_p50_us", 0.50, &mut lat.replace),
        // A per-layer metric, not an end-to-end one: see `metrics.rs`.
        ("core.op.update_p99_us", 0.99, &mut lat.update),
    ] {
        series.push(name, quantile_us(v, q), v.len());
    }
}

/// Every byte against the models, the shape of the aged trees,
/// `eos-check`.
pub fn finish(st: &mut State) -> Outcome {
    let mut progress = std::mem::take(&mut st.progress);
    let (mut height, mut segments, mut index_pages, mut bytes) = (0u16, 0u64, 0u64, 0u64);
    for (obj, model) in st.objects.iter().zip(&st.models) {
        let (got, done, _) = api::txn(&st.built.store, |t| t.read_all(obj));
        if let Some(all) = progress.tally.attempt_txn("verify read_all", got, done) {
            if model.len() != all.len() as u64 || !model.matches(0, &all) {
                progress
                    .tally
                    .fail(|| format!("object {} differs from its model", obj.id()));
            }
        }
        let stats = st.built.store.with_store(|s| s.object_stats(obj));
        if let Some(s) = progress.tally.attempt("object_stats", stats) {
            height = height.max(s.height);
            segments += s.segments;
            index_pages += s.index_pages;
            bytes += s.size;
        }
    }
    let seeks_per_read = ratio(st.read_seeks as f64, st.reads as f64);
    progress
        .series
        .push("seeks_per_read", seeks_per_read, st.reads as usize);
    let extras = vec![
        ("core.op.tree_height_max", f64::from(height)),
        (
            "core.op.segments_per_mib",
            ratio(segments as f64, bytes as f64 / f64::from(1 << 20)),
        ),
        ("core.op.index_pages", index_pages as f64),
    ];
    progress.finish(&st.built, st.objects.clone(), "edit_ops_s", extras)
}
