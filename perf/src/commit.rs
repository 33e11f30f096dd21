//! Section 3 — small commits (file substrate, two writers, group commit
//! on, two WAL stripes, two buddy spaces).
//!
//! Set-up preloads a large population of 1 KiB objects; each writer owns
//! half. A transaction replaces 512 B in a random own object (60 %),
//! creates a 512 B object (20 %) or deletes its oldest created one
//! (20 %), so the population holds. The commit pipeline, the WAL force,
//! the serialised flush and root publication do the work and object
//! operations almost none. The population is large on purpose:
//! publication clones the whole committed-root map per commit. Writers
//! own contiguous id ranges, so both land on both stripes and two
//! committers meet in a lane — where group commit should batch.

use std::collections::VecDeque;
use std::sync::Barrier;

use eos_core::{ConcurrentStore, LargeObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::api;
use crate::section::{Env, Outcome, Progress};
use crate::substrate::{build, Built, Medium, Shape};
use crate::trace;
use crate::util::{pin_current_thread, quantile_us, rate_per_s, Pool, Tally};

const OBJECT_BYTES: usize = 1 << 10;
const PAYLOAD_BYTES: usize = 512;
/// Creates per set-up transaction.
const PRELOAD_BATCH: usize = 200;
/// Untimed transactions each writer runs before its first round.
const WARMUP_TXNS: u64 = 100;

/// One object a writer owns, with the bytes it must hold.
struct Owned {
    obj: LargeObject,
    bytes: Vec<u8>,
}

/// One writer's objects and generator.
struct Writer {
    preloaded: Vec<Owned>,
    created: VecDeque<Owned>,
    rng: StdRng,
}

/// The preloaded store, the two writers' halves and the progress.
pub struct State {
    built: Built,
    writers: [Writer; 2],
    pool: Pool,
    progress: Progress,
    warm: bool,
}

/// Build the volume and preload the population in batched transactions.
pub fn setup(env: &Env<'_>) -> Result<State, String> {
    let population = env.scale.commit_population;
    let shape = Shape {
        medium: Medium::File,
        spaces: 2,
        pages_per_space: 16_272,
        // A checkpoint record carries every committed root of its
        // stripe; 8 MiB halves hold that with room for the log itself.
        wal_pages: 8_192,
        wal_stripes: 2,
    };
    let built = build(env.scratch, "commit.vol", shape, env.traced)?;
    let pool = Pool::new(env.seed ^ 0xC0DE, 1 << 20);
    let mut rng = StdRng::seed_from_u64(env.seed ^ 0x00C0_DE57);
    let mut first = Vec::with_capacity(population);
    while first.len() < population {
        let n = PRELOAD_BATCH.min(population - first.len());
        let payloads: Vec<&[u8]> = (0..n).map(|_| pool.slice(&mut rng, OBJECT_BYTES)).collect();
        let (made, done, _) = api::txn(&built.store, |t| {
            payloads
                .iter()
                .map(|p| t.create(p, Some(OBJECT_BYTES as u64)))
                .collect::<Result<Vec<_>, _>>()
        });
        let objs = match (made, done) {
            (Ok(objs), Ok(())) => objs,
            (Err(e), _) | (_, Err(e)) => return Err(format!("commit set-up: {e}")),
        };
        first.extend(objs.into_iter().zip(payloads).map(|(obj, p)| Owned {
            obj,
            bytes: p.to_vec(),
        }));
    }
    let second = first.split_off(population / 2);
    let writer = |preloaded, n: u64| Writer {
        preloaded,
        created: VecDeque::new(),
        rng: StdRng::seed_from_u64(env.seed ^ (0x00C0_0000 + n)),
    };
    Ok(State {
        built,
        writers: [writer(first, 0), writer(second, 1)],
        pool,
        progress: Progress::default(),
        warm: false,
    })
}

/// What one writer did in one round.
#[derive(Default)]
struct Lane {
    tally: Tally,
    latencies: Vec<u64>,
    user_bytes: u64,
}

/// One transaction of the mix; returns its begin-to-ack latency.
fn one_txn(w: &mut Writer, store: &ConcurrentStore, pool: &Pool, lane: &mut Lane) -> u64 {
    let roll = w.rng.gen_range(0..100u32);
    let payload = pool.slice(&mut w.rng, PAYLOAD_BYTES);
    let tally = &mut lane.tally;
    if roll < 60 {
        let at = w.rng.gen_range(0..w.preloaded.len());
        let off = w.rng.gen_range(0..=(OBJECT_BYTES - PAYLOAD_BYTES));
        let own = &mut w.preloaded[at];
        let (r, done, ns) = api::txn(store, |t| {
            api::replace(t, &mut own.obj, off as u64, payload)
        });
        if tally.attempt_txn("replace", r, done).is_some() {
            own.bytes[off..off + PAYLOAD_BYTES].copy_from_slice(payload);
        }
        lane.user_bytes += PAYLOAD_BYTES as u64;
        ns
    } else if roll < 80 || w.created.is_empty() {
        let (made, done, ns) = api::txn(store, |t| {
            api::create(t, payload, Some(PAYLOAD_BYTES as u64))
        });
        if let Some(obj) = tally.attempt_txn("create", made, done) {
            w.created.push_back(Owned {
                obj,
                bytes: payload.to_vec(),
            });
        }
        lane.user_bytes += PAYLOAD_BYTES as u64;
        ns
    } else {
        let mut oldest = w.created.pop_front().expect("checked non-empty");
        let (r, done, ns) = api::txn(store, |t| api::delete_object(t, &mut oldest.obj));
        tally.attempt_txn("delete_object", r, done);
        ns
    }
}

/// One round: both writers run `txns` transactions each, side by side.
pub fn round(st: &mut State, txns: u64) {
    let store = st.built.store.clone();
    let (pool, built, progress) = (&st.pool, &st.built, &mut st.progress);
    let warmup = if st.warm { 0 } else { WARMUP_TXNS };
    st.warm = true;
    let gate = Barrier::new(st.writers.len() + 1);
    let lanes: Vec<Lane> = std::thread::scope(|s| {
        let handles: Vec<_> = st
            .writers
            .iter_mut()
            .enumerate()
            .map(|(cpu, w)| {
                let (store, gate) = (store.clone(), &gate);
                s.spawn(move || {
                    pin_current_thread(cpu);
                    let mut lane = Lane::default();
                    for _ in 0..warmup {
                        one_txn(w, &store, pool, &mut lane);
                    }
                    lane.user_bytes = 0;
                    gate.wait(); // warm-up done on every writer
                    gate.wait(); // counters read, spans on: go
                    for _ in 0..txns {
                        let ns = one_txn(w, &store, pool, &mut lane);
                        lane.latencies.push(ns);
                    }
                    trace::flush_thread();
                    lane
                })
            })
            .collect();
        gate.wait();
        progress.begin_round(built);
        gate.wait();
        let lanes = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut lane = Lane::default();
                    lane.tally.attempted += 1;
                    lane.tally.fail(|| "a commit writer panicked".to_string());
                    lane
                })
            })
            .collect();
        progress.end_round();
        lanes
    });

    // Each writer is a closed loop, so its rate is the inverse of its
    // mean latency; the store's rate is the writers' rates added up.
    let mut pooled = Vec::new();
    let mut commits_s = 0.0;
    for lane in lanes {
        progress.tally.absorb(lane.tally);
        progress.user_bytes += lane.user_bytes;
        progress.busy_ns += lane.latencies.iter().sum::<u64>();
        commits_s += rate_per_s(&lane.latencies);
        pooled.extend(lane.latencies);
    }
    let n = pooled.len();
    progress.series.push("commits_s", commits_s, n);
    progress
        .series
        .push("commit_p50_us", quantile_us(&mut pooled, 0.50), n);
    progress
        .series
        .push("commit_p95_us", quantile_us(&mut pooled, 0.95), n);
}

/// Read every owned object back against its expected bytes, run
/// `eos-check`, hand the results back.
pub fn finish(st: &mut State) -> Outcome {
    let mut progress = std::mem::take(&mut st.progress);
    let store = &st.built.store;
    let mut live = Vec::new();
    let snap = store.snapshot();
    for own in st
        .writers
        .iter()
        .flat_map(|w| w.preloaded.iter().chain(&w.created))
    {
        let got = snap.read_all(own.obj.id());
        if let Some(bytes) = progress.tally.attempt("verify read_all", got) {
            if bytes != own.bytes {
                progress
                    .tally
                    .fail(|| format!("object {} lost an acknowledged write", own.obj.id()));
            }
        }
        live.push(own.obj.clone());
    }
    drop(snap);
    // One page per object: all are at most 1 KiB.
    progress.note_fullness(store, live.len() as u64);
    progress.finish(&st.built, live, "commits_s", Vec::new())
}

/// Hand the built store to the caller for the restart measurement.
pub fn into_built(st: State) -> Built {
    st.built
}
