//! Cross-thread causality for the `eos-trace` pipeline timeline
//! (DESIGN.md §16): a seeded multi-writer group-commit run must leave a
//! ring of events whose structure reconstructs the batches exactly.
//!
//! Pinned properties:
//!
//! 1. **Linkage** — every commit's `commit.queue_wait` end event names
//!    a batch that a leader actually flushed (its id appears on a
//!    `commit` begin/end pair), so follower timelines join the leader's.
//! 2. **Nesting & contiguity** — per batch, the Phase A–D spans sit
//!    inside the `commit` span, share boundary timestamps (A ends where
//!    B begins, …), and sum *exactly* to the commit's wall time.
//! 3. **Reconciliation** — the per-phase wall histograms record one
//!    sample per batch and the queue-wait histogram one per commit, so
//!    the aggregate view and the event view describe the same run.
//! 4. **Export** — the Chrome `trace_event` conversion of the ring
//!    parses with the in-tree JSON parser and keeps every event.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use eos::core::{ConcurrentStore, ObjectStore, StoreConfig};
use eos::obs::{chrome_trace_json, Metrics, PipeEvent, PipeKind, PIN_TRACE_BIT};
use eos::pager::{DiskProfile, FaultVolume, MemVolume, Plan, SharedVolume};

const WRITERS: u64 = 4;
const ROUNDS: u64 = 8;

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i % 251) as u8))
        .collect()
}

/// A durable store on a throttled in-memory volume with its own metrics
/// domain. The throttle stretches the log force, so racing commits pile
/// up behind the leader and real multi-member batches form.
fn traced_store(metrics: &Metrics) -> ObjectStore {
    let inner: SharedVolume =
        MemVolume::with_profile(1024, (1024 + 1) * 4 + 62, DiskProfile::FREE).shared();
    let throttle = Plan::new().sync_delay(Duration::from_micros(100));
    let volume: SharedVolume = FaultVolume::with_plan(inner, throttle).unwrap();
    let mut store = ObjectStore::create_durable(
        volume,
        4,
        1024,
        StoreConfig {
            sync_on_commit: true,
            ..StoreConfig::default()
        },
        62,
    )
    .unwrap();
    store.set_metrics(metrics);
    store
}

fn kinds(events: &[PipeEvent], phase: &str, kind: PipeKind) -> Vec<PipeEvent> {
    events
        .iter()
        .filter(|e| e.phase == phase && e.kind == kind)
        .cloned()
        .collect()
}

#[test]
fn group_commit_events_link_followers_to_the_leader_batch() {
    let metrics = Metrics::new();
    let store = traced_store(&metrics);
    let cs = ConcurrentStore::new(store);

    // Each writer creates its object, then all four race ROUNDS of
    // replace-commits through a barrier so every round's commits hit
    // the group queue together.
    let gate = Arc::new(Barrier::new(WRITERS as usize));
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let cs = cs.clone();
        let gate = Arc::clone(&gate);
        handles.push(std::thread::spawn(move || {
            let txn = cs.begin();
            let mut obj = txn.create(&pattern(w as u8, 8_000), None).unwrap();
            txn.commit().unwrap();
            for i in 0..ROUNDS {
                gate.wait();
                let txn = cs.begin();
                txn.replace(&mut obj, (i * 731) % 4_000, &pattern((w + i) as u8, 2_000))
                    .unwrap();
                txn.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let events = metrics.pipe_events();
    assert_eq!(
        metrics.pipe_recorded(),
        events.len() as u64,
        "the run must fit the ring — grow DEFAULT_PIPE_CAPACITY if this fires"
    );

    // -- 1. Linkage: every retired commit names a flushed batch. -----
    let commit_begins = kinds(&events, "commit", PipeKind::Begin);
    let commit_ends = kinds(&events, "commit", PipeKind::End);
    let batch_ids: std::collections::BTreeSet<u64> =
        commit_begins.iter().map(|e| e.batch_id).collect();
    let waits = kinds(&events, "commit.queue_wait", PipeKind::End);
    let total_commits = (WRITERS * (ROUNDS + 1)) as usize;
    assert_eq!(waits.len(), total_commits, "one queue-wait end per commit");
    for w in &waits {
        assert!(w.batch_id > 0, "retired commit with no batch id: {w:?}");
        assert!(
            batch_ids.contains(&w.batch_id),
            "txn {} retired under batch {} that no leader flushed",
            w.trace_id,
            w.batch_id
        );
    }
    // Grouping actually happened: fewer batches than commits means at
    // least one leader carried followers.
    assert_eq!(commit_begins.len(), commit_ends.len());
    assert!(
        batch_ids.len() < total_commits,
        "no multi-member batch formed in {total_commits} racing commits"
    );

    // -- 2. Nesting and contiguity per batch. ------------------------
    let phases = [
        "commit.phase_a",
        "commit.phase_b",
        "commit.phase_c",
        "commit.phase_d",
    ];
    for b in &commit_begins {
        let e = commit_ends
            .iter()
            .find(|e| e.batch_id == b.batch_id)
            .unwrap_or_else(|| panic!("batch {} has no commit end", b.batch_id));
        assert_eq!(e.trace_id, b.trace_id, "leader changed mid-batch");
        assert_eq!(e.thread, b.thread, "commit span crossed threads");
        let mut cursor = b.ts_ns;
        let mut phase_sum = 0u64;
        for p in phases {
            let pb = kinds(&events, p, PipeKind::Begin)
                .into_iter()
                .find(|x| x.batch_id == b.batch_id)
                .unwrap_or_else(|| panic!("batch {} missing {p} begin", b.batch_id));
            let pe = kinds(&events, p, PipeKind::End)
                .into_iter()
                .find(|x| x.batch_id == b.batch_id)
                .unwrap_or_else(|| panic!("batch {} missing {p} end", b.batch_id));
            assert_eq!(pb.trace_id, b.trace_id, "{p} not on the leader's timeline");
            assert_eq!(pb.ts_ns, cursor, "{p} does not start where the last ended");
            assert!(pe.ts_ns >= pb.ts_ns);
            phase_sum += pe.ts_ns - pb.ts_ns;
            cursor = pe.ts_ns;
        }
        assert_eq!(cursor, e.ts_ns, "phase D does not end at the commit end");
        assert_eq!(
            phase_sum,
            e.ts_ns - b.ts_ns,
            "phases do not sum to the commit wall time"
        );
    }

    // MVCC pin events live in their own trace-id namespace.
    for e in &events {
        if e.phase.starts_with("mvcc.") {
            assert!(
                e.trace_id & PIN_TRACE_BIT != 0,
                "mvcc event without PIN_TRACE_BIT: {e:?}"
            );
        }
    }

    // -- 3. Histograms reconcile with the event view. ----------------
    let snap = metrics.snapshot();
    for (i, p) in phases.iter().enumerate() {
        let h = snap
            .histogram(&format!("commit.phase_{}.wall_us", ["a", "b", "c", "d"][i]))
            .unwrap_or_else(|| panic!("no histogram for {p}"));
        assert_eq!(
            h.count,
            batch_ids.len() as u64,
            "{p} histogram samples != flushed batches"
        );
    }
    let qw = snap.histogram("commit.queue_wait_us").unwrap();
    assert_eq!(qw.count, total_commits as u64);

    // -- 4. The Chrome export round-trips through the house parser. --
    let chrome = chrome_trace_json(&events);
    let doc = eos_check::schema::parse(&chrome).expect("chrome export must parse");
    let n = doc
        .get("traceEvents")
        .and_then(eos_check::Json::as_array)
        .map_or(0, <[eos_check::Json]>::len);
    assert_eq!(n, events.len(), "export dropped events");

    drop(cs);
}
