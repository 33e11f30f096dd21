//! Per-layer metrics of a traced run, assembled from outside the store:
//! span aggregates (time, self time, seeks and transfers per API call),
//! `TimedVolume` totals, differences of each store's own metrics domain,
//! `Volume::stats()`, buddy accessors, and the probes.

use std::collections::BTreeMap;

use crate::metrics::OP_KINDS;
use crate::section::{LayerReadings, Outcome};
use crate::trace::{Name, Trace};
use crate::util::{quantile_us, ratio};
use crate::volumes::PagerTotals;

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// Counter delta of one section.
fn counter(l: &LayerReadings, name: &str) -> u64 {
    l.after.counter(name).unwrap_or(0) - l.before.counter(name).unwrap_or(0)
}

/// Histogram `(count, sum)` delta of one section.
fn histogram(l: &LayerReadings, name: &str) -> (u64, u64) {
    let read =
        |s: &eos_core::obs::MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (a, b) = (read(&l.after), read(&l.before));
    (a.0 - b.0, a.1 - b.1)
}

/// The span- and counter-derived metrics of the traced sections.
/// `native` indexes the workload's own section in `sections`;
/// `untraced_headline` is that section's headline rate from the
/// untraced pass of the same run.
pub fn assemble(
    sections: &[Outcome],
    native: usize,
    untraced_headline: f64,
    trace: &Trace,
) -> Values {
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let layers: Vec<&LayerReadings> = sections.iter().map(|o| &o.layers).collect();
    let total = |name: &str| layers.iter().map(|l| counter(l, name)).sum::<u64>() as f64;
    let hist = |name: &str| {
        layers
            .iter()
            .map(|l| histogram(l, name))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    let hist_mean = |name: &str| {
        let (count, sum) = hist(name);
        ratio(sum as f64, count as f64)
    };

    // pager
    let pager = |f: fn(&PagerTotals) -> u64| layers.iter().map(|l| f(&l.pager)).sum::<u64>() as f64;
    put("pager.read_ns", pager(|p| p.read.ns));
    put("pager.read_calls", pager(|p| p.read.calls));
    put("pager.read_pages", pager(|p| p.read.pages));
    put("pager.write_ns", pager(|p| p.write.ns));
    put("pager.write_calls", pager(|p| p.write.calls));
    put("pager.write_pages", pager(|p| p.write.pages));
    put("pager.sync_ns", pager(|p| p.sync.ns));
    put("pager.sync_calls", pager(|p| p.sync.calls));
    put(
        "pager.seeks",
        layers.iter().map(|l| l.io.seeks).sum::<u64>() as f64,
    );
    put(
        "pager.sim_ms",
        layers.iter().map(|l| l.io.elapsed_ms()).sum::<f64>(),
    );

    // buddy
    let (alloc_calls, alloc_pages) = hist("buddy.alloc.pages");
    let (free_calls, free_pages) = hist("buddy.free.pages");
    put("buddy.alloc_calls", alloc_calls as f64);
    put("buddy.alloc_pages", alloc_pages as f64);
    put("buddy.free_calls", free_calls as f64);
    put("buddy.free_pages", free_pages as f64);
    put(
        "buddy.coalesce_depth_mean",
        hist_mean("buddy.coalesce.depth"),
    );
    put("buddy.latch_wait_us", hist("buddy.latch.wait_us").1 as f64);
    put("buddy.free_pages_end", layers[native].free_pages_end as f64);
    put(
        "buddy.largest_free_pages_end",
        layers[native].largest_free_pages_end as f64,
    );

    // core.op, core.txn, core.commit, core.snapshot — from the spans
    for (kind, name) in OP_KINDS {
        let s = trace.sum(name);
        put(&format!("core.op.{kind}_ns"), s.ns as f64);
        put(&format!("core.op.{kind}_calls"), s.calls as f64);
        put(
            &format!("core.op.{kind}_self_ns"),
            s.ns.saturating_sub(s.pager_ns) as f64,
        );
        put(&format!("core.op.{kind}_seeks"), s.seeks as f64);
        put(&format!("core.op.{kind}_transfers"), s.transfers as f64);
    }
    put(
        "core.op.reshuffle_pages_moved",
        hist("reshuffle.pages_moved").1 as f64,
    );
    put(
        "core.op.reshuffle_triggers",
        layers
            .iter()
            .map(|l| {
                l.after.counter_prefix_sum("reshuffle.triggers.")
                    - l.before.counter_prefix_sum("reshuffle.triggers.")
            })
            .sum::<u64>() as f64,
    );
    let begin = trace.sum(Name::Begin);
    put("core.txn.begin_ns", begin.ns as f64);
    put("core.txn.begin_calls", begin.calls as f64);

    // core.wal
    let commit = trace.sum(Name::Commit);
    put("wal.frames", total("wal.frames"));
    put("wal.bytes", total("wal.bytes"));
    put("wal.syncs", total("wal.syncs"));
    put("wal.checkpoints", total("wal.checkpoints"));
    put(
        "wal.bytes_per_commit",
        ratio(total("wal.bytes"), commit.calls as f64),
    );
    put(
        "wal.syncs_per_commit",
        ratio(total("wal.syncs"), commit.calls as f64),
    );

    // core.commit
    put("core.commit.ns", commit.ns as f64);
    put("core.commit.calls", commit.calls as f64);
    put(
        "core.commit.self_ns",
        commit.ns.saturating_sub(commit.pager_ns) as f64,
    );
    put(
        "core.commit.p99_us",
        quantile_us(&mut commit.each_ns.clone(), 0.99),
    );
    for phase in ["a", "b", "c", "d"] {
        put(
            &format!("commit.phase_{phase}_us"),
            hist_mean(&format!("commit.phase_{phase}.wall_us")),
        );
    }
    put("commit.queue_wait_us", hist_mean("commit.queue_wait_us"));
    put("commit.group_batches", total("wal.group_commits"));
    put("commit.batch_mean", hist_mean("wal.group_commit.batch"));

    // core.mvcc
    let reads = trace.sum(Name::SnapshotRead);
    put("mvcc.snapshots", total("mvcc.snapshots"));
    put("mvcc.pin_hold_us", hist_mean("mvcc.pin.hold_us"));
    put("mvcc.reclaim_batches", total("mvcc.reclaim_batches"));
    put("mvcc.reclaimed_pages", total("mvcc.reclaimed_pages"));
    put(
        "core.snapshot.open_ns",
        trace.sum(Name::SnapshotOpen).ns as f64,
    );
    put("core.snapshot.read_ns", reads.ns as f64);
    put(
        "core.snapshot.p99_us",
        quantile_us(&mut reads.each_ns.clone(), 0.99),
    );

    // core.locks
    put("locks.acquired", total("locks.acquired"));
    put("locks.blocks", total("locks.blocks"));
    put("locks.wait_us", hist("locks.wait_us").1 as f64);

    // Section-specific metrics, already named: extras, and whatever a
    // section measured per round under a layer's name.
    for section in sections {
        for &(name, value) in &section.layers.extras {
            put(name, value);
        }
        for m in section.measured.iter().filter(|m| m.name.contains('.')) {
            put(m.name, m.value);
        }
    }

    // The trace itself. Top-level spans are whole operations (`txn`,
    // `snapshot`), timed by the same instants as the end-to-end
    // latencies; their children are the calls into the store. Coverage
    // is the share of end-to-end latency those calls account for.
    let busy_ns: u64 = sections.iter().map(|o| o.busy_ns).sum();
    put(
        "trace.coverage_pct",
        100.0 * ratio(trace.child_ns as f64, busy_ns as f64),
    );
    put(
        "trace.overhead_pct",
        100.0 * (1.0 - ratio(sections[native].headline, untraced_headline)),
    );
    put("trace.spans", trace.recorded as f64);
    v
}
