//! The benchmark's metric tables: every end-to-end metric with its unit,
//! direction and regression bound, every per-layer metric with its unit
//! and direction, and the `BENCHMARK.json` they render to. A test keeps
//! the committed `BENCHMARK.json` equal to [`manifest_json`].

use crate::plan::Workload;
use crate::trace::Name;

/// Seconds one driver run measures (`--seconds` of the contract).
pub const RUN_SECONDS: u64 = 18;

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0x0E05_1992;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, measured with tracing off.
///
/// A bound has to clear two things seen on the development box, or it
/// rejects unchanged code: the span of a metric's quartiles across ten
/// seeds (2–8 % of the median in a quiet quarter of an hour, up to 16 %
/// in a noisy one), and the drift of the box itself — medians of ten runs
/// taken half an hour apart differed by up to 12 % for CPU-bound
/// timings and 22 % for `commits_s`; a pure compute loop shows the same.
/// So a timing holds 0.20 only where both stayed under 12 %, and the rest
/// take the contract's ceiling of 0.25, above the 0.20 the issue wanted
/// as a cap. The counts are exact for a given seed, and their bounds only
/// absorb the seed-to-seed spread the driver's check looks at.
/// `perf/README.md` has the measurements.
///
/// Two of the issue's sixteen metrics could not hold even that and are
/// per-layer metrics, by the issue's own rule: `snap_reads_s` (quartiles
/// 12–30 % apart whatever the estimator, drifting by 30 % inside single
/// runs) is `core.snapshot.pair_reads_s`, and `update_p99_us` (medians of
/// ten runs half an hour apart 10–20 % apart in every workload, while the
/// p50s moved by 3 %) is `core.op.update_p99_us`.
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ingest_mb_s", "MB/s", Better::Higher, 0.20),
    e2e("scan_mb_s", "MB/s", Better::Higher, 0.20),
    e2e("edit_ops_s", "1/s", Better::Higher, 0.25),
    e2e("insert_p50_us", "us", Better::Lower, 0.25),
    e2e("replace_p50_us", "us", Better::Lower, 0.25),
    e2e("seeks_per_read", "count", Better::Lower, 0.15),
    e2e("commits_s", "1/s", Better::Higher, 0.25),
    e2e("commit_p50_us", "us", Better::Lower, 0.25),
    e2e("commit_p95_us", "us", Better::Lower, 0.25),
    e2e("snap_read_p95_us", "us", Better::Lower, 0.25),
    e2e("churn_commits_s", "1/s", Better::Higher, 0.20),
    e2e("write_amp", "count", Better::Lower, 0.05),
    e2e("space_amp", "count", Better::Lower, 0.05),
];

/// One per-layer metric (no bound: these explain, they do not gate).
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// The object operations that get `core.op.<kind>_*` metrics, and the
/// span each is recorded under.
pub const OP_KINDS: [(&str, Name); 8] = [
    ("create", Name::Create),
    ("append", Name::Append),
    ("insert", Name::Insert),
    ("delete", Name::Delete),
    ("replace", Name::Replace),
    ("read", Name::Read),
    ("truncate", Name::Truncate),
    ("delete_object", Name::DeleteObject),
];

/// Every per-layer metric of a traced run, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: &[(&str, &str, Better)] = &[
        // pager (eos-pager), timed from outside by TimedVolume
        ("pager.read_ns", "ns", Lower),
        ("pager.read_calls", "count", Lower),
        ("pager.read_pages", "pages", Lower),
        ("pager.write_ns", "ns", Lower),
        ("pager.write_calls", "count", Lower),
        ("pager.write_pages", "pages", Lower),
        ("pager.sync_ns", "ns", Lower),
        ("pager.sync_calls", "count", Lower),
        ("pager.seeks", "count", Lower),
        ("pager.sim_ms", "ms", Lower),
        ("pager.probe.mem_read_4k_ns", "ns", Lower),
        ("pager.probe.file_read_4k_ns", "ns", Lower),
        ("pager.probe.file_write_4k_ns", "ns", Lower),
        ("pager.probe.file_write_1m_ns", "ns", Lower),
        ("pager.probe.file_read_4k_contended_ns", "ns", Lower),
        // buddy (eos-buddy)
        ("buddy.alloc_calls", "count", Lower),
        ("buddy.alloc_pages", "pages", Lower),
        ("buddy.free_calls", "count", Lower),
        ("buddy.free_pages", "pages", Lower),
        ("buddy.coalesce_depth_mean", "count", Lower),
        ("buddy.latch_wait_us", "us", Lower),
        ("buddy.free_pages_end", "pages", Higher),
        ("buddy.largest_free_pages_end", "pages", Higher),
        ("buddy.probe.alloc_1p_ns", "ns", Lower),
        ("buddy.probe.alloc_64p_ns", "ns", Lower),
        ("buddy.probe.alloc_1024p_ns", "ns", Lower),
        ("buddy.probe.free_ns", "ns", Lower),
        ("buddy.probe.alloc_1p_full90_ns", "ns", Lower),
        // core.op (ops/*, tree.rs, reshuffle.rs): per-kind rows follow
        ("core.op.reshuffle_pages_moved", "pages", Lower),
        ("core.op.reshuffle_triggers", "count", Lower),
        ("core.op.tree_height_max", "count", Lower),
        ("core.op.segments_per_mib", "count", Lower),
        ("core.op.index_pages", "pages", Lower),
        ("core.op.update_p99_us", "us", Lower),
        ("core.txn.begin_ns", "ns", Lower),
        ("core.txn.begin_calls", "count", Lower),
        // core.wal (durable.rs, striped.rs)
        ("wal.frames", "count", Lower),
        ("wal.bytes", "bytes", Lower),
        ("wal.syncs", "count", Lower),
        ("wal.checkpoints", "count", Lower),
        ("wal.bytes_per_commit", "bytes", Lower),
        ("wal.syncs_per_commit", "count", Lower),
        ("wal.probe.append_ns", "ns", Lower),
        ("wal.probe.force_ns", "ns", Lower),
        ("wal.probe.checkpoint_ms", "ms", Lower),
        // core.commit (concurrent.rs group-commit phases A-D)
        ("core.commit.ns", "ns", Lower),
        ("core.commit.calls", "count", Lower),
        ("core.commit.self_ns", "ns", Lower),
        ("core.commit.p99_us", "us", Lower),
        ("commit.phase_a_us", "us", Lower),
        ("commit.phase_b_us", "us", Lower),
        ("commit.phase_c_us", "us", Lower),
        ("commit.phase_d_us", "us", Lower),
        ("commit.queue_wait_us", "us", Lower),
        ("commit.group_batches", "count", Lower),
        ("commit.batch_mean", "count", Higher),
        // core.mvcc (concurrent.rs pin/publish/reclaim)
        ("mvcc.snapshots", "count", Lower),
        ("mvcc.pin_hold_us", "us", Lower),
        ("mvcc.reclaim_batches", "count", Lower),
        ("mvcc.reclaimed_pages", "pages", Lower),
        ("mvcc.deferred_pages_max", "pages", Lower),
        ("mvcc.oldest_epoch_lag_max", "count", Lower),
        ("core.snapshot.open_ns", "ns", Lower),
        ("core.snapshot.read_ns", "ns", Lower),
        ("core.snapshot.p99_us", "us", Lower),
        ("core.snapshot.pair_reads_s", "1/s", Higher),
        // core.locks (locks.rs)
        ("locks.acquired", "count", Lower),
        ("locks.blocks", "count", Lower),
        ("locks.wait_us", "us", Lower),
        // core.recovery (store/recovery.rs)
        ("recovery.open_ms", "ms", Lower),
        ("recovery.records_scanned", "count", Lower),
        // the real disk, un-gated
        ("realdisk.fsync_p50_us", "us", Lower),
        ("realdisk.fsync_p99_us", "us", Lower),
        ("realdisk.commits_s", "1/s", Higher),
        ("realdisk.commit_p50_us", "us", Lower),
        ("realdisk.ingest_mb_s", "MB/s", Higher),
        // the trace itself
        ("trace.coverage_pct", "%", Higher),
        ("trace.overhead_pct", "%", Lower),
        ("trace.spans", "count", Lower),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    let at = out
        .iter()
        .position(|m| m.name == "core.op.reshuffle_pages_moved")
        .unwrap_or(out.len());
    let per_kind = OP_KINDS.iter().flat_map(|(kind, _)| {
        [
            ("ns", "ns"),
            ("calls", "count"),
            ("self_ns", "ns"),
            ("seeks", "count"),
            ("transfers", "pages"),
        ]
        .map(|(field, unit)| PerLayer {
            name: format!("core.op.{kind}_{field}"),
            unit,
            better: Lower,
        })
    });
    out.splice(at..at, per_kind);
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"perf\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The last line of a run: the contract's JSON object.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // Debug formatting prints every digit an f64 needs to round-trip.
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        rows.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{} layers", layers.len());
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .chain(layers.iter().map(|m| (m.name.clone(), m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name().to_string(), "s")))
        {
            assert!(legal_name(&name), "illegal name {name}");
            assert!(legal_unit(unit), "illegal unit {unit} of {name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() < 64 << 10);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
    }
}
