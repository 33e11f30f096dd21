//! Workloads, population sizes and operation counts.
//!
//! Every run drives the same four sections — bulk ingest/scan, aged
//! edits, small commits, snapshot reads beside churn — so every run
//! reports every end-to-end metric. A *workload* is a traffic mix: its
//! own section gets [`OWN_SHARE`] of the measured seconds and each of
//! the other three an equal part of the rest. Operation counts are fixed
//! by the mix and `--seconds` through the nominal rates below, never by
//! the clock: a faster store finishes sooner, it is not given more work,
//! so every count metric repeats exactly.

/// The four workloads, named after the section they weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Durable creates across 64 KiB–16 MiB, full scans, deletes.
    BulkIngestScan,
    /// Small durable edits at uniform offsets of aged 4 MiB objects.
    EditAged,
    /// Two writers, small transactions over 20 000 small objects.
    CommitSmall,
    /// One snapshot reader beside one replace-churning writer.
    SnapshotChurn,
}

impl Workload {
    /// Every workload, in section order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkIngestScan,
        Workload::EditAged,
        Workload::CommitSmall,
        Workload::SnapshotChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkIngestScan => "bulk_ingest_scan",
            Workload::EditAged => "edit_aged",
            Workload::CommitSmall => "commit_small",
            Workload::SnapshotChurn => "snapshot_churn",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BulkIngestScan => {
                "64 KiB-16 MiB durable creates, full scans, deletes: pager transfer and buddy \
                 large-extent work dominate, tree and WAL almost absent; brackets the BLOB crossover"
            }
            Workload::EditAged => {
                "small durable edits of aged 4 MiB objects on memory: tree descent, reshuffling, \
                 segment CoW, small buddy calls and WAL framing are the cost; I/O path is a memcpy"
            }
            Workload::CommitSmall => {
                "two writers of 512 B transactions over 20 000 objects on a serialised 200 us flush: \
                 group commit, WAL force and root publication are the cost; object ops almost absent"
            }
            Workload::SnapshotChurn => {
                "snapshot pair-reads beside a replace-churning writer: MVCC pin/publish/reclaim, the \
                 store latch and the file mutex; trades reader latency against writer speed"
            }
        }
    }
}

/// Part of the measured seconds a workload gives its own section.
pub const OWN_SHARE: f64 = 0.5;

/// Nominal section rates at the seed commit on the 2-core development
/// box. They turn seconds into operation counts and are not tuned per
/// host: on a faster box a run is shorter, not bigger.
mod nominal {
    /// Seconds per ingest pass (create + scan + delete of ~100 MiB).
    pub const INGEST_PASS_S: f64 = 0.22;
    /// Edit operations per second, harness bookkeeping included.
    pub const EDIT_OPS_S: f64 = 27_000.0;
    /// Commits per second per writer.
    pub const COMMIT_TXNS_S: f64 = 400.0;
    /// Snapshot operations (16 pair-reads each) per second.
    pub const SNAP_OPS_S: f64 = 3_600.0;
}

/// Population sizes. `full` is the benchmark; `smoke` runs the same code
/// over tiny populations in a few seconds.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Ingest: `(objects, bytes each)` created with a size hint per round.
    pub ingest_mix: Vec<(usize, usize)>,
    /// Ingest: size of the one object grown by 8 KiB appends, no hint.
    pub ingest_grown_bytes: usize,
    /// Ingest: buddy spaces of the volume.
    pub ingest_spaces: usize,
    /// Edit: objects.
    pub edit_objects: usize,
    /// Edit: initial bytes per object.
    pub edit_object_bytes: usize,
    /// Edit: operations of the ageing pass in set-up.
    pub edit_age_ops: u64,
    /// Commit: preloaded 1 KiB objects.
    pub commit_population: usize,
    /// Commit: commits of the durability check.
    pub durability_commits: u64,
    /// Snapshot: objects.
    pub snap_objects: usize,
    /// Snapshot: bytes per object (two halves of paired blocks).
    pub snap_object_bytes: usize,
    /// Set-up repetitions in an untraced run; the median is `setup_s`.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's populations.
    pub fn full() -> Scale {
        Scale {
            ingest_mix: vec![
                (64, 64 << 10),
                (32, 256 << 10),
                (16, 1 << 20),
                (8, 4 << 20),
                (2, 16 << 20),
            ],
            ingest_grown_bytes: 4 << 20,
            ingest_spaces: 4,
            edit_objects: 16,
            edit_object_bytes: 4 << 20,
            edit_age_ops: 20_000,
            commit_population: 20_000,
            durability_commits: 500,
            snap_objects: 64,
            snap_object_bytes: 1 << 20,
            setup_reps: 3,
        }
    }

    /// Tiny populations for `--smoke`.
    pub fn smoke() -> Scale {
        Scale {
            ingest_mix: vec![(8, 64 << 10), (4, 256 << 10), (2, 1 << 20), (1, 4 << 20)],
            ingest_grown_bytes: 256 << 10,
            ingest_spaces: 1,
            edit_objects: 4,
            edit_object_bytes: 1 << 20,
            edit_age_ops: 500,
            commit_population: 400,
            durability_commits: 60,
            snap_objects: 8,
            snap_object_bytes: 1 << 20,
            setup_reps: 1,
        }
    }
}

/// Rounds of a run: every section does a [`ROUNDS`]th of its operations
/// in each, and every timing metric is the median of its per-round
/// values (see [`crate::section`]).
pub const ROUNDS: u64 = 5;

/// Operation counts of one round of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Rounds of the run.
    pub rounds: u64,
    /// Ingest passes per round.
    pub ingest_passes: u64,
    /// Edit operations per round.
    pub edit_ops: u64,
    /// Transactions per commit writer per round.
    pub commit_txns: u64,
    /// Snapshot operations of the reader per round.
    pub snap_ops: u64,
}

impl Plan {
    /// The counts for `workload` measured over `seconds`. The floors keep
    /// twenty samples beyond every percentile of every round: a round's
    /// p99 pools ≥ 2 000 updates, its p95s ≥ 400 commits or snapshots.
    pub fn new(workload: Workload, seconds: u64) -> Plan {
        let per_round = |w: Workload, per_s: f64, floor: u64| {
            let share = if w == workload {
                OWN_SHARE
            } else {
                (1.0 - OWN_SHARE) / 3.0
            };
            ((seconds as f64 * share * per_s / ROUNDS as f64).ceil() as u64).max(floor)
        };
        Plan {
            rounds: ROUNDS,
            ingest_passes: per_round(Workload::BulkIngestScan, 1.0 / nominal::INGEST_PASS_S, 1),
            edit_ops: per_round(Workload::EditAged, nominal::EDIT_OPS_S, 2_700),
            commit_txns: per_round(Workload::CommitSmall, nominal::COMMIT_TXNS_S, 200),
            snap_ops: per_round(Workload::SnapshotChurn, nominal::SNAP_OPS_S, 4_000),
        }
    }

    /// Two rounds of a few hundred operations per section, for `--smoke`.
    pub fn smoke() -> Plan {
        Plan {
            rounds: 2,
            ingest_passes: 1,
            edit_ops: 300,
            commit_txns: 80,
            snap_ops: 30,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_named_section_gets_the_largest_share() {
        let own = Plan::new(Workload::EditAged, 10);
        let other = Plan::new(Workload::CommitSmall, 10);
        assert!(own.edit_ops >= 2 * other.edit_ops);
        assert!(other.commit_txns >= 2 * own.commit_txns);
        assert_eq!(own, Plan::new(Workload::EditAged, 10), "counts are fixed");
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
