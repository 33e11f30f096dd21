//! One benchmark run: set every section up, go round the plan, check the
//! results, and hand back the metrics of the requested kind.

use std::time::{Duration, Instant};

use crate::layers::{self, Values};
use crate::metrics::{per_layer, END_TO_END};
use crate::plan::{Plan, Scale, Workload};
use crate::section::{Env, Outcome};
use crate::substrate::Scratch;
use crate::util::{median, Tally};
use crate::{commit, durability, edit, ingest, probes, snapshot, trace};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The traffic mix.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Seconds the measured rounds are sized for.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Tiny populations and counts, same code paths.
    pub smoke: bool,
}

/// What a run produced.
pub struct RunResult {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Whether every output was correct and every metric was produced.
    pub correct: bool,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample count and per-round range of the end-to-end metrics, for
    /// the report.
    pub details: Vec<(&'static str, String)>,
    /// Failure messages.
    pub notes: Vec<String>,
}

/// The sections' outcomes of one pass, in [`Workload::ALL`] order.
struct Pass {
    outcomes: Vec<Outcome>,
    setup_s: f64,
    /// `(open_ms, records_scanned)` of reopening the commit volume.
    recovery: Option<(f64, f64)>,
    tally: Tally,
}

/// Set a section up `reps` times, keeping the last state and adding the
/// median set-up time to `setup_s`. Earlier states are dropped first:
/// they own the volume file.
fn staged<S>(
    reps: usize,
    setup_s: &mut f64,
    setup: impl Fn() -> Result<S, String>,
) -> Result<S, String> {
    let mut took = Vec::with_capacity(reps);
    let mut state = setup_timed(&setup, &mut took)?;
    for _ in 1..reps {
        drop(state);
        state = setup_timed(&setup, &mut took)?;
    }
    *setup_s += median(&took);
    Ok(state)
}

fn setup_timed<S>(setup: impl Fn() -> Result<S, String>, took: &mut Vec<f64>) -> Result<S, String> {
    let t0 = Instant::now();
    let state = setup()?;
    took.push(t0.elapsed().as_secs_f64());
    Ok(state)
}

/// Set the four sections up, go round the plan, finish each section.
fn pass(env: &Env<'_>, plan: Plan, reps: usize) -> Result<Pass, String> {
    let mut setup_s = 0.0;
    let mut ingest = staged(reps, &mut setup_s, || ingest::setup(env))?;
    let mut edit = staged(reps, &mut setup_s, || edit::setup(env))?;
    let mut commit = staged(reps, &mut setup_s, || commit::setup(env))?;
    let mut snap = staged(reps, &mut setup_s, || snapshot::setup(env))?;

    // Wall seconds per section: what the nominal rates of `plan.rs` are
    // calibrated against.
    let mut wall = [0.0f64; 4];
    let mut clocked = |section: usize, round: &mut dyn FnMut()| {
        let t0 = Instant::now();
        round();
        wall[section] += t0.elapsed().as_secs_f64();
    };
    let passes = plan.ingest_passes;
    for _ in 0..plan.rounds {
        clocked(0, &mut || ingest::round(&mut ingest, env, passes));
        clocked(1, &mut || edit::round(&mut edit, plan.edit_ops));
        clocked(2, &mut || commit::round(&mut commit, plan.commit_txns));
        clocked(3, &mut || snapshot::round(&mut snap, plan.snap_ops));
    }
    println!(
        "  {} rounds: ingest {:.2} s, edit {:.2} s, commit {:.2} s, snapshot {:.2} s",
        plan.rounds, wall[0], wall[1], wall[2], wall[3]
    );

    // In `Workload::ALL` order.
    let outcomes = vec![
        ingest::finish(&mut ingest),
        edit::finish(&mut edit),
        commit::finish(&mut commit),
        snapshot::finish(&mut snap),
    ];
    let mut tally = durability::check(env.seed, env.scale.durability_commits);
    let mut recovery = None;
    if env.traced {
        // Restart cost of the volume the commit section left behind.
        let built = commit::into_built(commit);
        let live = built.store.snapshot().object_ids().len();
        let t0 = Instant::now();
        let reopened = built.reopen();
        let open_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some((_, report)) = tally.attempt("reopen the commit volume", reopened) {
            tally.expect(report.objects.len() == live, || {
                format!("restart found {} of {live} objects", report.objects.len())
            });
            recovery = Some((open_ms, report.records_scanned as f64));
        }
    }
    Ok(Pass {
        outcomes,
        setup_s,
        recovery,
        tally,
    })
}

/// Run one workload.
pub fn run(args: RunArgs, scratch: &Scratch) -> Result<RunResult, String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let plan = if args.smoke {
        Plan::smoke()
    } else {
        Plan::new(args.workload, args.seconds)
    };
    let native = Workload::ALL
        .iter()
        .position(|&w| w == args.workload)
        .expect("every workload is in ALL");
    println!(
        "workload {} seed {:#x} seconds {} trace {} {plan:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let env = |traced| Env {
        seed: args.seed,
        traced,
        scratch,
        scale: &scale,
    };

    let mut tally = Tally::default();
    let mut values = Values::new();
    let mut details = Vec::new();
    if args.traced {
        // The same rounds once without tracing: the headline rate of the
        // workload's own section there is what the traced pass is
        // compared with.
        let plain = pass(&env(false), plan, 1)?;
        let untraced_headline = plain.outcomes[native].headline;
        let traced = pass(&env(true), plan, 1)?;
        let recorded = trace::take_all();
        values = layers::assemble(&traced.outcomes, native, untraced_headline, &recorded);
        if let Some((open_ms, scanned)) = traced.recovery {
            values.insert("recovery.open_ms".into(), open_ms);
            values.insert("recovery.records_scanned".into(), scanned);
        }
        let (calls, each) = if args.smoke {
            (500, Duration::from_millis(100))
        } else {
            (20_000, Duration::from_secs(1))
        };
        let probed = [
            probes::pager(scratch, args.seed, calls),
            probes::buddy(args.seed, calls),
            probes::wal(calls, scale.commit_population as u64),
            probes::realdisk(scratch, args.seed, each),
        ];
        for pairs in probed {
            if let Some(pairs) = tally.attempt("probe", pairs) {
                values.extend(pairs.into_iter().map(|(n, v)| (n.to_string(), v)));
            }
        }
        let path = scratch.trace_path(args.workload.name());
        match trace::write_json(&path, args.workload.name(), &recorded) {
            Ok(()) => println!(
                "  {} of {} spans -> {}",
                recorded.kept.len(),
                recorded.recorded,
                path.display()
            ),
            Err(e) => println!("  warning: could not write {}: {e}", path.display()),
        }
        for p in [plain, traced] {
            tally.absorb(p.tally);
            for o in p.outcomes {
                tally.absorb(o.tally);
            }
        }
    } else {
        let p = pass(&env(false), plan, scale.setup_reps)?;
        values.insert("setup_s".into(), p.setup_s);
        details.push(("setup_s", format!("n={}", scale.setup_reps)));
        values.insert("write_amp".into(), p.outcomes[native].write_amp);
        values.insert("space_amp".into(), p.outcomes[native].space_amp);
        tally.absorb(p.tally);
        for o in p.outcomes {
            for m in o.measured {
                values.insert(m.name.into(), m.value);
                details.push((
                    m.name,
                    format!("n={}, rounds {:.4} to {:.4}", m.samples, m.low, m.high),
                ));
            }
            tally.absorb(o.tally);
        }
    }

    let table: Vec<(String, &'static str)> = if args.traced {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = values.get(&name).copied();
        tally.expect(value.is_some_and(f64::is_finite), || {
            format!("metric {name} was not produced")
        });
        metrics.push((name, value.unwrap_or(0.0), unit));
    }
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
        metrics,
        details,
        notes: tally.notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DEFAULT_SEED;

    /// `--smoke` end to end, both kinds of run: every metric of the
    /// tables is produced and no operation fails at the seed commit.
    #[test]
    fn smoke_runs_produce_every_metric_and_fail_nothing() {
        let _switch = trace::TEST_SWITCH
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let scratch = Scratch::create().expect("scratch directory");
        for (traced, want) in [(false, END_TO_END.len()), (true, per_layer().len())] {
            let args = RunArgs {
                workload: Workload::CommitSmall,
                seed: DEFAULT_SEED,
                seconds: 1,
                traced,
                smoke: true,
            };
            let r = run(args, &scratch).expect("smoke run");
            assert_eq!(r.failed, 0, "{:?}", r.notes);
            assert!(r.correct && r.attempted > 1_000);
            assert_eq!(r.metrics.len(), want);
            let coverage = r.metrics.iter().find(|m| m.0 == "trace.coverage_pct");
            assert!(coverage.is_none_or(|m| m.1 > 90.0), "{coverage:?}");
        }
    }
}
