//! What the four workload sections share: their environment, the
//! per-round bookkeeping, what each hands back, and the end-of-section
//! consistency check.
//!
//! A run does not measure one section after the other. It goes round
//! [`crate::plan::ROUNDS`] times, and in each round every section does a
//! share of its operations. Each timing metric is computed per round and
//! reported as the **median over rounds**: the development box slows down
//! for seconds at a time, which one long phase per section soaks up
//! whole, while rounds spread every section over the whole run.

use eos_check::Severity;
use eos_core::obs::MetricsSnapshot;
use eos_core::{ConcurrentStore, LargeObject};
use eos_pager::IoStats;

use crate::plan::Scale;
use crate::substrate::{Built, Scratch, PAGE};
use crate::trace;
use crate::util::{median, ratio, Tally};
use crate::volumes::PagerTotals;

/// Everything a section needs from the run.
pub struct Env<'a> {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// Whether volumes are wrapped in `TimedVolume` and rounds record
    /// spans.
    pub traced: bool,
    /// Where volume files go.
    pub scratch: &'a Scratch,
    /// Population sizes (full or smoke).
    pub scale: &'a Scale,
}

/// One end-to-end metric a section measured.
pub struct Measured {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The median over rounds.
    pub value: f64,
    /// Latency samples (or ingest passes) under it, all rounds together.
    pub samples: usize,
    /// The lowest per-round value: with `high`, how far the rounds of
    /// this one run disagreed.
    pub low: f64,
    /// The highest per-round value.
    pub high: f64,
}

/// Per-round values of a section's timing metrics.
#[derive(Default)]
pub struct Series {
    rows: Vec<(&'static str, Vec<f64>, usize)>,
}

impl Series {
    /// Record `name`'s value for one round, computed from `samples`
    /// samples.
    pub fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        match self.rows.iter_mut().find(|(n, ..)| *n == name) {
            Some((_, values, total)) => {
                values.push(value);
                *total += samples;
            }
            None => self.rows.push((name, vec![value], samples)),
        }
    }

    /// Median over rounds of every metric, in first-push order.
    fn measured(&self) -> Vec<Measured> {
        self.rows
            .iter()
            .map(|(name, values, samples)| Measured {
                name,
                value: median(values),
                samples: *samples,
                low: values.iter().copied().fold(f64::INFINITY, f64::min),
                high: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            })
            .collect()
    }
}

/// Counter readings at the start of a section's measured rounds.
struct Probe {
    obs: MetricsSnapshot,
    io: IoStats,
    pager: PagerTotals,
}

impl Probe {
    fn read(built: &Built) -> Probe {
        Probe {
            obs: built
                .store
                .with_store(eos_core::ObjectStore::metrics_snapshot),
            io: built.volume.stats(),
            pager: built.timed.as_ref().map(|t| t.totals()).unwrap_or_default(),
        }
    }
}

/// Layer-side readings of a section's measured rounds: differences of
/// the store's own metrics domain, its volume's counters and the
/// `TimedVolume`, plus the allocator's end state.
pub struct LayerReadings {
    /// The store's metrics before the first round.
    pub before: MetricsSnapshot,
    /// The store's metrics after the last round.
    pub after: MetricsSnapshot,
    /// `Volume::stats()` delta over the rounds.
    pub io: IoStats,
    /// `TimedVolume` delta over the rounds (zeros when untraced).
    pub pager: PagerTotals,
    /// Free pages after the last round.
    pub free_pages_end: u64,
    /// Largest free power-of-two run after the last round.
    pub largest_free_pages_end: u64,
    /// Section-specific layer metrics, already by their final name.
    pub extras: Vec<(&'static str, f64)>,
}

/// What a section accumulates over its rounds.
#[derive(Default)]
pub struct Progress {
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// Per-round values of the timing metrics.
    pub series: Series,
    /// User bytes the rounds wrote (payloads handed to create, append,
    /// insert and replace).
    pub user_bytes: u64,
    /// Σ end-to-end operation latency of the rounds, the denominator of
    /// `trace.coverage_pct`.
    pub busy_ns: u64,
    /// Pages the store held at its fullest sampled point.
    held_pages: u64,
    /// Pages the live user bytes needed at that point.
    needed_pages: u64,
    probe: Option<Probe>,
}

impl Progress {
    /// Start a measured round: read the counters before the first one,
    /// and record spans if the store is a traced one. Warm-up and
    /// verification run outside rounds and stay out of both.
    pub fn begin_round(&mut self, built: &Built) {
        if self.probe.is_none() {
            self.probe = Some(Probe::read(built));
        }
        trace::enable(built.timed.is_some());
    }

    /// End a measured round.
    pub fn end_round(&mut self) {
        trace::enable(false);
    }

    /// Sample the store's fullness; the fullest sample is kept.
    pub fn note_fullness(&mut self, store: &ConcurrentStore, needed_pages: u64) {
        let held =
            store.with_store(|s| s.buddy().total_data_pages() - s.buddy().total_free_pages());
        if held > self.held_pages {
            (self.held_pages, self.needed_pages) = (held, needed_pages);
        }
    }

    /// Close the section: read the counters again, run `eos-check` over
    /// `live`, and hand everything back. `headline` names the metric that
    /// `trace.overhead_pct` compares between passes.
    pub fn finish(
        mut self,
        built: &Built,
        live: Vec<LargeObject>,
        headline: &str,
        extras: Vec<(&'static str, f64)>,
    ) -> Outcome {
        let before = self.probe.take().unwrap_or_else(|| Probe::read(built));
        let now = Probe::read(built);
        let free = built.store.with_store(|s| s.buddy().fragmentation());
        fsck(&built.store, live, &mut self.tally);
        let measured = self.series.measured();
        Outcome {
            headline: measured
                .iter()
                .find(|m| m.name == headline)
                .map_or(0.0, |m| m.value),
            measured,
            write_amp: ratio(
                ((now.io - before.io).page_writes * PAGE as u64) as f64,
                self.user_bytes as f64,
            ),
            space_amp: ratio(self.held_pages as f64, self.needed_pages as f64),
            busy_ns: self.busy_ns,
            tally: self.tally,
            layers: LayerReadings {
                before: before.obs,
                after: now.obs,
                io: now.io - before.io,
                pager: now.pager - before.pager,
                free_pages_end: free.free_pages,
                largest_free_pages_end: free.largest_free_run,
                extras,
            },
        }
    }
}

/// What one section hands back.
pub struct Outcome {
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// The section's own end-to-end metrics.
    pub measured: Vec<Measured>,
    /// The section's headline rate, for `trace.overhead_pct`.
    pub headline: f64,
    /// Bytes written to the volume per user byte written.
    pub write_amp: f64,
    /// Pages held per page the live user bytes need, at the fullest
    /// sampled point.
    pub space_amp: f64,
    /// Σ end-to-end operation latency of the rounds.
    pub busy_ns: u64,
    /// Layer-side readings of the rounds.
    pub layers: LayerReadings,
}

/// Pages `bytes` of user data need.
pub fn pages_of(bytes: u64) -> u64 {
    eos_pager::pages_for(bytes, PAGE)
}

/// Run `eos-check` over the store; every finding worse than `info` is a
/// failed operation.
fn fsck(store: &ConcurrentStore, live: Vec<LargeObject>, tally: &mut Tally) {
    let named: Vec<(String, LargeObject)> = live
        .into_iter()
        .map(|o| (format!("#{}", o.id()), o))
        .collect();
    let report = store.with_store(|s| eos_check::check_store(s, &named, None));
    tally.attempted += 1;
    for f in report
        .findings
        .iter()
        .filter(|f| f.severity > Severity::Info)
    {
        tally.fail(|| format!("eos-check: {f}"));
    }
}
