//! Point-in-time snapshots and their three renderings: human table,
//! JSON (the `metrics` payload of the shared report envelope), and
//! Prometheus text exposition.

use crate::registry::{HistogramInner, HISTOGRAM_BUCKETS};
use crate::trace::TraceEvent;
use crate::OpAgg;
use std::sync::atomic::Ordering;

/// One operation row of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Stable operation label (`create`, `wal.commit`, …).
    pub op: &'static str,
    /// Completed spans.
    pub count: u64,
    /// Seeks attributed exclusively to this operation.
    pub seeks: u64,
    /// Pages read, exclusive.
    pub page_reads: u64,
    /// Pages written, exclusive.
    pub page_writes: u64,
    /// Simulated microseconds, exclusive.
    pub elapsed_us: u64,
    /// Injected faults observed, exclusive.
    pub faults: u64,
    /// Wall-clock nanoseconds **inclusive** of child spans — unlike
    /// the I/O fields above, which are exclusive. Summing this column
    /// double-counts nested spans; see
    /// [`OpSnapshot::wall_ns_exclusive`].
    pub wall_ns_inclusive: u64,
    /// Wall-clock nanoseconds **exclusive** of child spans — the same
    /// convention as the I/O fields, safe to sum across rows.
    pub wall_ns_exclusive: u64,
}

impl OpSnapshot {
    pub(crate) fn load(op: &'static str, agg: &OpAgg) -> OpSnapshot {
        OpSnapshot {
            op,
            count: agg.count.load(Ordering::Relaxed),
            seeks: agg.seeks.load(Ordering::Relaxed),
            page_reads: agg.page_reads.load(Ordering::Relaxed),
            page_writes: agg.page_writes.load(Ordering::Relaxed),
            elapsed_us: agg.elapsed_us.load(Ordering::Relaxed),
            faults: agg.faults.load(Ordering::Relaxed),
            wall_ns_inclusive: agg.wall_ns_inclusive.load(Ordering::Relaxed),
            wall_ns_exclusive: agg.wall_ns_exclusive.load(Ordering::Relaxed),
        }
    }

    /// Pages transferred in either direction.
    pub fn transfers(&self) -> u64 {
        self.page_reads + self.page_writes
    }
}

/// One histogram of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty buckets as `(log2 exponent, count)`, ascending; a
    /// value `v` lands in the bucket with exponent `floor(log2(v))`
    /// (zero in exponent 0).
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    pub(crate) fn load(name: &str, inner: &HistogramInner) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in inner.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot {
            name: name.to_string(),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets:
    /// the upper bound of the bucket the rank-`ceil(q·count)`
    /// observation falls in (so the answer over-estimates by at most
    /// 2× — the bucket resolution). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(k, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return if k >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (k + 1)) - 1
                };
            }
        }
        u64::MAX
    }
}

/// A point-in-time copy of every aggregate in one [`crate::Metrics`]
/// domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All ten operation rows, in [`crate::OpKind::ALL`] order
    /// (including zero rows, so the schema is stable).
    pub ops: Vec<OpSnapshot>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Named histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Trace events recorded since creation (may exceed capacity).
    pub trace_recorded: u64,
    /// Trace ring capacity.
    pub trace_capacity: u64,
    /// Pipeline events (eos-trace, §16) recorded since creation.
    pub pipe_recorded: u64,
    /// Pipeline-event ring capacity.
    pub pipe_capacity: u64,
}

impl MetricsSnapshot {
    /// The row for `label`, if it is a known operation.
    pub fn op(&self, label: &str) -> Option<&OpSnapshot> {
        self.ops.iter().find(|o| o.op == label)
    }

    /// Value of a named counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a named gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A named histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Sum of counters whose name starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|&(_, v)| v)
            .sum()
    }

    /// Total page transfers attributed across all operations. On a
    /// single-threaded workload where every I/O happens under a span,
    /// this equals the volume-global `IoStats` transfer delta.
    pub fn attributed_transfers(&self) -> u64 {
        self.ops.iter().map(OpSnapshot::transfers).sum()
    }

    /// Total seeks attributed across all operations.
    pub fn attributed_seeks(&self) -> u64 {
        self.ops.iter().map(|o| o.seeks).sum()
    }

    /// Total simulated microseconds attributed across all operations.
    pub fn attributed_elapsed_us(&self) -> u64 {
        self.ops.iter().map(|o| o.elapsed_us).sum()
    }

    /// Human-readable table (the body of `eos stats`).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>7} {:>8} {:>8} {:>8} {:>10} {:>7} {:>10} {:>10}\n",
            "OPERATION",
            "COUNT",
            "SEEKS",
            "READS",
            "WRITES",
            "SIM-MS",
            "FAULTS",
            "WALL-MS",
            "XWALL-MS"
        ));
        let mut any = false;
        for o in &self.ops {
            if o.count == 0 && o.transfers() == 0 {
                continue;
            }
            any = true;
            out.push_str(&format!(
                "{:<16} {:>7} {:>8} {:>8} {:>8} {:>10.3} {:>7} {:>10.3} {:>10.3}\n",
                o.op,
                o.count,
                o.seeks,
                o.page_reads,
                o.page_writes,
                o.elapsed_us as f64 / 1000.0,
                o.faults,
                o.wall_ns_inclusive as f64 / 1.0e6,
                o.wall_ns_exclusive as f64 / 1.0e6,
            ));
        }
        if !any {
            out.push_str("(no operations recorded)\n");
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push('\n');
            out.push_str(&format!("{:<44} {:>12}\n", "COUNTER/GAUGE", "VALUE"));
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<44} {value:>12}\n"));
            }
            for (name, value) in &self.gauges {
                out.push_str(&format!("{:<44} {value:>12}\n", format!("{name} (gauge)")));
            }
        }
        if !self.histograms.is_empty() {
            out.push('\n');
            out.push_str(&format!(
                "{:<32} {:>8} {:>12}  {}\n",
                "HISTOGRAM", "COUNT", "SUM", "DISTRIBUTION (2^k: n)"
            ));
            for h in &self.histograms {
                let dist = h
                    .buckets
                    .iter()
                    .map(|&(k, n)| format!("2^{k}:{n}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!(
                    "{:<32} {:>8} {:>12}  {dist}\n",
                    h.name, h.count, h.sum
                ));
            }
        }
        out.push('\n');
        out.push_str(&format!(
            "trace: {} event(s) recorded (ring capacity {})\n",
            self.trace_recorded, self.trace_capacity
        ));
        out.push_str(&format!(
            "pipeline: {} event(s) recorded (ring capacity {})\n",
            self.pipe_recorded, self.pipe_capacity
        ));
        out
    }

    /// JSON object carrying the whole snapshot — the `"metrics"` member
    /// of the shared `eos check` / `eos stats` report envelope.
    pub fn to_json_object(&self) -> String {
        let mut out = String::from("{\"ops\":[");
        for (i, o) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"op\":{},\"count\":{},\"seeks\":{},\"page_reads\":{},\
                 \"page_writes\":{},\"elapsed_us\":{},\"faults\":{},\
                 \"wall_ns_inclusive\":{},\"wall_ns_exclusive\":{}}}",
                json_string(o.op),
                o.count,
                o.seeks,
                o.page_reads,
                o.page_writes,
                o.elapsed_us,
                o.faults,
                o.wall_ns_inclusive,
                o.wall_ns_exclusive
            ));
        }
        out.push_str("],\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{value}", json_string(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{value}", json_string(name)));
        }
        out.push_str("},\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets = h
                .buckets
                .iter()
                .map(|&(k, n)| format!("[{k},{n}]"))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{{\"name\":{},\"count\":{},\"sum\":{},\"buckets\":[{buckets}]}}",
                json_string(&h.name),
                h.count,
                h.sum
            ));
        }
        out.push_str(&format!(
            "],\"trace\":{{\"recorded\":{},\"capacity\":{},\
             \"pipe_recorded\":{},\"pipe_capacity\":{}}}}}",
            self.trace_recorded, self.trace_capacity, self.pipe_recorded, self.pipe_capacity
        ));
        out
    }

    /// Prometheus text exposition format (`eos stats --prom`).
    ///
    /// Every registry name is mapped to a legal metric name
    /// (`[a-zA-Z_:][a-zA-Z0-9_:]*`) by one rule — non-alphanumerics
    /// become `_` under an `eos_` prefix — and dynamic per-instance
    /// tails (`….space.<i>`, `….stripe.<i>`) are lifted into a
    /// `space`/`stripe` **label** on the base family instead of
    /// minting one family per index, so a 16-space store exports one
    /// `eos_buddy_latch_wait_us` family, not seventeen. Each family
    /// gets exactly one `# TYPE` line.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (metric, get) in OP_FIELDS {
            out.push_str(&format!("# TYPE eos_op_{metric} counter\n"));
            for o in &self.ops {
                out.push_str(&format!("eos_op_{metric}{{op=\"{}\"}} {}\n", o.op, get(o)));
            }
        }
        for (name, value) in &self.counters {
            let (fam, label) = prom_family(name);
            if typed.insert(fam.clone()) {
                out.push_str(&format!("# TYPE eos_{fam} counter\n"));
            }
            match label {
                Some((key, idx)) => {
                    out.push_str(&format!("eos_{fam}{{{key}=\"{idx}\"}} {value}\n"));
                }
                None => out.push_str(&format!("eos_{fam} {value}\n")),
            }
        }
        for (name, value) in &self.gauges {
            let (fam, label) = prom_family(name);
            if typed.insert(fam.clone()) {
                out.push_str(&format!("# TYPE eos_{fam} gauge\n"));
            }
            match label {
                Some((key, idx)) => {
                    out.push_str(&format!("eos_{fam}{{{key}=\"{idx}\"}} {value}\n"));
                }
                None => out.push_str(&format!("eos_{fam} {value}\n")),
            }
        }
        for h in &self.histograms {
            let (fam, label) = prom_family(&h.name);
            if typed.insert(fam.clone()) {
                out.push_str(&format!("# TYPE eos_{fam} histogram\n"));
            }
            // A lifted label is prepended to every sample's label set
            // (`{space="3",le="8"}`); the plain family has none.
            let (sep, tag) = match label {
                Some((key, idx)) => (",".to_string(), format!("{key}=\"{idx}\"")),
                None => (String::new(), String::new()),
            };
            let mut cumulative = 0u64;
            for &(k, n) in &h.buckets {
                cumulative += n;
                let le = 1u128 << u32::min(k + 1, HISTOGRAM_BUCKETS as u32);
                out.push_str(&format!(
                    "eos_{fam}_bucket{{{tag}{sep}le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "eos_{fam}_bucket{{{tag}{sep}le=\"+Inf\"}} {}\n",
                h.count
            ));
            let braces = if tag.is_empty() {
                String::new()
            } else {
                format!("{{{tag}}}")
            };
            out.push_str(&format!("eos_{fam}_sum{braces} {}\n", h.sum));
            out.push_str(&format!("eos_{fam}_count{braces} {}\n", h.count));
        }
        out.push_str(&format!(
            "# TYPE eos_trace_recorded counter\neos_trace_recorded {}\n",
            self.trace_recorded
        ));
        out.push_str(&format!(
            "# TYPE eos_pipe_recorded counter\neos_pipe_recorded {}\n",
            self.pipe_recorded
        ));
        out
    }
}

/// Map one registry name to its Prometheus family plus an optional
/// lifted `(label, index)` pair: `buddy.latch.wait_us.space.3` →
/// (`buddy_latch_wait_us`, `Some(("space", "3"))`); anything without a
/// recognised dynamic tail maps to its sanitized self.
fn prom_family(name: &str) -> (String, Option<(&'static str, String)>) {
    for key in ["space", "stripe"] {
        if let Some((head, idx)) = name.rsplit_once('.') {
            if !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) {
                if let Some((base, tail)) = head.rsplit_once('.') {
                    if tail == key {
                        return (sanitize(base), Some((key, idx.to_string())));
                    }
                }
            }
        }
    }
    (sanitize(name), None)
}

/// One per-op numeric column: Prometheus metric suffix and accessor.
type OpField = (&'static str, fn(&OpSnapshot) -> u64);

/// The per-op numeric columns, for the Prometheus rendering.
const OP_FIELDS: [OpField; 8] = [
    ("count", |o| o.count),
    ("seeks", |o| o.seeks),
    ("page_reads", |o| o.page_reads),
    ("page_writes", |o| o.page_writes),
    ("sim_us", |o| o.elapsed_us),
    ("faults", |o| o.faults),
    ("wall_ns_inclusive", |o| o.wall_ns_inclusive),
    ("wall_ns_exclusive", |o| o.wall_ns_exclusive),
];

/// Human-readable dump of retained trace events (`eos stats --trace`),
/// with the ring accounting the window needs to be read honestly:
/// `recorded - capacity` events were dropped by overwrite, and any
/// sequence gap *inside* the retained window means a torn view (a slot
/// was overwritten between the reader's two passes).
pub fn render_trace(events: &[TraceEvent], recorded: u64, capacity: u64) -> String {
    let mut out = String::new();
    if events.is_empty() {
        out.push_str("(no trace events retained)\n");
    } else {
        out.push_str(&format!(
            "{:>8} {:<16} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10}\n",
            "SEQ", "OPERATION", "SEEKS", "READS", "WRITES", "SIM-MS", "WALL-MS", "XWALL-MS"
        ));
        for ev in events {
            out.push_str(&format!(
                "{:>8} {:<16} {:>8} {:>8} {:>8} {:>10.3} {:>10.3} {:>10.3}\n",
                ev.seq,
                ev.op,
                ev.seeks,
                ev.page_reads,
                ev.page_writes,
                ev.elapsed_us as f64 / 1000.0,
                ev.wall_ns_inclusive as f64 / 1.0e6,
                ev.wall_ns_exclusive as f64 / 1.0e6,
            ));
        }
    }
    let dropped = recorded.saturating_sub(capacity);
    out.push_str(&format!(
        "dropped: {dropped} event(s) overwritten ({recorded} recorded, ring capacity {capacity})\n"
    ));
    let mut gaps = 0u64;
    let mut largest = 0u64;
    for pair in events.windows(2) {
        let gap = pair[1].seq.saturating_sub(pair[0].seq + 1);
        if gap > 0 {
            gaps += 1;
            largest = largest.max(gap);
        }
    }
    if gaps > 0 {
        out.push_str(&format!(
            "sequence gaps: {gaps} inside the retained window (largest {largest}) — \
             events were overwritten while this dump was read\n"
        ));
    } else {
        out.push_str("sequence gaps: none — the retained window is contiguous\n");
    }
    out
}

/// Metric-name sanitizer for the Prometheus rendering: anything outside
/// `[A-Za-z0-9_]` becomes `_` (so `buddy.alloc.pages` →
/// `buddy_alloc_pages`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The workspace's one JSON string encoder (there is no serde): `s`
/// quoted, with `"`, `\` and control characters escaped. Shared by
/// the snapshots and dumps here, eos-check's reports and the CLI.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use crate::{Metrics, OpKind};
    use eos_pager::{MemVolume, SharedVolume};

    fn populated() -> Metrics {
        let m = Metrics::new();
        let v: SharedVolume = MemVolume::new(128, 64).shared();
        {
            let _s = m.span(OpKind::Create, &v);
            v.write_pages(0, &[1u8; 256]).unwrap();
        }
        m.counter("reshuffle.triggers.t8").add(3);
        m.gauge("cache.size").set(12);
        m.histogram("buddy.alloc.pages").record(4);
        m
    }

    #[test]
    fn table_lists_active_ops_and_registry() {
        let text = populated().snapshot().render_table();
        assert!(text.contains("create"));
        assert!(
            !text.contains("wal.commit"),
            "zero rows are hidden:\n{text}"
        );
        assert!(text.contains("reshuffle.triggers.t8"));
        assert!(text.contains("cache.size (gauge)"));
        assert!(text.contains("2^2:1"));
        assert!(text.contains("trace: 1 event(s)"));
        assert!(text.contains("pipeline: 0 event(s)"));
        assert!(text.contains("XWALL-MS"));
    }

    #[test]
    fn empty_table_says_so() {
        let text = Metrics::new().snapshot().render_table();
        assert!(text.contains("(no operations recorded)"));
    }

    #[test]
    fn json_object_is_well_formed() {
        let json = populated().snapshot().to_json_object();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"op\":\"create\""));
        assert!(json.contains("\"counters\":{\"reshuffle.triggers.t8\":3}"));
        assert!(json.contains("\"buckets\":[[2,1]]"));
        assert!(json.contains("\"trace\":{\"recorded\":1"));
        assert!(json.contains("\"wall_ns_inclusive\""));
        assert!(json.contains("\"wall_ns_exclusive\""));
        assert!(json.contains("\"pipe_recorded\":0"));
    }

    #[test]
    fn prometheus_rendering_sanitizes_names() {
        let prom = populated().snapshot().render_prometheus();
        assert!(prom.contains("eos_op_page_writes{op=\"create\"} 2"));
        assert!(prom.contains("eos_reshuffle_triggers_t8 3"));
        assert!(prom.contains("# TYPE eos_cache_size gauge"));
        assert!(prom.contains("eos_buddy_alloc_pages_bucket{le=\"8\"} 1"));
        assert!(prom.contains("eos_buddy_alloc_pages_count 1"));
    }

    /// Is `name` a legal Prometheus metric name
    /// (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
    fn prom_legal(name: &str) -> bool {
        let ok = |c: char, first: bool| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
        };
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if ok(c, true) => chars.all(|c| ok(c, false)),
            _ => false,
        }
    }

    /// Round-trip: every metric name the exposition emits — dotted
    /// registry names, dynamic per-space / per-stripe series, the op
    /// table — must parse back as a legal Prometheus name, each family
    /// must carry exactly one `# TYPE` line, and the dynamic tails
    /// must come back as `space="i"` / `stripe="i"` labels on the base
    /// family rather than one family per index.
    #[test]
    fn prometheus_round_trip_is_legal_and_label_lifted() {
        let m = populated();
        // The dynamic shapes the sharded paths register (§17).
        m.histogram("buddy.latch.wait_us").record(7);
        for i in 0..3 {
            m.histogram(&format!("buddy.latch.wait_us.space.{i}"))
                .record(i);
            m.counter(&format!("wal.force.stripe.{i}")).inc();
        }
        m.gauge("mvcc.deferred_pages").set(5);
        // Not a dynamic tail (index is not numeric): stays a family.
        m.counter("odd.space.name").inc();
        let prom = m.snapshot().render_prometheus();

        let mut families = std::collections::HashSet::new();
        for line in prom.lines().filter(|l| !l.is_empty()) {
            let name = if let Some(rest) = line.strip_prefix("# TYPE ") {
                let fam = rest.split_whitespace().next().unwrap();
                assert!(
                    families.insert(fam.to_string()),
                    "duplicate # TYPE for {fam}:\n{prom}"
                );
                fam
            } else {
                line.split(['{', ' ']).next().unwrap()
            };
            assert!(prom_legal(name), "illegal metric name {name:?} in:\n{line}");
        }
        // One family, indexed by label — not three families.
        assert!(prom.contains("eos_buddy_latch_wait_us_bucket{space=\"2\",le=\"4\"} 1"));
        assert!(prom.contains("eos_buddy_latch_wait_us_count{space=\"1\"} 1"));
        assert!(prom.contains("eos_wal_force{stripe=\"0\"} 1"));
        assert!(!prom.contains("eos_buddy_latch_wait_us_space_2"));
        assert!(!prom.contains("eos_wal_force_stripe_0 "));
        // The aggregate (unlabelled) series coexists in the family.
        assert!(prom.contains("eos_buddy_latch_wait_us_count 1"));
        assert!(prom.contains("eos_odd_space_name 1"));
    }

    #[test]
    fn trace_rendering_includes_each_event_and_the_accounting() {
        let m = populated();
        let snap = m.snapshot();
        let text = super::render_trace(&m.trace(), snap.trace_recorded, snap.trace_capacity);
        assert!(text.contains("create"));
        assert!(text.contains("dropped: 0 event(s)"));
        assert!(text.contains("sequence gaps: none"));
        assert!(super::render_trace(&[], 0, 8).contains("no trace events"));
    }

    #[test]
    fn trace_rendering_reports_drops_and_gaps() {
        let m = Metrics::with_capacities(2, 4);
        let v: SharedVolume = MemVolume::new(128, 64).shared();
        for _ in 0..5 {
            let _s = m.span(OpKind::Read, &v);
        }
        let snap = m.snapshot();
        let text = super::render_trace(&m.trace(), snap.trace_recorded, snap.trace_capacity);
        assert!(text.contains("dropped: 3 event(s) overwritten (5 recorded, ring capacity 2)"));
        // A synthetic torn window: seqs 3 and 7 with 4, 5, 6 missing.
        let mut torn = m.trace();
        torn[0].seq = 3;
        torn[1].seq = 7;
        let text = super::render_trace(&torn, 8, 2);
        assert!(text.contains("sequence gaps: 1 inside the retained window (largest 3)"));
    }

    #[test]
    fn quantile_reads_the_log2_buckets() {
        let m = Metrics::new();
        let h = m.histogram("q");
        for _ in 0..99 {
            h.record(3); // bucket 2^1, upper bound 3
        }
        h.record(1000); // bucket 2^9, upper bound 1023
        let snap = m.snapshot();
        let q = snap.histogram("q").unwrap();
        assert_eq!(q.quantile(0.5), 3);
        assert_eq!(q.quantile(0.99), 3);
        assert_eq!(q.quantile(1.0), 1023);
        assert_eq!(
            crate::HistogramSnapshot {
                name: "empty".into(),
                count: 0,
                sum: 0,
                buckets: vec![]
            }
            .quantile(0.5),
            0
        );
    }
}
