//! Flight recorder and timeline exporters.
//!
//! Three JSON surfaces, all in the house dialect (hand-rolled, no
//! dependencies, parseable by `eos-check`'s `schema::parse`):
//!
//! * [`pipe_doc_json`] — the raw pipeline-event document
//!   (`{"events":[…],"recorded":N,"capacity":N,"dropped":N}`) that
//!   `eos trace summary`/`export` consume.
//! * [`chrome_trace_json`] — the same events as Chrome `trace_event`
//!   JSON (`{"traceEvents":[…]}`), loadable in Perfetto or
//!   `chrome://tracing` (timestamps in microseconds, `B`/`E`/`i`
//!   phases, thread ordinals as `tid`).
//! * [`Metrics::flight_json`] — the flight-recorder dump: the last N
//!   pipeline events plus the completed-span trace and a full metrics
//!   snapshot, stamped with the reason (`commit_failed`, `recovery`,
//!   `panic`). [`Metrics::flight_dump`] writes it to the path named by
//!   `EOS_FLIGHT_PATH`, and [`install_flight_panic_hook`] arms a panic
//!   hook that dumps the global domain on the way down.

use std::path::PathBuf;

use crate::tracer::PipeEvent;
use crate::{json_string, Metrics};

/// Environment variable naming the flight-recorder output file. When
/// unset, [`Metrics::flight_dump`] is a no-op.
pub const FLIGHT_PATH_ENV: &str = "EOS_FLIGHT_PATH";

fn pipe_event_json(ev: &PipeEvent) -> String {
    format!(
        "{{\"seq\":{},\"ts_ns\":{},\"kind\":{},\"phase\":{},\
         \"trace_id\":{},\"batch_id\":{},\"thread\":{}}}",
        ev.seq,
        ev.ts_ns,
        json_string(ev.kind.label()),
        json_string(ev.phase),
        ev.trace_id,
        ev.batch_id,
        ev.thread
    )
}

/// The raw pipeline-event document for one domain: every retained
/// event (oldest first) plus the ring accounting a reader needs to
/// know whether the window is complete.
pub fn pipe_doc_json(m: &Metrics) -> String {
    let events = m.pipe_events();
    let recorded = m.pipe_recorded();
    let capacity = m.pipe_capacity() as u64;
    let mut out = String::from("{\"events\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&pipe_event_json(ev));
    }
    out.push_str(&format!(
        "],\"recorded\":{recorded},\"capacity\":{capacity},\"dropped\":{}}}",
        recorded.saturating_sub(capacity)
    ));
    out
}

/// Render events as Chrome `trace_event` JSON (the "JSON Array Format"
/// with a `traceEvents` wrapper). Begin/End pairs become `B`/`E` phase
/// events nested per thread; instants and stalls become thread-scoped
/// `i` events. Timestamps convert from ns-since-domain-birth to the
/// microsecond floats the format requires.
pub fn chrome_trace_json(events: &[PipeEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let scope = if ev.kind.chrome_ph() == "i" {
            ",\"s\":\"t\""
        } else {
            ""
        };
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":{},\"ts\":{}.{:03},\"pid\":1,\"tid\":{}{scope},\
             \"args\":{{\"seq\":{},\"kind\":{},\"trace_id\":{},\"batch_id\":{}}}}}",
            json_string(ev.phase),
            json_string(ev.kind.chrome_ph()),
            ev.ts_ns / 1000,
            ev.ts_ns % 1000,
            ev.thread,
            ev.seq,
            json_string(ev.kind.label()),
            ev.trace_id,
            ev.batch_id
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

impl Metrics {
    /// The flight-recorder dump: reason, the retained pipeline events,
    /// the completed-span trace, and a full metrics snapshot — enough
    /// to reconstruct the last moments before a `CommitFailed`,
    /// recovery, or panic.
    pub fn flight_json(&self, reason: &str) -> String {
        let mut out = String::from("{\"flight\":");
        out.push_str(&format!(
            "{{\"reason\":{},\"pipe\":{},\"spans\":[",
            json_string(reason),
            pipe_doc_json(self)
        ));
        for (i, ev) in self.trace().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"op\":{},\"seeks\":{},\"page_reads\":{},\"page_writes\":{},\
                 \"elapsed_us\":{},\"wall_ns_inclusive\":{},\"wall_ns_exclusive\":{}}}",
                ev.seq,
                json_string(ev.op),
                ev.seeks,
                ev.page_reads,
                ev.page_writes,
                ev.elapsed_us,
                ev.wall_ns_inclusive,
                ev.wall_ns_exclusive
            ));
        }
        out.push_str(&format!(
            "],\"metrics\":{}}}}}",
            self.snapshot().to_json_object()
        ));
        out
    }

    /// Write [`Metrics::flight_json`] to the file named by
    /// [`FLIGHT_PATH_ENV`]. Returns the path on success; `None` when
    /// the variable is unset or the write failed (the dump is
    /// best-effort — it must never turn a failing commit into a second
    /// failure).
    pub fn flight_dump(&self, reason: &str) -> Option<PathBuf> {
        let path = PathBuf::from(std::env::var_os(FLIGHT_PATH_ENV)?);
        std::fs::write(&path, self.flight_json(reason)).ok()?;
        Some(path)
    }
}

/// Chain a panic hook that dumps the [`crate::global`] domain's flight
/// recorder (reason `panic`) before the previous hook runs. Installed
/// by the CLI and the bench binaries; harmless to call more than once
/// (each call chains, dumps overwrite the same file).
pub fn install_flight_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = crate::global().flight_dump("panic");
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::PipeKind;

    fn sample() -> Metrics {
        let m = Metrics::new();
        m.pipe_event(PipeKind::Begin, "commit.phase_a", 4, 2);
        m.pipe_event(PipeKind::End, "commit.phase_a", 4, 2);
        m.pipe_event(PipeKind::Instant, "wal.frame", 4, 0);
        m
    }

    #[test]
    fn pipe_doc_carries_every_event_and_the_accounting() {
        let doc = pipe_doc_json(&sample());
        assert!(doc.contains("\"phase\":\"commit.phase_a\""));
        assert!(doc.contains("\"kind\":\"begin\""));
        assert!(doc.contains("\"recorded\":3"));
        assert!(doc.contains("\"dropped\":0"));
    }

    #[test]
    fn chrome_export_has_matched_phases_and_thread_scoped_instants() {
        let m = sample();
        let chrome = chrome_trace_json(&m.pipe_events());
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"i\",") || chrome.contains("\"ph\":\"i\"}"));
        assert!(chrome.contains("\"s\":\"t\""));
        assert!(chrome.contains("\"batch_id\":2"));
    }

    #[test]
    fn flight_json_wraps_reason_events_and_metrics() {
        let dump = sample().flight_json("commit_failed");
        assert!(dump.starts_with("{\"flight\":{\"reason\":\"commit_failed\""));
        assert!(dump.contains("\"pipe\":{\"events\":["));
        assert!(dump.contains("\"metrics\":{\"ops\":["));
        assert!(dump.ends_with("}}"));
    }

    #[test]
    fn flight_dump_without_env_is_a_noop() {
        // The test runner may not have EOS_FLIGHT_PATH set; if it does,
        // skip rather than clobber whatever CI pointed it at.
        if std::env::var_os(FLIGHT_PATH_ENV).is_none() {
            assert!(sample().flight_dump("recovery").is_none());
        }
    }
}
