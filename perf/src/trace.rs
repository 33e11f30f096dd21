//! In-memory span recorder for the traced run.
//!
//! Every call the bench makes into `Txn`/`Snapshot`/`ConcurrentStore`
//! is wrapped in a span: name, start, end, parent, txn id, plus the
//! pager time, seeks and page transfers [`crate::volumes::TimedVolume`]
//! saw on this thread while the span was the innermost open one. A
//! layer's self time is its span minus that pager time.
//!
//! A run closes a few million spans. Each is folded into a per-name sum
//! as it closes — that is all the per-layer metrics need — and the first
//! [`KEPT_PER_THREAD`] of a thread are also kept whole, for the trace
//! file. Nothing is locked on the hot path: sums and kept spans live in
//! the thread and move to a global sink when a worker calls
//! [`flush_thread`]. With tracing off a span costs one relaxed load.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// `parent` of a top-level span.
const NO_PARENT: u32 = u32::MAX;

/// What a span is around. A closed set, so a closing span finds its sum
/// by index: a span closes cold — 30 µs of store work has run since the
/// last one — and every cache line it touches costs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// A whole transaction, `begin` to commit acknowledgement.
    Txn,
    /// A whole snapshot operation, open to close.
    Snapshot,
    /// `ConcurrentStore::begin`.
    Begin,
    /// `Txn::commit`.
    Commit,
    /// `Txn::create`.
    Create,
    /// `Txn::append`.
    Append,
    /// `Txn::insert`.
    Insert,
    /// `Txn::delete`.
    Delete,
    /// `Txn::replace`.
    Replace,
    /// `Txn::read` and `Txn::read_all`.
    Read,
    /// `Txn::truncate`.
    Truncate,
    /// `Txn::delete_object`.
    DeleteObject,
    /// `ConcurrentStore::snapshot`.
    SnapshotOpen,
    /// `Snapshot::read`.
    SnapshotRead,
    /// Dropping a `Snapshot`.
    SnapshotClose,
}

impl Name {
    /// How many names there are.
    pub const COUNT: usize = 15;

    /// The layer-qualified name, as written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Txn => "txn",
            Name::Snapshot => "snapshot",
            Name::Begin => "core.txn.begin",
            Name::Commit => "core.commit",
            Name::Create => "core.op.create",
            Name::Append => "core.op.append",
            Name::Insert => "core.op.insert",
            Name::Delete => "core.op.delete",
            Name::Replace => "core.op.replace",
            Name::Read => "core.op.read",
            Name::Truncate => "core.op.truncate",
            Name::DeleteObject => "core.op.delete_object",
            Name::SnapshotOpen => "core.snapshot.open",
            Name::SnapshotRead => "core.snapshot.read",
            Name::SnapshotClose => "core.snapshot.close",
        }
    }

    /// Whether every duration is kept, for a percentile.
    fn keeps_each(self) -> bool {
        matches!(self, Name::Commit | Name::SnapshotRead)
    }
}

/// Whole spans a thread keeps for the trace file between two flushes.
/// Storing every span costs more than recording it: at 80 bytes each a
/// run streamed 140 MB through the caches the workload was using, and
/// tracing slowed the edit section by a fifth.
const KEPT_PER_THREAD: usize = 50_000;

/// Whole spans kept by all threads together: what the trace file holds.
const KEPT_IN_ALL: usize = 250_000;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span is around.
    pub name: Name,
    /// Nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process's trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span among the kept ones, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// The transaction the call belongs to; 0 when it has none.
    pub txn: u64,
    /// Ordinal of the recording thread.
    pub thread: u32,
    /// Volume time inside this span, children excluded.
    pub pager_ns: u64,
    /// Simulated seeks inside this span, children excluded.
    pub seeks: u64,
    /// Pages moved inside this span, children excluded.
    pub transfers: u64,
}

/// Everything recorded under one span name.
#[derive(Debug, Clone, Default)]
pub struct Sum {
    /// Σ wall nanoseconds.
    pub ns: u64,
    /// Spans closed.
    pub calls: u64,
    /// Σ volume time inside, children excluded.
    pub pager_ns: u64,
    /// Σ simulated seeks inside, children excluded.
    pub seeks: u64,
    /// Σ pages moved inside, children excluded.
    pub transfers: u64,
    /// Every duration, for `Name::Commit` and `Name::SnapshotRead` only.
    pub each_ns: Vec<u64>,
}

/// What a traced run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Per-name sums over every span closed, indexed by `Name as usize`.
    sums: [Sum; Name::COUNT],
    /// Σ wall nanoseconds of the spans that had a parent: the calls into
    /// the store made inside a whole operation.
    pub child_ns: u64,
    /// Spans closed.
    pub recorded: u64,
    /// The spans kept whole.
    pub kept: Vec<Span>,
}

impl Trace {
    /// Everything recorded under `name`.
    pub fn sum(&self, name: Name) -> &Sum {
        &self.sums[name as usize]
    }

    fn absorb(&mut self, mut other: Trace) {
        for (sum, s) in self.sums.iter_mut().zip(other.sums) {
            sum.ns += s.ns;
            sum.calls += s.calls;
            sum.pager_ns += s.pager_ns;
            sum.seeks += s.seeks;
            sum.transfers += s.transfers;
            sum.each_ns.extend(s.each_ns);
        }
        self.child_ns += other.child_ns;
        self.recorded += other.recorded;
        // A parent opens before its children, so cutting the tail leaves
        // no child without its parent. Parents index the thread's own
        // kept spans: rebase them.
        other
            .kept
            .truncate(KEPT_IN_ALL.saturating_sub(self.kept.len()));
        let base = self.kept.len() as u32;
        for s in &mut other.kept {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
        }
        self.kept.append(&mut other.kept);
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Option<Trace>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An open span: what a [`Span`] needs, gathered while it is open.
struct Open {
    name: Name,
    start_ns: u64,
    txn: u64,
    /// Index among the kept spans, if this one is kept.
    kept: Option<u32>,
    pager_ns: u64,
    seeks: u64,
    transfers: u64,
}

struct Local {
    thread: u32,
    /// The open spans, innermost last.
    open: Vec<Open>,
    trace: Trace,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        open: Vec::new(),
        trace: Trace::default(),
    });
}

/// Turn span recording on or off (a statistic switch: `Relaxed`).
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped. Guards must drop innermost first, which
/// scopes do on their own.
pub struct SpanGuard {
    recording: bool,
}

/// Open a span on this thread, nested in the innermost open one.
pub fn span(name: Name, txn: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { recording: false };
    }
    let start_ns = now_ns();
    LOCAL.with_borrow_mut(|l| {
        let kept = (l.trace.kept.len() < KEPT_PER_THREAD).then(|| {
            let parent = l.open.last().and_then(|o| o.kept).unwrap_or(NO_PARENT);
            l.trace.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                txn,
                thread: l.thread,
                pager_ns: 0,
                seeks: 0,
                transfers: 0,
            });
            l.trace.kept.len() as u32 - 1
        });
        l.open.push(Open {
            name,
            start_ns,
            txn,
            kept,
            pager_ns: 0,
            seeks: 0,
            transfers: 0,
        });
    });
    SpanGuard { recording: true }
}

impl SpanGuard {
    /// Stamp the transaction id once it is known (a transaction's
    /// enclosing span opens before `begin` hands the id out).
    pub fn set_txn(&self, txn: u64) {
        if self.recording {
            LOCAL.with_borrow_mut(|l| {
                if let Some(o) = l.open.last_mut() {
                    o.txn = txn;
                }
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.recording {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with_borrow_mut(|l| {
            let Some(o) = l.open.pop() else { return };
            let ns = end_ns - o.start_ns;
            let t = &mut l.trace;
            let sum = &mut t.sums[o.name as usize];
            sum.ns += ns;
            sum.calls += 1;
            sum.pager_ns += o.pager_ns;
            sum.seeks += o.seeks;
            sum.transfers += o.transfers;
            if o.name.keeps_each() {
                sum.each_ns.push(ns);
            }
            t.recorded += 1;
            if !l.open.is_empty() {
                t.child_ns += ns;
            }
            if let Some(s) = o.kept.and_then(|i| t.kept.get_mut(i as usize)) {
                s.end_ns = end_ns;
                s.txn = o.txn;
                s.pager_ns = o.pager_ns;
                s.seeks = o.seeks;
                s.transfers = o.transfers;
            }
        });
    }
}

/// Charge one volume call to the innermost open span of this thread.
pub fn note_pager(ns: u64, seeks: u64, pages: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with_borrow_mut(|l| {
        if let Some(o) = l.open.last_mut() {
            o.pager_ns += ns;
            o.seeks += seeks;
            o.transfers += pages;
        }
    });
}

/// Move what this thread recorded to the global sink. Workers call it
/// before they end.
pub fn flush_thread() {
    let mine = LOCAL.with_borrow_mut(|l| {
        l.open.clear();
        std::mem::take(&mut l.trace)
    });
    SINK.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get_or_insert_with(Trace::default)
        .absorb(mine);
}

/// Take everything flushed so far, this thread's share included.
pub fn take_all() -> Trace {
    flush_thread();
    SINK.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .unwrap_or_default()
}

/// Write the kept spans as one JSON document that also says how many
/// were recorded.
pub fn write_json(path: &Path, workload: &str, trace: &Trace) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{},\"spans\":[",
        trace.recorded,
        trace.kept.len()
    )?;
    for (i, s) in trace.kept.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        write!(
            out,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"txn\":{},\
             \"thread\":{},\"pager_ns\":{},\"seeks\":{},\"transfers\":{}}}",
            s.name.as_str(),
            s.start_ns,
            s.end_ns,
            s.txn,
            s.thread,
            s.pager_ns,
            s.seeks,
            s.transfers
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

/// Serialises the tests that drive the process-global switch.
#[cfg(test)]
pub static TEST_SWITCH: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_attribute_pager_time_and_survive_a_flush() {
        let _switch = TEST_SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!span(Name::Txn, 0).recording, "disabled: nothing recorded");
        enable(true);
        std::thread::spawn(|| {
            let outer = span(Name::Txn, 0);
            outer.set_txn(7);
            {
                let _op = span(Name::Commit, 7);
                note_pager(100, 1, 3);
            }
            note_pager(5, 0, 0);
            drop(outer);
            flush_thread();
        })
        .join()
        .unwrap();
        enable(false);
        let trace = take_all();
        let outer = trace.kept.iter().position(|s| s.name == Name::Txn).unwrap();
        let op = trace.kept.iter().find(|s| s.name == Name::Commit).unwrap();
        assert_eq!(op.parent as usize, outer);
        assert_eq!((op.pager_ns, op.seeks, op.transfers), (100, 1, 3));
        assert_eq!(trace.kept[outer].txn, 7);
        assert_eq!(
            trace.kept[outer].pager_ns, 5,
            "child time is not double counted"
        );
        let sum = trace.sum(Name::Commit);
        assert_eq!((sum.calls, sum.pager_ns, sum.seeks), (1, 100, 1));
        assert_eq!(sum.each_ns, vec![op.end_ns - op.start_ns]);
        assert_eq!(trace.child_ns, sum.ns, "only the child has a parent");
        assert_eq!(trace.recorded, 2);
        assert!(trace.sum(Name::Txn).ns >= sum.ns);
    }
}
