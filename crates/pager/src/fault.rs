//! The one fault-injecting volume: a journal plus a plan.
//!
//! Every storage-failure proof in the workspace — the crash-point
//! sweep, the barrier-mutation sweep, the I/O-error tests, the
//! write-ordering tests, the slow-fsync benches — needs the same thing:
//! forward each call to an inner volume, remember the call stream, and
//! apply one rule to it. [`FaultVolume`] is that wrapper, once. It
//! keeps one ordered **journal** of [`Entry`] records and consults one
//! [`Plan`] of rules:
//!
//! * fail the *k*-th read / write / sync, once or from then on
//!   ([`Plan::fail_once`], [`Plan::fail_from`]);
//! * cut power at write *k*, the write vanishing or **torn** — half of
//!   its first page lands ([`Plan::power_cut`]); afterwards every call
//!   fails;
//! * swallow sync *k* ([`Plan::elide_sync`]): the caller sees `Ok`, the
//!   device never saw a barrier;
//! * charge wall-clock time per sync ([`Plan::sync_delay`]), the
//!   in-memory stand-in for an fsync.
//!
//! Rules compose — a torn write *and* an elided sync, a failed fsync
//! under a slow one — because they all read the same call ordinals,
//! which count from the last [`FaultVolume::arm`].
//!
//! With [`Plan::journal_images`] the journal also keeps each write's
//! payload and a snapshot of the volume as of `arm`, and
//! [`FaultVolume::image`] rebuilds the disk image for a [`Cut`] under a
//! [`Persistence`] model: what a device that honours only *forwarded*
//! syncs could hold when the power died.
//!
//! A new failure policy is a new [`Plan`] rule, not a new `Volume`
//! type (`ci.sh` counts the implementations). A volume whose plan
//! holds no rule and no journal takes no lock on the read/write path —
//! atomic counters only — so a bench can run on it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{LockClass, TrackedMutex};

use crate::error::{Error, Result};
use crate::stats::IoStats;
use crate::volume::{SharedVolume, Volume};
use crate::{CacheStats, PageId};

/// Which calls a rule counts, or a counter reports. Ordinals are
/// 0-based and restart at every [`FaultVolume::arm`]; a rejected call
/// still consumes its ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calls {
    /// `read_into` calls.
    Reads,
    /// `write_pages` calls.
    Writes,
    /// `sync` calls.
    Syncs,
    /// Reads and writes on one shared count (an "I/O budget").
    ReadsAndWrites,
}

impl Calls {
    /// Does a rule over `self` count a call of the single kind `kind`?
    fn covers(self, kind: Calls) -> bool {
        self == kind || (self == Calls::ReadsAndWrites && kind != Calls::Syncs)
    }
}

#[derive(Debug, Clone, Copy)]
enum Rule {
    Fail { calls: Calls, at: u64, sticky: bool },
    PowerCut { at_write: u64, torn: bool },
    ElideSync { at: u64 },
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Journaling {
    #[default]
    Off,
    Calls,
    Images,
}

/// The rules a [`FaultVolume`] applies, built by chaining.
/// `Plan::new()` is the empty plan: pure pass-through.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    rules: Vec<Rule>,
    sync_delay: Duration,
    journaling: Journaling,
}

impl Plan {
    /// The empty plan.
    pub fn new() -> Plan {
        Plan::default()
    }

    /// Reject exactly the `at`-th call among `calls`; later ones pass.
    pub fn fail_once(mut self, calls: Calls, at: u64) -> Plan {
        self.rules.push(Rule::Fail {
            calls,
            at,
            sticky: false,
        });
        self
    }

    /// Reject the `at`-th call among `calls` and every one after it,
    /// until the volume is re-armed: the first `at` calls are the
    /// budget.
    pub fn fail_from(mut self, calls: Calls, at: u64) -> Plan {
        self.rules.push(Rule::Fail {
            calls,
            at,
            sticky: true,
        });
        self
    }

    /// Power loss on the `at_write`-th write call. With `torn`, the
    /// first half of that write's first page reaches the device (a
    /// sector-granular loss mid page write; writes apply front to
    /// back, so a power loss always leaves a prefix); without, nothing
    /// of it does. Every later read, write and sync is rejected.
    pub fn power_cut(mut self, at_write: u64, torn: bool) -> Plan {
        self.rules.push(Rule::PowerCut { at_write, torn });
        self
    }

    /// Swallow the `at`-th sync: it returns `Ok` without reaching the
    /// inner volume, so the writes before it stay unsealed.
    pub fn elide_sync(mut self, at: u64) -> Plan {
        self.rules.push(Rule::ElideSync { at });
        self
    }

    /// Sleep this long after every forwarded sync.
    pub fn sync_delay(mut self, delay: Duration) -> Plan {
        self.sync_delay = delay;
        self
    }

    /// Journal every call (reads, writes, syncs) without payloads —
    /// enough to assert a write/sync interleaving.
    pub fn journal(mut self) -> Plan {
        self.journaling = Journaling::Calls;
        self
    }

    /// Journal every call *with* write payloads, over a snapshot of
    /// the inner volume taken by [`FaultVolume::arm`] — what
    /// [`FaultVolume::image`] needs.
    pub fn journal_images(mut self) -> Plan {
        self.journaling = Journaling::Images;
        self
    }
}

/// One journaled call. Rejected reads and writes never reached the
/// device and leave no entry (they are counted in [`IoStats`]); a
/// withheld sync does, because the barrier that is *missing* is what a
/// reconstruction needs to know about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A forwarded read.
    Read {
        /// First page read.
        start: PageId,
        /// Pages read.
        pages: u64,
    },
    /// A write that reached the inner volume.
    Write {
        /// First page of the call.
        start: PageId,
        /// Pages in the call.
        pages: u64,
        /// The bytes that landed, under [`Plan::journal_images`]: the
        /// whole call, or the half page a torn power cut let through.
        /// Empty under [`Plan::journal`].
        payload: Vec<u8>,
    },
    /// A sync call.
    Sync {
        /// Did it reach the inner volume? `false` for an elided sync
        /// (the caller saw `Ok`) and for a rejected one (the caller saw
        /// the error); either way it sealed nothing.
        forwarded: bool,
    },
}

/// Where an [`FaultVolume::image`] reconstruction stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// The end of the journal — after a [`Plan::power_cut`], the
    /// moment the power died.
    End,
    /// Right after the `m`-th sync call (0-based) returned; the end of
    /// the journal if it holds fewer syncs.
    AfterSync(u64),
}

/// What the device is assumed to have persisted of the writes it
/// accepted. A run of writes closed by a *forwarded* sync is sealed
/// and always on disk; the models differ on unsealed runs — those
/// closed by a withheld sync, and the open tail at the cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// Every accepted write is on disk, in issue order: the device has
    /// no volatile cache.
    InOrder,
    /// Unsealed writes are lost: they were still queued behind the
    /// missing barrier when the machine died.
    SealedOnly,
    /// Of each unsealed run only its *last* write landed: the queue
    /// was reordered and the most recent write jumped ahead.
    ReorderedTail,
}

struct FaultState {
    plan: Plan,
    /// The power is out; every call fails until the next `arm`.
    off: bool,
    /// Inner image as of `arm` (under [`Plan::journal_images`]).
    base: Vec<u8>,
    journal: Vec<Entry>,
}

impl FaultState {
    fn record(&mut self, entry: Entry) {
        if self.plan.journaling != Journaling::Off {
            self.journal.push(entry);
        }
    }
}

enum Verdict {
    Pass,
    Reject,
    Torn,
    Elide,
}

/// A volume wrapper that journals the call stream and injects the
/// faults its [`Plan`] describes. See the [module docs](self).
pub struct FaultVolume {
    inner: SharedVolume,
    /// The plan holds a rule or a journal: calls must consult `state`.
    active: AtomicBool,
    sync_delay_ns: AtomicU64,
    /// Calls seen since `arm`, indexed by `Calls::{Reads, Writes, Syncs}`.
    seen: [AtomicU64; 3],
    /// Calls rejected since `reset_stats`, same indexing.
    faults: [AtomicU64; 3],
    // Held across the inner write it journals (journal order = device
    // order) and across the torn-write read-modify-write, so I/O is
    // allowed; ranked above the cache (70) so a FaultVolume may wrap a
    // CachedVolume as well as sit under one.
    // lock-class: state = pager.fault rank = 68 io = allowed
    state: TrackedMutex<FaultState>,
}

impl FaultVolume {
    /// Wrap `inner` with the empty plan: all calls pass through and
    /// are counted.
    pub fn new(inner: SharedVolume) -> Arc<FaultVolume> {
        Arc::new(FaultVolume {
            inner,
            active: AtomicBool::new(false),
            sync_delay_ns: AtomicU64::new(0),
            seen: Default::default(),
            faults: Default::default(),
            state: TrackedMutex::new(
                LockClass::allows_io("pager.fault"),
                FaultState {
                    plan: Plan::new(),
                    off: false,
                    base: Vec::new(),
                    journal: Vec::new(),
                },
            ),
        })
    }

    /// Wrap `inner` and [`Self::arm`] it with `plan` in one step.
    pub fn with_plan(inner: SharedVolume, plan: Plan) -> Result<Arc<FaultVolume>> {
        let volume = FaultVolume::new(inner);
        volume.arm(plan)?;
        Ok(volume)
    }

    /// Install `plan`, replacing the previous one: call ordinals
    /// restart at 0, the journal is cleared, the power is back on, and
    /// under [`Plan::journal_images`] the inner volume is snapshotted
    /// as the base of every reconstruction. Call it at a quiescent
    /// point; `arm(Plan::new())` disarms.
    pub fn arm(&self, plan: Plan) -> Result<()> {
        let base = match plan.journaling {
            Journaling::Images => self.inner.read_pages(0, self.inner.num_pages())?,
            _ => Vec::new(),
        };
        let mut st = self.state.lock();
        for seen in &self.seen {
            seen.store(0, Ordering::SeqCst);
        }
        let delay = u64::try_from(plan.sync_delay.as_nanos()).unwrap_or(u64::MAX);
        self.sync_delay_ns.store(delay, Ordering::SeqCst);
        self.active.store(
            !plan.rules.is_empty() || plan.journaling != Journaling::Off,
            Ordering::SeqCst,
        );
        *st = FaultState {
            plan,
            off: false,
            base,
            journal: Vec::new(),
        };
        Ok(())
    }

    /// Calls of the given kind seen (forwarded or not) since the last
    /// [`Self::arm`].
    pub fn seen(&self, calls: Calls) -> u64 {
        let load = |kind: Calls| self.seen[kind as usize].load(Ordering::SeqCst);
        match calls {
            Calls::ReadsAndWrites => load(Calls::Reads) + load(Calls::Writes),
            kind => load(kind),
        }
    }

    /// Has an armed [`Plan::power_cut`] fired?
    pub fn has_crashed(&self) -> bool {
        self.state.lock().off
    }

    /// Hand back the journal so far and start a fresh one.
    pub fn take_journal(&self) -> Vec<Entry> {
        std::mem::take(&mut self.state.lock().journal)
    }

    /// The disk image at `cut` under `model`: the `arm`-time snapshot
    /// plus the journaled writes the model says survived. Needs
    /// [`Plan::journal_images`], and the whole journal since `arm`.
    pub fn image(&self, cut: Cut, model: Persistence) -> Result<Vec<u8>> {
        let st = self.state.lock();
        if st.plan.journaling != Journaling::Images {
            return Err(Error::Io(std::io::Error::other(
                "FaultVolume::image needs a plan armed with journal_images()",
            )));
        }
        let ps = self.inner.page_size();
        let mut image = st.base.clone();
        // Writes since the last sync entry: the run the next one closes.
        let mut run: Vec<(PageId, &[u8])> = Vec::new();
        let mut syncs = 0u64;
        for entry in &st.journal {
            match entry {
                Entry::Read { .. } => {}
                Entry::Write { start, payload, .. } => run.push((*start, payload)),
                Entry::Sync { forwarded } => {
                    let sealed = if *forwarded {
                        Persistence::InOrder
                    } else {
                        model
                    };
                    land(&mut image, ps, &mut run, sealed)?;
                    if cut == Cut::AfterSync(syncs) {
                        return Ok(image);
                    }
                    syncs += 1;
                }
            }
        }
        land(&mut image, ps, &mut run, model)?;
        Ok(image)
    }

    /// Count the next call of the single kind `kind` and decide its fate.
    fn verdict(&self, st: &mut FaultState, kind: Calls) -> Verdict {
        let mut verdict = Verdict::Pass;
        let mut power_cut = None;
        for rule in &st.plan.rules {
            match *rule {
                Rule::PowerCut { at_write, torn }
                    if kind == Calls::Writes && self.seen(kind) == at_write =>
                {
                    power_cut = Some(torn);
                }
                Rule::Fail { calls, at, sticky } if calls.covers(kind) => {
                    let n = self.seen(calls);
                    if n == at || (sticky && n > at) {
                        verdict = Verdict::Reject;
                    }
                }
                Rule::ElideSync { at }
                    if kind == Calls::Syncs
                        && self.seen(kind) == at
                        && matches!(verdict, Verdict::Pass) =>
                {
                    verdict = Verdict::Elide;
                }
                _ => {}
            }
        }
        self.seen[kind as usize].fetch_add(1, Ordering::SeqCst);
        if st.off {
            return Verdict::Reject;
        }
        match power_cut {
            Some(torn) => {
                st.off = true;
                if torn {
                    Verdict::Torn
                } else {
                    Verdict::Reject
                }
            }
            None => verdict,
        }
    }

    fn reject(&self, st: &FaultState, kind: Calls) -> Error {
        self.faults[kind as usize].fetch_add(1, Ordering::SeqCst);
        Error::Io(std::io::Error::other(if st.off {
            "simulated power failure: volume is offline"
        } else {
            "injected fault: the plan rejects this call"
        }))
    }
}

/// Apply to `image` what `model` says survived of one run of writes,
/// and empty the run.
fn land(
    image: &mut [u8],
    ps: usize,
    run: &mut Vec<(PageId, &[u8])>,
    model: Persistence,
) -> Result<()> {
    let lost = match model {
        Persistence::InOrder => 0,
        Persistence::SealedOnly => run.len(),
        Persistence::ReorderedTail => run.len().saturating_sub(1),
    };
    let volume_pages = (image.len() / ps) as u64;
    for (start, payload) in run.drain(..).skip(lost) {
        let at = start as usize * ps;
        image
            .get_mut(at..at + payload.len())
            .ok_or(Error::OutOfBounds {
                start,
                pages: payload.len().div_ceil(ps) as u64,
                volume_pages,
            })?
            .copy_from_slice(payload);
    }
    Ok(())
}

impl Volume for FaultVolume {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_into(&self, start: PageId, pages: u64, buf: &mut [u8]) -> Result<()> {
        if self.active.load(Ordering::SeqCst) {
            let mut st = self.state.lock();
            if let Verdict::Reject = self.verdict(&mut st, Calls::Reads) {
                return Err(self.reject(&st, Calls::Reads));
            }
            st.record(Entry::Read { start, pages });
        } else {
            self.seen[Calls::Reads as usize].fetch_add(1, Ordering::Relaxed);
        }
        self.inner.read_into(start, pages, buf)
    }

    fn write_pages(&self, start: PageId, data: &[u8]) -> Result<()> {
        if !self.active.load(Ordering::SeqCst) {
            self.seen[Calls::Writes as usize].fetch_add(1, Ordering::Relaxed);
            return self.inner.write_pages(start, data);
        }
        let mut st = self.state.lock();
        let ps = self.inner.page_size();
        let landed = match self.verdict(&mut st, Calls::Writes) {
            Verdict::Reject => return Err(self.reject(&st, Calls::Writes)),
            Verdict::Torn => {
                let half = data.get(..ps / 2).unwrap_or(data);
                if !half.is_empty() {
                    let mut page = self.inner.read_pages(start, 1)?;
                    if let Some(head) = page.get_mut(..half.len()) {
                        head.copy_from_slice(half);
                    }
                    self.inner.write_pages(start, &page)?;
                }
                half
            }
            Verdict::Pass | Verdict::Elide => {
                self.inner.write_pages(start, data)?;
                data
            }
        };
        let payload = match st.plan.journaling {
            Journaling::Images => landed.to_vec(),
            _ => Vec::new(),
        };
        let pages = (data.len() / ps) as u64;
        st.record(Entry::Write {
            start,
            pages,
            payload,
        });
        if st.off {
            return Err(self.reject(&st, Calls::Writes));
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        if self.active.load(Ordering::SeqCst) {
            let mut st = self.state.lock();
            let verdict = self.verdict(&mut st, Calls::Syncs);
            let forwarded = matches!(verdict, Verdict::Pass);
            st.record(Entry::Sync { forwarded });
            match verdict {
                Verdict::Pass => {}
                Verdict::Elide => return Ok(()),
                Verdict::Reject | Verdict::Torn => return Err(self.reject(&st, Calls::Syncs)),
            }
        } else {
            self.seen[Calls::Syncs as usize].fetch_add(1, Ordering::Relaxed);
        }
        // Outside the latch: slow syncs of different callers overlap,
        // as they do on a device.
        self.inner.sync()?;
        let delay = self.sync_delay_ns.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_nanos(delay));
        }
        Ok(())
    }

    fn stats(&self) -> IoStats {
        let faults = |kind: Calls| self.faults[kind as usize].load(Ordering::SeqCst);
        let mut s = self.inner.stats();
        s.read_faults += faults(Calls::Reads);
        s.write_faults += faults(Calls::Writes);
        s.sync_faults += faults(Calls::Syncs);
        s
    }

    fn reset_stats(&self) {
        for faults in &self.faults {
            faults.store(0, Ordering::SeqCst);
        }
        self.inner.reset_stats();
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::MemVolume;
    use crate::{CachedVolume, DiskProfile};
    use std::time::Instant;

    const PS: usize = 128;

    fn setup() -> (Arc<FaultVolume>, SharedVolume) {
        let mem = MemVolume::with_profile(PS, 16, DiskProfile::FREE).shared();
        (FaultVolume::new(Arc::clone(&mem)), mem)
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; PS]
    }

    fn whole(v: &SharedVolume) -> Vec<u8> {
        v.read_pages(0, v.num_pages()).unwrap()
    }

    /// Takes the journal (syncs only in these tests): was each forwarded?
    fn sync_fates(f: &FaultVolume) -> Vec<bool> {
        let fate = |e: &Entry| matches!(e, Entry::Sync { forwarded: true });
        f.take_journal().iter().map(fate).collect()
    }

    #[test]
    fn journal_records_calls_in_order_and_passes_them_through() {
        let (f, mem) = setup();
        f.arm(Plan::new().journal()).unwrap();
        f.write_pages(3, &page(1)).unwrap();
        f.write_pages(5, &[2u8; 2 * PS]).unwrap();
        f.sync().unwrap();
        assert_eq!(f.read_pages(3, 1).unwrap(), page(1));
        assert_eq!(mem.read_pages(5, 2).unwrap(), [2u8; 2 * PS]);
        assert_eq!(
            (f.seen(Calls::Writes), f.seen(Calls::ReadsAndWrites)),
            (2, 3)
        );
        let w = |start, pages| Entry::Write {
            start,
            pages,
            payload: Vec::new(),
        };
        assert_eq!(
            f.take_journal(),
            vec![
                w(3, 1),
                w(5, 2),
                Entry::Sync { forwarded: true },
                Entry::Read { start: 3, pages: 1 }
            ]
        );
        assert!(f.take_journal().is_empty(), "take starts a fresh journal");
        assert!(!f.has_crashed());
        assert!(
            f.image(Cut::End, Persistence::InOrder).is_err(),
            "no payloads were journaled"
        );
    }

    #[test]
    fn power_cut_drops_the_kth_write_and_all_io_after() {
        let (f, mem) = setup();
        f.arm(Plan::new().power_cut(1, false).journal_images())
            .unwrap();
        f.write_pages(0, &page(1)).unwrap(); // write 0: survives
        assert!(f.write_pages(1, &page(2)).is_err()); // write 1: power loss
        assert!(f.has_crashed());
        assert!(f.read_pages(0, 1).is_err(), "device is offline");
        assert!(f.write_pages(2, &page(3)).is_err());
        assert!(f.sync().is_err());
        let image = f.image(Cut::End, Persistence::InOrder).unwrap();
        assert_eq!(image, whole(&mem), "InOrder is the inner volume's image");
        assert_eq!(image[..PS], page(1), "write 0 is on the platter");
        assert!(image[PS..].iter().all(|&b| b == 0), "write 1 is not");
        let s = f.stats();
        assert_eq!((s.read_faults, s.write_faults), (1, 2));
        // Bugfix: the old crash-point wrapper refused the sync after
        // the cut without counting it anywhere.
        assert_eq!(s.sync_faults, 1);
        assert_eq!(s.faults(), 4);

        // Re-arming restores service for the next pass.
        f.arm(Plan::new()).unwrap();
        f.write_pages(1, &page(2)).unwrap();
        assert_eq!(f.read_pages(1, 1).unwrap(), page(2));
    }

    #[test]
    fn torn_write_applies_half_the_first_page() {
        let (f, mem) = setup();
        f.arm(Plan::new().power_cut(0, true).journal_images())
            .unwrap();
        assert!(f.write_pages(4, &[9u8; 2 * PS]).is_err());
        let image = f.image(Cut::End, Persistence::InOrder).unwrap();
        assert_eq!(image, whole(&mem));
        let torn = &image[4 * PS..5 * PS];
        assert!(torn[..PS / 2].iter().all(|&b| b == 9), "first half applied");
        assert!(torn[PS / 2..].iter().all(|&b| b == 0), "second half lost");
        assert!(
            image[5 * PS..6 * PS].iter().all(|&b| b == 0),
            "second page of the call never written"
        );
    }

    #[test]
    fn io_budget_fails_from_the_kth_call_until_rearmed() {
        let (f, _mem) = setup();
        f.arm(Plan::new().fail_from(Calls::ReadsAndWrites, 2))
            .unwrap();
        f.write_pages(0, &page(1)).unwrap();
        assert_eq!(f.read_pages(0, 1).unwrap(), page(1));
        assert!(f.read_pages(0, 1).is_err(), "budget exhausted");
        assert!(f.write_pages(0, &page(2)).is_err());
        f.sync().unwrap(); // syncs are not on this budget
        f.arm(Plan::new().fail_from(Calls::ReadsAndWrites, 1))
            .unwrap();
        assert_eq!(f.read_pages(0, 1).unwrap(), page(1), "healed");
        assert!(f.read_pages(0, 1).is_err());
        let s = f.stats();
        assert_eq!((s.read_faults, s.write_faults, s.sync_faults), (2, 1, 0));
        f.reset_stats();
        assert_eq!(f.stats().faults(), 0);
    }

    #[test]
    fn split_budgets_are_independent() {
        let (f, _mem) = setup();
        f.arm(Plan::new().fail_from(Calls::Writes, 1)).unwrap();
        f.write_pages(0, &page(7)).unwrap();
        assert!(f.write_pages(1, &page(7)).is_err(), "writes exhausted");
        // Reads keep working — what a crashed-then-reopened volume needs.
        for _ in 0..10 {
            assert_eq!(f.read_pages(0, 1).unwrap(), page(7));
        }
        assert!(f.write_pages(1, &page(7)).is_err());
        let s = f.stats();
        assert_eq!((s.read_faults, s.write_faults), (0, 2));
        f.arm(
            Plan::new()
                .fail_from(Calls::Reads, 0)
                .fail_from(Calls::Writes, 5),
        )
        .unwrap();
        assert!(f.read_pages(0, 1).is_err(), "reads now exhausted");
        f.write_pages(1, &page(8)).unwrap();
    }

    /// Bugfix: the old budget wrapper could not fail a sync at all.
    #[test]
    fn the_kth_sync_fails_once_and_is_counted() {
        let (f, _mem) = setup();
        f.arm(Plan::new().fail_once(Calls::Syncs, 1).journal())
            .unwrap();
        f.sync().unwrap();
        assert!(f.sync().is_err(), "sync #1 is the armed one");
        f.sync().unwrap();
        assert_eq!(f.stats().sync_faults, 1);
        assert_eq!(f.seen(Calls::Syncs), 3);
        assert_eq!(sync_fates(&f), [true, false, true]);
    }

    /// Bugfix: the old injection wrappers answered `None` here, hiding
    /// the hit/miss gauges of any cache they wrapped.
    #[test]
    fn cache_stats_of_the_inner_volume_are_forwarded() {
        let mem = MemVolume::with_profile(PS, 16, DiskProfile::FREE).shared();
        let f = FaultVolume::new(CachedVolume::new(mem, 4).shared());
        assert_eq!(f.cache_stats(), Some(CacheStats::default()));
        f.write_pages(2, &page(5)).unwrap();
        f.read_pages(2, 1).unwrap();
        f.arm(Plan::new().journal()).unwrap(); // armed path too
        f.read_pages(2, 1).unwrap();
        assert_eq!(f.cache_stats().unwrap().hits, 2);
    }

    #[test]
    fn sealed_runs_persist_and_the_open_tail_follows_the_model() {
        let (f, mem) = setup();
        f.arm(Plan::new().journal_images()).unwrap();
        f.write_pages(0, &page(1)).unwrap();
        f.sync().unwrap();
        f.write_pages(1, &page(2)).unwrap();
        f.write_pages(2, &page(3)).unwrap();
        f.sync().unwrap();
        f.write_pages(3, &page(4)).unwrap(); // open tail, unsealed
        assert_eq!(f.seen(Calls::Syncs), 2);
        assert_eq!(mem.read_pages(3, 1).unwrap(), page(4), "pass-through");
        // Cut after sync 1: both sealed runs, not the tail.
        let img = f.image(Cut::AfterSync(1), Persistence::SealedOnly).unwrap();
        assert_eq!(img[..3 * PS], [page(1), page(2), page(3)].concat());
        assert_eq!(img[3 * PS..4 * PS], page(0));
        // Cut after sync 0: the first run only.
        let img = f.image(Cut::AfterSync(0), Persistence::InOrder).unwrap();
        assert_eq!(img[..2 * PS], [page(1), page(0)].concat());
        // Cut at the end: the tail is there or not, by model.
        let tail = |model| f.image(Cut::End, model).unwrap()[3 * PS..4 * PS].to_vec();
        assert_eq!(tail(Persistence::InOrder), page(4));
        assert_eq!(tail(Persistence::SealedOnly), page(0));
        assert_eq!(tail(Persistence::ReorderedTail), page(4));

        // Re-arming clears the journal and re-snapshots the base.
        f.arm(Plan::new().journal_images()).unwrap();
        assert_eq!(f.seen(Calls::Syncs), 0);
        assert_eq!(
            f.image(Cut::End, Persistence::SealedOnly).unwrap(),
            whole(&mem)
        );
    }

    #[test]
    fn elided_sync_leaves_its_run_unsealed() {
        let (f, mem) = setup();
        f.arm(Plan::new().elide_sync(0).journal_images()).unwrap();
        f.write_pages(0, &page(8)).unwrap();
        f.write_pages(1, &page(9)).unwrap();
        f.sync().unwrap(); // elided: Ok, but no barrier
        f.write_pages(2, &page(7)).unwrap();
        f.sync().unwrap(); // real
        assert_eq!(whole(&mem)[..PS], page(8), "the live run is unaffected");
        let cut = Cut::AfterSync(1);
        // All-or-nothing: exactly the elided run is missing.
        let img = f.image(cut, Persistence::SealedOnly).unwrap();
        assert_eq!(img[..3 * PS], [page(0), page(0), page(7)].concat());
        // Reordered: the elided run's last write jumped the barrier.
        let img = f.image(cut, Persistence::ReorderedTail).unwrap();
        assert_eq!(img[..3 * PS], [page(0), page(9), page(7)].concat());
        assert_eq!(f.image(cut, Persistence::InOrder).unwrap(), whole(&mem));
    }

    /// Rules compose: a torn power cut *and* an elided sync in one run —
    /// no single-purpose wrapper could express this.
    #[test]
    fn torn_write_plus_elided_sync_under_all_three_models() {
        let (f, mem) = setup();
        f.arm(
            Plan::new()
                .elide_sync(1)
                .power_cut(4, true)
                .journal_images(),
        )
        .unwrap();
        f.write_pages(0, &page(1)).unwrap(); // write 0
        f.sync().unwrap(); // sync 0: real
        f.write_pages(1, &page(2)).unwrap(); // write 1
        f.write_pages(2, &page(3)).unwrap(); // write 2
        f.sync().unwrap(); // sync 1: elided
        f.write_pages(3, &page(4)).unwrap(); // write 3
        assert!(f.write_pages(4, &page(5)).is_err()); // write 4: torn cut
        assert!(f.sync().is_err());

        let mut half = page(0);
        half[..PS / 2].fill(5);
        let expect = |pages: [Vec<u8>; 5]| {
            let mut img = vec![0u8; 16 * PS];
            img[..5 * PS].copy_from_slice(&pages.concat());
            img
        };
        let image = |model| f.image(Cut::End, model).unwrap();
        assert_eq!(
            image(Persistence::InOrder),
            expect([page(1), page(2), page(3), page(4), half.clone()])
        );
        assert_eq!(image(Persistence::InOrder), whole(&mem));
        assert_eq!(
            image(Persistence::SealedOnly),
            expect([page(1), page(0), page(0), page(0), page(0)]),
            "only the run sealed by the real sync survives"
        );
        assert_eq!(
            image(Persistence::ReorderedTail),
            expect([page(1), page(0), page(3), page(0), half]),
            "each unsealed run lands its last write: write 2, then the torn half"
        );
        // The rejected sync after the cut is journaled as withheld.
        assert_eq!(
            f.take_journal().last(),
            Some(&Entry::Sync { forwarded: false })
        );
    }

    /// Rules compose across threads: one failed fsync under a slow one.
    #[test]
    fn failed_sync_under_a_delay_reaches_exactly_one_of_two_callers() {
        let (f, _mem) = setup();
        let delay = Duration::from_millis(2);
        f.arm(
            Plan::new()
                .fail_once(Calls::Syncs, 1)
                .sync_delay(delay)
                .journal(),
        )
        .unwrap();
        let gate = std::sync::Barrier::new(2);
        let t0 = Instant::now();
        let errors: usize = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        (0..2).filter(|_| f.sync().is_err()).count()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(errors, 1, "sync #1 fails for whoever draws it, once");
        assert!(t0.elapsed() >= delay, "forwarded syncs paid the delay");
        assert_eq!(f.stats().sync_faults, 1);
        assert_eq!(sync_fates(&f), [true, false, true, true]);
    }

    #[test]
    fn a_delay_only_plan_charges_syncs_and_stays_off_the_latch() {
        let (f, _mem) = setup();
        f.arm(Plan::new().sync_delay(Duration::from_millis(5)))
            .unwrap();
        assert!(
            !f.active.load(Ordering::SeqCst),
            "no rule, no journal: reads and writes must not take the latch"
        );
        f.write_pages(1, &page(7)).unwrap();
        assert_eq!(f.read_pages(1, 1).unwrap(), page(7));
        let t0 = Instant::now();
        f.sync().unwrap();
        f.sync().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(f.seen(Calls::Syncs), 2);
        assert!(f.take_journal().is_empty());
    }
}
