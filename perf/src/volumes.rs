//! Bench-owned volume wrappers.
//!
//! * [`DevSyncVolume`] — a fixed-cost, *serialised* device flush, so the
//!   sync count is what a commit-path change moves and not the host
//!   disk's mood.
//! * [`TimedVolume`] — wall-clock and call/page/seek counters around
//!   every volume call, attributed to the calling thread so a span can
//!   subtract the pager time spent inside it.
//! * [`LoseUnsyncedVolume`] — holds writes back until `sync()` and can
//!   drop them, for the acknowledged-commit durability check.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use eos_pager::{Error, IoStats, PageId, Result, SharedVolume, Volume};

use crate::trace;

/// A poisoned bench mutex only means another worker already panicked;
/// the guarded data (a queue token, a write buffer) stays usable.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Delegates reads and writes untouched; `sync()` queues on one mutex
/// (one device queue: flushes serialise, data transfers do not) and
/// spins for a fixed delay. Spinning, not sleeping: `thread::sleep` of
/// 200 µs delivered ~320 µs ± 6 % on the development box, the spin
/// repeats within ± 1 %.
///
/// The inner volume's own `sync` is *not* called: the backing file has
/// to live inside the checkout (a real disk), and its fsync drifted
/// 200 → 420 µs within minutes. The modelled flush replaces it; the real
/// one is measured, un-gated, by the `realdisk.*` layer metrics.
pub struct DevSyncVolume {
    inner: SharedVolume,
    delay: Duration,
    queue: Mutex<()>,
}

impl DevSyncVolume {
    /// Wrap `inner`, charging `delay` per sync.
    pub fn new(inner: SharedVolume, delay: Duration) -> DevSyncVolume {
        DevSyncVolume {
            inner,
            delay,
            queue: Mutex::new(()),
        }
    }
}

impl Volume for DevSyncVolume {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_into(&self, start: PageId, pages: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_into(start, pages, buf)
    }

    fn write_pages(&self, start: PageId, data: &[u8]) -> Result<()> {
        self.inner.write_pages(start, data)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn sync(&self) -> Result<()> {
        let _device = relock(&self.queue);
        let t0 = Instant::now();
        while t0.elapsed() < self.delay {
            std::hint::spin_loop();
        }
        Ok(())
    }
}

/// Cumulative cost of one kind of volume call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneTotals {
    /// Wall nanoseconds inside the call (for `sync`: queueing included).
    pub ns: u64,
    /// Calls.
    pub calls: u64,
    /// Pages moved (always 0 for `sync`).
    pub pages: u64,
}

/// Cumulative totals of one [`TimedVolume`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerTotals {
    /// `read_into`.
    pub read: LaneTotals,
    /// `write_pages`.
    pub write: LaneTotals,
    /// `sync`.
    pub sync: LaneTotals,
    /// Accesses that did not start where the previous one ended (the
    /// `DiskModel` rule, recomputed here so it can be attributed to the
    /// calling thread's open span).
    pub seeks: u64,
}

impl std::ops::Sub for LaneTotals {
    type Output = LaneTotals;

    fn sub(self, rhs: LaneTotals) -> LaneTotals {
        LaneTotals {
            ns: self.ns - rhs.ns,
            calls: self.calls - rhs.calls,
            pages: self.pages - rhs.pages,
        }
    }
}

impl std::ops::Sub for PagerTotals {
    type Output = PagerTotals;

    fn sub(self, rhs: PagerTotals) -> PagerTotals {
        PagerTotals {
            read: self.read - rhs.read,
            write: self.write - rhs.write,
            sync: self.sync - rhs.sync,
            seeks: self.seeks - rhs.seeks,
        }
    }
}

#[derive(Default)]
struct Lane {
    ns: AtomicU64,
    calls: AtomicU64,
    pages: AtomicU64,
}

impl Lane {
    /// Statistics only, hence `Relaxed` throughout.
    fn totals(&self) -> LaneTotals {
        LaneTotals {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            pages: self.pages.load(Ordering::Relaxed),
        }
    }
}

/// Times every call into the wrapped volume. Totals are kept here;
/// the same numbers are also added to the calling thread's open span
/// (see [`trace::note_pager`]).
pub struct TimedVolume {
    inner: SharedVolume,
    read: Lane,
    write: Lane,
    sync: Lane,
    seeks: AtomicU64,
    /// Page the simulated head would reach next with zero movement.
    head: AtomicU64,
}

impl TimedVolume {
    /// Wrap `inner`.
    pub fn new(inner: SharedVolume) -> TimedVolume {
        TimedVolume {
            inner,
            read: Lane::default(),
            write: Lane::default(),
            sync: Lane::default(),
            seeks: AtomicU64::new(0),
            head: AtomicU64::new(u64::MAX),
        }
    }

    /// The totals so far.
    pub fn totals(&self) -> PagerTotals {
        PagerTotals {
            read: self.read.totals(),
            write: self.write.totals(),
            sync: self.sync.totals(),
            seeks: self.seeks.load(Ordering::Relaxed),
        }
    }

    /// Charge one finished call to `lane` and to the caller's open span.
    fn account(&self, lane: &Lane, t0: Instant, access: Option<(PageId, u64)>) {
        let spent = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        lane.ns.fetch_add(spent, Ordering::Relaxed);
        lane.calls.fetch_add(1, Ordering::Relaxed);
        let (mut seek, mut moved) = (0, 0);
        if let Some((start, pages)) = access {
            moved = pages;
            lane.pages.fetch_add(pages, Ordering::Relaxed);
            if self.head.swap(start + pages, Ordering::Relaxed) != start {
                seek = 1;
                self.seeks.fetch_add(1, Ordering::Relaxed);
            }
        }
        trace::note_pager(spent, seek, moved);
    }
}

impl Volume for TimedVolume {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_into(&self, start: PageId, pages: u64, buf: &mut [u8]) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.read_into(start, pages, buf);
        self.account(&self.read, t0, Some((start, pages)));
        r
    }

    fn write_pages(&self, start: PageId, data: &[u8]) -> Result<()> {
        let pages = (data.len() / self.inner.page_size()) as u64;
        let t0 = Instant::now();
        let r = self.inner.write_pages(start, data);
        self.account(&self.write, t0, Some((start, pages)));
        r
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn sync(&self) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync();
        self.account(&self.sync, t0, None);
        r
    }
}

/// Holds every write back until the next `sync()`, like a device with a
/// volatile write cache. [`Self::arm`] schedules a power loss after a
/// number of further write calls: the held-back writes are dropped and
/// every later write or sync fails, so the commit in flight is never
/// acknowledged. What reached the inner volume is then exactly what a
/// restart would find.
pub struct LoseUnsyncedVolume {
    inner: SharedVolume,
    held: Mutex<Vec<(PageId, Vec<u8>)>>,
    /// Write calls left before the power loss; `u64::MAX` when unarmed.
    fuse: AtomicU64,
    dead: AtomicBool,
}

impl LoseUnsyncedVolume {
    /// Wrap `inner`, unarmed.
    pub fn new(inner: SharedVolume) -> LoseUnsyncedVolume {
        LoseUnsyncedVolume {
            inner,
            held: Mutex::new(Vec::new()),
            fuse: AtomicU64::new(u64::MAX),
            dead: AtomicBool::new(false),
        }
    }

    /// Lose power after `writes` more write calls.
    pub fn arm(&self, writes: u64) {
        self.fuse.store(writes, Ordering::SeqCst);
    }

    /// Whether the power loss has happened.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn power_lost() -> Error {
        Error::Io(std::io::Error::other("simulated power loss"))
    }
}

impl Volume for LoseUnsyncedVolume {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_into(&self, start: PageId, pages: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_into(start, pages, buf)?;
        // Overlay the held-back writes, oldest first, so the store reads
        // its own unsynced bytes like it would from a device cache.
        let ps = self.page_size() as u64;
        let (lo, hi) = (start * ps, (start + pages) * ps);
        for (at, data) in relock(&self.held).iter() {
            let (wlo, whi) = (at * ps, at * ps + data.len() as u64);
            let (from, to) = (lo.max(wlo), hi.min(whi));
            if from < to {
                buf[(from - lo) as usize..(to - lo) as usize]
                    .copy_from_slice(&data[(from - wlo) as usize..(to - wlo) as usize]);
            }
        }
        Ok(())
    }

    fn write_pages(&self, start: PageId, data: &[u8]) -> Result<()> {
        if self.is_dead() {
            return Err(Self::power_lost());
        }
        let mut held = relock(&self.held);
        let fuse = self.fuse.load(Ordering::SeqCst);
        if fuse == 0 {
            held.clear();
            self.dead.store(true, Ordering::SeqCst);
            return Err(Self::power_lost());
        }
        if fuse != u64::MAX {
            self.fuse.store(fuse - 1, Ordering::SeqCst);
        }
        held.push((start, data.to_vec()));
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn sync(&self) -> Result<()> {
        if self.is_dead() {
            return Err(Self::power_lost());
        }
        let mut held = relock(&self.held);
        for (start, data) in held.drain(..) {
            self.inner.write_pages(start, &data)?;
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_pager::{DiskProfile, MemVolume};
    use std::sync::Arc;

    fn mem(pages: u64) -> SharedVolume {
        MemVolume::with_profile(256, pages, DiskProfile::VINTAGE_1992).shared()
    }

    /// The same scripted I/O against a bare volume and a wrapped one.
    fn script(v: &dyn Volume) -> Vec<u8> {
        v.write_pages(3, &[7u8; 512]).unwrap();
        v.write_pages(9, &[9u8; 256]).unwrap();
        v.sync().unwrap();
        v.write_pages(4, &[5u8; 256]).unwrap();
        let mut out = v.read_pages(3, 2).unwrap();
        out.extend(v.read_pages(9, 1).unwrap());
        out.extend(v.read_pages(0, 1).unwrap());
        out
    }

    #[test]
    fn wrappers_pass_bytes_through_unchanged() {
        let want = script(&*mem(16));
        let dev = DevSyncVolume::new(mem(16), Duration::from_micros(50));
        assert_eq!(script(&dev), want);
        let timed = TimedVolume::new(mem(16));
        assert_eq!(script(&timed), want);
        let lossy = LoseUnsyncedVolume::new(mem(16));
        assert_eq!(script(&lossy), want);
    }

    #[test]
    fn timed_volume_counts_equal_the_inner_stats() {
        let inner = mem(64);
        let timed = TimedVolume::new(inner.clone());
        let before = inner.stats();
        script(&timed);
        timed.read_pages(5, 3).unwrap(); // continues after page 4: no seek
        timed.read_pages(40, 1).unwrap();
        let d = inner.stats() - before;
        let t = timed.totals();
        assert_eq!(t.read.calls, d.read_calls);
        assert_eq!(t.read.pages, d.page_reads);
        assert_eq!(t.write.calls, d.write_calls);
        assert_eq!(t.write.pages, d.page_writes);
        assert_eq!(t.seeks, d.seeks);
        assert_eq!(t.sync.calls, 1);
    }

    #[test]
    fn dev_sync_delay_is_within_five_percent_of_nominal() {
        let delay = Duration::from_micros(200);
        let dev = DevSyncVolume::new(mem(4), delay);
        // The median of many syncs: one descheduled spin must not fail
        // the test on a busy two-core box.
        let mut took: Vec<Duration> = (0..201)
            .map(|_| {
                let t0 = Instant::now();
                dev.sync().unwrap();
                t0.elapsed()
            })
            .collect();
        took.sort();
        let median = took[took.len() / 2];
        assert!(median >= delay, "{median:?} is shorter than nominal");
        assert!(median <= delay.mul_f64(1.05), "{median:?} overshoots");
    }

    #[test]
    fn concurrent_dev_syncs_serialise() {
        let delay = Duration::from_millis(20);
        let dev = Arc::new(DevSyncVolume::new(mem(4), delay));
        let gate = std::sync::Barrier::new(2);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    gate.wait();
                    dev.sync().unwrap();
                });
            }
        });
        assert!(t0.elapsed() >= delay * 2, "two syncs overlapped");
    }

    #[test]
    fn lose_unsynced_keeps_synced_and_drops_the_rest() {
        let inner = mem(16);
        let lossy = LoseUnsyncedVolume::new(inner.clone());
        lossy.write_pages(1, &[1u8; 256]).unwrap();
        lossy.sync().unwrap();
        lossy.write_pages(2, &[2u8; 256]).unwrap();
        assert_eq!(lossy.read_pages(2, 1).unwrap()[0], 2, "own write visible");
        assert_eq!(inner.read_pages(2, 1).unwrap()[0], 0, "but not yet stable");
        lossy.arm(1);
        lossy.write_pages(3, &[3u8; 256]).unwrap();
        assert!(lossy.write_pages(4, &[4u8; 256]).is_err(), "power is out");
        assert!(lossy.is_dead());
        assert!(lossy.sync().is_err());
        assert_eq!(inner.read_pages(1, 1).unwrap()[0], 1, "synced write kept");
        assert_eq!(inner.read_pages(2, 1).unwrap()[0], 0, "unsynced dropped");
        assert_eq!(inner.read_pages(3, 1).unwrap()[0], 0);
    }
}
