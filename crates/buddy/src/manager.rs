//! Multi-space buddy manager: lays out a sequence of buddy spaces on a
//! volume, routes allocations through the superdirectory, and provides
//! the deferred-free ("release lock", §4.5) mechanism.
//!
//! Concurrency model: each space sits behind its **own** directory
//! latch (`buddy.space`, DESIGN.md §13/§17), so allocations and frees
//! in different spaces proceed in parallel — the superdirectory stays
//! a lock-free-ish belief cache consulted *before* a space latch is
//! taken, never while one is held (its class ranks above the space
//! class, §13). Callers can express **space affinity**: an allocation
//! hinted at space `i` probes `i` first and spills to the others only
//! under pressure, which is what keeps disjoint-object workloads on
//! disjoint latches.

use std::time::{Duration, Instant};

use eos_obs::Metrics;
use eos_pager::{PageId, SharedVolume};
use parking_lot::{Mutex, MutexGuard};

use crate::error::{Error, Result};
use crate::geometry::Geometry;
use crate::space::BuddySpace;
use crate::superdir::{SuperDirStats, SuperDirectory};

/// A run of physically contiguous allocated pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First volume page of the run.
    pub start: PageId,
    /// Length in pages.
    pub pages: u64,
}

impl Extent {
    /// One-past-the-last volume page.
    #[inline]
    pub fn end(&self) -> PageId {
        self.start + self.pages
    }
}

/// Token identifying a batch of deferred frees (one per transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FreeBatch(u64);

/// The disk space manager: several buddy spaces on one volume plus the
/// superdirectory. All allocation paths take `&self` — the per-space
/// latches and the pending-free latch carry the synchronization.
pub struct BuddyManager {
    // One directory latch per space (§17): a guard is held across the
    // space's in-memory directory work *and*, on the volatile path, its
    // single dir-page write (io = allowed), and is always dropped before
    // the superdirectory (rank 40) is updated — the belief is recorded
    // from a value read under the guard. Never hold two space guards at
    // once.
    // lock-class: spaces = buddy.space rank = 50 io = allowed
    spaces: Vec<Mutex<BuddySpace>>,
    superdir: SuperDirectory,
    use_superdir: bool,
    geometry: Geometry,
    pages_per_space: u64,
    // lock-class: pending = buddy.pending rank = 45 io = forbidden
    pending: Mutex<PendingFrees>,
    obs: Option<ObsHandles>,
}

/// Pre-resolved observability instruments. Resolving a handle takes the
/// registry's registration latch, so it happens once in
/// [`BuddyManager::set_metrics`]; recording afterwards is pure atomics
/// and therefore safe even around the `pending` latch (§4.5: record
/// *after* dropping the guard, never under it).
struct ObsHandles {
    alloc_pages: eos_obs::Histogram,
    free_pages: eos_obs::Histogram,
    nospace: eos_obs::Counter,
    coalesce_depth: eos_obs::Histogram,
    latch_wait_us: eos_obs::Histogram,
    latch_hold_us: eos_obs::Histogram,
    /// Per-space directory-latch wait times, indexed by space:
    /// `buddy.latch.wait_us.space.<i>` (§17 sharding evidence).
    space_latch_wait_us: Vec<eos_obs::Histogram>,
    pending_extents: eos_obs::Gauge,
}

#[derive(Debug, Default)]
struct PendingFrees {
    next_batch: u64,
    batches: Vec<(u64, Vec<Extent>)>,
}

impl BuddyManager {
    /// Format `num_spaces` spaces of `pages_per_space` data pages each,
    /// laid out back to back from volume page 0 (each space owns
    /// `pages_per_space + 1` volume pages, the first being its
    /// directory).
    pub fn create(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
    ) -> Result<BuddyManager> {
        let mut mgr = Self::create_unwritten(volume, num_spaces, pages_per_space);
        mgr.set_write_back(true);
        mgr.flush_directories()?;
        Ok(mgr)
    }

    /// [`Self::create`] in memory only, with write-back off: no
    /// directory page is written until [`Self::flush_directories`].
    /// Restart recovery rebuilds the allocation state this way and
    /// writes each directory once, at the end.
    // Constructors take the volume handle by value: callers hand over
    // their clone even though internally each space gets its own.
    #[allow(clippy::needless_pass_by_value)]
    pub fn create_unwritten(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
    ) -> BuddyManager {
        assert!(num_spaces > 0, "need at least one buddy space");
        let span = pages_per_space + 1;
        assert!(
            span * num_spaces as u64 <= volume.num_pages(),
            "volume too small for {num_spaces} spaces of {pages_per_space} pages"
        );
        let spaces = (0..num_spaces)
            .map(|i| BuddySpace::create_unwritten(volume.clone(), i as u64 * span, pages_per_space))
            .collect();
        Self::from_spaces(&volume, spaces, pages_per_space)
    }

    /// Reopen a previously formatted manager by reading every space
    /// directory. The superdirectory starts optimistic, exactly as the
    /// paper describes for start-up (§3.3).
    #[allow(clippy::needless_pass_by_value)]
    pub fn open(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
    ) -> Result<BuddyManager> {
        let span = pages_per_space + 1;
        let mut spaces = Vec::with_capacity(num_spaces);
        for i in 0..num_spaces {
            spaces.push(BuddySpace::open(
                volume.clone(),
                i as u64 * span,
                pages_per_space,
            )?);
        }
        Ok(Self::from_spaces(&volume, spaces, pages_per_space))
    }

    fn from_spaces(
        volume: &SharedVolume,
        spaces: Vec<BuddySpace>,
        pages_per_space: u64,
    ) -> BuddyManager {
        let optimistic = spaces[0].dir().space_max_type();
        BuddyManager {
            superdir: SuperDirectory::new(spaces.len(), optimistic),
            spaces: spaces.into_iter().map(Mutex::new).collect(),
            use_superdir: true,
            geometry: Geometry::for_page_size(volume.page_size()),
            pages_per_space,
            pending: Mutex::new(PendingFrees::default()),
            obs: None,
        }
    }

    /// Attach an observability domain: allocation/free size histograms
    /// (`buddy.alloc.pages` / `buddy.free.pages`), coalesce depth
    /// (`buddy.coalesce.depth`), directory-latch wait/hold times
    /// (`buddy.latch.wait_us` / `buddy.latch.hold_us` aggregate plus
    /// `buddy.latch.wait_us.space.<i>` per space, §4.5/§17), the
    /// pending-free backlog gauge (`buddy.pending.extents`) and the
    /// exhaustion counter (`buddy.alloc.nospace`).
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.obs = Some(ObsHandles {
            alloc_pages: metrics.histogram("buddy.alloc.pages"),
            free_pages: metrics.histogram("buddy.free.pages"),
            nospace: metrics.counter("buddy.alloc.nospace"),
            coalesce_depth: metrics.histogram("buddy.coalesce.depth"),
            latch_wait_us: metrics.histogram("buddy.latch.wait_us"),
            latch_hold_us: metrics.histogram("buddy.latch.hold_us"),
            space_latch_wait_us: (0..self.spaces.len())
                .map(|i| metrics.histogram(&format!("buddy.latch.wait_us.space.{i}")))
                .collect(),
            pending_extents: metrics.gauge("buddy.pending.extents"),
        });
    }

    /// Record one latch acquisition (the pending latch, or a space
    /// latch with `space = Some(i)`): how long the caller waited for
    /// the latch and how long it then held it. Called after the guard
    /// is dropped — the recording itself is atomics-only.
    fn note_latch(&self, space: Option<usize>, waited: Duration, total: Duration) {
        if let Some(obs) = &self.obs {
            let wait = duration_us(waited);
            obs.latch_wait_us.record(wait);
            obs.latch_hold_us
                .record(duration_us(total).saturating_sub(wait));
            if let Some(i) = space {
                if let Some(h) = obs.space_latch_wait_us.get(i) {
                    h.record(wait);
                }
            }
        }
    }

    /// Lock space `i`'s directory latch, timing the wait. Returns the
    /// guard plus the acquisition instant and wait, for `note_latch`
    /// once the guard is dropped.
    fn lock_space(&self, i: usize) -> (MutexGuard<'_, BuddySpace>, Instant, Duration) {
        let t0 = Instant::now();
        let g = self.spaces[i].lock();
        let waited = t0.elapsed();
        (g, t0, waited)
    }

    /// Choose whether every allocation and free writes its space's
    /// directory page (`true`, the volatile default and the paper's
    /// §3.3 cost) or leaves the page to [`Self::flush_directories`].
    /// Durable stores turn it off: recovery rebuilds the directories
    /// from the log, so no reader depends on the per-call writes.
    pub fn set_write_back(&mut self, on: bool) {
        for s in &mut self.spaces {
            s.get_mut().set_write_back(on);
        }
    }

    /// Write every space's directory page (one page write per space).
    pub fn flush_directories(&self) -> Result<()> {
        for s in &self.spaces {
            s.lock().flush()?;
        }
        Ok(())
    }

    /// Disable the superdirectory (every allocation probes each space in
    /// turn) — the baseline of experiment E8.
    pub fn set_use_superdirectory(&mut self, on: bool) {
        self.use_superdir = on;
    }

    /// Geometry shared by all spaces.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Largest segment (in pages) this manager can ever hand out.
    pub fn max_extent_pages(&self) -> u64 {
        self.geometry.max_seg_pages().min(self.pages_per_space)
    }

    /// Allocate `pages` physically contiguous pages from some space
    /// (probing from space 0 — use [`Self::allocate_near`] to express
    /// affinity).
    pub fn allocate(&self, pages: u64) -> Result<Extent> {
        self.allocate_near(pages, 0)
    }

    /// Allocate `pages` physically contiguous pages, probing space
    /// `preferred` first and wrapping through the others only on
    /// pressure. This is the §17 affinity path: callers that shard
    /// their objects across spaces keep disjoint workloads on disjoint
    /// space latches.
    pub fn allocate_near(&self, pages: u64, preferred: usize) -> Result<Extent> {
        if pages == 0 {
            return Err(Error::ZeroPages);
        }
        if pages > self.max_extent_pages() {
            if let Some(obs) = &self.obs {
                obs.nospace.inc();
            }
            return Err(Error::NoSpace {
                requested_pages: pages,
            });
        }
        let t = self.geometry.type_for(pages);
        let n = self.spaces.len();
        for k in 0..n {
            let i = (preferred + k) % n;
            if self.use_superdir {
                if !self.superdir.should_probe(i, t) {
                    continue;
                }
            } else {
                // Count the probe for the E8 baseline.
                self.superdir.count_probe();
            }
            // The space guard covers the probe and the belief read; it
            // drops before the superdirectory (rank 40) is touched.
            let (mut sp, t0, waited) = self.lock_space(i);
            let r = sp.allocate(pages);
            let belief = sp.largest_free_type();
            drop(sp);
            self.note_latch(Some(i), waited, t0.elapsed());
            self.superdir.record(i, belief);
            match r {
                Ok(start) => {
                    if let Some(obs) = &self.obs {
                        obs.alloc_pages.record(pages);
                    }
                    return Ok(Extent { start, pages });
                }
                Err(Error::NoSpace { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if let Some(obs) = &self.obs {
            obs.nospace.inc();
        }
        Err(Error::NoSpace {
            requested_pages: pages,
        })
    }

    /// Allocate at most `pages`, falling back to successively halved
    /// requests (used by the object growth policy when the database is
    /// nearly full). Returns the extent actually obtained.
    pub fn allocate_up_to(&self, pages: u64) -> Result<Extent> {
        self.allocate_up_to_near(pages, 0)
    }

    /// [`Self::allocate_up_to`] with a preferred space (§17 affinity).
    pub fn allocate_up_to_near(&self, pages: u64, preferred: usize) -> Result<Extent> {
        let mut want = pages.min(self.max_extent_pages());
        loop {
            match self.allocate_near(want, preferred) {
                Ok(e) => return Ok(e),
                Err(Error::NoSpace { .. }) if want > 1 => want /= 2,
                Err(e) => return Err(e),
            }
        }
    }

    /// The space whose page range contains volume page `start`.
    pub fn space_of(&self, start: PageId) -> usize {
        (start / (self.pages_per_space + 1)) as usize
    }

    /// Allocate a specific free range (fixed-location structures such
    /// as a boot page). The range must lie inside one space.
    pub fn allocate_at(&self, start: PageId, pages: u64) -> Result<Extent> {
        let i = self.space_of(start);
        if i >= self.spaces.len() {
            return Err(Error::NoSuchSpace { space: i });
        }
        let (mut sp, t0, waited) = self.lock_space(i);
        let r = sp.allocate_at(start, pages);
        let belief = sp.largest_free_type();
        drop(sp);
        self.note_latch(Some(i), waited, t0.elapsed());
        self.superdir.record(i, belief);
        r?;
        Ok(Extent { start, pages })
    }

    /// Free part or all of an allocated extent immediately.
    pub fn free(&self, start: PageId, pages: u64) -> Result<()> {
        let i = self.space_of(start);
        if i >= self.spaces.len() {
            return Err(Error::NoSuchSpace { space: i });
        }
        let (mut sp, t0, waited) = self.lock_space(i);
        let merges_before = sp.dir().coalesce_merges();
        let r = sp.free(start, pages);
        let belief = sp.largest_free_type();
        let merges = sp.dir().coalesce_merges() - merges_before;
        drop(sp);
        self.note_latch(Some(i), waited, t0.elapsed());
        self.superdir.record(i, belief);
        r?;
        if let Some(obs) = &self.obs {
            obs.free_pages.record(pages);
            obs.coalesce_depth.record(merges);
        }
        Ok(())
    }

    /// Open a new batch of deferred frees. Segments freed into a batch
    /// stay allocated on disk — the §4.5 "release lock": nobody can
    /// reuse them — until the batch is committed.
    pub fn begin_free_batch(&self) -> FreeBatch {
        let t0 = Instant::now();
        let mut g = self.pending.lock();
        let waited = t0.elapsed();
        g.next_batch += 1;
        let id = g.next_batch;
        g.batches.push((id, Vec::new()));
        drop(g);
        self.note_latch(None, waited, t0.elapsed());
        FreeBatch(id)
    }

    /// Defer freeing an extent until `batch` commits.
    pub fn defer_free(&self, batch: FreeBatch, extent: Extent) {
        let t0 = Instant::now();
        let mut g = self.pending.lock();
        let waited = t0.elapsed();
        let slot = g
            .batches
            .iter_mut()
            .find(|(id, _)| *id == batch.0)
            .expect("unknown free batch");
        slot.1.push(extent);
        drop(g);
        self.note_latch(None, waited, t0.elapsed());
        if let Some(obs) = &self.obs {
            obs.pending_extents.add(1);
        }
    }

    /// Apply every deferred free in the batch (transaction commit).
    pub fn commit_frees(&self, batch: FreeBatch) -> Result<()> {
        let t0 = Instant::now();
        let mut g = self.pending.lock();
        let waited = t0.elapsed();
        let idx = g
            .batches
            .iter()
            .position(|(id, _)| *id == batch.0)
            .expect("unknown free batch");
        let extents = g.batches.remove(idx).1;
        // The latch is short-duration by construction: it is released
        // here, before any of the directory-page I/O the frees incur.
        drop(g);
        self.note_latch(None, waited, t0.elapsed());
        if let Some(obs) = &self.obs {
            obs.pending_extents.sub(extents.len() as u64);
        }
        for e in extents {
            self.free(e.start, e.pages)?;
        }
        Ok(())
    }

    /// Drop the batch without freeing anything (transaction abort — the
    /// segments remain allocated, which undoes the logical free).
    pub fn abort_frees(&self, batch: FreeBatch) {
        let t0 = Instant::now();
        let mut g = self.pending.lock();
        let waited = t0.elapsed();
        let dropped = g
            .batches
            .iter()
            .position(|(id, _)| *id == batch.0)
            .map(|idx| g.batches.remove(idx).1.len())
            .unwrap_or(0);
        drop(g);
        self.note_latch(None, waited, t0.elapsed());
        if let Some(obs) = &self.obs {
            obs.pending_extents.sub(dropped as u64);
        }
    }

    /// Total free pages across all spaces.
    pub fn total_free_pages(&self) -> u64 {
        self.spaces.iter().map(|s| s.lock().free_pages()).sum()
    }

    /// Total data pages across all spaces.
    pub fn total_data_pages(&self) -> u64 {
        self.pages_per_space * self.spaces.len() as u64
    }

    /// Superdirectory probe counters (experiment E8).
    pub fn superdir_stats(&self) -> SuperDirStats {
        self.superdir.stats()
    }

    /// The superdirectory's cached belief about the largest free
    /// segment type in space `i` (§3.2: optimistic, possibly stale —
    /// exposed so `eos-check` can compare it against recomputed truth).
    pub fn superdir_belief(&self, i: usize) -> Option<u8> {
        self.superdir.belief(i)
    }

    /// Total pages deferred into one open batch — what an MVCC
    /// reclaimer reports as "held back for readers" before deciding
    /// whether committing the batch is worth parking. Zero for a batch
    /// that was already committed or aborted.
    pub fn batch_page_count(&self, batch: FreeBatch) -> u64 {
        let g = self.pending.lock();
        g.batches
            .iter()
            .find(|(id, _)| *id == batch.0)
            .map_or(0, |(_, v)| v.iter().map(|e| e.pages).sum())
    }

    /// Every extent sitting in an open (uncommitted) free batch. These
    /// are logically free but still allocated on disk (§4.5 release
    /// locks), so a consistency census must not count them as leaked.
    pub fn pending_free_extents(&self) -> Vec<Extent> {
        let g = self.pending.lock();
        g.batches
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Zero the superdirectory probe counters.
    pub fn reset_superdir_stats(&self) {
        self.superdir.reset_stats();
    }

    /// Lock a space for direct mutation, *bypassing* the superdirectory
    /// (its belief about the space goes stale). A fault-injection hook
    /// for consistency-check tests; regular allocation must go through
    /// the manager. Never hold two space guards at once.
    pub fn space_mut(&self, i: usize) -> MutexGuard<'_, BuddySpace> {
        self.spaces[i].lock()
    }

    /// Lock a space for inspection. Never hold two space guards at
    /// once, and drop the guard before calling back into the manager.
    pub fn space(&self, i: usize) -> MutexGuard<'_, BuddySpace> {
        self.spaces[i].lock()
    }

    /// Number of spaces.
    pub fn num_spaces(&self) -> usize {
        self.spaces.len()
    }

    /// Verify every space directory (test/diagnostic hook).
    pub fn check_invariants(&self) -> Result<()> {
        for s in &self.spaces {
            s.lock().dir().check_invariants()?;
        }
        Ok(())
    }

    /// External-fragmentation summary across all spaces: the free-space
    /// histogram by segment type, the largest allocatable run, and the
    /// fraction of free space usable for a maximum-size request. (EOS
    /// has no internal fragmentation by construction — "the unused
    /// portion of an allocated segment is always less than a page" —
    /// so external fragmentation is the quantity worth watching.)
    pub fn fragmentation(&self) -> Fragmentation {
        let entries = self.geometry.count_entries();
        let mut by_type = vec![0u64; entries];
        let mut largest = 0u64;
        for s in &self.spaces {
            let sp = s.lock();
            for (t, &c) in sp.dir().counts().iter().enumerate() {
                by_type[t] += c as u64;
                if c > 0 {
                    largest = largest.max(1u64 << t);
                }
            }
        }
        let free_pages: u64 = by_type.iter().enumerate().map(|(t, &c)| c << t).sum();
        Fragmentation {
            free_pages,
            largest_free_run: largest,
            free_segments_by_type: by_type,
        }
    }
}

/// Microseconds of a `Duration`, clamped to `u64`.
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Snapshot of free-space shape (see [`BuddyManager::fragmentation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragmentation {
    /// Total free pages.
    pub free_pages: u64,
    /// Largest contiguous power-of-two run available.
    pub largest_free_run: u64,
    /// `free_segments_by_type[t]` = free segments of `2^t` pages.
    pub free_segments_by_type: Vec<u64>,
}

impl Fragmentation {
    /// Fraction of free space sitting in runs of at least `pages`
    /// (1.0 = perfectly coalesced for such requests).
    pub fn usable_for(&self, pages: u64) -> f64 {
        if self.free_pages == 0 {
            return 1.0;
        }
        let usable: u64 = self
            .free_segments_by_type
            .iter()
            .enumerate()
            .filter(|&(t, _)| (1u64 << t) >= pages)
            .map(|(t, &c)| c << t)
            .sum();
        usable as f64 / self.free_pages as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_pager::{DiskProfile, MemVolume};

    fn manager(spaces: usize, pages: u64) -> BuddyManager {
        let vol = MemVolume::with_profile(512, (pages + 1) * spaces as u64 + 8, DiskProfile::FREE)
            .shared();
        BuddyManager::create(vol, spaces, pages).unwrap()
    }

    #[test]
    fn allocations_spill_to_later_spaces() {
        let m = manager(3, 64);
        let a = m.allocate(64).unwrap();
        let b = m.allocate(64).unwrap();
        let c = m.allocate(64).unwrap();
        assert_eq!(a.start, 1);
        assert_eq!(b.start, 66); // space 1: dir at 65
        assert_eq!(c.start, 131);
        assert!(matches!(m.allocate(1), Err(Error::NoSpace { .. })));
        m.free(b.start, b.pages).unwrap();
        let d = m.allocate(32).unwrap();
        assert_eq!(d.start, 66);
        m.check_invariants().unwrap();
    }

    #[test]
    fn affinity_hint_routes_to_preferred_space() {
        let m = manager(3, 64);
        let a = m.allocate_near(8, 2).unwrap();
        assert_eq!(m.space_of(a.start), 2, "hinted space honored");
        let b = m.allocate_near(8, 1).unwrap();
        assert_eq!(m.space_of(b.start), 1);
        // Pressure spills past the hint: fill space 0, then hint at it.
        m.allocate_near(64, 0).unwrap();
        let c = m.allocate_near(32, 0).unwrap();
        assert_ne!(m.space_of(c.start), 0, "full space spills to the next");
        m.check_invariants().unwrap();
    }

    #[test]
    fn superdirectory_learns_and_avoids_probes() {
        let m = manager(4, 64);
        // Fill spaces 0 and 1.
        m.allocate(64).unwrap();
        m.allocate(64).unwrap();
        m.reset_superdir_stats();
        // A fresh 64-page request should skip spaces 0 and 1 entirely.
        m.allocate(64).unwrap();
        let s = m.superdir_stats();
        assert_eq!(s.probes_avoided, 2);
        assert_eq!(s.probes_made, 1);
    }

    #[test]
    fn without_superdirectory_every_space_is_probed() {
        let mut m = manager(4, 64);
        m.set_use_superdirectory(false);
        m.allocate(64).unwrap();
        m.allocate(64).unwrap();
        m.reset_superdir_stats();
        m.allocate(64).unwrap();
        let s = m.superdir_stats();
        assert_eq!(s.probes_made, 3, "spaces 0, 1 and 2 all probed");
        assert_eq!(s.probes_avoided, 0);
    }

    #[test]
    fn allocate_up_to_halves_on_pressure() {
        let m = manager(1, 64);
        m.allocate(48).unwrap(); // leaves 16 free
        let e = m.allocate_up_to(64).unwrap();
        assert_eq!(e.pages, 16);
    }

    #[test]
    fn oversized_requests_are_rejected() {
        let m = manager(1, 64);
        assert!(matches!(m.allocate(65), Err(Error::NoSpace { .. })));
        assert!(matches!(m.allocate(0), Err(Error::ZeroPages)));
    }

    #[test]
    fn deferred_frees_hold_space_until_commit() {
        let m = manager(1, 64);
        let e = m.allocate(64).unwrap();
        let batch = m.begin_free_batch();
        m.defer_free(batch, e);
        // The pages are still held: release locks block reallocation.
        assert!(matches!(m.allocate(1), Err(Error::NoSpace { .. })));
        m.commit_frees(batch).unwrap();
        assert_eq!(m.total_free_pages(), 64);
        m.allocate(1).unwrap();
    }

    #[test]
    fn aborted_batch_keeps_segments_allocated() {
        let m = manager(1, 64);
        let e = m.allocate(32).unwrap();
        let batch = m.begin_free_batch();
        m.defer_free(batch, e);
        m.abort_frees(batch);
        assert_eq!(m.total_free_pages(), 32, "the free never happened");
        // The extent is still valid and can be freed for real later.
        m.free(e.start, e.pages).unwrap();
        assert_eq!(m.total_free_pages(), 64);
    }

    #[test]
    fn fragmentation_reports_free_shape() {
        let m = manager(1, 64);
        let f = m.fragmentation();
        assert_eq!(f.free_pages, 64);
        assert_eq!(f.largest_free_run, 64);
        assert_eq!(f.usable_for(64), 1.0);
        // Punch holes: allocate 32, then 8, free the 32.
        let a = m.allocate(32).unwrap();
        let _b = m.allocate(8).unwrap();
        m.free(a.start, a.pages).unwrap();
        let f = m.fragmentation();
        assert_eq!(f.free_pages, 56);
        assert_eq!(f.largest_free_run, 32);
        assert!(f.usable_for(64) == 0.0);
        assert!(f.usable_for(32) > 0.5);
        assert_eq!(f.usable_for(1), 1.0);
    }

    #[test]
    fn metrics_capture_alloc_free_and_latch_activity() {
        let mut m = manager(1, 64);
        let metrics = Metrics::new();
        m.set_metrics(&metrics);
        let a = m.allocate(8).unwrap();
        let b = m.allocate(8).unwrap();
        m.free(a.start, a.pages).unwrap();
        // Freeing b's 8 pages next to a's free 8 coalesces at least once.
        m.free(b.start, b.pages).unwrap();
        let batch = m.begin_free_batch();
        let c = m.allocate(4).unwrap();
        m.defer_free(batch, c);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("buddy.pending.extents"), Some(1));
        m.commit_frees(batch).unwrap();
        assert!(matches!(m.allocate(1000), Err(Error::NoSpace { .. })));
        let snap = metrics.snapshot();
        assert_eq!(snap.histogram("buddy.alloc.pages").unwrap().count, 3);
        assert_eq!(snap.histogram("buddy.alloc.pages").unwrap().sum, 20);
        assert_eq!(snap.histogram("buddy.free.pages").unwrap().sum, 20);
        assert_eq!(snap.counter("buddy.alloc.nospace"), Some(1));
        assert_eq!(snap.gauge("buddy.pending.extents"), Some(0));
        assert!(snap.histogram("buddy.coalesce.depth").unwrap().sum >= 1);
        assert!(snap.histogram("buddy.latch.wait_us").unwrap().count >= 3);
        // Per-space latch traffic lands on the space-indexed histogram.
        assert!(
            snap.histogram("buddy.latch.wait_us.space.0")
                .map(|h| h.count)
                .unwrap_or(0)
                >= 3
        );
    }

    #[test]
    fn free_routes_to_the_right_space() {
        let m = manager(2, 64);
        let a = m.allocate(10).unwrap();
        let b = m.allocate(64).unwrap();
        assert!(b.start > 64);
        m.free(b.start, 64).unwrap();
        m.free(a.start, 10).unwrap();
        assert_eq!(m.total_free_pages(), 128);
        m.check_invariants().unwrap();
    }
}
