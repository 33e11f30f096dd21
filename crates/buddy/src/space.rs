//! A buddy space bound to a volume: the 1-page directory plus its run of
//! data pages (Fig 1).
//!
//! All allocation state lives in the directory page; data pages are
//! never touched by the allocator. The directory is decoded once when
//! the space is opened. On the volatile path (the default) it is
//! written back (one page write) after every mutation, so the volume's
//! I/O counters exhibit the paper's §3.3 claim: one disk access per
//! allocation or deallocation, regardless of segment size.
//!
//! A durable store turns write-back off
//! ([`crate::BuddyManager::set_write_back`]):
//! its restart recovery rebuilds every directory from the log's
//! committed roots, so the on-disk page is a cache written only at
//! format time and at the end of that rebuild (DESIGN.md §7).

use eos_pager::{PageId, SharedVolume};

use crate::dir::SpaceDir;
use crate::error::{Error, Result};
use crate::geometry::Geometry;

/// A buddy segment space on a volume.
pub struct BuddySpace {
    volume: SharedVolume,
    /// Volume page holding the directory.
    dir_page: PageId,
    /// Volume page of data page 0 (`dir_page + 1`).
    data_base: PageId,
    dir: SpaceDir,
    /// Write the directory page after every mutation (the volatile
    /// path). Off on durable stores, whose directories recovery rebuilds.
    write_back: bool,
}

impl BuddySpace {
    /// Format a fresh space: directory at `base_page`, `data_pages` data
    /// pages directly after it. Writes the initial directory page.
    pub fn create(volume: SharedVolume, base_page: PageId, data_pages: u64) -> Result<BuddySpace> {
        let mut space = Self::create_unwritten(volume, base_page, data_pages);
        space.write_back = true;
        space.flush()?;
        Ok(space)
    }

    /// [`Self::create`] in memory only, with write-back off: the
    /// directory page reaches the volume at the first [`Self::flush`].
    pub(crate) fn create_unwritten(
        volume: SharedVolume,
        base_page: PageId,
        data_pages: u64,
    ) -> BuddySpace {
        let geometry = Geometry::for_page_size(volume.page_size());
        BuddySpace {
            volume,
            dir_page: base_page,
            data_base: base_page + 1,
            dir: SpaceDir::create(geometry, data_pages),
            write_back: false,
        }
    }

    /// Open an existing space by reading and validating its directory
    /// page (one page read).
    pub fn open(volume: SharedVolume, base_page: PageId, data_pages: u64) -> Result<BuddySpace> {
        let geometry = Geometry::for_page_size(volume.page_size());
        let page = volume.read_pages(base_page, 1)?;
        let dir = SpaceDir::from_page(geometry, data_pages, &page)?;
        Ok(BuddySpace {
            volume,
            dir_page: base_page,
            data_base: base_page + 1,
            dir,
            write_back: true,
        })
    }

    /// Write the directory page back to the volume.
    pub fn flush(&mut self) -> Result<()> {
        self.volume
            .write_pages(self.dir_page, &self.dir.to_page())?;
        Ok(())
    }

    /// Choose whether every allocation and free writes the directory
    /// page (`true`) or only [`Self::flush`] does. On for `create` and
    /// `open`, off for `create_unwritten`.
    pub(crate) fn set_write_back(&mut self, on: bool) {
        self.write_back = on;
    }

    /// The per-mutation write of the volatile path.
    fn maybe_flush(&mut self) -> Result<()> {
        if self.write_back {
            self.flush()?;
        }
        Ok(())
    }

    /// Allocate `pages` physically contiguous pages (any size, page
    /// precision). Returns the first **volume** page of the run.
    pub fn allocate(&mut self, pages: u64) -> Result<PageId> {
        let data_page = self.dir.alloc_any(pages)?;
        self.maybe_flush()?;
        Ok(self.data_base + data_page)
    }

    /// Allocate a specific free range starting at **volume** page
    /// `start` (fixed-location structures like boot pages).
    pub fn allocate_at(&mut self, start: PageId, pages: u64) -> Result<()> {
        let data_page = self.to_data_page(start)?;
        self.dir.alloc_at(data_page, pages)?;
        self.maybe_flush()?;
        Ok(())
    }

    /// Free `pages` pages starting at **volume** page `start` (any
    /// portion of previously allocated segments).
    pub fn free(&mut self, start: PageId, pages: u64) -> Result<()> {
        let data_page = self.to_data_page(start)?;
        self.dir.free_range(data_page, pages)?;
        self.maybe_flush()?;
        Ok(())
    }

    /// Translate a volume page into this space's data-page numbering.
    fn to_data_page(&self, volume_page: PageId) -> Result<u64> {
        if volume_page < self.data_base || volume_page >= self.data_base + self.dir.data_pages() {
            return Err(Error::OutOfSpaceBounds {
                start: volume_page,
                pages: 1,
            });
        }
        Ok(volume_page - self.data_base)
    }

    /// Volume page of the directory.
    pub fn dir_page(&self) -> PageId {
        self.dir_page
    }

    /// Volume page of data page 0.
    pub fn data_base(&self) -> PageId {
        self.data_base
    }

    /// Total volume pages occupied (directory + data).
    pub fn span_pages(&self) -> u64 {
        1 + self.dir.data_pages()
    }

    /// The decoded directory (for inspection and experiments).
    pub fn dir(&self) -> &SpaceDir {
        &self.dir
    }

    /// Type of the largest free segment, or `None` when full.
    pub fn largest_free_type(&self) -> Option<u8> {
        self.dir.largest_free_type()
    }

    /// Free pages remaining.
    pub fn free_pages(&self) -> u64 {
        self.dir.free_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_pager::{DiskProfile, MemVolume};

    fn mem(pages: u64) -> SharedVolume {
        MemVolume::with_profile(512, pages, DiskProfile::FREE).shared()
    }

    #[test]
    fn create_allocate_free_roundtrip() {
        let vol = mem(200);
        let mut s = BuddySpace::create(vol.clone(), 0, 128).unwrap();
        let a = s.allocate(11).unwrap();
        assert_eq!(a, 1, "first data page sits right after the directory");
        let b = s.allocate(5).unwrap();
        assert!(b >= a + 11);
        s.free(a, 11).unwrap();
        s.free(b, 5).unwrap();
        assert_eq!(s.free_pages(), 128);
        s.dir().check_invariants().unwrap();
    }

    #[test]
    fn one_page_write_per_allocation_regardless_of_size() {
        // §3.3: "at most one disk access is needed to serve block
        // allocation (and deallocation) requests, regardless of the
        // segment size."
        let vol = mem(2000);
        let mut s = BuddySpace::create(vol.clone(), 0, 1024).unwrap();
        for req in [1u64, 7, 64, 512] {
            let before = vol.stats();
            let p = s.allocate(req).unwrap();
            let after = vol.stats();
            assert_eq!(after.page_writes - before.page_writes, 1, "alloc {req}");
            assert_eq!(after.page_reads, before.page_reads);
            let before = vol.stats();
            s.free(p, req).unwrap();
            let after = vol.stats();
            assert_eq!(after.page_writes - before.page_writes, 1, "free {req}");
        }
    }

    #[test]
    fn without_write_back_only_flush_writes_the_directory() {
        let vol = mem(200);
        let mut s = BuddySpace::create(vol.clone(), 0, 128).unwrap();
        s.set_write_back(false);
        let before = vol.stats();
        let a = s.allocate(11).unwrap();
        s.allocate_at(a + 16, 4).unwrap();
        s.free(a, 11).unwrap();
        assert_eq!(vol.stats().page_writes, before.page_writes);
        s.flush().unwrap();
        assert_eq!(vol.stats().page_writes, before.page_writes + 1);
        let reopened = BuddySpace::open(vol.clone(), 0, 128).unwrap();
        assert_eq!(
            reopened.free_pages(),
            124,
            "the flush carries every mutation"
        );
    }

    #[test]
    fn open_rehydrates_state() {
        let vol = mem(200);
        let a;
        {
            let mut s = BuddySpace::create(vol.clone(), 3, 64).unwrap();
            a = s.allocate(10).unwrap();
        }
        let mut s = BuddySpace::open(vol.clone(), 3, 64).unwrap();
        assert_eq!(s.free_pages(), 54);
        s.free(a, 10).unwrap();
        assert_eq!(s.free_pages(), 64);
    }

    #[test]
    fn free_of_foreign_page_is_rejected() {
        let vol = mem(200);
        let mut s = BuddySpace::create(vol.clone(), 10, 64).unwrap();
        assert!(matches!(s.free(5, 1), Err(Error::OutOfSpaceBounds { .. })));
        assert!(matches!(
            s.free(10, 1), // the directory page itself
            Err(Error::OutOfSpaceBounds { .. })
        ));
    }

    #[test]
    fn allocator_never_touches_data_pages() {
        let vol = mem(600);
        let mut s = BuddySpace::create(vol.clone(), 0, 512).unwrap();
        vol.reset_stats();
        let mut extents = Vec::new();
        for i in 1..20u64 {
            extents.push((s.allocate(i).unwrap(), i));
        }
        for (p, n) in extents {
            s.free(p, n).unwrap();
        }
        let stats = vol.stats();
        // Every write was the single directory page.
        assert_eq!(stats.page_writes, 19 + 19);
        assert_eq!(stats.page_reads, 0);
    }
}
