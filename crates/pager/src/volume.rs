//! Paged volumes: fixed arrays of pages with contiguous multi-page I/O.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use parking_lot::{on_volume_io, LockClass, TrackedMutex};

use crate::disk::{DiskModel, DiskProfile};
use crate::error::{Error, Result};
use crate::stats::IoStats;
use crate::PageId;

/// A shareable handle to a volume.
pub type SharedVolume = Arc<dyn Volume>;

/// A fixed-geometry array of pages supporting physically contiguous
/// multi-page reads and writes.
///
/// All methods take `&self`; implementations use interior mutability so
/// a volume can be shared between the buddy manager and the large object
/// manager. Every access goes through the volume's [`DiskModel`], which
/// is how the workspace measures the seek/transfer costs the paper
/// reports.
pub trait Volume: Send + Sync {
    /// Size of one page in bytes.
    fn page_size(&self) -> usize;

    /// Total number of pages in the volume.
    fn num_pages(&self) -> u64;

    /// Read `pages` physically contiguous pages starting at `start`
    /// into `buf` (which must be exactly `pages * page_size` bytes).
    fn read_into(&self, start: PageId, pages: u64, buf: &mut [u8]) -> Result<()>;

    /// Write a whole number of pages starting at `start`.
    fn write_pages(&self, start: PageId, data: &[u8]) -> Result<()>;

    /// Snapshot of the cumulative I/O counters.
    fn stats(&self) -> IoStats;

    /// Zero the I/O counters and park the simulated head.
    fn reset_stats(&self);

    /// Force all completed writes to stable storage (the commit-point
    /// barrier of a write-ahead log). In-memory volumes are trivially
    /// stable, so the default is a no-op; [`FileVolume`] issues a real
    /// fsync.
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Read `pages` contiguous pages starting at `start` into a fresh
    /// buffer.
    fn read_pages(&self, start: PageId, pages: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; (pages as usize) * self.page_size()];
        self.read_into(start, pages, &mut buf)?;
        Ok(buf)
    }

    /// Hit/miss counters of a caching layer, if this volume has one.
    /// Bare volumes report `None`; [`crate::CachedVolume`] overrides.
    /// This lets upper layers (the observability snapshots) surface
    /// cache effectiveness without downcasting.
    fn cache_stats(&self) -> Option<crate::CacheStats> {
        None
    }
}

fn check_access(start: PageId, pages: u64, volume_pages: u64) -> Result<()> {
    if start
        .checked_add(pages)
        .is_none_or(|end| end > volume_pages)
    {
        return Err(Error::OutOfBounds {
            start,
            pages,
            volume_pages,
        });
    }
    Ok(())
}

fn check_buffer(len: usize, page_size: usize) -> Result<u64> {
    if !len.is_multiple_of(page_size) {
        return Err(Error::UnalignedBuffer { len, page_size });
    }
    Ok((len / page_size) as u64)
}

/// A read buffer must be exactly `pages` pages long.
fn check_read_buffer(len: usize, pages: u64, page_size: usize) -> Result<usize> {
    let want = (pages as usize) * page_size;
    if len != want {
        return Err(Error::BufferSizeMismatch { len, want });
    }
    Ok(want)
}

/// An in-memory volume: the default substrate for experiments, where the
/// [`DiskModel`] supplies the simulated cost.
pub struct MemVolume {
    page_size: usize,
    num_pages: u64,
    // Bottom of the lock hierarchy (DESIGN.md §13): the volume mutex
    // *is* the I/O lock, so it is the only class that may cover disk
    // work and nothing may be acquired under it.
    // lock-class: inner = pager.volume rank = 80 io = allowed
    inner: TrackedMutex<MemInner>,
}

struct MemInner {
    data: Vec<u8>,
    disk: DiskModel,
}

impl MemVolume {
    /// Create a zero-filled volume of `num_pages` pages of `page_size`
    /// bytes, with the default (1992-vintage) disk profile.
    pub fn new(page_size: usize, num_pages: u64) -> Self {
        Self::with_profile(page_size, num_pages, DiskProfile::default())
    }

    /// Create a volume with an explicit disk timing profile.
    pub fn with_profile(page_size: usize, num_pages: u64, profile: DiskProfile) -> Self {
        assert!(page_size > 0, "page size must be positive");
        let bytes = (page_size as u64)
            .checked_mul(num_pages)
            .expect("volume size overflows");
        MemVolume {
            page_size,
            num_pages,
            inner: TrackedMutex::new(
                LockClass::allows_io("pager.volume"),
                MemInner {
                    data: vec![0u8; bytes as usize],
                    disk: DiskModel::new(profile),
                },
            ),
        }
    }

    /// Rebuild a volume from a raw byte image (e.g. the crash image a
    /// [`crate::FaultVolume`] reconstructed). The image length must be
    /// a whole number of pages.
    pub fn from_bytes(page_size: usize, image: Vec<u8>, profile: DiskProfile) -> Self {
        assert!(page_size > 0, "page size must be positive");
        assert!(
            image.len().is_multiple_of(page_size),
            "image of {} bytes is not a whole number of {page_size}-byte pages",
            image.len()
        );
        let num_pages = (image.len() / page_size) as u64;
        MemVolume {
            page_size,
            num_pages,
            inner: TrackedMutex::new(
                LockClass::allows_io("pager.volume"),
                MemInner {
                    data: image,
                    disk: DiskModel::new(profile),
                },
            ),
        }
    }

    /// Wrap in an [`Arc`] for sharing.
    pub fn shared(self) -> SharedVolume {
        Arc::new(self)
    }
}

impl Volume for MemVolume {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn read_into(&self, start: PageId, pages: u64, buf: &mut [u8]) -> Result<()> {
        on_volume_io("read");
        check_access(start, pages, self.num_pages)?;
        let want = check_read_buffer(buf.len(), pages, self.page_size)?;
        let mut inner = self.inner.lock();
        inner.disk.record_read(start, pages);
        let off = (start as usize) * self.page_size;
        buf.copy_from_slice(&inner.data[off..off + want]);
        Ok(())
    }

    fn write_pages(&self, start: PageId, data: &[u8]) -> Result<()> {
        on_volume_io("write");
        let pages = check_buffer(data.len(), self.page_size)?;
        check_access(start, pages, self.num_pages)?;
        let mut inner = self.inner.lock();
        inner.disk.record_write(start, pages);
        let off = (start as usize) * self.page_size;
        inner.data[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.inner.lock().disk.stats()
    }

    fn reset_stats(&self) {
        self.inner.lock().disk.reset();
    }

    fn sync(&self) -> Result<()> {
        // Trivially stable, but the lockdep witness still checks that
        // no I/O-forbidding latch covers the barrier.
        on_volume_io("sync");
        Ok(())
    }
}

/// A file-backed volume, for runs that should survive the process or
/// exceed memory. Uses ordinary seek+read/write on a preallocated file;
/// the [`DiskModel`] still supplies the *simulated* cost so experiment
/// output is deterministic across machines.
pub struct FileVolume {
    page_size: usize,
    num_pages: u64,
    // lock-class: inner = pager.volume rank = 80 io = allowed
    inner: TrackedMutex<FileInner>,
}

struct FileInner {
    file: File,
    disk: DiskModel,
}

impl FileVolume {
    /// Create (truncating) a file-backed volume of the given geometry.
    pub fn create<P: AsRef<Path>>(
        path: P,
        page_size: usize,
        num_pages: u64,
        profile: DiskProfile,
    ) -> Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(page_size as u64 * num_pages)?;
        Ok(FileVolume {
            page_size,
            num_pages,
            inner: TrackedMutex::new(
                LockClass::allows_io("pager.volume"),
                FileInner {
                    file,
                    disk: DiskModel::new(profile),
                },
            ),
        })
    }

    /// Open an existing volume file with known geometry.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize, profile: DiskProfile) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if page_size == 0 || !len.is_multiple_of(page_size as u64) {
            return Err(Error::UnalignedBuffer {
                len: len as usize,
                page_size,
            });
        }
        let num_pages = len / page_size as u64;
        Ok(FileVolume {
            page_size,
            num_pages,
            inner: TrackedMutex::new(
                LockClass::allows_io("pager.volume"),
                FileInner {
                    file,
                    disk: DiskModel::new(profile),
                },
            ),
        })
    }

    /// Wrap in an [`Arc`] for sharing.
    pub fn shared(self) -> SharedVolume {
        Arc::new(self)
    }
}

impl Volume for FileVolume {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn read_into(&self, start: PageId, pages: u64, buf: &mut [u8]) -> Result<()> {
        on_volume_io("read");
        check_access(start, pages, self.num_pages)?;
        check_read_buffer(buf.len(), pages, self.page_size)?;
        let mut inner = self.inner.lock();
        inner.disk.record_read(start, pages);
        inner
            .file
            .seek(SeekFrom::Start(start * self.page_size as u64))?;
        inner.file.read_exact(buf)?;
        Ok(())
    }

    fn write_pages(&self, start: PageId, data: &[u8]) -> Result<()> {
        on_volume_io("write");
        let pages = check_buffer(data.len(), self.page_size)?;
        check_access(start, pages, self.num_pages)?;
        let mut inner = self.inner.lock();
        inner.disk.record_write(start, pages);
        inner
            .file
            .seek(SeekFrom::Start(start * self.page_size as u64))?;
        inner.file.write_all(data)?;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.inner.lock().disk.stats()
    }

    fn reset_stats(&self) {
        self.inner.lock().disk.reset();
    }

    fn sync(&self) -> Result<()> {
        on_volume_io("sync");
        self.inner.lock().file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_volume_roundtrip() {
        let v = MemVolume::new(128, 64);
        let data: Vec<u8> = (0..128 * 3).map(|i| (i % 251) as u8).collect();
        v.write_pages(5, &data).unwrap();
        assert_eq!(v.read_pages(5, 3).unwrap(), data);
    }

    #[test]
    fn mem_volume_rejects_out_of_bounds() {
        let v = MemVolume::new(128, 4);
        assert!(matches!(v.read_pages(3, 2), Err(Error::OutOfBounds { .. })));
        assert!(matches!(
            v.write_pages(4, &[0u8; 128]),
            Err(Error::OutOfBounds { .. })
        ));
        // Overflow-proof.
        assert!(matches!(
            v.read_pages(u64::MAX, 2),
            Err(Error::OutOfBounds { .. })
        ));
    }

    #[test]
    fn mem_volume_rejects_unaligned_buffers() {
        let v = MemVolume::new(128, 4);
        assert!(matches!(
            v.write_pages(0, &[0u8; 100]),
            Err(Error::UnalignedBuffer { .. })
        ));
    }

    #[test]
    fn wrong_size_read_buffers_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("eos-pager-rdbuf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = FileVolume::create(dir.join("v.eos"), 128, 4, DiskProfile::FREE).unwrap();
        let vols: [&dyn Volume; 2] = [&MemVolume::new(128, 4), &file];
        for v in vols {
            for len in [0, 100, 256] {
                let err = v.read_into(0, 1, &mut vec![0u8; len]).unwrap_err();
                assert!(
                    matches!(err, Error::BufferSizeMismatch { len: l, want: 128 } if l == len),
                    "{len}-byte buffer for a 1-page read: {err:?}"
                );
            }
            assert_eq!(
                v.stats(),
                IoStats::default(),
                "a refused read costs nothing"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_volume_open_rejects_a_ragged_file_and_a_zero_page_size() {
        let dir = std::env::temp_dir().join(format!("eos-pager-ragged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.eos");
        std::fs::write(&path, vec![0u8; 256 * 3 + 17]).unwrap();
        for page_size in [256, 0] {
            assert!(matches!(
                FileVolume::open(&path, page_size, DiskProfile::FREE),
                Err(Error::UnalignedBuffer { len: 785, .. })
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_count_seeks_and_transfers() {
        let v = MemVolume::new(64, 100);
        v.write_pages(0, &vec![1u8; 64 * 10]).unwrap(); // seek 1
        v.read_pages(0, 5).unwrap(); // seek 2 (head was at 10)
        v.read_pages(5, 5).unwrap(); // sequential, no seek
        v.read_pages(50, 1).unwrap(); // seek 3
        let s = v.stats();
        assert_eq!(s.seeks, 3);
        assert_eq!(s.page_reads, 11);
        assert_eq!(s.page_writes, 10);
        v.reset_stats();
        assert_eq!(v.stats(), IoStats::default());
    }

    #[test]
    fn zero_page_reads_and_writes_are_legal() {
        let v = MemVolume::new(64, 8);
        assert!(v.read_pages(8, 0).unwrap().is_empty());
        v.write_pages(8, &[]).unwrap();
    }

    #[test]
    fn file_volume_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("eos-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vol.eos");
        {
            let v = FileVolume::create(&path, 256, 32, DiskProfile::FREE).unwrap();
            let data: Vec<u8> = (0..512).map(|i| (i * 7 % 256) as u8).collect();
            v.write_pages(10, &data).unwrap();
            assert_eq!(v.read_pages(10, 2).unwrap(), data);
        }
        {
            let v = FileVolume::open(&path, 256, DiskProfile::FREE).unwrap();
            assert_eq!(v.num_pages(), 32);
            let back = v.read_pages(10, 2).unwrap();
            assert_eq!(back[0], 0);
            assert_eq!(back[1], 7);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_volume_is_object_safe() {
        let v: SharedVolume = MemVolume::new(64, 8).shared();
        v.write_pages(0, &[9u8; 64]).unwrap();
        assert_eq!(v.read_pages(0, 1).unwrap()[0], 9);
    }
}
