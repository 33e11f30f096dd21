//! # eos-pager — paged volumes and a simulated disk cost model
//!
//! This crate is the storage substrate of the EOS reproduction
//! (Biliris, *An Efficient Database Storage Structure for Large Dynamic
//! Objects*, ICDE 1992). It provides:
//!
//! * [`Volume`] — a fixed-geometry array of pages with multi-page
//!   (physically contiguous) reads and writes, implemented in memory
//!   ([`MemVolume`]) and on a file ([`FileVolume`]).
//! * [`DiskModel`] — a deterministic cost model that counts **disk seeks**
//!   and **page transfers**, the two units in which the paper states every
//!   I/O cost ("the cost of 3 disk seeks plus the cost to transfer 6
//!   pages", §4.2), and converts them to simulated time via a
//!   [`DiskProfile`].
//! * [`IoStats`] — cumulative counters with snapshot/delta arithmetic so
//!   experiments can report the cost of a single operation.
//! * [`FaultVolume`] — the one fault-injecting wrapper the tests and
//!   benches share: a call journal plus a [`Plan`] of rules.
//!
//! The paper evaluated on raw disks of 1992 SunOS SparcStations; the disk
//! model substitutes a parametric simulation that preserves exactly the
//! quantities the paper reasons about (seek counts, transfer counts,
//! utilization), as documented in `DESIGN.md`.
//!
//! ## Example
//!
//! ```
//! use eos_pager::{MemVolume, Volume};
//!
//! let vol = MemVolume::new(4096, 1024); // 1024 pages of 4 KiB
//! vol.write_pages(10, &vec![7u8; 3 * 4096]).unwrap();
//! let back = vol.read_pages(10, 3).unwrap();
//! assert!(back.iter().all(|&b| b == 7));
//!
//! let stats = vol.stats();
//! assert_eq!(stats.page_writes, 3);
//! assert_eq!(stats.page_reads, 3);
//! // One seek to write, one to come back and read (the head moved on).
//! assert_eq!(stats.seeks, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod disk;
mod error;
mod fault;
mod stats;
mod volume;

pub use cache::{CacheStats, CachedVolume};
pub use disk::{DiskModel, DiskProfile};
pub use error::{Error, Result};
pub use fault::{Calls, Cut, Entry, FaultVolume, Persistence, Plan};
pub use stats::IoStats;
pub use volume::{FileVolume, MemVolume, SharedVolume, Volume};

/// Identifier of a page within a volume (zero-based).
pub type PageId = u64;

/// Number of pages a byte string of length `len` occupies when stored
/// with "no holes" (every page full except possibly the last, paper §4):
/// `ceil(len / page_size)`.
#[inline]
pub fn pages_for(len: u64, page_size: usize) -> u64 {
    let ps = page_size as u64;
    len.div_ceil(ps)
}

#[cfg(test)]
mod tests {
    use super::pages_for;

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0, 100), 0);
        assert_eq!(pages_for(1, 100), 1);
        assert_eq!(pages_for(100, 100), 1);
        assert_eq!(pages_for(101, 100), 2);
        assert_eq!(pages_for(1820, 100), 19); // Fig 5.a: ⌈1820/100⌉ = 19
    }
}
