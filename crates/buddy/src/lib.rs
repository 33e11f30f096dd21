//! # eos-buddy — the binary buddy disk space manager of EOS
//!
//! Implements §3 of Biliris, *"An Efficient Database Storage Structure
//! for Large Dynamic Objects"* (ICDE 1992):
//!
//! * [`Geometry`] — page-size-derived limits (max segment type, map
//!   length, maximum buddy-space size).
//! * [`AMap`] — the Figure 2 allocation-map byte encoding: big-segment
//!   headers, individual page bits, continuation bytes.
//! * [`SpaceDir`] — one buddy space's directory page (count array +
//!   amap) with the §3.1 free-segment walk, §3.2 power-of-two
//!   split/coalesce, any-size allocation (Fig 4) and partial frees.
//! * [`BuddySpace`] — a directory bound to a volume region; on the
//!   volatile path every mutation costs exactly one directory-page
//!   write (§3.3), a durable store writes it only on demand; data pages
//!   are never touched.
//! * [`SuperDirectory`] — the latch-protected in-memory cache of the
//!   largest free segment per space (§3.3).
//! * [`BuddyManager`] — multi-space allocation with superdirectory
//!   routing and deferred frees (the §4.5 "release locks").
//!
//! ## Example
//!
//! ```
//! use eos_buddy::BuddyManager;
//! use eos_pager::{DiskProfile, MemVolume};
//!
//! let vol = MemVolume::with_profile(4096, 2048, DiskProfile::FREE).shared();
//! let mut mgr = BuddyManager::create(vol, 2, 1000).unwrap();
//!
//! // Any-size allocation with one-page precision (Fig 4).
//! let ext = mgr.allocate(11).unwrap();
//! assert_eq!(ext.pages, 11);
//!
//! // Free any portion of it.
//! mgr.free(ext.start + 3, 7).unwrap();
//! mgr.free(ext.start, 3).unwrap();
//! mgr.free(ext.start + 10, 1).unwrap();
//! assert_eq!(mgr.total_free_pages(), 2000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amap;
mod dir;
mod error;
mod geometry;
mod manager;
mod space;
mod superdir;

pub use amap::{AMap, SegDesc, SegState, ALLOC_FLAG, BIG_FLAG, TYPE_MASK};
pub use dir::SpaceDir;
pub use error::{Error, Result};
pub use geometry::Geometry;
pub use manager::{BuddyManager, Extent, Fragmentation, FreeBatch};
pub use space::BuddySpace;
pub use superdir::{SuperDirStats, SuperDirectory};
