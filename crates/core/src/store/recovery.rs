//! Restart recovery for durable stores (§4.5 made whole-volume).
//!
//! A durable volume carries three kinds of state: the data/index pages
//! of the objects, the buddy directories, and the log region. After a
//! power loss only the log is trusted:
//!
//! 1. **Scan** — [`StripedWal::attach`] replays each stripe's active
//!    log half up to its torn tail, merges the stripes by LSN, settles
//!    cross-stripe commits (all parts durable → committed, else
//!    presumed aborted), and yields the committed root map and the
//!    uncommitted pending tail.
//! 2. **Undo** — the before-images of any uncommitted `replace` are
//!    written back, newest first. Every other operation was shadowed,
//!    so its effects live only on pages no committed root references —
//!    ignoring them *is* the rollback.
//! 3. **Rebuild** — the buddy directories are reformatted in memory and
//!    the allocation bitmap is reconstructed from scratch: the boot page
//!    plus every page extent reachable from a committed root. This one
//!    stroke reconciles everything the crash could have left behind —
//!    half-applied deferred frees, allocations of the doomed
//!    transaction, a stale superdirectory — because none of that state
//!    is an input. The rebuilt directories are written once per space
//!    at its end; a durable store writes them at no other time after
//!    format (no per-allocation write-back, DESIGN.md §7).
//! 4. **Checkpoint** — the recovered map is written as a fresh
//!    checkpoint, so a second crash during or right after recovery just
//!    repeats it (recovery is idempotent and never writes a committed
//!    page).
//!
//! Redo needs no separate pass: the commit record itself carries the
//! final root of every touched object, and shadowing guarantees the
//! pages those roots point at were on disk before the commit record
//! was.

use eos_buddy::BuddyManager;
use eos_obs::{Metrics, OpKind, PipeKind};
use eos_pager::SharedVolume;

use std::sync::Arc;

use crate::config::StoreConfig;
use crate::durable::WalEntry;
use crate::error::{Error, Result};
use crate::object::LargeObject;
use crate::striped::StripedWal;

use super::ObjectStore;

/// What [`ObjectStore::open_durable`] found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Every committed object, rebuilt from the log's root map.
    pub objects: Vec<LargeObject>,
    /// Log records the attach scan replayed.
    pub records_scanned: u64,
    /// Whether the scan cut a torn record off the tail of the log.
    pub torn_tail: bool,
    /// Uncommitted operations rolled back (the pending tail).
    pub rolled_back_ops: u64,
    /// Pages restored from `replace` before-images during undo.
    pub restored_pages: u64,
    /// Highest LSN in the recovered log.
    pub max_lsn: u64,
}

impl ObjectStore {
    /// Like [`ObjectStore::create`], plus a freshly formatted log
    /// region of `wal_pages` pages placed directly after the buddy
    /// spaces (the volume must have room: `(pages_per_space + 1) *
    /// num_spaces + wal_pages` pages). The returned store logs every
    /// mutating operation; reopen it with [`ObjectStore::open_durable`].
    pub fn create_durable(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
        config: StoreConfig,
        wal_pages: u64,
    ) -> Result<ObjectStore> {
        let base = (pages_per_space + 1) * num_spaces as u64;
        let wal = StripedWal::format(&volume, base, wal_pages, config.wal_stripes)?;
        let mut store = Self::create(volume, num_spaces, pages_per_space, config)?;
        // The formatted directories are the last per-call write: from
        // here on recovery, not the on-disk page, is their source.
        store.buddy.set_write_back(false);
        wal.set_metrics(&store.obs);
        store.wal = Some(Arc::new(wal));
        Ok(store)
    }

    /// Reopen a durable store, running full restart recovery (see the
    /// [module docs](self::recovery)). Always safe to call — on a
    /// cleanly closed store it degenerates to reloading the checkpoint.
    /// Returns the store and a [`RecoveryReport`] listing every
    /// committed object (the volume is self-describing; no descriptors
    /// need to have survived on the client side).
    ///
    /// Recovery itself is crash-safe: it writes only uncommitted pages
    /// (the undo images), rebuilt directories, and a fresh checkpoint,
    /// so a failure part-way through is simply retried by the next
    /// open.
    pub fn open_durable(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
        config: StoreConfig,
        wal_pages: u64,
    ) -> Result<(ObjectStore, RecoveryReport)> {
        Self::open_durable_with(
            volume,
            num_spaces,
            pages_per_space,
            config,
            wal_pages,
            &Metrics::new(),
        )
    }

    /// [`Self::open_durable`] recording into a caller-supplied metrics
    /// domain instead of a fresh one — the CLI threads
    /// [`eos_obs::global()`] through here so recovery cost and the
    /// subsequent operations accumulate in one place.
    pub fn open_durable_with(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
        config: StoreConfig,
        wal_pages: u64,
        metrics: &Metrics,
    ) -> Result<(ObjectStore, RecoveryReport)> {
        // The whole restart sequence — log scan, undo writes, directory
        // rebuild, fresh checkpoint — is one `recovery` span.
        let _span = metrics.span(OpKind::Recovery, &volume);
        let base = (pages_per_space + 1) * num_spaces as u64;
        let wal = StripedWal::attach(&volume, base, wal_pages, config.wal_stripes)?;

        // 2. Undo: reverse uncommitted in-place writes, newest first
        // across all stripes (the merge is by global LSN).
        let mut restored_pages = 0u64;
        let ps = volume.page_size() as u64;
        let pending = wal.pending();
        for entry in pending.iter().rev() {
            if let WalEntry::Op { page_images, .. } = entry {
                for (page, bytes) in page_images.iter().rev() {
                    volume.write_pages(*page, bytes)?;
                    restored_pages += bytes.len() as u64 / ps;
                }
            }
        }
        let rolled_back_ops = pending.len() as u64;

        // Rehydrate the committed objects from their serialized roots.
        let committed = wal.committed();
        let mut objects = Vec::with_capacity(committed.len());
        for (id, desc) in &committed {
            let obj = LargeObject::from_bytes(desc)?;
            if obj.id != *id {
                return Err(Error::CorruptObject {
                    reason: format!("log root map entry {id} deserialized as object {}", obj.id),
                });
            }
            objects.push(obj);
        }

        // 3. Rebuild the allocator from scratch: reformat the
        // directories in memory (nothing is written yet, data pages
        // untouched), then mark the boot page and every extent a
        // committed root reaches.
        let mut buddy = BuddyManager::create_unwritten(volume.clone(), num_spaces, pages_per_space);
        let boot = buddy.space(0).data_base();
        buddy.allocate_at(boot, 1)?;
        buddy.set_metrics(metrics);
        let mut store = ObjectStore {
            volume,
            buddy,
            config,
            next_id: 1,
            txns: std::collections::BTreeMap::new(),
            active: None,
            next_txn: 1,
            wal: None,
            affinity: 0,
            obs: metrics.clone(),
        };
        for obj in &objects {
            for (start, pages) in store.object_page_extents(obj) {
                store.buddy.allocate_at(start, pages)?;
            }
        }
        // The one write per space: it leaves the on-disk directories as
        // of this rebuild; nothing reads them back, the next open
        // rebuilds too.
        store.buddy.flush_directories()?;
        store.next_id = objects
            .iter()
            .map(|o| o.id)
            .max()
            .unwrap_or(0)
            .max(wal.max_object_id())
            + 1;

        // 4. Checkpoint: persist the recovered state, dropping the
        // rolled-back tail from disk.
        let report = RecoveryReport {
            objects: objects.clone(),
            records_scanned: wal.records_scanned(),
            torn_tail: wal.torn_tail(),
            rolled_back_ops,
            restored_pages,
            max_lsn: wal.last_lsn(),
        };
        wal.clear_pending();
        wal.set_metrics(metrics);
        wal.checkpoint()?;
        store.wal = Some(Arc::new(wal));
        // A restart that actually undid work is a flight-recorder
        // moment: mark the timeline and, when `EOS_FLIGHT_PATH` is set,
        // snapshot the ring + metrics for post-mortem inspection.
        if report.torn_tail || report.rolled_back_ops > 0 {
            metrics.pipe_event(PipeKind::Instant, "recovery.rollback", 0, 0);
            let _ = metrics.flight_dump("recovery");
        }
        Ok((store, report))
    }
}
