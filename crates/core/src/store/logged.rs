//! The durable store is the volatile store plus a log.
//!
//! On a store with an attached [`crate::StripedWal`] every mutating operation
//! runs inside a transaction scope — the caller's own, or an implicit
//! per-operation scope ([`ObjectStore::with_autocommit`]) — and leaves
//! a trail in the on-disk log; on a volatile store the same code runs
//! with both of those switched off.
//!
//! * **`replace`** follows the WAL rule: it writes leaf pages in place,
//!   so the before-images of every page it will touch are made durable
//!   *first* ([`WalEntry::Op`]), then the pages are overwritten. A
//!   crash mid-replace is rolled back byte-exactly from the images.
//! * **Everything else** (append, insert, delete, truncate, shadowed
//!   replace, consolidation, compaction) is *shadowed* (§4.5) and goes
//!   through the one [`ObjectStore::shadowed`] wrapper: it writes only
//!   freshly allocated pages and defers its frees, so the committed
//!   image on disk stays intact and nothing needs undoing. These log a
//!   [`WalEntry::Touch`] after the fact, purely to stamp the LSN and
//!   feed the eventual commit record — the log stays small no matter
//!   how many bytes the operation moved.
//!
//! The commit record ([`WalEntry::Commit`], written by
//! [`ObjectStore::commit_txn`]) then carries the new serialized root of
//! every touched object plus tombstones for deletions; it is the single
//! durable commit point of the scope.

use crate::durable::WalEntry;
use crate::error::{Error, Result};
use crate::locks::TxnId;
use crate::object::LargeObject;
use crate::ops;
use crate::wal::{LogOp, LogRecord};
use eos_pager::PageId;

use super::ObjectStore;

impl ObjectStore {
    /// Run `f` inside the caller's active transaction scope, or — on a
    /// durable store with no scope active — inside an implicit
    /// per-operation scope that commits on success and aborts on error.
    /// Without this, a committed operation's deferred frees would be
    /// applied immediately and a *later* crash could find those pages
    /// reallocated and overwritten while the log still considers their
    /// old contents committed.
    pub(crate) fn with_autocommit<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        if self.active.is_some() || self.wal.is_none() {
            return f(self);
        }
        self.begin_txn();
        match f(self) {
            Ok(v) => {
                self.commit_txn()?;
                Ok(v)
            }
            Err(e) => {
                // Best effort: the abort itself can fail (e.g. the
                // volume died); recovery handles that case on restart.
                if self.in_txn() {
                    let _ = self.abort_txn();
                }
                Err(e)
            }
        }
    }

    /// Run one shadowed (§4.5) operation on `obj`: inside the caller's
    /// scope or an autocommit one, followed on a durable store by the
    /// [`WalEntry::Touch`] that is its whole log trail (it never
    /// overwrites committed pages, so it needs no before-images and no
    /// mid-operation force), then the paranoid re-check.
    pub(crate) fn shadowed<T>(
        &mut self,
        obj: &mut LargeObject,
        op: impl FnOnce(&mut Self, &mut LargeObject) -> Result<T>,
    ) -> Result<T> {
        self.with_autocommit(|s| {
            let out = op(s, obj)?;
            if s.wal.is_some() {
                s.log_touch(obj)?;
            }
            s.paranoid_check(obj)?;
            Ok(out)
        })
    }

    /// The scope every logged operation stamps its entries with.
    fn active_scope_id(&self) -> Result<TxnId> {
        self.active.ok_or(Error::StaleTransaction)
    }

    /// Record `obj`'s current root in the active scope's commit set.
    pub(crate) fn note_touched(&mut self, obj: &LargeObject) {
        let (id, bytes) = (obj.id, obj.to_bytes());
        if let Some(txn) = self.active_txn_mut() {
            txn.touched.insert(id, bytes);
            txn.deleted.retain(|&d| d != id);
        }
    }

    /// Stamp the next LSN on `obj`, append a [`WalEntry::Touch`] for it
    /// and add it to the scope's commit set — the post-hoc trail of
    /// every shadowed operation.
    pub(crate) fn log_touch(&mut self, obj: &mut LargeObject) -> Result<()> {
        let scope = self.active_scope_id()?;
        let wal = self.wal.as_ref().expect("log_touch on a non-durable store");
        let lsn = wal.allocate_lsn();
        obj.lsn = lsn;
        let entry = WalEntry::Touch {
            txn: scope,
            lsn,
            object: obj.id,
            root_after: obj.to_bytes(),
        };
        wal.append(entry)?;
        self.note_touched(obj);
        Ok(())
    }

    /// The physical image of every page `replace(obj, offset, len)`
    /// will overwrite, grouped exactly as [`ops::replace`] groups its
    /// writes: one `(first_page, bytes)` run per touched leaf segment.
    pub(crate) fn range_page_images(
        &self,
        obj: &LargeObject,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(PageId, Vec<u8>)>> {
        let mut out = Vec::new();
        if len == 0 {
            return Ok(out);
        }
        let ps = self.ps();
        let (mut path, mut rel) = crate::tree::descend(self, obj, offset)?;
        let mut remaining = len;
        loop {
            let e = crate::tree::leaf_entry(&path);
            let take = (e.bytes - rel).min(remaining);
            let p0 = rel / ps;
            let p1 = (rel + take - 1) / ps;
            let npages = p1 - p0 + 1;
            out.push((e.ptr + p0, self.volume.read_pages(e.ptr + p0, npages)?));
            remaining -= take;
            if remaining == 0 {
                return Ok(out);
            }
            ops::read::advance(self, &mut path)?;
            rel = 0;
        }
    }

    /// Reverse the in-place writes of one scope's uncommitted `replace`
    /// operations, newest first, from the before-images in the log.
    /// Images of other open scopes are left alone — they are rolled
    /// back by their own abort (or by restart recovery).
    pub(crate) fn rollback_scope_images(&mut self, id: TxnId) -> Result<()> {
        let images: Vec<(PageId, Vec<u8>)> = self
            .wal
            .as_ref()
            .map(|w| {
                w.pending_for(id)
                    .into_iter()
                    .rev()
                    .flat_map(|e| match e {
                        WalEntry::Op { page_images, .. } => {
                            page_images.into_iter().rev().collect::<Vec<_>>()
                        }
                        _ => Vec::new(),
                    })
                    .collect()
            })
            .unwrap_or_default();
        for (page, bytes) in images {
            // Restoring before-images re-creates pre-transaction state;
            // like shadow writes, nothing committed depends on them
            // until the Abort frame publishes the rollback.
            // durability: mutates(shadow-data)
            self.volume.write_pages(page, &bytes)?;
        }
        Ok(())
    }

    // ---- the logged operations -------------------------------------------

    pub(crate) fn logged_replace(
        &mut self,
        obj: &mut LargeObject,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        self.with_autocommit(|s| {
            // WAL rule: the undo information must be durable before the
            // first in-place byte lands. The logical record's `before`
            // field stays empty — the physical page images *are* the
            // undo, and duplicating the bytes would double the record.
            let images = s.range_page_images(obj, offset, data.len() as u64)?;
            let scope = s.active_scope_id()?;
            let wal = s.wal.as_ref().expect("durable store");
            let lsn = wal.allocate_lsn();
            obj.lsn = lsn;
            let entry = WalEntry::Op {
                txn: scope,
                record: LogRecord {
                    lsn,
                    object: obj.id,
                    op: LogOp::Replace {
                        offset,
                        before: Vec::new(),
                        after: data.to_vec(),
                    },
                },
                root_after: obj.to_bytes(),
                page_images: images,
            };
            // durability: mutates(undo-image)
            s.wal.as_ref().unwrap().append(entry)?;
            if s.config.sync_on_commit {
                // The append only hands the frame to the OS; the sync
                // is what makes the undo images durable. Without it the
                // page cache could persist the in-place overwrites
                // below ahead of the log frame, and a power loss would
                // leave committed bytes with no durable undo.
                // durability: seals(undo-image)
                s.wal.as_ref().unwrap().sync()?;
            }
            // durability: mutates(committed-page)
            ops::replace::run(s, obj, offset, data)?;
            s.note_touched(obj);
            s.paranoid_check(obj)
        })
    }

    pub(crate) fn logged_delete_object(&mut self, obj: &mut LargeObject) -> Result<()> {
        self.with_autocommit(|s| {
            let size = obj.size();
            if size > 0 {
                ops::delete::run(s, obj, 0, size)?;
            }
            // No log entry: deletion is fully shadowed (frees are
            // deferred), and the commit record's tombstone is what makes
            // it durable.
            let id = obj.id;
            if let Some(txn) = s.active_txn_mut() {
                txn.touched.remove(&id);
                if !txn.deleted.contains(&id) {
                    txn.deleted.push(id);
                }
            }
            s.paranoid_check(obj)
        })
    }
}
