//! The durable write-ahead log (§4.5, made persistent).
//!
//! [`crate::wal::Wal`] implements the paper's *logical* logging and
//! idempotent redo/undo in memory; this module puts the log on the
//! volume itself so it survives a power loss. A store formatted with
//! [`crate::ObjectStore::create_durable`] reserves a **log region** of
//! pages right after the buddy spaces:
//!
//! ```text
//! page base+0   superblock slot A ─┐ dual slots, epoch-versioned,
//! page base+1   superblock slot B ─┘ CRC-sealed (torn-write safe)
//! page base+2 …          log half 0 ─┐ records live in one half; a
//! page base+2+H …        log half 1 ─┘ checkpoint flips to the other
//! ```
//!
//! Records are framed `[len u32][epoch u32][crc32 u32][payload]` and
//! terminated by a zero length word. The epoch stamp is the half's
//! occupancy epoch: after a flip the inactive half still holds
//! CRC-valid frames from its previous occupancy, and without the stamp
//! a crash that persists a new frame's leading pages but not its
//! terminator could let the scan run off the new frame onto a stale
//! one, replaying a phantom record. The scan cuts the log at the first
//! frame whose length overruns the half, whose epoch is not the active
//! half's, whose CRC (sealing epoch + payload) mismatches, or whose
//! payload fails to parse — that is the **torn tail**: the prefix
//! before it is exactly the set of records whose writes completed
//! before the power died, because every append goes to disk before
//! [`DurableWal::append`] returns (pages are written front to back, so
//! a power loss always leaves a record prefix plus at most one torn
//! frame).
//!
//! The **commit point** is the append (plus fsync) of a
//! [`WalEntry::Commit`] record carrying the serialized root descriptors
//! of every object the transaction touched and tombstones for the ones
//! it deleted. Everything else on the volume — leaf segments, shadowed
//! index pages, buddy directories — is reconstructible from those
//! descriptors, which is what restart recovery
//! ([`crate::ObjectStore::open_durable`]) does.
//!
//! Checkpointing uses the classic dual-half scheme: the live root map is
//! written as a single [`WalEntry::Checkpoint`] record at the start of
//! the *inactive* half (followed by any still-pending uncommitted
//! records, which must survive the flip), and then the superblock is
//! rewritten with a bumped epoch to point at it. A crash anywhere in
//! between leaves the old superblock — and therefore the old, complete
//! half — in force.

// The write-ordering contract this module anchors (rule L6, DESIGN.md
// §15). Roots first, then the classes whose safety hangs on them:
//
// durability-class: undo-image requires = none
// durability-class: shadow-data requires = none
// durability-class: commit-frame requires = shadow-data
// durability-class: superblock requires = shadow-data

use std::collections::BTreeMap;

use eos_obs::{Counter, Metrics, OpKind, PipeKind};
use eos_pager::{PageId, SharedVolume};

use crate::codec;
use crate::error::{Error, Result};
use crate::locks::TxnId;
use crate::wal::{put_bytes, LogRecord, Reader};

/// Magic tag of a log superblock ("EOSW").
const SB_MAGIC: u32 = 0x454F_5357; // format-anchor: SB_MAGIC
/// On-disk format version of the log region (v2 added the epoch stamp
/// to every frame header; v3 stamps every Op/Touch/Commit/Abort entry
/// with its transaction scope so concurrent scopes can commit and roll
/// back independently; v4 adds the `participants` count to commit
/// records so a commit split across WAL stripes resolves atomically —
/// a restart honors it only when every sibling part survived).
const SB_VERSION: u32 = 4; // format-anchor: SB_VERSION
/// Serialized superblock length: magic 4 + version 4 + epoch 8 +
/// active 1 + crc 4.
const SB_LEN: usize = 21; // format-anchor: SB_LEN
/// Frame header: length (4) + epoch (4) + CRC-32 (4).
const FRAME_HEADER: u64 = 12; // format-anchor: FRAME_HEADER
/// Smallest usable log region: 2 superblock pages + 1 page per half.
const MIN_LOG_PAGES: u64 = 4; // format-anchor: MIN_LOG_PAGES
/// Entry tag: logged §4 operation.
const ENTRY_TAG_OP: u8 = 1; // format-anchor: ENTRY_TAG_OP
/// Entry tag: structural update (no logical payload).
const ENTRY_TAG_TOUCH: u8 = 2; // format-anchor: ENTRY_TAG_TOUCH
/// Entry tag: transaction commit point.
const ENTRY_TAG_COMMIT: u8 = 3; // format-anchor: ENTRY_TAG_COMMIT
/// Entry tag: explicit rollback.
const ENTRY_TAG_ABORT: u8 = 4; // format-anchor: ENTRY_TAG_ABORT
/// Entry tag: checkpoint (complete committed root map).
const ENTRY_TAG_CHECKPOINT: u8 = 5; // format-anchor: ENTRY_TAG_CHECKPOINT

// ---- CRC-32 (IEEE 802.3) ------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

fn crc32_feed(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `data` — the checksum sealing every log record and
/// superblock.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_feed(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// CRC of a log frame: seals the epoch stamp *and* the payload, so a
/// frame whose epoch field was damaged cannot validate either.
fn frame_crc(epoch: u32, payload: &[u8]) -> u32 {
    crc32_feed(crc32_feed(0xFFFF_FFFF, &epoch.to_le_bytes()), payload) ^ 0xFFFF_FFFF
}

// ---- log entries --------------------------------------------------------

/// One durable log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry {
    /// A logged §4 operation: the logical record (operation +
    /// parameters, as the paper requires since leaf segments carry no
    /// control information), the object's serialized root *after* the
    /// operation, and — for `replace` only, which writes leaf pages in
    /// place — the physical before-images of every page it overwrites,
    /// so an uncommitted replace can be rolled back byte-exactly no
    /// matter where in the operation the power died.
    Op {
        /// Transaction scope the operation belongs to.
        txn: TxnId,
        /// The logical operation record (assigns the LSN).
        record: LogRecord,
        /// Serialized [`crate::LargeObject`] descriptor after the op.
        root_after: Vec<u8>,
        /// `(first_page, page_bytes)` before-images of the in-place
        /// writes; empty for the shadowed operations.
        page_images: Vec<(PageId, Vec<u8>)>,
    },
    /// A structural update with no logical payload worth logging —
    /// compaction, consolidation, object deletion. Shadowing makes it
    /// invisible until commit; the entry exists to stamp the LSN and
    /// carry the new root for the commit record.
    Touch {
        /// Transaction scope the update belongs to.
        txn: TxnId,
        /// LSN of the update.
        lsn: u64,
        /// Object the update applied to.
        object: u64,
        /// Serialized descriptor after the update.
        root_after: Vec<u8>,
    },
    /// The commit point of a transaction scope: the descriptors of
    /// every object the scope touched and tombstones for the ones it
    /// deleted. Once this record is on stable storage the transaction
    /// is durable; until then it never happened. Covers only the
    /// entries stamped with the same `txn` — entries of other open
    /// scopes remain pending.
    Commit {
        /// Transaction scope this record commits.
        txn: TxnId,
        /// LSN of the commit point itself (freshly allocated, strictly
        /// ordered across scopes — the tiebreak when recovery merges
        /// WAL stripes).
        lsn: u64,
        /// How many WAL stripes carry a part of this commit. `1` is
        /// the common self-contained case; for a cross-stripe commit
        /// each stripe holds one part and a restart honors the commit
        /// only when all `participants` parts survived — otherwise the
        /// scope is presumed aborted.
        participants: u32,
        /// `(object id, serialized descriptor)` for each touched object.
        touched: Vec<(u64, Vec<u8>)>,
        /// Ids of objects the transaction deleted.
        deleted: Vec<u64>,
    },
    /// An explicit rollback: the records of this scope are void (their
    /// effects were already reversed by the time this is written).
    Abort {
        /// Transaction scope this record voids.
        txn: TxnId,
        /// Highest LSN the aborted scope logged.
        lsn: u64,
    },
    /// A checkpoint: the complete committed root map at the moment the
    /// log flipped halves. Starts every half.
    Checkpoint {
        /// Highest LSN assigned before the checkpoint.
        max_lsn: u64,
        /// The full `(object id, serialized descriptor)` map.
        roots: Vec<(u64, Vec<u8>)>,
    },
}

fn put_roots(out: &mut Vec<u8>, roots: &[(u64, Vec<u8>)]) {
    out.extend_from_slice(&(roots.len() as u32).to_le_bytes());
    for (id, desc) in roots {
        out.extend_from_slice(&id.to_le_bytes());
        put_bytes(out, desc);
    }
}

fn read_roots(r: &mut Reader<'_>) -> Result<Vec<(u64, Vec<u8>)>> {
    let n = r.u32()? as usize;
    let mut roots = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u64()?;
        let desc = r.bytes()?;
        roots.push((id, desc));
    }
    Ok(roots)
}

impl WalEntry {
    /// Serialize to the frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalEntry::Op {
                txn,
                record,
                root_after,
                page_images,
            } => {
                out.push(ENTRY_TAG_OP);
                out.extend_from_slice(&txn.to_le_bytes());
                put_bytes(&mut out, &record.to_bytes());
                put_bytes(&mut out, root_after);
                out.extend_from_slice(&(page_images.len() as u32).to_le_bytes());
                for (page, bytes) in page_images {
                    out.extend_from_slice(&page.to_le_bytes());
                    put_bytes(&mut out, bytes);
                }
            }
            WalEntry::Touch {
                txn,
                lsn,
                object,
                root_after,
            } => {
                out.push(ENTRY_TAG_TOUCH);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&object.to_le_bytes());
                put_bytes(&mut out, root_after);
            }
            WalEntry::Commit {
                txn,
                lsn,
                participants,
                touched,
                deleted,
            } => {
                out.push(ENTRY_TAG_COMMIT);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&participants.to_le_bytes());
                put_roots(&mut out, touched);
                out.extend_from_slice(&(deleted.len() as u32).to_le_bytes());
                for id in deleted {
                    out.extend_from_slice(&id.to_le_bytes());
                }
            }
            WalEntry::Abort { txn, lsn } => {
                out.push(ENTRY_TAG_ABORT);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&lsn.to_le_bytes());
            }
            WalEntry::Checkpoint { max_lsn, roots } => {
                out.push(ENTRY_TAG_CHECKPOINT);
                out.extend_from_slice(&max_lsn.to_le_bytes());
                put_roots(&mut out, roots);
            }
        }
        out
    }

    /// Decode a frame payload written by [`Self::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<WalEntry> {
        let mut r = Reader { data, at: 0 };
        let tag = r.take(1)?[0];
        let entry = match tag {
            ENTRY_TAG_OP => {
                let txn = r.u64()?;
                let body = r.bytes()?;
                let mut rr = Reader { data: &body, at: 0 };
                let record = LogRecord::read_from(&mut rr)?;
                let root_after = r.bytes()?;
                let n = r.u32()? as usize;
                let mut page_images = Vec::with_capacity(n);
                for _ in 0..n {
                    let page = r.u64()?;
                    let bytes = r.bytes()?;
                    page_images.push((page, bytes));
                }
                WalEntry::Op {
                    txn,
                    record,
                    root_after,
                    page_images,
                }
            }
            ENTRY_TAG_TOUCH => WalEntry::Touch {
                txn: r.u64()?,
                lsn: r.u64()?,
                object: r.u64()?,
                root_after: r.bytes()?,
            },
            ENTRY_TAG_COMMIT => {
                let txn = r.u64()?;
                let lsn = r.u64()?;
                let participants = r.u32()?;
                let touched = read_roots(&mut r)?;
                let n = r.u32()? as usize;
                let mut deleted = Vec::with_capacity(n);
                for _ in 0..n {
                    deleted.push(r.u64()?);
                }
                WalEntry::Commit {
                    txn,
                    lsn,
                    participants,
                    touched,
                    deleted,
                }
            }
            ENTRY_TAG_ABORT => WalEntry::Abort {
                txn: r.u64()?,
                lsn: r.u64()?,
            },
            ENTRY_TAG_CHECKPOINT => WalEntry::Checkpoint {
                max_lsn: r.u64()?,
                roots: read_roots(&mut r)?,
            },
            _ => {
                return Err(Error::CorruptObject {
                    reason: format!("unknown log entry tag {tag}"),
                })
            }
        };
        Ok(entry)
    }

    /// The LSN this entry carries (the record LSN for ops, the scope's
    /// highest LSN otherwise).
    pub fn lsn(&self) -> u64 {
        match self {
            WalEntry::Op { record, .. } => record.lsn,
            WalEntry::Touch { lsn, .. } => *lsn,
            WalEntry::Commit { lsn, .. } => *lsn,
            WalEntry::Abort { lsn, .. } => *lsn,
            WalEntry::Checkpoint { max_lsn, .. } => *max_lsn,
        }
    }

    /// The transaction scope this entry belongs to; `None` for
    /// checkpoints, which are scope-independent.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalEntry::Op { txn, .. }
            | WalEntry::Touch { txn, .. }
            | WalEntry::Commit { txn, .. }
            | WalEntry::Abort { txn, .. } => Some(*txn),
            WalEntry::Checkpoint { .. } => None,
        }
    }
}

// ---- superblock ---------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Superblock {
    epoch: u64,
    active: u8,
}

impl Superblock {
    fn to_page(self, page_size: usize) -> Vec<u8> {
        let mut page = Vec::with_capacity(page_size);
        page.extend_from_slice(&SB_MAGIC.to_le_bytes());
        page.extend_from_slice(&SB_VERSION.to_le_bytes());
        page.extend_from_slice(&self.epoch.to_le_bytes());
        page.push(self.active);
        let crc = crc32(&page); // seals exactly the 17 bytes above
        page.extend_from_slice(&crc.to_le_bytes());
        page.resize(page_size, 0);
        page
    }

    fn from_page(page: &[u8]) -> Option<Superblock> {
        if page.len() < SB_LEN {
            return None;
        }
        if codec::u32_at(page, 0, "superblock magic").ok()? != SB_MAGIC {
            return None;
        }
        if codec::u32_at(page, 4, "superblock version").ok()? != SB_VERSION {
            return None;
        }
        let sealed = page.get(0..SB_LEN - 4)?;
        if crc32(sealed) != codec::u32_at(page, SB_LEN - 4, "superblock crc").ok()? {
            return None;
        }
        let active = *page.get(16)?;
        if active > 1 {
            return None;
        }
        Some(Superblock {
            epoch: codec::u64_at(page, 8, "superblock epoch").ok()?,
            active,
        })
    }
}

// ---- the durable log ----------------------------------------------------

/// Pre-resolved observability handles: counters record through pure
/// atomics, so nothing here can violate the latch discipline no matter
/// where in the commit path it fires. `metrics` is kept to open the
/// `wal.checkpoint` span.
struct WalObs {
    metrics: Metrics,
    frames: Counter,
    bytes: Counter,
    syncs: Counter,
    checkpoints: Counter,
}

/// The persistent write-ahead log of a durable [`crate::ObjectStore`].
/// See the [module docs](self) for the on-disk layout and protocol.
pub struct DurableWal {
    volume: SharedVolume,
    base: PageId,
    half_pages: u64,
    active: u8,
    epoch: u64,
    /// Which superblock slot holds the epoch currently in force. A
    /// checkpoint always publishes to the *other* slot, so a torn
    /// superblock write leaves this one intact.
    sb_slot: u8,
    /// Byte offset within the active half where the next frame goes.
    head: u64,
    next_lsn: u64,
    /// Committed object id → serialized root descriptor.
    committed: BTreeMap<u64, Vec<u8>>,
    /// Object id → LSN of the commit that last set (or tombstoned) its
    /// root. Guards the fold: a held-out part of an older cross-stripe
    /// commit resolved late must not clobber a newer committed root.
    committed_lsn: BTreeMap<u64, u64>,
    /// Op/Touch entries since the last commit/abort — the uncommitted
    /// tail a restart must roll back.
    pending: Vec<WalEntry>,
    /// Every logical op record seen (scan + appends), in LSN order —
    /// the view `eos-check` audits.
    ops: Vec<LogRecord>,
    /// Highest object id mentioned anywhere in the log.
    max_object_id: u64,
    records_scanned: u64,
    torn_tail: bool,
    checkpoints_taken: u64,
    /// Which WAL stripe this log serves (0 for an unstriped log) —
    /// stamped onto trace spans so per-stripe forces are attributable.
    stripe: u64,
    /// Attached by [`Self::set_metrics`]; `None` until the owning store
    /// wires its metrics domain through.
    obs: Option<WalObs>,
}

impl DurableWal {
    /// Resolve this log's instrument handles against `metrics`:
    /// `wal.frames` / `wal.bytes` (appended payloads), `wal.syncs`
    /// (commit barriers), `wal.checkpoints` (half-flips), plus the
    /// `wal.checkpoint` span around each flip.
    pub(crate) fn set_metrics(&mut self, metrics: &Metrics) {
        self.obs = Some(WalObs {
            metrics: metrics.clone(),
            frames: metrics.counter("wal.frames"),
            bytes: metrics.counter("wal.bytes"),
            syncs: metrics.counter("wal.syncs"),
            checkpoints: metrics.counter("wal.checkpoints"),
        });
    }

    fn half_bytes(&self) -> u64 {
        self.half_pages * self.volume.page_size() as u64
    }

    fn half_base(&self, half: u8) -> PageId {
        self.base + 2 + u64::from(half) * self.half_pages
    }

    fn check_region(volume: &SharedVolume, base: PageId, pages: u64) -> Result<u64> {
        if pages < MIN_LOG_PAGES || base + pages > volume.num_pages() {
            return Err(Error::Unsupported {
                op: "durable_wal",
                reason: format!(
                    "log region [{base}, +{pages}) needs ≥ {MIN_LOG_PAGES} pages inside \
                     the {}-page volume",
                    volume.num_pages()
                ),
            });
        }
        Ok((pages - 2) / 2)
    }

    /// Whether either superblock slot of a log region at `base` decodes
    /// (the test [`Self::attach`] applies), reading only the slots that
    /// lie inside the volume.
    pub(crate) fn has_superblock(volume: &SharedVolume, base: PageId) -> Result<bool> {
        for slot in (base..base + 2).filter(|&p| p < volume.num_pages()) {
            if Superblock::from_page(&volume.read_pages(slot, 1)?).is_some() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Format a fresh, empty log region of `pages` pages starting at
    /// volume page `base`.
    pub fn format(volume: SharedVolume, base: PageId, pages: u64) -> Result<DurableWal> {
        let half_pages = Self::check_region(&volume, base, pages)?;
        let ps = volume.page_size();
        // Terminate half 0 (a zero length word) before pointing the
        // superblock at it.
        // durability: mutates(shadow-data)
        volume.write_pages(base + 2, &vec![0u8; ps])?;
        let sb = Superblock {
            epoch: 1,
            active: 0,
        };
        // lint: allow(durability, reason = "formatting a virgin region: no live slot or committed state to preserve, and the caller cannot observe the store before the sync below")
        volume.write_pages(base, &sb.to_page(ps))?; // durability: mutates(superblock)
                                                    // durability: mutates(shadow-data)
        volume.write_pages(base + 1, &vec![0u8; ps])?;
        // durability: seals(shadow-data, superblock)
        volume.sync()?;
        Ok(DurableWal {
            volume,
            base,
            half_pages,
            active: 0,
            epoch: 1,
            sb_slot: 0,
            head: 0,
            next_lsn: 1,
            committed: BTreeMap::new(),
            committed_lsn: BTreeMap::new(),
            pending: Vec::new(),
            ops: Vec::new(),
            max_object_id: 0,
            records_scanned: 0,
            torn_tail: false,
            checkpoints_taken: 0,
            stripe: 0,
            obs: None,
        })
    }

    /// Attach to an existing log region: pick the valid superblock with
    /// the highest epoch (a torn superblock write leaves the other slot
    /// in force) and scan its half up to the torn tail. A *virgin*
    /// region — both superblock pages all zero — is formatted fresh; a
    /// region where neither slot validates but bytes are present is
    /// refused, so detectable corruption never silently reformats away
    /// committed state.
    pub fn attach(volume: SharedVolume, base: PageId, pages: u64) -> Result<DurableWal> {
        let half_pages = Self::check_region(&volume, base, pages)?;
        let slot0 = volume.read_pages(base, 1)?;
        let slot1 = volume.read_pages(base + 1, 1)?;
        let best = match (Superblock::from_page(&slot0), Superblock::from_page(&slot1)) {
            (Some(a), Some(b)) => Some(if a.epoch >= b.epoch { (a, 0) } else { (b, 1) }),
            (Some(a), None) => Some((a, 0)),
            (None, Some(b)) => Some((b, 1)),
            (None, None) => None,
        };
        let Some((sb, slot)) = best else {
            let virgin = slot0.iter().all(|&b| b == 0) && slot1.iter().all(|&b| b == 0);
            if virgin {
                return Self::format(volume, base, pages);
            }
            return Err(Error::CorruptObject {
                reason: format!(
                    "log region at page {base}: neither superblock slot validates \
                     and the region is not virgin — refusing to reformat \
                     (run explicit salvage)"
                ),
            });
        };
        let mut wal = DurableWal {
            volume,
            base,
            half_pages,
            active: sb.active,
            epoch: sb.epoch,
            sb_slot: slot,
            head: 0,
            next_lsn: 1,
            committed: BTreeMap::new(),
            committed_lsn: BTreeMap::new(),
            pending: Vec::new(),
            ops: Vec::new(),
            max_object_id: 0,
            records_scanned: 0,
            torn_tail: false,
            checkpoints_taken: 0,
            stripe: 0,
            obs: None,
        };
        wal.scan()?;
        Ok(wal)
    }

    /// Replay the active half into the in-memory state, cutting at the
    /// torn tail.
    fn scan(&mut self) -> Result<()> {
        let half = self
            .volume
            .read_pages(self.half_base(self.active), self.half_pages)?;
        let limit = half.len() as u64;
        let mut at = 0u64;
        loop {
            if at + FRAME_HEADER > limit {
                break; // full to the brim; still a clean prefix
            }
            let base = at as usize;
            let len = u64::from(codec::u32_at(&half, base, "frame length")?);
            let epoch = codec::u32_at(&half, base + 4, "frame epoch")?;
            let crc = codec::u32_at(&half, base + 8, "frame crc")?;
            if len == 0 {
                break; // clean tail
            }
            if epoch != self.epoch as u32 {
                // A CRC-valid frame left over from this half's previous
                // occupancy — reachable only when the current occupant's
                // terminator was lost to a partial persist.
                self.torn_tail = true;
                break;
            }
            if at + FRAME_HEADER + len > limit {
                self.torn_tail = true;
                break;
            }
            let Some(payload) =
                half.get((at + FRAME_HEADER) as usize..(at + FRAME_HEADER + len) as usize)
            else {
                self.torn_tail = true;
                break;
            };
            if frame_crc(epoch, payload) != crc {
                self.torn_tail = true;
                break;
            }
            let Ok(entry) = WalEntry::from_bytes(payload) else {
                self.torn_tail = true;
                break;
            };
            self.absorb(entry);
            self.records_scanned += 1;
            at += FRAME_HEADER + len;
        }
        self.head = at;
        Ok(())
    }

    /// Fold one entry into the in-memory state — shared by the scan and
    /// by live appends, so a reopened log always agrees with the one
    /// that wrote it.
    fn absorb(&mut self, entry: WalEntry) {
        self.next_lsn = self.next_lsn.max(entry.lsn() + 1);
        match entry {
            WalEntry::Op { .. } | WalEntry::Touch { .. } => {
                if let WalEntry::Op { ref record, .. } = entry {
                    self.ops.push(record.clone());
                    self.max_object_id = self.max_object_id.max(record.object);
                }
                if let WalEntry::Touch { object, .. } = entry {
                    self.max_object_id = self.max_object_id.max(object);
                }
                self.pending.push(entry);
            }
            WalEntry::Commit { participants, .. } if participants > 1 => {
                // One part of a cross-stripe commit: its roots become
                // true only once every sibling part is on its stripe,
                // so the part is *held* pending until
                // [`Self::resolve_txn`] (all parts durable) or
                // [`Self::drop_txn`] / an Abort voids it.
                self.pending.push(entry);
            }
            WalEntry::Commit {
                txn,
                lsn,
                touched,
                deleted,
                ..
            } => self.apply_commit(txn, lsn, touched, deleted),
            WalEntry::Abort { txn, .. } => self.pending.retain(|e| e.txn() != Some(txn)),
            WalEntry::Checkpoint { max_lsn, roots } => {
                self.committed = roots
                    .into_iter()
                    .inspect(|(id, _)| self.max_object_id = self.max_object_id.max(*id))
                    .collect();
                self.committed_lsn = self.committed.keys().map(|&id| (id, max_lsn)).collect();
                self.pending.clear();
            }
        }
    }

    /// Fold one commit's root updates into the committed map, guarded
    /// by commit LSN: an older cross-stripe commit resolved after a
    /// newer commit of the same object must not clobber the newer
    /// root. Live appends are monotonic, so the guard only bites
    /// during the attach-time stripe merge. Resolves every pending
    /// entry of the scope.
    fn apply_commit(
        &mut self,
        txn: TxnId,
        lsn: u64,
        touched: Vec<(u64, Vec<u8>)>,
        deleted: Vec<u64>,
    ) {
        for (id, desc) in touched {
            self.max_object_id = self.max_object_id.max(id);
            if self.committed_lsn.get(&id).is_none_or(|&l| lsn >= l) {
                self.committed.insert(id, desc);
                self.committed_lsn.insert(id, lsn);
            }
        }
        for id in deleted {
            self.max_object_id = self.max_object_id.max(id);
            if self.committed_lsn.get(&id).is_none_or(|&l| lsn >= l) {
                self.committed.remove(&id);
                self.committed_lsn.insert(id, lsn);
            }
        }
        // Only this scope's entries are resolved; concurrent scopes
        // stay pending until their own commit/abort.
        self.pending.retain(|e| e.txn() != Some(txn));
    }

    /// Resolve a held cross-stripe commit part: fold its roots into
    /// the committed map and drop every pending entry of the scope.
    /// Called once every sibling part is durable on its own stripe.
    pub(crate) fn resolve_txn(&mut self, txn: TxnId) {
        let at = self
            .pending
            .iter()
            .position(|e| matches!(e, WalEntry::Commit { txn: t, .. } if *t == txn));
        if let Some(at) = at {
            if let WalEntry::Commit {
                lsn,
                touched,
                deleted,
                ..
            } = self.pending.remove(at)
            {
                self.apply_commit(txn, lsn, touched, deleted);
            }
        }
    }

    /// Void the held commit part of `txn` without touching its Op or
    /// Touch entries — presumed abort for a cross-stripe commit that
    /// never completed on every stripe; the surviving Ops keep their
    /// before-images for the recovery rollback pass.
    pub(crate) fn drop_txn(&mut self, txn: TxnId) {
        self.pending
            .retain(|e| !matches!(e, WalEntry::Commit { txn: t, .. } if *t == txn));
    }

    /// The held cross-stripe commit parts, as `(txn, participants)`,
    /// for the attach-time all-parts-present check.
    pub(crate) fn unresolved_commits(&self) -> Vec<(TxnId, u32)> {
        self.pending
            .iter()
            .filter_map(|e| match e {
                WalEntry::Commit {
                    txn, participants, ..
                } => Some((*txn, *participants)),
                _ => None,
            })
            .collect()
    }

    /// Append one entry durably: the frame (and a fresh terminator
    /// behind it) reaches the volume before this returns. Flips to a
    /// checkpoint automatically when the active half is full.
    pub fn append(&mut self, entry: WalEntry) -> Result<()> {
        let payload = entry.to_bytes();
        let frame = FRAME_HEADER + payload.len() as u64;
        if self.head + frame + FRAME_HEADER > self.half_bytes() {
            self.checkpoint()?;
            if self.head + frame + FRAME_HEADER > self.half_bytes() {
                return Err(Error::LogFull {
                    needed: frame,
                    available: self.half_bytes().saturating_sub(self.head + FRAME_HEADER),
                });
            }
        }
        self.write_frame(&payload)?;
        if let Some(o) = &self.obs {
            // One instant per appended frame on the pipeline timeline,
            // stamped with the owning scope (0 for checkpoints).
            o.metrics
                .pipe_event(PipeKind::Instant, "wal.frame", entry.txn().unwrap_or(0), 0);
        }
        self.absorb(entry);
        Ok(())
    }

    /// Write `payload` as a frame at `head` of the active half,
    /// followed by a zero terminator, and advance `head`.
    fn write_frame(&mut self, payload: &[u8]) -> Result<()> {
        let ps = self.volume.page_size() as u64;
        let frame = FRAME_HEADER + payload.len() as u64;
        let end = self.head + frame + FRAME_HEADER; // include terminator
        let first_page = self.head / ps;
        let last_page = (end - 1) / ps;
        let npages = last_page - first_page + 1;
        // Build the buffer front to back: the committed bytes sharing
        // the first page, then header, payload, and zeros out to the
        // page boundary. Truncating the existing page at `head` drops
        // stale bytes past the old terminator, which must not survive
        // as a plausible frame; the zeros `resize` appends after the
        // payload are the new terminator.
        let within = (self.head - first_page * ps) as usize;
        let mut buf = if within > 0 {
            let mut existing = self
                .volume
                .read_pages(self.half_base(self.active) + first_page, 1)?;
            existing.truncate(within);
            existing
        } else {
            Vec::with_capacity((npages * ps) as usize)
        };
        let epoch = self.epoch as u32;
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&epoch.to_le_bytes());
        buf.extend_from_slice(&frame_crc(epoch, payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf.resize((npages * ps) as usize, 0);
        self.volume
            .write_pages(self.half_base(self.active) + first_page, &buf)?;
        self.head += frame;
        if let Some(obs) = &self.obs {
            obs.frames.inc();
            obs.bytes.add(payload.len() as u64);
        }
        Ok(())
    }

    /// Flip halves: write the committed root map as a checkpoint record
    /// at the start of the inactive half, re-append any uncommitted
    /// pending records behind it (an open scope must survive the flip),
    /// then publish the new half by bumping the superblock epoch. A
    /// crash at any point leaves one complete, consistent half in
    /// force.
    pub fn checkpoint(&mut self) -> Result<()> {
        let _span = self
            .obs
            .as_ref()
            .map(|o| o.metrics.span(OpKind::WalCheckpoint, &self.volume));
        // The half-flip on the pipeline timeline (no owning scope).
        let _pspan = self
            .obs
            .as_ref()
            .map(|o| o.metrics.pipe_span("wal.checkpoint", 0, 0));
        let roots: Vec<(u64, Vec<u8>)> = self
            .committed
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let cp = WalEntry::Checkpoint {
            max_lsn: self.next_lsn - 1,
            roots,
        };
        let carry: Vec<Vec<u8>> = self.pending.iter().map(WalEntry::to_bytes).collect();

        let old_active = self.active;
        let old_head = self.head;
        let old_epoch = self.epoch;
        self.active = 1 - self.active;
        self.head = 0;
        // Frames in the new half carry the epoch under which the half
        // will be scanned, distinguishing them from any CRC-valid
        // leftovers of its previous occupancy.
        self.epoch += 1;
        let mut write_all = || -> Result<()> {
            let cp_bytes = cp.to_bytes();
            let mut need = FRAME_HEADER + cp_bytes.len() as u64;
            for c in &carry {
                need += FRAME_HEADER + c.len() as u64;
            }
            if need + FRAME_HEADER > self.half_bytes() {
                return Err(Error::LogFull {
                    needed: need,
                    available: self.half_bytes() - FRAME_HEADER,
                });
            }
            // Checkpoint + carried frames land on the *inactive* half —
            // fresh-extent writes in the shadow paradigm.
            // durability: mutates(shadow-data)
            self.write_frame(&cp_bytes)?;
            for c in &carry {
                // durability: mutates(shadow-data)
                self.write_frame(c)?;
            }
            Ok(())
        };
        if let Err(e) = write_all() {
            // Nothing published: the old half is still the log.
            self.active = old_active;
            self.head = old_head;
            self.epoch = old_epoch;
            return Err(e);
        }
        // Barrier: the new half must be stable before it is published.
        // durability: seals(shadow-data)
        self.volume.sync()?;
        let sb = Superblock {
            epoch: self.epoch,
            active: self.active,
        };
        // Always publish into the slot *not* holding the epoch in
        // force, so a torn superblock write loses at most this
        // checkpoint, never the log it supersedes.
        let slot = 1 - self.sb_slot;
        // durability: mutates(superblock)
        self.volume.write_pages(
            self.base + u64::from(slot),
            &sb.to_page(self.volume.page_size()),
        )?;
        // durability: seals(superblock)
        self.volume.sync()?;
        self.sb_slot = slot;
        self.checkpoints_taken += 1;
        if let Some(obs) = &self.obs {
            obs.checkpoints.inc();
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage — the commit
    /// barrier.
    pub fn sync(&self) -> Result<()> {
        let _force = self
            .obs
            .as_ref()
            .map(|o| o.metrics.pipe_span("wal.force", self.stripe, 0));
        // Lockdep tripwire at the WAL's own barrier: catches a latch
        // held across the force even when the test volume is a custom
        // `Volume` impl that never reaches the Mem/File bottom hooks.
        parking_lot::on_volume_io("wal.sync");
        self.volume.sync()?;
        if let Some(obs) = &self.obs {
            obs.syncs.inc();
        }
        Ok(())
    }

    /// Tag this log with the stripe index it serves, so trace spans
    /// distinguish concurrent per-stripe forces.
    pub(crate) fn set_stripe(&mut self, stripe: u64) {
        self.stripe = stripe;
    }

    /// Hand out the next LSN (monotonically increasing, starting at 1).
    pub fn allocate_lsn(&mut self) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        lsn
    }

    /// The highest LSN handed out so far; 0 if none.
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Committed object id → serialized root descriptor.
    pub fn committed(&self) -> &BTreeMap<u64, Vec<u8>> {
        &self.committed
    }

    /// The uncommitted tail: Op/Touch entries not covered by a commit,
    /// across all open scopes, in log order.
    pub fn pending(&self) -> &[WalEntry] {
        &self.pending
    }

    /// The uncommitted entries of one scope, in log order.
    pub fn pending_for(&self, txn: TxnId) -> impl DoubleEndedIterator<Item = &WalEntry> {
        self.pending.iter().filter(move |e| e.txn() == Some(txn))
    }

    /// Drop the uncommitted tail from the in-memory view (recovery
    /// calls this after rolling it back; the next checkpoint drops it
    /// from disk too).
    pub(crate) fn clear_pending(&mut self) {
        self.pending.clear();
    }

    /// Every logical op record seen, in log order — the same view the
    /// in-memory [`crate::wal::Wal`] offers, for `eos-check`.
    pub fn records(&self) -> &[LogRecord] {
        &self.ops
    }

    /// Highest object id mentioned anywhere in the log.
    pub fn max_object_id(&self) -> u64 {
        self.max_object_id
    }

    /// Number of records the attach scan replayed.
    pub fn records_scanned(&self) -> u64 {
        self.records_scanned
    }

    /// Did the attach scan cut a torn tail?
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Checkpoints taken since attach/format.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Bytes of the active half already used by records.
    pub fn bytes_used(&self) -> u64 {
        self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::LogOp;
    use eos_pager::{DiskProfile, MemVolume};

    fn vol(pages: u64) -> SharedVolume {
        MemVolume::with_profile(256, pages, DiskProfile::FREE).shared()
    }

    fn op_entry(lsn: u64, object: u64, bytes: &[u8]) -> WalEntry {
        WalEntry::Op {
            txn: 1,
            record: LogRecord {
                lsn,
                object,
                op: LogOp::Append {
                    bytes: bytes.to_vec(),
                },
            },
            root_after: vec![1, 2, 3],
            page_images: vec![],
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn entries_roundtrip() {
        let entries = [
            op_entry(7, 3, b"hello"),
            WalEntry::Op {
                txn: 42,
                record: LogRecord {
                    lsn: 8,
                    object: 3,
                    op: LogOp::Replace {
                        offset: 10,
                        before: vec![0; 4],
                        after: vec![1; 4],
                    },
                },
                root_after: vec![9; 40],
                page_images: vec![(12, vec![5; 256]), (19, vec![6; 512])],
            },
            WalEntry::Touch {
                txn: 42,
                lsn: 9,
                object: 4,
                root_after: vec![1],
            },
            WalEntry::Commit {
                txn: 42,
                lsn: 9,
                participants: 2,
                touched: vec![(3, vec![9; 40]), (4, vec![1])],
                deleted: vec![17],
            },
            WalEntry::Abort { txn: 42, lsn: 11 },
            WalEntry::Checkpoint {
                max_lsn: 11,
                roots: vec![(3, vec![9; 40])],
            },
        ];
        for e in &entries {
            let bytes = e.to_bytes();
            assert_eq!(&WalEntry::from_bytes(&bytes).unwrap(), e);
        }
    }

    #[test]
    fn append_scan_roundtrip_with_commit() {
        let v = vol(64);
        {
            let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
            wal.append(op_entry(1, 5, b"aaa")).unwrap();
            wal.append(op_entry(2, 5, b"bbb")).unwrap();
            wal.append(WalEntry::Commit {
                txn: 1,
                lsn: 2,
                participants: 1,
                touched: vec![(5, vec![1, 2, 3])],
                deleted: vec![],
            })
            .unwrap();
            wal.append(op_entry(3, 6, b"uncommitted")).unwrap();
        }
        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal.records_scanned(), 4);
        assert!(!wal.torn_tail());
        assert_eq!(wal.last_lsn(), 3);
        assert_eq!(wal.committed().len(), 1);
        assert_eq!(wal.committed()[&5], vec![1, 2, 3]);
        assert_eq!(wal.pending().len(), 1, "op 3 is the uncommitted tail");
        assert_eq!(wal.records().len(), 3);
        assert_eq!(wal.max_object_id(), 6);
    }

    fn op_entry_for(txn: TxnId, lsn: u64, object: u64, bytes: &[u8]) -> WalEntry {
        WalEntry::Op {
            txn,
            record: LogRecord {
                lsn,
                object,
                op: LogOp::Append {
                    bytes: bytes.to_vec(),
                },
            },
            root_after: vec![1, 2, 3],
            page_images: vec![],
        }
    }

    #[test]
    fn commit_absorbs_only_its_own_scope() {
        let v = vol(64);
        {
            let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
            wal.append(op_entry_for(1, 1, 5, b"aaa")).unwrap();
            wal.append(op_entry_for(2, 2, 6, b"bbb")).unwrap();
            wal.append(op_entry_for(1, 3, 5, b"ccc")).unwrap();
            wal.append(WalEntry::Commit {
                txn: 1,
                lsn: 3,
                participants: 1,
                touched: vec![(5, vec![1])],
                deleted: vec![],
            })
            .unwrap();
            // Scope 1's entries are absorbed; scope 2's stay pending.
            assert_eq!(wal.pending_for(1).count(), 0);
            assert_eq!(wal.pending_for(2).count(), 1);
            assert_eq!(wal.pending().len(), 1);
        }
        // A restart scan preserves the split: scope 2 is still the
        // uncommitted tail, scope 1 is committed.
        let mut wal = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal.committed()[&5], vec![1]);
        assert_eq!(wal.pending().len(), 1);
        assert_eq!(wal.pending_for(2).count(), 1);
        // An abort for scope 2 drops exactly its entries.
        wal.append(WalEntry::Abort { txn: 2, lsn: 4 }).unwrap();
        assert_eq!(wal.pending().len(), 0);
    }

    #[test]
    fn torn_tail_is_cut() {
        let v = vol(64);
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        wal.append(op_entry(1, 5, b"aaa")).unwrap();
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 1,
            participants: 1,
            touched: vec![(5, vec![1])],
            deleted: vec![],
        })
        .unwrap();
        let keep = wal.bytes_used();
        wal.append(op_entry(2, 5, b"torn victim")).unwrap();
        // Corrupt one payload byte of the last record on disk.
        let page = v.read_pages(2, 1).unwrap();
        let mut page = page;
        page[(keep + FRAME_HEADER) as usize + 2] ^= 0xFF;
        v.write_pages(2, &page).unwrap();

        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert!(wal.torn_tail());
        assert_eq!(wal.records_scanned(), 2, "prefix survives");
        assert_eq!(wal.committed().len(), 1);
        assert!(wal.pending().is_empty());
    }

    #[test]
    fn checkpoint_flips_halves_and_carries_pending() {
        let v = vol(64);
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        wal.append(op_entry(1, 5, b"committed")).unwrap();
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 1,
            participants: 1,
            touched: vec![(5, vec![1])],
            deleted: vec![],
        })
        .unwrap();
        wal.append(op_entry(2, 6, b"in flight")).unwrap();
        wal.checkpoint().unwrap();
        assert_eq!(wal.pending().len(), 1, "pending survives the flip");

        let wal2 = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal2.committed().len(), 1);
        assert_eq!(wal2.pending().len(), 1);
        assert_eq!(wal2.last_lsn(), 2);
        assert_eq!(
            wal2.records_scanned(),
            2,
            "checkpoint + carried pending record"
        );
    }

    #[test]
    fn half_overflow_checkpoints_automatically() {
        let v = vol(64);
        // 64 pages of 256 B: halves of 31 pages = 7936 bytes each.
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        for i in 0..100u64 {
            wal.append(op_entry(i + 1, 5, &[7u8; 150])).unwrap();
            wal.append(WalEntry::Commit {
                txn: 1,
                lsn: i + 1,
                participants: 1,
                touched: vec![(5, vec![8u8; 30])],
                deleted: vec![],
            })
            .unwrap();
        }
        assert!(wal.checkpoints_taken() > 0, "the log wrapped");
        let wal2 = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal2.committed().len(), 1);
        assert_eq!(wal2.last_lsn(), 100);
    }

    #[test]
    fn oversized_record_reports_log_full() {
        let v = vol(8);
        let mut wal = DurableWal::format(v, 0, 8).unwrap();
        let err = wal.append(op_entry(1, 5, &[0u8; 4096])).unwrap_err();
        assert!(matches!(err, Error::LogFull { .. }), "got {err}");
    }

    #[test]
    fn checkpoints_alternate_superblock_slots() {
        let v = vol(64);
        let ps = 256usize;
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        wal.append(op_entry(1, 5, b"aaa")).unwrap();
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 1,
            participants: 1,
            touched: vec![(5, vec![1])],
            deleted: vec![],
        })
        .unwrap();
        let epoch_of = |page: Vec<u8>| Superblock::from_page(&page).map(|sb| sb.epoch);
        assert_eq!(epoch_of(v.read_pages(0, 1).unwrap()), Some(1));
        assert_eq!(epoch_of(v.read_pages(1, 1).unwrap()), None, "slot 1 zeroed");

        // The first checkpoint must publish into the *other* slot —
        // overwriting slot 0 here would leave a torn superblock write
        // with zero valid slots.
        wal.checkpoint().unwrap();
        assert_eq!(epoch_of(v.read_pages(0, 1).unwrap()), Some(1));
        assert_eq!(epoch_of(v.read_pages(1, 1).unwrap()), Some(2));
        wal.checkpoint().unwrap();
        assert_eq!(epoch_of(v.read_pages(0, 1).unwrap()), Some(3));
        assert_eq!(epoch_of(v.read_pages(1, 1).unwrap()), Some(2));

        // A torn write of the newest superblock loses only that
        // checkpoint: attach falls back to the other slot and still
        // sees the committed state.
        v.write_pages(0, &vec![0xAAu8; ps]).unwrap();
        let wal2 = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal2.epoch, 2);
        assert_eq!(wal2.committed()[&5], vec![1]);
    }

    #[test]
    fn stale_epoch_frames_are_rejected() {
        let v = vol(64);
        {
            let wal = DurableWal::format(v.clone(), 0, 64).unwrap();
            drop(wal);
        }
        // Forge a CRC-valid frame stamped with a *different* epoch at
        // the head of the active half — the disk state a lost
        // terminator write would leave behind after a half flip.
        let payload = op_entry(9, 5, b"phantom").to_bytes();
        let mut page = vec![0u8; 256];
        page[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        page[4..8].copy_from_slice(&7u32.to_le_bytes());
        page[8..12].copy_from_slice(&frame_crc(7, &payload).to_le_bytes());
        page[12..12 + payload.len()].copy_from_slice(&payload);
        v.write_pages(2, &page).unwrap();

        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert!(wal.torn_tail(), "stale frame is cut, not replayed");
        assert_eq!(wal.records_scanned(), 0);
        assert!(wal.pending().is_empty());
    }

    #[test]
    fn corrupt_superblocks_refuse_to_reformat() {
        let v = vol(64);
        {
            let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
            wal.append(WalEntry::Commit {
                txn: 1,
                lsn: 1,
                participants: 1,
                touched: vec![(5, vec![1])],
                deleted: vec![],
            })
            .unwrap();
        }
        // Smash both superblock slots: detectable corruption must be
        // surfaced, not silently formatted over.
        v.write_pages(0, &vec![0x55u8; 256]).unwrap();
        v.write_pages(1, &vec![0x55u8; 256]).unwrap();
        let err = DurableWal::attach(v, 0, 64).map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::CorruptObject { .. }), "got {err}");
    }

    #[test]
    fn cross_stripe_commit_parts_are_held_until_resolved() {
        let v = vol(64);
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        wal.append(op_entry(1, 5, b"aaa")).unwrap();
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 2,
            participants: 2,
            touched: vec![(5, vec![1])],
            deleted: vec![],
        })
        .unwrap();
        // The part is held: nothing committed yet, the op still pends.
        assert!(wal.committed().is_empty());
        assert_eq!(wal.pending().len(), 2);
        assert_eq!(wal.unresolved_commits(), vec![(1, 2)]);

        wal.resolve_txn(1);
        assert_eq!(wal.committed()[&5], vec![1]);
        assert!(wal.pending().is_empty());

        // A restart scan sees the part again — still held — and a
        // drop (presumed abort) keeps the Op for the rollback pass.
        let mut wal2 = DurableWal::attach(v, 0, 64).unwrap();
        assert!(wal2.committed().is_empty());
        assert_eq!(wal2.unresolved_commits(), vec![(1, 2)]);
        wal2.drop_txn(1);
        assert!(wal2.unresolved_commits().is_empty());
        assert_eq!(wal2.pending_for(1).count(), 1, "the Op survives for undo");
    }

    #[test]
    fn late_resolved_part_cannot_clobber_newer_commit() {
        let v = vol(64);
        let mut wal = DurableWal::format(v, 0, 64).unwrap();
        // Part of an old cross-stripe commit of object 5 at LSN 2.
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 2,
            participants: 2,
            touched: vec![(5, vec![0xAA])],
            deleted: vec![],
        })
        .unwrap();
        // A newer self-contained commit of the same object at LSN 5.
        wal.append(WalEntry::Commit {
            txn: 2,
            lsn: 5,
            participants: 1,
            touched: vec![(5, vec![0xBB])],
            deleted: vec![],
        })
        .unwrap();
        // Resolving the stale part late must not roll the root back.
        wal.resolve_txn(1);
        assert_eq!(wal.committed()[&5], vec![0xBB]);
    }

    #[test]
    fn attach_on_virgin_region_formats_fresh() {
        let v = vol(16);
        let wal = DurableWal::attach(v.clone(), 4, 12).unwrap();
        assert_eq!(wal.last_lsn(), 0);
        assert!(wal.committed().is_empty());
        // And it is immediately reattachable.
        drop(wal);
        let wal = DurableWal::attach(v, 4, 12).unwrap();
        assert_eq!(wal.records_scanned(), 0);
    }
}
