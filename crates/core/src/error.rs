//! Error type for the large object manager.

use std::fmt;

/// Result alias used throughout `eos-core`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the EOS large object manager.
#[derive(Debug)]
pub enum Error {
    /// A byte offset or range fell outside the object.
    OutOfObjectBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Current object size.
        object_size: u64,
    },
    /// The database has no room for the requested growth.
    NoSpace {
        /// Pages that could not be allocated.
        requested_pages: u64,
    },
    /// An object descriptor or index page failed validation.
    CorruptObject {
        /// Human-readable description.
        reason: String,
    },
    /// The operation is not supported by this store (used by baselines
    /// that lack, e.g., byte inserts).
    Unsupported {
        /// The operation name.
        op: &'static str,
        /// Why it is unsupported.
        reason: String,
    },
    /// A transaction token was used after commit/abort.
    StaleTransaction,
    /// A snapshot read named an object id the pinned committed root
    /// set does not contain (never created, or deleted before the
    /// snapshot was pinned).
    UnknownObject {
        /// The object id that was looked up.
        id: u64,
    },
    /// A group commit could not make its batch durable. On a data
    /// barrier failure the transaction was rolled back; on a log force
    /// failure its durability is unknown (restart recovery decides).
    CommitFailed {
        /// Human-readable description.
        reason: String,
    },
    /// A durable log record does not fit in the reserved log region,
    /// even after checkpointing (the region is too small for the
    /// transaction's footprint).
    LogFull {
        /// Bytes the record needs.
        needed: u64,
        /// Bytes one log half can hold.
        available: u64,
    },
    /// Waiting for an object lock would close a wait-for cycle: the
    /// holder already waits, directly or down a chain, on `txn`. The
    /// caller aborts `txn`, which releases its locks, and may retry.
    Deadlock {
        /// The refused transaction.
        txn: u64,
        /// The object whose lock it requested.
        object: u64,
    },
    /// An underlying buddy-allocator error.
    Buddy(eos_buddy::Error),
    /// An underlying volume error.
    Pager(eos_pager::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfObjectBounds {
                offset,
                len,
                object_size,
            } => write!(
                f,
                "range [{offset}, {}) outside object of {object_size} bytes",
                offset + len
            ),
            Error::NoSpace { requested_pages } => {
                write!(f, "no space for {requested_pages} more pages")
            }
            Error::CorruptObject { reason } => write!(f, "corrupt object: {reason}"),
            Error::Unsupported { op, reason } => {
                write!(f, "operation `{op}` unsupported: {reason}")
            }
            Error::StaleTransaction => write!(f, "transaction already finished"),
            Error::UnknownObject { id } => {
                write!(f, "object {id} not in the snapshot's committed root set")
            }
            Error::CommitFailed { reason } => write!(f, "commit failed: {reason}"),
            Error::LogFull { needed, available } => write!(
                f,
                "log record of {needed} bytes exceeds the {available}-byte log half"
            ),
            Error::Deadlock { txn, object } => write!(
                f,
                "transaction {txn} refused the lock on object {object}: waiting would deadlock"
            ),
            Error::Buddy(e) => write!(f, "space manager: {e}"),
            Error::Pager(e) => write!(f, "volume: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Buddy(e) => Some(e),
            Error::Pager(e) => Some(e),
            _ => None,
        }
    }
}

impl From<eos_buddy::Error> for Error {
    fn from(e: eos_buddy::Error) -> Self {
        match e {
            eos_buddy::Error::NoSpace { requested_pages } => Error::NoSpace { requested_pages },
            other => Error::Buddy(other),
        }
    }
}

impl From<eos_pager::Error> for Error {
    fn from(e: eos_pager::Error) -> Self {
        Error::Pager(e)
    }
}
