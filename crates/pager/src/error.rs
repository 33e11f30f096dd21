//! Error type shared by the pager substrate.

use std::fmt;

/// Result alias used throughout `eos-pager`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by volumes and the disk model.
#[derive(Debug)]
pub enum Error {
    /// A page access fell outside the volume geometry.
    OutOfBounds {
        /// First page of the offending access.
        start: u64,
        /// Number of pages in the offending access.
        pages: u64,
        /// Total pages in the volume.
        volume_pages: u64,
    },
    /// A byte length — the buffer handed to a multi-page write, or the
    /// file behind a [`FileVolume`](crate::FileVolume) — was not a
    /// whole number of pages.
    UnalignedBuffer {
        /// The offending length in bytes.
        len: usize,
        /// Page size of the volume.
        page_size: usize,
    },
    /// The buffer handed to a multi-page read was not exactly the size
    /// of the pages asked for.
    BufferSizeMismatch {
        /// Length of the buffer in bytes.
        len: usize,
        /// Bytes the read transfers.
        want: usize,
    },
    /// An underlying operating-system I/O failure (file-backed volumes).
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfBounds {
                start,
                pages,
                volume_pages,
            } => write!(
                f,
                "page access [{start}, {}) outside volume of {volume_pages} pages",
                start + pages
            ),
            Error::UnalignedBuffer { len, page_size } => write!(
                f,
                "{len} bytes is not a whole number of {page_size}-byte pages"
            ),
            Error::BufferSizeMismatch { len, want } => {
                write!(f, "read buffer of {len} bytes for a {want}-byte read")
            }
            Error::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}
