//! The two substrates a workload section runs on, and the scratch
//! directory their files live in.
//!
//! * `mem` — a `MemVolume` with the 1992 disk profile: the CPU ceiling,
//!   and its `DiskModel` supplies the paper's seeks and transfers, which
//!   repeat exactly from run to run.
//! * `file` — a real, prefilled `FileVolume` behind a
//!   [`DevSyncVolume`]: every syscall, the `FileVolume` mutex and the
//!   page-cache copy are real, the flush costs a fixed 200 µs and
//!   serialises.
//!
//! Neither has a cache in front: `CachedVolume` is opt-in and unused by
//! `ObjectStore`, so there is no fits/does-not-fit pair to measure.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use eos_core::{ConcurrentStore, ObjectStore, StoreConfig};
use eos_pager::{DiskProfile, FileVolume, MemVolume, SharedVolume};

use crate::volumes::{DevSyncVolume, TimedVolume};

/// Page size of every bench volume.
pub const PAGE: usize = 4096;

/// The modelled device flush.
pub const SYNC_DELAY: Duration = Duration::from_micros(200);

/// A directory for volume files and traces, inside the build's target
/// directory and so inside the checkout. Removed on drop.
pub struct Scratch {
    dir: PathBuf,
    target: PathBuf,
}

impl Scratch {
    /// Create `<target>/perf-scratch-<pid>`, where `<target>` is the
    /// directory the running binary was built into.
    pub fn create() -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        // <target>/<profile>/perf, or <target>/<profile>/deps/perf-… for tests.
        let target = exe
            .ancestors()
            .find(|p| p.join("CACHEDIR.TAG").is_file() || p.join(".rustc_info.json").is_file())
            .or(exe.parent())
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
        let dir = target.join(format!("perf-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, target })
    }

    /// Path of a scratch file.
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Where the span dump of `workload` goes (kept after the run).
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.target.join(format!("trace_{workload}.json"))
    }

    /// The scratch directory itself.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is named by .gitignore.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Which volume a store is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Medium {
    /// `MemVolume`, 1992 disk profile, free sync.
    Mem,
    /// Prefilled `FileVolume` behind the modelled serialised flush.
    File,
}

/// Geometry and configuration of one store.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// The volume kind.
    pub medium: Medium,
    /// Buddy spaces.
    pub spaces: usize,
    /// Data pages per buddy space.
    pub pages_per_space: u64,
    /// Pages of the log region.
    pub wal_pages: u64,
    /// WAL stripes.
    pub wal_stripes: usize,
}

impl Shape {
    fn config(&self) -> StoreConfig {
        StoreConfig {
            sync_on_commit: true,
            wal_stripes: self.wal_stripes,
            ..StoreConfig::default()
        }
    }

    fn volume_pages(&self) -> u64 {
        (self.pages_per_space + 1) * self.spaces as u64 + self.wal_pages
    }
}

/// A built store and the handles the harness measures through.
pub struct Built {
    /// The store under test, group commit on.
    pub store: ConcurrentStore,
    /// The volume the store was given (outermost wrapper).
    pub volume: SharedVolume,
    /// The timing wrapper, present in a traced run.
    pub timed: Option<Arc<TimedVolume>>,
    /// How the store was shaped, for reopening.
    pub shape: Shape,
    path: Option<PathBuf>,
}

impl Built {
    /// Reopen the volume through restart recovery. The caller must have
    /// dropped every other handle to the old store.
    pub fn reopen(&self) -> eos_core::Result<(ObjectStore, eos_core::RecoveryReport)> {
        let s = &self.shape;
        ObjectStore::open_durable(
            self.volume.clone(),
            s.spaces,
            s.pages_per_space,
            s.config(),
            s.wal_pages,
        )
    }
}

impl Drop for Built {
    fn drop(&mut self) {
        if let Some(p) = &self.path {
            // Unlinking drops the file's dirty pages without writeback.
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Build an empty durable store of `shape`; `name` names its file.
pub fn build(scratch: &Scratch, name: &str, shape: Shape, traced: bool) -> Result<Built, String> {
    let (raw, path): (SharedVolume, Option<PathBuf>) = match shape.medium {
        Medium::Mem => (
            MemVolume::with_profile(PAGE, shape.volume_pages(), DiskProfile::VINTAGE_1992).shared(),
            None,
        ),
        Medium::File => {
            let path = scratch.file(name);
            let file =
                FileVolume::create(&path, PAGE, shape.volume_pages(), DiskProfile::VINTAGE_1992)
                    .map_err(|e| format!("create {}: {e}", path.display()))?
                    .shared();
            prefill(&file).map_err(|e| format!("prefill {}: {e}", path.display()))?;
            (Arc::new(DevSyncVolume::new(file, SYNC_DELAY)), Some(path))
        }
    };
    let (volume, timed): (SharedVolume, _) = if traced {
        let t = Arc::new(TimedVolume::new(raw));
        (t.clone(), Some(t))
    } else {
        (raw, None)
    };
    let store = ObjectStore::create_durable(
        volume.clone(),
        shape.spaces,
        shape.pages_per_space,
        shape.config(),
        shape.wal_pages,
    )
    .map_err(|e| format!("create_durable {name}: {e}"))?;
    Ok(Built {
        store: ConcurrentStore::with_group_commit(store, true),
        volume,
        timed,
        shape,
        path,
    })
}

/// Write every page once so the measured phase never pays for first
/// touch of a sparse file.
pub fn prefill(volume: &SharedVolume) -> eos_pager::Result<()> {
    const CHUNK_PAGES: u64 = 256;
    let zeros = vec![0u8; CHUNK_PAGES as usize * PAGE];
    let mut at = 0;
    while at < volume.num_pages() {
        let n = CHUNK_PAGES.min(volume.num_pages() - at);
        volume.write_pages(at, &zeros[..n as usize * PAGE])?;
        at += n;
    }
    volume.reset_stats();
    Ok(())
}

/// Host facts printed with every run: results are this box's.
pub fn fingerprint(scratch: &Scratch) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "host: nproc={nproc} substrate_dir={} substrate_fs={} rustc=\"{rustc}\" sync_model={}us-serialised",
        scratch.dir().display(),
        filesystem_of(scratch.dir()),
        SYNC_DELAY.as_micros()
    )
}

/// Filesystem type of the longest mount point containing `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
