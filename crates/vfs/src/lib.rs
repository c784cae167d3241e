//! Injectable storage layer for every durable writer in the workspace.
//!
//! The multi-day detection pipeline only works if its durable state — run
//! journals, trace streams, CSV exports, bench records — survives the
//! failures real field infrastructure produces: short writes, full disks,
//! failing fsyncs, and processes killed mid-operation. This crate makes
//! that testable by putting one seam under all of it:
//!
//! - [`Vfs`] / [`VfsFile`] — the minimal filesystem surface the durable
//!   writers need (whole-file write, rename, append handles with
//!   `sync`/`set_len`, read-back);
//! - [`StdVfs`] — the production implementation, a thin passthrough to
//!   `std::fs`;
//! - [`FaultVfs`] — a deterministic in-memory
//!   implementation that injects faults from a seeded
//!   [`IoFaultPlan`]: ENOSPC, short writes, fsync
//!   failures, and a FoundationDB-style *kill at operation k* that tears
//!   the in-flight write and fails everything after it, so a crash-point
//!   sweep can enumerate every I/O operation of a run as a kill point;
//! - [`write_atomic`] + [`StoragePolicy`] — the shared
//!   tmp-then-rename discipline with bounded, backed-off retries and a
//!   typed [`StorageError`] when the retries are exhausted.
//!
//! Nothing here draws from the simulation's RNG streams: fault decisions
//! hash `(plan seed, operation index)`, so a plan injects the same faults
//! no matter what the bytes being written are or which thread writes them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub mod fault;

pub use fault::{FaultVfs, InjectedFault, InjectedFaults, IoFaultPlan};

/// An open file handle on a [`Vfs`], sufficient for append-only sealed-line
/// writers: append bytes, make them durable, and roll a partial append back.
pub trait VfsFile: Send {
    /// Appends (or, for handles opened by [`Vfs::open_append`], extends)
    /// the file with `buf`, all-or-error from the caller's perspective —
    /// though a failing implementation may leave a *prefix* of `buf`
    /// behind, which is exactly the torn-tail case durable writers must
    /// tolerate or roll back.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flushes written data to durable storage (`fdatasync` semantics).
    fn sync_data(&mut self) -> io::Result<()>;

    /// Current length of the file in bytes.
    fn len(&self) -> io::Result<u64>;

    /// `true` when the file is empty.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Truncates (or zero-extends) the file to `len` bytes — the rollback
    /// primitive for a partial append.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem surface shared by every durable writer in the workspace.
///
/// Deliberately minimal: whole-file writes (for `.tmp` siblings), atomic
/// rename, append handles, and read-back. Implementations must be usable
/// behind `Arc<dyn Vfs>` from multiple threads.
pub trait Vfs: Send + Sync {
    /// Reads the whole file as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Creates-or-truncates `path` with exactly `contents`.
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` onto `to` (replacing it).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Opens an *existing* file for appending (`NotFound` when missing,
    /// matching `std` append-without-create semantics).
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
}

/// The production [`Vfs`]: a thin passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

struct StdFile(fs::File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl Vfs for StdVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        fs::write(path, contents)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(StdFile(file)))
    }
}

/// The `.tmp` sibling used by [`write_atomic`]: `dir/name.ext` →
/// `dir/name.ext.tmp` (suffix-append, so distinct artifacts in one
/// directory never share a staging file).
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Bounded-retry policy for durable writes that may transiently fail
/// (ENOSPC racing a log rotation, an NFS hiccup, an injected fault).
///
/// Attempt `k` (zero-based) sleeps `backoff · k` before running, so the
/// first attempt is immediate and pressure backs off linearly. Retries
/// affect only wall-clock, never results — a retried write produces the
/// same bytes as a first-try success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoragePolicy {
    /// Total attempts allowed (≥ 1; 1 means no retries).
    pub max_attempts: usize,
    /// Base backoff between attempts.
    pub backoff: Duration,
}

impl Default for StoragePolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff: Duration::from_millis(2),
        }
    }
}

impl StoragePolicy {
    /// A policy that fails on the first error (no retries, no backoff).
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// How a policed durable write went: `attempts` made in total (1 = clean
/// first-try success).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// Attempts consumed, including the successful one.
    pub attempts: usize,
}

impl StorageReport {
    /// Retries consumed beyond the first attempt.
    pub fn retries(&self) -> usize {
        self.attempts.saturating_sub(1)
    }
}

/// Why a policed durable write failed for good.
#[derive(Debug)]
#[non_exhaustive]
pub enum StorageError {
    /// The artifact could not be serialized in memory; no bytes touched
    /// storage.
    Render(io::Error),
    /// Every attempt failed. The destination is untouched — staged bytes
    /// only ever land in the `.tmp` sibling until the final rename.
    Exhausted {
        /// Attempts made.
        attempts: usize,
        /// The last attempt's error.
        last: io::Error,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Render(err) => write!(f, "artifact serialization failed: {err}"),
            Self::Exhausted { attempts, last } => {
                write!(f, "durable write failed after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Render(err) | Self::Exhausted { last: err, .. } => Some(err),
        }
    }
}

/// Writes `contents` to `path` atomically (stage in a `.tmp` sibling, then
/// rename over the destination) under `policy`'s bounded retries.
///
/// A kill at any point leaves either the old destination or the new one,
/// never a torn mix — a torn `.tmp` sibling is dead weight the next
/// attempt overwrites.
///
/// # Errors
///
/// Returns [`StorageError::Exhausted`] once every attempt has failed.
pub fn write_atomic(
    vfs: &dyn Vfs,
    path: &Path,
    contents: &[u8],
    policy: &StoragePolicy,
) -> Result<StorageReport, StorageError> {
    let tmp = tmp_sibling(path);
    let attempts = policy.max_attempts.max(1);
    let mut last: Option<io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            let pause = policy.backoff.saturating_mul(attempt as u32);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
        match vfs.write(&tmp, contents).and_then(|()| vfs.rename(&tmp, path)) {
            Ok(()) => return Ok(StorageReport { attempts: attempt + 1 }),
            Err(err) => last = Some(err),
        }
    }
    Err(StorageError::Exhausted {
        attempts,
        last: last.unwrap_or_else(|| io::Error::other("no attempt ran")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("nms-vfs-{tag}-{}.txt", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn std_vfs_roundtrip_and_append() {
        let vfs = StdVfs;
        let path = temp_path("roundtrip");
        vfs.write(&path, b"line one\n").unwrap();
        {
            let mut file = vfs.open_append(&path).unwrap();
            file.write_all(b"line two\n").unwrap();
            file.sync_data().unwrap();
            assert_eq!(file.len().unwrap(), 18);
            assert!(!file.is_empty().unwrap());
        }
        assert_eq!(vfs.read_to_string(&path).unwrap(), "line one\nline two\n");

        // Rollback primitive: truncate back to the first line.
        let mut file = vfs.open_append(&path).unwrap();
        file.set_len(9).unwrap();
        drop(file);
        assert_eq!(vfs.read_to_string(&path).unwrap(), "line one\n");

        vfs.remove_file(&path).unwrap();
        assert!(vfs.read_to_string(&path).is_err());
        // Append without create refuses a missing file.
        let err = vfs.open_append(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn write_atomic_stages_through_a_tmp_sibling() {
        let vfs = StdVfs;
        let path = temp_path("atomic");
        let report = write_atomic(&vfs, &path, b"v1", &StoragePolicy::default()).unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.retries(), 0);
        assert_eq!(vfs.read_to_string(&path).unwrap(), "v1");
        // The staging sibling is consumed by the rename.
        assert!(vfs.read_to_string(&tmp_sibling(&path)).is_err());
        write_atomic(&vfs, &path, b"v2", &StoragePolicy::no_retries()).unwrap();
        assert_eq!(vfs.read_to_string(&path).unwrap(), "v2");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tmp_sibling_appends_not_replaces() {
        assert_eq!(
            tmp_sibling(Path::new("out/run.jsonl")),
            PathBuf::from("out/run.jsonl.tmp")
        );
        // Two artifacts differing only in extension keep distinct siblings
        // (with_extension-style replacement would collide them).
        assert_ne!(
            tmp_sibling(Path::new("a.csv")),
            tmp_sibling(Path::new("a.json"))
        );
    }
}
