//! Crash-safe run journal for long-horizon detection runs (tentpole 1 of
//! the supervision layer).
//!
//! A [`RunJournal`] is an append-only JSONL file: the first line is a
//! [`JournalHeader`] binding the journal to one `(seed, scenario, config)`
//! triple, and every following line is one completed detection day's
//! [`DayRecord`]. Each line carries an FNV-1a 64 hash of its body, so a
//! torn write cannot masquerade as a valid record.
//!
//! Durability model:
//!
//! - appends are true O(1): each completed day is one `write` of a single
//!   sealed line to a file opened in append mode, synced before the append
//!   reports success — prior records are never rewritten. A kill mid-write
//!   can only tear the final line, which the loader drops;
//! - the atomic `.tmp`-and-rename rewrite is reserved for the two
//!   occasions the file's *prefix* must change: writing the header at
//!   [`RunJournal::create`], and compacting a dropped torn tail away at
//!   [`RunJournal::reopen`] so it cannot become an interior line once
//!   appends resume;
//! - on load, a truncated or hash-corrupt **final** line is dropped
//!   silently (the day it described simply re-runs), while a corrupt
//!   **interior** line is a typed [`JournalError::Corrupt`] — that file
//!   has lost history and must not be resumed from;
//! - a header that does not match the resuming run's seed, scenario, or
//!   configuration is a typed [`JournalError::HeaderMismatch`].
//!
//! The journal stores *transcripts*, not model state: beliefs, compromise
//! sets, tracker counters, and the rows rolled into the price history.
//! Resume replays the deterministic training epoch from its seeded stream
//! and then re-applies the transcripts, so no RNG state, SVR model, or
//! POMDP policy ever needs to be serialized.
//!
//! All I/O goes through an injectable [`Vfs`] (see `nms-vfs`): production
//! callers use the [`StdVfs`] convenience constructors, while crash-point
//! sweeps drive the `*_on` variants with a fault-injecting VFS. Appends
//! follow the journal degradation policy — roll the partial write back,
//! retry with linear backoff under a [`StoragePolicy`], then surface a
//! hard [`JournalError::Io`]; a rollback that itself fails is remembered
//! (`pending_rollback`) and re-attempted before any future append, so a
//! torn fragment can never become a corrupt *interior* line.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use nms_core::{MeterQuarantine, QuarantineEvent};
use nms_obs::trace::SealedLine;
use nms_types::{DayHealth, RunHealth};
use nms_vfs::{write_atomic, StdVfs, StorageError, StoragePolicy, StorageReport, Vfs, VfsFile};

/// Journal format version; bump on incompatible record changes.
pub const JOURNAL_VERSION: u32 = 1;

/// Why reading or writing a journal failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// Filesystem failure.
    Io(io::Error),
    /// An interior record failed its hash or did not parse; the journal
    /// has lost history and cannot be trusted.
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// The header does not match the run trying to resume.
    HeaderMismatch {
        /// What differed.
        detail: String,
    },
    /// Day records are not a contiguous `0..n` prefix.
    Gap {
        /// The day index the resume expected next.
        expected: usize,
        /// The day index the journal recorded.
        found: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(err) => write!(f, "journal I/O failure: {err}"),
            Self::Corrupt { line, detail } => {
                write!(f, "journal corrupt at line {line}: {detail}")
            }
            Self::HeaderMismatch { detail } => {
                write!(f, "journal belongs to a different run: {detail}")
            }
            Self::Gap { expected, found } => {
                write!(f, "journal day records have a gap: expected day {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

/// A failed atomic rewrite surfaces the last attempt's I/O error.
impl From<StorageError> for JournalError {
    fn from(err: StorageError) -> Self {
        match err {
            StorageError::Exhausted { last, .. } => Self::Io(last),
            other => Self::Io(io::Error::other(other)),
        }
    }
}

/// First line of every journal: identifies the run the file belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Journal format version.
    pub version: u32,
    /// The supervised run's base seed.
    pub seed: u64,
    /// Detection days the run will simulate.
    pub detection_days: usize,
    /// Fleet size, for early shape checks.
    pub fleet: usize,
    /// Fingerprint of the scenario (FNV-1a of its debug form).
    pub scenario_fingerprint: u64,
    /// Fingerprint of the run configuration (FNV-1a of its debug form).
    pub config_fingerprint: u64,
}

impl JournalHeader {
    /// Checks that `self` (loaded from disk) matches the header the
    /// resuming run would write.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::HeaderMismatch`] naming the first field
    /// that differs.
    pub fn ensure_matches(&self, expected: &Self) -> Result<(), JournalError> {
        let mismatch = |detail: String| Err(JournalError::HeaderMismatch { detail });
        if self.version != expected.version {
            return mismatch(format!(
                "journal version {} vs supported {}",
                self.version, expected.version
            ));
        }
        if self.seed != expected.seed {
            return mismatch(format!("seed {} vs {}", self.seed, expected.seed));
        }
        if self.detection_days != expected.detection_days {
            return mismatch(format!(
                "detection_days {} vs {}",
                self.detection_days, expected.detection_days
            ));
        }
        if self.fleet != expected.fleet {
            return mismatch(format!("fleet {} vs {}", self.fleet, expected.fleet));
        }
        if self.scenario_fingerprint != expected.scenario_fingerprint {
            return mismatch("scenario fingerprint differs".into());
        }
        if self.config_fingerprint != expected.config_fingerprint {
            return mismatch("run configuration fingerprint differs".into());
        }
        Ok(())
    }
}

/// One fix dispatch inside a day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixRecord {
    /// Global detection slot of the dispatch.
    pub slot: usize,
    /// Meters actually repaired.
    pub repaired: usize,
}

/// One (price, generation, demand) row rolled into the price history at
/// the end of a day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistoryRow {
    /// Cleared guideline price for the slot.
    pub price: f64,
    /// Community PV generation for the slot.
    pub generation: f64,
    /// Realized community consumption for the slot.
    pub demand: f64,
}

/// Everything one completed detection day contributed to the run — enough
/// to replay the day without re-simulating it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayRecord {
    /// Day offset within the detection epoch (0-based, contiguous).
    pub day: usize,
    /// True hacked bucket per slot.
    pub true_buckets: Vec<usize>,
    /// Observed bucket per slot (empty without a detector).
    pub observed_buckets: Vec<usize>,
    /// Realized community grid demand per slot.
    pub realized_demand: Vec<f64>,
    /// Fix dispatches, in slot order.
    pub fixes: Vec<FixRecord>,
    /// Rows appended to the price history at day end.
    pub history_rows: Vec<HistoryRow>,
    /// Compromised meter indices at day end.
    pub compromised: Vec<usize>,
    /// POMDP belief at day end (`None` without a detector).
    pub belief: Option<Vec<f64>>,
    /// Cumulative degradation ledger after this day.
    pub health: RunHealth,
    /// This day's slice of the ledger plus the quarantine census.
    pub day_health: DayHealth,
    /// Quarantine tracker state at day end (`None` without fault
    /// injection).
    pub quarantine: Option<MeterQuarantine>,
    /// Breaker transitions emitted this day.
    pub events: Vec<QuarantineEvent>,
}

/// What [`RunJournal::load`] found on disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The header, when the first line was intact.
    pub header: Option<JournalHeader>,
    /// Every intact day record, in file order.
    pub days: Vec<DayRecord>,
    /// `true` when a torn/corrupt final line was dropped.
    pub dropped_tail: bool,
}

/// The append-only on-disk journal of one supervised run.
pub struct RunJournal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// Append-mode handle; every day record is one `write` to it.
    file: Box<dyn VfsFile>,
    /// Day records persisted so far (excluding the header).
    days: usize,
    /// Append degradation policy: rollback + retry-with-backoff, then a
    /// hard error.
    policy: StoragePolicy,
    /// Offset of a partial append whose `set_len` rollback failed; it must
    /// be rolled back successfully before any future bytes are appended.
    pending_rollback: Option<u64>,
}

impl fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunJournal")
            .field("path", &self.path)
            .field("days", &self.days)
            .field("policy", &self.policy)
            .field("pending_rollback", &self.pending_rollback)
            .finish_non_exhaustive()
    }
}

impl RunJournal {
    /// Starts a fresh journal at `path` on the real filesystem, truncating
    /// whatever was there.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be written.
    pub fn create(path: impl AsRef<Path>, header: &JournalHeader) -> Result<Self, JournalError> {
        Self::create_on(Arc::new(StdVfs), path.as_ref(), header)
    }

    /// Starts a fresh journal at `path` on `vfs`, truncating whatever was
    /// there.
    ///
    /// The header is the one write that must replace the file's prefix, so
    /// it goes through the atomic `.tmp`-and-rename path; the handle then
    /// reopens in append mode for the O(1) day appends.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be written.
    pub fn create_on(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        header: &JournalHeader,
    ) -> Result<Self, JournalError> {
        let path = path.to_path_buf();
        let body = serde_json::to_string(header)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        let mut line = serde_json::to_string(&SealedLine::seal(body))
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        line.push('\n');
        write_atomic(
            vfs.as_ref(),
            &path,
            line.as_bytes(),
            &StoragePolicy::no_retries(),
        )?;
        let file = vfs.open_append(&path)?;
        Ok(Self {
            vfs,
            path,
            file,
            days: 0,
            policy: StoragePolicy::default(),
            pending_rollback: None,
        })
    }

    /// Opens an existing journal on the real filesystem for appending.
    /// See [`RunJournal::reopen_on`].
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be read, or any
    /// loader error from re-reading it.
    pub fn reopen(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        Self::reopen_on(Arc::new(StdVfs), path.as_ref())
    }

    /// Opens an existing journal on `vfs` for appending, resuming after
    /// `days` already-loaded records. Use [`RunJournal::load`] first to
    /// read and verify the records.
    ///
    /// A torn final line is dropped exactly as [`RunJournal::load`] drops
    /// it — but here the file is also compacted (atomically) so the torn
    /// bytes cannot end up as a corrupt *interior* line once appending
    /// resumes. An intact file is left byte-for-byte untouched.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be read, or any
    /// loader error from re-reading it.
    pub fn reopen_on(vfs: Arc<dyn Vfs>, path: &Path) -> Result<Self, JournalError> {
        let path = path.to_path_buf();
        let content = vfs.read_to_string(&path)?;
        let mut lines = Vec::new();
        let raw: Vec<&str> = content.lines().filter(|l| !l.trim().is_empty()).collect();
        for (index, raw_line) in raw.iter().enumerate() {
            if Self::verify_line(raw_line, index).is_ok() {
                lines.push((*raw_line).to_string());
            } else if index + 1 == raw.len() {
                // Torn tail: drop it; the day re-runs.
                break;
            } else {
                return Err(JournalError::Corrupt {
                    line: index + 1,
                    detail: "interior record failed verification".into(),
                });
            }
        }
        if lines.len() != raw.len() {
            let mut content = lines.join("\n");
            content.push('\n');
            write_atomic(
                vfs.as_ref(),
                &path,
                content.as_bytes(),
                &StoragePolicy::no_retries(),
            )?;
        }
        let file = vfs.open_append(&path)?;
        Ok(Self {
            days: lines.len().saturating_sub(1),
            vfs,
            path,
            file,
            policy: StoragePolicy::default(),
            pending_rollback: None,
        })
    }

    /// Replaces the append degradation policy (defaults to
    /// [`StoragePolicy::default`]: 3 attempts, 2 ms linear backoff).
    #[must_use]
    pub fn with_policy(mut self, policy: StoragePolicy) -> Self {
        self.policy = policy;
        self
    }

    fn verify_line(raw: &str, index: usize) -> Result<String, String> {
        let line: SealedLine =
            serde_json::from_str(raw).map_err(|err| format!("unparsable line: {err}"))?;
        let body = line.verify()?;
        // Shape-check the body so a sealed-but-wrong record is caught here.
        if index == 0 {
            serde_json::from_str::<JournalHeader>(body)
                .map_err(|err| format!("bad header: {err}"))?;
        } else {
            serde_json::from_str::<DayRecord>(body)
                .map_err(|err| format!("bad day record: {err}"))?;
        }
        Ok(body.to_string())
    }

    /// Reads and verifies a journal file on the real filesystem. See
    /// [`RunJournal::load_on`].
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Corrupt`] for a bad interior line and
    /// [`JournalError::Io`] for filesystem failures other than the file
    /// not existing.
    pub fn load(path: impl AsRef<Path>) -> Result<LoadedJournal, JournalError> {
        Self::load_on(&StdVfs, path.as_ref())
    }

    /// Reads and verifies a journal file on `vfs`.
    ///
    /// A torn or hash-corrupt **final** line is dropped (`dropped_tail`);
    /// a missing file loads as an empty journal with no header.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Corrupt`] for a bad interior line and
    /// [`JournalError::Io`] for filesystem failures other than the file
    /// not existing.
    pub fn load_on(vfs: &dyn Vfs, path: &Path) -> Result<LoadedJournal, JournalError> {
        let content = match vfs.read_to_string(path) {
            Ok(content) => content,
            Err(err) if err.kind() == io::ErrorKind::NotFound => {
                return Ok(LoadedJournal {
                    header: None,
                    days: Vec::new(),
                    dropped_tail: false,
                });
            }
            Err(err) => return Err(err.into()),
        };
        let raw: Vec<&str> = content.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut header = None;
        let mut days = Vec::new();
        let mut dropped_tail = false;
        for (index, raw_line) in raw.iter().enumerate() {
            match Self::verify_line(raw_line, index) {
                Ok(body) => {
                    if index == 0 {
                        header = Some(serde_json::from_str::<JournalHeader>(&body).map_err(
                            |err| JournalError::Corrupt {
                                line: 1,
                                detail: err.to_string(),
                            },
                        )?);
                    } else {
                        days.push(serde_json::from_str::<DayRecord>(&body).map_err(|err| {
                            JournalError::Corrupt {
                                line: index + 1,
                                detail: err.to_string(),
                            }
                        })?);
                    }
                }
                Err(detail) => {
                    if index + 1 == raw.len() {
                        dropped_tail = true;
                        break;
                    }
                    return Err(JournalError::Corrupt {
                        line: index + 1,
                        detail,
                    });
                }
            }
        }
        Ok(LoadedJournal {
            header,
            days,
            dropped_tail,
        })
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed day: a single sealed-line write to the
    /// append-mode handle, synced before returning — O(1) in the number of
    /// days already journaled.
    ///
    /// Degradation policy: a failed attempt is rolled back with `set_len`
    /// and retried with linear backoff up to the journal's
    /// [`StoragePolicy`]; the returned [`StorageReport`] says how many
    /// attempts the append consumed so supervision can tick the retries
    /// into its storage-fault ledger. If a rollback itself fails, the
    /// append stops retrying (appending over a torn fragment would corrupt
    /// an interior line) and the offset is remembered; the next
    /// `append_day` re-attempts that rollback before writing anything new.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] with the last attempt's error once the
    /// policy is exhausted. Any leftover partial bytes are a torn *final*
    /// line, which the loader already drops.
    pub fn append_day(&mut self, record: &DayRecord) -> Result<StorageReport, JournalError> {
        let body = serde_json::to_string(record)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        let mut line = serde_json::to_string(&SealedLine::seal(body))
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        line.push('\n');

        // A previous append left a torn fragment it could not roll back:
        // clear it first, or refuse to stack bytes on top of it.
        if let Some(offset) = self.pending_rollback {
            self.file.set_len(offset)?;
            self.pending_rollback = None;
        }

        let attempts = self.policy.max_attempts.max(1);
        let mut last: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let pause = self.policy.backoff.saturating_mul(attempt as u32);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            let offset = self.file.len()?;
            let written = self
                .file
                .write_all(line.as_bytes())
                .and_then(|()| self.file.sync_data());
            match written {
                Ok(()) => {
                    self.days += 1;
                    return Ok(StorageReport {
                        attempts: attempt + 1,
                    });
                }
                Err(err) => {
                    // Roll the partial write back so the retry appends to a
                    // clean offset; if the rollback fails too, remember the
                    // offset and bail — the leftover is a torn tail, which
                    // recovery tolerates, but only while it stays *final*.
                    if self.file.set_len(offset).is_err() {
                        self.pending_rollback = Some(offset);
                        return Err(err.into());
                    }
                    last = Some(err);
                }
            }
        }
        Err(last
            .unwrap_or_else(|| io::Error::other("journal append made no attempts"))
            .into())
    }

    /// The VFS this journal writes through (for reloading from the same
    /// storage the appends landed on).
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn header() -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            seed: 7,
            detection_days: 3,
            fleet: 10,
            scenario_fingerprint: 1,
            config_fingerprint: 2,
        }
    }

    fn day(day: usize) -> DayRecord {
        DayRecord {
            day,
            true_buckets: vec![0, 1],
            observed_buckets: vec![0, 0],
            realized_demand: vec![1.5, 2.5],
            fixes: vec![FixRecord {
                slot: day * 2,
                repaired: 1,
            }],
            history_rows: vec![HistoryRow {
                price: 10.0,
                generation: 0.5,
                demand: 2.0,
            }],
            compromised: vec![3],
            belief: Some(vec![0.25, 0.75]),
            health: RunHealth::new(),
            day_health: DayHealth::default(),
            quarantine: None,
            events: Vec::new(),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("nms-journal-test-{}-{name}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn write_load_roundtrip() {
        let path = temp_path("roundtrip");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        journal.append_day(&day(0)).unwrap();
        journal.append_day(&day(1)).unwrap();
        assert_eq!(journal.days, 2);

        let loaded = RunJournal::load(&path).unwrap();
        assert_eq!(loaded.header.unwrap(), header());
        assert_eq!(loaded.days, vec![day(0), day(1)]);
        assert!(!loaded.dropped_tail);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_is_dropped_not_fatal() {
        let path = temp_path("truncated");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        journal.append_day(&day(0)).unwrap();
        journal.append_day(&day(1)).unwrap();
        // Tear the last line mid-record, as a crash mid-write would.
        let content = fs::read_to_string(&path).unwrap();
        let torn = &content[..content.len() - 25];
        fs::write(&path, torn).unwrap();

        let loaded = RunJournal::load(&path).unwrap();
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.days, vec![day(0)]);

        // Reopen for append drops the same tail and keeps appending.
        let mut reopened = RunJournal::reopen(&path).unwrap();
        assert_eq!(reopened.days, 1);
        reopened.append_day(&day(1)).unwrap();
        let reloaded = RunJournal::load(&path).unwrap();
        assert_eq!(reloaded.days.len(), 2);
        assert!(!reloaded.dropped_tail);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn append_extends_the_file_in_place() {
        let path = temp_path("in-place");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        journal.append_day(&day(0)).unwrap();
        let before = fs::read_to_string(&path).unwrap();
        #[cfg(unix)]
        let inode_before = {
            use std::os::unix::fs::MetadataExt;
            fs::metadata(&path).unwrap().ino()
        };
        journal.append_day(&day(1)).unwrap();
        let after = fs::read_to_string(&path).unwrap();
        // Prior records are never rewritten: the old file is a byte prefix
        // of the new one, and (on unix) the inode never changes — appends
        // go through the open handle, not a tmp-and-rename.
        assert!(after.starts_with(&before));
        assert_eq!(after.lines().count(), before.lines().count() + 1);
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            assert_eq!(fs::metadata(&path).unwrap().ino(), inode_before);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reopen_compacts_a_torn_tail_before_appending() {
        let path = temp_path("compact");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        journal.append_day(&day(0)).unwrap();
        journal.append_day(&day(1)).unwrap();
        let intact = fs::read_to_string(&path).unwrap();
        let last_len = intact.lines().last().unwrap().len();
        fs::write(&path, &intact[..intact.len() - last_len / 2]).unwrap();

        let reopened = RunJournal::reopen(&path).unwrap();
        assert_eq!(reopened.days, 1);
        // The torn bytes are gone from disk immediately, not just ignored:
        // every line of the compacted file verifies.
        let compacted = fs::read_to_string(&path).unwrap();
        assert_eq!(compacted.lines().count(), 2);
        let loaded = RunJournal::load(&path).unwrap();
        assert!(!loaded.dropped_tail);
        assert_eq!(loaded.days, vec![day(0)]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_interior_line_is_a_typed_error() {
        let path = temp_path("interior");
        let mut journal = RunJournal::create(&path, &header()).unwrap();
        journal.append_day(&day(0)).unwrap();
        journal.append_day(&day(1)).unwrap();
        // Flip bytes inside the *first day* line (line 2 of 3).
        let content = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = content.lines().map(str::to_string).collect();
        lines[1] = lines[1].replace("true_buckets", "drue_buckets");
        fs::write(&path, lines.join("\n")).unwrap();

        match RunJournal::load(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(RunJournal::reopen(&path).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn header_mismatch_is_detected() {
        let good = header();
        let mut stale = header();
        stale.seed = 8;
        match stale.ensure_matches(&good) {
            Err(JournalError::HeaderMismatch { detail }) => {
                assert!(detail.contains("seed"), "{detail}");
            }
            other => panic!("expected HeaderMismatch, got {other:?}"),
        }
        assert!(good.ensure_matches(&header()).is_ok());
    }

    #[test]
    fn missing_file_loads_empty() {
        let path = temp_path("missing");
        let loaded = RunJournal::load(&path).unwrap();
        assert!(loaded.header.is_none());
        assert!(loaded.days.is_empty());
        assert!(!loaded.dropped_tail);
    }
}
