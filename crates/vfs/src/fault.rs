//! Deterministic storage-fault injection over an in-memory disk.
//!
//! [`FaultVfs`] is the storage half of the workspace's fault story (the
//! telemetry half lives in `nms-sim::faults`): a [`Vfs`] whose files live
//! in memory and whose failures replay exactly from a seeded
//! [`IoFaultPlan`]. Every *mutating* operation — whole-file write, append,
//! rename, truncate, remove, fsync — consumes one global operation index,
//! and each index independently decides its fate by hashing
//! `(plan seed, index, fault kind)`:
//!
//! - **ENOSPC** — the write fails cleanly with
//!   [`std::io::ErrorKind::StorageFull`]; no bytes land;
//! - **short write** — a strict prefix of the buffer lands, then the
//!   operation errors (the torn-tail shape sealed-line loaders must drop
//!   and append-writers must roll back);
//! - **fsync failure** — `sync_data` errors; previously applied bytes stay
//!   (this model treats applied writes as durable — the fault tests the
//!   *caller's* error path, not page-cache reordering);
//! - **kill at operation k** — the in-flight write applies a torn prefix,
//!   then the whole VFS "crashes": every subsequent operation (reads
//!   included) fails until [`FaultVfs::revive`], which models the reboot.
//!
//! Reads and handle metadata never consume operation indices, so a crash
//! sweep's kill points enumerate exactly the durable mutations of a run.
//! Because decisions hash the operation index rather than sampling an RNG
//! stream, the same plan injects the same faults regardless of the bytes
//! written, the caller's thread, or how many reads interleave.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use crate::{Vfs, VfsFile};

/// Message prefix marking an injected ENOSPC.
const MSG_ENOSPC: &str = "nms-vfs: injected ENOSPC";
/// Message prefix marking an injected short write.
const MSG_SHORT_WRITE: &str = "nms-vfs: injected short write";
/// Message prefix marking an injected fsync failure.
const MSG_SYNC: &str = "nms-vfs: injected fsync failure";
/// Message prefix marking the kill-point operation itself.
const MSG_KILLED: &str = "nms-vfs: killed";
/// Message prefix marking operations attempted after the kill point.
const MSG_CRASHED: &str = "nms-vfs: crashed";

/// Which injected fault an [`std::io::Error`] carries, recovered from the
/// error message so degradation policies can tally ENOSPC separately from
/// fsync failures without new error types threading through every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InjectedFault {
    /// An injected out-of-space write failure.
    Enospc,
    /// An injected short (torn) write.
    ShortWrite,
    /// An injected fsync failure.
    SyncFailure,
    /// The kill-point operation itself.
    Kill,
    /// An operation attempted after the kill point (machine "down").
    Crashed,
}

/// Classifies an error produced by a [`FaultVfs`]; `None` for organic
/// errors (including everything [`crate::StdVfs`] returns). Only the unit
/// tests below classify errors.
#[cfg(test)]
pub(crate) fn injected_fault(err: &io::Error) -> Option<InjectedFault> {
    let msg = err.to_string();
    if msg.starts_with(MSG_ENOSPC) {
        Some(InjectedFault::Enospc)
    } else if msg.starts_with(MSG_SHORT_WRITE) {
        Some(InjectedFault::ShortWrite)
    } else if msg.starts_with(MSG_SYNC) {
        Some(InjectedFault::SyncFailure)
    } else if msg.starts_with(MSG_KILLED) {
        Some(InjectedFault::Kill)
    } else if msg.starts_with(MSG_CRASHED) {
        Some(InjectedFault::Crashed)
    } else {
        None
    }
}

/// A serializable, seeded plan for injecting storage faults.
///
/// Rates apply per mutating operation, independently; `fault_from_op`
/// shields a run's setup phase (say, a trace header) so a test can target
/// steady-state writes. [`IoFaultPlan::none`] (also `Default`) injects
/// nothing and makes [`FaultVfs`] a plain deterministic in-memory disk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoFaultPlan {
    /// Seed for the per-operation fault draws.
    #[serde(default)]
    pub seed: u64,
    /// Probability a write lands only a strict prefix of its bytes.
    #[serde(default)]
    pub short_write_rate: f64,
    /// Probability a write fails cleanly with `StorageFull`.
    #[serde(default)]
    pub enospc_rate: f64,
    /// Probability an fsync fails.
    #[serde(default)]
    pub sync_fail_rate: f64,
    /// Kill the VFS at this global operation index: the in-flight write
    /// tears, and everything after fails until [`FaultVfs::revive`].
    #[serde(default)]
    pub kill_at_op: Option<u64>,
    /// Operations below this index never draw rate faults (the kill point
    /// still applies), letting setup I/O through untouched.
    #[serde(default)]
    pub fault_from_op: u64,
}

impl Default for IoFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl IoFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            short_write_rate: 0.0,
            enospc_rate: 0.0,
            sync_fail_rate: 0.0,
            kill_at_op: None,
            fault_from_op: 0,
        }
    }

    /// A clean plan that kills the VFS at operation `op`.
    pub fn kill_at(op: u64) -> Self {
        Self {
            kill_at_op: Some(op),
            ..Self::none()
        }
    }

    /// Checks the rates are probabilities.
    ///
    /// # Errors
    ///
    /// Returns a description of the first rate outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("short_write_rate", self.short_write_rate),
            ("enospc_rate", self.enospc_rate),
            ("sync_fail_rate", self.sync_fail_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        Ok(())
    }

    /// `true` when the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.short_write_rate == 0.0
            && self.enospc_rate == 0.0
            && self.sync_fail_rate == 0.0
            && self.kill_at_op.is_none()
    }
}

/// Tallies of every fault a [`FaultVfs`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Writes failed with `StorageFull`.
    pub enospc: u64,
    /// Writes that landed only a prefix.
    pub short_writes: u64,
    /// Fsyncs failed.
    pub sync_failures: u64,
    /// Kill points fired (0 or 1 per life; `revive` re-arms nothing).
    pub kills: u64,
}

impl InjectedFaults {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.enospc + self.short_writes + self.sync_failures + self.kills
    }
}

/// FNV-1a over the little-endian bytes of `(seed, op, salt)` — the
/// deterministic per-operation fault draw.
fn mix(seed: u64, op: u64, salt: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in [seed, op, salt] {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Maps a draw to `[0, 1)`.
fn unit(seed: u64, op: u64, salt: u64) -> f64 {
    (mix(seed, op, salt) >> 11) as f64 / (1u64 << 53) as f64
}

const SALT_ENOSPC: u64 = 1;
const SALT_SHORT: u64 = 2;
const SALT_SYNC: u64 = 3;
const SALT_TORN: u64 = 4;

struct FaultState {
    plan: IoFaultPlan,
    disk: BTreeMap<PathBuf, Vec<u8>>,
    ops: u64,
    killed: bool,
    injected: InjectedFaults,
}

impl FaultState {
    fn crashed_error() -> io::Error {
        io::Error::other(format!("{MSG_CRASHED} (operation after the kill point)"))
    }

    /// Gate for every operation (reads included): a killed VFS is down.
    fn ensure_alive(&self) -> io::Result<()> {
        if self.killed {
            Err(Self::crashed_error())
        } else {
            Ok(())
        }
    }

    /// Consumes one mutating-operation index.
    fn begin_op(&mut self) -> io::Result<u64> {
        self.ensure_alive()?;
        let op = self.ops;
        self.ops += 1;
        Ok(op)
    }

    /// `true` (after entering the crashed state) when `op` is the kill
    /// point.
    fn kill_fires(&mut self, op: u64) -> bool {
        if self.plan.kill_at_op == Some(op) {
            self.killed = true;
            self.injected.kills += 1;
            true
        } else {
            false
        }
    }

    fn killed_error(op: u64) -> io::Error {
        io::Error::other(format!("{MSG_KILLED} at operation {op}"))
    }

    fn apply_write(&mut self, path: &Path, bytes: &[u8], append: bool) {
        let entry = self.disk.entry(path.to_path_buf()).or_default();
        if !append {
            entry.clear();
        }
        entry.extend_from_slice(bytes);
    }

    /// One faultable write of `buf` to `path` (`append` false = truncate).
    fn faulted_write(&mut self, path: &Path, buf: &[u8], append: bool) -> io::Result<()> {
        let op = self.begin_op()?;
        let plan = self.plan;
        if self.kill_fires(op) {
            // Torn tail: a deterministic prefix of the in-flight bytes
            // survives the crash.
            let keep = (unit(plan.seed, op, SALT_TORN) * buf.len() as f64) as usize;
            self.apply_write(path, &buf[..keep.min(buf.len())], append);
            return Err(Self::killed_error(op));
        }
        if op >= plan.fault_from_op {
            if unit(plan.seed, op, SALT_ENOSPC) < plan.enospc_rate {
                self.injected.enospc += 1;
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("{MSG_ENOSPC} at operation {op}"),
                ));
            }
            if buf.len() > 1 && unit(plan.seed, op, SALT_SHORT) < plan.short_write_rate {
                let keep = 1 + (unit(plan.seed, op, SALT_TORN) * (buf.len() - 1) as f64) as usize;
                let keep = keep.min(buf.len() - 1);
                self.apply_write(path, &buf[..keep], append);
                self.injected.short_writes += 1;
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!(
                        "{MSG_SHORT_WRITE} at operation {op} ({keep} of {} bytes landed)",
                        buf.len()
                    ),
                ));
            }
        }
        self.apply_write(path, buf, append);
        Ok(())
    }
}

/// A deterministic, fault-injecting, in-memory [`Vfs`].
///
/// Clones share one disk, plan, operation counter, and fault tally — pass
/// a clone into `Arc<dyn Vfs>` consumers and keep one for inspection. See
/// the [module docs](self) for the fault and crash model.
#[derive(Clone)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

impl std::fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("FaultVfs")
            .field("plan", &state.plan)
            .field("files", &state.disk.len())
            .field("ops", &state.ops)
            .field("killed", &state.killed)
            .field("injected", &state.injected)
            .finish()
    }
}

impl FaultVfs {
    /// An empty in-memory disk governed by `plan`.
    pub fn new(plan: IoFaultPlan) -> Self {
        Self {
            state: Arc::new(Mutex::new(FaultState {
                plan,
                disk: BTreeMap::new(),
                ops: 0,
                killed: false,
                injected: InjectedFaults::default(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutating operations consumed so far (the crash sweep's kill-point
    /// space is `0..ops()` of an uninterrupted run).
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// `true` once the kill point has fired and the VFS is "down".
    pub fn is_killed(&self) -> bool {
        self.lock().killed
    }

    /// Reboots a killed VFS: the disk keeps exactly what survived the
    /// crash, the kill point is disarmed, and operations flow again.
    pub fn revive(&self) {
        let mut state = self.lock();
        state.killed = false;
        state.plan.kill_at_op = None;
    }

    /// What has actually been injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.lock().injected
    }

    /// The bytes of one file, if it exists.
    pub fn read_file(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().disk.get(path).cloned()
    }

    /// A snapshot of the whole disk (for byte-identity assertions).
    pub fn dump(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.lock().disk.clone()
    }
}

struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
}

impl FaultFile {
    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let path = self.path.clone();
        self.lock().faulted_write(&path, buf, true)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut state = self.lock();
        let op = state.begin_op()?;
        if state.kill_fires(op) {
            return Err(FaultState::killed_error(op));
        }
        let plan = state.plan;
        if op >= plan.fault_from_op && unit(plan.seed, op, SALT_SYNC) < plan.sync_fail_rate {
            state.injected.sync_failures += 1;
            return Err(io::Error::other(format!("{MSG_SYNC} at operation {op}")));
        }
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        let state = self.lock();
        state.ensure_alive()?;
        Ok(state.disk.get(&self.path).map_or(0, |bytes| bytes.len() as u64))
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut state = self.lock();
        let op = state.begin_op()?;
        if state.kill_fires(op) {
            return Err(FaultState::killed_error(op));
        }
        let entry = state.disk.entry(self.path.clone()).or_default();
        entry.resize(len as usize, 0);
        Ok(())
    }
}

impl Vfs for FaultVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let state = self.lock();
        state.ensure_alive()?;
        match state.disk.get(path) {
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such in-memory file: {}", path.display()),
            )),
            Some(bytes) => String::from_utf8(bytes.clone()).map_err(|err| {
                io::Error::new(io::ErrorKind::InvalidData, err.to_string())
            }),
        }
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.lock().faulted_write(path, contents, false)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        let op = state.begin_op()?;
        if state.kill_fires(op) {
            // A killed rename never happened: source and destination both
            // keep their pre-rename bytes (rename is atomic).
            return Err(FaultState::killed_error(op));
        }
        match state.disk.remove(from) {
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such in-memory file: {}", from.display()),
            )),
            Some(bytes) => {
                state.disk.insert(to.to_path_buf(), bytes);
                Ok(())
            }
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        let op = state.begin_op()?;
        if state.kill_fires(op) {
            return Err(FaultState::killed_error(op));
        }
        match state.disk.remove(path) {
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such in-memory file: {}", path.display()),
            )),
            Some(_) => Ok(()),
        }
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let state = self.lock();
        state.ensure_alive()?;
        if !state.disk.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such in-memory file: {}", path.display()),
            ));
        }
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_atomic, StoragePolicy};

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn clean_plan_is_a_plain_in_memory_disk() {
        let vfs = FaultVfs::new(IoFaultPlan::none());
        vfs.write(&p("a.txt"), b"hello ").unwrap();
        let mut file = vfs.open_append(&p("a.txt")).unwrap();
        file.write_all(b"world").unwrap();
        file.sync_data().unwrap();
        assert_eq!(file.len().unwrap(), 11);
        drop(file);
        assert_eq!(vfs.read_to_string(&p("a.txt")).unwrap(), "hello world");
        vfs.rename(&p("a.txt"), &p("b.txt")).unwrap();
        assert!(vfs.read_to_string(&p("a.txt")).is_err());
        assert_eq!(vfs.read_to_string(&p("b.txt")).unwrap(), "hello world");
        // write + append + sync + rename = 4 mutating ops; reads are free.
        assert_eq!(vfs.ops(), 4);
        assert_eq!(vfs.injected(), InjectedFaults::default());
        assert!(IoFaultPlan::none().is_noop());
    }

    #[test]
    fn kill_at_op_tears_the_inflight_write_and_downs_the_vfs() {
        let vfs = FaultVfs::new(IoFaultPlan::kill_at(1));
        vfs.write(&p("a.txt"), b"intact").unwrap(); // op 0
        let err = vfs.write(&p("b.txt"), b"torn-me-up").unwrap_err(); // op 1: kill
        assert_eq!(injected_fault(&err), Some(InjectedFault::Kill));
        assert!(vfs.is_killed());
        // Everything is down until the reboot, reads included.
        let err = vfs.read_to_string(&p("a.txt")).unwrap_err();
        assert_eq!(injected_fault(&err), Some(InjectedFault::Crashed));
        let err = vfs.write(&p("c.txt"), b"nope").unwrap_err();
        assert_eq!(injected_fault(&err), Some(InjectedFault::Crashed));

        vfs.revive();
        assert!(!vfs.is_killed());
        // The intact file survived; the killed write left a strict prefix.
        assert_eq!(vfs.read_to_string(&p("a.txt")).unwrap(), "intact");
        let torn = vfs.read_file(&p("b.txt")).unwrap_or_default();
        assert!(torn.len() < b"torn-me-up".len());
        assert!(b"torn-me-up".starts_with(&torn));
        // And the disarmed kill point does not re-fire.
        vfs.write(&p("c.txt"), b"post-reboot").unwrap();
        assert_eq!(vfs.injected().kills, 1);
    }

    #[test]
    fn killed_rename_never_happened() {
        let vfs = FaultVfs::new(IoFaultPlan::kill_at(1));
        vfs.write(&p("x.tmp"), b"staged").unwrap(); // op 0
        assert!(vfs.rename(&p("x.tmp"), &p("x")).is_err()); // op 1: kill
        vfs.revive();
        assert_eq!(vfs.read_to_string(&p("x.tmp")).unwrap(), "staged");
        assert!(vfs.read_to_string(&p("x")).is_err());
    }

    #[test]
    fn rate_faults_are_deterministic_and_classified() {
        let plan = IoFaultPlan {
            seed: 7,
            enospc_rate: 0.5,
            short_write_rate: 0.3,
            sync_fail_rate: 0.5,
            fault_from_op: 1, // shield the file-creating write
            ..IoFaultPlan::none()
        };
        assert!(plan.validate().is_ok());
        assert!(!plan.is_noop());

        let run = |plan: IoFaultPlan| {
            let vfs = FaultVfs::new(plan);
            let mut log = Vec::new();
            vfs.write(&p("f"), b"").expect("creation is shielded");
            let mut file = vfs.open_append(&p("f")).expect("file exists");
            for _ in 0..64 {
                log.push(match file.write_all(b"0123456789") {
                    Ok(()) => 'w',
                    Err(err) => match injected_fault(&err) {
                        Some(InjectedFault::Enospc) => 'e',
                        Some(InjectedFault::ShortWrite) => 's',
                        other => panic!("unexpected fault {other:?}"),
                    },
                });
                log.push(match file.sync_data() {
                    Ok(()) => 'y',
                    Err(err) => {
                        assert_eq!(injected_fault(&err), Some(InjectedFault::SyncFailure));
                        'n'
                    }
                });
            }
            (log, vfs.injected(), vfs.read_file(&p("f")).unwrap_or_default())
        };

        let (log_a, injected_a, bytes_a) = run(plan);
        let (log_b, injected_b, bytes_b) = run(plan);
        assert_eq!(log_a, log_b, "same plan must inject the same faults");
        assert_eq!(injected_a, injected_b);
        assert_eq!(bytes_a, bytes_b);
        assert!(injected_a.enospc > 0);
        assert!(injected_a.short_writes > 0);
        assert!(injected_a.sync_failures > 0);
        assert!(injected_a.total() > 0);
        // ENOSPC lands nothing; short writes land strict prefixes — so the
        // file length is never a multiple-of-10 corruption story alone.
        assert!(bytes_a.len() < 64 * 10);

        // A different seed gives a different schedule.
        let mut reseeded = plan;
        reseeded.seed = 8;
        let (log_c, ..) = run(reseeded);
        assert_ne!(log_a, log_c);
    }

    #[test]
    fn fault_from_op_shields_setup_io() {
        let plan = IoFaultPlan {
            seed: 3,
            enospc_rate: 1.0,
            fault_from_op: 2,
            ..IoFaultPlan::none()
        };
        let vfs = FaultVfs::new(plan);
        vfs.write(&p("header"), b"h").unwrap(); // op 0: shielded
        vfs.write(&p("header2"), b"h").unwrap(); // op 1: shielded
        let err = vfs.write(&p("body"), b"b").unwrap_err(); // op 2: faultable
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(injected_fault(&err), Some(InjectedFault::Enospc));
    }

    #[test]
    fn write_atomic_retries_through_transient_faults() {
        // Every write op faults with p=0.5; rename never rate-faults, so a
        // bounded retry eventually lands the artifact for this seed.
        let plan = IoFaultPlan {
            seed: 11,
            enospc_rate: 0.5,
            ..IoFaultPlan::none()
        };
        let vfs = FaultVfs::new(plan);
        let policy = StoragePolicy {
            max_attempts: 10,
            backoff: std::time::Duration::ZERO,
        };
        let report = write_atomic(&vfs, &p("out.csv"), b"a,b\n1,2\n", &policy).expect("retries win");
        assert!(report.attempts >= 1);
        assert_eq!(vfs.read_to_string(&p("out.csv")).unwrap(), "a,b\n1,2\n");

        // With certain failure the typed exhaustion error surfaces.
        let always = IoFaultPlan {
            seed: 11,
            enospc_rate: 1.0,
            ..IoFaultPlan::none()
        };
        let vfs = FaultVfs::new(always);
        match write_atomic(&vfs, &p("out.csv"), b"x", &StoragePolicy::default()) {
            Err(crate::StorageError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert_eq!(injected_fault(&last), Some(InjectedFault::Enospc));
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert!(vfs.read_to_string(&p("out.csv")).is_err(), "destination untouched");
    }

    #[test]
    fn set_len_rolls_back_a_torn_append() {
        let plan = IoFaultPlan {
            seed: 5,
            short_write_rate: 1.0,
            fault_from_op: 1,
            ..IoFaultPlan::none()
        };
        let vfs = FaultVfs::new(plan);
        vfs.write(&p("log"), b"line1\n").unwrap(); // op 0: shielded
        let mut file = vfs.open_append(&p("log")).unwrap();
        let before = file.len().unwrap();
        let err = file.write_all(b"line2-very-long\n").unwrap_err(); // op 1: short
        assert_eq!(injected_fault(&err), Some(InjectedFault::ShortWrite));
        assert!(file.len().unwrap() > before, "a torn prefix landed");
        file.set_len(before).unwrap();
        assert_eq!(vfs.read_to_string(&p("log")).unwrap(), "line1\n");
    }

    #[test]
    fn plan_serde_roundtrip_and_defaults() {
        let plan = IoFaultPlan {
            seed: 42,
            short_write_rate: 0.1,
            enospc_rate: 0.2,
            sync_fail_rate: 0.3,
            kill_at_op: Some(17),
            fault_from_op: 2,
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: IoFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // A bare object is the no-op plan.
        let empty: IoFaultPlan = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, IoFaultPlan::none());
        let mut bad = plan;
        bad.enospc_rate = 1.5;
        assert!(bad.validate().is_err());
    }
}
