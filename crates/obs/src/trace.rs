//! The JSONL structured-event sink and its schema.
//!
//! One line per event, each line a hash-sealed envelope
//! `{"hash":"<fnv1a64 of body>","body":"<event json>"}` — the
//! [`SealedLine`] the run journal (`nms-sim::journal`) writes too, so a
//! torn tail or bit-rotted line is detectable instead of silently parsed.
//! The first line is a sealed header identifying the stream and schema
//! version.
//!
//! Traces are telemetry, not recovery state: writes go through an
//! append-only handle (one write per line, no fsync), and a write error
//! degrades to a dropped-line counter instead of failing the simulation
//! that emitted the event — the trace degradation policy is
//! *drop-and-count*.
//!
//! All I/O goes through an injectable `nms-vfs` [`Vfs`]: production
//! callers use [`JsonlTrace::create`] (real filesystem), storage-fault
//! tests use [`JsonlTrace::create_on`] with a fault-injecting VFS. The
//! header is staged through a `.tmp` sibling and renamed into place, so a
//! failure during creation can never leave a torn or headerless trace
//! file at the destination path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use nms_vfs::{write_atomic, StdVfs, StoragePolicy, Vfs, VfsFile};

use crate::Recorder;

/// Schema version stamped into every trace header.
pub const TRACE_VERSION: u32 = 1;

/// FNV-1a 64-bit — the line-seal hash of traces and run journals, and the
/// hash behind a journal header's scenario and config fingerprints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A named numeric payload entry of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceField {
    /// Field name.
    pub key: String,
    /// Field value.
    pub value: f64,
}

/// A named string payload entry of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLabel {
    /// Label name.
    pub key: String,
    /// Label value.
    pub value: String,
}

/// One structured event: a kind, an optional detection-day anchor, and
/// flat numeric/string payloads. Deliberately schema-light — every stage
/// shares this one shape, and consumers filter on `kind`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// What happened, e.g. `"game_round"`, `"day_phases"`, `"quarantine"`.
    pub kind: String,
    /// Detection-day offset the event belongs to, when it has one.
    #[serde(default)]
    pub day: Option<usize>,
    /// Numeric payload.
    #[serde(default)]
    pub fields: Vec<TraceField>,
    /// String payload.
    #[serde(default)]
    pub labels: Vec<TraceLabel>,
}

impl TraceEvent {
    /// Starts an event of the given kind.
    pub fn new(kind: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            day: None,
            fields: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Anchors the event to a detection day.
    #[must_use]
    pub fn day(mut self, day: usize) -> Self {
        self.day = Some(day);
        self
    }

    /// Appends a numeric field.
    #[must_use]
    pub fn field(mut self, key: impl Into<String>, value: f64) -> Self {
        self.fields.push(TraceField {
            key: key.into(),
            value,
        });
        self
    }

    /// Appends a string label.
    #[must_use]
    pub fn label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push(TraceLabel {
            key: key.into(),
            value: value.into(),
        });
        self
    }

    /// The first numeric field named `key`.
    pub fn field_value(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|field| field.key == key)
            .map(|field| field.value)
    }

    /// The first label named `key`.
    pub fn label_value(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|label| label.key == key)
            .map(|label| label.value.as_str())
    }
}

/// The hash-sealed envelope around every trace line and every run-journal
/// line: the body JSON as an opaque string plus its [`fnv1a64`] hash.
/// Keeping the body a string makes the hashed bytes exact and lets a reader
/// tell "line is torn" from "record shape changed".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealedLine {
    hash: String,
    body: String,
}

impl SealedLine {
    /// Seals `body` under its hash.
    pub fn seal(body: String) -> Self {
        let hash = format!("{:016x}", fnv1a64(body.as_bytes()));
        Self { hash, body }
    }

    /// The body, once its stored hash checks out.
    ///
    /// # Errors
    ///
    /// Describes the mismatch when the stored hash is not the body's.
    pub fn verify(&self) -> Result<&str, String> {
        let expected = format!("{:016x}", fnv1a64(self.body.as_bytes()));
        if self.hash == expected {
            Ok(&self.body)
        } else {
            Err(format!(
                "seal mismatch: stored hash {} does not match body hash {expected}",
                self.hash
            ))
        }
    }
}

/// The sealed first line of a trace file.
#[derive(Debug, Serialize, Deserialize)]
struct TraceHeader {
    version: u32,
    stream: String,
}

/// Why reading a trace file failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A line failed to parse or its seal did not match.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// The file exists but has no intact sealed header line — empty, torn
    /// at line one, or never a trace file at all.
    MissingHeader {
        /// What was wrong with line one.
        detail: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(err) => write!(f, "trace io error: {err}"),
            Self::Corrupt { line, detail } => write!(f, "trace line {line} corrupt: {detail}"),
            Self::MissingHeader { detail } => {
                write!(f, "trace has no intact header: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

/// Seals `event` into the exact line the trace file stores (no trailing
/// newline): the envelope JSON around the event's body JSON. `None` when
/// the event cannot be serialized — the same condition the sink counts as
/// a drop. Shared with live trace-tail sinks so a tailed line is
/// byte-identical to the file's line.
pub fn seal_event(event: &TraceEvent) -> Option<String> {
    serde_json::to_string(event)
        .map(SealedLine::seal)
        .and_then(|line| serde_json::to_string(&line))
        .ok()
}

/// The JSONL event sink: every [`TraceEvent`] becomes one sealed line.
pub struct JsonlTrace {
    path: PathBuf,
    writer: Mutex<Box<dyn VfsFile>>,
    dropped: AtomicU64,
}

impl JsonlTrace {
    /// Creates (truncating) a trace file at `path` on the real filesystem
    /// and writes the sealed header line.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::create_on(Arc::new(StdVfs), path.as_ref())
    }

    /// Creates (truncating) a trace file at `path` on `vfs` and writes the
    /// sealed header line.
    ///
    /// The header is staged in a `.tmp` sibling and renamed over `path`,
    /// so a failure here leaves either the previous file or a complete
    /// headered one — never a torn or empty trace at the destination.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error once the staging write's bounded
    /// retries are exhausted.
    pub fn create_on(vfs: Arc<dyn Vfs>, path: &Path) -> std::io::Result<Self> {
        let path = path.to_path_buf();
        let header = TraceHeader {
            version: TRACE_VERSION,
            stream: "nms-trace".to_string(),
        };
        let body = serde_json::to_string(&header)
            .map_err(|err| std::io::Error::other(err.to_string()))?;
        let mut line = serde_json::to_string(&SealedLine::seal(body))
            .map_err(|err| std::io::Error::other(err.to_string()))?;
        line.push('\n');
        write_atomic(vfs.as_ref(), &path, line.as_bytes(), &StoragePolicy::default())
            .map_err(|err| match err {
                nms_vfs::StorageError::Render(err) => err,
                nms_vfs::StorageError::Exhausted { last, .. } => last,
                _ => std::io::Error::other(err.to_string()),
            })?;
        let writer = vfs.open_append(&path)?;
        Ok(Self {
            path,
            writer: Mutex::new(writer),
            dropped: AtomicU64::new(0),
        })
    }

    /// Where the trace lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Events that could not be serialized or written (telemetry loss is
    /// tolerated; results never depend on it).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn count_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

impl Recorder for JsonlTrace {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: &TraceEvent) {
        let Some(mut line) = seal_event(event) else {
            self.count_drop();
            return;
        };
        line.push('\n');
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Drop-and-count: telemetry loss must never fail the run, and a
        // torn line is caught by the seal on read-back.
        if writer.write_all(line.as_bytes()).is_err() {
            self.count_drop();
        }
    }
}

/// Reads a trace file back from the real filesystem. See
/// [`read_trace_on`].
///
/// # Errors
///
/// As [`read_trace_on`].
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<TraceEvent>, TraceError> {
    read_trace_on(&StdVfs, path.as_ref())
}

/// Reads a trace file back from `vfs`: verifies the header and every
/// line's seal, returning the events in file order.
///
/// # Errors
///
/// Returns [`TraceError::MissingHeader`] when the file is empty or its
/// first line is not an intact sealed header, [`TraceError::Corrupt`] for
/// a bad seal or an unparseable line after that, and [`TraceError::Io`]
/// when the file cannot be read.
pub fn read_trace_on(vfs: &dyn Vfs, path: &Path) -> Result<Vec<TraceEvent>, TraceError> {
    let content = vfs.read_to_string(path)?;
    let mut events = Vec::new();
    let mut saw_header = false;
    for (index, line) in content.lines().enumerate() {
        let number = index + 1;
        if line.trim().is_empty() {
            continue;
        }
        let corrupt = |detail: String| {
            if number == 1 {
                TraceError::MissingHeader { detail }
            } else {
                TraceError::Corrupt {
                    line: number,
                    detail,
                }
            }
        };
        let sealed: SealedLine =
            serde_json::from_str(line).map_err(|err| corrupt(err.to_string()))?;
        let body = sealed.verify().map_err(corrupt)?;
        if number == 1 {
            let header: TraceHeader =
                serde_json::from_str(body).map_err(|err| corrupt(err.to_string()))?;
            if header.version != TRACE_VERSION || header.stream != "nms-trace" {
                return Err(corrupt(format!(
                    "unexpected header: version {} stream {:?}",
                    header.version, header.stream
                )));
            }
            saw_header = true;
            continue;
        }
        events.push(serde_json::from_str(body).map_err(|err| corrupt(err.to_string()))?);
    }
    if !saw_header {
        return Err(TraceError::MissingHeader {
            detail: "file has no lines".to_string(),
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_trace(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("nms-obs-trace-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn events_round_trip_through_the_sealed_file() {
        let path = temp_trace("roundtrip");
        let written = vec![
            TraceEvent::new("game_round")
                .day(0)
                .field("round", 1.0)
                .field("delta", 0.25),
            TraceEvent::new("quarantine")
                .day(3)
                .field("meter", 2.0)
                .label("transition", "tripped"),
        ];
        {
            let trace = JsonlTrace::create(&path).unwrap();
            for event in &written {
                trace.event(event);
            }
            assert_eq!(trace.dropped(), 0);
        }
        let read = read_trace(&path).unwrap();
        assert_eq!(read, written);
        assert_eq!(read[1].label_value("transition"), Some("tripped"));
        assert_eq!(read[0].field_value("delta"), Some(0.25));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tampered_line_is_detected() {
        let path = temp_trace("tamper");
        {
            let trace = JsonlTrace::create(&path).unwrap();
            trace.event(&TraceEvent::new("fix").day(1).field("slot", 30.0));
        }
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("30", "31");
        std::fs::write(&path, tampered).unwrap();
        match read_trace(&path) {
            Err(TraceError::Corrupt { line, detail }) => {
                assert_eq!(line, 2);
                assert!(detail.contains("seal"), "{detail}");
            }
            other => panic!("expected corrupt line, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_header_is_rejected() {
        let path = temp_trace("header");
        std::fs::write(
            &path,
            {
                let body = "{\"version\":99,\"stream\":\"nms-trace\"}".to_string();
                let line = SealedLine::seal(body);
                format!("{}\n", serde_json::to_string(&line).unwrap())
            },
        )
        .unwrap();
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::MissingHeader { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_or_torn_header_is_a_typed_error_not_a_hole() {
        // An empty file used to read back as "no events"; now the missing
        // header is a typed error, so a torn creation can't masquerade as
        // a quiet run.
        let path = temp_trace("empty");
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::MissingHeader { .. })
        ));
        // A torn header line (prefix of a sealed line) is the same story.
        std::fs::write(&path, b"{\"hash\":\"0123456789abcdef\",\"bo").unwrap();
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::MissingHeader { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_on_stages_the_header_through_a_tmp_sibling() {
        use nms_vfs::{FaultVfs, IoFaultPlan};

        // Kill the very first operation: the staging write itself. The
        // destination path must not exist at all afterwards — no torn,
        // headerless trace file.
        let vfs = FaultVfs::new(IoFaultPlan::kill_at(0));
        let path = PathBuf::from("trace.jsonl");
        assert!(JsonlTrace::create_on(Arc::new(vfs.clone()), &path).is_err());
        vfs.revive();
        assert!(
            vfs.read_file(&path).is_none(),
            "killed creation must leave no destination file"
        );

        // Kill the rename instead: the tmp sibling holds the staged header
        // but the destination still does not exist.
        let vfs = FaultVfs::new(IoFaultPlan::kill_at(1));
        assert!(JsonlTrace::create_on(Arc::new(vfs.clone()), &path).is_err());
        vfs.revive();
        assert!(vfs.read_file(&path).is_none());

        // And a clean creation is immediately readable with zero events.
        let vfs = FaultVfs::new(IoFaultPlan::none());
        let trace = JsonlTrace::create_on(Arc::new(vfs.clone()), &path).unwrap();
        trace.event(&TraceEvent::new("ping").day(0));
        assert_eq!(trace.dropped(), 0);
        let events = read_trace_on(&vfs, &path).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "ping");
    }

    #[test]
    fn post_header_drops_are_counted_and_never_parsed() {
        use nms_vfs::{FaultVfs, IoFaultPlan};

        // Probe how many VFS ops a clean creation consumes, then kill the
        // disk exactly there: the header lands, every append after it
        // fails.
        let path = PathBuf::from("trace.jsonl");
        let probe = FaultVfs::new(IoFaultPlan::none());
        drop(JsonlTrace::create_on(Arc::new(probe.clone()), &path).unwrap());
        let creation_ops = probe.ops();

        let vfs = FaultVfs::new(IoFaultPlan::kill_at(creation_ops));
        let trace = JsonlTrace::create_on(Arc::new(vfs.clone()), &path).unwrap();
        trace.event(&TraceEvent::new("lost").day(0));
        trace.event(&TraceEvent::new("lost").day(1));
        assert_eq!(
            trace.dropped(),
            2,
            "drops after a successful header are counted"
        );
        // The header itself survived; the killed append may have left a
        // torn tail, which the seal must surface as a typed corruption —
        // never as silently parsed events.
        vfs.revive();
        match read_trace_on(&vfs, &path) {
            Ok(events) => assert!(events.is_empty(), "dropped events must not appear"),
            Err(TraceError::Corrupt { line, .. }) => assert!(line >= 2, "header is intact"),
            Err(other) => panic!("unexpected read-back error: {other}"),
        }
    }

    #[test]
    fn seal_event_matches_the_file_line() {
        let path = temp_trace("sealhelper");
        let event = TraceEvent::new("game_round").day(2).field("round", 3.0);
        {
            let trace = JsonlTrace::create(&path).unwrap();
            trace.event(&event);
        }
        let file = std::fs::read_to_string(&path).unwrap();
        let line = file.lines().nth(1).unwrap();
        assert_eq!(seal_event(&event).as_deref(), Some(line));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv_matches_the_journal_constants() {
        // Published FNV-1a test vectors; the empty input hashes to the
        // offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
