//! Durable daemon state: the versioned, checksummed snapshot format
//! behind `pacmand --state-dir/--resume`.
//!
//! A snapshot captures everything a restarted daemon needs to pick a
//! campaign back up mid-stream: per-session queue contents (including
//! jobs that were *running* at checkpoint time, re-enqueued with their
//! emitted-record watermark), per-session counters and telemetry, and
//! the daemon-wide totals and merged registry. It holds no machine
//! state: resumed jobs re-run from their command lines on freshly
//! booted (then pooled) systems, so a checkpoint stays a few hundred
//! bytes plus the telemetry.
//!
//! The file layout is a fixed header followed by a checksummed body:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "PACMANDS"
//! 8       2     format version (little-endian u16)
//! 10      8     FNV-1a checksum of the body (little-endian u64)
//! 18      ..    body (pacman_telemetry::bin fields, order is schema)
//! ```
//!
//! Loading is total: any truncation, bit-flip, or version skew yields a
//! typed [`SnapshotError`], never a panic — mirroring the tolerance of
//! `parse_jsonl_lossy` for torn JSONL files. A body that decodes but
//! could not have been written by a daemon (a session name twice, a job
//! id twice in one session, or a job id the session has not handed out
//! yet) is [`SnapshotError::Corrupt`] too. Writes are atomic
//! (write-to-temp then rename), so a crash mid-checkpoint leaves the
//! previous snapshot intact; a torn temp file is never loaded.

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use pacman_telemetry::bin::{fnv1a, BinError, Reader, Writer};
use pacman_telemetry::Registry;

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"PACMANDS";

/// Current snapshot format version. Bump on any body layout change.
pub const VERSION: u16 = 2;

/// Bytes before the checksummed body begins.
const HEADER_LEN: usize = 8 + 2 + 8;

/// Why a snapshot failed to load (or write). Every variant is a
/// recoverable condition: the daemon logs a warning and cold-starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file is shorter than the fixed header.
    Truncated,
    /// The first 8 bytes are not [`MAGIC`] — not a snapshot file.
    BadMagic,
    /// The file's format version does not match [`VERSION`].
    BadVersion(u16),
    /// The body checksum does not match the header — a torn write or a
    /// flipped bit.
    BadChecksum {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum computed over the body as read.
        computed: u64,
    },
    /// The body decoded but violated the schema (bad field, trailing
    /// bytes, an inner truncation the checksum could not catch because
    /// the whole file was substituted, a repeated session name or job
    /// id, or a job id the session has not assigned yet).
    Corrupt(String),
    /// Filesystem failure reading or writing the snapshot.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated before the header ended"),
            SnapshotError::BadMagic => write!(f, "not a pacmand snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(f, "snapshot format version {v} (this build reads {VERSION})")
            }
            SnapshotError::BadChecksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot body corrupt: {msg}"),
            SnapshotError::Io(msg) => write!(f, "snapshot i/o: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<BinError> for SnapshotError {
    fn from(e: BinError) -> Self {
        SnapshotError::Corrupt(e.to_string())
    }
}

/// One queued or in-flight job as persisted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSnapshot {
    /// Job id within its session.
    pub id: u64,
    /// The submitted command line, re-run verbatim on resume.
    pub command: String,
    /// `job_output` records already delivered for this job. On resume
    /// the job re-runs from scratch and its first `emitted` records are
    /// suppressed — deterministic campaigns make the remainder continue
    /// the original stream byte-for-byte.
    pub emitted: u64,
}

/// One session's persisted state.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    /// Session name (tenants reattach by re-opening it).
    pub name: String,
    /// Next job id to assign.
    pub next_job: u64,
    /// Jobs completed successfully so far.
    pub jobs_done: u64,
    /// Jobs that failed.
    pub jobs_failed: u64,
    /// `job_output` records delivered on this session's stream.
    pub records: u64,
    /// The session's telemetry registry.
    pub telemetry: Registry,
    /// Replay queue: jobs that were running at checkpoint time first
    /// (with their emitted watermarks), then the still-queued ones.
    pub jobs: Vec<JobSnapshot>,
}

/// The whole daemon's persisted state.
#[derive(Clone, Debug, Default)]
pub struct DaemonSnapshot {
    /// Sessions ever opened (the `daemon_drained` total).
    pub sessions_served: u64,
    /// Jobs completed across all sessions, ever.
    pub jobs_done_total: u64,
    /// Jobs failed across all sessions, ever.
    pub jobs_failed_total: u64,
    /// Telemetry folded in from closed sessions.
    pub telemetry: Registry,
    /// Open sessions, sorted by name for deterministic encoding.
    pub sessions: Vec<SessionSnapshot>,
}

impl DaemonSnapshot {
    /// Serialises to the on-disk format (header + checksummed body).
    #[must_use]
    pub fn save(&self) -> Vec<u8> {
        let mut body = Writer::new();
        body.u64(self.sessions_served);
        body.u64(self.jobs_done_total);
        body.u64(self.jobs_failed_total);
        self.telemetry.save_bin(&mut body);
        body.usize(self.sessions.len());
        for s in &self.sessions {
            body.str(&s.name);
            body.u64(s.next_job);
            body.u64(s.jobs_done);
            body.u64(s.jobs_failed);
            body.u64(s.records);
            s.telemetry.save_bin(&mut body);
            body.usize(s.jobs.len());
            for j in &s.jobs {
                body.u64(j.id);
                body.str(&j.command);
                body.u64(j.emitted);
            }
        }
        let body = body.into_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parses the on-disk format. Total: every way `bytes` can be wrong
    /// maps to a [`SnapshotError`] variant.
    pub fn load(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let stored = u64::from_le_bytes(bytes[10..18].try_into().expect("8 header bytes"));
        let body = &bytes[HEADER_LEN..];
        let computed = fnv1a(body);
        if stored != computed {
            return Err(SnapshotError::BadChecksum { stored, computed });
        }
        let mut r = Reader::new(body);
        let sessions_served = r.u64()?;
        let jobs_done_total = r.u64()?;
        let jobs_failed_total = r.u64()?;
        let telemetry = Registry::load_bin(&mut r)?;
        let session_count = r.usize()?;
        let mut sessions = Vec::with_capacity(session_count.min(1024));
        for _ in 0..session_count {
            let name = r.str()?;
            let next_job = r.u64()?;
            let jobs_done = r.u64()?;
            let jobs_failed = r.u64()?;
            let records = r.u64()?;
            let session_telemetry = Registry::load_bin(&mut r)?;
            let job_count = r.usize()?;
            let mut jobs = Vec::with_capacity(job_count.min(1024));
            for _ in 0..job_count {
                let id = r.u64()?;
                let command = r.str()?;
                let emitted = r.u64()?;
                jobs.push(JobSnapshot { id, command, emitted });
            }
            sessions.push(SessionSnapshot {
                name,
                next_job,
                jobs_done,
                jobs_failed,
                records,
                telemetry: session_telemetry,
                jobs,
            });
        }
        if !r.is_done() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after snapshot body",
                r.remaining()
            )));
        }
        check_ids(&sessions)?;
        Ok(DaemonSnapshot {
            sessions_served,
            jobs_done_total,
            jobs_failed_total,
            telemetry,
            sessions,
        })
    }

    /// Writes the snapshot to `path` atomically: the bytes land in a
    /// sibling temp file which is then renamed over `path`, so readers
    /// only ever see the previous complete snapshot or this one. One
    /// writer at a time: concurrent calls would share the temp file.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp).map_err(io)?;
            f.write_all(&self.save()).map_err(io)?;
            f.sync_all().map_err(io)?;
        }
        fs::rename(&tmp, path).map_err(io)?;
        // Sync the directory too, or a power cut can undo the rename.
        #[cfg(unix)]
        {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
            fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io)?;
        }
        Ok(())
    }

    /// Reads and parses `path`. `Ok(None)` when the file does not exist
    /// (a first boot with `--resume` is not an error); every other
    /// failure is typed.
    pub fn read_file(path: &Path) -> Result<Option<Self>, SnapshotError> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(SnapshotError::Io(format!("{}: {e}", path.display()))),
        };
        Self::load(&bytes).map(Some)
    }
}

/// Rejects what a daemon never writes but a resume would silently
/// mangle: a repeated session name (the second would replace the first
/// and drop its queue), a repeated job id in one session, or a job id
/// at or past the session's `next_job` (the next submit would reuse it
/// and clobber the replayed job's watermark).
fn check_ids(sessions: &[SessionSnapshot]) -> Result<(), SnapshotError> {
    let mut names = HashSet::new();
    for s in sessions {
        if !names.insert(s.name.as_str()) {
            return Err(SnapshotError::Corrupt(format!("session '{}' appears twice", s.name)));
        }
        let mut ids = HashSet::new();
        for j in &s.jobs {
            if j.id >= s.next_job {
                return Err(SnapshotError::Corrupt(format!(
                    "session '{}': job {} not below next_job {}",
                    s.name, j.id, s.next_job
                )));
            }
            if !ids.insert(j.id) {
                return Err(SnapshotError::Corrupt(format!(
                    "session '{}': job {} appears twice",
                    s.name, j.id
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DaemonSnapshot {
        let mut telemetry = Registry::new();
        telemetry.incr_by("daemon.jobs_done", 3);
        let mut s_tel = Registry::new();
        s_tel.observe("daemon.job_us", 1200);
        DaemonSnapshot {
            sessions_served: 4,
            jobs_done_total: 3,
            jobs_failed_total: 1,
            telemetry,
            sessions: vec![SessionSnapshot {
                name: "alpha".into(),
                next_job: 5,
                jobs_done: 2,
                jobs_failed: 0,
                records: 117,
                telemetry: s_tel,
                jobs: vec![
                    JobSnapshot { id: 3, command: "oracle --trials 64".into(), emitted: 41 },
                    JobSnapshot { id: 4, command: "brute --ptr 7".into(), emitted: 0 },
                ],
            }],
        }
    }

    #[test]
    fn a_snapshot_round_trips_field_for_field() {
        let snap = sample();
        let loaded = DaemonSnapshot::load(&snap.save()).unwrap();
        assert_eq!(loaded.sessions_served, snap.sessions_served);
        assert_eq!(loaded.jobs_done_total, snap.jobs_done_total);
        assert_eq!(loaded.jobs_failed_total, snap.jobs_failed_total);
        assert_eq!(loaded.telemetry.snapshot(), snap.telemetry.snapshot());
        assert_eq!(loaded.sessions.len(), 1);
        let (a, b) = (&loaded.sessions[0], &snap.sessions[0]);
        assert_eq!((a.name.as_str(), a.next_job, a.jobs_done), ("alpha", 5, 2));
        assert_eq!(a.records, b.records);
        assert_eq!(a.telemetry.snapshot(), b.telemetry.snapshot());
        assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic() {
        let bytes = sample().save();
        for cut in 0..bytes.len() {
            let err = DaemonSnapshot::load(&bytes[..cut]).unwrap_err();
            match err {
                SnapshotError::Truncated
                | SnapshotError::BadChecksum { .. }
                | SnapshotError::Corrupt(_) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_flipped_bit_anywhere_is_detected() {
        let bytes = sample().save();
        // Magic byte.
        let mut bad = bytes.clone();
        bad[0] ^= 0x01;
        assert!(matches!(DaemonSnapshot::load(&bad), Err(SnapshotError::BadMagic)));
        // Stored checksum.
        let mut bad = bytes.clone();
        bad[12] ^= 0x40;
        assert!(matches!(DaemonSnapshot::load(&bad), Err(SnapshotError::BadChecksum { .. })));
        // Every body byte is covered by the checksum.
        for i in (HEADER_LEN..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x80;
            assert!(
                matches!(DaemonSnapshot::load(&bad), Err(SnapshotError::BadChecksum { .. })),
                "flip at {i} escaped the checksum"
            );
        }
    }

    #[test]
    fn version_skew_is_reported_with_the_found_version() {
        // 1: a checkpoint from a build before the current format.
        for found in [99u16, 1] {
            let mut bytes = sample().save();
            bytes[8..10].copy_from_slice(&found.to_le_bytes());
            match DaemonSnapshot::load(&bytes) {
                Err(SnapshotError::BadVersion(v)) if v == found => {}
                other => panic!("expected BadVersion({found}), got {other:?}"),
            }
        }
    }

    /// `body` behind a valid magic, version and checksum.
    fn with_valid_header(body: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv1a(body).to_le_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        #[test]
        fn loading_arbitrary_bytes_never_panics(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..256),
            keep_magic: bool,
        ) {
            let mut bytes = bytes;
            if keep_magic && bytes.len() >= 8 {
                bytes[..8].copy_from_slice(&MAGIC);
            }
            let _ = DaemonSnapshot::load(&bytes);
        }

        #[test]
        fn loading_any_checksummed_body_never_panics(
            mode in 0..3u8,
            noise in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..512),
            edits in proptest::collection::vec(
                (0..4096usize, proptest::arbitrary::any::<u8>()),
                0..12,
            ),
            cut in 0..4096usize,
        ) {
            // Bodies that pass the checksum: random bytes, a real body
            // with bytes overwritten (counts and lengths turn huge), or a
            // real body cut short with random bytes after the cut.
            let valid = sample().save()[HEADER_LEN..].to_vec();
            let body = match mode {
                0 => noise,
                1 => {
                    let mut body = valid;
                    for (at, byte) in edits {
                        let i = at % body.len();
                        body[i] = byte;
                    }
                    body
                }
                _ => {
                    let mut body = valid[..cut % valid.len()].to_vec();
                    body.extend_from_slice(&noise);
                    body
                }
            };
            let _ = DaemonSnapshot::load(&with_valid_header(&body));
        }
    }

    fn assert_corrupt(snap: &DaemonSnapshot, needle: &str) {
        match DaemonSnapshot::load(&snap.save()) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected Corrupt({needle}), got {other:?}"),
        }
    }

    #[test]
    fn a_duplicate_session_name_is_corrupt() {
        let mut snap = sample();
        let mut twin = snap.sessions[0].clone();
        twin.jobs.clear();
        snap.sessions.push(twin);
        assert_corrupt(&snap, "session 'alpha' appears twice");
    }

    #[test]
    fn a_duplicate_job_id_in_one_session_is_corrupt() {
        let mut snap = sample();
        snap.sessions[0].jobs[1].id = 3;
        assert_corrupt(&snap, "job 3 appears twice");
    }

    #[test]
    fn a_job_id_not_below_next_job_is_corrupt() {
        let mut snap = sample();
        snap.sessions[0].jobs[1].id = snap.sessions[0].next_job;
        assert_corrupt(&snap, "job 5 not below next_job 5");
    }

    #[test]
    fn atomic_writes_land_whole_and_missing_files_are_not_errors() {
        let dir = std::env::temp_dir().join(format!("pacmand-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snapshot");
        assert!(DaemonSnapshot::read_file(&path).unwrap().is_none());
        let snap = sample();
        snap.write_atomic(&path).unwrap();
        let loaded = DaemonSnapshot::read_file(&path).unwrap().expect("file present");
        assert_eq!(loaded.sessions[0].jobs, snap.sessions[0].jobs);
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }
}
