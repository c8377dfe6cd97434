//! `pacmand` scheduling core: multi-tenant sessions, per-session job
//! queues, and per-session fault isolation.
//!
//! Each tenant opens a named *session*; jobs submitted to it wait in a
//! bounded per-session queue ([`SESSION_QUEUE`] jobs) and a session runs
//! one job at a time. At most as many jobs run at once as
//! [`Executor::global`](pacman_runner::Executor::global) has workers:
//! a free job slot goes to the session that has waited longest, and a
//! session whose job finishes with more queued goes to the back of that
//! line, so a tenant that floods its queue delays only itself. Job
//! threads are started on demand and exit when no session waits. The
//! jobs' shards share the executor, which hands each free worker to the
//! campaign with the fewest shards in flight.
//!
//! Fault isolation is the daemon's core contract: a job that panics or
//! returns an error is caught on its job thread ([`std::panic::catch_unwind`])
//! and reported as a `job_failed` record on the *owning session's*
//! stream. The daemon and every other session carry on. A job runs
//! once: retries belong to its campaigns' shards, whose harness reruns a
//! failed shard within its `RetryPolicy`. Rerunning the whole command
//! line could not help — its fault plan is rebuilt from the same line —
//! and would stream the output the failed run already delivered again.
//!
//! Shutdown is a graceful *drain*: stop admitting, run every queued job
//! to completion, close every session (emitting its final telemetry
//! snapshot), and emit one `daemon_drained` record.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

use pacman_runner::panic_message;
use pacman_telemetry::json::Value;
use pacman_telemetry::Registry;

use crate::clock::unix_seconds_now;
use crate::protocol;
use crate::snapshot::{DaemonSnapshot, JobSnapshot, SessionSnapshot, SnapshotError};

/// Queued-job capacity per session; a submit beyond it blocks after
/// emitting one `backpressure` record.
pub const SESSION_QUEUE: usize = 16;

/// Durability knobs: where checkpoints go and how often they are cut.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Snapshot file path (written atomically; see [`crate::snapshot`]).
    pub path: PathBuf,
    /// Cut a checkpoint every this many daemon-wide `job_output`
    /// records (clamped to at least 1). Each write is announced with a
    /// `checkpoint_written` record on the triggering session's stream.
    pub every_records: u64,
}

impl CheckpointPolicy {
    /// A policy writing to `path` every `every_records` records.
    #[must_use]
    pub fn new(path: PathBuf, every_records: u64) -> Self {
        CheckpointPolicy { path, every_records }
    }
}

/// Runtime durability state hung off [`Inner`].
struct Durable {
    policy: CheckpointPolicy,
    /// Monotonic count of delivered `job_output` records; checkpoints
    /// trigger on multiples of the cadence.
    records_seen: AtomicU64,
    /// Startup record describing how resume went (`daemon_resumed` or
    /// `resume_warning`), for the embedder to log.
    resume_report: Mutex<Option<Value>>,
    /// Held across a checkpoint's capture *and* write: concurrent
    /// writers would share the temp file, and an older capture could
    /// land after a newer, already announced one.
    writing: Mutex<()>,
}

/// Executes one submitted command line. The CLI supplies the real
/// implementation (its `dispatch` path); tests and the load bench
/// supply synthetic ones.
///
/// Implementations run on a daemon job thread and must confine
/// failures to their return value or a panic — both are caught and
/// scoped to the submitting session.
pub trait JobRunner: Send + Sync {
    /// Runs `command`, streaming records through `sink`.
    fn run(&self, command: &str, sink: &JobSink) -> Result<(), String>;
}

impl<F> JobRunner for F
where
    F: Fn(&str, &JobSink) -> Result<(), String> + Send + Sync,
{
    fn run(&self, command: &str, sink: &JobSink) -> Result<(), String> {
        self(command, sink)
    }
}

/// A job's handle to its session's record stream.
///
/// [`record`](JobSink::record) forwards one verbatim JSONL line inside
/// a `job_output` envelope; [`progress`](JobSink::progress) streams a
/// shard-merge notification as the executor's ordered event stream
/// delivers it. Both are fire-and-forget: a departed client drops the
/// receiving end and sends become no-ops, never errors.
#[derive(Clone)]
pub struct JobSink {
    session: String,
    job: u64,
    tx: Sender<Value>,
    records: Arc<AtomicU64>,
    /// Output records this job has produced (across the whole job
    /// lifetime — a resumed job starts at 0 and counts back up through
    /// its suppressed replay prefix).
    emitted: Arc<AtomicU64>,
    /// Replay suppression: the first `skip` records are dropped because
    /// the pre-restart daemon already delivered them.
    skip: u64,
    /// Back-reference for checkpoint triggering (non-durable daemons
    /// pay one branch).
    inner: Arc<Inner>,
}

impl JobSink {
    /// The owning session's name.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// The job's id within its session.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Streams one verbatim JSONL record line (no trailing newline).
    ///
    /// On a resumed job the first `skip` calls are swallowed — they
    /// reproduce records the pre-restart daemon already delivered — so
    /// the session stream continues mid-job without duplicates. On a
    /// durable daemon, crossing the checkpoint cadence writes a
    /// snapshot *synchronously* and then queues a `checkpoint_written`
    /// record behind this one: per-session FIFO turns that record into
    /// a durable watermark for everything before it.
    pub fn record(&self, line: &str) {
        let n = self.emitted.fetch_add(1, Ordering::Relaxed);
        if n < self.skip {
            return;
        }
        self.records.fetch_add(1, Ordering::Relaxed);
        let _ = self.tx.send(protocol::job_output(&self.session, self.job, line));
        if let Some(durable) = &self.inner.durable {
            let seen = durable.records_seen.fetch_add(1, Ordering::Relaxed) + 1;
            if seen % durable.policy.every_records.max(1) == 0
                && write_checkpoint(&self.inner).is_ok()
            {
                let _ = self.tx.send(protocol::checkpoint_written(&self.session, seen));
            }
        }
    }

    /// Streams a shard-merge progress notification.
    pub fn progress(&self, shard: usize, shards: usize, completed: usize, retries: u64) {
        let _ = self.tx.send(protocol::job_progress(
            &self.session,
            self.job,
            shard,
            shards,
            completed,
            retries,
        ));
    }
}

/// Why a session operation was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DaemonError {
    /// The daemon is draining and admits no new sessions or jobs.
    Draining,
    /// A session with this name is already open.
    DuplicateSession(String),
    /// No such session (closed, or never opened).
    UnknownSession(String),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Draining => write!(f, "daemon is draining"),
            DaemonError::DuplicateSession(s) => write!(f, "session '{s}' is already open"),
            DaemonError::UnknownSession(s) => write!(f, "unknown session '{s}'"),
        }
    }
}

impl std::error::Error for DaemonError {}

/// A queued or running job. The running one stays in its session's
/// state (a clone runs on a job thread) so checkpoints can persist
/// in-flight work as re-runnable.
#[derive(Clone)]
struct Job {
    id: u64,
    command: String,
    /// Replay suppression carried from a resumed checkpoint; 0 for
    /// freshly submitted jobs.
    skip: u64,
    /// Output records this job has produced, shared with its
    /// [`JobSink`].
    emitted: Arc<AtomicU64>,
}

impl Job {
    fn new(id: u64, command: String, skip: u64) -> Job {
        Job { id, command, skip, emitted: Arc::default() }
    }

    /// Total output records ever delivered for this job — the replay
    /// watermark a checkpoint stores. While the job is still inside its
    /// suppressed replay prefix, the pre-restart watermark stands.
    fn watermark(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed).max(self.skip)
    }
}

struct SessionState {
    queue: VecDeque<Job>,
    next_job: u64,
    jobs_done: u64,
    jobs_failed: u64,
    closing: bool,
    records: Arc<AtomicU64>,
    telemetry: Registry,
    tx: Sender<Value>,
    /// The job running on a job thread, if any: a session runs one job
    /// at a time.
    running: Option<Job>,
    /// A resumed session keeps its record receiver parked here until
    /// the tenant re-opens the session by name and claims it; records
    /// replayed meanwhile queue up in the channel.
    parked_rx: Option<Receiver<Value>>,
}

struct SchedState {
    sessions: HashMap<String, SessionState>,
    draining: bool,
    sessions_served: u64,
    jobs_done_total: u64,
    jobs_failed_total: u64,
    /// Telemetry folded in from closed sessions; live sessions merge
    /// on top in [`Daemon::metrics`].
    telemetry: Registry,
    /// Sessions with queued jobs and none running, longest-waiting
    /// first; a free job slot goes to the front one.
    ready: VecDeque<String>,
    /// Sessions with a running job, at most [`Inner::slots`].
    in_flight: usize,
}

struct Inner {
    state: Mutex<SchedState>,
    /// A session queue gained capacity.
    space_ready: Condvar,
    /// A job finished — close/drain waiters re-check here.
    idle: Condvar,
    /// Jobs allowed to run at once: the shared executor's worker
    /// count. More would only interleave more campaigns on the same
    /// workers, each evicting the others' warm machines.
    slots: usize,
    runner: Arc<dyn JobRunner>,
    /// Present iff the daemon was started with a [`CheckpointPolicy`].
    durable: Option<Durable>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The daemon: the session table and its job runner. See the module
/// docs for the scheduling and isolation contract.
pub struct Daemon {
    inner: Arc<Inner>,
}

impl Daemon {
    /// Starts a daemon with no sessions.
    pub fn start(runner: Arc<dyn JobRunner>) -> Daemon {
        Self::start_inner(runner, None, fresh_state(), global_workers())
    }

    /// Boots a *durable* daemon: checkpoints are cut per `policy`, and
    /// when `resume` is set an existing snapshot at `policy.path` is
    /// loaded first — its sessions are rebuilt with their interrupted
    /// jobs re-enqueued (running jobs at the queue front, with replay
    /// suppression) and its totals and telemetry restored.
    ///
    /// A missing snapshot file is a silent cold start (first boot). A
    /// snapshot that fails to load — torn, corrupt, or version-skewed —
    /// is *also* a cold start, with the typed failure preserved as a
    /// `resume_warning` record in [`Daemon::resume_report`]: a bad file
    /// must never stop the daemon from serving.
    pub fn start_durable(
        policy: CheckpointPolicy,
        runner: Arc<dyn JobRunner>,
        resume: bool,
    ) -> Daemon {
        let mut report = None;
        let state = if resume {
            match DaemonSnapshot::read_file(&policy.path) {
                Ok(None) => fresh_state(),
                Ok(Some(snap)) => {
                    let jobs: u64 = snap.sessions.iter().map(|s| s.jobs.len() as u64).sum();
                    report = Some(protocol::daemon_resumed(snap.sessions.len() as u64, jobs));
                    state_from_snapshot(snap)
                }
                Err(e) => {
                    report = Some(protocol::resume_warning(&e.to_string()));
                    fresh_state()
                }
            }
        } else {
            fresh_state()
        };
        let durable = Durable {
            policy,
            records_seen: AtomicU64::new(
                state.sessions.values().map(|s| s.records.load(Ordering::Relaxed)).sum(),
            ),
            resume_report: Mutex::new(report),
            writing: Mutex::new(()),
        };
        Self::start_inner(runner, Some(durable), state, global_workers())
    }

    fn start_inner(
        runner: Arc<dyn JobRunner>,
        durable: Option<Durable>,
        state: SchedState,
        slots: usize,
    ) -> Daemon {
        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            space_ready: Condvar::new(),
            idle: Condvar::new(),
            slots: slots.max(1),
            runner,
            durable,
        });
        // Resumed sessions with re-enqueued jobs start running now.
        let claimed: Vec<_> = {
            let mut g = inner.lock();
            std::iter::from_fn(|| claim_next(&inner, &mut g)).collect()
        };
        for (name, job) in claimed {
            spawn_job_thread(&inner, name, job);
        }
        Daemon { inner }
    }

    /// The startup record a durable daemon produced while resuming —
    /// `daemon_resumed` on success, `resume_warning` on a bad snapshot,
    /// `None` on a cold start. Taken once; the embedder logs it.
    pub fn resume_report(&self) -> Option<Value> {
        let durable = self.inner.durable.as_ref()?;
        durable.resume_report.lock().unwrap_or_else(PoisonError::into_inner).take()
    }

    /// Cuts a checkpoint now (durable daemons only; no-op otherwise).
    /// The periodic cadence still applies — this is for embedders that
    /// want one at a known boundary, e.g. right before exiting.
    pub fn checkpoint_now(&self) -> Result<(), SnapshotError> {
        write_checkpoint(&self.inner)
    }

    /// Opens a named session. The handle is the tenant's side of the
    /// record stream; its first record is `session_opened`.
    ///
    /// Re-opening a session resumed from a checkpoint *reattaches* to
    /// it instead: the returned handle owns the parked record stream,
    /// which already carries `session_opened`, the `resumed` watermarks
    /// and any output replayed since the daemon restarted.
    pub fn open_session(&self, name: &str) -> Result<SessionHandle, DaemonError> {
        let (tx, rx) = channel();
        let mut g = self.inner.lock();
        if g.draining {
            return Err(DaemonError::Draining);
        }
        if let Some(sess) = g.sessions.get_mut(name) {
            if let Some(parked) = sess.parked_rx.take() {
                return Ok(SessionHandle {
                    name: name.to_string(),
                    inner: Arc::clone(&self.inner),
                    rx: Some(parked),
                });
            }
            return Err(DaemonError::DuplicateSession(name.to_string()));
        }
        let _ = tx.send(protocol::session_opened(name, unix_seconds_now()));
        g.sessions.insert(
            name.to_string(),
            SessionState {
                queue: VecDeque::new(),
                next_job: 0,
                jobs_done: 0,
                jobs_failed: 0,
                closing: false,
                records: Arc::new(AtomicU64::new(0)),
                telemetry: Registry::new(),
                tx,
                running: None,
                parked_rx: None,
            },
        );
        g.sessions_served += 1;
        Ok(SessionHandle { name: name.to_string(), inner: Arc::clone(&self.inner), rx: Some(rx) })
    }

    /// Daemon-wide telemetry: closed sessions' registries plus a live
    /// merge of every open session's.
    pub fn metrics(&self) -> Registry {
        let g = self.inner.lock();
        let mut out = g.telemetry.clone();
        for s in g.sessions.values() {
            out.merge(&s.telemetry);
        }
        out
    }

    /// A `status` record: session/queue occupancy plus the shared
    /// executor's size and queue depth.
    pub fn status(&self) -> Value {
        let g = self.inner.lock();
        let queued: usize = g.sessions.values().map(|s| s.queue.len()).sum();
        let exec = pacman_runner::Executor::global();
        Value::Object(vec![
            ("type".into(), Value::str("status")),
            ("sessions".into(), Value::UInt(g.sessions.len() as u64)),
            ("queued_jobs".into(), Value::UInt(queued as u64)),
            ("in_flight_jobs".into(), Value::UInt(g.in_flight as u64)),
            ("draining".into(), Value::Bool(g.draining)),
            ("workers".into(), Value::UInt(exec.workers() as u64)),
            ("executor_queue_depth".into(), Value::UInt(exec.queue_depth() as u64)),
        ])
    }

    /// Gracefully drains: stops admitting, runs every queued job to
    /// completion, closes every open session, and returns the
    /// `daemon_drained` record. Idempotent — later calls just re-report
    /// the totals.
    pub fn drain(&self) -> Value {
        self.inner.lock().draining = true;
        // Unblock submits waiting for queue space: they now fail with
        // `Draining`.
        self.inner.space_ready.notify_all();
        let names: Vec<String> = self.inner.lock().sessions.keys().cloned().collect();
        for name in &names {
            close_named(&self.inner, name);
        }
        // On-drain checkpoint: every session is closed and every job
        // done, so the snapshot records the final totals — a resume
        // after a graceful drain is an empty (but accounted) daemon.
        let _ = self.checkpoint_now();
        let g = self.inner.lock();
        protocol::daemon_drained(
            g.sessions_served,
            g.jobs_done_total,
            g.jobs_failed_total,
            unix_seconds_now(),
        )
    }
}

fn fresh_state() -> SchedState {
    SchedState {
        sessions: HashMap::new(),
        draining: false,
        sessions_served: 0,
        jobs_done_total: 0,
        jobs_failed_total: 0,
        telemetry: Registry::new(),
        ready: VecDeque::new(),
        in_flight: 0,
    }
}

fn global_workers() -> usize {
    pacman_runner::Executor::global().workers()
}

/// Rebuilds the scheduler state from a loaded snapshot. Every session
/// gets a fresh channel whose receiver is *parked* until the tenant
/// re-opens the session by name; the stream starts with
/// `session_opened` and one `resumed` record per re-enqueued job, so a
/// reattaching client knows exactly which replay prefix to drop.
fn state_from_snapshot(snap: DaemonSnapshot) -> SchedState {
    let mut sessions = HashMap::new();
    let mut ready = VecDeque::new();
    for s in snap.sessions {
        if !s.jobs.is_empty() {
            ready.push_back(s.name.clone());
        }
        let (tx, rx) = channel();
        let _ = tx.send(protocol::session_opened(&s.name, unix_seconds_now()));
        for j in &s.jobs {
            let _ = tx.send(protocol::resumed(&s.name, j.id, j.emitted));
        }
        let queue = s.jobs.into_iter().map(|j| Job::new(j.id, j.command, j.emitted)).collect();
        sessions.insert(
            s.name,
            SessionState {
                queue,
                next_job: s.next_job,
                jobs_done: s.jobs_done,
                jobs_failed: s.jobs_failed,
                closing: false,
                records: Arc::new(AtomicU64::new(s.records)),
                telemetry: s.telemetry,
                tx,
                running: None,
                parked_rx: Some(rx),
            },
        );
    }
    SchedState {
        sessions,
        draining: false,
        sessions_served: snap.sessions_served,
        jobs_done_total: snap.jobs_done_total,
        jobs_failed_total: snap.jobs_failed_total,
        telemetry: snap.telemetry,
        ready,
        in_flight: 0,
    }
}

/// Captures the scheduler state and writes it to the policy path
/// atomically. Runs synchronously on the calling (job) thread; the
/// scheduler lock is held only while *capturing*, the write lock across
/// capture and write, so checkpoints land one at a time and in capture
/// order.
fn write_checkpoint(inner: &Inner) -> Result<(), SnapshotError> {
    let Some(durable) = &inner.durable else { return Ok(()) };
    let _writing = durable.writing.lock().unwrap_or_else(PoisonError::into_inner);
    let snap = {
        let g = inner.lock();
        let mut sessions: Vec<SessionSnapshot> = g
            .sessions
            .iter()
            .map(|(name, s)| {
                // The running job replays first, then the still-queued
                // ones in queue order.
                let jobs = s
                    .running
                    .iter()
                    .chain(&s.queue)
                    .map(|j| JobSnapshot {
                        id: j.id,
                        command: j.command.clone(),
                        emitted: j.watermark(),
                    })
                    .collect();
                SessionSnapshot {
                    name: name.clone(),
                    next_job: s.next_job,
                    jobs_done: s.jobs_done,
                    jobs_failed: s.jobs_failed,
                    records: s.records.load(Ordering::Relaxed),
                    telemetry: s.telemetry.clone(),
                    jobs,
                }
            })
            .collect();
        sessions.sort_by(|a, b| a.name.cmp(&b.name));
        DaemonSnapshot {
            sessions_served: g.sessions_served,
            jobs_done_total: g.jobs_done_total,
            jobs_failed_total: g.jobs_failed_total,
            telemetry: g.telemetry.clone(),
            sessions,
        }
    };
    snap.write_atomic(&durable.policy.path)
}

/// A tenant's side of one session: submit jobs, read the record
/// stream, close.
pub struct SessionHandle {
    name: String,
    inner: Arc<Inner>,
    rx: Option<Receiver<Value>>,
}

impl SessionHandle {
    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Queues one command line, starting it at once if the session has
    /// no job running and a job slot is free; returns the job id.
    /// Blocks while the session queue is at capacity, after streaming
    /// one `backpressure` record so the tenant knows why.
    pub fn submit(&self, command: &str) -> Result<u64, DaemonError> {
        let mut g = self.inner.lock();
        let mut warned = false;
        loop {
            if g.draining {
                return Err(DaemonError::Draining);
            }
            let Some(sess) = g.sessions.get_mut(&self.name) else {
                return Err(DaemonError::UnknownSession(self.name.clone()));
            };
            if sess.closing {
                return Err(DaemonError::UnknownSession(self.name.clone()));
            }
            if sess.queue.len() < SESSION_QUEUE {
                break;
            }
            if !warned {
                let _ = sess.tx.send(protocol::backpressure(
                    &self.name,
                    sess.queue.len(),
                    SESSION_QUEUE,
                ));
                sess.telemetry.incr("daemon.backpressure");
                warned = true;
            }
            g = self.inner.space_ready.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        let sess = g.sessions.get_mut(&self.name).expect("session checked above");
        let id = sess.next_job;
        sess.next_job += 1;
        let became_ready = sess.running.is_none() && sess.queue.is_empty();
        sess.queue.push_back(Job::new(id, command.to_string(), 0));
        sess.telemetry.incr("daemon.jobs_submitted");
        let _ = sess.tx.send(protocol::job_accepted(&self.name, id));
        if became_ready {
            g.ready.push_back(self.name.clone());
        }
        let start = claim_next(&self.inner, &mut g);
        drop(g);
        if let Some((name, job)) = start {
            spawn_job_thread(&self.inner, name, job);
        }
        Ok(id)
    }

    /// Next record on the session stream; `None` once the session is
    /// closed and the stream is fully drained, or after
    /// [`take_records`](SessionHandle::take_records) moved the
    /// receiving end elsewhere.
    pub fn next_record(&self) -> Option<Value> {
        self.rx.as_ref().and_then(|rx| rx.recv().ok())
    }

    /// Moves the record receiver out — e.g. to a socket-forwarder
    /// thread — leaving the handle usable for submit/close.
    pub fn take_records(&mut self) -> Option<Receiver<Value>> {
        self.rx.take()
    }

    /// Closes the session: waits for queued and in-flight jobs to
    /// finish, folds its telemetry into the daemon-wide registry, and
    /// returns the `session_closed` record (also streamed as the
    /// session's final record). `None` if the session was already
    /// closed elsewhere.
    pub fn close(mut self) -> Option<Value> {
        self.rx.take();
        close_named(&self.inner, &self.name)
    }
}

/// Shared close path used by [`SessionHandle::close`] and
/// [`Daemon::drain`]. Waits for the session to go idle, removes it,
/// merges telemetry, and emits `session_closed`.
fn close_named(inner: &Arc<Inner>, name: &str) -> Option<Value> {
    let mut g = inner.lock();
    loop {
        match g.sessions.get_mut(name) {
            None => return None,
            Some(s) => {
                s.closing = true;
                if s.queue.is_empty() && s.running.is_none() {
                    break;
                }
            }
        }
        g = inner.idle.wait(g).unwrap_or_else(PoisonError::into_inner);
    }
    let s = g.sessions.remove(name).expect("session present in close loop");
    let mut telemetry = s.telemetry;
    telemetry.incr_by("daemon.records", s.records.load(Ordering::Relaxed));
    let record = protocol::session_closed(
        name,
        s.jobs_done,
        s.jobs_failed,
        telemetry.snapshot().to_json(),
        unix_seconds_now(),
    );
    let _ = s.tx.send(record.clone());
    g.telemetry.merge(&telemetry);
    g.jobs_done_total += s.jobs_done;
    g.jobs_failed_total += s.jobs_failed;
    drop(g);
    // Submitters blocked on this session must re-check and fail out.
    inner.space_ready.notify_all();
    Some(record)
}

/// Claims a free job slot for the longest-waiting ready session: pops
/// its next job and marks it running. `None` if every slot is taken or
/// no session waits. The caller hands the claim to [`spawn_job_thread`] or
/// runs it.
fn claim_next(inner: &Inner, g: &mut SchedState) -> Option<(String, Job)> {
    if g.in_flight >= inner.slots {
        return None;
    }
    let name = g.ready.pop_front()?;
    let sess = g.sessions.get_mut(&name).expect("a ready session is open");
    let job = sess.queue.pop_front().expect("a ready session has a queued job");
    sess.running = Some(job.clone());
    g.in_flight += 1;
    Some((name, job))
}

/// Starts a job thread on a claimed job. A thread that cannot be
/// spawned fails that job (`job_failed`) and retries with the next
/// claim, so no slot is lost and no ready session is left without a
/// thread. Job threads are detached: close and drain wait for a
/// thread's last act, releasing its job under the lock, and after that
/// the thread only returns.
fn spawn_job_thread(inner: &Arc<Inner>, name: String, job: Job) {
    let mut next = Some((name, job));
    while let Some((name, job)) = next.take() {
        let id = job.id;
        let (thread_inner, thread_name) = (Arc::clone(inner), name.clone());
        let spawned = thread::Builder::new()
            .name("pacmand-job".into())
            .spawn(move || run_jobs(&thread_inner, thread_name, job));
        if let Err(e) = spawned {
            let error = format!("cannot start a job thread: {e}");
            next = finish_job(inner, &name, id, Err(error), 0);
        }
    }
}

/// A job thread: runs the claimed job, then whichever job the next free
/// slot claims, and exits once no session waits.
fn run_jobs(inner: &Arc<Inner>, name: String, job: Job) {
    let mut next = Some((name, job));
    while let Some((name, job)) = next.take() {
        let (tx, records) = {
            let g = inner.lock();
            let sess = &g.sessions[&name];
            (sess.tx.clone(), Arc::clone(&sess.records))
        };
        let sink = JobSink {
            session: name.clone(),
            job: job.id,
            tx,
            records,
            emitted: Arc::clone(&job.emitted),
            skip: job.skip,
            inner: Arc::clone(inner),
        };
        let started = Instant::now();
        // The job's entire execution — campaign shards included — is
        // fenced here; a panic is the session's problem alone.
        let outcome = catch_unwind(AssertUnwindSafe(|| inner.runner.run(&job.command, &sink)))
            .unwrap_or_else(|p| Err(format!("job panicked: {}", panic_message(p.as_ref()))));
        let elapsed_us = started.elapsed().as_micros() as u64;
        next = finish_job(inner, &name, job.id, outcome, elapsed_us);
    }
}

/// Reports a finished job (`job_done` or `job_failed`) and its
/// telemetry, puts its session back in line if it has more queued, and
/// claims the freed slot's next job for the same thread.
fn finish_job(
    inner: &Inner,
    name: &str,
    id: u64,
    outcome: Result<(), String>,
    elapsed_us: u64,
) -> Option<(String, Job)> {
    let mut g = inner.lock();
    let sess = g.sessions.get_mut(name).expect("a session outlives its running job");
    let record = match &outcome {
        Ok(()) => protocol::job_done(name, id),
        Err(error) => protocol::job_failed(name, id, error),
    };
    let _ = sess.tx.send(record);
    sess.running = None;
    sess.telemetry.observe("daemon.job_us", elapsed_us);
    if outcome.is_ok() {
        sess.telemetry.incr("daemon.jobs_done");
        sess.jobs_done += 1;
    } else {
        sess.telemetry.incr("daemon.jobs_failed");
        sess.jobs_failed += 1;
    }
    if !sess.queue.is_empty() {
        g.ready.push_back(name.to_string());
    }
    g.in_flight -= 1;
    let next = claim_next(inner, &mut g);
    drop(g);
    // Queue space freed; close/drain waiters also need a look.
    inner.space_ready.notify_all();
    inner.idle.notify_all();
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn echo_runner() -> Arc<dyn JobRunner> {
        Arc::new(|command: &str, sink: &JobSink| {
            sink.record(&format!("{{\"record\":\"echo\",\"command\":\"{command}\"}}"));
            Ok(())
        })
    }

    fn drain_types(handle: &SessionHandle, until: &str) -> Vec<String> {
        let mut types = Vec::new();
        while let Some(r) = handle.next_record() {
            let t = r.get("type").and_then(Value::as_str).unwrap_or("?").to_string();
            let done = t == until;
            types.push(t);
            if done {
                break;
            }
        }
        types
    }

    /// A gate every caller of [`wait_gate`] blocks on until
    /// [`open_gate`].
    fn gate() -> Arc<(Mutex<bool>, Condvar)> {
        Arc::new((Mutex::new(false), Condvar::new()))
    }

    fn wait_gate(gate: &(Mutex<bool>, Condvar)) {
        let (lock, cv) = gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }

    fn open_gate(gate: &(Mutex<bool>, Condvar)) {
        let (lock, cv) = gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    fn in_flight_jobs(daemon: &Daemon) -> u64 {
        daemon.status().get("in_flight_jobs").and_then(Value::as_u64).unwrap_or(0)
    }

    #[test]
    fn a_job_streams_output_then_done_in_order() {
        let daemon = Daemon::start(echo_runner());
        let session = daemon.open_session("t").unwrap();
        session.submit("oracle --trials 4").unwrap();
        let types = drain_types(&session, "job_done");
        assert_eq!(types, ["session_opened", "job_accepted", "job_output", "job_done"]);
        let closed = session.close().unwrap();
        assert_eq!(closed.get("jobs_done").and_then(Value::as_u64), Some(1));
        assert_eq!(closed.get("jobs_failed").and_then(Value::as_u64), Some(0));
        daemon.drain();
    }

    #[test]
    fn a_panicking_job_fails_its_session_but_not_its_neighbors() {
        let half_runs = Arc::new(AtomicUsize::new(0));
        let counting = Arc::clone(&half_runs);
        let runner: Arc<dyn JobRunner> = Arc::new(move |command: &str, sink: &JobSink| {
            if command == "boom" {
                panic!("injected fault");
            }
            if command == "half" {
                counting.fetch_add(1, Ordering::SeqCst);
                sink.record("{\"record\":\"partial\"}");
                return Err("failed after its first record".to_string());
            }
            sink.record("{\"record\":\"ok\"}");
            Ok(())
        });
        let daemon = Daemon::start(runner);
        let victim = daemon.open_session("victim").unwrap();
        let bystander = daemon.open_session("bystander").unwrap();
        victim.submit("boom").unwrap();
        bystander.submit("fine").unwrap();

        let victim_types = drain_types(&victim, "job_failed");
        assert_eq!(victim_types.last().map(String::as_str), Some("job_failed"));
        let closed = victim.close().unwrap();
        assert_eq!(closed.get("jobs_failed").and_then(Value::as_u64), Some(1));

        // The bystander session and the daemon itself are unharmed.
        let bystander_types = drain_types(&bystander, "job_done");
        assert_eq!(bystander_types.last().map(String::as_str), Some("job_done"));
        let closed = bystander.close().unwrap();
        assert_eq!(closed.get("jobs_failed").and_then(Value::as_u64), Some(0));

        let another = daemon.open_session("after-the-fact").unwrap();
        another.submit("fine").unwrap();
        assert_eq!(drain_types(&another, "job_done").last().map(String::as_str), Some("job_done"));
        let _ = another.close();

        // A job that streams a record and then errors runs exactly once:
        // its record reaches the stream once, before `job_failed`.
        let erring = daemon.open_session("erring").unwrap();
        erring.submit("half").unwrap();
        assert_eq!(
            drain_types(&erring, "job_failed"),
            ["session_opened", "job_accepted", "job_output", "job_failed"]
        );
        let closed = erring.close().unwrap();
        assert_eq!(closed.get("jobs_failed").and_then(Value::as_u64), Some(1));
        assert_eq!(half_runs.load(Ordering::SeqCst), 1, "a failed job is not rerun");
        daemon.drain();
    }

    #[test]
    fn submit_beyond_session_capacity_backpressures_then_completes() {
        // The session's job is held busy by a slow one; the queue fills
        // to its [`SESSION_QUEUE`] bound, so the next submit must block,
        // emit `backpressure`, and still land once space frees.
        let gate = gate();
        let gate_for_runner = Arc::clone(&gate);
        let runner: Arc<dyn JobRunner> = Arc::new(move |command: &str, _: &JobSink| {
            if command == "slow" {
                wait_gate(&gate_for_runner);
            }
            Ok(())
        });
        let daemon = Daemon::start(runner);
        let session = daemon.open_session("t").unwrap();
        session.submit("slow").unwrap();
        // Wait until the slow job is in flight so the next submits
        // occupy queue slots.
        while in_flight_jobs(&daemon) != 1 {
            thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..SESSION_QUEUE {
            session.submit("queued").unwrap();
        }
        let submit_side = SessionHandle {
            name: session.name.clone(),
            inner: Arc::clone(&session.inner),
            rx: None,
        };
        let blocked = thread::spawn(move || submit_side.submit("overflow"));
        // The backpressure counter proves the overflowing submit really
        // blocked before we open the gate.
        while daemon.metrics().counter_value("daemon.backpressure") == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        open_gate(&gate);
        let overflow_id = SESSION_QUEUE as u64 + 1;
        assert_eq!(blocked.join().unwrap(), Ok(overflow_id));
        let mut backpressure = None;
        while let Some(r) = session.next_record() {
            if r.get("type").and_then(Value::as_str) == Some("backpressure") {
                backpressure = Some(r.clone());
            }
            if r.get("type").and_then(Value::as_str) == Some("job_accepted")
                && r.get("job").and_then(Value::as_u64) == Some(overflow_id)
            {
                break;
            }
        }
        let backpressure = backpressure.expect("blocked submit should announce backpressure");
        for field in ["queued", "capacity"] {
            assert_eq!(backpressure.get(field).and_then(Value::as_u64), Some(SESSION_QUEUE as u64));
        }
        let _ = session.close();
        daemon.drain();
    }

    #[test]
    fn drain_runs_queued_work_to_completion_and_reports_totals() {
        let daemon = Daemon::start(echo_runner());
        let a = daemon.open_session("a").unwrap();
        let b = daemon.open_session("b").unwrap();
        for _ in 0..3 {
            a.submit("x").unwrap();
            b.submit("y").unwrap();
        }
        let report = daemon.drain();
        assert_eq!(report.get("type").and_then(Value::as_str), Some("daemon_drained"));
        assert_eq!(report.get("sessions").and_then(Value::as_u64), Some(2));
        assert_eq!(report.get("jobs_done").and_then(Value::as_u64), Some(6));
        assert_eq!(report.get("jobs_failed").and_then(Value::as_u64), Some(0));
        // Admission is now refused.
        assert!(matches!(daemon.open_session("late"), Err(DaemonError::Draining)));
        assert_eq!(a.submit("x"), Err(DaemonError::Draining));
        // The streams still replay up to their terminal records.
        assert!(drain_types(&a, "session_closed").contains(&"session_closed".to_string()));
        assert!(drain_types(&b, "session_closed").contains(&"session_closed".to_string()));
    }

    /// A daemon allowed `slots` jobs at once, whatever the shared
    /// executor's size.
    fn start_with_slots(runner: Arc<dyn JobRunner>, slots: usize) -> Daemon {
        Daemon::start_inner(runner, None, fresh_state(), slots)
    }

    #[test]
    fn session_jobs_run_at_once_up_to_the_executor_workers() {
        // Two more sessions than the executor has workers each submit a
        // job that blocks until the gate opens: as many run at once as
        // there are workers, the other two wait their turn.
        let workers = pacman_runner::Executor::global().workers();
        let gate = gate();
        let gate_for_runner = Arc::clone(&gate);
        let runner: Arc<dyn JobRunner> = Arc::new(move |_: &str, _: &JobSink| {
            wait_gate(&gate_for_runner);
            Ok(())
        });
        let daemon = Daemon::start(runner);
        let handles: Vec<_> = (0..workers + 2)
            .map(|i| {
                let handle = daemon.open_session(&format!("s{i}")).unwrap();
                handle.submit("gated").unwrap();
                handle
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while in_flight_jobs(&daemon) < workers as u64 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(20));
        let status = daemon.status();
        open_gate(&gate);
        assert_eq!(status.get("in_flight_jobs").and_then(Value::as_u64), Some(workers as u64));
        assert_eq!(status.get("queued_jobs").and_then(Value::as_u64), Some(2));
        for handle in handles {
            assert_eq!(
                drain_types(&handle, "job_done").last().map(String::as_str),
                Some("job_done")
            );
            let _ = handle.close();
        }
        daemon.drain();
    }

    #[test]
    fn fair_share_interleaves_a_flooded_session_with_a_light_one() {
        // One job slot, one greedy session flooding its queue to the
        // bound, one light session submitting after: the slot must go
        // to the light session's job before the greedy backlog finishes.
        let order = Arc::new(Mutex::new(Vec::<String>::new()));
        let order_ref = Arc::clone(&order);
        let runner: Arc<dyn JobRunner> = Arc::new(move |command: &str, _: &JobSink| {
            order_ref.lock().unwrap().push(command.to_string());
            thread::sleep(Duration::from_millis(2));
            Ok(())
        });
        let daemon = start_with_slots(runner, 1);
        let greedy = daemon.open_session("greedy").unwrap();
        let light = daemon.open_session("light").unwrap();
        for i in 0..SESSION_QUEUE {
            greedy.submit(&format!("greedy-{i}")).unwrap();
        }
        light.submit("light-0").unwrap();
        let _ = light.close();
        let _ = greedy.close();
        daemon.drain();
        let ran = order.lock().unwrap().clone();
        let light_pos = ran.iter().position(|c| c == "light-0").unwrap();
        assert!(
            light_pos < ran.len() - 1,
            "light session starved behind the greedy backlog: {ran:?}"
        );
    }

    #[test]
    fn a_light_campaign_finishes_inside_a_flooded_one_on_shared_workers() {
        // Two executor workers, two job slots. The flooded session's
        // running campaign may use both workers (jobs = 2) and has
        // another queued behind it; the light session's campaign,
        // submitted once the flood is running, must finish while most
        // of the flood's shards are still to run: only the executor's
        // least-in-flight pick hands it a worker that early.
        const FLOOD_SHARDS: usize = 100;
        let exec = Arc::new(pacman_runner::Executor::new(2));
        let flood_done = Arc::new(AtomicUsize::new(0));
        let seen_by_light = Arc::new(AtomicUsize::new(usize::MAX));
        let (flood_ref, seen_ref) = (Arc::clone(&flood_done), Arc::clone(&seen_by_light));
        let runner: Arc<dyn JobRunner> = Arc::new(move |command: &str, _: &JobSink| {
            let flood = command == "flood";
            let shards = if flood { FLOOD_SHARDS } else { 8 };
            let done = Arc::clone(&flood_ref);
            exec.submit::<u64, std::convert::Infallible, _>(
                pacman_runner::shard_plan(shards, shards, 1),
                2,
                pacman_runner::RetryPolicy::no_retries(),
                move |s, _| {
                    if flood {
                        thread::sleep(Duration::from_millis(4));
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(s.seed)
                },
            )
            .wait()
            .map_err(|e| e.to_string())?;
            if !flood {
                seen_ref.store(flood_ref.load(Ordering::SeqCst), Ordering::SeqCst);
            }
            Ok(())
        });
        let daemon = start_with_slots(runner, 2);
        let flooded = daemon.open_session("flooded").unwrap();
        for _ in 0..2 {
            flooded.submit("flood").unwrap();
        }
        while flood_done.load(Ordering::SeqCst) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let light = daemon.open_session("light").unwrap();
        light.submit("light").unwrap();
        let _ = light.close();
        let closed = flooded.close().unwrap();
        assert_eq!(closed.get("jobs_done").and_then(Value::as_u64), Some(2));
        daemon.drain();
        let seen = seen_by_light.load(Ordering::SeqCst);
        assert!(
            seen < FLOOD_SHARDS / 2,
            "the light campaign waited: {seen} of {FLOOD_SHARDS} flood shards ran first"
        );
    }

    #[test]
    fn concurrent_checkpoints_neither_fail_nor_tear() {
        let path = temp_snapshot_path("concurrent");
        let daemon = Arc::new(Daemon::start_durable(
            CheckpointPolicy::new(path.clone(), 1_000),
            echo_runner(),
            false,
        ));
        let session = daemon.open_session("s").unwrap();
        session.submit("job").unwrap();
        drain_types(&session, "job_done");
        let writers: Vec<_> = (0..8)
            .map(|_| {
                let daemon = Arc::clone(&daemon);
                thread::spawn(move || (0..50).filter(|_| daemon.checkpoint_now().is_err()).count())
            })
            .collect();
        let failed: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(failed, 0, "concurrent checkpoint writes failed");
        let snap = DaemonSnapshot::read_file(&path).unwrap().expect("a checkpoint exists");
        assert_eq!(snap.sessions.len(), 1);
        let _ = session.close();
        daemon.drain();
        let _ = std::fs::remove_file(&path);
    }

    fn temp_snapshot_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pacmand-svc-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("state.snapshot")
    }

    /// A deterministic 10-line job that can be made to stall once after
    /// its fifth record — long enough for a checkpoint to capture it
    /// mid-stream, exactly like a daemon killed mid-campaign.
    fn stalling_runner(
        armed: Arc<std::sync::atomic::AtomicBool>,
        gate: Arc<(Mutex<bool>, Condvar)>,
    ) -> Arc<dyn JobRunner> {
        Arc::new(move |command: &str, sink: &JobSink| {
            for i in 0..10u32 {
                if i == 5 && armed.swap(false, Ordering::SeqCst) {
                    wait_gate(&gate);
                }
                sink.record(&format!("{{\"record\":\"trial\",\"cmd\":\"{command}\",\"i\":{i}}}"));
            }
            Ok(())
        })
    }

    #[test]
    fn a_durable_daemon_checkpoints_and_resumes_mid_stream() {
        let path = temp_snapshot_path("resume");
        let _ = std::fs::remove_file(&path);
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let gate = gate();
        let runner = stalling_runner(Arc::clone(&armed), Arc::clone(&gate));

        // "Pre-crash" daemon: checkpoint every 5 records, job stalls
        // right after the fifth, so the checkpoint sees it running.
        let daemon = Daemon::start_durable(
            CheckpointPolicy::new(path.clone(), 5),
            Arc::clone(&runner),
            false,
        );
        assert!(daemon.resume_report().is_none(), "cold start has no report");
        let session = daemon.open_session("s").unwrap();
        session.submit("oracle").unwrap();
        let mut pre_lines = Vec::new();
        loop {
            let r = session.next_record().unwrap();
            match r.get("type").and_then(Value::as_str) {
                Some("job_output") => {
                    pre_lines.push(r.get("line").and_then(Value::as_str).unwrap().to_string());
                }
                Some("checkpoint_written") => break,
                _ => {}
            }
        }
        assert_eq!(pre_lines.len(), 5, "checkpoint cut at the cadence boundary");
        // The durable-watermark contract: at `checkpoint_written`, the
        // snapshot is already on disk and covers those 5 records.
        let frozen = std::fs::read(&path).expect("snapshot exists at checkpoint_written");
        let snap = DaemonSnapshot::load(&frozen).unwrap();
        assert_eq!(snap.sessions.len(), 1);
        assert_eq!(
            snap.sessions[0].jobs,
            vec![JobSnapshot { id: 0, command: "oracle".into(), emitted: 5 }]
        );

        // Let the stalled job finish and tear the first daemon down,
        // then put the mid-stream snapshot back — as if the process had
        // been SIGKILLed at the checkpoint instead of draining.
        open_gate(&gate);
        drain_types(&session, "job_done");
        let _ = session.close();
        daemon.drain();
        std::fs::write(&path, &frozen).unwrap();

        // Restarted daemon: resumes, re-runs job 0 with the first 5
        // records suppressed, and the stream picks up mid-job.
        let restarted = Daemon::start_durable(CheckpointPolicy::new(path.clone(), 5), runner, true);
        let report = restarted.resume_report().expect("resumed from a snapshot");
        assert_eq!(report.get("type").and_then(Value::as_str), Some("daemon_resumed"));
        assert_eq!(report.get("jobs").and_then(Value::as_u64), Some(1));

        let session = restarted.open_session("s").expect("reattach to the resumed session");
        let mut resumed_watermark = None;
        let mut post_lines = Vec::new();
        loop {
            let r = session.next_record().unwrap();
            match r.get("type").and_then(Value::as_str) {
                Some("resumed") => {
                    resumed_watermark = r.get("emitted").and_then(Value::as_u64);
                }
                Some("job_output") => {
                    post_lines.push(r.get("line").and_then(Value::as_str).unwrap().to_string());
                }
                Some("job_done") => break,
                _ => {}
            }
        }
        assert_eq!(resumed_watermark, Some(5), "client told where the stream resumes");

        // Stitched stream == the uninterrupted 10-line run, byte for byte.
        let stitched: Vec<String> = pre_lines.into_iter().chain(post_lines).collect();
        let expected: Vec<String> = (0..10)
            .map(|i| format!("{{\"record\":\"trial\",\"cmd\":\"oracle\",\"i\":{i}}}"))
            .collect();
        assert_eq!(stitched, expected);

        let closed = session.close().unwrap();
        assert_eq!(closed.get("jobs_done").and_then(Value::as_u64), Some(1));
        restarted.drain();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_corrupt_snapshot_cold_starts_with_a_warning() {
        let path = temp_snapshot_path("corrupt");
        std::fs::write(&path, b"PACMANDS\x63\x00garbage-checksum-and-body").unwrap();
        let daemon =
            Daemon::start_durable(CheckpointPolicy::new(path.clone(), 100), echo_runner(), true);
        let report = daemon.resume_report().expect("a warning is reported");
        assert_eq!(report.get("type").and_then(Value::as_str), Some("resume_warning"));
        assert!(report.get("error").and_then(Value::as_str).unwrap().contains("version"));
        // The daemon is healthy: a full session lifecycle works.
        let session = daemon.open_session("t").unwrap();
        session.submit("job").unwrap();
        assert_eq!(drain_types(&session, "job_done").last().map(String::as_str), Some("job_done"));
        let _ = session.close();
        daemon.drain();
        // The drain checkpoint replaced the corrupt file with a valid one.
        assert!(DaemonSnapshot::read_file(&path).unwrap().is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_snapshot_with_duplicate_sessions_cold_starts_with_a_warning() {
        let path = temp_snapshot_path("duplicate");
        let session = SessionSnapshot {
            name: "t".into(),
            next_job: 1,
            jobs_done: 0,
            jobs_failed: 0,
            records: 0,
            telemetry: Registry::new(),
            jobs: vec![JobSnapshot { id: 0, command: "job".into(), emitted: 0 }],
        };
        let snap = DaemonSnapshot {
            sessions: vec![session.clone(), session],
            ..DaemonSnapshot::default()
        };
        snap.write_atomic(&path).unwrap();
        let daemon =
            Daemon::start_durable(CheckpointPolicy::new(path.clone(), 100), echo_runner(), true);
        let report = daemon.resume_report().expect("a warning is reported");
        assert_eq!(report.get("type").and_then(Value::as_str), Some("resume_warning"));
        assert!(report.get("error").and_then(Value::as_str).unwrap().contains("appears twice"));
        // Nothing was replayed, and the daemon serves a fresh session.
        let session = daemon.open_session("t").unwrap();
        assert_eq!(session.submit("job").unwrap(), 0, "ids restart on a cold start");
        assert_eq!(drain_types(&session, "job_done").last().map(String::as_str), Some("job_done"));
        let _ = session.close();
        daemon.drain();
        let reread = DaemonSnapshot::read_file(&path).unwrap().expect("drain checkpoint written");
        assert!(reread.sessions.is_empty(), "closed session leaves nothing to replay");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_merge_live_and_closed_sessions() {
        let daemon = Daemon::start(echo_runner());
        let a = daemon.open_session("a").unwrap();
        a.submit("one").unwrap();
        drain_types(&a, "job_done");
        let _ = a.close();
        let b = daemon.open_session("b").unwrap();
        b.submit("two").unwrap();
        drain_types(&b, "job_done");
        let merged = daemon.metrics();
        assert_eq!(merged.counter_value("daemon.jobs_done"), 2);
        assert_eq!(merged.counter_value("daemon.jobs_submitted"), 2);
        let _ = b.close();
        daemon.drain();
    }
}
