//! Thread-local bridge from the CLI's record emission to a daemon
//! session's [`JobSink`].
//!
//! When `pacmand` runs a client-submitted command line through
//! `dispatch`, the command's code path is exactly the one-shot CLI's —
//! same `Emitter`, same records. The only difference is an installed
//! job context: every JSONL line the `Emitter` produces is also teed,
//! verbatim, onto the session stream as a `job_output` record, and
//! campaign drivers stream `job_progress` as shards merge. With no
//! context installed (the ordinary CLI process), every hook here is a
//! no-op costing one thread-local read.
//!
//! The context is thread-local on purpose: each job runs on a daemon job
//! thread, concurrently with other sessions' jobs in one process, and a
//! sink installed for the length of one job on its thread cannot leak
//! records across tenants.

use std::cell::RefCell;

use pacman_daemon::JobSink;

thread_local! {
    static ACTIVE: RefCell<Option<JobSink>> = const { RefCell::new(None) };
}

/// Restores the previous job context when dropped, so a job's sink
/// never outlives its dispatch even on the error path.
pub struct Guard {
    prev: Option<JobSink>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// Installs `sink` as this thread's job context for the guard's
/// lifetime.
pub fn install(sink: JobSink) -> Guard {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(sink));
    Guard { prev }
}

/// Whether a job context is installed on this thread.
pub fn active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Tees one emitted JSONL line (trailing newline tolerated) onto the
/// session stream; no-op without a context.
pub fn tee(line: &str) {
    ACTIVE.with(|a| {
        if let Some(sink) = a.borrow().as_ref() {
            sink.record(line.trim_end());
        }
    });
}

/// Streams a shard-merge progress notification; no-op without a
/// context.
pub fn progress(shard: usize, shards: usize, completed: usize, retries: u64) {
    ACTIVE.with(|a| {
        if let Some(sink) = a.borrow().as_ref() {
            sink.progress(shard, shards, completed, retries);
        }
    });
}
