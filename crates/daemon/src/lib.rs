//! `pacmand` — the long-running multi-tenant experiment daemon for the
//! PACMAN reproduction.
//!
//! Every campaign in the paper — §6 oracle characterization, §8.2 PAC
//! brute-force, §4.3 gadget census — is a long, many-trial workload,
//! but a one-shot CLI run tears the warm executor and machine pools
//! down with the process. This crate keeps them alive: tenants open
//! named *sessions* on a daemon ([`Daemon`]) over a JSONL line protocol
//! ([`protocol`]) carried on stdio or a Unix socket ([`net`]), each
//! session runs its submitted experiment commands one at a time,
//! sessions take turns for as many job slots as the process-wide
//! executor has workers, and every job's shards share those persistent
//! workers. Results stream back incrementally — `job_output` records
//! wrap the job's own JSONL verbatim, `job_progress` records ride the
//! executor's ordered shard-event stream — rather than arriving in one
//! end-of-run burst.
//!
//! The contract that makes the daemon multi-*tenant* rather than just
//! multi-session is fault isolation ([`service`] module docs): panics,
//! retry-budget exhaustion, and partial-failure reports are scoped to
//! the one session that submitted the job. Shutdown is a graceful
//! drain that finishes queued work and emits per-session telemetry
//! snapshots merged into a daemon-wide registry.
//!
//! Started with a [`CheckpointPolicy`], the daemon is also *durable*:
//! it periodically writes a checksummed snapshot of all in-flight state
//! ([`snapshot`]) and announces each write with a `checkpoint_written`
//! record, and a killed daemon restarted with `--resume` re-enqueues
//! the interrupted jobs, suppresses their already-delivered output, and
//! continues every session's record stream mid-job.
//!
//! The crate is transport- and workload-agnostic: it knows how to
//! schedule and stream, while the actual experiment execution is
//! injected as a [`JobRunner`] (the CLI's `dispatch`, or a synthetic
//! runner in tests and the `service_load` bench).

pub mod clock;
pub mod net;
pub mod protocol;
pub mod service;
pub mod snapshot;

pub use service::{
    CheckpointPolicy, Daemon, DaemonConfig, DaemonError, JobRunner, JobSink, SessionHandle,
};
pub use snapshot::{DaemonSnapshot, SnapshotError};
