//! Sharded trial-execution engine for the PACMAN reproduction.
//!
//! Every long-running experiment in the workspace — PAC brute-force
//! sweeps (§8.2), oracle accuracy trials (Fig 8), TLB set sweeps
//! (Fig 5), the gadget census (§4.3) — is a loop over *independent*
//! simulated trials. This crate shards such loops across OS threads
//! while keeping results bit-identical to the serial run:
//!
//! - [`shard_plan`] cuts `total` work items into a **fixed** number of
//!   contiguous shards ([`DEFAULT_SHARDS`] unless overridden), each with
//!   its own derived RNG seed ([`mix64`]`(base_seed, shard_index)`). The
//!   plan depends only on the work size and base seed — never on the
//!   worker count — so jobs=1 and jobs=N execute the exact same shards.
//! - [`Executor`] is the process-lifetime work-stealing pool every
//!   sharded campaign runs on (no external dependencies; the crates
//!   registry is unreachable, see ROADMAP). [`Executor::submit`] maps a
//!   fallible closure over the shards, isolating panics with
//!   `catch_unwind`, retrying each shard under a bounded
//!   [`RetryPolicy`], and streaming per-shard `Result<T, ShardError>`s
//!   that [`CampaignHandle::ordered`] reassembles into **shard order**
//!   regardless of which worker finished first. That ordered stream is
//!   the one way to read a campaign; [`CampaignHandle::wait`] collects
//!   it.
//! - [`default_jobs`] resolves the size of [`Executor::global`] from
//!   `PACMAN_JOBS` or [`std::thread::available_parallelism`]. A
//!   campaign's own `jobs` argument only caps how many of its shards run
//!   at once.
//!
//! Determinism contract: a driver gives each shard its own simulated
//! `Machine` seeded from [`Shard::seed`] and merges per-shard outputs in
//! shard order with order-insensitive operations (counter addition,
//! histogram merges, log concatenation). The *experiment* seed is
//! attempt-invariant — a retried attempt reruns the identical work — so
//! under that contract the merged aggregate is a pure function of
//! `(total, base_seed)` and neither the worker count nor transient
//! (retried-away) failures change it. [`RetryPolicy::reseed`] varies
//! only the *fault-decision* stream across attempts, through
//! [`RetryPolicy::fault_attempt`].
//!
//! Observability: when the process-wide flight recorder
//! (`pacman_telemetry::trace`) is enabled, the engine emits spans for
//! each shard's queue wait and execution attempts plus instant markers
//! for retries, permanent failures, and cancellations — the raw
//! material of the `trace.json` fault-drill timelines. Disabled (the
//! default), each hook is one atomic load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;

pub use executor::{CampaignHandle, Executor, OrderedEvents};

use pacman_telemetry::json::Value;
use pacman_telemetry::trace;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, riding through poisoning. Used for engine-internal
/// state whose critical sections only perform plain field updates, so a
/// panic mid-section cannot leave it inconsistent.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fixed shard count used by every parallelised experiment.
///
/// Deliberately independent of the worker count: the shard plan (and
/// therefore each shard's RNG stream and work range) must not change
/// when `--jobs` does, or jobs=1 and jobs=4 would disagree.
pub const DEFAULT_SHARDS: usize = 8;

/// Environment variable overriding the worker count.
pub const JOBS_ENV: &str = "PACMAN_JOBS";

/// A splitmix64-style finalizer mixing `salt` into `seed`.
///
/// Used for every derived-seed decision in the workspace: shard seeds
/// (`mix64(base_seed, index)`), per-attempt fault streams
/// (`mix64(seed, attempt)`). Unlike the earlier `base ^ index`
/// derivation it has no cheap collisions — `(seed 5, shard 3)` and
/// `(seed 7, shard 1)` XOR to the same stream (`6`) but mix to
/// unrelated ones — and no degenerate fixed point at `(0, 0)`.
#[must_use]
pub fn mix64(seed: u64, salt: u64) -> u64 {
    // splitmix64: advance the state by (salt + 1) golden-gamma steps,
    // then run the standard avalanche finalizer.
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One contiguous slice of a sharded workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Position of this shard in the plan (0-based).
    pub index: usize,
    /// Per-shard RNG seed: [`mix64`]`(base_seed, index)`. Drivers feed
    /// this to the shard-local `Machine` so noise streams are
    /// decorrelated across shards yet reproducible for a given base
    /// seed.
    pub seed: u64,
    /// Global index of the first work item owned by this shard.
    pub start: usize,
    /// Number of work items owned by this shard.
    pub len: usize,
}

impl Shard {
    /// Global work-item indices owned by this shard.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// Cuts `total` work items into at most `shards` contiguous shards.
///
/// The first `total % shards` shards take one extra item, so sizes
/// differ by at most one and the ranges exactly tile `0..total`. Shards
/// that would own zero items are dropped (a tiny workload yields fewer
/// shards, with the same seeds as the full plan's leading shards).
pub fn shard_plan(total: usize, shards: usize, base_seed: u64) -> Vec<Shard> {
    let shards = shards.max(1);
    let base = total / shards;
    let rem = total % shards;
    let mut plan = Vec::with_capacity(shards.min(total));
    let mut start = 0usize;
    for index in 0..shards {
        let len = base + usize::from(index < rem);
        if len == 0 {
            break;
        }
        plan.push(Shard { index, seed: mix64(base_seed, index as u64), start, len });
        start += len;
    }
    plan
}

/// Parses a `PACMAN_JOBS`-style worker count: a positive integer,
/// surrounding whitespace tolerated. `0`, empty and non-numeric values
/// are rejected (`None`).
#[must_use]
pub fn parse_jobs(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The machine's available parallelism (1 when undeterminable).
fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Memoized [`default_jobs`] resolution. A `Mutex<Option<..>>` rather
/// than a `OnceLock` so [`reset_default_jobs_cache`] can forget it.
static JOBS_CACHE: Mutex<Option<usize>> = Mutex::new(None);

/// The worker count: `PACMAN_JOBS` when set to a positive integer,
/// otherwise the machine's available parallelism (1 on failure).
///
/// An invalid or `0` value warns on stderr and falls back to available
/// parallelism, exactly like the unset case — a typo in the environment
/// must not silently serialise a campaign onto one worker.
///
/// The resolution (including the one-shot warning) is memoized for the
/// life of the process: hot driver paths call this per campaign, and
/// the environment is not expected to change underneath a running
/// process. Tests that do change `PACMAN_JOBS` must call
/// [`reset_default_jobs_cache`] afterwards.
pub fn default_jobs() -> usize {
    let mut cache = lock(&JOBS_CACHE);
    if let Some(jobs) = *cache {
        return jobs;
    }
    let jobs = resolve_default_jobs();
    *cache = Some(jobs);
    jobs
}

/// The uncached resolution behind [`default_jobs`].
fn resolve_default_jobs() -> usize {
    match std::env::var(JOBS_ENV) {
        Ok(v) => parse_jobs(&v).unwrap_or_else(|| {
            let fallback = available_jobs();
            eprintln!(
                "warning: {JOBS_ENV}='{v}' is not a positive worker count; \
                 using available parallelism ({fallback})"
            );
            fallback
        }),
        Err(_) => available_jobs(),
    }
}

/// Test-only hook: forgets the memoized [`default_jobs`] resolution so
/// a test that changes `PACMAN_JOBS` observes the new value (and the
/// bad-value warning can fire again). Not part of the stable API.
#[doc(hidden)]
pub fn reset_default_jobs_cache() {
    *lock(&JOBS_CACHE) = None;
}

/// Bounded per-shard retry policy for [`Executor::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per shard (first try included). Clamped to >= 1.
    pub max_attempts: u32,
    /// Whether each retry re-derives the *fault-decision* stream
    /// ([`mix64`]`(seed, attempt)`), so a transient injected fault
    /// clears on the next attempt. The shard's *experiment* seed is
    /// attempt-invariant either way — a retried attempt reruns the
    /// identical work, which is what keeps retried aggregates
    /// bit-identical to fault-free runs. With `reseed: false` every
    /// attempt replays attempt 0's fault decisions, so a faulting shard
    /// faults forever — the deterministic way to exercise the
    /// budget-exhaustion path.
    pub reseed: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 5, reseed: true }
    }
}

impl RetryPolicy {
    /// A policy with no retries: one attempt, fail fast.
    #[must_use]
    pub fn no_retries() -> Self {
        Self { max_attempts: 1, reseed: true }
    }

    /// The attempt key fed into the fault-decision stream: the real
    /// attempt number when the policy reseeds (transient faults clear on
    /// retry), attempt 0 forever otherwise (faults replay, budgets
    /// exhaust deterministically).
    #[must_use]
    pub fn fault_attempt(&self, attempt: u32) -> u32 {
        if self.reseed {
            attempt
        } else {
            0
        }
    }
}

/// Why one shard permanently failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardError {
    /// The failing shard's index in the plan.
    pub shard: usize,
    /// Attempts actually executed (0 for cancelled shards).
    pub attempts: u32,
    /// Whether the final attempt panicked (vs. returned an error).
    pub panicked: bool,
    /// Whether the shard was never run because another shard had
    /// already failed permanently (see [`Executor::submit`]).
    pub cancelled: bool,
    /// The final attempt's error display or panic message.
    pub message: String,
}

impl ShardError {
    fn cancelled(shard: usize) -> Self {
        Self {
            shard,
            attempts: 0,
            panicked: false,
            cancelled: true,
            message: "cancelled after another shard failed permanently".into(),
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cancelled {
            write!(f, "shard {} cancelled: {}", self.shard, self.message)
        } else {
            let kind = if self.panicked { "panicked" } else { "failed" };
            write!(
                f,
                "shard {} {kind} after {} attempt(s): {}",
                self.shard, self.attempts, self.message
            )
        }
    }
}

impl std::error::Error for ShardError {}

/// Infrastructure failures of the execution engine itself (as opposed
/// to [`ShardError`]s, which describe the workload failing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunnerError {
    /// A shard's slot was never filled even though no failure was
    /// recorded — a scheduling bug, not a workload error.
    MissingResult {
        /// Index of the empty slot.
        shard: usize,
    },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::MissingResult { shard } => {
                write!(f, "shard {shard} produced no result and no error")
            }
        }
    }
}

impl std::error::Error for RunnerError {}

/// Everything [`CampaignHandle::wait`] knows once a campaign drains: one
/// `Result` per shard **in shard order**, plus the retry total.
#[derive(Debug)]
pub struct ShardedOutcome<T> {
    /// Per-shard results in shard order.
    pub results: Vec<Result<T, ShardError>>,
    /// Attempts beyond the first, summed over every shard.
    pub retries: u64,
}

impl<T> ShardedOutcome<T> {
    /// Shards that produced a value.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Permanent per-shard failures, in shard order.
    pub fn failures(&self) -> impl Iterator<Item = &ShardError> {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }
}

/// Renders a `catch_unwind` payload into a message: the `&str` or
/// `String` a `panic!` carries, or `"non-string panic payload"` for
/// anything else. Shared by every layer that isolates panics (shard
/// attempts here, daemon job attempts in `pacman-daemon`).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// The per-shard retry loop of the [`Executor`]: runs `work` under
/// `catch_unwind` up to `max_attempts` times, emitting `shard.exec` /
/// `shard.retry` / `shard.fail` trace events and counting attempts
/// beyond the first into `retries`. `tid` is the executing worker's id,
/// used only for span attribution.
pub(crate) fn run_attempts<T, E, F>(
    shard: &Shard,
    tid: u64,
    max_attempts: u32,
    retries: &AtomicU64,
    work: &F,
) -> Result<T, ShardError>
where
    E: fmt::Display,
    F: Fn(&Shard, u32) -> Result<T, E> + ?Sized,
{
    let rec = trace::recorder();
    let sid = Some(shard.index as u64);
    let mut attempt = 0u32;
    loop {
        let exec_start = rec.now_us();
        let run = catch_unwind(AssertUnwindSafe(|| work(shard, attempt)));
        rec.complete(
            "shard.exec",
            "runner",
            tid,
            sid,
            exec_start,
            vec![
                ("attempt".into(), Value::UInt(u64::from(attempt))),
                ("ok".into(), Value::Bool(matches!(run, Ok(Ok(_))))),
            ],
        );
        let (panicked, message) = match run {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(e)) => (false, e.to_string()),
            Err(payload) => (true, panic_message(payload.as_ref())),
        };
        attempt += 1;
        if attempt >= max_attempts {
            rec.instant(
                "shard.fail",
                "runner",
                tid,
                sid,
                vec![
                    ("attempts".into(), Value::UInt(u64::from(attempt))),
                    ("panicked".into(), Value::Bool(panicked)),
                    ("error".into(), Value::str(message.clone())),
                ],
            );
            return Err(ShardError {
                shard: shard.index,
                attempts: attempt,
                panicked,
                cancelled: false,
                message,
            });
        }
        retries.fetch_add(1, Ordering::Relaxed);
        rec.instant(
            "shard.retry",
            "runner",
            tid,
            sid,
            vec![
                ("attempt".into(), Value::UInt(u64::from(attempt))),
                ("panicked".into(), Value::Bool(panicked)),
                ("error".into(), Value::str(message.clone())),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_tiles_the_range_exactly() {
        for total in [0usize, 1, 7, 8, 9, 100, 1003] {
            let plan = shard_plan(total, DEFAULT_SHARDS, 0xA11CE);
            let covered: usize = plan.iter().map(|s| s.len).sum();
            assert_eq!(covered, total, "total {total}");
            let mut expect_start = 0;
            for s in &plan {
                assert_eq!(s.start, expect_start);
                assert!(s.len >= 1);
                expect_start += s.len;
            }
        }
    }

    #[test]
    fn plan_sizes_differ_by_at_most_one() {
        let plan = shard_plan(100, 8, 1);
        let lens: Vec<usize> = plan.iter().map(|s| s.len).collect();
        assert_eq!(lens, [13, 13, 13, 13, 12, 12, 12, 12]);
    }

    #[test]
    fn plan_seeds_are_mixed_from_base_and_index() {
        let plan = shard_plan(64, 8, 0xFF00);
        for s in &plan {
            assert_eq!(s.seed, mix64(0xFF00, s.index as u64));
        }
        let seeds: std::collections::HashSet<u64> = plan.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), plan.len(), "derived seeds must be distinct");
    }

    #[test]
    fn mixed_seeds_do_not_collide_across_experiments() {
        // The old `base ^ index` derivation gave (seed 5, shard 3) and
        // (seed 7, shard 1) the same RNG stream (5^3 == 7^1 == 6). The
        // mixer must not.
        assert_eq!(5u64 ^ 3, 7u64 ^ 1);
        assert_ne!(mix64(5, 3), mix64(7, 1));
        let a = shard_plan(64, 8, 5);
        let b = shard_plan(64, 8, 7);
        for sa in &a {
            for sb in &b {
                assert_ne!(
                    sa.seed, sb.seed,
                    "seed 5 shard {} vs seed 7 shard {}",
                    sa.index, sb.index
                );
            }
        }
    }

    #[test]
    fn plan_is_independent_of_worker_count() {
        // There is no jobs parameter at all — this pins the invariant
        // that the plan is a pure function of (total, shards, seed).
        assert_eq!(shard_plan(37, 8, 9), shard_plan(37, 8, 9));
    }

    #[test]
    fn tiny_workloads_drop_empty_shards() {
        let plan = shard_plan(3, 8, 5);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[2].range(), 2..3);
        assert!(shard_plan(0, 8, 5).is_empty());
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("abc"), None);
        assert_eq!(parse_jobs(" 4 "), Some(4));
        assert_eq!(parse_jobs(""), None);
        assert_eq!(parse_jobs("-2"), None);
        assert_eq!(parse_jobs("16"), Some(16));
    }

    #[test]
    fn jobs_env_parsing() {
        // default_jobs reads the environment; exercise only the
        // documented fallback shape (>= 1 always).
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn mix64_is_deterministic_and_salt_sensitive() {
        assert_eq!(mix64(1, 2), mix64(1, 2));
        assert_ne!(mix64(1, 2), mix64(1, 3));
        assert_ne!(mix64(1, 2), mix64(2, 2));
        // mix64(0, 0) must not be the degenerate 0 of a plain XOR chain.
        assert_ne!(mix64(0, 0), 0);
    }

    #[test]
    fn tolerant_reports_exhausted_budget_as_shard_error() {
        let plan = shard_plan(4, 4, 0);
        let out = Executor::new(2)
            .submit::<u64, _, _>(
                plan,
                1,
                RetryPolicy { max_attempts: 3, reseed: false },
                |s, _| if s.index == 1 { Err("deterministic workload error") } else { Ok(s.seed) },
            )
            .wait()
            .expect("engine ok");
        assert_eq!(out.retries, 2, "shard 1 burns its whole budget");
        let failures: Vec<&ShardError> = out.failures().collect();
        // jobs=1 serialises the campaign: shard 1 fails and raises the
        // cancel flag before shard 2 can be dispatched, so shards 2 and
        // 3 cancel without running.
        assert_eq!(failures.len(), 3);
        assert_eq!(failures[0].shard, 1);
        assert_eq!(failures[0].attempts, 3);
        assert!(!failures[0].panicked);
        assert!(!failures[0].cancelled);
        assert!(failures[0].message.contains("deterministic workload error"));
        for f in &failures[1..] {
            assert!(f.cancelled, "shard {} should be cancelled", f.shard);
            assert_eq!(f.attempts, 0);
        }
        assert_eq!(out.completed(), 1);
    }

    #[test]
    fn fault_attempt_respects_the_reseed_policy() {
        let reseeding = RetryPolicy::default();
        assert_eq!(reseeding.fault_attempt(0), 0);
        assert_eq!(reseeding.fault_attempt(3), 3);
        let frozen = RetryPolicy { max_attempts: 4, reseed: false };
        assert_eq!(frozen.fault_attempt(3), 0, "non-reseeding replays attempt 0");
    }

    #[test]
    fn default_jobs_is_memoized_until_reset() {
        let first = default_jobs();
        assert!(first >= 1);
        assert_eq!(default_jobs(), first, "memoized value is stable");
        reset_default_jobs_cache();
        assert_eq!(default_jobs(), first, "same environment resolves the same");
    }

    #[test]
    fn tolerant_emits_lifecycle_spans_when_tracing() {
        // The global recorder is process-wide, so assert supersets:
        // concurrent tests may add events but cannot remove ours.
        let rec = trace::recorder();
        rec.set_enabled(true);
        let plan = shard_plan(20, 5, 0xCAFE);
        let out = Executor::new(2)
            .submit::<_, std::convert::Infallible, _>(
                plan,
                1,
                RetryPolicy::default(),
                |s, attempt| {
                    if s.index == 2 && attempt == 0 {
                        panic!("transient for the trace");
                    }
                    Ok(s.seed)
                },
            )
            .wait()
            .expect("engine ok");
        rec.set_enabled(false);
        assert_eq!(out.completed(), 5);
        let events = rec.take();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert!(count("shard.queue_wait") >= 5, "one queue-wait per shard");
        assert!(count("shard.exec") >= 6, "5 shards + 1 retried attempt");
        assert!(count("shard.retry") >= 1);
        assert!(count("shards.run") >= 1);
        // Find *our* retry marker by its distinctive message (other
        // concurrent tests may emit their own).
        let retry = events
            .iter()
            .find(|e| {
                e.name == "shard.retry"
                    && e.args
                        .iter()
                        .any(|(k, v)| k == "error" && v.as_str() == Some("transient for the trace"))
            })
            .expect("our retry marker is recorded");
        assert_eq!(retry.shard, Some(2));
        assert!(retry.dur_us.is_none(), "retries are instant markers");
    }
}
