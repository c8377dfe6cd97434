//! Parallel experiment drivers over the `pacman-runner` execution layer.
//!
//! Every driver runs its campaign through one shard harness,
//! `fold_campaign`:
//!
//! 1. the trial space is cut into [`pacman_runner::DEFAULT_SHARDS`]
//!    contiguous shards (a pure function of the workload and the base
//!    seed — never of the worker count);
//! 2. each shard attempt runs under the caller's [`Tolerance`]: the
//!    harness first rolls the injected shard-panic fault, then the
//!    driver's per-shard work runs. Drivers that need a machine lease
//!    one fresh [`System`] per attempt whose *machine* seed is the shard
//!    seed (`mix64(base, shard_index)`) while the *kernel* seed is
//!    untouched, so PAC keys, target addresses and ground truth are
//!    identical on every shard and only the noise/jitter streams differ.
//!    The lease also rolls the injected timing-noise spike and discards
//!    a spiked attempt. Panics are isolated per attempt, transient
//!    failures retry within the [`RetryPolicy`](crate::fault::RetryPolicy)
//!    budget, and a shard that exhausts its budget surfaces as a typed
//!    [`ExperimentError::Shards`] partial-result report instead of a
//!    process abort;
//! 3. each result type absorbs the per-shard outputs **in shard order**
//!    with order-insensitive operations: counters add, histograms fold
//!    bucket-wise ([`Registry::merge`]), trial logs concatenate and
//!    reindex;
//! 4. the harness records the `runner.*` counters (retries, shard
//!    failures, injected faults) into the merged telemetry.
//!
//! Consequence: for a fixed base seed the merged aggregate is identical
//! for `jobs = 1` and `jobs = N` — and, because a retried attempt reruns
//! the identical shard work on the identical experiment seed, identical
//! to the fault-free run even when injected faults forced retries. The
//! `parallel_determinism` integration tests pin both properties.

use std::sync::Arc;

use pacman_gadget::{scan_image, synthesize, ImageSpec, ScanConfig, ScanReport};
use pacman_runner::{shard_plan, Executor, RunnerError, Shard, DEFAULT_SHARDS};
use pacman_telemetry::Registry;
use pacman_uarch::Trap;

use crate::brute::{BruteForcer, BruteOutcome, BruteVerdict};
use crate::cache_probe::{quiet_target_offset, CacheDataPacOracle};
use crate::fault::{FaultPlan, FaultSite, Tolerance, SPIKE_CYCLES};
use crate::jump2win::{self, Jump2WinError, Jump2WinReport, SaltedPacOracle, PHASE_KEYS};
use crate::oracle::{DataPacOracle, InstrPacOracle, OracleError, PacOracle};
use crate::pool;
use crate::sweep::{
    cache_tlb_series, data_tlb_series, experiment_machine, itlb_series, SweepSeries,
};
use crate::system::{System, SystemConfig};
use crate::telemetry::{recorded_test_pac, TrialLog, TrialRecord};

pub use pacman_runner::ShardError;

/// A typed partial-result report: what completed, what failed and why,
/// after the retry budget ran out on at least one shard.
#[derive(Clone, Debug)]
pub struct PartialFailure {
    /// Shards in the plan.
    pub total: usize,
    /// Shards that completed (their results are discarded — a partial
    /// aggregate would silently change the experiment's statistics).
    pub completed: usize,
    /// Retries spent across all shards before giving up.
    pub retries: u64,
    /// Permanent per-shard failures, in shard order (cancelled shards
    /// included).
    pub failures: Vec<ShardError>,
}

impl std::fmt::Display for PartialFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let permanent = self.failures.iter().filter(|e| !e.cancelled).count();
        let cancelled = self.failures.len() - permanent;
        write!(
            f,
            "{} of {} shards completed ({} failed permanently, {} cancelled, {} retries)",
            self.completed, self.total, permanent, cancelled, self.retries
        )
    }
}

/// The workspace experiment error: everything a parallel driver can
/// fail with, typed.
#[derive(Debug)]
pub enum ExperimentError {
    /// An oracle build/measure error escaped a shard (only via the
    /// shard-failure path; see [`ExperimentError::Shards`]).
    Oracle(OracleError),
    /// An architectural trap from a sweep machine.
    Trap(Trap),
    /// A Jump2Win phase error.
    Jump2Win(Jump2WinError),
    /// The execution engine itself failed (a shard never reported).
    Runner(RunnerError),
    /// An injected timing-noise spike corrupted this attempt's
    /// measurements; the attempt is discarded and retried.
    InjectedSpike {
        /// The spiked shard.
        shard: usize,
        /// Timed accesses the spike inflated during the attempt.
        spikes: u64,
    },
    /// At least one shard exhausted its retry budget: the experiment
    /// aborted with a partial-result report instead of a panic.
    Shards(PartialFailure),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Oracle(e) => write!(f, "oracle error: {e}"),
            ExperimentError::Trap(t) => write!(f, "machine trap: {t:?}"),
            ExperimentError::Jump2Win(e) => write!(f, "jump2win error: {e}"),
            ExperimentError::Runner(e) => write!(f, "runner error: {e}"),
            ExperimentError::InjectedSpike { shard, spikes } => write!(
                f,
                "injected timing-noise spike corrupted {spikes} timed accesses on shard {shard}"
            ),
            ExperimentError::Shards(p) => write!(f, "sharded experiment failed: {p}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<OracleError> for ExperimentError {
    fn from(e: OracleError) -> Self {
        ExperimentError::Oracle(e)
    }
}

impl From<Trap> for ExperimentError {
    fn from(t: Trap) -> Self {
        ExperimentError::Trap(t)
    }
}

impl From<Jump2WinError> for ExperimentError {
    fn from(e: Jump2WinError) -> Self {
        ExperimentError::Jump2Win(e)
    }
}

/// Transmission channel selector for the parallel oracle drivers.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Channel {
    /// dTLB channel, data PACMAN gadget (Figure 8(a)).
    Data,
    /// iTLB channel, instruction PACMAN gadget (Figure 8(b)).
    Instr,
    /// L1 data-cache channel (§4.1 generality).
    Cache,
}

impl Channel {
    /// Builds the channel's oracle with the given per-test sample count.
    ///
    /// # Errors
    ///
    /// Propagates construction failures from the oracle.
    pub fn oracle(
        self,
        sys: &mut System,
        samples: usize,
    ) -> Result<Box<dyn PacOracle>, OracleError> {
        Ok(match self {
            Channel::Data => Box::new(DataPacOracle::new(sys)?.with_samples(samples)),
            Channel::Instr => Box::new(InstrPacOracle::new(sys)?.with_samples(samples)),
            Channel::Cache => Box::new(CacheDataPacOracle::new(sys)?.with_samples(samples)),
        })
    }

    /// Allocates this channel's attack target on a booted system and
    /// returns it with its ground-truth PAC. The target page sits in a
    /// dTLB set no per-syscall service page touches; the cache channel
    /// also needs a quiet L1D set inside that page. Both depend only on
    /// the kernel seed, so every shard of a campaign (and a [`probe`] of
    /// the same config) gets the same pair.
    pub fn target(self, sys: &mut System) -> (u64, u16) {
        let set = sys.pick_quiet_dtlb_set();
        let offset = if self == Channel::Cache { quiet_target_offset() } else { 0 };
        let target = sys.alloc_target(set) + offset;
        (target, sys.true_pac(target))
    }
}

/// Marks an armed timing-spike fault on the global flight recorder so a
/// fault drill's corrupted attempts show up on the trace timeline right
/// next to the `shard.retry` instants they cause.
fn note_spike(shard: usize, attempt: u32) {
    pacman_telemetry::trace::recorder().instant(
        "fault.spike",
        "fault",
        0,
        Some(shard as u64),
        vec![("attempt".to_string(), pacman_telemetry::json::Value::UInt(u64::from(attempt)))],
    );
}

/// One shard attempt, handed to a driver's per-shard work by
/// [`fold_campaign`] once the attempt survived its shard-panic decision.
pub(crate) struct Attempt<'a> {
    /// The shard being attempted.
    pub(crate) shard: &'a Shard,
    faults: &'a FaultPlan,
    /// The attempt's key in the fault-decision stream.
    key: u32,
}

impl Attempt<'_> {
    /// Leases the attempt's shard [`System`] and runs `body` on it.
    ///
    /// The machine seed becomes the shard seed (decorrelating noise
    /// streams), the kernel seed stays the caller's (so keys, layout and
    /// ground truth match across shards). The system comes from the
    /// calling worker's [`pool`] — a warm reboot when a compatible
    /// machine is parked, a fresh boot otherwise; either way the state
    /// is bit-identical to [`System::boot`].
    ///
    /// The injected timing-noise spike is decided here, so only drivers
    /// that lease a system roll it. A spiked attempt runs `body` to
    /// completion (exercising the spiked timing path), but its
    /// measurements are corrupted: it fails with
    /// [`ExperimentError::InjectedSpike`] so the whole shard — telemetry
    /// included — is discarded and retried.
    fn lease<T>(
        &self,
        base: &SystemConfig,
        record: bool,
        body: impl FnOnce(&mut System) -> Result<T, ExperimentError>,
    ) -> Result<T, ExperimentError> {
        let shard = self.shard.index;
        let spiked = self.faults.fires(FaultSite::TimingSpike, shard as u64, self.key);
        let mut cfg = base.clone();
        cfg.machine.seed = self.shard.seed;
        if spiked {
            note_spike(shard, self.key);
            cfg.machine.latency.fault_spike = SPIKE_CYCLES;
        }
        let mut sys = pool::lease(cfg);
        if record {
            sys.telemetry.set_enabled(true);
        }
        let out = body(&mut sys)?;
        if spiked {
            return Err(ExperimentError::InjectedSpike {
                shard,
                spikes: sys.machine.stats.fault_spikes,
            });
        }
        Ok(out)
    }
}

/// Captures a shard's full registry (attack-level series + the machine's
/// microarchitectural totals) for merging into the aggregate.
fn shard_registry(sys: &System) -> Registry {
    let mut reg = sys.telemetry.clone();
    reg.set_enabled(true);
    sys.machine.export_telemetry(&mut reg);
    reg
}

/// Per-shard completion notice streamed to campaign observers.
///
/// Observed drivers (e.g. [`oracle_distribution_observed`]) call their
/// observer once per shard, in shard order, the moment that shard's
/// output merges into the accumulator — *while later shards still run*,
/// riding the executor's ordered event stream, so
/// a per-session consumer (the `pacmand` daemon) can forward progress
/// records incrementally instead of waiting for the end-of-run barrier.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct ShardProgress {
    /// The shard that just merged.
    pub shard: usize,
    /// Shards in the campaign plan.
    pub shards: usize,
    /// Shards merged so far (this one included).
    pub completed: usize,
    /// Attempts beyond the first so far, campaign-wide.
    pub retries: u64,
}

/// A merged campaign result: absorbs each shard's output in shard order
/// and carries the registry [`fold_campaign`] records the runner
/// counters into.
pub(crate) trait Absorb {
    /// One shard's output.
    type Shard: Send + 'static;
    /// Folds the next shard's output (in shard order) into the aggregate.
    fn absorb(&mut self, shard: Self::Shard);
    /// The aggregate's merged telemetry.
    fn telemetry(&mut self) -> &mut Registry;
}

/// Per-shard items collected in shard order beside their merged
/// registries (the sweep and Jump2Win shape).
impl<T: Send + 'static> Absorb for (Vec<T>, Registry) {
    type Shard = (T, Registry);

    fn absorb(&mut self, (item, reg): (T, Registry)) {
        self.0.push(item);
        self.1.merge(&reg);
    }

    fn telemetry(&mut self) -> &mut Registry {
        &mut self.1
    }
}

/// The one shard harness: runs `plan` on the process-wide [`Executor`]
/// and folds the per-shard outputs **in shard order** into `acc`.
///
/// Every attempt first rolls the injected shard-panic fault, then runs
/// `work`; work that needs a machine leases it through
/// [`Attempt::lease`], which rolls the timing-spike fault. The fold
/// consumes the executor's ordered stream: shard `i` merges — and
/// `observe` fires — as soon as shards `0..=i` have reported, while
/// later shards still run, so no end-of-run barrier holds the
/// aggregation back. The fold is order-preserving, so the accumulator
/// is the same for every `jobs`. On success the `runner.*` counters are
/// recorded into the aggregate's telemetry; a permanent shard failure
/// surfaces as [`ExperimentError::Shards`] with the full partial-result
/// report.
pub(crate) fn fold_campaign<A, F>(
    plan: Vec<Shard>,
    jobs: usize,
    tol: &Tolerance,
    work: F,
    mut acc: A,
    observe: &mut dyn FnMut(ShardProgress),
) -> Result<A, ExperimentError>
where
    A: Absorb,
    F: Fn(&Attempt<'_>) -> Result<A::Shard, ExperimentError> + Send + Sync + 'static,
{
    let tol = Arc::new(tol.clone());
    let attempt = {
        let tol = Arc::clone(&tol);
        move |shard: &Shard, attempt: u32| {
            let key = tol.retry.fault_attempt(attempt);
            tol.faults.maybe_panic(shard.index, key);
            work(&Attempt { shard, faults: &tol.faults, key })
        }
    };
    let shards = plan.len();
    let mut stream = Executor::global().submit(plan, jobs, tol.retry, attempt).ordered();
    let mut merged = 0usize;
    let mut failures: Vec<ShardError> = Vec::new();
    // Not a `for` loop: the observer needs `stream.retries()` between
    // items, which a held `by_ref` borrow would forbid.
    #[allow(clippy::while_let_on_iterator)]
    while let Some((i, r)) = stream.next() {
        match r {
            Ok(v) => {
                acc.absorb(v);
                merged += 1;
                let retries = stream.retries();
                observe(ShardProgress { shard: i, shards, completed: merged, retries });
            }
            Err(e) => failures.push(e),
        }
    }
    let retries = stream.retries();
    if let Some(shard) = stream.missing() {
        return Err(ExperimentError::Runner(RunnerError::MissingResult { shard }));
    }
    if !failures.is_empty() {
        return Err(ExperimentError::Shards(PartialFailure {
            total: shards,
            completed: merged,
            retries,
            failures,
        }));
    }
    tol.record_runner_counters(acc.telemetry(), retries);
    Ok(acc)
}

/// Reads something about `base`'s platform off a system leased on an
/// executor worker: a one-shard campaign on the harness (no injected
/// faults, nothing recorded) runs `read` on its shard system, so the
/// calling thread boots nothing. That system's kernel seed is `base`'s,
/// so keys, layout and ground truth match every shard of a campaign on
/// `base` (the window-centring drivers read their true PACs here).
///
/// # Errors
///
/// [`ExperimentError::Shards`] if the probe shard fails every attempt.
pub fn probe<T, F>(base: &SystemConfig, read: F) -> Result<T, ExperimentError>
where
    T: Send + 'static,
    F: Fn(&mut System) -> T + Send + Sync + 'static,
{
    let plan = shard_plan(1, 1, base.machine.seed);
    let base = base.clone();
    let work =
        move |at: &Attempt<'_>| at.lease(&base, false, |sys| Ok((read(sys), Registry::disabled())));
    let init = (Vec::with_capacity(1), Registry::disabled());
    let (mut out, _) = fold_campaign(plan, 1, &Tolerance::default(), work, init, &mut |_| {})?;
    Ok(out.pop().expect("a completed one-shard campaign holds one result"))
}

/// Number of miss-count buckets in the Figure 8 distributions (0..=12,
/// last bucket saturating).
pub const MISS_BUCKETS: usize = 13;

/// Merged result of a parallel oracle-distribution run.
#[derive(Clone, Debug)]
pub struct OracleDistribution {
    /// Trial pairs executed (one correct + one wrong guess each).
    pub trials: u64,
    /// Correct-guess tests the oracle classified as correct.
    pub correct_detected: u64,
    /// Wrong-guess tests the oracle classified as incorrect.
    pub incorrect_clean: u64,
    /// Miss-count histogram of the correct-guess tests
    /// ([`MISS_BUCKETS`] buckets, last saturating).
    pub correct_misses: Vec<u64>,
    /// Miss-count histogram of the wrong-guess tests.
    pub incorrect_misses: Vec<u64>,
    /// Kernel crashes across all shards (must be zero).
    pub crashes: u64,
    /// Concatenated, reindexed per-trial records (empty unless recording).
    pub records: Vec<TrialRecord>,
    /// Merged attack + machine telemetry of every shard.
    pub telemetry: Registry,
    /// The (shard-invariant) target address and its true PAC.
    pub target: u64,
    /// Ground-truth PAC of [`OracleDistribution::target`].
    pub true_pac: u16,
}

impl OracleDistribution {
    /// The distribution of zero trials; its telemetry records iff
    /// `record`.
    fn empty(record: bool) -> Self {
        Self {
            trials: 0,
            correct_detected: 0,
            incorrect_clean: 0,
            correct_misses: vec![0; MISS_BUCKETS],
            incorrect_misses: vec![0; MISS_BUCKETS],
            crashes: 0,
            records: Vec::new(),
            telemetry: if record { Registry::new() } else { Registry::disabled() },
            target: 0,
            true_pac: 0,
        }
    }
}

impl Absorb for OracleDistribution {
    type Shard = Self;

    fn absorb(&mut self, shard: Self) {
        self.trials += shard.trials;
        self.correct_detected += shard.correct_detected;
        self.incorrect_clean += shard.incorrect_clean;
        for b in 0..MISS_BUCKETS {
            self.correct_misses[b] += shard.correct_misses[b];
            self.incorrect_misses[b] += shard.incorrect_misses[b];
        }
        self.crashes += shard.crashes;
        // Shard logs concatenate into one global trial sequence.
        let next = self.records.len() as u64;
        self.records.extend(shard.records.into_iter().zip(next..).map(|(mut r, index)| {
            r.index = index;
            r
        }));
        self.telemetry.merge(&shard.telemetry);
        self.target = shard.target;
        self.true_pac = shard.true_pac;
    }

    fn telemetry(&mut self) -> &mut Registry {
        &mut self.telemetry
    }
}

/// Runs `trials` correct/wrong oracle test pairs sharded across `jobs`
/// workers (Figure 8 and the CLI `oracle` command).
///
/// `wrong_for(i, true_pac)` derives the wrong guess for global trial
/// index `i`, so the guess sequence is independent of sharding. With
/// `record` set, per-trial records and `oracle.*` telemetry are kept.
/// `tol` supplies the retry budget and (optional) fault injection.
///
/// # Errors
///
/// [`ExperimentError::Shards`] with a partial-result report when a
/// shard exhausts its retry budget; [`ExperimentError::Runner`] for
/// engine failures.
#[allow(clippy::too_many_arguments)]
pub fn oracle_distribution<F>(
    base: &SystemConfig,
    channel: Channel,
    samples: usize,
    trials: usize,
    jobs: usize,
    record: bool,
    tol: &Tolerance,
    wrong_for: F,
) -> Result<OracleDistribution, ExperimentError>
where
    F: Fn(usize, u16) -> u16 + Send + Sync + 'static,
{
    oracle_distribution_observed(
        base,
        channel,
        samples,
        trials,
        jobs,
        record,
        tol,
        wrong_for,
        |_| {},
    )
}

/// [`oracle_distribution`] with a per-shard [`ShardProgress`] observer —
/// the per-session streaming hook the `pacmand` daemon uses to forward
/// incremental progress records while the campaign runs. The observer
/// fires as each ordered shard merges, before later shards complete;
/// results are bit-identical to the unobserved driver.
///
/// # Errors
///
/// Same contract as [`oracle_distribution`].
#[allow(clippy::too_many_arguments)]
pub fn oracle_distribution_observed<F, O>(
    base: &SystemConfig,
    channel: Channel,
    samples: usize,
    trials: usize,
    jobs: usize,
    record: bool,
    tol: &Tolerance,
    wrong_for: F,
    mut observe: O,
) -> Result<OracleDistribution, ExperimentError>
where
    F: Fn(usize, u16) -> u16 + Send + Sync + 'static,
    O: FnMut(ShardProgress),
{
    let plan = shard_plan(trials, DEFAULT_SHARDS, base.machine.seed);
    let base = base.clone();
    let work = move |at: &Attempt<'_>| {
        at.lease(&base, record, |sys| {
            let (target, true_pac) = channel.target(sys);
            let mut oracle = channel.oracle(sys, samples)?;
            let mut log = if record { TrialLog::new() } else { TrialLog::disabled() };
            let mut out = OracleDistribution {
                trials: at.shard.len as u64,
                target,
                true_pac,
                ..OracleDistribution::empty(false)
            };
            for i in at.shard.range() {
                let v = recorded_test_pac(
                    oracle.as_mut(),
                    sys,
                    &mut log,
                    target,
                    true_pac,
                    Some(true_pac),
                )?;
                out.correct_detected += u64::from(v.is_correct());
                out.correct_misses[v.median_misses.min(MISS_BUCKETS - 1)] += 1;
                let wrong = wrong_for(i, true_pac);
                let v = recorded_test_pac(
                    oracle.as_mut(),
                    sys,
                    &mut log,
                    target,
                    wrong,
                    Some(true_pac),
                )?;
                out.incorrect_clean += u64::from(!v.is_correct());
                out.incorrect_misses[v.median_misses.min(MISS_BUCKETS - 1)] += 1;
            }
            out.crashes = sys.kernel.crash_count();
            out.records = log.take();
            if record {
                out.telemetry = shard_registry(sys);
            }
            Ok(out)
        })
    };
    fold_campaign(plan, jobs, tol, work, OracleDistribution::empty(record), &mut observe)
}

/// Merged result of a parallel brute-force sweep.
#[derive(Clone, Debug, Default)]
pub struct ParallelBrute {
    /// Aggregate outcome: costs summed over every shard; `found` is the
    /// hit from the lowest candidate range (shards never early-exit each
    /// other, so the aggregate is jobs-independent).
    pub outcome: BruteOutcome,
    /// The (shard-invariant) target address.
    pub target: u64,
    /// Ground-truth PAC of the target.
    pub true_pac: u16,
    /// Merged attack + machine telemetry of every shard.
    pub telemetry: Registry,
}

impl Absorb for ParallelBrute {
    type Shard = Self;

    fn absorb(&mut self, shard: Self) {
        let (sum, s) = (&mut self.outcome, shard.outcome);
        sum.found = sum.found.or(s.found);
        sum.guesses_tested += s.guesses_tested;
        sum.syscalls += s.syscalls;
        sum.cycles += s.cycles;
        sum.crashes += s.crashes;
        self.telemetry.merge(&shard.telemetry);
        self.target = shard.target;
        self.true_pac = shard.true_pac;
    }

    fn telemetry(&mut self) -> &mut Registry {
        &mut self.telemetry
    }
}

/// Shards `candidates` contiguously and sweeps every shard to completion
/// (§8.2 speed protocol and the CLI `brute` command).
///
/// Unlike the serial [`BruteForcer::brute`], a hit in one shard does not
/// stop the others — total work is therefore a pure function of the
/// candidate list, which is what makes the jobs=1 and jobs=N aggregates
/// identical (and what a real parallel attacker pays anyway, since
/// cross-worker cancellation is racy).
///
/// # Errors
///
/// [`ExperimentError::Shards`] with a partial-result report when a
/// shard exhausts its retry budget.
pub fn parallel_brute(
    base: &SystemConfig,
    channel: Channel,
    samples: usize,
    candidates: &[u16],
    jobs: usize,
    record: bool,
    tol: &Tolerance,
) -> Result<ParallelBrute, ExperimentError> {
    let plan = shard_plan(candidates.len(), DEFAULT_SHARDS, base.machine.seed);
    let (base, candidates) = (base.clone(), candidates.to_vec());
    let work = move |at: &Attempt<'_>| {
        at.lease(&base, record, |sys| {
            let (target, true_pac) = channel.target(sys);
            let mut bf = BruteForcer::new(channel.oracle(sys, samples)?);
            let outcome = bf.brute(sys, target, candidates[at.shard.range()].iter().copied())?;
            let telemetry = if record { shard_registry(sys) } else { Registry::disabled() };
            Ok(ParallelBrute { outcome, target, true_pac, telemetry })
        })
    };
    let init = ParallelBrute {
        telemetry: if record { Registry::new() } else { Registry::disabled() },
        ..ParallelBrute::default()
    };
    fold_campaign(plan, jobs, tol, work, init, &mut |_| {})
}

/// Merged result of a parallel accuracy evaluation (§8.2).
#[derive(Clone, Debug, Default)]
pub struct AccuracyOutcome {
    /// Brute-force runs executed.
    pub runs: u64,
    /// Runs that found the true PAC.
    pub true_positives: u64,
    /// Runs that reported a wrong PAC (intolerable).
    pub false_positives: u64,
    /// Runs that found nothing (tolerable, retry).
    pub false_negatives: u64,
    /// Kernel crashes across all shards.
    pub crashes: u64,
    /// Merged attack + machine telemetry of every shard.
    pub telemetry: Registry,
}

impl Absorb for AccuracyOutcome {
    type Shard = Self;

    fn absorb(&mut self, shard: Self) {
        self.runs += shard.runs;
        self.true_positives += shard.true_positives;
        self.false_positives += shard.false_positives;
        self.false_negatives += shard.false_negatives;
        self.crashes += shard.crashes;
        self.telemetry.merge(&shard.telemetry);
    }

    fn telemetry(&mut self) -> &mut Registry {
        &mut self.telemetry
    }
}

/// Runs `runs` independent brute-force windows sharded across `jobs`
/// workers and tallies TP/FP/FN (the §8.2 accuracy protocol).
///
/// `window_for(run, true_pac)` builds run `run`'s candidate window, so
/// the windows are independent of sharding.
///
/// # Errors
///
/// [`ExperimentError::Shards`] with a partial-result report when a
/// shard exhausts its retry budget.
pub fn parallel_accuracy<F>(
    base: &SystemConfig,
    channel: Channel,
    samples: usize,
    runs: usize,
    jobs: usize,
    tol: &Tolerance,
    window_for: F,
) -> Result<AccuracyOutcome, ExperimentError>
where
    F: Fn(usize, u16) -> Vec<u16> + Send + Sync + 'static,
{
    let plan = shard_plan(runs, DEFAULT_SHARDS, base.machine.seed);
    let base = base.clone();
    let work = move |at: &Attempt<'_>| {
        at.lease(&base, true, |sys| {
            let (target, true_pac) = channel.target(sys);
            let mut bf = BruteForcer::new(channel.oracle(sys, samples)?);
            let mut out =
                AccuracyOutcome { runs: at.shard.len as u64, ..AccuracyOutcome::default() };
            for run in at.shard.range() {
                let outcome = bf.brute(sys, target, window_for(run, true_pac))?;
                match BruteForcer::<Box<dyn PacOracle>>::classify(&outcome, true_pac) {
                    BruteVerdict::TruePositive => out.true_positives += 1,
                    BruteVerdict::FalsePositive => out.false_positives += 1,
                    BruteVerdict::FalseNegative => out.false_negatives += 1,
                }
            }
            out.crashes = sys.kernel.crash_count();
            out.telemetry = shard_registry(sys);
            Ok(out)
        })
    };
    let init = AccuracyOutcome { telemetry: Registry::new(), ..AccuracyOutcome::default() };
    fold_campaign(plan, jobs, tol, work, init, &mut |_| {})
}

/// Which §7 sweep to run in parallel.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum SweepKind {
    /// Figure 5(a): data loads, cache-conflict-avoiding stride formula.
    DataTlb,
    /// Figure 5(b): data loads, raw strides (cache/TLB interaction).
    CacheTlb,
    /// Figure 5(c): instruction fetches, reload measured as data.
    Itlb,
}

/// Runs one §7 sweep with one fresh experiment machine **per stride**,
/// sharded across `jobs` workers. Series come back in stride order with
/// the same per-stride VA layout as the serial sweeps (the stride index
/// is passed through), and the experiment machines are noise-free with
/// PMC0 timing, so the medians are exactly reproducible at any job
/// count. Also returns the merged machine telemetry.
///
/// Fault injection here covers shard panics only: the sweep machines
/// are deliberately noise-free (PMC0, no timer jitter), so the
/// timing-spike site does not apply.
///
/// # Errors
///
/// [`ExperimentError::Shards`] with a partial-result report (carrying
/// any underlying [`Trap`] messages) when a shard exhausts its budget.
pub fn parallel_sweep(
    kind: SweepKind,
    strides: &[u64],
    jobs: usize,
    tol: &Tolerance,
) -> Result<(Vec<SweepSeries>, Registry), ExperimentError> {
    // One work unit per stride: stride counts are tiny (3-4), and each
    // stride is the natural isolation boundary (disjoint VA region).
    let plan = shard_plan(strides.len(), strides.len(), 0);
    let init = (Vec::with_capacity(strides.len()), Registry::new());
    let strides = strides.to_vec();
    let work = move |at: &Attempt<'_>| -> Result<(SweepSeries, Registry), ExperimentError> {
        let mut m = experiment_machine();
        let si = at.shard.index;
        let series = match kind {
            SweepKind::DataTlb => data_tlb_series(&mut m, si, strides[si])?,
            SweepKind::CacheTlb => cache_tlb_series(&mut m, si, strides[si])?,
            SweepKind::Itlb => itlb_series(&mut m, si, strides[si])?,
        };
        let mut reg = Registry::new();
        m.export_telemetry(&mut reg);
        Ok((series, reg))
    };
    fold_campaign(plan, jobs, tol, work, init, &mut |_| {})
}

/// Per-shard gadget reports folded in shard order beside the census
/// registry, which holds only the `runner.*` counters: a census runs no
/// machine.
impl Absorb for (ScanReport, Registry) {
    type Shard = ScanReport;

    fn absorb(&mut self, report: ScanReport) {
        self.0.merge(&report);
    }

    fn telemetry(&mut self) -> &mut Registry {
        &mut self.1
    }
}

/// Runs the §4.3 gadget census: `spec.functions` functions cut into
/// [`DEFAULT_SHARDS`] deterministic sub-images, each synthesized from its
/// shard's seed (`mix64(spec.seed, shard_index)`) and scanned under
/// `config`, then folded with [`ScanReport::merge`] in shard order. The
/// plan is a pure function of the spec, so the merged report is the same
/// at any `jobs`. Also returns the census registry.
///
/// Fault injection covers shard panics only: a census leases no machine,
/// so the timing-spike site does not apply.
///
/// # Errors
///
/// [`ExperimentError::Shards`] with a partial-result report when a
/// shard exhausts its retry budget.
pub fn parallel_census(
    spec: &ImageSpec,
    config: &ScanConfig,
    jobs: usize,
    tol: &Tolerance,
) -> Result<(ScanReport, Registry), ExperimentError> {
    let plan = shard_plan(spec.functions, DEFAULT_SHARDS, spec.seed);
    let (spec, config) = (*spec, *config);
    let work = move |at: &Attempt<'_>| {
        let sub = ImageSpec { functions: at.shard.len, seed: at.shard.seed, ..spec };
        Ok(scan_image(&synthesize(&sub).bytes, &config))
    };
    fold_campaign(plan, jobs, tol, work, (ScanReport::default(), Registry::new()), &mut |_| {})
}

/// Runs the §8.3 Jump2Win attack: its two independent brute-force
/// phases (IA-key `win()` PAC, DA-key vtable PAC) run as one
/// [`BruteForcer`] sweep each over `windows` (`(start, len)` per phase,
/// see [`centred_windows`](crate::jump2win::centred_windows)) on separate
/// shard systems, then the overflow and dispatch run on a fresh system.
/// Costs are summed over the phases plus the final dispatch.
///
/// # Errors
///
/// [`ExperimentError::Shards`] when a phase exhausts its retry budget;
/// [`ExperimentError::Jump2Win`] when a window holds no PAC or the
/// dispatch fails.
pub fn parallel_jump2win(
    base: &SystemConfig,
    windows: [(u16, u32); 2],
    jobs: usize,
    record: bool,
    tol: &Tolerance,
) -> Result<(Jump2WinReport, Registry), ExperimentError> {
    // Two work units: the two brute-force phases.
    let plan = shard_plan(2, 2, base.machine.seed);
    let shard_base = base.clone();
    let work = move |at: &Attempt<'_>| {
        at.lease(&shard_base, record, |sys| {
            let (sc, target) = jump2win::phase(sys, at.shard.index);
            let (start, len) = windows[at.shard.index];
            let candidates = (0..len).map(|i| start.wrapping_add(i as u16));
            let outcome =
                BruteForcer::new(SaltedPacOracle::new(sc)).brute(sys, target, candidates)?;
            Ok((outcome, if record { shard_registry(sys) } else { Registry::disabled() }))
        })
    };
    let init = (Vec::with_capacity(2), if record { Registry::new() } else { Registry::disabled() });
    let (phases, mut telemetry) = fold_campaign(plan, jobs, tol, work, init, &mut |_| {})?;

    let found = |i: usize| phases[i].found.ok_or(Jump2WinError::PacNotFound { key: PHASE_KEYS[i] });
    let (pac_win, pac_vtable) = (found(0)?, found(1)?);

    // Phases 3-4 on a fresh system with the caller's exact config (the
    // planted pointers only depend on the kernel seed, shared by all).
    let mut sys = pool::lease(base.clone());
    if record {
        sys.telemetry.set_enabled(true);
    }
    let syscalls0 = sys.machine.stats.syscalls;
    let cycles0 = sys.machine.cycles;
    let crashes0 = sys.kernel.crash_count();
    let hijacked = jump2win::plant_and_dispatch(&mut sys, pac_win, pac_vtable)?;
    if record {
        telemetry.merge(&shard_registry(&sys));
    }
    let sum = |cost: fn(&BruteOutcome) -> u64| phases.iter().map(cost).sum::<u64>();
    let report = Jump2WinReport {
        pac_win,
        pac_vtable,
        guesses_tested: sum(|o| o.guesses_tested),
        syscalls: sum(|o| o.syscalls) + (sys.machine.stats.syscalls - syscalls0),
        cycles: sum(|o| o.cycles) + (sys.machine.cycles - cycles0),
        crashes: sum(|o| o.crashes) + (sys.kernel.crash_count() - crashes0),
        hijacked,
    };
    Ok((report, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::oracle::CORRECT_MISS_THRESHOLD;

    fn quiet_config() -> SystemConfig {
        let mut cfg = SystemConfig::default();
        cfg.machine.os_noise = 0.0;
        cfg
    }

    fn no_faults() -> Tolerance {
        Tolerance::default()
    }

    #[test]
    fn oracle_distribution_classifies_both_classes() {
        let out = oracle_distribution(
            &quiet_config(),
            Channel::Data,
            1,
            12,
            2,
            false,
            &no_faults(),
            |i, tp| tp ^ (1 + i as u16),
        )
        .expect("distribution");
        assert_eq!(out.trials, 12);
        assert_eq!(out.correct_detected, 12);
        assert_eq!(out.incorrect_clean, 12);
        assert_eq!(out.crashes, 0);
        let good: u64 = out.correct_misses[CORRECT_MISS_THRESHOLD..].iter().sum();
        assert_eq!(good, 12);
        assert!(out.records.is_empty(), "not recording");
    }

    #[test]
    fn observed_oracle_streams_progress_in_shard_order() {
        let mut seen: Vec<ShardProgress> = Vec::new();
        let out = oracle_distribution_observed(
            &quiet_config(),
            Channel::Data,
            1,
            12,
            2,
            false,
            &no_faults(),
            |i, tp| tp ^ (1 + i as u16),
            |p| seen.push(p),
        )
        .expect("observed distribution");
        // One notification per shard, in shard order, completed
        // counting up — and the merged result is identical to the
        // unobserved driver's.
        assert_eq!(seen.len(), DEFAULT_SHARDS);
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(p.shard, i);
            assert_eq!(p.shards, DEFAULT_SHARDS);
            assert_eq!(p.completed, i + 1);
            assert_eq!(p.retries, 0);
        }
        let plain = oracle_distribution(
            &quiet_config(),
            Channel::Data,
            1,
            12,
            2,
            false,
            &no_faults(),
            |i, tp| tp ^ (1 + i as u16),
        )
        .expect("unobserved distribution");
        assert_eq!(out.correct_detected, plain.correct_detected);
        assert_eq!(out.incorrect_clean, plain.incorrect_clean);
        assert_eq!(out.true_pac, plain.true_pac);
    }

    #[test]
    fn oracle_distribution_records_and_reindexes() {
        let out = oracle_distribution(
            &quiet_config(),
            Channel::Data,
            1,
            6,
            3,
            true,
            &no_faults(),
            |i, tp| tp ^ (1 + i as u16),
        )
        .expect("distribution");
        assert_eq!(out.records.len(), 12, "two records per trial pair");
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.index, i as u64, "records are reindexed in shard order");
        }
        assert_eq!(out.telemetry.counter_value("oracle.trials"), 12);
        assert_eq!(out.telemetry.counter_value("runner.retries"), 0);
        assert_eq!(out.telemetry.counter_value("runner.faults_injected"), 0);
    }

    #[test]
    fn parallel_brute_finds_the_pac_and_sums_costs() {
        let cfg = quiet_config();
        // Probe the true PAC's window; every shard sweeps its own slice.
        let mut probe = System::boot(cfg.clone());
        let set = probe.pick_quiet_dtlb_set();
        let target = probe.alloc_target(set);
        let true_pac = probe.true_pac(target);
        let candidates: Vec<u16> =
            (0..24u16).map(|i| true_pac.wrapping_sub(11).wrapping_add(i)).collect();
        let out = parallel_brute(&cfg, Channel::Data, 1, &candidates, 2, false, &no_faults())
            .expect("parallel brute");
        assert_eq!(out.target, target);
        assert_eq!(out.true_pac, true_pac);
        assert_eq!(out.outcome.found, Some(true_pac));
        assert_eq!(out.outcome.crashes, 0);
        assert!(out.outcome.syscalls > 0 && out.outcome.cycles > 0);
        // Shards past the hit still sweep: total >= the serial early-exit count.
        assert!(out.outcome.guesses_tested >= 12);
    }

    #[test]
    fn parallel_accuracy_tallies_runs() {
        let out =
            parallel_accuracy(&quiet_config(), Channel::Data, 1, 6, 2, &no_faults(), |run, tp| {
                let start = tp.wrapping_sub(2).wrapping_add((run % 2) as u16);
                (0..6u16).map(|i| start.wrapping_add(i)).collect()
            })
            .expect("accuracy");
        assert_eq!(out.runs, 6);
        assert_eq!(out.true_positives + out.false_positives + out.false_negatives, 6);
        assert_eq!(out.false_positives, 0);
        assert_eq!(out.crashes, 0);
    }

    #[test]
    fn parallel_sweep_reproduces_the_serial_knees() {
        let (series, reg) =
            parallel_sweep(SweepKind::DataTlb, &[256, 2048], 2, &no_faults()).expect("sweep");
        assert_eq!(series[0].knee_above(90), Some(12), "finding 1 survives parallelism");
        assert_eq!(series[1].knee_above(110), Some(23), "finding 2 survives parallelism");
        assert!(!reg.is_empty(), "machine telemetry merged");
        let (instr, _) = parallel_sweep(SweepKind::Itlb, &[32], 2, &no_faults()).expect("itlb");
        assert_eq!(instr[0].knee_below(90), Some(4), "finding 3 survives parallelism");
    }

    fn census_spec(functions: usize) -> ImageSpec {
        ImageSpec { functions, seed: 0xC0DE, ..ImageSpec::default() }
    }

    fn census(spec: &ImageSpec, jobs: usize) -> ScanReport {
        parallel_census(spec, &ScanConfig::default(), jobs, &no_faults()).expect("census").0
    }

    #[test]
    fn census_is_jobs_invariant() {
        let serial = census(&census_spec(400), 1);
        let parallel = census(&census_spec(400), 4);
        assert_eq!(serial, parallel, "census must not depend on the worker count");
        assert!(serial.total() > 0);
    }

    #[test]
    fn census_scans_every_function() {
        let report = census(&census_spec(500), 2);
        // PA-heavy synthetic code averages more than one gadget per
        // function (§4.3 scaling), and the sub-images jointly cover the
        // full function budget.
        assert!(report.total() > 500, "expected >1 gadget/function, got {}", report.total());
        assert!(report.conditional_branches >= 500);
    }

    #[test]
    fn clean_images_stay_clean_under_parallel_scan() {
        let clean = ImageSpec { pa_percent: 0, ..census_spec(300) };
        assert_eq!(census(&clean, 4).total(), 0, "no PA, no gadgets — in any shard");
    }

    /// Replays the driver's per-shard fault decisions: the attempts a
    /// shard needs before one is clean, or `None` if the budget (with
    /// reseeding) would be exhausted.
    fn attempts_to_survive(seed: u64, rate: f64, shard: u64, budget: u32) -> Option<u32> {
        let probe = FaultPlan::new(seed, rate);
        (0..budget).find(|&a| {
            !probe.fires(FaultSite::ShardPanic, shard, a)
                && !probe.fires(FaultSite::TimingSpike, shard, a)
        })
    }

    #[test]
    fn injected_faults_within_budget_leave_aggregates_bit_identical() {
        let cfg = quiet_config();
        let wrong = |i: usize, tp: u16| tp ^ (1 + i as u16);
        let baseline = oracle_distribution(&cfg, Channel::Data, 1, 8, 2, true, &no_faults(), wrong)
            .expect("fault-free run");
        // Deterministically pick a seed whose rate-0.3 fault pattern
        // forces at least one retry on the 8-shard plan but exhausts no
        // shard's budget (both properties are pure functions of the
        // seed, so the chosen run is reproducible).
        let budget = RetryPolicy::default().max_attempts;
        let seed = (0..500u64)
            .find(|&s| {
                let survived: Vec<_> =
                    (0..8u64).map(|sh| attempts_to_survive(s, 0.3, sh, budget)).collect();
                survived.iter().all(Option::is_some)
                    && survived.iter().map(|a| u64::from(a.unwrap())).sum::<u64>() > 0
            })
            .expect("a qualifying seed exists in 0..500");
        let tol = Tolerance { retry: RetryPolicy::default(), faults: FaultPlan::new(seed, 0.3) };
        let faulted = oracle_distribution(&cfg, Channel::Data, 1, 8, 4, true, &tol, wrong)
            .expect("faults within the retry budget must not fail the run");
        assert!(
            faulted.telemetry.counter_value("runner.retries") > 0,
            "the fault plan must actually have forced retries"
        );
        assert!(faulted.telemetry.counter_value("runner.faults_injected") > 0);
        assert_eq!(baseline.correct_detected, faulted.correct_detected);
        assert_eq!(baseline.incorrect_clean, faulted.incorrect_clean);
        assert_eq!(baseline.correct_misses, faulted.correct_misses);
        assert_eq!(baseline.incorrect_misses, faulted.incorrect_misses);
        assert_eq!(baseline.crashes, faulted.crashes);
        assert_eq!(baseline.records.len(), faulted.records.len());
        for (b, f) in baseline.records.iter().zip(&faulted.records) {
            assert_eq!(b.guess, f.guess);
            assert_eq!(b.misses, f.misses);
        }
    }

    #[test]
    fn exhausted_budget_yields_a_typed_partial_failure() {
        // Rate 1.0 without reseeding: every shard panics on every
        // attempt, so every shard exhausts its budget deterministically.
        let tol = Tolerance {
            retry: RetryPolicy { max_attempts: 2, reseed: false },
            faults: FaultPlan::new(1, 1.0),
        };
        let err =
            oracle_distribution(&quiet_config(), Channel::Data, 1, 8, 2, false, &tol, |i, tp| {
                tp ^ (1 + i as u16)
            })
            .expect_err("rate-1.0 faults must exhaust the budget");
        let ExperimentError::Shards(partial) = err else {
            panic!("expected a partial-failure report, got: {err}");
        };
        assert_eq!(partial.completed, 0);
        assert!(partial.retries > 0);
        let permanent: Vec<_> = partial.failures.iter().filter(|f| !f.cancelled).collect();
        assert!(!permanent.is_empty());
        for f in &permanent {
            assert!(f.panicked, "injected shard faults panic");
            assert_eq!(f.attempts, 2);
            assert!(f.message.contains("injected fault"), "{}", f.message);
        }
    }

    #[test]
    fn injected_spikes_are_observed_then_discarded() {
        // A seed where shard 0's attempt 0 is spiked (not panicked) and
        // both of the plan's shards then survive within the budget, so
        // the run recovers with clean aggregates.
        let budget = RetryPolicy::default().max_attempts;
        let seed = (0..500u64)
            .find(|&s| {
                let probe = FaultPlan::new(s, 0.5);
                !probe.fires(FaultSite::ShardPanic, 0, 0)
                    && probe.fires(FaultSite::TimingSpike, 0, 0)
                    && (0..2u64).all(|sh| attempts_to_survive(s, 0.5, sh, budget).is_some())
            })
            .expect("a qualifying seed exists in 0..500");
        let cfg = quiet_config();
        let wrong = |i: usize, tp: u16| tp ^ (1 + i as u16);
        let baseline = oracle_distribution(&cfg, Channel::Data, 1, 2, 1, true, &no_faults(), wrong)
            .expect("fault-free");
        // Trials=2 => the plan has 2 single-trial shards; only shard 0's
        // attempt 0 is spiked under the chosen seed's spike stream (other
        // shards may retry too — irrelevant, aggregates must match).
        let tol = Tolerance { retry: RetryPolicy::default(), faults: FaultPlan::new(seed, 0.5) };
        let spiked = oracle_distribution(&cfg, Channel::Data, 1, 2, 1, true, &tol, wrong)
            .expect("spiked attempts retry within budget");
        assert_eq!(baseline.correct_detected, spiked.correct_detected);
        assert_eq!(baseline.correct_misses, spiked.correct_misses);
        assert_eq!(
            spiked.telemetry.counter_value("uarch.fault_spikes"),
            0,
            "spiked attempts are discarded, so no spike survives into the aggregate"
        );
        assert!(spiked.telemetry.counter_value("runner.retries") > 0);
    }
}
