//! Deterministic fault injection for the execution stack.
//!
//! Long measurement campaigns on real hardware die in ways unit tests
//! never exercise: a trial panics, a timing measurement lands in a noise
//! spike, an artifact write hits a full disk. This module makes those
//! degradation paths *testable*: a seeded [`FaultPlan`] decides — as a
//! pure function of `(seed, site, index, attempt)` — where to inject a
//! shard panic, a timing-noise spike or an artifact-write IO error, so
//! CI can run the whole retry/partial-failure machinery on every push
//! with bit-reproducible fault patterns. Each campaign decides on its
//! own stream (`FaultPlan::for_campaign`, keyed by its plan seed), so
//! two campaigns over the same shard count draw different faults.
//!
//! Faults are **off by default** ([`FaultPlan::disabled`], the zero
//! rate). They activate via the `PACMAN_FAULT_SEED` / `PACMAN_FAULT_RATE`
//! environment variables ([`FaultPlan::from_env`]) or the CLI's
//! `--fault-rate` option. Because the decision stream is keyed by the
//! attempt number, a retried attempt under the default
//! [`RetryPolicy`]`{ reseed: true }` rolls fresh decisions — transient
//! faults clear, and since the *experiment* seed is attempt-invariant
//! the retried aggregate is bit-identical to a fault-free run. With
//! `reseed: false` the same decisions replay every attempt, which is
//! the deterministic way to drive a shard out of its retry budget.

use std::sync::atomic::{AtomicU64, Ordering};

use pacman_telemetry::Registry;

pub use pacman_runner::{mix64, RetryPolicy};

/// Environment variable holding the fault-plan seed (u64, decimal).
pub const FAULT_SEED_ENV: &str = "PACMAN_FAULT_SEED";

/// Environment variable holding the fault rate (float in `[0, 1]`).
pub const FAULT_RATE_ENV: &str = "PACMAN_FAULT_RATE";

/// Rate used when only `PACMAN_FAULT_SEED` is set.
pub const DEFAULT_FAULT_RATE: f64 = 0.2;

/// Seed used when only a rate is given (`--fault-rate` without
/// `PACMAN_FAULT_SEED`): a fixed constant, so a bare `--fault-rate` run
/// is still reproducible.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17_5EED;

/// Extra cycles per timed access on a shard running under an injected
/// timing-noise spike — far above every latency plateau in the Figure 5
/// calibration, so a spiked attempt's measurements are unmistakably
/// corrupted (and the attempt is discarded and retried).
pub const SPIKE_CYCLES: u64 = 50_000;

/// Where a fault can be injected. Each site salts the decision stream
/// differently, so e.g. a shard-panic decision for shard 3 is
/// independent of the timing-spike decision for shard 3.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum FaultSite {
    /// Panic at the top of a shard attempt (exercises `catch_unwind`
    /// isolation and the retry loop).
    ShardPanic,
    /// Arm [`SPIKE_CYCLES`] of extra latency on the shard machine's
    /// timed loads (exercises the discard-and-retry path for corrupted
    /// measurements).
    TimingSpike,
    /// Fail a `BENCH_<id>.json` artifact write (exercises the bench
    /// harness's bounded write retry).
    ArtifactWrite,
}

impl FaultSite {
    fn tag(self) -> u64 {
        match self {
            FaultSite::ShardPanic => 0x5041_4e49_435f_5348,
            FaultSite::TimingSpike => 0x5350_494b_455f_5449,
            FaultSite::ArtifactWrite => 0x4152_5446_5f57_5254,
        }
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// `fires(site, index, attempt)` is a pure function of the plan's seed
/// and its arguments; the only mutable state is the count of injected
/// faults (atomic, so one plan can be shared across worker threads and
/// its count merged into telemetry afterwards).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    injected: AtomicU64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A clone makes the same decisions but counts only its own: its
/// injected count starts at 0, so a campaign running on a clone of its
/// caller's plan reports the faults it injected, not the caller's.
impl Clone for FaultPlan {
    fn clone(&self) -> Self {
        Self::new(self.seed, self.rate)
    }
}

impl FaultPlan {
    /// The inert plan: rate 0, never fires. This is the default
    /// everywhere — fault injection is strictly opt-in.
    #[must_use]
    pub fn disabled() -> Self {
        Self { seed: DEFAULT_FAULT_SEED, rate: 0.0, injected: AtomicU64::new(0) }
    }

    /// A plan firing at `rate` (clamped to `[0, 1]`) under `seed`.
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_finite() { rate.clamp(0.0, 1.0) } else { 0.0 };
        Self { seed, rate, injected: AtomicU64::new(0) }
    }

    /// Builds the plan from the process environment:
    /// `PACMAN_FAULT_SEED` (decimal u64) activates injection at
    /// `PACMAN_FAULT_RATE` (default [`DEFAULT_FAULT_RATE`]); a rate
    /// alone activates under [`DEFAULT_FAULT_SEED`]. Neither set — or
    /// unparsable values — yields the disabled plan.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`FaultPlan::from_env`] with an injected lookup, so tests can
    /// exercise the parsing without mutating process-global environment
    /// state.
    #[must_use]
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let seed = lookup(FAULT_SEED_ENV).and_then(|s| s.trim().parse::<u64>().ok());
        let rate = lookup(FAULT_RATE_ENV).and_then(|s| s.trim().parse::<f64>().ok());
        match (seed, rate) {
            (None, None) => Self::disabled(),
            (seed, rate) => {
                Self::new(seed.unwrap_or(DEFAULT_FAULT_SEED), rate.unwrap_or(DEFAULT_FAULT_RATE))
            }
        }
    }

    /// The same plan with its rate replaced (the `--fault-rate` CLI
    /// override; rate 0 disables injection entirely).
    #[must_use]
    pub fn with_rate(&self, rate: f64) -> Self {
        Self::new(self.seed, rate)
    }

    /// Whether this plan can fire at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// The plan's firing probability per decision.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the fault at `(site, index, attempt)` fires — a pure
    /// function of the seed and arguments. Every firing bumps the
    /// injected-fault counter.
    pub fn fires(&self, site: FaultSite, index: u64, attempt: u32) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        let h = mix64(mix64(self.seed ^ site.tag(), index), u64::from(attempt));
        // Map the top 53 bits onto [0, 1) — the standard double trick.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let fire = unit < self.rate;
        if fire {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// This plan's decisions for one campaign: the same rate, the seed
    /// mixed with the campaign's `key` (its plan seed), and an injected
    /// count of its own from 0.
    #[must_use]
    pub(crate) fn for_campaign(&self, key: u64) -> Self {
        Self::new(mix64(self.seed, key), self.rate)
    }

    /// Panics iff the shard-panic fault fires for `(shard, attempt)` —
    /// drivers call this at the top of each shard attempt.
    pub fn maybe_panic(&self, shard: usize, attempt: u32) {
        if self.fires(FaultSite::ShardPanic, shard as u64, attempt) {
            panic!("injected fault: shard {shard} panic (attempt {attempt})");
        }
    }

    /// Faults injected so far by decisions made on *this* instance,
    /// across all sites (a clone starts from 0).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// The pair every parallel driver threads through: how often to retry a
/// failing shard, and which faults (if any) to inject.
#[derive(Clone, Debug, Default)]
pub struct Tolerance {
    /// Bounded per-shard retry budget.
    pub retry: RetryPolicy,
    /// Deterministic fault injection (disabled by default).
    pub faults: FaultPlan,
}

impl Tolerance {
    /// Default retries, faults from the environment (see
    /// [`FaultPlan::from_env`]).
    #[must_use]
    pub fn from_env() -> Self {
        Self { retry: RetryPolicy::default(), faults: FaultPlan::from_env() }
    }

    /// Records the execution-layer counters every JSONL metrics export
    /// carries: retries spent, permanent shard failures (always 0 on the
    /// success path — a permanent failure aborts the experiment) and the
    /// faults this plan injected.
    pub(crate) fn record_runner_counters(&self, reg: &mut Registry, retries: u64) {
        reg.incr_by("runner.retries", retries);
        reg.incr_by("runner.shard_failures", 0);
        reg.incr_by("runner.faults_injected", self.faults.injected());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_active());
        for i in 0..1000 {
            assert!(!plan.fires(FaultSite::ShardPanic, i, 0));
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn decisions_are_pure_and_site_salted() {
        let a = FaultPlan::new(42, 0.5);
        let b = FaultPlan::new(42, 0.5);
        for i in 0..256 {
            assert_eq!(
                a.fires(FaultSite::ShardPanic, i, 0),
                b.fires(FaultSite::ShardPanic, i, 0),
                "same seed, same decision"
            );
        }
        assert_eq!(a.injected(), b.injected(), "identical plans count identically");
        let c = FaultPlan::new(42, 0.5);
        let per_site_differ = (0..256)
            .any(|i| c.fires(FaultSite::ShardPanic, i, 1) != c.fires(FaultSite::TimingSpike, i, 1));
        assert!(per_site_differ, "sites must have independent streams");
    }

    #[test]
    fn rate_bounds_the_empirical_frequency() {
        let plan = FaultPlan::new(7, 0.2);
        let fired = (0..10_000).filter(|&i| plan.fires(FaultSite::ShardPanic, i, 0)).count();
        // 10k decisions at rate 0.2: a loose window around 2000.
        assert!((1500..2500).contains(&fired), "fired {fired} of 10000");
        assert_eq!(plan.injected() as usize, fired);
        let never = FaultPlan::new(7, 0.0);
        assert!(!(0..1000).any(|i| never.fires(FaultSite::ShardPanic, i, 0)));
        let always = FaultPlan::new(7, 1.0);
        assert!((0..1000).all(|i| always.fires(FaultSite::ShardPanic, i, 0)));
    }

    #[test]
    fn from_lookup_parses_the_environment_shapes() {
        let none = FaultPlan::from_lookup(|_| None);
        assert!(!none.is_active());

        let seed_only =
            FaultPlan::from_lookup(|k| (k == FAULT_SEED_ENV).then(|| "1337".to_string()));
        assert!(seed_only.is_active());
        assert_eq!(seed_only.seed(), 1337);
        assert!((seed_only.rate() - DEFAULT_FAULT_RATE).abs() < 1e-12);

        let rate_only =
            FaultPlan::from_lookup(|k| (k == FAULT_RATE_ENV).then(|| "0.35".to_string()));
        assert!(rate_only.is_active());
        assert_eq!(rate_only.seed(), DEFAULT_FAULT_SEED);
        assert!((rate_only.rate() - 0.35).abs() < 1e-12);

        let garbage =
            FaultPlan::from_lookup(|k| (k == FAULT_SEED_ENV).then(|| "banana".to_string()));
        assert!(!garbage.is_active(), "unparsable seed must stay disabled");

        let clamped = FaultPlan::from_lookup(|k| match k {
            FAULT_SEED_ENV => Some("9".into()),
            FAULT_RATE_ENV => Some("7.5".into()),
            _ => None,
        });
        assert!((clamped.rate() - 1.0).abs() < 1e-12, "rates clamp to [0, 1]");
    }

    #[test]
    fn a_clone_decides_alike_and_counts_from_zero() {
        let plan = FaultPlan::new(42, 1.0);
        assert!(plan.fires(FaultSite::ShardPanic, 0, 0));
        let copy = plan.clone();
        assert_eq!(copy.injected(), 0, "a clone does not inherit its original's count");
        assert_eq!((copy.seed(), copy.rate()), (plan.seed(), plan.rate()));
        assert!(copy.fires(FaultSite::ShardPanic, 0, 0));
        assert_eq!((plan.injected(), copy.injected()), (1, 1));
    }

    #[test]
    fn with_rate_overrides_and_zero_disables() {
        let plan = FaultPlan::new(5, 0.9).with_rate(0.0);
        assert!(!plan.is_active());
        let re = plan.with_rate(0.4);
        assert!(re.is_active());
        assert_eq!(re.seed(), 5, "seed survives the rate override");
    }

    #[test]
    fn maybe_panic_panics_exactly_when_the_site_fires() {
        let plan = FaultPlan::new(3, 0.5);
        for shard in 0..64usize {
            let fires = FaultPlan::new(3, 0.5).fires(FaultSite::ShardPanic, shard as u64, 0);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.maybe_panic(shard, 0);
            }));
            assert_eq!(result.is_err(), fires, "shard {shard}");
        }
    }
}
