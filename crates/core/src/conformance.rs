//! Sharded differential-conformance driver: seeded fuzz parity between
//! the architectural reference machine and the speculative core.
//!
//! The `pacman-ref` crate supplies the oracle ([`ScenarioArena`]) and the
//! generator ([`pacman_ref::generate`]); this module turns them into a
//! workspace experiment on the one shard harness of [`crate::parallel`]:
//! the program space is cut into [`DEFAULT_SHARDS`] contiguous shards as
//! a pure function of the program count and the base seed, each shard
//! runs its programs independently under the caller's [`Tolerance`]
//! (injected shard panics retry within the budget; no machine is
//! leased, so no timing spike is rolled), and divergences merge **in
//! shard order**. For a fixed base seed the
//! report — including the divergence list — is identical at `jobs = 1`
//! and `jobs = N`, and identical to the fault-free run when injected
//! faults forced retries.
//!
//! Any diverging program is shrunk with [`pacman_ref::minimize`] before
//! it is reported, so the JSONL repro dump carries minimal programs.

use pacman_ref::{generate, minimize, quiet_config, scenario_seed, Divergence, ScenarioArena};
use pacman_runner::{shard_plan, DEFAULT_SHARDS};
use pacman_telemetry::Registry;
use pacman_uarch::MachineConfig;

use crate::fault::Tolerance;
use crate::parallel::{fold_campaign, Absorb, Attempt, ExperimentError};

/// Workload for one conformance run.
#[derive(Clone, Debug)]
pub struct ConformConfig {
    /// Generated programs to execute differentially.
    pub programs: usize,
    /// Base seed: program `i` runs scenario seed `mix(seed, i)`, so the
    /// scenario stream is a pure function of this value (never of the
    /// shard or job count).
    pub seed: u64,
    /// Retire-boundary budget per program (generated programs halt long
    /// before this; the budget only bounds accidental live-lock).
    pub max_steps: u64,
    /// The speculative-core configuration under test.
    pub machine: MachineConfig,
    /// Shrink each diverging program to a minimal reproducer before
    /// reporting it (costs many extra differential runs per divergence;
    /// turn off when only the divergence count matters).
    pub minimize: bool,
}

impl Default for ConformConfig {
    fn default() -> Self {
        Self { programs: 500, seed: 7, max_steps: 512, machine: quiet_config(), minimize: true }
    }
}

/// Merged result of a conformance run.
#[derive(Clone, Debug)]
pub struct ConformReport {
    /// Programs executed differentially.
    pub programs: u64,
    /// Every divergence found, minimized, in global program order.
    pub divergences: Vec<Divergence>,
    /// Retries the execution layer spent absorbing injected faults.
    pub retries: u64,
    /// `conform.*` + `runner.*` counters for the JSONL metrics export.
    pub telemetry: Registry,
}

impl ConformReport {
    /// Whether the speculative core conformed on every program.
    #[must_use]
    pub fn conforms(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Runs `cfg.programs` generated programs on both machines across
/// `jobs` workers (the CLI `conform` command and the `conform` bench).
///
/// # Errors
///
/// [`ExperimentError::Shards`] with a partial-result report when a
/// shard exhausts its retry budget; [`ExperimentError::Runner`] for
/// engine failures. A divergence is a *finding*, not an error — it
/// comes back in [`ConformReport::divergences`].
pub fn run_conformance(
    cfg: &ConformConfig,
    jobs: usize,
    tol: &Tolerance,
) -> Result<ConformReport, ExperimentError> {
    let plan = shard_plan(cfg.programs, DEFAULT_SHARDS, cfg.seed);
    let init = ConformReport {
        programs: cfg.programs as u64,
        divergences: Vec::new(),
        retries: 0,
        telemetry: Registry::new(),
    };
    let cfg = cfg.clone();
    let work = move |at: &Attempt<'_>| -> Result<Vec<Divergence>, ExperimentError> {
        // One lockstep pair per shard, reset between scenarios:
        // frames, page tables and the block-cache arena are recycled
        // instead of reallocated for each of the shard's programs.
        let mut arena = ScenarioArena::new(&cfg.machine);
        let mut divergences = Vec::new();
        for i in at.shard.range() {
            let scenario = generate(scenario_seed(cfg.seed, i as u64));
            if let Some(found) = arena.run(&scenario, cfg.max_steps) {
                if cfg.minimize {
                    let (_, witness) = minimize(&scenario, &cfg.machine, cfg.max_steps);
                    divergences.push(witness);
                } else {
                    divergences.push(found);
                }
            }
        }
        Ok(divergences)
    };
    let mut report = fold_campaign(plan, jobs, tol, work, init, &mut |_| {})?;
    report.retries = report.telemetry.counter_value("runner.retries");
    report.telemetry.incr_by("conform.programs", report.programs);
    report.telemetry.incr_by("conform.divergences", report.divergences.len() as u64);
    Ok(report)
}

impl Absorb for ConformReport {
    type Shard = Vec<Divergence>;

    fn absorb(&mut self, shard: Vec<Divergence>) {
        self.divergences.extend(shard);
    }

    fn telemetry(&mut self) -> &mut Registry {
        &mut self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, RetryPolicy};

    #[test]
    fn healthy_core_conforms_and_is_jobs_invariant() {
        let cfg = ConformConfig { programs: 24, ..ConformConfig::default() };
        let serial = run_conformance(&cfg, 1, &Tolerance::default()).expect("jobs=1");
        let parallel = run_conformance(&cfg, 4, &Tolerance::default()).expect("jobs=4");
        assert!(serial.conforms(), "healthy core must conform");
        assert_eq!(serial.divergences.len(), parallel.divergences.len());
        assert_eq!(serial.telemetry.snapshot(), parallel.telemetry.snapshot());
        assert_eq!(serial.telemetry.counter_value("conform.programs"), 24);
    }

    #[test]
    fn broken_core_divergences_merge_in_program_order() {
        // Minimization is covered by pacman-ref's own tests; skip it here
        // so the parity check only pays for the differential runs.
        let mut cfg = ConformConfig { programs: 48, minimize: false, ..ConformConfig::default() };
        cfg.machine.bugs.leak_squashed_registers = true;
        let report = run_conformance(&cfg, 4, &Tolerance::default()).expect("run");
        assert!(!report.conforms(), "the sabotaged core must diverge somewhere in 48 programs");
        let seeds: Vec<u64> = report.divergences.iter().map(|d| d.seed).collect();
        let serial = run_conformance(&cfg, 1, &Tolerance::default()).expect("serial");
        let serial_seeds: Vec<u64> = serial.divergences.iter().map(|d| d.seed).collect();
        assert_eq!(seeds, serial_seeds, "divergence order is jobs-invariant");
        assert_eq!(
            report.telemetry.counter_value("conform.divergences"),
            report.divergences.len() as u64
        );
    }

    #[test]
    fn injected_faults_within_budget_leave_the_report_identical() {
        let cfg = ConformConfig { programs: 16, ..ConformConfig::default() };
        let baseline = run_conformance(&cfg, 2, &Tolerance::default()).expect("fault-free");
        let tol = Tolerance { retry: RetryPolicy::default(), faults: FaultPlan::new(3, 0.3) };
        let faulted = run_conformance(&cfg, 4, &tol).expect("faults within budget");
        assert_eq!(baseline.divergences.len(), faulted.divergences.len());
        assert_eq!(
            baseline.telemetry.counter_value("conform.programs"),
            faulted.telemetry.counter_value("conform.programs")
        );
    }
}
