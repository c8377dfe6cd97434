//! PAC brute forcing (paper §8.2).
//!
//! With the oracle in hand, the attacker sweeps PAC candidates until one
//! classifies as correct. The paper's evaluation protocol is reproduced:
//! 5 samples per guess, median-rule classification, and three possible
//! outcomes per run — true positive (correct PAC found), false positive
//! (wrong PAC reported — intolerable, it would crash the final exploit)
//! and false negative (nothing found — tolerable, just retry).

use pacman_isa::PacKey;

use crate::oracle::{OracleError, PacOracle};
use crate::system::System;

/// Outcome of one brute-force run.
#[derive(Clone, Default, Eq, PartialEq, Debug)]
pub struct BruteOutcome {
    /// The PAC the oracle reported, if any.
    pub found: Option<u16>,
    /// Number of PAC candidates tested.
    pub guesses_tested: u64,
    /// Syscalls issued (training + triggers + pads).
    pub syscalls: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Kernel crashes caused (must be zero for PACMAN).
    pub crashes: u64,
}

impl BruteOutcome {
    /// Mean simulated milliseconds per tested guess at `clock_hz`.
    pub fn ms_per_guess(&self, clock_hz: u64) -> f64 {
        if self.guesses_tested == 0 {
            return 0.0;
        }
        (self.cycles as f64 / clock_hz as f64) * 1e3 / self.guesses_tested as f64
    }

    /// Extrapolated simulated minutes to sweep the full 16-bit space at
    /// the measured per-guess cost (the paper's ~2.94-minute figure).
    pub fn minutes_for_full_space(&self, clock_hz: u64) -> f64 {
        self.ms_per_guess(clock_hz) * 65536.0 / 1000.0 / 60.0
    }
}

/// Classification of a brute-force run against ground truth (the §8.2
/// accuracy protocol).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum BruteVerdict {
    /// The correct PAC was found.
    TruePositive,
    /// A wrong PAC was reported (would crash the exploit — intolerable).
    FalsePositive,
    /// No PAC was found (tolerable: the attacker simply retries).
    FalseNegative,
}

/// Drives an oracle across a PAC candidate range.
#[derive(Debug)]
pub struct BruteForcer<O> {
    oracle: O,
    /// `Some(iters)` enables the warm sweep: full training on the first
    /// guess of each sweep, `iters` re-training syscalls per guess after.
    warm_retrain_iters: Option<usize>,
}

/// Re-training syscalls per warm-sweep guess. The trigger's single
/// wrong-path execution decays the gadget's 2-bit counter by one step at
/// most, so even one taken syscall restores saturation; four gives slack
/// for multi-sample trials.
pub const WARM_RETRAIN_ITERS: usize = 4;

impl<O: PacOracle> BruteForcer<O> {
    /// Wraps an oracle (configure its sample count first; §8.2 uses 5).
    pub fn new(oracle: O) -> Self {
        Self { oracle, warm_retrain_iters: None }
    }

    /// Enables the warm sweep: the paper's protocol re-trains the
    /// gadget's branch from scratch for every guess, but the predictor
    /// state survives between guesses — a sweep only needs full training
    /// once, then `iters` syscalls per guess to re-saturate the counter.
    /// Classification quality is unchanged (the trigger still runs
    /// predicted-taken with `cond = 0`); per-guess simulated cost drops
    /// roughly `TRAIN_ITERS / iters`, so this mode must not feed the
    /// paper-faithful §8.2 timing claims — it exists for throughput
    /// (sweeping many candidates per host second).
    pub fn with_warm_sweep(mut self, iters: usize) -> Self {
        assert!(iters >= 1, "the trigger decays the counter; retraining cannot be skipped");
        self.warm_retrain_iters = Some(iters);
        self
    }

    /// Gives back the oracle.
    pub fn into_inner(self) -> O {
        self.oracle
    }

    /// Sweeps `candidates` for the PAC of `target`, stopping at the
    /// first hit.
    ///
    /// # Errors
    ///
    /// Propagates [`OracleError`]s. A kernel panic inside a trial is an
    /// oracle failure, not part of normal operation.
    pub fn brute(
        &mut self,
        sys: &mut System,
        target: u64,
        candidates: impl IntoIterator<Item = u16>,
    ) -> Result<BruteOutcome, OracleError> {
        // Every guess authenticates the same canonical pointer — only the
        // embedded PAC field differs — so the machine's AUT needs exactly
        // one QARMA evaluation for the whole sweep. Warm it through the
        // bitsliced path (Ia + zero modifier is what the gadget kext
        // verifies) so even the first trial's speculative AUT hits the
        // PAC memo instead of paying a scalar cipher pass mid-trial.
        Self::warm_targets(sys, &[target]);
        let syscalls0 = sys.machine.stats.syscalls;
        let cycles0 = sys.machine.cycles;
        let crashes0 = sys.kernel.crash_count();
        let cold_iters = self.oracle.train_iters();
        let mut tested = 0u64;
        let mut found = None;
        for pac in candidates {
            if let Some(warm) = self.warm_retrain_iters {
                // First guess trains cold; later guesses only re-saturate.
                self.oracle.set_train_iters(if tested == 0 { cold_iters } else { warm });
            }
            tested += 1;
            match self.oracle.test_pac(sys, target, pac) {
                Ok(v) if v.is_correct() => {
                    found = Some(pac);
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    if self.warm_retrain_iters.is_some() {
                        self.oracle.set_train_iters(cold_iters);
                    }
                    return Err(e);
                }
            }
        }
        if self.warm_retrain_iters.is_some() {
            self.oracle.set_train_iters(cold_iters);
        }
        sys.telemetry.incr("brute.sweeps");
        sys.telemetry.incr_by("brute.guesses_tested", tested);
        if found.is_some() {
            sys.telemetry.incr("brute.hits");
        }
        Ok(BruteOutcome {
            found,
            guesses_tested: tested,
            syscalls: sys.machine.stats.syscalls - syscalls0,
            cycles: sys.machine.cycles - cycles0,
            crashes: sys.kernel.crash_count() - crashes0,
        })
    }

    /// Pre-computes the expected PACs of `targets` under the kernel IA
    /// key (zero modifier — the gadget kext's verification) into the
    /// machine's PAC memo, 64 pointers per bitsliced cipher pass.
    /// Call before sweeping many distinct targets (e.g. one brute-force
    /// run per victim function) to amortise the QARMA cost ~64×.
    pub fn warm_targets(sys: &mut System, targets: &[u64]) {
        sys.machine.warm_pac_memo(PacKey::Ia, targets, 0);
    }

    /// Classifies a finished run against the ground-truth PAC.
    pub fn classify(outcome: &BruteOutcome, true_pac: u16) -> BruteVerdict {
        match outcome.found {
            Some(p) if p == true_pac => BruteVerdict::TruePositive,
            Some(_) => BruteVerdict::FalsePositive,
            None => BruteVerdict::FalseNegative,
        }
    }

    /// The §8.2 retry protocol: "our attack can easily tolerate false
    /// negatives, because when no PAC is found, the attacker can simply
    /// repeat the brute-force process until the correct PAC is found."
    /// Re-sweeps `candidates` up to `max_retries + 1` times, accumulating
    /// costs, until an oracle hit.
    ///
    /// # Errors
    ///
    /// Propagates [`OracleError`]s from the trials.
    pub fn brute_until_found(
        &mut self,
        sys: &mut System,
        target: u64,
        candidates: &[u16],
        max_retries: usize,
    ) -> Result<BruteOutcome, OracleError> {
        let mut total =
            BruteOutcome { found: None, guesses_tested: 0, syscalls: 0, cycles: 0, crashes: 0 };
        for _attempt in 0..=max_retries {
            let outcome = self.brute(sys, target, candidates.iter().copied())?;
            total.guesses_tested += outcome.guesses_tested;
            total.syscalls += outcome.syscalls;
            total.cycles += outcome.cycles;
            total.crashes += outcome.crashes;
            if outcome.found.is_some() {
                total.found = outcome.found;
                break;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DataPacOracle;
    use crate::system::SystemConfig;

    fn quiet_system() -> System {
        let mut cfg = SystemConfig::default();
        cfg.machine.os_noise = 0.0;
        System::boot(cfg)
    }

    #[test]
    fn brute_force_finds_the_pac_in_a_window() {
        let mut sys = quiet_system();
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let oracle = DataPacOracle::new(&mut sys).unwrap();
        let mut bf = BruteForcer::new(oracle);
        // Sweep a 16-candidate window around the true PAC.
        let lo = true_pac.saturating_sub(8);
        let outcome = bf.brute(&mut sys, target, lo..=lo.saturating_add(16)).unwrap();
        assert_eq!(outcome.found, Some(true_pac));
        assert_eq!(
            BruteForcer::<DataPacOracle>::classify(&outcome, true_pac),
            BruteVerdict::TruePositive
        );
        assert_eq!(outcome.crashes, 0, "PACMAN brute force must not crash the kernel");
        assert!(outcome.syscalls > 0 && outcome.cycles > 0);
    }

    #[test]
    fn warm_sweep_matches_the_cold_sweep_verdict_with_fewer_syscalls() {
        let mut sys = quiet_system();
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let window: Vec<u16> = (0..24u16).map(|i| true_pac ^ (0x2000 + i)).collect();

        let oracle = DataPacOracle::new(&mut sys).unwrap();
        let mut cold = BruteForcer::new(oracle);
        let cold_out = cold.brute(&mut sys, target, window.iter().copied()).unwrap();

        let oracle = DataPacOracle::new(&mut sys).unwrap();
        let mut warm = BruteForcer::new(oracle).with_warm_sweep(WARM_RETRAIN_ITERS);
        let warm_out = warm.brute(&mut sys, target, window.iter().copied()).unwrap();

        // Same verdict on a miss window, and the warm sweep still finds
        // the true PAC when it is present.
        assert_eq!(cold_out.found, None);
        assert_eq!(warm_out.found, None);
        assert!(
            warm_out.syscalls * 4 < cold_out.syscalls,
            "warm sweep must retire far fewer training syscalls ({} vs {})",
            warm_out.syscalls,
            cold_out.syscalls
        );
        assert_eq!(warm_out.crashes, 0);

        let lo = true_pac.saturating_sub(4);
        let hit = warm.brute(&mut sys, target, lo..=lo.saturating_add(8)).unwrap();
        assert_eq!(hit.found, Some(true_pac), "warm sweep classification is unchanged");
    }

    #[test]
    fn absent_pac_is_a_false_negative_not_a_crash() {
        let mut sys = quiet_system();
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let oracle = DataPacOracle::new(&mut sys).unwrap();
        let mut bf = BruteForcer::new(oracle);
        // Sweep a window that excludes the true PAC.
        let window: Vec<u16> = (0..32u16).map(|i| true_pac ^ (0x100 + i)).collect();
        let outcome = bf.brute(&mut sys, target, window).unwrap();
        assert_eq!(outcome.found, None);
        assert_eq!(
            BruteForcer::<DataPacOracle>::classify(&outcome, true_pac),
            BruteVerdict::FalseNegative
        );
        assert_eq!(outcome.guesses_tested, 32);
        assert_eq!(outcome.crashes, 0);
    }

    #[test]
    fn retry_protocol_accumulates_costs_and_finds_the_pac() {
        let mut sys = quiet_system();
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let oracle = DataPacOracle::new(&mut sys).unwrap();
        let mut bf = BruteForcer::new(oracle);
        let candidates: Vec<u16> =
            (0..8u16).map(|i| true_pac.wrapping_sub(3).wrapping_add(i)).collect();
        let outcome = bf.brute_until_found(&mut sys, target, &candidates, 3).unwrap();
        assert_eq!(outcome.found, Some(true_pac));
        assert_eq!(outcome.crashes, 0);
        assert!(outcome.guesses_tested >= 4);
    }

    #[test]
    fn retry_protocol_gives_up_after_the_budget() {
        let mut sys = quiet_system();
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let oracle = DataPacOracle::new(&mut sys).unwrap();
        let mut bf = BruteForcer::new(oracle);
        // Candidates that never include the true PAC.
        let candidates: Vec<u16> = (0..4u16).map(|i| true_pac ^ (0x1000 + i)).collect();
        let outcome = bf.brute_until_found(&mut sys, target, &candidates, 2).unwrap();
        assert_eq!(outcome.found, None);
        assert_eq!(outcome.guesses_tested, 3 * 4, "three full sweeps");
        assert_eq!(outcome.crashes, 0);
    }

    #[test]
    fn cost_accounting_extrapolates() {
        let o = BruteOutcome {
            found: None,
            guesses_tested: 100,
            syscalls: 0,
            cycles: 320_000_000,
            crashes: 0,
        };
        // 320M cycles at 3.2 GHz = 100 ms → 1 ms/guess → 65.536 s full space.
        assert!((o.ms_per_guess(3_200_000_000) - 1.0).abs() < 1e-9);
        assert!((o.minutes_for_full_space(3_200_000_000) - 65.536 / 60.0).abs() < 1e-6);
    }
}
