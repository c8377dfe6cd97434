//! Determinism contract of the parallel execution layer: for a fixed
//! base seed, every parallel driver produces **identical aggregates** at
//! `jobs = 1` and `jobs = 4`. The shard plan is a pure function of the
//! workload and the base seed — the job count only controls how many
//! shards run at once — so results must not depend on parallelism.
//!
//! The property tests at the bottom extend the contract to fault
//! tolerance: for every driver (oracle, brute, accuracy, sweep,
//! census, Jump2Win), any injected fault pattern that stays within the retry
//! budget must leave the merged aggregate bit-identical to the
//! fault-free serial run.

use pacman_core::fault::{FaultPlan, RetryPolicy, Tolerance};
use pacman_core::parallel::{
    oracle_distribution, parallel_accuracy, parallel_brute, parallel_census, parallel_jump2win,
    parallel_sweep, Channel, ExperimentError, SweepKind,
};
use pacman_core::{System, SystemConfig};
use pacman_telemetry::Snapshot;

fn quiet_config() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;
    cfg
}

fn noisy_config() -> SystemConfig {
    // Default config has OS noise on: the harder determinism case,
    // because every shard runs its own noise RNG stream.
    SystemConfig::default()
}

fn no_faults() -> Tolerance {
    Tolerance::default()
}

/// Drops the `runner.*` execution-layer counters from a snapshot: they
/// legitimately differ between a faulted and a fault-free run (retries,
/// injected-fault counts) while every experiment series must not.
fn experiment_only(snap: &Snapshot) -> Snapshot {
    let mut out = snap.clone();
    out.retain_counters(|name| !name.starts_with("runner."));
    out
}

#[test]
fn oracle_distribution_is_jobs_invariant() {
    for cfg in [quiet_config(), noisy_config()] {
        let wrong = |i: usize, tp: u16| tp ^ (1 + i as u16);
        let serial = oracle_distribution(&cfg, Channel::Data, 3, 10, 1, true, &no_faults(), wrong)
            .expect("jobs=1");
        let parallel =
            oracle_distribution(&cfg, Channel::Data, 3, 10, 4, true, &no_faults(), wrong)
                .expect("jobs=4");
        assert_eq!(serial.correct_detected, parallel.correct_detected);
        assert_eq!(serial.incorrect_clean, parallel.incorrect_clean);
        assert_eq!(serial.correct_misses, parallel.correct_misses);
        assert_eq!(serial.incorrect_misses, parallel.incorrect_misses);
        assert_eq!(serial.crashes, parallel.crashes);
        assert_eq!(serial.target, parallel.target);
        assert_eq!(serial.true_pac, parallel.true_pac);
        assert_eq!(serial.records.len(), parallel.records.len());
        for (s, p) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(s.index, p.index);
            assert_eq!(s.guess, p.guess);
            assert_eq!(s.misses, p.misses, "trial {} miss vector differs", s.index);
        }
        assert_eq!(
            serial.telemetry.snapshot(),
            parallel.telemetry.snapshot(),
            "merged telemetry must be jobs-invariant"
        );
    }
}

#[test]
fn oracle_distribution_is_jobs_invariant_on_other_channels() {
    let cfg = quiet_config();
    for channel in [Channel::Instr, Channel::Cache] {
        let wrong = |i: usize, tp: u16| tp ^ (1 + i as u16);
        let serial =
            oracle_distribution(&cfg, channel, 1, 6, 1, true, &no_faults(), wrong).expect("jobs=1");
        let parallel =
            oracle_distribution(&cfg, channel, 1, 6, 4, true, &no_faults(), wrong).expect("jobs=4");
        assert_eq!(serial.correct_detected, parallel.correct_detected);
        assert_eq!(serial.incorrect_clean, parallel.incorrect_clean);
        assert_eq!(serial.correct_misses, parallel.correct_misses);
        assert_eq!(serial.incorrect_misses, parallel.incorrect_misses);
        assert_eq!(serial.telemetry.snapshot(), parallel.telemetry.snapshot());
    }
}

#[test]
fn parallel_brute_is_jobs_invariant() {
    let cfg = noisy_config();
    let mut probe = System::boot(cfg.clone());
    let set = probe.pick_quiet_dtlb_set();
    let target = probe.alloc_target(set);
    let true_pac = probe.true_pac(target);
    let candidates: Vec<u16> =
        (0..32u16).map(|i| true_pac.wrapping_sub(13).wrapping_add(i)).collect();
    let serial =
        parallel_brute(&cfg, Channel::Data, 3, &candidates, 1, true, &no_faults()).expect("jobs=1");
    let parallel =
        parallel_brute(&cfg, Channel::Data, 3, &candidates, 4, true, &no_faults()).expect("jobs=4");
    assert_eq!(serial.outcome.found, parallel.outcome.found);
    assert_eq!(serial.outcome.found, Some(true_pac));
    assert_eq!(serial.outcome.guesses_tested, parallel.outcome.guesses_tested);
    assert_eq!(serial.outcome.syscalls, parallel.outcome.syscalls);
    assert_eq!(serial.outcome.cycles, parallel.outcome.cycles);
    assert_eq!(serial.outcome.crashes, parallel.outcome.crashes);
    assert_eq!(serial.telemetry.snapshot(), parallel.telemetry.snapshot());
}

#[test]
fn parallel_accuracy_is_jobs_invariant() {
    let cfg = noisy_config();
    let window = |run: usize, tp: u16| -> Vec<u16> {
        let start = tp.wrapping_sub(3).wrapping_add((run % 3) as u16);
        (0..8u16).map(|i| start.wrapping_add(i)).collect()
    };
    let serial =
        parallel_accuracy(&cfg, Channel::Data, 3, 8, 1, &no_faults(), window).expect("jobs=1");
    let parallel =
        parallel_accuracy(&cfg, Channel::Data, 3, 8, 4, &no_faults(), window).expect("jobs=4");
    assert_eq!(serial.true_positives, parallel.true_positives);
    assert_eq!(serial.false_positives, parallel.false_positives);
    assert_eq!(serial.false_negatives, parallel.false_negatives);
    assert_eq!(serial.crashes, parallel.crashes);
    assert_eq!(serial.telemetry.snapshot(), parallel.telemetry.snapshot());
}

#[test]
fn parallel_sweep_is_jobs_invariant() {
    for kind in [SweepKind::DataTlb, SweepKind::CacheTlb, SweepKind::Itlb] {
        let strides: &[u64] = match kind {
            SweepKind::DataTlb => &[256, 2048],
            SweepKind::CacheTlb => &[256 * 128, 2048 * 16384],
            SweepKind::Itlb => &[32],
        };
        let (serial, sreg) = parallel_sweep(kind, strides, 1, &no_faults()).expect("jobs=1");
        let (parallel, preg) = parallel_sweep(kind, strides, 4, &no_faults()).expect("jobs=4");
        assert_eq!(serial, parallel, "{kind:?} series differ across job counts");
        assert_eq!(sreg.snapshot(), preg.snapshot());
    }
}

#[test]
fn parallel_jump2win_is_jobs_invariant() {
    let cfg = noisy_config();
    let probe = System::boot(cfg.clone());
    let true_win = probe.true_pac_with_salt(pacman_isa::PacKey::Ia, probe.cpp.win_fn);
    let true_vt = probe.true_pac_with_salt(pacman_isa::PacKey::Da, probe.cpp.obj1);
    let windows = [(true_win.wrapping_sub(2), 6), (true_vt.wrapping_sub(2), 6)];
    let (serial, sreg) = parallel_jump2win(&cfg, windows, 1, true, &no_faults()).expect("jobs=1");
    let (parallel, preg) = parallel_jump2win(&cfg, windows, 4, true, &no_faults()).expect("jobs=4");
    assert!(serial.hijacked && parallel.hijacked);
    assert_eq!(serial, parallel, "full report must be jobs-invariant");
    assert_eq!(serial.pac_win, true_win);
    assert_eq!(serial.pac_vtable, true_vt);
    assert_eq!(sreg.snapshot(), preg.snapshot());
}

mod fault_tolerance_properties {
    use super::*;
    use pacman_gadget::{ImageSpec, ScanConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The gadget census is a pure function of the image spec: for
        /// any synthetic image and any scan configuration, the sharded
        /// census at jobs=4 reproduces the serial report exactly —
        /// gadget list, branch and instruction counts included.
        #[test]
        fn census_parity_holds_for_any_image(
            functions in 50usize..300,
            seed in any::<u64>(),
            pa_percent in 0u8..=100,
            track_stack in any::<bool>(),
        ) {
            let spec = ImageSpec { functions, seed, pa_percent, ..ImageSpec::default() };
            let cfg = ScanConfig { track_stack, ..ScanConfig::default() };
            let (serial, _) = parallel_census(&spec, &cfg, 1, &no_faults()).expect("jobs=1");
            let (sharded, _) = parallel_census(&spec, &cfg, 4, &no_faults()).expect("jobs=4");
            prop_assert_eq!(serial, sharded);
        }

        /// The census under injected shard panics: any fault pattern
        /// that stays within the retry budget leaves the merged report
        /// bit-identical to the fault-free serial census; an exhausted
        /// budget must surface as the typed partial failure.
        #[test]
        fn faulted_census_matches_fault_free_serial(
            seed in 0u64..(1u64 << 48),
            rate_milli in 50u64..350,
        ) {
            let spec = ImageSpec { functions: 120, seed: 0xC0DE, ..ImageSpec::default() };
            let cfg = ScanConfig::default();
            let (baseline, _) =
                parallel_census(&spec, &cfg, 1, &no_faults()).expect("fault-free serial run");
            let tol = Tolerance {
                retry: RetryPolicy::default(),
                faults: FaultPlan::new(seed, rate_milli as f64 / 1000.0),
            };
            match parallel_census(&spec, &cfg, 4, &tol) {
                Ok((faulted, _)) => prop_assert_eq!(baseline, faulted),
                Err(ExperimentError::Shards(partial)) => {
                    prop_assert!(partial.completed < partial.total);
                    prop_assert!(!partial.failures.is_empty());
                }
                Err(other) => return Err(TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                ))),
            }
        }

        /// Jump2Win under injected faults: any fault pattern that stays
        /// within the retry budget leaves the full report (recovered
        /// PACs, summed costs, hijack verdict) bit-identical to the
        /// fault-free serial run; an exhausted budget must surface as
        /// the typed partial failure.
        #[test]
        fn faulted_jump2win_matches_fault_free_serial(
            seed in 0u64..(1u64 << 48),
            rate_milli in 50u64..350,
        ) {
            let cfg = quiet_config();
            let probe = System::boot(cfg.clone());
            let true_win = probe.true_pac_with_salt(pacman_isa::PacKey::Ia, probe.cpp.win_fn);
            let true_vt = probe.true_pac_with_salt(pacman_isa::PacKey::Da, probe.cpp.obj1);
            let windows = [(true_win.wrapping_sub(1), 4), (true_vt.wrapping_sub(1), 4)];
            let (baseline, _) = parallel_jump2win(&cfg, windows, 1, false, &no_faults())
                .expect("fault-free serial run");
            let tol = Tolerance {
                retry: RetryPolicy::default(),
                faults: FaultPlan::new(seed, rate_milli as f64 / 1000.0),
            };
            match parallel_jump2win(&cfg, windows, 4, false, &tol) {
                Ok((faulted, _)) => prop_assert_eq!(baseline, faulted),
                Err(ExperimentError::Shards(partial)) => {
                    prop_assert!(partial.completed < partial.total);
                    prop_assert!(!partial.failures.is_empty());
                }
                Err(other) => return Err(TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                ))),
            }
        }

        /// Satellite property: for any fault seed and any rate below the
        /// practical retry ceiling, the retried parallel oracle aggregate
        /// is bit-identical to the fault-free serial run. A fault pattern
        /// that (rarely, for high rates) exhausts the budget is an
        /// allowed outcome — but must surface as the typed partial
        /// failure, never as a panic or a silently different aggregate.
        #[test]
        fn faulted_oracle_matches_fault_free_serial(
            seed in 0u64..(1u64 << 48),
            rate_milli in 50u64..350,
        ) {
            let cfg = quiet_config();
            let wrong = |i: usize, tp: u16| tp ^ (1 + i as u16);
            let baseline =
                oracle_distribution(&cfg, Channel::Data, 1, 6, 1, true, &no_faults(), wrong)
                    .expect("fault-free serial run");
            let tol = Tolerance {
                retry: RetryPolicy::default(),
                faults: FaultPlan::new(seed, rate_milli as f64 / 1000.0),
            };
            match oracle_distribution(&cfg, Channel::Data, 1, 6, 4, true, &tol, wrong) {
                Ok(faulted) => {
                    prop_assert_eq!(baseline.correct_detected, faulted.correct_detected);
                    prop_assert_eq!(baseline.incorrect_clean, faulted.incorrect_clean);
                    prop_assert_eq!(&baseline.correct_misses, &faulted.correct_misses);
                    prop_assert_eq!(&baseline.incorrect_misses, &faulted.incorrect_misses);
                    prop_assert_eq!(baseline.crashes, faulted.crashes);
                    prop_assert_eq!(baseline.target, faulted.target);
                    prop_assert_eq!(baseline.records.len(), faulted.records.len());
                    for (b, f) in baseline.records.iter().zip(&faulted.records) {
                        prop_assert_eq!(b.guess, f.guess);
                        prop_assert_eq!(&b.misses, &f.misses);
                    }
                    // Experiment telemetry must not see the faults.
                    prop_assert_eq!(
                        experiment_only(&baseline.telemetry.snapshot()),
                        experiment_only(&faulted.telemetry.snapshot())
                    );
                }
                Err(ExperimentError::Shards(partial)) => {
                    // Budget exhausted: legal, but it must be the typed
                    // partial-result path with real failure records.
                    prop_assert!(partial.completed < partial.total);
                    prop_assert!(!partial.failures.is_empty());
                }
                Err(other) => return Err(TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                ))),
            }
        }

        /// Same property for the brute-force driver.
        #[test]
        fn faulted_brute_matches_fault_free_serial(
            seed in 0u64..(1u64 << 48),
            rate_milli in 50u64..350,
        ) {
            let cfg = quiet_config();
            let mut probe = System::boot(cfg.clone());
            let set = probe.pick_quiet_dtlb_set();
            let target = probe.alloc_target(set);
            let true_pac = probe.true_pac(target);
            let candidates: Vec<u16> =
                (0..16u16).map(|i| true_pac.wrapping_sub(7).wrapping_add(i)).collect();
            let baseline =
                parallel_brute(&cfg, Channel::Data, 1, &candidates, 1, true, &no_faults())
                    .expect("fault-free serial run");
            let tol = Tolerance {
                retry: RetryPolicy::default(),
                faults: FaultPlan::new(seed, rate_milli as f64 / 1000.0),
            };
            match parallel_brute(&cfg, Channel::Data, 1, &candidates, 4, true, &tol) {
                Ok(faulted) => {
                    prop_assert_eq!(baseline.outcome.found, faulted.outcome.found);
                    prop_assert_eq!(
                        baseline.outcome.guesses_tested,
                        faulted.outcome.guesses_tested
                    );
                    prop_assert_eq!(baseline.outcome.syscalls, faulted.outcome.syscalls);
                    prop_assert_eq!(baseline.outcome.cycles, faulted.outcome.cycles);
                    prop_assert_eq!(baseline.outcome.crashes, faulted.outcome.crashes);
                    // Experiment telemetry must not see the faults.
                    prop_assert_eq!(
                        experiment_only(&baseline.telemetry.snapshot()),
                        experiment_only(&faulted.telemetry.snapshot())
                    );
                }
                Err(ExperimentError::Shards(partial)) => {
                    prop_assert!(partial.completed < partial.total);
                    prop_assert!(!partial.failures.is_empty());
                }
                Err(other) => return Err(TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                ))),
            }
        }

        /// Same property for the accuracy driver: the TP/FP/FN tallies
        /// and the experiment telemetry survive any fault pattern that
        /// stays within the retry budget.
        #[test]
        fn faulted_accuracy_matches_fault_free_serial(
            seed in 0u64..(1u64 << 48),
            rate_milli in 50u64..350,
        ) {
            let cfg = quiet_config();
            let window = |run: usize, tp: u16| -> Vec<u16> {
                let start = tp.wrapping_sub(2).wrapping_add((run % 3) as u16);
                (0..4u16).map(|i| start.wrapping_add(i)).collect()
            };
            let baseline = parallel_accuracy(&cfg, Channel::Data, 1, 6, 1, &no_faults(), window)
                .expect("fault-free serial run");
            let tol = Tolerance {
                retry: RetryPolicy::default(),
                faults: FaultPlan::new(seed, rate_milli as f64 / 1000.0),
            };
            match parallel_accuracy(&cfg, Channel::Data, 1, 6, 4, &tol, window) {
                Ok(faulted) => {
                    prop_assert_eq!(baseline.runs, faulted.runs);
                    prop_assert_eq!(baseline.true_positives, faulted.true_positives);
                    prop_assert_eq!(baseline.false_positives, faulted.false_positives);
                    prop_assert_eq!(baseline.false_negatives, faulted.false_negatives);
                    prop_assert_eq!(baseline.crashes, faulted.crashes);
                    prop_assert_eq!(
                        experiment_only(&baseline.telemetry.snapshot()),
                        experiment_only(&faulted.telemetry.snapshot())
                    );
                }
                Err(ExperimentError::Shards(partial)) => {
                    prop_assert!(partial.completed < partial.total);
                    prop_assert!(!partial.failures.is_empty());
                }
                Err(other) => return Err(TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                ))),
            }
        }

        /// Same property for the §7 sweep driver, whose only fault site
        /// is the shard panic: the series and the machine telemetry
        /// survive any fault pattern within the retry budget.
        #[test]
        fn faulted_sweep_matches_fault_free_serial(
            seed in 0u64..(1u64 << 48),
            rate_milli in 50u64..350,
        ) {
            let strides: &[u64] = &[256, 2048];
            let (baseline, breg) = parallel_sweep(SweepKind::DataTlb, strides, 1, &no_faults())
                .expect("fault-free serial run");
            let tol = Tolerance {
                retry: RetryPolicy::default(),
                faults: FaultPlan::new(seed, rate_milli as f64 / 1000.0),
            };
            match parallel_sweep(SweepKind::DataTlb, strides, 4, &tol) {
                Ok((faulted, freg)) => {
                    prop_assert_eq!(baseline, faulted);
                    prop_assert_eq!(
                        experiment_only(&breg.snapshot()),
                        experiment_only(&freg.snapshot())
                    );
                }
                Err(ExperimentError::Shards(partial)) => {
                    prop_assert!(partial.completed < partial.total);
                    prop_assert!(!partial.failures.is_empty());
                }
                Err(other) => return Err(TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                ))),
            }
        }
    }
}
