//! Isolation contract of the shared executor: many campaigns submitted
//! concurrently to the process-lifetime
//! [`Executor`](pacman_runner::Executor) interleave their shards on the
//! same workers, yet each must reproduce exactly what it computes when
//! it runs alone. The shard plan and every per-shard seed are pure
//! functions of the workload and base seed, so which worker takes which
//! campaign's shard, and when, must not be observable in any aggregate.
//!
//! Every oracle trial is also a scheduling point, where a busy worker
//! may run another campaign's shard to completion before the trial goes
//! on; that nesting must not be observable either.
//!
//! Jobs-invariance and faulted ≡ fault-free are pinned by the
//! `parallel_determinism` tests.

use std::sync::mpsc;

use pacman_core::fault::{FaultPlan, RetryPolicy, Tolerance};
use pacman_core::parallel::{
    oracle_distribution, oracle_distribution_observed, parallel_brute, Channel, OracleDistribution,
    ParallelBrute,
};
use pacman_core::{System, SystemConfig};
use pacman_runner::Executor;

/// Every test in this binary runs on the shared executor at two
/// workers, so concurrent campaigns compete for them.
fn two_workers() {
    Executor::init_global(2).expect("the test binary's executor has two workers");
}

fn quiet_config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;
    cfg.machine.seed = seed;
    cfg
}

fn oracle_run(seed: u64, jobs: usize) -> OracleDistribution {
    oracle_distribution(
        &quiet_config(seed),
        Channel::Data,
        1,
        8,
        jobs,
        true,
        &Tolerance::default(),
        |i, tp| tp ^ (1 + i as u16),
    )
    .expect("oracle campaign")
}

/// Four oracle campaigns with distinct machine seeds, submitted from
/// four threads at once at jobs=2, each compared with the same campaign
/// run alone at jobs=1.
#[test]
fn concurrent_interleaved_campaigns_stay_isolated() {
    two_workers();
    let seeds: Vec<u64> = (0..4).map(|i| 0xAB5E_ED00 + i).collect();
    let expected: Vec<OracleDistribution> = seeds.iter().map(|&seed| oracle_run(seed, 1)).collect();

    let concurrent: Vec<OracleDistribution> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            seeds.iter().map(|&seed| scope.spawn(move || oracle_run(seed, 2))).collect();
        handles.into_iter().map(|h| h.join().expect("campaign thread")).collect()
    });

    for ((seed, got), alone) in seeds.iter().zip(&concurrent).zip(&expected) {
        assert_eq!(
            got.correct_detected, alone.correct_detected,
            "seed {seed:#x}: verdict histogram drifted under interleaving"
        );
        assert_eq!(got.records, alone.records, "seed {seed:#x}: trial records drifted");
        assert_eq!(
            got.telemetry.snapshot(),
            alone.telemetry.snapshot(),
            "seed {seed:#x}: telemetry drifted"
        );
    }
}

fn wrong(i: usize, tp: u16) -> u16 {
    tp ^ (1 + i as u16)
}

/// A bulk oracle campaign (jobs=2, holding both workers) that calls
/// `started` once its first shard has merged.
fn bulk_oracle(tol: &Tolerance, started: impl FnOnce()) -> OracleDistribution {
    let mut started = Some(started);
    oracle_distribution_observed(
        &quiet_config(3),
        Channel::Data,
        1,
        48,
        2,
        true,
        tol,
        wrong,
        |_| {
            if let Some(f) = started.take() {
                f();
            }
        },
    )
    .expect("bulk oracle campaign")
}

/// A brute sweep over 16 candidates around the true PAC.
fn brute(tol: &Tolerance) -> ParallelBrute {
    let cfg = quiet_config(9);
    let mut probe = System::boot(cfg.clone());
    let (_, true_pac) = Channel::Data.target(&mut probe);
    let candidates: Vec<u16> =
        (0..16u16).map(|i| true_pac.wrapping_sub(5).wrapping_add(i)).collect();
    parallel_brute(&cfg, Channel::Data, 1, &candidates, 2, true, tol).expect("brute sweep")
}

/// An oracle campaign holds both workers when a brute sweep arrives
/// with nothing in flight, so the oracle's trials run the sweep's
/// shards nested. Each campaign must reproduce its solo run byte for
/// byte, `runner.*` counters included, with and without injected
/// faults.
#[test]
fn nested_shards_reproduce_their_solo_results() {
    two_workers();
    let faulted = Tolerance { retry: RetryPolicy::default(), faults: FaultPlan::new(0x5EED, 0.2) };
    for tol in [Tolerance::default(), faulted] {
        let (oracle_alone, brute_alone) = (bulk_oracle(&tol, || ()), brute(&tol));
        let (oracle, brute) = std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let tol = &tol;
            let bulk = scope.spawn(move || bulk_oracle(tol, move || tx.send(()).expect("signal")));
            rx.recv().expect("the bulk campaign started");
            let sweep = brute(tol);
            (bulk.join().expect("bulk thread"), sweep)
        });
        assert_eq!(oracle.records, oracle_alone.records, "oracle trial records drifted");
        assert_eq!(oracle.correct_misses, oracle_alone.correct_misses);
        assert_eq!(oracle.incorrect_misses, oracle_alone.incorrect_misses);
        assert_eq!(
            oracle.telemetry.snapshot(),
            oracle_alone.telemetry.snapshot(),
            "oracle telemetry drifted"
        );
        assert_eq!(brute.outcome, brute_alone.outcome, "brute outcome drifted");
        assert_eq!(
            brute.telemetry.snapshot(),
            brute_alone.telemetry.snapshot(),
            "brute telemetry drifted"
        );
        let retries: u64 = [&oracle.telemetry, &brute.telemetry]
            .iter()
            .map(|t| t.counter_value("runner.retries"))
            .sum();
        assert_eq!(retries > 0, tol.faults.is_active(), "retries only under the fault plan");
    }
}
