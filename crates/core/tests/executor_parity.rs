//! Isolation contract of the shared executor: many campaigns submitted
//! concurrently to the process-lifetime work-stealing
//! [`Executor`](pacman_runner::Executor) interleave their shards on the
//! same workers, yet each must reproduce exactly what it computes when
//! it runs alone. The shard plan and every per-shard seed are pure
//! functions of the workload and base seed, so cross-campaign stealing
//! must not be observable in any aggregate.
//!
//! Jobs-invariance and faulted ≡ fault-free are pinned by the
//! `parallel_determinism` tests.

use pacman_core::fault::Tolerance;
use pacman_core::parallel::{oracle_distribution, Channel, OracleDistribution};
use pacman_core::SystemConfig;

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
