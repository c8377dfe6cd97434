//! The committed `results/` are what the reproduction measures: every
//! `EXPERIMENTS` row regenerates its `results/BENCH_<id>.json` byte for
//! byte, and every paper claim holds on it.
//!
//! Each headline result also keeps a test of its own naming the claims
//! it rests on, so a deleted claim cannot go unnoticed.

use std::path::PathBuf;

use pacman_bench::claims::{self, Verdict};
use pacman_bench::experiments::{Ctx, EXPERIMENTS};
use pacman_core::fault::Tolerance;
use pacman_telemetry::json;

fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

#[test]
fn every_experiment_reproduces_its_committed_result() {
    let mut committed: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    committed.sort();
    let mut expected: Vec<String> =
        EXPERIMENTS.iter().map(|e| format!("BENCH_{}.json", e.id)).collect();
    expected.sort();
    assert_eq!(committed, expected, "results/ holds exactly one artifact per EXPERIMENTS row");

    let ctx = Ctx::new(pacman_runner::default_jobs(), Tolerance::default());
    for e in EXPERIMENTS {
        let art = (e.run)(&ctx).unwrap_or_else(|err| panic!("{}: {err}", e.id));
        let path = results_dir().join(format!("BENCH_{}.json", e.id));
        let on_disk = std::fs::read_to_string(&path).expect("committed result");
        assert_eq!(
            format!("{}\n", art.to_json()),
            on_disk,
            "{} moved: rerun `pacman-cli reproduce --only {}` and review the diff",
            e.id,
            e.id
        );
        let art = json::parse(on_disk.trim()).expect("results are JSON");
        for claim in claims::for_artifact(e.id) {
            assert_eq!(
                claim.check(&art),
                Verdict::Pass,
                "{}.{}: {} expects {}",
                e.id,
                claim.field,
                claim.paper,
                claim.expect.describe()
            );
        }
    }
}

/// Declares, per headline result, a test that the claims it rests on
/// exist; `every_experiment_reproduces_its_committed_result` holds them.
macro_rules! required_claims {
    ($($test:ident: $id:literal => [$($field:literal),* $(,)?];)*) => {$(
        #[test]
        fn $test() {
            let claims = claims::for_artifact($id);
            for field in [$($field),*] {
                assert!(claims.iter().any(|c| c.field == field), "no claim on {}.{field}", $id);
            }
        }
    )*};
}

required_claims! {
    table1_timer_availability: "table1" => [
        "cntpct_el0_readable", "cntpct_attack_usable", "pmc0_el0_readable",
        "pmc0_attack_usable", "multithread_el0_readable", "multithread_attack_usable",
    ];
    table2_cache_configurations: "table2" => [
        "pcore_geometry", "pcore_l1i_kb", "pcore_l1d_kb", "pcore_l2_mb",
        "ecore_l1i_kb", "ecore_l1d_kb", "ecore_l2_mb",
    ];
    figure5a_dtlb_and_l2tlb_knees: "fig5a" => ["dtlb_knee_n", "l2_tlb_knee_n"];
    figure5b_cache_then_tlb_staircase: "fig5b" => [
        "l1d_knee_n", "dtlb_knee_n", "l2_tlb_knee_n", "staircase_ordered",
    ];
    figure5c_itlb_visibility_drop: "fig5c" => ["itlb_resident_cycles", "itlb_knee_n"];
    figure6_hierarchy_parameters: "fig6" => [
        "configured_geometry", "dtlb_ways", "l2_ways", "itlb_ways",
        "itlb_victims_visible_to_loads",
    ];
    figure7_threshold_30: "fig7" => [
        "mt_hit_max_ticks", "mt_miss_min_ticks", "mt_threshold_ticks",
    ];
    figure8a_data_oracle_reliability: "fig8a" => [
        "correct_detect_pct", "incorrect_clean_pct", "crashes",
    ];
    figure8b_instruction_oracle_reliability: "fig8b" => [
        "correct_detect_pct", "incorrect_clean_pct", "crashes",
    ];
    section43_gadget_census_shape: "sec43" => [
        "total_gadgets", "instr_to_data_ratio", "mean_distance",
    ];
    section82_brute_force_accuracy_protocol: "sec82_accuracy" => [
        "false_positives", "tp_rate_pct", "crashes",
    ];
    section9_mitigation_matrix: "sec9" => [
        "baseline_surface", "all_mitigations_protect", "fence_after_aut_overhead_pct",
    ];
    // The baseline runs eager squash; lazy squash blinds the
    // instruction gadget only.
    section42_eager_squash_requirement: "sec9" => ["lazy_squash_surface", "baseline_surface"];
}
