//! Parallel §4.3 gadget census over the `pacman-runner` execution layer.
//!
//! The census workload — synthesize a PA-heavy image, scan it — is
//! embarrassingly parallel at function granularity: the synthesizer is
//! deterministic per `(functions, seed)` and the scanner never looks
//! across function boundaries further than its branch window. The
//! parallel census therefore cuts the requested function count into
//! [`pacman_runner::DEFAULT_SHARDS`] fixed sub-images (each seeded with
//! its shard's seed, `mix64(spec.seed, shard_index)`), scans them
//! concurrently and folds the reports with [`ScanReport::merge`] in
//! shard order.
//!
//! The shard plan is a pure function of the spec — never of the worker
//! count — so for a fixed spec the merged report is byte-identical at
//! any `jobs` value.

use pacman_runner::{shard_plan, Executor, RetryPolicy, Shard, DEFAULT_SHARDS};

use crate::scan::{scan_image, ScanConfig, ScanReport};
use crate::synth::{synthesize, ImageSpec};

/// Runs the §4.3 census with at most `jobs` shards in flight:
/// `spec.functions` functions total, generated as [`DEFAULT_SHARDS`]
/// deterministic sub-images and scanned concurrently. Returns the merged
/// report.
///
/// The campaign is submitted to the process-wide worker pool and the
/// sub-reports fold through [`ScanReport::merge`] as the **ordered
/// stream** delivers them — shard `i` merges while later shards still
/// scan. The result is bit-identical for a fixed spec at any `jobs`
/// value.
pub fn parallel_census(spec: &ImageSpec, config: &ScanConfig, jobs: usize) -> ScanReport {
    let plan = shard_plan(spec.functions, DEFAULT_SHARDS, spec.seed);
    let (spec, config) = (*spec, *config);
    let handle = Executor::global().submit(
        plan,
        jobs,
        RetryPolicy::no_retries(),
        move |shard: &Shard, _attempt| -> Result<ScanReport, std::convert::Infallible> {
            let sub = ImageSpec { functions: shard.len, seed: shard.seed, ..spec };
            Ok(scan_image(&synthesize(&sub).bytes, &config))
        },
    );
    let mut merged = ScanReport::default();
    for (i, r) in handle.ordered() {
        match r {
            Ok(report) => merged.merge(&report),
            Err(e) => panic!("census shard {i} failed: {e}"),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(functions: usize) -> ImageSpec {
        ImageSpec { functions, seed: 0xC0DE, ..ImageSpec::default() }
    }

    #[test]
    fn census_is_jobs_invariant() {
        let cfg = ScanConfig::default();
        let serial = parallel_census(&spec(400), &cfg, 1);
        let parallel = parallel_census(&spec(400), &cfg, 4);
        assert_eq!(serial, parallel, "census must not depend on the worker count");
        assert!(serial.total() > 0);
    }

    #[test]
    fn census_scans_every_function() {
        let report = parallel_census(&spec(500), &ScanConfig::default(), 2);
        // PA-heavy synthetic code averages more than one gadget per
        // function (§4.3 scaling), and the sub-images jointly cover the
        // full function budget.
        assert!(report.total() > 500, "expected >1 gadget/function, got {}", report.total());
        assert!(report.conditional_branches >= 500);
    }

    #[test]
    fn clean_images_stay_clean_under_parallel_scan() {
        let clean = ImageSpec { functions: 300, seed: 0xC0DE, pa_percent: 0, ..Default::default() };
        let report = parallel_census(&clean, &ScanConfig::default(), 4);
        assert_eq!(report.total(), 0, "no PA, no gadgets — in any shard");
    }

    #[test]
    fn merge_folds_counts_and_distances_exactly() {
        let cfg = ScanConfig::default();
        let a = scan_image(&synthesize(&spec(100)).bytes, &cfg);
        let b = scan_image(&synthesize(&ImageSpec { seed: 0xBEEF, ..spec(100) }).bytes, &cfg);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), a.total() + b.total());
        assert_eq!(merged.data_count(), a.data_count() + b.data_count());
        assert_eq!(merged.instructions, a.instructions + b.instructions);
        assert_eq!(merged.conditional_branches, a.conditional_branches + b.conditional_branches);
        let weighted = a.mean_distance() * a.total() as f64 + b.mean_distance() * b.total() as f64;
        let expected = weighted / (a.total() + b.total()) as f64;
        assert!((merged.mean_distance() - expected).abs() < 1e-9);
    }
}
