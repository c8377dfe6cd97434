//! Persistent-executor benches: pooled workers, batched campaign
//! submission, streaming aggregation and recycled machines.
//!
//! The `perf_campaign` artefact records and gates the executor:
//!
//! - **throughput** — campaigns/s and submit-to-drain latency of a
//!   stream of small campaigns pipelined through a work-stealing
//!   [`Executor`] (recorded, not gated against a baseline);
//! - **zero drift** — bit-identical verdicts, histograms, trial records
//!   and telemetry at `jobs = 1` and `jobs = N` (the fixed shard-plan +
//!   `mix64` seed contract);
//! - **allocator-free steady state** — once warm, leases from the
//!   machine pool recycle every physical frame through
//!   [`System::reboot_into`](pacman_core::System::reboot_into): zero
//!   fresh boots and zero fresh frame allocations across the measured
//!   window ([`pool::stats`] deltas).

use std::time::Instant;

use pacman_bench::{banner, check, compare, quiet_config, scale, Artifact};
use pacman_core::fault::Tolerance;
use pacman_core::parallel::{oracle_distribution, parallel_census, Channel, OracleDistribution};
use pacman_core::pool;
use pacman_gadget::scan::{scan_image, ScanConfig, ScanReport};
use pacman_gadget::synth::{synthesize, ImageSpec};
use pacman_runner::{shard_plan, Executor, RetryPolicy, Shard, DEFAULT_SHARDS};

/// Best-of-three: the timed stream keeps its least scheduler-disturbed
/// run. `better` picks the keeper (higher throughput).
fn best3<R>(mut measure: impl FnMut() -> R, better: impl Fn(&R, &R) -> bool) -> R {
    let mut best = measure();
    for _ in 0..2 {
        let run = measure();
        if better(&run, &best) {
            best = run;
        }
    }
    best
}

fn census_spec(functions: usize, seed: u64) -> ImageSpec {
    ImageSpec { functions, seed, ..ImageSpec::default() }
}

/// The persistent executor: every campaign submitted up front (bounded
/// by the executor's own backpressure), results drained in submission
/// order. Returns campaigns/sec plus per-campaign submit-to-drain
/// latencies in microseconds.
fn executor_campaigns_per_sec(
    exec: &Executor,
    specs: &[ImageSpec],
    cfg: &ScanConfig,
    jobs: usize,
) -> (f64, Vec<f64>) {
    best3(
        || {
            let start = Instant::now();
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let plan = shard_plan(spec.functions, DEFAULT_SHARDS, spec.seed);
                    let (spec, cfg) = (*spec, *cfg);
                    let submitted = Instant::now();
                    let handle = exec.submit(
                        plan,
                        jobs,
                        RetryPolicy::no_retries(),
                        move |shard: &Shard,
                              _attempt|
                              -> Result<ScanReport, std::convert::Infallible> {
                            let sub = ImageSpec { functions: shard.len, seed: shard.seed, ..spec };
                            Ok(scan_image(&synthesize(&sub).bytes, &cfg))
                        },
                    );
                    (submitted, handle)
                })
                .collect();
            let mut latencies_us = Vec::with_capacity(handles.len());
            for (submitted, handle) in handles {
                let outcome = handle.wait().expect("campaign completes");
                std::hint::black_box(&outcome.results);
                latencies_us.push(submitted.elapsed().as_secs_f64() * 1e6);
            }
            (specs.len() as f64 / start.elapsed().as_secs_f64(), latencies_us)
        },
        |a, b| a.0 > b.0,
    )
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Fields of two oracle-distribution runs that differ (0 = bit-identical).
fn oracle_drift(a: &OracleDistribution, b: &OracleDistribution) -> u64 {
    u64::from(a.trials != b.trials)
        + u64::from(a.correct_detected != b.correct_detected)
        + u64::from(a.incorrect_clean != b.incorrect_clean)
        + u64::from(a.correct_misses != b.correct_misses)
        + u64::from(a.incorrect_misses != b.incorrect_misses)
        + u64::from(a.crashes != b.crashes)
        + u64::from(a.records != b.records)
        + u64::from(a.target != b.target)
        + u64::from(a.true_pac != b.true_pac)
        + u64::from(a.telemetry.snapshot() != b.telemetry.snapshot())
}

fn oracle_run(trials: usize, jobs: usize) -> OracleDistribution {
    oracle_distribution(
        &quiet_config(),
        Channel::Data,
        1,
        trials,
        jobs,
        true,
        &Tolerance::default(),
        |i, tp| tp ^ (1 + i as u16),
    )
    .expect("oracle distribution")
}

fn main() {
    banner("Bcampaign", "persistent executor: pooled machines + streaming aggregation");
    let campaigns = scale("CAMPAIGNS", 60);
    let functions = scale("CAMPAIGN_FUNCS", 8);
    let trials = scale("CAMPAIGN_TRIALS", 8);
    let leases = scale("CAMPAIGN_LEASES", 10);
    let jobs = pacman_runner::default_jobs().clamp(4, 16);
    // The bench owns its executor so the pool really has `jobs` workers
    // even where `default_jobs()` resolves lower (the global executor is
    // sized for the host).
    let exec = Executor::new(jobs);

    let specs: Vec<ImageSpec> =
        (0..campaigns).map(|i| census_spec(functions, 0xCAFE + i as u64)).collect();
    let scan_cfg = ScanConfig::default();

    // -- throughput: pipelined campaigns on the executor ----------------
    let (exec_cps, mut latencies_us) = executor_campaigns_per_sec(&exec, &specs, &scan_cfg, jobs);
    latencies_us.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);
    println!("  {campaigns} campaigns x {functions} functions at jobs={jobs}");
    println!("  executor (pipelined):   {exec_cps:10.1} campaigns/s");
    println!("  campaign latency:       p50 {p50:.0} us, p99 {p99:.0} us");

    // -- zero drift: jobs=1 vs jobs=N -----------------------------------
    let census = |jobs| {
        parallel_census(&census_spec(200, 0xC0DE), &scan_cfg, jobs, &Tolerance::default())
            .expect("fault-free census")
            .0
    };
    let jobs_drift = oracle_drift(&oracle_run(trials, jobs), &oracle_run(trials, 1))
        + u64::from(census(jobs) != census(1));
    println!("  jobs drift (jobs=1 vs jobs={jobs}):     {jobs_drift} fields");

    // -- allocator-free steady state: warm pool leases ------------------
    // Measured on this thread's own pool (single-threaded, so the global
    // counter deltas are exactly this loop's). The executor workers are
    // idle here: every campaign above has fully drained.
    let steady_lease = |seed: u64| {
        let mut cfg = quiet_config();
        cfg.machine.seed = seed;
        let mut sys = pool::lease(cfg);
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        std::hint::black_box(sys.true_pac(target));
    };
    pool::clear_thread_pool();
    steady_lease(0);
    steady_lease(1); // warm: the second lease already recycles
    let before = pool::stats();
    for seed in 0..leases as u64 {
        steady_lease(2 + seed);
    }
    let after = pool::stats();
    let fresh_boots = after.fresh_boots - before.fresh_boots;
    let fresh_frames = after.fresh_frames - before.fresh_frames;
    let reboots = after.reboots - before.reboots;
    println!(
        "  pool steady state: {reboots} reboots, {fresh_boots} fresh boots, \
         {fresh_frames} fresh frames over {leases} leases"
    );
    println!();

    let mut art =
        Artifact::new("perf_campaign", "persistent executor: throughput, drift, machine pool");
    art.num("jobs", jobs as u64)
        .num("campaigns", campaigns as u64)
        .float("campaigns_per_sec_executor", exec_cps)
        .float("p50_latency_us", p50)
        .float("p99_latency_us", p99)
        .num("jobs_parity_drift_fields", jobs_drift)
        .num("pool_steady_reboots", reboots)
        .num("pool_steady_fresh_boots", fresh_boots)
        .num("pool_steady_fresh_frames", fresh_frames);
    art.write();

    compare("jobs parity drift", "0 fields", &format!("{jobs_drift}"));
    compare("steady-state fresh frames", "0", &format!("{fresh_frames}"));

    check("jobs=1 == jobs=N on the executor, bit for bit", jobs_drift == 0);
    check("steady-state leases never boot fresh", fresh_boots == 0);
    check("steady-state reboots allocate no frames", fresh_frames == 0);
    check("measured at real parallelism", jobs >= 4);
}
