//! The paper-claims table: every number the reproduction commits to,
//! with an explicit tolerance band per metric.
//!
//! Each paper experiment ([`crate::experiments::EXPERIMENTS`]) and each
//! perf target writes a `BENCH_<id>.json` artefact ([`crate::Artifact`]);
//! this module encodes what those artefacts *must* contain for the
//! reproduction to count as faithful. Structural parameters (TLB
//! geometry, cache sizes, PAC widths) are exact; timing distributions
//! and accuracy rates carry bands; relational shape checks (orderings,
//! cut-offs) are derived boolean fields held to `true`. `pacman-cli
//! verify` diffs a directory of artefacts against this table.

use pacman_telemetry::json::Value;

use crate::Artifact;

/// What a claimed metric is allowed to be.
#[derive(Clone, Debug, PartialEq)]
pub enum Expectation {
    /// Exactly this unsigned integer (structural parameters).
    U64(u64),
    /// Exactly this boolean.
    Bool(bool),
    /// Exactly this string.
    Str(&'static str),
    /// An unsigned integer in `min..=max`.
    U64Range {
        /// Inclusive lower bound.
        min: u64,
        /// Inclusive upper bound.
        max: u64,
    },
    /// Any numeric value in `min..=max` (timing bands, rate bands).
    F64Range {
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Any numeric value `>= min` (rates with no meaningful ceiling).
    AtLeast(
        /// Inclusive lower bound.
        f64,
    ),
    /// Any numeric value `<= max` (counts that must stay near zero).
    AtMost(
        /// Inclusive upper bound.
        f64,
    ),
    /// The field must exist; its value is report-only (charts, tables,
    /// run-dependent values like recovered PACs or wall-clock times).
    Present,
}

impl Expectation {
    /// A compact human rendering of the band (`= 12`, `in [85, 110]`, …).
    pub fn describe(&self) -> String {
        match self {
            Expectation::U64(v) => format!("= {v}"),
            Expectation::Bool(v) => format!("= {v}"),
            Expectation::Str(v) => format!("= \"{v}\""),
            Expectation::U64Range { min, max } => format!("in [{min}, {max}]"),
            Expectation::F64Range { min, max } => format!("in [{min}, {max}]"),
            Expectation::AtLeast(v) => format!(">= {v}"),
            Expectation::AtMost(v) => format!("<= {v}"),
            Expectation::Present => "present".into(),
        }
    }

    /// Checks one artefact value against the band.
    fn admits(&self, v: &Value) -> bool {
        match self {
            Expectation::U64(want) => v.as_u64() == Some(*want),
            Expectation::Bool(want) => v.as_bool() == Some(*want),
            Expectation::Str(want) => v.as_str() == Some(want),
            Expectation::U64Range { min, max } => {
                v.as_u64().is_some_and(|g| (*min..=*max).contains(&g))
            }
            Expectation::F64Range { min, max } => {
                v.as_f64().is_some_and(|g| *min <= g && g <= *max)
            }
            Expectation::AtLeast(min) => v.as_f64().is_some_and(|g| g >= *min),
            Expectation::AtMost(max) => v.as_f64().is_some_and(|g| g <= *max),
            Expectation::Present => true,
        }
    }

    /// An example value inside the band (test-artefact generation).
    fn example(&self) -> Value {
        match self {
            Expectation::U64(v) => Value::UInt(*v),
            Expectation::Bool(v) => Value::Bool(*v),
            Expectation::Str(v) => Value::str(*v),
            Expectation::U64Range { min, max } => Value::UInt(min + (max - min) / 2),
            Expectation::F64Range { min, max } => Value::Float((min + max) / 2.0),
            Expectation::AtLeast(v) => Value::Float(*v),
            Expectation::AtMost(v) => Value::Float(*v),
            Expectation::Present => Value::UInt(1),
        }
    }
}

/// One verifiable claim: a field of one artefact, its paper citation,
/// and the tolerance band.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Artefact id (`BENCH_<id>.json`).
    pub artifact: &'static str,
    /// Top-level field name inside the artefact.
    pub field: &'static str,
    /// Where the paper commits to the value.
    pub paper: &'static str,
    /// The tolerance band.
    pub expect: Expectation,
}

/// Outcome of checking one [`Claim`] against an artefact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The value is inside the band.
    Pass,
    /// The value is outside the band (rendered actual value attached).
    Fail(
        /// What the artefact actually held.
        String,
    ),
    /// The field is absent from the artefact.
    Missing,
}

impl Verdict {
    /// Machine-readable status string for JSONL records.
    pub fn status(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail(_) => "fail",
            Verdict::Missing => "missing",
        }
    }
}

impl Claim {
    const fn new(
        artifact: &'static str,
        field: &'static str,
        paper: &'static str,
        expect: Expectation,
    ) -> Self {
        Self { artifact, field, paper, expect }
    }

    /// Checks this claim against a parsed artefact object.
    pub fn check(&self, artifact: &Value) -> Verdict {
        match artifact.get(self.field) {
            None => Verdict::Missing,
            Some(v) if self.expect.admits(v) => Verdict::Pass,
            Some(v) => Verdict::Fail(v.to_string()),
        }
    }
}

/// The perf targets' artefact ids (`cargo bench -p pacman-bench`).
pub const PERF_IDS: [&str; 7] = [
    "perf_micro",
    "perf_parallel",
    "perf_trace",
    "perf_exec_engine",
    "perf_campaign",
    "service_load",
    "snapshot",
];

/// Every artefact id with claims: the paper experiments, then the perf
/// targets.
pub fn artifact_ids() -> Vec<&'static str> {
    crate::experiments::EXPERIMENTS.iter().map(|e| e.id).chain(PERF_IDS).collect()
}

use Expectation::{AtLeast, AtMost, Bool, F64Range, Present, Str, U64Range, U64};

/// The full claims table, in artefact order.
#[allow(clippy::too_many_lines)]
pub fn all() -> Vec<Claim> {
    let c = Claim::new;
    vec![
        // ---- Figure 5(a): data-load dTLB / L2 TLB sweep ----------------
        c("fig5a", "latency_vs_n", "Fig. 5(a) latency series", Present),
        c(
            "fig5a",
            "baseline_plateau_cycles",
            "Fig. 5(a): L1+dTLB hit ~60c",
            F64Range { min: 40.0, max: 74.0 },
        ),
        c(
            "fig5a",
            "dtlb_miss_plateau_cycles",
            "Fig. 5(a): dTLB-miss ~95c",
            F64Range { min: 85.0, max: 109.0 },
        ),
        c(
            "fig5a",
            "l2_tlb_miss_plateau_cycles",
            "Fig. 5(a): L2-TLB-miss ~115c",
            F64Range { min: 110.0, max: 140.0 },
        ),
        c("fig5a", "dtlb_knee_n", "§7.2 finding 1: dTLB 12 ways", U64(12)),
        c("fig5a", "l2_tlb_knee_n", "§7.2 finding 2: L2 TLB 23 ways", U64(23)),
        c(
            "fig5a",
            "flat_stride_max_cycles",
            "Fig. 5(a): stride 1 stays flat (< 75c)",
            AtMost(74.0),
        ),
        c("fig5a", "plateaus_ordered", "Fig. 5(a): plateaus 60 < 95 < 115", Bool(true)),
        // ---- Figure 5(b): cache/TLB interaction sweep ------------------
        c("fig5b", "latency_vs_n", "Fig. 5(b) latency series", Present),
        c(
            "fig5b",
            "l1d_conflict_plateau_cycles",
            "Fig. 5(b): L1D-conflict ~80c",
            F64Range { min: 75.0, max: 95.0 },
        ),
        c(
            "fig5b",
            "dtlb_plateau_cycles",
            "Fig. 5(b): dTLB+L2$ ~110c",
            F64Range { min: 100.0, max: 125.0 },
        ),
        c(
            "fig5b",
            "l2_tlb_plateau_cycles",
            "Fig. 5(b): L2TLB+L2$ ~130c",
            F64Range { min: 120.0, max: 150.0 },
        ),
        c("fig5b", "l1d_knee_n", "footnote 5: observed 4-way L1D", U64(4)),
        c("fig5b", "dtlb_knee_n", "§7.2 finding 1: dTLB 12 ways", U64(12)),
        c("fig5b", "l2_tlb_knee_n", "§7.2 finding 2: L2 TLB 23 ways", U64(23)),
        c("fig5b", "staircase_ordered", "Fig. 5(b): staircase 60 < 80 < 110 < 130", Bool(true)),
        // ---- Figure 5(c): instruction-fetch sweep ----------------------
        c("fig5c", "latency_vs_n", "Fig. 5(c) latency series", Present),
        c("fig5c", "itlb_resident_cycles", "Fig. 5(c): iTLB-resident reload >110c", AtLeast(111.0)),
        c(
            "fig5c",
            "post_eviction_cycles",
            "Fig. 5(c): post-eviction ~80c",
            F64Range { min: 60.0, max: 89.0 },
        ),
        c("fig5c", "itlb_knee_n", "§7.2 finding 3: iTLB 4 ways (latency drop)", U64(4)),
        c("fig5c", "migrated_visible_at_n30", "§7.3: victims stay dTLB-visible", Bool(true)),
        c("fig5c", "dtlb_conflict_cycles", "§7.3: refills thrash the dTLB set", AtLeast(106.0)),
        c("fig5c", "l2_conflict_cycles", "§7.3: and the L2 TLB set", AtLeast(121.0)),
        // ---- Figure 6: derived TLB hierarchy ---------------------------
        c("fig6", "itlb_ways", "Fig. 6: L1 iTLB 4 ways x 32 sets", U64(4)),
        c("fig6", "dtlb_ways", "Fig. 6: L1 dTLB 12 ways x 256 sets", U64(12)),
        c("fig6", "l2_ways", "Fig. 6: L2 TLB 23 ways x 2048 sets", U64(23)),
        c("fig6", "itlb_victims_visible_to_loads", "§7.3: dTLB backs the iTLBs", Bool(true)),
        c(
            "fig6",
            "configured_geometry",
            "Fig. 6: the modelled TLBs",
            Str("iTLB 4w x 32s, dTLB 12w x 256s, L2 23w x 2048s"),
        ),
        // ---- Figure 7: timer distributions -----------------------------
        c(
            "fig7",
            "pmc_hit_median_cycles",
            "Fig. 7(a): PMC0 hit ~60c",
            F64Range { min: 45.0, max: 75.0 },
        ),
        c(
            "fig7",
            "pmc_miss_median_cycles",
            "Fig. 7(a): PMC0 miss ~95c",
            F64Range { min: 80.0, max: 110.0 },
        ),
        c("fig7", "mt_hit_max_ticks", "§7.4: MT-timer hits never beyond 27", AtMost(27.0)),
        c("fig7", "mt_miss_min_ticks", "§7.4: MT-timer misses never below 32", AtLeast(32.0)),
        c(
            "fig7",
            "mt_threshold_ticks",
            "§7.4: derived threshold ~30",
            U64Range { min: 28, max: 34 },
        ),
        c("fig7", "pmc_usable", "Fig. 7(a): PMC0 separates populations", Bool(true)),
        c("fig7", "mt_usable", "Fig. 7(b): MT timer separates populations", Bool(true)),
        c(
            "fig7",
            "mt_walks_slower_than_misses",
            "Fig. 7(b): walks slower than dTLB misses",
            Bool(true),
        ),
        // ---- Figure 8: PAC-oracle accuracy -----------------------------
        c("fig8a", "correct_detect_pct", "Fig. 8(a): correct PAC >=5 misses 99.6%", AtLeast(99.0)),
        c("fig8a", "incorrect_clean_pct", "Fig. 8(a): wrong PAC <=1 miss 99.2%", AtLeast(99.0)),
        c("fig8a", "crashes", "§8.1: the oracle never crashes", U64(0)),
        c("fig8a", "correct_miss_histogram", "Fig. 8(a) distribution", Present),
        c("fig8a", "incorrect_miss_histogram", "Fig. 8(a) distribution", Present),
        c("fig8b", "correct_detect_pct", "Fig. 8(b): correct PAC >=5 misses 99.8%", AtLeast(99.0)),
        c("fig8b", "incorrect_clean_pct", "Fig. 8(b): wrong PAC <=1 miss 99.2%", AtLeast(99.0)),
        c("fig8b", "crashes", "§8.1: the oracle never crashes", U64(0)),
        c("fig8b", "correct_miss_histogram", "Fig. 8(b) distribution", Present),
        c("fig8b", "incorrect_miss_histogram", "Fig. 8(b) distribution", Present),
        // ---- Table 1: timers -------------------------------------------
        c("table1", "timers", "Table 1 rows", Present),
        c("table1", "cntpct_el0_readable", "Table 1: CNTPCT_EL0 at EL0", Bool(true)),
        c("table1", "cntpct_attack_usable", "Table 1: 24 MHz too coarse", Bool(false)),
        c("table1", "pmc0_el0_readable", "Table 1: PMC0 kernel-gated", Bool(false)),
        c("table1", "pmc0_attack_usable", "Table 1: PMC0 resolves hit/miss", Bool(true)),
        c("table1", "multithread_el0_readable", "§7.4: MT timer unprivileged", Bool(true)),
        c("table1", "multithread_attack_usable", "§7.4: MT timer usable", Bool(true)),
        // ---- Table 2: caches -------------------------------------------
        c("table2", "caches", "Table 2 rows", Present),
        c("table2", "pcore_l1i_kb", "Table 2: p-core L1I 192 KB", U64(192)),
        c("table2", "pcore_l1d_kb", "Table 2: p-core L1D 128 KB", U64(128)),
        c("table2", "pcore_l2_mb", "Table 2: p-core L2 12 MB", U64(12)),
        c("table2", "ecore_l1i_kb", "Table 2: e-core L1I 128 KB", U64(128)),
        c("table2", "ecore_l1d_kb", "Table 2: e-core L1D 64 KB", U64(64)),
        c("table2", "ecore_l2_mb", "Table 2: e-core L2 4 MB", U64(4)),
        c("table2", "l1_line_bytes", "Table 2: 64 B L1 lines", U64(64)),
        c("table2", "l2_line_bytes", "Table 2: 128 B L2 lines", U64(128)),
        c("table2", "pcore_l1d_effective_ways", "footnote 5: observed half of reported", U64(4)),
        c(
            "table2",
            "pcore_geometry",
            "Table 2: p-core ways x sets x line",
            Str("L1I 6w x 512s x 64B, L1D 8w x 256s x 64B, L2 12w x 8192s x 128B"),
        ),
        // ---- §4.3: gadget census (scale-invariant metrics only) --------
        c("sec43", "census", "§4.3 census table", Present),
        c("sec43", "gadgets_per_function", "§4.3: gadgets are abundant", AtLeast(1.0)),
        c("sec43", "total_gadgets", "§4.3: more gadgets than the 4000 functions", AtLeast(4001.0)),
        c(
            "sec43",
            "instr_to_data_ratio",
            "§4.3: 41,292 / 13,867 ~ 2.98",
            F64Range { min: 1.2, max: 4.5 },
        ),
        c(
            "sec43",
            "mean_distance",
            "§4.3: mean distance 8.1 insts",
            F64Range { min: 4.0, max: 20.0 },
        ),
        c("sec43", "gadgets_without_pa", "§4.3: no PA, no gadgets", U64(0)),
        // ---- §6.2: PacmanOS --------------------------------------------
        c("sec62", "msr_ok", "§6.2: MSR inventory holds", Bool(true)),
        c("sec62", "timer_ok", "§6.2: timer resolutions match Table 1", Bool(true)),
        c("sec62", "dtlb_sets", "Fig. 6 via search: dTLB 256 sets", U64(256)),
        c("sec62", "dtlb_ways", "Fig. 6 via search: dTLB 12 ways", U64(12)),
        c("sec62", "l2_sets", "Fig. 6 via search: L2 TLB 2048 sets", U64(2048)),
        c("sec62", "l2_ways", "Fig. 6 via search: L2 TLB 23 ways", U64(23)),
        c("sec62", "itlb_sets", "Fig. 6 via search: iTLB 32 sets", U64(32)),
        c("sec62", "itlb_ways", "Fig. 6 via search: iTLB 4 ways", U64(4)),
        // ---- §8.2: brute-force accuracy --------------------------------
        c("sec82_accuracy", "runs", "§8.2 accuracy runs", Present),
        c("sec82_accuracy", "false_positives", "§8.2: false positives intolerable", U64(0)),
        c("sec82_accuracy", "tp_rate_pct", "§8.2: ~90% true positives", AtLeast(90.0)),
        c("sec82_accuracy", "crashes", "§8.2: crash-free brute force", U64(0)),
        // ---- §8.2: brute-force speed -----------------------------------
        c(
            "sec82_speed",
            "ms_per_guess",
            "§8.2: 2.69 ms per guess",
            F64Range { min: 1.35, max: 5.4 },
        ),
        c(
            "sec82_speed",
            "full_space_minutes",
            "§8.2: 2^16 sweep ~2.94 min",
            F64Range { min: 1.4, max: 6.0 },
        ),
        c(
            "sec82_speed",
            "syscalls_per_guess",
            "§8.2: training syscalls dominate",
            U64Range { min: 65, max: 100_000 },
        ),
        c("sec82_speed", "crashes", "§8.2: crash-free brute force", U64(0)),
        c("sec82_speed", "guesses_tested", "§8.2: every guess tested, no early exit", U64(64)),
        // ---- §8.3: Jump2Win --------------------------------------------
        c("sec83", "hijacked", "§8.3: win() runs at EL1", Bool(true)),
        c("sec83", "crashes", "§8.3: zero kernel panics", U64(0)),
        c("sec83", "pacs_authenticate", "§8.3: both recovered PACs verify", Bool(true)),
        c("sec83", "guesses_tested", "§8.3 sweep size", Present),
        c("sec83", "attack_seconds", "§8.3 end-to-end time", Present),
        // ---- §9: mitigations -------------------------------------------
        c("sec9", "mitigation_matrix", "§9 countermeasure matrix", Present),
        c(
            "sec9",
            "baseline_surface",
            "§9: unmitigated M1 fully vulnerable",
            Str("FullyVulnerable"),
        ),
        c("sec9", "all_mitigations_protect", "§9: each countermeasure blinds both", Bool(true)),
        c("sec9", "fence_after_aut_overhead_pct", "§9: AUT fences cost benign perf", AtLeast(20.0)),
        c(
            "sec9",
            "lazy_squash_surface",
            "§4.2: instr gadget needs eager squash",
            Str("DataGadgetOnly"),
        ),
        // ---- Ablations -------------------------------------------------
        c("ablations", "min_oracle_window", "§4.3: gadget must fit the window", U64(3)),
        c(
            "ablations",
            "window_cutoff_at_gadget_length",
            "§4.3: blind below a 3-inst window, works from 3",
            Bool(true),
        ),
        c("ablations", "system_counter_blind", "Table 1: 24 MHz can't drive it", Bool(true)),
        c("ablations", "multithread_timer_works", "§7.4: MT timer suffices", Bool(true)),
        c("ablations", "pac_bits_53va", "§1: 11 PAC bits at 53-bit VA", U64(11)),
        c("ablations", "pac_bits_48va", "§2.2: 16 PAC bits at 48-bit VA", U64(16)),
        c("ablations", "pac_bits_33va", "§1: 31 PAC bits at 33-bit VA", U64(31)),
        c("ablations", "stack_tracking_gain", "§4.3: deeper dataflow finds more", AtLeast(0.0)),
        // ---- perf_micro (wall-clock: report-only) ----------------------
        c("perf_micro", "qarma_encrypt_ns", "QARMA-64 throughput", AtLeast(0.1)),
        c("perf_micro", "oracle_guess_ns", "end-to-end oracle latency", AtLeast(0.1)),
        c("perf_micro", "oracle_guess_telemetry_off_ns", "telemetry-off hot path", AtLeast(0.1)),
        c("perf_micro", "oracle_guess_telemetry_on_ns", "telemetry-on hot path", AtLeast(0.1)),
        // ---- perf_parallel (sharded runner + flat set storage) ---------
        c("perf_parallel", "jobs", "resolved worker count", AtLeast(1.0)),
        c("perf_parallel", "cores", "available parallelism", AtLeast(1.0)),
        c("perf_parallel", "trials_per_sec_serial", "serial trial throughput", AtLeast(0.1)),
        c("perf_parallel", "trials_per_sec_parallel", "sharded trial throughput", AtLeast(0.1)),
        c("perf_parallel", "speedup", "sharding is never a slowdown", AtLeast(1.0)),
        c("perf_parallel", "tlb_access_ns", "flat-storage TLB hot path", AtLeast(0.1)),
        c("perf_parallel", "cache_access_ns", "flat-storage cache hot path", AtLeast(0.1)),
        // ---- perf_trace (flight recorder + self-profiler overhead) -----
        c("perf_trace", "plain_run_ns", "profiler-off simulator loop", AtLeast(0.1)),
        c("perf_trace", "profiled_run_ns", "profiler-on simulator loop", AtLeast(0.1)),
        c(
            "perf_trace",
            "disabled_span_ns",
            "disabled recorder span call",
            F64Range { min: 0.0, max: 1000.0 },
        ),
        c(
            "perf_trace",
            "disabled_overhead_ratio",
            "tracing disabled costs nothing",
            F64Range { min: 0.0, max: 1.25 },
        ),
        c("perf_trace", "trace_events", "chrome-trace export round-trips", AtLeast(1.0)),
        // ---- perf_exec_engine (block cache + PAC memo + bitslice) ------
        // Not a paper table: the engine-rewrite regression gate. Bands
        // match the bench's own checks so a printed PASS always verifies.
        c(
            "perf_exec_engine",
            "oracle_instr_per_sec_cached",
            "cached-engine oracle-loop throughput",
            AtLeast(0.1),
        ),
        c(
            "perf_exec_engine",
            "oracle_instr_per_sec_interpreted",
            "pre-PR interpreter oracle-loop throughput",
            AtLeast(0.1),
        ),
        c(
            "perf_exec_engine",
            "oracle_speedup",
            "block cache + memo >=5x on the oracle loop",
            AtLeast(5.0),
        ),
        c(
            "perf_exec_engine",
            "brute_guesses_per_sec_cached",
            "rewritten warm-sweep brute throughput",
            AtLeast(0.1),
        ),
        c(
            "perf_exec_engine",
            "brute_guesses_per_sec_interpreted",
            "pre-PR cold-retrain brute throughput",
            AtLeast(0.1),
        ),
        c(
            "perf_exec_engine",
            "brute_speedup",
            "§8.2 sweep >=10x the pre-PR pipeline",
            AtLeast(10.0),
        ),
        c("perf_exec_engine", "bitslice_lanes", "64 PAC guesses per cipher pass", U64(64)),
        c(
            "perf_exec_engine",
            "bitslice_speedup",
            "bitsliced QARMA beats 64 scalar calls",
            AtLeast(2.0),
        ),
        c(
            "perf_exec_engine",
            "block_cache_hit_rate_pct",
            "steady-state dispatches come from the arena",
            AtLeast(90.0),
        ),
        // ---- perf_campaign (persistent executor + pooled machines) -----
        // Not a paper table: the executor regression gate. Bands
        // match the bench's own checks so a printed PASS always verifies.
        c("perf_campaign", "jobs", "measured at real parallelism", AtLeast(4.0)),
        c(
            "perf_campaign",
            "campaigns_per_sec_executor",
            "pipelined small-campaign throughput",
            AtLeast(0.1),
        ),
        c("perf_campaign", "p50_latency_us", "median campaign latency", Present),
        c("perf_campaign", "p99_latency_us", "tail campaign latency", Present),
        c(
            "perf_campaign",
            "jobs_parity_drift_fields",
            "jobs=1 == jobs=N on the executor, bit for bit",
            U64(0),
        ),
        c(
            "perf_campaign",
            "pool_steady_fresh_boots",
            "steady-state leases come from the pool",
            U64(0),
        ),
        c(
            "perf_campaign",
            "pool_steady_fresh_frames",
            "steady-state reboots allocate no frames",
            U64(0),
        ),
        // ---- service_load (pacmand multi-tenant daemon) ----------------
        // Not a paper table: the daemon's production-readiness gate.
        // Bands match the bench's own checks so a printed PASS always
        // verifies.
        c("service_load", "sessions", "concurrent tenant sessions", AtLeast(200.0)),
        c("service_load", "jobs", "jobs completed under load", AtLeast(1.0)),
        c("service_load", "jobs_per_sec", "sustained service throughput", AtLeast(0.1)),
        c("service_load", "p50_latency_us", "median submit-to-done latency", Present),
        c("service_load", "p99_latency_us", "tail submit-to-done latency", Present),
        c("service_load", "injected_failures", "the fault drill landed exactly once", U64(1)),
        c(
            "service_load",
            "unexpected_failed_jobs",
            "no collateral failures in any session",
            U64(0),
        ),
        c("service_load", "panic_isolated", "a tenant panic never leaves its session", Bool(true)),
        c(
            "service_load",
            "daemon_survived",
            "the daemon keeps serving after the drill",
            Bool(true),
        ),
        c("service_load", "drained_clean", "graceful drain after the load", Bool(true)),
        // ---- snapshot (durable campaigns, DESIGN.md §13) ---------------
        // Not a paper table: the durability gate for long campaigns.
        c("snapshot", "system_snapshot_us", "System snapshot latency", Present),
        c("snapshot", "system_restore_us", "System restore latency", Present),
        c("snapshot", "checkpoint_write_us", "daemon checkpoint write latency", Present),
        c("snapshot", "resume_restore_us", "daemon checkpoint load latency", Present),
        c("snapshot", "roundtrip_ok", "a restored System is bit-identical", Bool(true)),
        c("snapshot", "checkpoints_written", "periodic checkpoints cut mid-campaign", AtLeast(1.0)),
        c(
            "snapshot",
            "checkpoint_overhead_pct",
            "checkpointing costs <=10% of campaign runtime",
            AtMost(10.0),
        ),
        // ---- conform: differential conformance harness -----------------
        // Not a paper table: the harness underwrites the simulator the
        // paper claims ride on (§5-6 committed-vs-speculative boundary).
        c("conform", "programs", "seeded differential program count", AtLeast(1.0)),
        c("conform", "divergences", "speculative core matches the reference", U64(0)),
        c("conform", "self_test_bugs_detected", "oracle catches both injected bugs", U64(2)),
        c("conform", "self_test_expected", "both sabotaged cores were exercised", U64(2)),
        c("conform", "ok", "conformance + self-test verdict", Bool(true)),
    ]
}

/// The claims for one artefact, prefixed with the two structural fields
/// every artefact carries.
pub fn for_artifact(id: &str) -> Vec<Claim> {
    let mut out = Vec::new();
    if let Some(id) = artifact_ids().into_iter().find(|&a| a == id) {
        out.push(Claim::new(id, "record", "artefact framing", Str("bench")));
        out.push(Claim::new(id, "experiment", "artefact framing", Str(id)));
    }
    out.extend(all().into_iter().filter(|c| c.artifact == id));
    out
}

/// Builds a synthetic in-tolerance artefact for `id` (every claimed
/// field present with a passing value). Tests use this to exercise the
/// verify path without running the bench targets.
pub fn example_artifact(id: &str) -> Artifact {
    let mut art = Artifact::new(id, "synthetic in-tolerance example");
    for claim in all().into_iter().filter(|c| c.artifact == id) {
        art.field(claim.field, claim.expect.example());
    }
    art
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_id_has_claims() {
        for id in artifact_ids() {
            let claims = for_artifact(id);
            assert!(claims.len() > 2, "{id} has only structural claims");
            assert!(claims.iter().all(|c| c.artifact == id));
        }
    }

    #[test]
    fn claims_cover_no_unknown_artifacts() {
        for claim in all() {
            assert!(
                artifact_ids().contains(&claim.artifact),
                "claim {}/{} names an unknown artefact",
                claim.artifact,
                claim.field
            );
        }
    }

    #[test]
    fn fields_are_unique_per_artifact() {
        let claims = all();
        for (i, a) in claims.iter().enumerate() {
            for b in &claims[..i] {
                assert!(
                    !(a.artifact == b.artifact && a.field == b.field),
                    "duplicate claim {}/{}",
                    a.artifact,
                    a.field
                );
            }
        }
    }

    #[test]
    fn example_artifacts_pass_their_own_claims() {
        for id in artifact_ids() {
            let json = example_artifact(id).to_json();
            for claim in for_artifact(id) {
                assert_eq!(
                    claim.check(&json),
                    Verdict::Pass,
                    "example for {id} fails its own claim {}",
                    claim.field
                );
            }
        }
    }

    #[test]
    fn example_artifacts_round_trip_with_declared_fields() {
        // Every artefact id must serialize, re-parse, and still contain
        // every field the claims table declares.
        for id in artifact_ids() {
            let text = example_artifact(id).to_json().to_string();
            let parsed = pacman_telemetry::json::parse(&text).expect("valid JSON");
            assert_eq!(parsed.get("experiment").and_then(Value::as_str), Some(id));
            for claim in for_artifact(id) {
                assert!(parsed.get(claim.field).is_some(), "{id} lost field {}", claim.field);
            }
        }
    }

    #[test]
    fn bands_admit_and_reject() {
        assert!(U64(12).admits(&Value::UInt(12)));
        assert!(!U64(12).admits(&Value::UInt(13)));
        assert!(!U64(12).admits(&Value::str("12")));
        assert!(F64Range { min: 1.0, max: 2.0 }.admits(&Value::Float(1.5)));
        assert!(F64Range { min: 1.0, max: 2.0 }.admits(&Value::UInt(2)));
        assert!(!F64Range { min: 1.0, max: 2.0 }.admits(&Value::Float(2.01)));
        assert!(U64Range { min: 28, max: 34 }.admits(&Value::UInt(30)));
        assert!(!U64Range { min: 28, max: 34 }.admits(&Value::UInt(35)));
        assert!(AtLeast(99.0).admits(&Value::Float(99.6)));
        assert!(!AtLeast(99.0).admits(&Value::Float(98.9)));
        assert!(AtMost(27.0).admits(&Value::UInt(27)));
        assert!(!AtMost(27.0).admits(&Value::UInt(28)));
        assert!(Bool(true).admits(&Value::Bool(true)));
        assert!(!Bool(true).admits(&Value::Bool(false)));
        assert!(Str("x").admits(&Value::str("x")));
        assert!(Present.admits(&Value::Null));
    }

    #[test]
    fn verdicts_carry_status_and_actuals() {
        let claim = Claim::new("fig6", "dtlb_ways", "test", U64(12));
        let good = Value::Object(vec![("dtlb_ways".into(), Value::UInt(12))]);
        let bad = Value::Object(vec![("dtlb_ways".into(), Value::UInt(8))]);
        let empty = Value::Object(vec![]);
        assert_eq!(claim.check(&good), Verdict::Pass);
        assert_eq!(claim.check(&bad), Verdict::Fail("8".into()));
        assert_eq!(claim.check(&empty), Verdict::Missing);
        assert_eq!(claim.check(&good).status(), "pass");
        assert_eq!(claim.check(&bad).status(), "fail");
        assert_eq!(claim.check(&empty).status(), "missing");
    }
}
