//! The paper's evaluation, declared once: one [`Experiment`] row per
//! table, figure or section result, each with the driver that
//! regenerates its artefact.
//!
//! `pacman-cli reproduce` runs these rows and writes each artefact to
//! `results/BENCH_<id>.json`; the committed `results/` directory is the
//! record of what the reproduction measures, and [`crate::claims`]
//! holds every artefact to the paper's tolerance bands. Drivers run at
//! one fixed scale and hold no execution-layer values (worker counts,
//! retries, fault switches), so an artefact is byte-identical at any
//! `--jobs` and under any recoverable fault plan.

use std::error::Error;
use std::sync::Mutex;

use pacman_core::conformance::{run_conformance, ConformConfig};
use pacman_core::fault::Tolerance;
use pacman_core::jump2win::centred_windows;
use pacman_core::oracle::{DataPacOracle, CORRECT_MISS_THRESHOLD};
use pacman_core::parallel::{
    oracle_distribution, parallel_accuracy, parallel_brute, parallel_census, parallel_jump2win,
    parallel_sweep, Channel, SweepKind,
};
use pacman_core::report::{AsciiChart, Table};
use pacman_core::sweep::{derive_hierarchy, experiment_machine, SweepSeries};
use pacman_core::timing::{evaluate_timer, table1};
use pacman_core::{System, SystemConfig};
use pacman_gadget::{scan_image, synthesize, ImageSpec, ScanConfig};
use pacman_mitigations::{evaluate_all, evaluate_with_squash, oracle_works, AttackSurface};
use pacman_os::experiments::{MsrInventory, TimerResolution, TlbParameterSearch};
use pacman_os::BareMetal;
use pacman_qarma::pac_field_bits;
use pacman_ref::self_test;
use pacman_telemetry::json::Value;
use pacman_telemetry::Registry;
use pacman_uarch::{
    ClusterCaches, ClusterTlbs, CoreKind, Machine, Mitigation, SquashPolicy, TimingSource,
};

use crate::{noisy_config, quiet_config, quiet_system, Artifact};

/// Why a driver could not build its artefact.
pub type DriverError = Box<dyn Error + Send + Sync>;

/// What a driver returns: its artefact, or why it could not be built.
pub type DriverResult = Result<Artifact, DriverError>;

/// What every driver runs under.
#[derive(Debug)]
pub struct Ctx {
    /// Most shards of one campaign in flight at once.
    pub jobs: usize,
    /// Retry budget and fault plan of the sharded campaigns.
    pub tol: Tolerance,
    /// Merged telemetry of every campaign run so far.
    telemetry: Mutex<Registry>,
}

impl Ctx {
    /// A context running campaigns `jobs` shards wide under `tol`.
    pub fn new(jobs: usize, tol: Tolerance) -> Self {
        Self { jobs: jobs.max(1), tol, telemetry: Mutex::new(Registry::new()) }
    }

    /// Folds one campaign's telemetry (machine counters, `runner.*`)
    /// into the run's total.
    fn absorb(&self, reg: &Registry) {
        self.telemetry.lock().unwrap_or_else(std::sync::PoisonError::into_inner).merge(reg);
    }

    /// Folds the counters of the one machine a driver ran on into the
    /// run's total.
    fn absorb_machine(&self, machine: &Machine) {
        let mut reg = Registry::new();
        machine.export_telemetry(&mut reg);
        self.absorb(&reg);
    }

    /// The merged telemetry of every campaign run under this context,
    /// plus the faults its own plan injected (campaigns run on clones of
    /// it, which count their own).
    pub fn telemetry(&self) -> Registry {
        let mut reg =
            self.telemetry.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        reg.incr_by("runner.faults_injected", self.tol.faults.injected());
        reg
    }
}

/// One paper artefact: its id (`results/BENCH_<id>.json`), where the
/// paper reports it, and the driver that regenerates it.
pub struct Experiment {
    /// Artefact id.
    pub id: &'static str,
    /// The paper table, figure or section it reproduces.
    pub paper: &'static str,
    /// Regenerates the artefact.
    pub run: fn(&Ctx) -> DriverResult,
}

/// Every paper artefact, in paper order.
#[rustfmt::skip]
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "table1", paper: "Table 1", run: table1_timers },
    Experiment { id: "table2", paper: "Table 2", run: table2_caches },
    Experiment { id: "fig5a", paper: "Figure 5(a)", run: fig5a_dtlb_sweep },
    Experiment { id: "fig5b", paper: "Figure 5(b)", run: fig5b_cache_tlb_sweep },
    Experiment { id: "fig5c", paper: "Figure 5(c)", run: fig5c_itlb_sweep },
    Experiment { id: "fig6", paper: "Figure 6", run: fig6_tlb_hierarchy },
    Experiment { id: "fig7", paper: "Figure 7", run: fig7_timer_distributions },
    Experiment { id: "fig8a", paper: "Figure 8(a)", run: fig8a_data_oracle },
    Experiment { id: "fig8b", paper: "Figure 8(b)", run: fig8b_instr_oracle },
    Experiment { id: "sec43", paper: "Section 4.3", run: sec43_gadget_census },
    Experiment { id: "sec62", paper: "Section 6.2", run: sec62_pacmanos },
    Experiment { id: "sec82_speed", paper: "Section 8.2", run: sec82_bruteforce_speed },
    Experiment { id: "sec82_accuracy", paper: "Section 8.2", run: sec82_bruteforce_accuracy },
    Experiment { id: "sec83", paper: "Section 8.3", run: sec83_jump2win },
    Experiment { id: "sec9", paper: "Section 9 + 4.2", run: sec9_mitigations },
    Experiment { id: "ablations", paper: "Sections 1, 4.3, 7.4", run: ablations },
    Experiment { id: "conform", paper: "Sections 5-6 boundary", run: conform },
];

/// The row with id `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Table 1: summary of timers on M1, regenerated by measurement.
fn table1_timers(ctx: &Ctx) -> DriverResult {
    let mut sys = quiet_system();
    let rows = table1(&mut sys)?;
    ctx.absorb_machine(&sys.machine);
    let yes_no = |b: bool| if b { "Yes" } else { "No" }.to_string();
    let mut t =
        Table::new("Table 1: timers", &["timer", "MSR", "EL0 enabled?", "resolves dTLB hit/miss?"]);
    for r in &rows {
        t.row(&[
            r.name.to_string(),
            r.register.to_string(),
            yes_no(r.el0_by_default),
            yes_no(r.usable_for_attack),
        ]);
    }
    let mut art = Artifact::new("table1", "Table 1 - timers on the M1-like platform");
    art.table("timers", &t);
    for (prefix, r) in [("cntpct", &rows[0]), ("pmc0", &rows[1]), ("multithread", &rows[2])] {
        art.field(&format!("{prefix}_el0_readable"), Value::Bool(r.el0_by_default));
        art.field(&format!("{prefix}_attack_usable"), Value::Bool(r.usable_for_attack));
    }
    Ok(art)
}

/// Table 2: cache configurations read from the simulated config
/// registers.
fn table2_caches(_: &Ctx) -> DriverResult {
    let mut t =
        Table::new("Table 2: caches", &["cluster", "level", "ways", "sets", "line", "total"]);
    for (name, core) in [("p-core", CoreKind::PCore), ("e-core", CoreKind::ECore)] {
        let c = ClusterCaches::for_core(core);
        for (level, p) in [("L1I", c.l1i), ("L1D", c.l1d), ("L2", c.l2)] {
            t.row(&[
                name.into(),
                level.into(),
                p.ways.to_string(),
                p.sets.to_string(),
                format!("{} B", p.line),
                format!("{} KB", p.total_bytes() / 1024),
            ]);
        }
    }
    let p = ClusterCaches::for_core(CoreKind::PCore);
    let e = ClusterCaches::for_core(CoreKind::ECore);
    let geometry = [("L1I", p.l1i), ("L1D", p.l1d), ("L2", p.l2)]
        .map(|(level, c)| format!("{level} {}w x {}s x {}B", c.ways, c.sets, c.line))
        .join(", ");

    let mut art = Artifact::new("table2", "Table 2 - cache configurations via system registers");
    art.table("caches", &t);
    art.num("pcore_l1i_kb", p.l1i.total_bytes() / 1024)
        .num("pcore_l1d_kb", p.l1d.total_bytes() / 1024)
        .num("pcore_l2_mb", p.l2.total_bytes() / 1024 / 1024)
        .num("ecore_l1i_kb", e.l1i.total_bytes() / 1024)
        .num("ecore_l1d_kb", e.l1d.total_bytes() / 1024)
        .num("ecore_l2_mb", e.l2.total_bytes() / 1024 / 1024)
        .num("l1_line_bytes", p.l1d.line)
        .num("l2_line_bytes", p.l2.line)
        .num("pcore_l1d_effective_ways", p.l1d_effective_ways as u64)
        .text("pcore_geometry", &geometry);
    Ok(art)
}

/// Runs one §7 sweep on the executor and charts its series.
fn sweep(
    ctx: &Ctx,
    kind: SweepKind,
    strides: &[u64],
) -> Result<(Vec<SweepSeries>, AsciiChart), DriverError> {
    let (series, reg) = parallel_sweep(kind, strides, ctx.jobs, &ctx.tol)?;
    ctx.absorb(&reg);
    let mut chart = AsciiChart::new("median reload latency (cycles) vs N");
    for s in &series {
        chart.series(
            format!("stride {}", s.label),
            s.points.iter().map(|p| (p.n, p.median)).collect(),
        );
    }
    Ok((series, chart))
}

/// The median at `n`, which every sweep measures for `n` in 1..=30.
fn at(s: &SweepSeries, n: usize) -> u64 {
    s.at(n).expect("sweeps measure N = 1..=30")
}

/// Figure 5(a): dTLB / L2 TLB stride sweep (cache-conflict-free loads).
fn fig5a_dtlb_sweep(ctx: &Ctx) -> DriverResult {
    let (series, chart) = sweep(ctx, SweepKind::DataTlb, &[1, 32, 256, 2048])?;
    let (flat, s256, s2048) = (&series[0], &series[2], &series[3]);
    let (a, b, c) = (at(flat, 10), at(s256, 14), at(s2048, 25));
    let mut art = Artifact::new("fig5a", "Figure 5(a) - data-load dTLB/L2-TLB stride sweep");
    art.chart("latency_vs_n", &chart);
    art.num("baseline_plateau_cycles", a);
    art.num("dtlb_miss_plateau_cycles", b);
    art.num("l2_tlb_miss_plateau_cycles", c);
    if let Some(n) = s256.knee_above(90) {
        art.num("dtlb_knee_n", n as u64);
    }
    if let Some(n) = s2048.knee_above(110) {
        art.num("l2_tlb_knee_n", n as u64);
    }
    art.num("flat_stride_max_cycles", flat.points.iter().map(|p| p.median).max().unwrap_or(0));
    art.field("plateaus_ordered", Value::Bool(a < b && b < c));
    Ok(art)
}

/// Figure 5(b): cache/TLB interaction sweep (raw-stride loads).
fn fig5b_cache_tlb_sweep(ctx: &Ctx) -> DriverResult {
    let strides = [256 * 128, 256 * 16384, 2048 * 16384];
    let (series, chart) = sweep(ctx, SweepKind::CacheTlb, &strides)?;
    let (l1d, dtlb, l2) = (&series[0], &series[1], &series[2]);
    let (base, a, b, c) = (at(l1d, 2), at(l1d, 6), at(dtlb, 14), at(l2, 25));
    let mut art = Artifact::new("fig5b", "Figure 5(b) - cache/TLB interaction sweep");
    art.chart("latency_vs_n", &chart);
    art.num("baseline_cycles", base);
    art.num("l1d_conflict_plateau_cycles", a);
    art.num("dtlb_plateau_cycles", b);
    art.num("l2_tlb_plateau_cycles", c);
    for (key, s, threshold) in
        [("l1d_knee_n", l1d, 75), ("dtlb_knee_n", dtlb, 105), ("l2_tlb_knee_n", l2, 125)]
    {
        if let Some(n) = s.knee_above(threshold) {
            art.num(key, n as u64);
        }
    }
    art.field("staircase_ordered", Value::Bool(base < a && a < b && b < c));
    Ok(art)
}

/// Figure 5(c): iTLB sweep via branch targets, reload measured as data.
fn fig5c_itlb_sweep(ctx: &Ctx) -> DriverResult {
    let (series, chart) = sweep(ctx, SweepKind::Itlb, &[32, 256, 2048])?;
    let (s32, s256, s2048) = (&series[0], &series[1], &series[2]);
    let mut art = Artifact::new("fig5c", "Figure 5(c) - instruction-fetch iTLB sweep");
    art.chart("latency_vs_n", &chart);
    art.num("itlb_resident_cycles", at(s32, 1));
    art.num("post_eviction_cycles", at(s32, 6));
    if let Some(n) = s32.knee_below(90) {
        art.num("itlb_knee_n", n as u64);
    }
    art.field("migrated_visible_at_n30", Value::Bool(at(s32, 30) < 90));
    art.num("dtlb_conflict_cycles", at(s256, 30));
    art.num("l2_conflict_cycles", at(s2048, 30));
    Ok(art)
}

/// Figure 6: the TLB hierarchy, derived from timing alone.
fn fig6_tlb_hierarchy(ctx: &Ctx) -> DriverResult {
    let mut machine = experiment_machine();
    let f = derive_hierarchy(&mut machine)?;
    ctx.absorb_machine(&machine);
    let t = ClusterTlbs::m1();
    let configured = format!(
        "iTLB {}w x {}s, dTLB {}w x {}s, L2 {}w x {}s",
        t.itlb.ways, t.itlb.sets, t.dtlb.ways, t.dtlb.sets, t.l2.ways, t.l2.sets
    );
    let mut art = Artifact::new("fig6", "Figure 6 - TLB hierarchy recovered by measurement");
    art.num("itlb_ways", f.itlb_ways as u64)
        .num("dtlb_ways", f.dtlb_ways as u64)
        .num("l2_ways", f.l2_ways as u64)
        .field("itlb_victims_visible_to_loads", Value::Bool(f.itlb_victims_visible_to_loads))
        .text("configured_geometry", &configured);
    Ok(art)
}

/// Figure 7: latency distributions under PMC0 and the multi-thread
/// timer.
fn fig7_timer_distributions(ctx: &Ctx) -> DriverResult {
    const SAMPLES: usize = 500;
    let mut sys = quiet_system();
    // (a) Apple performance counter, after the kext unlock (§6.1).
    let pmc = sys.pmc;
    pmc.enable(&mut sys.kernel, &mut sys.machine);
    sys.machine.set_timing_source(TimingSource::Pmc0);
    let a = evaluate_timer(&mut sys, SAMPLES)?;
    // (b) The userspace multi-thread timer.
    sys.machine.set_timing_source(TimingSource::MultiThread);
    let b = evaluate_timer(&mut sys, SAMPLES)?;
    ctx.absorb_machine(&sys.machine);

    let mut art = Artifact::new("fig7", "Figure 7 - access-latency distributions per timer");
    art.num("samples", SAMPLES as u64);
    art.num("pmc_hit_median_cycles", a.dtlb_hits.median().unwrap_or(0));
    art.num("pmc_miss_median_cycles", a.dtlb_misses.median().unwrap_or(0));
    art.num("pmc_walk_median_cycles", a.walks.median().unwrap_or(0));
    art.num("mt_hit_max_ticks", b.dtlb_hits.max().unwrap_or(0));
    art.num("mt_miss_min_ticks", b.dtlb_misses.min().unwrap_or(0));
    if let Some(t) = b.threshold {
        art.num("mt_threshold_ticks", t);
    }
    art.field("pmc_usable", Value::Bool(a.is_usable()));
    art.field("mt_usable", Value::Bool(b.is_usable()));
    art.field(
        "mt_walks_slower_than_misses",
        Value::Bool(b.walks.median() > b.dtlb_misses.median()),
    );
    Ok(art)
}

/// Figure 8: `trials` correct/wrong oracle pairs under OS noise, as
/// miss-count distributions.
fn oracle_figure(
    ctx: &Ctx,
    id: &str,
    description: &str,
    channel: Channel,
    trials: usize,
    wrong_for: fn(usize, u16) -> u16,
) -> DriverResult {
    let out = oracle_distribution(
        &noisy_config(),
        channel,
        1,
        trials,
        ctx.jobs,
        true,
        &ctx.tol,
        wrong_for,
    )?;
    ctx.absorb(&out.telemetry);
    let good: u64 = out.correct_misses[CORRECT_MISS_THRESHOLD..].iter().sum();
    let clean: u64 = out.incorrect_misses[..=1].iter().sum();
    let pct = |n: u64| 100.0 * n as f64 / trials as f64;
    let miss_hist = |h: &[u64]| Value::Array(h.iter().map(|&n| Value::UInt(n)).collect());
    let mut art = Artifact::new(id, description);
    art.num("trials", trials as u64)
        .num("threshold_misses", CORRECT_MISS_THRESHOLD as u64)
        .float("correct_detect_pct", pct(good))
        .float("incorrect_clean_pct", pct(clean))
        .num("crashes", out.crashes)
        .field("correct_miss_histogram", miss_hist(&out.correct_misses))
        .field("incorrect_miss_histogram", miss_hist(&out.incorrect_misses));
    Ok(art)
}

/// Figure 8(a): PAC-oracle miss-count distributions, data gadget.
fn fig8a_data_oracle(ctx: &Ctx) -> DriverResult {
    oracle_figure(
        ctx,
        "fig8a",
        "Figure 8(a) - PAC oracle, data PACMAN gadget",
        Channel::Data,
        500,
        |i, tp| tp ^ ((i as u16).wrapping_mul(2654435761u32 as u16) | 1),
    )
}

/// Figure 8(b): PAC-oracle miss-count distributions, instruction
/// gadget.
fn fig8b_instr_oracle(ctx: &Ctx) -> DriverResult {
    oracle_figure(
        ctx,
        "fig8b",
        "Figure 8(b) - PAC oracle, instruction PACMAN gadget",
        Channel::Instr,
        300,
        |i, tp| tp ^ ((i as u16).wrapping_mul(40503) | 1),
    )
}

/// §4.3: the PACMAN-gadget census over a synthetic PA-enabled image.
fn sec43_gadget_census(ctx: &Ctx) -> DriverResult {
    const FUNCTIONS: usize = 4000;
    let spec = ImageSpec { functions: FUNCTIONS, seed: 0xC0DE, ..ImageSpec::default() };
    let census = |spec: &ImageSpec| -> Result<_, DriverError> {
        let (report, reg) = parallel_census(spec, &ScanConfig::default(), ctx.jobs, &ctx.tol)?;
        ctx.absorb(&reg);
        Ok(report)
    };
    let report = census(&spec)?;
    let mut t = Table::new(
        format!(
            "census over {} synthetic functions ({} instructions)",
            FUNCTIONS, report.instructions
        ),
        &["metric", "value"],
    );
    t.row(&["conditional branches inspected".into(), report.conditional_branches.to_string()]);
    t.row(&["potential PACMAN gadgets".into(), report.total().to_string()]);
    t.row(&["data gadgets".into(), report.data_count().to_string()]);
    t.row(&["instruction gadgets".into(), report.instruction_count().to_string()]);
    t.row(&["mean branch->transmit distance".into(), format!("{:.1}", report.mean_distance())]);

    let ratio = report.instruction_count() as f64 / report.data_count().max(1) as f64;
    let clean_spec = ImageSpec { pa_percent: 0, ..spec };
    let clean_total = census(&clean_spec)?.total();
    let mut art = Artifact::new("sec43", "Section 4.3 - PACMAN-gadget census");
    art.table("census", &t);
    art.num("functions", FUNCTIONS as u64)
        .num("instructions", report.instructions as u64)
        .num("conditional_branches", report.conditional_branches as u64)
        .num("total_gadgets", report.total() as u64)
        .num("data_gadgets", report.data_count() as u64)
        .num("instruction_gadgets", report.instruction_count() as u64)
        .float("gadgets_per_function", report.total() as f64 / FUNCTIONS as f64)
        .float("instr_to_data_ratio", ratio)
        .float("mean_distance", report.mean_distance())
        .num("gadgets_without_pa", clean_total as u64);
    Ok(art)
}

/// §6.2: PacmanOS bare-metal experiments, including the automated
/// rediscovery of the Figure 6 TLB organisation with no priors.
fn sec62_pacmanos(ctx: &Ctx) -> DriverResult {
    let mut os = BareMetal::boot_default();
    let msr = os.run(&mut MsrInventory::new());
    let timers = os.run(&mut TimerResolution::new());
    let mut tlb = TlbParameterSearch::new();
    let search = os.run(&mut tlb);
    ctx.absorb_machine(&os.machine);
    let mut art = Artifact::new("sec62", "Section 6.2 - PacmanOS bare-metal experiments");
    art.field("msr_ok", Value::Bool(msr.ok)).field("timer_ok", Value::Bool(timers.ok));
    art.field("search_ok", Value::Bool(search.ok));
    for (name, found) in [("dtlb", tlb.dtlb), ("l2", tlb.l2), ("itlb", tlb.itlb)] {
        if let Some(r) = found {
            art.num(&format!("{name}_sets"), r.sets);
            art.num(&format!("{name}_ways"), r.ways as u64);
        }
    }
    // Each experiment's log, its name, cycles and status on its first line.
    let mut log = Table::new("PacmanOS log", &["experiment", "cycles", "status", "log"]);
    for r in [&msr, &timers, &search] {
        let status = if r.ok { "ok" } else { "FAILED" };
        for (i, line) in r.lines.iter().enumerate() {
            let head = [r.name.to_string(), r.cycles.to_string(), status.to_string()];
            let [name, cycles, status] = if i == 0 { head } else { Default::default() };
            log.row(&[name, cycles, status, line.clone()]);
        }
    }
    art.table("experiment_log", &log);
    Ok(art)
}

/// §8.2: brute-force speed — time per PAC guess (64 training
/// iterations each) and the full-space estimate.
fn sec82_bruteforce_speed(ctx: &Ctx) -> DriverResult {
    const GUESSES: u16 = 64;
    let cfg = quiet_config();
    // Sweep a window that deliberately excludes the true PAC so every
    // guess pays the full test cost. The target and its true PAC are a
    // function of the kernel seed, so a probe boot sees the same values
    // as every worker shard.
    let mut probe = System::boot(cfg.clone());
    let set = probe.pick_quiet_dtlb_set();
    let target = probe.alloc_target(set);
    let true_pac = probe.true_pac(target);
    let window: Vec<u16> = (0..GUESSES).map(|i| true_pac ^ (0x4000 + i)).collect();
    let brute = parallel_brute(&cfg, Channel::Data, 1, &window, ctx.jobs, true, &ctx.tol)?;
    ctx.absorb(&brute.telemetry);
    let outcome = brute.outcome;

    let clock = probe.machine.config().clock_hz;
    let mut art = Artifact::new("sec82_speed", "Section 8.2 - brute-force speed");
    art.num("guesses_tested", outcome.guesses_tested)
        .num("syscalls", outcome.syscalls)
        .num("cycles", outcome.cycles)
        .num("crashes", outcome.crashes)
        .num("syscalls_per_guess", outcome.syscalls / outcome.guesses_tested)
        .float("ms_per_guess", outcome.ms_per_guess(clock))
        .float("full_space_minutes", outcome.minutes_for_full_space(clock));
    Ok(art)
}

/// §8.2: brute-force accuracy under noise — TP / FP / FN over 50 runs
/// of 5 samples per guess and the median rule.
fn sec82_bruteforce_accuracy(ctx: &Ctx) -> DriverResult {
    const RUNS: usize = 50;
    // Each run sweeps a small window containing the true PAC (the
    // full-space sweep visits it eventually; the window keeps the run
    // short with identical per-guess behaviour).
    let out = parallel_accuracy(
        &noisy_config(),
        Channel::Data,
        5,
        RUNS,
        ctx.jobs,
        &ctx.tol,
        |run, tp| {
            let start = tp.wrapping_sub(3).wrapping_add((run % 3) as u16);
            (0..8u16).map(|i| start.wrapping_add(i)).collect()
        },
    )?;
    ctx.absorb(&out.telemetry);
    let mut art = Artifact::new("sec82_accuracy", "Section 8.2 - brute-force accuracy");
    art.num("runs", RUNS as u64)
        .num("true_positives", out.true_positives)
        .num("false_positives", out.false_positives)
        .num("false_negatives", out.false_negatives)
        .float("tp_rate_pct", 100.0 * out.true_positives as f64 / RUNS as f64)
        .num("crashes", out.crashes);
    Ok(art)
}

/// §8.3: the Jump2Win control-flow hijack, measured end to end over a
/// 512-candidate window per phase centred on the true PACs (the same
/// per-guess behaviour as the full 2^16 sweep, at bounded runtime).
fn sec83_jump2win(ctx: &Ctx) -> DriverResult {
    let cfg = quiet_config();
    let windows = centred_windows(&cfg, 512)?;
    let (report, telemetry) = parallel_jump2win(&cfg, windows, ctx.jobs, true, &ctx.tol)?;
    ctx.absorb(&telemetry);

    // Each window is centred on its phase's ground-truth PAC.
    let truth = windows.map(|(start, len)| start.wrapping_add((len / 2) as u16));
    let pacs_ok = [report.pac_win, report.pac_vtable] == truth;
    let mut art = Artifact::new("sec83", "Section 8.3 - Jump2Win control-flow hijack");
    art.num("pac_win", u64::from(report.pac_win))
        .num("pac_vtable", u64::from(report.pac_vtable))
        .num("guesses_tested", report.guesses_tested)
        .num("syscalls", report.syscalls)
        .num("crashes", report.crashes)
        .float("attack_seconds", report.cycles as f64 / cfg.machine.clock_hz as f64)
        .field("hijacked", Value::Bool(report.hijacked))
        .field("pacs_authenticate", Value::Bool(pacs_ok));
    Ok(art)
}

/// §9: the countermeasure matrix and the §4.2 eager-squash ablation.
fn sec9_mitigations(ctx: &Ctx) -> DriverResult {
    let reports = evaluate_all();
    let report = |m: Mitigation| reports.iter().find(|r| r.mitigation == m).expect("evaluated");
    let baseline = report(Mitigation::None);
    let overhead = |cycles: u64| {
        100.0 * (cycles as f64 - baseline.benign_cycles as f64) / baseline.benign_cycles as f64
    };
    let mut t = Table::new(
        "mitigation matrix",
        &["mitigation", "data oracle", "instr oracle", "surface", "benign overhead"],
    );
    let works = |w: bool| if w { "works" } else { "blind" }.to_string();
    for r in &reports {
        t.row(&[
            format!("{:?}", r.mitigation),
            works(r.data_oracle_works),
            works(r.instr_oracle_works),
            format!("{:?}", r.surface()),
            format!("{:+.1}%", overhead(r.benign_cycles)),
        ]);
    }
    let all_protect = reports
        .iter()
        .filter(|r| r.mitigation != Mitigation::None)
        .all(|r| r.surface() == AttackSurface::Protected);
    let lazy = evaluate_with_squash(Mitigation::None, SquashPolicy::Lazy);
    for r in reports.iter().chain([&lazy]) {
        ctx.absorb(&r.telemetry);
    }

    let mut art = Artifact::new("sec9", "Section 9 - countermeasure matrix + squash ablation");
    art.table("mitigation_matrix", &t);
    art.float(
        "fence_after_aut_overhead_pct",
        overhead(report(Mitigation::FenceAfterAut).benign_cycles),
    );
    art.text("baseline_surface", &format!("{:?}", baseline.surface()));
    art.field("all_mitigations_protect", Value::Bool(all_protect));
    art.text("lazy_squash_surface", &format!("{:?}", lazy.surface()));
    Ok(art)
}

/// Whether the data oracle tells the true PAC from wrong ones on `sys`;
/// the machine's counters go into `ctx`.
fn data_oracle_works(ctx: &Ctx, mut sys: System) -> bool {
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let works = DataPacOracle::new(&mut sys)
        .is_ok_and(|mut o| oracle_works(&mut sys, &mut o, target, true_pac));
    ctx.absorb_machine(&sys.machine);
    works
}

/// Boots a noise-free system with `tweak` applied to its config.
fn quiet_with(tweak: impl FnOnce(&mut SystemConfig)) -> System {
    let mut cfg = quiet_config();
    tweak(&mut cfg);
    System::boot(cfg)
}

/// Ablations of the design choices DESIGN.md calls out:
///
/// 1. **Speculation window** — the gadget body (3 instructions past
///    BR1) must fit down the wrong path.
/// 2. **Timer choice** — Table 1 at attack level: the oracle collapses
///    under the 24 MHz counter.
/// 3. **PAC width** — §1's 11–31 PAC bits; brute-force cost scales
///    2^bits at the measured per-guess time.
/// 4. **Scanner depth** — register-only (the paper's tool) vs
///    stack-tracking dataflow.
fn ablations(ctx: &Ctx) -> DriverResult {
    let windows: Vec<(u32, bool)> = [1u32, 2, 3, 8, 48]
        .into_iter()
        .map(|w| (w, data_oracle_works(ctx, quiet_with(|c| c.machine.speculation_window = w))))
        .collect();
    let timer_works =
        |source: TimingSource| data_oracle_works(ctx, quiet_with(|c| c.timing = source));
    let system_counter_works = timer_works(TimingSource::SystemCounter);
    let multithread_works = timer_works(TimingSource::MultiThread);

    // The per-guess cost measured by `sec82_speed`.
    let ms_per_guess = 2.65;
    let mut t = Table::new(
        "ablation 3: PAC width vs expected brute-force time (at 2.65 ms/guess)",
        &["VA bits", "PAC bits", "space", "expected sweep"],
    );
    for va_bits in [53u32, 48, 44, 39, 33] {
        let bits = pac_field_bits(va_bits);
        let secs = ms_per_guess * (1u64 << bits) as f64 / 1000.0;
        let human = if secs < 60.0 {
            format!("{secs:.1} s")
        } else if secs < 3600.0 {
            format!("{:.1} min", secs / 60.0)
        } else {
            format!("{:.1} h", secs / 3600.0)
        };
        t.row(&[va_bits.to_string(), bits.to_string(), format!("2^{bits}"), human]);
    }

    let image = synthesize(&ImageSpec { functions: 800, seed: 9, ..ImageSpec::default() });
    let plain = scan_image(&image.bytes, &ScanConfig::default()).total();
    let deep = scan_image(&image.bytes, &ScanConfig { track_stack: true, ..ScanConfig::default() })
        .total();

    let mut art = Artifact::new("ablations", "design-choice ablations");
    if let Some(&(w, _)) = windows.iter().filter(|(_, ok)| *ok).min_by_key(|(w, _)| *w) {
        art.num("min_oracle_window", u64::from(w));
    }
    art.field("system_counter_blind", Value::Bool(!system_counter_works));
    art.field("multithread_timer_works", Value::Bool(multithread_works));
    art.table("pac_width_sweep", &t);
    art.num("pac_bits_53va", u64::from(pac_field_bits(53)))
        .num("pac_bits_48va", u64::from(pac_field_bits(48)))
        .num("pac_bits_33va", u64::from(pac_field_bits(33)))
        .num("register_only_gadgets", plain as u64)
        .num("stack_tracking_gadgets", deep as u64)
        .field("stack_tracking_gain", Value::Int(deep as i64 - plain as i64));
    art.field(
        "window_cutoff_at_gadget_length",
        Value::Bool(windows.iter().all(|&(w, ok)| ok == (w >= 3))),
    );
    Ok(art)
}

/// Differential conformance: the speculative core versus the in-order
/// architectural reference machine, plus the injected-bug self-test.
///
/// Not a paper table — this artefact underwrites all the others: every
/// figure rides on the simulator committing exactly the architectural
/// state an in-order machine would (the paper's §5–6 boundary).
fn conform(ctx: &Ctx) -> DriverResult {
    let cfg = ConformConfig { programs: 500, ..ConformConfig::default() };
    let report = run_conformance(&cfg, ctx.jobs, &ctx.tol)?;
    ctx.absorb(&report.telemetry);
    let self_results = self_test(cfg.seed, 64, cfg.max_steps);
    let detected = self_results.iter().filter(|r| r.detected()).count();

    let mut t = Table::new(
        format!("{} seeded programs, lockstep retire-boundary equivalence", cfg.programs),
        &["metric", "value"],
    );
    t.row(&["programs".into(), report.programs.to_string()]);
    t.row(&["divergences".into(), report.divergences.len().to_string()]);
    for r in &self_results {
        t.row(&[
            format!("self-test: {}", r.name),
            match &r.divergence {
                Some(d) => format!("detected ({} at step {})", d.kind, d.step),
                None => "NOT DETECTED".into(),
            },
        ]);
    }
    let ok = report.conforms() && detected == self_results.len();
    let mut art = Artifact::new("conform", "differential conformance harness");
    art.table("conformance", &t);
    art.num("programs", report.programs)
        .num("divergences", report.divergences.len() as u64)
        .num("self_test_bugs_detected", detected as u64)
        .num("self_test_expected", self_results.len() as u64)
        .field("ok", Value::Bool(ok));
    Ok(art)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_findable() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|o| o.id != e.id), "duplicate id {}", e.id);
            assert_eq!(find(e.id).map(|f| f.id), Some(e.id));
        }
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn a_sharded_row_is_byte_identical_at_any_jobs_and_under_faults() {
        use pacman_core::fault::FaultPlan;
        for id in ["sec43", "sec82_accuracy", "sec83"] {
            let run = |jobs: usize, tol: Tolerance| {
                let ctx = Ctx::new(jobs, tol);
                let art = (find(id).expect("row").run)(&ctx).expect("row runs");
                (art.to_json().to_string(), ctx.telemetry().counter_value("runner.retries"))
            };
            let (serial, _) = run(1, Tolerance::default());
            let (wide, _) = run(4, Tolerance::default());
            // The CI fault drill's plan: its seed at the default rate.
            let faults =
                Tolerance { faults: FaultPlan::new(4_195_909_357, 0.2), ..Tolerance::default() };
            let (faulted, retries) = run(4, faults);
            assert!(retries > 0, "{id}: the fault plan never fired");
            assert_eq!(serial, wide, "{id}: jobs=1 and jobs=4 differ");
            assert_eq!(serial, faulted, "{id}: a recovered fault plan changed the artifact");
        }
    }

    #[test]
    fn a_single_machine_row_feeds_its_counters_into_the_context() {
        let ctx = Ctx::new(1, Tolerance::default());
        (find("fig6").expect("fig6 row").run)(&ctx).expect("fig6 runs");
        assert!(ctx.telemetry().counter_value("tlb.walks") > 0);
    }

    #[test]
    fn the_mitigation_and_ablation_rows_feed_their_machine_counters_into_the_context() {
        for id in ["sec9", "ablations"] {
            let ctx = Ctx::new(1, Tolerance::default());
            (find(id).expect("row").run)(&ctx).expect("row runs");
            let reg = ctx.telemetry();
            for counter in ["tlb.walks", "cache.l1d.hits", "cpu.retired"] {
                assert!(reg.counter_value(counter) > 0, "{id}: {counter}");
            }
        }
    }

    #[test]
    fn the_pacmanos_row_feeds_its_machine_counters_into_the_context() {
        let ctx = Ctx::new(1, Tolerance::default());
        (find("sec62").expect("sec62 row").run)(&ctx).expect("sec62 runs");
        assert!(ctx.telemetry().counter_value("tlb.walks") > 0);
    }
}
