//! The in-process workloads: back-to-back §8.1 oracle campaigns
//! (`oracle_campaign`) and §8.2 brute-force windows (`brute_window`),
//! each a closed loop with one client calling the `pacman-core` drivers
//! on the process-wide executor.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pacman_core::fault::Tolerance;
use pacman_core::parallel::{oracle_distribution, parallel_brute, Channel};
use pacman_core::{pool, System, SystemConfig};
use pacman_runner::mix64;
use pacman_telemetry::json::Value;
use pacman_telemetry::{trace, Snapshot, SpanEvent};

use crate::probes::{self, BENCH_TID};
use crate::report::{Digest, Report, SimStats};
use crate::stats::{median, min_samples_for, percentile, TAIL_SAMPLES};
use crate::Ctx;

/// Worker threads every campaign may use (the benchmark host has two
/// cores; all load comes from one process).
pub const JOBS: usize = 2;
/// Distinct inputs per workload; the timed loop cycles through them.
pub const CYCLE: usize = 8;
/// Correct/wrong trial pairs per oracle campaign (Figure 8(a), one
/// sample per test as the CLI `oracle` command runs).
pub const ORACLE_TRIALS: usize = 256;
/// Candidates per brute-force window (§8.2, five samples per guess).
pub const BRUTE_WINDOW: usize = 128;
/// Prime+Probe samples per brute-force guess.
pub const BRUTE_SAMPLES: usize = 5;
/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 7;
/// Wall-clock cap on a timed loop, far below the 180 s run limit.
const HARD_CAP: Duration = Duration::from_secs(120);

/// Which §8 experiment an in-process workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `oracle_distribution` campaigns.
    Oracle,
    /// `parallel_brute` sweeps.
    Brute,
}

/// The target every campaign shard picks and its true PAC, read from a
/// probe boot with `System::true_pac` (evaluation-only ground truth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroundTruth {
    /// The target pointer.
    pub target: u64,
    /// Its true PAC.
    pub true_pac: u16,
    /// The modelled clock, for simulated milliseconds.
    pub clock_hz: u64,
}

impl GroundTruth {
    /// Boots `cfg` and reads the ground truth the way the CLI does.
    pub fn of(cfg: &SystemConfig) -> Self {
        let mut sys = System::boot(cfg.clone());
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        GroundTruth {
            target,
            true_pac: sys.true_pac(target),
            clock_hz: sys.machine.config().clock_hz,
        }
    }
}

/// A brute-force window of `BRUTE_WINDOW` consecutive candidates that
/// contains `true_pac` (at a position drawn from `r`) or, when
/// `contains` is false, lies entirely outside it.
pub fn window(true_pac: u16, contains: bool, r: u64) -> Vec<u16> {
    let w = BRUTE_WINDOW as u64;
    let start = if contains {
        true_pac.wrapping_sub((r % w) as u16)
    } else {
        // Offsets 1 + r' ..= r' + w from the true PAC, r' < 65536 - w,
        // never wrap round to it.
        true_pac.wrapping_add(1 + (r % (65536 - w)) as u16)
    };
    (0..BRUTE_WINDOW).map(|k| start.wrapping_add(k as u16)).collect()
}

/// One workload's inputs, all derived from the run seed.
pub struct Campaigns {
    kind: Kind,
    seed: u64,
    base: SystemConfig,
    /// Ground truth of the seed's kernel.
    pub truth: GroundTruth,
    windows: Vec<Vec<u16>>,
}

/// The checked output of one operation.
pub struct OpOut {
    /// Simulated statistics (identical on every run of the same input).
    pub stats: SimStats,
    /// The campaign's merged registry.
    pub snap: Snapshot,
    /// Why the output is wrong, if it is.
    pub problem: Option<String>,
}

impl Campaigns {
    /// Derives the inputs: one kernel (keys, layout, target) per seed,
    /// a machine seed per input, and for brute force a window per input,
    /// alternately containing and excluding the true PAC.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let base = SystemConfig { kernel_seed: mix64(seed, 0), ..SystemConfig::default() };
        let truth = GroundTruth::of(&base);
        let windows = match kind {
            Kind::Oracle => Vec::new(),
            Kind::Brute => (0..CYCLE)
                .map(|i| window(truth.true_pac, i % 2 == 0, mix64(seed, 100 + i as u64)))
                .collect(),
        };
        Campaigns { kind, seed, base, truth, windows }
    }

    /// The configuration of input `i` (default OS noise, as the CLI runs).
    pub fn config(&self, i: usize, profile: bool) -> SystemConfig {
        let mut cfg = self.base.clone();
        cfg.machine.seed = mix64(self.seed, 1 + (i % CYCLE) as u64);
        cfg.machine.profile = profile;
        cfg
    }

    /// Oracle samples per PAC test.
    pub fn samples(&self) -> usize {
        match self.kind {
            Kind::Oracle => 1,
            Kind::Brute => BRUTE_SAMPLES,
        }
    }

    /// Runs input `i` and checks its output against ground truth.
    pub fn run(&self, i: usize, profile: bool) -> Result<OpOut, String> {
        let cfg = self.config(i, profile);
        let tol = Tolerance::default();
        let GroundTruth { target, true_pac, .. } = self.truth;
        match self.kind {
            Kind::Oracle => {
                let out = oracle_distribution(
                    &cfg,
                    Channel::Data,
                    1,
                    ORACLE_TRIALS,
                    JOBS,
                    true,
                    &tol,
                    |i, tp| tp ^ (1 + i as u16),
                )
                .map_err(|e| e.to_string())?;
                let mut problem = None;
                let mut note = |p: String| {
                    problem.get_or_insert(p);
                };
                if out.crashes != 0 {
                    note(format!("{} kernel crashes", out.crashes));
                }
                if (out.target, out.true_pac) != (target, true_pac) {
                    note("campaign target or PAC disagrees with System::true_pac".into());
                }
                if out.records.len() != 2 * ORACLE_TRIALS {
                    note(format!("{} trial records", out.records.len()));
                }
                let (mut matching, mut detected, mut clean) = (0, 0, 0);
                for r in &out.records {
                    let truth = r.guess == true_pac;
                    if r.ground_truth != Some(truth) {
                        note(format!("trial {} has the wrong ground truth", r.index));
                    }
                    matching += u64::from(r.correct == truth);
                    detected += u64::from(truth && r.correct);
                    clean += u64::from(!truth && !r.correct);
                }
                if (detected, clean) != (out.correct_detected, out.incorrect_clean) {
                    note("verdict totals disagree with the trial records".into());
                }
                let snap = out.telemetry.snapshot();
                let cycles = out.telemetry.histogram("oracle.trial.cycles").map_or(0, |h| h.sum());
                let tests = out.records.len() as u64;
                let stats = SimStats::new(|k| snap.counter(k), cycles, tests, matching);
                Ok(OpOut { stats, snap, problem })
            }
            Kind::Brute => {
                let candidates = &self.windows[i % CYCLE];
                let out = parallel_brute(
                    &cfg,
                    Channel::Data,
                    BRUTE_SAMPLES,
                    candidates,
                    JOBS,
                    true,
                    &tol,
                )
                .map_err(|e| e.to_string())?;
                let want = candidates.contains(&true_pac).then_some(true_pac);
                let o = &out.outcome;
                let mut problem = None;
                if o.crashes != 0 {
                    problem = Some(format!("{} kernel crashes", o.crashes));
                } else if (out.target, out.true_pac) != (target, true_pac) {
                    problem = Some("sweep target or PAC disagrees with System::true_pac".into());
                } else if o.found != want {
                    problem = Some(format!("found {:?}, ground truth {want:?}", o.found));
                }
                let snap = out.telemetry.snapshot();
                let matching = u64::from(o.found == want);
                let stats =
                    SimStats::new(|k| snap.counter(k), o.cycles, o.guesses_tested, matching);
                Ok(OpOut { stats, snap, problem })
            }
        }
    }

    /// Share of verdicts matching ground truth: per test for the oracle,
    /// per window for brute force.
    pub fn accuracy(&self, digest: &Digest) -> f64 {
        let t = digest.total();
        match self.kind {
            Kind::Oracle => t.ratio("pac.verdicts_matching", "pac.tests"),
            Kind::Brute => t.get("pac.verdicts_matching") as f64 / digest.per_op.len() as f64,
        }
    }
}

/// What a stretch of back-to-back operations measured.
#[derive(Default)]
struct Stretch {
    /// Per-op wall time.
    lat_ms: Vec<f64>,
    /// Per-op latency on the CPU clock: the process's CPU time during the
    /// op ÷ `JOBS` (both workers are busy for most of an op).
    cpu_lat_ms: Vec<f64>,
    /// The process's CPU time during the ops.
    cpu_s: f64,
    retired: u64,
    tests: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    snaps: Vec<Snapshot>,
}

/// Runs operations `next, next + 1, ...` until `done(ops, elapsed)`,
/// checking each output and, per input, that its simulated statistics
/// equal those of the input's first run (kept in `first`).
fn stretch(
    c: &Campaigns,
    next: &mut usize,
    profile: bool,
    first: &mut BTreeMap<usize, SimStats>,
    done: impl Fn(usize, Duration) -> bool,
) -> Stretch {
    let mut s = Stretch::default();
    let rec = trace::recorder();
    let t0 = Instant::now();
    while !done(s.lat_ms.len(), t0.elapsed()) && t0.elapsed() < HARD_CAP {
        let i = *next;
        *next += 1;
        let span = rec.now_us();
        let cpu0 = probes::self_cpu_ns();
        let t = Instant::now();
        let out = c.run(i, profile);
        let secs = t.elapsed().as_secs_f64();
        let cpu_s = probes::self_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
        rec.complete(
            "bench.op",
            "bench",
            BENCH_TID,
            None,
            span,
            vec![("input".into(), Value::UInt((i % CYCLE) as u64))],
        );
        s.attempted += 1;
        s.lat_ms.push(secs * 1e3);
        s.cpu_lat_ms.push(cpu_s * 1e3 / JOBS as f64);
        s.cpu_s += cpu_s;
        let mut problem = None;
        match out {
            Ok(out) => {
                s.retired += out.stats.get("cpu.retired");
                s.tests += out.stats.get("pac.tests");
                let reference = first.entry(i % CYCLE).or_insert_with(|| out.stats.clone());
                if *reference != out.stats {
                    problem = Some(format!("input {} simulated differently on a rerun", i % CYCLE));
                }
                problem = out.problem.or(problem);
                s.snaps.push(out.snap);
            }
            Err(e) => problem = Some(e),
        }
        if let Some(p) = problem {
            s.failed += 1;
            s.problems.push(format!("op {i}: {p}"));
        }
    }
    s
}

/// The digest of the first run of every input, when all ran.
fn digest_of(first: &BTreeMap<usize, SimStats>) -> Option<Digest> {
    (first.len() == CYCLE).then(|| Digest { per_op: first.values().cloned().collect() })
}

/// Set-up, timed `SETUP_REPS` times on the CPU clock: derive the inputs
/// (a probe boot for ground truth) and run one warm-up operation, which
/// also fills the executor workers' machine pools. Returns the median
/// CPU seconds of one set-up.
fn setup(
    kind: Kind,
    seed: u64,
    first: &mut BTreeMap<usize, SimStats>,
    r: &mut Report,
) -> (Campaigns, f64) {
    let mut times = Vec::new();
    let mut campaigns = None;
    for _ in 0..SETUP_REPS {
        let cpu0 = probes::self_cpu_ns();
        let c = Campaigns::new(kind, seed);
        let mut next = 0;
        let warm = stretch(&c, &mut next, false, first, |ops, _| ops >= 1);
        times.push(probes::self_cpu_ns().saturating_sub(cpu0) as f64 / 1e9);
        for p in warm.problems {
            r.fail_check(format!("warm-up {p}"));
        }
        campaigns = Some(c);
    }
    (campaigns.expect("at least one set-up"), median(&times))
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(ctx: &Ctx, kind: Kind) -> Report {
    let mut r = Report::default();
    let mut first = BTreeMap::new();
    let (c, setup_s) = setup(kind, ctx.seed, &mut first, &mut r);
    let min_ops = min_samples_for(95.0, TAIL_SAMPLES).max(CYCLE);
    let seconds = ctx.seconds;
    let mut next = 0;
    let s = stretch(&c, &mut next, false, &mut first, |ops, t| {
        ops >= min_ops && t.as_secs_f64() >= seconds
    });
    r.attempted = s.attempted;
    r.failed = s.failed;
    for p in s.problems.iter().take(5) {
        eprintln!("perfbench: {p}");
    }
    let Some(digest) = digest_of(&first) else {
        r.fail_check("not every input completed");
        return r;
    };
    println!("{}", digest.line(&ctx.workload, ctx.seed).trim_end());
    let total = digest.total();
    r.set("setup_s", setup_s);
    r.set("pac_tests_per_cpu_s", s.tests as f64 / s.cpu_s);
    r.set("op_p50_cpu_ms", percentile(&s.cpu_lat_ms, 50.0).unwrap_or(0.0));
    r.set("op_p95_cpu_ms", percentile(&s.cpu_lat_ms, 95.0).unwrap_or(0.0));
    r.set("sim_instr_per_cpu_s", s.retired as f64 / s.cpu_s);
    r.set(
        "sim_ms_per_pac_test",
        total.ratio("cpu.cycles", "pac.tests") / c.truth.clock_hz as f64 * 1e3,
    );
    r.set("verdict_accuracy", c.accuracy(&digest));
    r.set("ok_op_frac", (s.attempted - s.failed) as f64 / s.attempted as f64);
    r.set("peak_rss_mb", probes::peak_rss_mb(std::process::id()).unwrap_or(0.0));
    r
}

/// Shard spans that ended inside each `bench.op` span: per op, the count,
/// the first completion after the op started and the gap between the
/// last two completions (the straggler), in ms.
pub fn shard_timing(events: &[SpanEvent]) -> (f64, f64, f64) {
    let ends: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "shard.exec")
        .filter_map(|e| e.dur_us.map(|d| e.start_us + d))
        .collect();
    let (mut counts, mut first, mut gap) = (Vec::new(), Vec::new(), Vec::new());
    for op in events.iter().filter(|e| e.name == "bench.op") {
        let (start, end) = (op.start_us, op.start_us + op.dur_us.unwrap_or(0));
        let mut inside: Vec<u64> =
            ends.iter().copied().filter(|&t| t >= start && t <= end).collect();
        inside.sort_unstable();
        counts.push(inside.len() as f64);
        if let [a, .., y, z] = inside[..] {
            first.push((a - start) as f64 / 1e3);
            gap.push((z - y) as f64 / 1e3);
        }
    }
    (median(&counts), median(&first), median(&gap))
}

/// Sum of a counter over snapshots.
fn counter_sum(snaps: &[Snapshot], name: &str) -> u64 {
    snaps.iter().map(|s| s.counter(name)).sum()
}

/// The per-instruction phase costs a profiled stretch attributed, in ns.
pub fn phase_ns_per_instr(snaps: &[Snapshot], r: &mut Report) {
    let retired = counter_sum(snaps, "cpu.retired").max(1) as f64;
    for (phase, metric) in [
        ("decode", "uarch.phase.decode_ns_per_instr"),
        ("dispatch", "uarch.phase.dispatch_ns_per_instr"),
        ("memory", "uarch.phase.memory_ns_per_instr"),
        ("qarma", "uarch.phase.qarma_ns_per_instr"),
    ] {
        let ns = counter_sum(snaps, &format!("profile.phase.{phase}.wall_ns"));
        r.set(metric, ns as f64 / retired);
    }
}

/// The simulator-layer ratios of one digest.
pub fn uarch_ratios(d: &Digest, r: &mut Report) {
    let t = d.total();
    r.set(
        "uarch.pac_memo_misses_per_op",
        t.get("exec.pac.memo_misses") as f64 / d.per_op.len() as f64,
    );
    r.set("uarch.retired_per_pac_test", t.ratio("cpu.retired", "pac.tests"));
    r.set("uarch.cycles_per_pac_test", t.ratio("cpu.cycles", "pac.tests"));
    r.set("uarch.block.hit_ratio", 1.0 - t.miss_ratio("exec.block.hits", "exec.block.misses"));
    r.set(
        "uarch.pac_memo.hit_ratio",
        1.0 - t.miss_ratio("exec.pac.memo_hits", "exec.pac.memo_misses"),
    );
    r.set("uarch.dtlb.miss_ratio", t.miss_ratio("tlb.dtlb.hits", "tlb.dtlb.misses"));
    r.set("uarch.l2tlb.miss_ratio", t.miss_ratio("tlb.l2.hits", "tlb.l2.misses"));
    r.set("uarch.walks_per_kinstr", t.ratio("tlb.walks", "cpu.retired") * 1e3);
    r.set("uarch.l1d.miss_ratio", t.miss_ratio("cache.l1d.hits", "cache.l1d.misses"));
    r.set("uarch.spec.episodes_per_pac_test", t.ratio("spec.episodes", "pac.tests"));
    r.set("kernel.syscalls_per_pac_test", t.ratio("cpu.syscalls", "pac.tests"));
}

/// The probes every traced run takes, against the workload's system
/// configuration and oracle sample count.
///
/// `command` is the small CLI command timed one-shot. Returns the shard
/// set-up and trial times, in µs, for the campaign ledger.
pub fn common_probes(
    ctx: &Ctx,
    cfg: &SystemConfig,
    samples: usize,
    command: &str,
    r: &mut Report,
) -> (f64, f64) {
    r.set("qarma.pac_ns", probes::qarma_pac_ns());
    r.set("qarma.batch_ns_per_lane", probes::qarma_batch_ns_per_lane());
    r.set("core.boot_ms", probes::boot_ms(cfg));
    let setup_us = probes::shard_setup_us(cfg, samples);
    let trial_us = probes::trial_us(cfg, samples);
    r.set("core.shard_setup_us", setup_us);
    r.set("core.trial_us", trial_us);
    let (snap, restore, bytes) = probes::snapshot_restore(cfg, samples);
    r.set("core.snapshot_us", snap);
    r.set("core.restore_us", restore);
    r.set("core.snapshot_bytes", bytes);
    r.set("runner.empty_campaign_us", probes::empty_campaign_us(JOBS));
    let (merge, tsnap) = probes::telemetry(cfg, samples);
    r.set("telemetry.merge_us", merge);
    r.set("telemetry.snapshot_us", tsnap);
    match probes::cli_one_shot(&ctx.cli, command, &ctx.out.join("one-shot.jsonl")) {
        Ok((ms, records, bytes)) => {
            r.set("cli.one_shot_ms", ms);
            r.set("cli.records_per_job", records);
            r.set("cli.output_bytes_per_job", bytes);
        }
        Err(e) => {
            r.fail_check(e);
            for m in ["cli.one_shot_ms", "cli.records_per_job", "cli.output_bytes_per_job"] {
                r.set(m, 0.0);
            }
        }
    }
    (setup_us, trial_us)
}

/// Stops the flight recorder, writes its events as a Chrome trace and
/// checks that the file parses back to the same events.
pub fn write_trace(ctx: &Ctx, r: &mut Report) -> Vec<SpanEvent> {
    trace::disable();
    let events = trace::recorder().take();
    let path = ctx.out.join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
    let json = trace::chrome_trace_json(&events);
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("perfbench: span file {}", path.display()),
        Err(e) => r.fail_check(format!("cannot write {}: {e}", path.display())),
    }
    match trace::parse_chrome_trace(&json) {
        Ok(parsed) if parsed.len() == events.len() => {}
        Ok(parsed) => {
            r.fail_check(format!("trace parsed to {} of {} events", parsed.len(), events.len()))
        }
        Err(e) => r.fail_check(format!("trace does not parse: {e}")),
    }
    events
}

/// `--trace 1`: the per-layer metrics. An untraced stretch, then the
/// same operations with the profiler, telemetry and flight recorder on,
/// then the layer probes.
pub fn traced(ctx: &Ctx, kind: Kind) -> Report {
    let mut r = Report::default();
    let mut first = BTreeMap::new();
    let (c, _) = setup(kind, ctx.seed, &mut first, &mut r);
    let stretch_s = ctx.seconds * 0.4;
    let mut next = 0;
    let pool0 = pool::stats();
    let steal0 = probes::steal_ticks();
    let plain = stretch(&c, &mut next, false, &mut first, |ops, t| {
        ops >= CYCLE && t.as_secs_f64() >= stretch_s
    });
    let steal1 = probes::steal_ticks();
    let pool1 = pool::stats();
    let Some(digest) = digest_of(&first) else {
        r.fail_check("not every input completed");
        return r;
    };
    trace::recorder().take();
    trace::enable();
    let mut profiled_first = BTreeMap::new();
    let mut next = 0;
    let profiled = stretch(&c, &mut next, true, &mut profiled_first, |ops, t| {
        ops >= CYCLE && t.as_secs_f64() >= stretch_s
    });
    if profiled_first.values().ne(first.values()) {
        r.fail_check("profiling changed simulated statistics");
    }
    // The CLI layer, timed on a small command against the same kernel.
    let command = format!("oracle --trials 4 --jobs {JOBS} --seed {}", c.base.kernel_seed);
    let (setup_us, trial_us) =
        common_probes(ctx, &c.config(0, false), c.samples(), &command, &mut r);
    let events = write_trace(ctx, &mut r);

    r.attempted = plain.attempted + profiled.attempted;
    r.failed = plain.failed + profiled.failed;
    for p in plain.problems.iter().chain(&profiled.problems).take(5) {
        eprintln!("perfbench: {p}");
    }
    uarch_ratios(&digest, &mut r);
    r.set("uarch.host_ns_per_instr", plain.cpu_s * 1e9 / plain.retired.max(1) as f64);
    phase_ns_per_instr(&profiled.snaps, &mut r);
    let ops = plain.attempted.max(1) as f64;
    r.set("core.pool.reboots_per_op", (pool1.reboots - pool0.reboots) as f64 / ops);
    r.set("core.pool.fresh_boots_per_op", (pool1.fresh_boots - pool0.fresh_boots) as f64 / ops);
    r.set("core.pool.fresh_frames_per_op", (pool1.fresh_frames - pool0.fresh_frames) as f64 / ops);
    r.set("core.pool.seeded_boots_per_op", (pool1.seeded_boots - pool0.seeded_boots) as f64 / ops);
    let (shards, first_ms, gap_ms) = shard_timing(&events);
    r.set("runner.shards_per_op", shards);
    r.set("runner.first_shard_ms", first_ms);
    r.set("runner.last_shard_gap_ms", gap_ms);
    r.set("runner.retries", counter_sum(&plain.snaps, "runner.retries") as f64);
    for m in [
        "daemon.accept_ms",
        "daemon.queue_ms",
        "daemon.run_ms",
        "daemon.bulk_job_ms",
        "daemon.backpressure",
        "daemon.checkpoints_per_s",
        "daemon.snapshot_bytes",
        "daemon.snapshot_load_us",
        "ledger.job_unexplained_pct",
        "bench.generator_late_ms_p95",
    ] {
        r.set(m, 0.0);
    }
    // Campaign ledger: the op's CPU-clock latency against what its shards
    // should cost, set-up plus trials, spread over the workers.
    let op_ms = median(&plain.cpu_lat_ms);
    let tests_per_op = plain.tests as f64 / ops;
    let explained_ms = (shards * setup_us + tests_per_op * trial_us) / JOBS as f64 / 1e3;
    r.set("ledger.campaign_unexplained_pct", (op_ms - explained_ms) / op_ms * 100.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    r.set(
        "bench.trace_overhead_pct",
        (mean(&profiled.cpu_lat_ms) / mean(&plain.cpu_lat_ms) - 1.0) * 100.0,
    );
    r.set("bench.wall_op_p50_ms", percentile(&plain.lat_ms, 50.0).unwrap_or(0.0));
    r.set("bench.wall_op_p95_ms", percentile(&plain.lat_ms, 95.0).unwrap_or(0.0));
    r.set("bench.steal_pct", probes::steal_pct(steal0, steal1));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_contain_or_exclude_the_true_pac() {
        for (tp, r) in [(0u16, 5u64), (0xffff, 77), (0x1234, u64::MAX), (0x8000, 65_407)] {
            let w = window(tp, true, r);
            assert_eq!(w.len(), BRUTE_WINDOW);
            assert!(w.contains(&tp));
            let w = window(tp, false, r);
            assert_eq!(w.len(), BRUTE_WINDOW);
            assert!(!w.contains(&tp), "excluding window of {tp:#x} with r={r} contains it");
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_digest() {
        let digest = |seed| {
            let c = Campaigns::new(Kind::Brute, seed);
            let per_op = (0..2).map(|i| c.run(i, false).expect("sweep runs").stats).collect();
            Digest { per_op }
        };
        let a = digest(3);
        assert_eq!(a, digest(3));
        assert_eq!(a.fingerprint(), digest(3).fingerprint());
        assert_ne!(a.fingerprint(), digest(4).fingerprint());
        assert!(a.total().get("cpu.retired") > 0);
    }
}
