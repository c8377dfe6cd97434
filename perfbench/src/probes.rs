//! Layer probes: each times calls into one layer's public functions
//! from outside, in isolation, for the traced run's per-layer metrics.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use pacman_core::parallel::Channel;
use pacman_core::{pool, System, SystemConfig};
use pacman_qarma::{PacComputer, QarmaKey};
use pacman_runner::{shard_plan, Executor, RetryPolicy, DEFAULT_SHARDS};
use pacman_telemetry::{trace, Registry};

use crate::stats::median;

/// Thread id of the benchmark's own spans in the trace (executor
/// workers use small ids from 0).
pub const BENCH_TID: u64 = 1000;

/// Times `f` `reps` times and returns the median in microseconds,
/// recording one `probe.<name>` span around the whole probe.
fn probe_us(name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let rec = trace::recorder();
    let start = rec.now_us();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    rec.complete(format!("probe.{name}"), "bench", BENCH_TID, None, start, Vec::new());
    median(&samples)
}

/// The VA width the simulated kernel signs pointers with.
const VA_BITS: u32 = 48;

/// `qarma.pac_ns`: one scalar `PacComputer::pac`.
pub fn qarma_pac_ns() -> f64 {
    let pc = PacComputer::new(QarmaKey::new(0x84be_85ce_9804_e94b, 0xec28_02d4_e0a4_88e9), VA_BITS);
    const CALLS: u64 = 20_000;
    probe_us("qarma.pac", 7, || {
        for p in 0..CALLS {
            black_box(pc.pac(black_box(0xffff_0000_0010_0000 + (p << 4)), 7));
        }
    }) * 1e3
        / CALLS as f64
}

/// `qarma.batch_ns_per_lane`: one bitsliced `PacComputer::pac_batch`
/// pass, per lane.
pub fn qarma_batch_ns_per_lane() -> f64 {
    let pc = PacComputer::new(QarmaKey::new(0x84be_85ce_9804_e94b, 0xec28_02d4_e0a4_88e9), VA_BITS);
    let block: [u64; 64] = std::array::from_fn(|j| 0xffff_0000_0010_0000 + ((j as u64) << 4));
    const CALLS: u64 = 1_000;
    probe_us("qarma.pac_batch", 7, || {
        for _ in 0..CALLS {
            black_box(pc.pac_batch(black_box(&block), 7));
        }
    }) * 1e3
        / (CALLS * 64) as f64
}

/// `core.boot_ms`: one cold `System::boot`.
pub fn boot_ms(cfg: &SystemConfig) -> f64 {
    probe_us("core.boot", 5, || drop(black_box(System::boot(cfg.clone())))) / 1e3
}

/// `core.shard_setup_us`: what a campaign shard does before its first
/// trial — a pool lease, `pick_quiet_dtlb_set`, `alloc_target` and
/// `Channel::oracle`. Leases on this thread, so after the first
/// repetition they are pooled reboots, as on a warm executor worker.
pub fn shard_setup_us(cfg: &SystemConfig, samples: usize) -> f64 {
    let mut i = 0u64;
    probe_us("core.shard_setup", 21, || {
        let mut c = cfg.clone();
        c.machine.seed = i;
        i += 1;
        let mut sys = pool::lease(c);
        let set = sys.pick_quiet_dtlb_set();
        black_box(sys.alloc_target(set));
        black_box(Channel::Data.oracle(&mut sys, samples).expect("data oracle builds"));
    })
}

/// A booted system with a target page and a built data oracle.
fn oracle_rig(
    cfg: &SystemConfig,
    samples: usize,
) -> (System, Box<dyn pacman_core::oracle::PacOracle>, u64, u16) {
    let mut sys = System::boot(cfg.clone());
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let oracle = Channel::Data.oracle(&mut sys, samples).expect("data oracle builds");
    (sys, oracle, target, true_pac)
}

/// `core.trial_us`: one warm `PacOracle::test_pac` (alternating correct
/// and wrong guesses, as a campaign does).
pub fn trial_us(cfg: &SystemConfig, samples: usize) -> f64 {
    let (mut sys, mut oracle, target, true_pac) = oracle_rig(cfg, samples);
    oracle.test_pac(&mut sys, target, true_pac).expect("warm-up trial");
    let mut i = 0u16;
    probe_us("core.trial", 201, || {
        let guess = if i.is_multiple_of(2) { true_pac } else { true_pac ^ i };
        i = i.wrapping_add(1);
        black_box(oracle.test_pac(&mut sys, target, guess).expect("trial runs"));
    })
}

/// `core.snapshot_us`, `core.restore_us` and `core.snapshot_bytes`:
/// `System::snapshot` / `System::restore` of a system that has run
/// trials.
pub fn snapshot_restore(cfg: &SystemConfig, samples: usize) -> (f64, f64, f64) {
    let (mut sys, mut oracle, target, true_pac) = oracle_rig(cfg, samples);
    for g in 0..8u16 {
        oracle.test_pac(&mut sys, target, true_pac ^ g).expect("trial runs");
    }
    let mut bytes = Vec::new();
    let snap = probe_us("core.snapshot", 11, || bytes = sys.snapshot());
    let restore = probe_us("core.restore", 11, || {
        black_box(System::restore(&bytes).expect("snapshot restores"));
    });
    (snap, restore, bytes.len() as f64)
}

/// `runner.empty_campaign_us`: an 8-shard no-op `Executor::submit`
/// round trip on the process-wide executor.
pub fn empty_campaign_us(jobs: usize) -> f64 {
    let mut seed = 0u64;
    probe_us("runner.empty_campaign", 301, || {
        seed += 1;
        let plan = shard_plan(DEFAULT_SHARDS, DEFAULT_SHARDS, seed);
        let handle = Executor::global()
            .submit(plan, jobs, RetryPolicy::default(), |_, _| Ok::<(), String>(()));
        let outcome = handle.wait().expect("empty campaign completes");
        assert_eq!(outcome.completed(), DEFAULT_SHARDS);
    })
}

/// `telemetry.merge_us` and `telemetry.snapshot_us`: `Registry::merge`
/// and `Registry::snapshot` of one shard's registry (attack series plus
/// the machine's exported counters, as a campaign shard produces).
pub fn telemetry(cfg: &SystemConfig, samples: usize) -> (f64, f64) {
    let (mut sys, mut oracle, target, true_pac) = oracle_rig(cfg, samples);
    sys.telemetry.set_enabled(true);
    let mut log = pacman_core::telemetry::TrialLog::disabled();
    for g in 0..32u16 {
        pacman_core::telemetry::recorded_test_pac(
            oracle.as_mut(),
            &mut sys,
            &mut log,
            target,
            true_pac ^ (g % 2),
            Some(true_pac),
        )
        .expect("trial runs");
    }
    let mut shard = sys.telemetry.clone();
    sys.machine.export_telemetry(&mut shard);
    let mut acc = Registry::new();
    let merge = probe_us("telemetry.merge", 501, || acc.merge(black_box(&shard)));
    let snapshot = probe_us("telemetry.snapshot", 501, || drop(black_box(shard.snapshot())));
    (merge, snapshot)
}

/// One one-shot CLI run of `command` with `--metrics-out`: wall time in
/// ms and the file's text. `Err` when the CLI fails.
pub fn one_shot(cli: &Path, command: &str, out: &Path) -> Result<(f64, String), String> {
    let t = Instant::now();
    let status = Command::new(cli)
        .args(command.split_whitespace())
        .arg("--metrics-out")
        .arg(out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if !status.success() {
        return Err(format!("one-shot '{command}' exited with {status}"));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok((ms, text))
}

/// `cli.one_shot_ms`, `cli.records_per_job` and `cli.output_bytes_per_job`
/// for `command`, the median of five one-shot runs.
pub fn cli_one_shot(cli: &Path, command: &str, out: &Path) -> Result<(f64, f64, f64), String> {
    let rec = trace::recorder();
    let start = rec.now_us();
    let mut times = Vec::new();
    let mut text = String::new();
    for _ in 0..5 {
        let (ms, t) = one_shot(cli, command, out)?;
        times.push(ms);
        text = t;
    }
    rec.complete("probe.cli.one_shot", "bench", BENCH_TID, None, start, Vec::new());
    Ok((median(&times), text.lines().count() as f64, text.len() as f64))
}

/// CPU time, in ns, that the live threads of process `pid` have run
/// (the sum of the run times in `/proc/<pid>/task/*/schedstat`).
///
/// On a two-vCPU guest of a shared host, the host ran other guests on
/// the vCPUs for a minute or more at a time; wall-clock figures then
/// moved by 20–45 % between runs while this clock moved by about 5 %.
/// The end-to-end timings therefore run on this clock. (It still moves
/// with how fast the host runs a vCPU, e.g. whether its hyperthread
/// sibling is busy.)
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// CPU time, in ns, that this process's live threads have run.
pub fn self_cpu_ns() -> u64 {
    cpu_ns(std::process::id())
}

/// The machine-wide `(steal, total)` CPU time counters of `/proc/stat`,
/// in clock ticks: time the host ran something else on the machine's
/// virtual CPUs, and all time.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// Share of CPU time stolen by the host between two [`steal_ticks`]
/// readings, in %.
pub fn steal_pct(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64 * 100.0
    }
}

/// The process's peak resident set (VmHWM) in MiB, from `/proc`.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
