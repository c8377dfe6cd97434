//! Property test: the `Cached` execution engine is timing-identical to
//! the `Interpreted` one.
//!
//! `ExecEngine::Interpreted` translates, permission-checks and decodes
//! every fetch the slow way and is the timing oracle. `ExecEngine::Cached`
//! adds the host-side accelerators: the predecoded block cache, the PAC
//! memo and the page-granular fetch cursors. Over seeded generated programs
//! (the conformance harness's generator, `pacman::reference::gen`) run
//! side by side, the engines must agree at every retire boundary on the
//! outcome and the cycle count, and at the end on the architectural state
//! and every exported series — TLB, cache, predictor, speculation and CPU
//! counters — except the host-only `exec.block.*` / `exec.pac.*`
//! accelerator counters and the profiler's `profile.*` counters.
//!
//! `Machine::run` retires register-only runs back to back and charges
//! their fetches in bulk, so the generated programs are also driven
//! through `run(k)` in seeded chunks of 1 to the whole budget: at every
//! chunk boundary the outcome, cycles and registers must match the
//! interpreter stepped as far, at the end every simulated series must,
//! and the block-cache counters must match a `Cached` machine stepped
//! one instruction at a time.
//!
//! Generated programs run from one EL0 code page, so the oracle campaigns
//! of §8.1 are compared too: 65 syscall round trips per PAC test, each
//! crossing the user page, the kernel's vector page and a handler page,
//! with the instruction channel's jump pads evicting kernel iTLB sets.

use pacman::attack::oracle::PacOracle;
use pacman::attack::parallel::Channel;
use pacman::attack::{System, SystemConfig};
use pacman::reference::diff::quiet_config;
use pacman::reference::gen::{generate, scenario_seed};
use pacman::uarch::{ExecEngine, Machine, MachineConfig, Stop};
use pacman_telemetry::{Registry, Snapshot};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generous per-run step budget: generated programs are a page of
/// instructions at most and terminate (or trap) well inside this.
const BUDGET: u64 = 512;

/// One step's outcome, rendered so engines compare without demanding
/// `PartialEq` of the machine's error types.
fn step(m: &mut Machine) -> Option<String> {
    match m.step() {
        Ok(None) => None,
        Ok(Some(stop)) => Some(format!("stop: {stop:?}")),
        Err(trap) => Some(format!("trap: {trap:?}")),
    }
}

/// Steps `m` up to `budget` instructions; returns how many ran and why
/// the run ended.
fn drive(m: &mut Machine, budget: u64) -> (u64, String) {
    for i in 0..budget {
        if let Some(end) = step(m) {
            return (i + 1, end);
        }
    }
    (budget, "budget exhausted".to_string())
}

/// The `exec.block.*` counters of `m`.
fn block_counters(m: &Machine) -> Vec<(String, u64)> {
    let mut reg = Registry::new();
    m.export_telemetry(&mut reg);
    let snap = reg.snapshot();
    snap.counters()
        .filter(|(k, _)| k.starts_with("exec.block."))
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Every exported series except the host-side accelerator and profiler
/// counters.
fn simulated_series(m: &Machine) -> Snapshot {
    let mut reg = Registry::new();
    m.export_telemetry(&mut reg);
    let mut snap = reg.snapshot();
    snap.retain_counters(|name| {
        !name.starts_with("exec.block.")
            && !name.starts_with("exec.pac.")
            && !name.starts_with("profile.")
    });
    snap
}

fn assert_same(label: &str, cached: &Machine, interp: &Machine) {
    assert_eq!(cached.cycles, interp.cycles, "{label}: cycle counters diverged");
    assert_eq!(
        format!("{:?}", cached.cpu),
        format!("{:?}", interp.cpu),
        "{label}: architectural CPU state diverged"
    );
    assert_eq!(
        simulated_series(cached),
        simulated_series(interp),
        "{label}: simulated counters diverged"
    );
}

fn machine_config(engine: ExecEngine, noisy: bool, seed: u64) -> MachineConfig {
    let base = if noisy { MachineConfig::default() } else { quiet_config() };
    MachineConfig { engine, seed, ..base }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cached_engine_matches_the_interpreter_on_generated_programs(
        seed: u64,
        noisy: bool,
    ) {
        let scenario = generate(scenario_seed(0xE9_617E, seed));
        let mut cached = Machine::new(machine_config(ExecEngine::Cached, noisy, seed));
        let mut interp = Machine::new(machine_config(ExecEngine::Interpreted, noisy, seed));
        scenario.install_uarch(&mut cached);
        scenario.install_uarch(&mut interp);
        for i in 0..BUDGET {
            let (a, b) = (step(&mut cached), step(&mut interp));
            assert_eq!(a, b, "step {i} ended differently");
            assert_eq!(cached.cycles, interp.cycles, "cycles diverged at step {i}");
            if a.is_some() {
                break;
            }
        }
        assert_same("after the run", &cached, &interp);
    }

    #[test]
    fn run_chunks_match_the_interpreter_stepped_as_far(seed: u64, noisy: bool) {
        let scenario = generate(scenario_seed(0xC4_0C5, seed));
        let [mut chunked, mut stepped] =
            [0, 1].map(|_| Machine::new(machine_config(ExecEngine::Cached, noisy, seed)));
        let mut interp = Machine::new(machine_config(ExecEngine::Interpreted, noisy, seed));
        for m in [&mut chunked, &mut stepped, &mut interp] {
            scenario.install_uarch(m);
        }
        let mut chunks = SmallRng::seed_from_u64(seed);
        let mut done = 0;
        while done < BUDGET {
            let k = if chunks.gen_bool(0.5) { chunks.gen_range(1..=8) } else { chunks.gen_range(1..=BUDGET) };
            let k = k.min(BUDGET - done);
            let a = match chunked.run(k) {
                Ok(Stop::InstLimit) => None,
                Ok(stop) => Some(format!("stop: {stop:?}")),
                Err(trap) => Some(format!("trap: {trap:?}")),
            };
            let b = (0..k).find_map(|_| step(&mut interp));
            done += k;
            let label = format!("chunk of {k} ending at {done}");
            assert_eq!(a, b, "{label}: ended differently");
            assert_eq!(chunked.cycles, interp.cycles, "{label}: cycles diverged");
            assert_eq!(chunked.cpu.regs, interp.cpu.regs, "{label}: registers diverged");
            assert_eq!(chunked.cpu.pc, interp.cpu.pc, "{label}: PC diverged");
            if a.is_some() {
                break;
            }
        }
        assert_same("after the run", &chunked, &interp);
        drive(&mut stepped, done);
        assert_eq!(block_counters(&chunked), block_counters(&stepped));
    }
}

#[test]
fn snapshot_taken_mid_page_continues_like_the_interpreter() {
    // Generated programs live in one code page, so every split point is
    // mid-page: the snapshot is taken with the fetch cursor live, and the
    // restored machine starts with it cold.
    for index in 0..16 {
        let scenario = generate(scenario_seed(0x5AA9_5407, index));
        let config = |engine| SystemConfig {
            machine: machine_config(engine, false, index),
            kernel_seed: index | 1,
            ..SystemConfig::default()
        };
        let mut interp = System::boot(config(ExecEngine::Interpreted));
        scenario.install_uarch(&mut interp.machine);
        let interp_end = drive(&mut interp.machine, BUDGET);

        let mut cached = System::boot(config(ExecEngine::Cached));
        scenario.install_uarch(&mut cached.machine);
        let split = (interp_end.0 / 2).max(1);
        let (_, pre_end) = drive(&mut cached.machine, split);
        let mut restored = System::restore(&cached.snapshot()).expect("snapshot loads");
        if pre_end == "budget exhausted" {
            let end = drive(&mut restored.machine, BUDGET - split);
            assert_eq!((split + end.0, end.1), interp_end, "scenario {index}: run diverged");
        }
        assert_same(&format!("scenario {index}"), &restored.machine, &interp.machine);
    }
}

#[test]
fn oracle_trials_across_syscalls_match_the_interpreter() {
    // The fetch cursors must survive (or correctly die across) every EL
    // switch, kernel page change and iTLB eviction of a real campaign:
    // `Cached` — also with the profiler's out-of-line retire path — must
    // stay on `Interpreted`'s timeline trial by trial.
    let engines =
        [(ExecEngine::Interpreted, false), (ExecEngine::Cached, false), (ExecEngine::Cached, true)];
    for channel in [Channel::Data, Channel::Instr, Channel::Cache] {
        let mut runs: Vec<(System, Box<dyn PacOracle>, u64, u16)> = engines
            .iter()
            .map(|&(engine, profile)| {
                let mut sys = System::boot(SystemConfig {
                    machine: MachineConfig { profile, ..machine_config(engine, true, 0x5C5) },
                    kernel_seed: 0x5C5,
                    ..SystemConfig::default()
                });
                let (target, true_pac) = channel.target(&mut sys);
                let oracle = channel.oracle(&mut sys, 3).expect("oracle setup");
                (sys, oracle, target, true_pac)
            })
            .collect();
        let mut outcomes = [false; 2];
        for trial in 0..6u16 {
            let verdicts: Vec<_> = runs
                .iter_mut()
                .map(|(sys, oracle, target, true_pac)| {
                    let guess = if trial % 2 == 0 { *true_pac } else { *true_pac ^ (trial + 1) };
                    oracle.test_pac(sys, *target, guess).expect("trial runs")
                })
                .collect();
            outcomes[usize::from(verdicts[0].is_correct())] = true;
            let (interp, rest) = runs.split_first().expect("three engines");
            for ((sys, ..), verdict) in rest.iter().zip(&verdicts[1..]) {
                let label = format!("{channel:?} trial {trial}");
                assert_eq!(verdict, &verdicts[0], "{label}: verdicts diverged");
                assert_same(&label, &sys.machine, &interp.0.machine);
            }
        }
        assert_eq!(outcomes, [true; 2], "{channel:?}: the trials must see both verdicts");
    }
}
