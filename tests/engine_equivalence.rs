//! Property test: the `Cached` execution engine is timing-identical to
//! the `Interpreted` one.
//!
//! `ExecEngine::Interpreted` translates, permission-checks and decodes
//! every fetch the slow way and is the timing oracle. `ExecEngine::Cached`
//! adds the host-side accelerators: the predecoded block cache, the PAC
//! memo and the page-granular fetch cursor. Over seeded generated programs
//! (the conformance harness's generator, `pacman::reference::gen`) run
//! side by side, the engines must agree at every retire boundary on the
//! outcome and the cycle count, and at the end on the architectural state
//! and every exported series — TLB, cache, predictor, speculation and CPU
//! counters — except the host-only `exec.block.*` / `exec.pac.*`
//! accelerator counters.

use pacman::attack::{System, SystemConfig};
use pacman::reference::diff::quiet_config;
use pacman::reference::gen::{generate, scenario_seed};
use pacman::uarch::{ExecEngine, Machine, MachineConfig};
use pacman_telemetry::{Registry, Snapshot};
use proptest::prelude::*;

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

/// Every exported series except the host-side accelerator counters.
fn simulated_series(m: &Machine) -> Snapshot {
    let mut reg = Registry::new();
    m.export_telemetry(&mut reg);
    let mut snap = reg.snapshot();
    snap.retain_counters(|name| !name.starts_with("exec.block.") && !name.starts_with("exec.pac."));
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
