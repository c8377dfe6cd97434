//! Property test: `System::snapshot` → `System::restore` is invisible
//! to the program being run.
//!
//! Over seeded generated programs (the conformance harness's generator,
//! `pacman::reference::gen`), a run interrupted at an arbitrary
//! instruction boundary, snapshotted, and continued on the *restored*
//! system must be bit-identical to the uninterrupted control run —
//! same stop/trap outcome at the same step, same architectural
//! registers, same cycle count, same full telemetry export. It pins
//! the public `System::snapshot`/`System::restore` contract itself and
//! is one of the determinism contracts listed in ROADMAP.md. The
//! durable daemon's `--resume` stores no machines (DESIGN.md §13): it
//! re-runs interrupted jobs from their command lines, which is sound
//! for the same reason this test passes — a run's outcome depends only
//! on its configuration and inputs, never on how its storage was made.

use pacman::attack::{System, SystemConfig};
use pacman::reference::diff::quiet_config;
use pacman::reference::gen::{generate, scenario_seed};
use pacman::uarch::{Machine, MachineConfig};
use proptest::prelude::*;

/// Steps `m` up to `budget` instructions; returns how many steps ran
/// and a debug rendering of why it ended (`Stop`, `Trap`, or budget
/// exhaustion). The rendering makes outcomes comparable without
/// demanding `PartialEq` of the machine's error types.
fn drive(m: &mut Machine, budget: u64) -> (u64, String) {
    for i in 0..budget {
        match m.step() {
            Ok(None) => {}
            Ok(Some(stop)) => return (i + 1, format!("stop: {stop:?}")),
            Err(trap) => return (i + 1, format!("trap: {trap:?}")),
        }
    }
    (budget, "budget exhausted".to_string())
}

/// Full-state equality between two systems: architectural CPU state,
/// cycle counter, and the complete telemetry export (which covers the
/// cache/TLB/predictor hit counters, so microarchitectural divergence
/// shows up even when the architectural state happens to agree).
fn assert_same(label: &str, a: &System, b: &System) {
    assert_eq!(a.machine.cycles, b.machine.cycles, "{label}: cycle counters diverged");
    assert_eq!(
        format!("{:?}", a.machine.cpu),
        format!("{:?}", b.machine.cpu),
        "{label}: architectural CPU state diverged"
    );
    assert_eq!(
        a.telemetry_snapshot(),
        b.telemetry_snapshot(),
        "{label}: telemetry exports diverged"
    );
}

/// Generous per-run step budget: generated programs are a page of
/// instructions at most and terminate (or trap) well inside this.
const BUDGET: u64 = 512;

fn config_for(seed: u64) -> SystemConfig {
    SystemConfig {
        machine: MachineConfig { seed: seed ^ 0xC0FF_EE00, ..quiet_config() },
        kernel_seed: seed.rotate_left(17) | 1,
        ..SystemConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn snapshot_restore_is_invisible_to_generated_programs(
        seed: u64,
        split in 1u64..64,
    ) {
        let scenario = generate(scenario_seed(0xD00D_F00D, seed));

        // Control: the uninterrupted run.
        let mut control = System::boot(config_for(seed));
        scenario.install_uarch(&mut control.machine);
        let control_end = drive(&mut control.machine, BUDGET);

        // Interrupted: run to the split point, snapshot, restore into a
        // brand-new system, and finish BOTH the original and the
        // restored copy. All three must agree everywhere.
        let mut interrupted = System::boot(config_for(seed));
        scenario.install_uarch(&mut interrupted.machine);
        let (_, pre_end) = drive(&mut interrupted.machine, split);

        let blob = interrupted.snapshot();
        let mut restored = System::restore(&blob).expect("snapshot loads");
        assert_same("at the split point", &interrupted, &restored);

        if pre_end == "budget exhausted" {
            // The program was still running at the boundary (it did not
            // stop or trap within the first `split` steps): continue
            // both halves and require identical endings.
            let remaining = BUDGET - split;
            let end_a = drive(&mut interrupted.machine, remaining);
            let end_b = drive(&mut restored.machine, remaining);
            assert_eq!(end_a, end_b, "restored run ended differently");
            assert_eq!(
                (split + end_a.0, end_a.1.clone()),
                control_end,
                "stitched run diverged from the uninterrupted control"
            );
        }
        assert_same("after completion", &interrupted, &restored);
        assert_same("against the control", &control, &restored);
    }
}
