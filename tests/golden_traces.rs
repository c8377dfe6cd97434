//! Golden-trace snapshots of the Figure 8 gadgets' speculation-event
//! sequences.
//!
//! For a fixed kernel seed and a quiet machine the wrong-path episode a
//! PACMAN gadget executes is fully deterministic, so its traced event
//! sequence is a behavioural fingerprint of the speculative core: any
//! change to the shadow window, eager squash, fault suppression or the
//! gadget kexts shows up as a diff here before it shows up as a silently
//! different oracle distribution.
//!
//! Snapshots live in `tests/snapshots/`. To (re-)bless after an
//! *intentional* microarchitectural change:
//!
//! ```text
//! PACMAN_BLESS=1 cargo test --test golden_traces
//! ```

use std::fs;
use std::path::PathBuf;

use pacman::attack::{System, SystemConfig};
use pacman::isa::ptr::with_pac_field;

/// Training iterations before the traced trigger (same protocol as the
/// oracles and the `timeline` CLI command).
const TRAIN_ITERS: usize = 16;

fn quiet_system() -> System {
    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;
    System::boot(cfg)
}

/// Runs one traced gadget invocation and renders the event sequence,
/// one `SpecEvent` per line.
fn gadget_trace(sys: &mut System, sc: u64, pac: u16, target: u64) -> String {
    sys.train_gadget(sc, TRAIN_ITERS).expect("training syscalls");
    let (result, events) = sys.trigger_gadget_traced(sc, with_pac_field(target, pac));
    result.expect("traced gadget syscall");
    let mut out = String::new();
    for e in &events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// Diffs `actual` against `tests/snapshots/<name>`, or rewrites the
/// snapshot when `PACMAN_BLESS=1` is set.
fn check_snapshot(name: &str, actual: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots");
    let path = dir.join(name);
    if std::env::var_os("PACMAN_BLESS").is_some_and(|v| v == "1") {
        fs::create_dir_all(&dir).expect("create snapshot dir");
        fs::write(&path, actual).expect("bless snapshot");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing snapshot {}; create it with PACMAN_BLESS=1", path.display())
    });
    assert_eq!(
        expected, actual,
        "golden trace '{name}' diverged; if the change is intentional, \
         re-bless with PACMAN_BLESS=1"
    );
}

/// One named (gadget, guess) trace on a freshly booted quiet system.
fn snapshot_case(name: &str, instr: bool, correct: bool) {
    let mut sys = quiet_system();
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    let sc = if instr { sys.gadget.instr_gadget } else { sys.gadget.data_gadget };
    let pac = if correct { true_pac } else { true_pac ^ 5 };
    let trace = gadget_trace(&mut sys, sc, pac, target);
    assert!(!trace.is_empty(), "the traced gadget produced no speculation events");
    check_snapshot(name, &trace);
    assert_eq!(sys.kernel.crash_count(), 0, "tracing must stay crash-free");
}

#[test]
fn fig8a_data_gadget_correct_guess_trace_is_golden() {
    snapshot_case("fig8a_correct.txt", false, true);
}

#[test]
fn fig8a_data_gadget_wrong_guess_trace_is_golden() {
    snapshot_case("fig8a_wrong.txt", false, false);
}

#[test]
fn fig8b_instr_gadget_correct_guess_trace_is_golden() {
    snapshot_case("fig8b_correct.txt", true, true);
}

#[test]
fn fig8b_instr_gadget_wrong_guess_trace_is_golden() {
    snapshot_case("fig8b_wrong.txt", true, false);
}

/// Generated scenarios per wrong-path fingerprint configuration.
const FINGERPRINT_SCENARIOS: u64 = 256;

/// Retire budget per generated scenario (they are a page of code at
/// most and end well inside it, as in `engine_equivalence`).
const FINGERPRINT_BUDGET: u64 = 512;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// One line per mitigation × squash policy: an FNV-1a fingerprint of
/// every generated scenario's rendered speculation events, its cycle
/// count and its simulated counters (everything `export_telemetry`
/// reports except the host-side `exec.*` accelerator counters), plus
/// event and wrong-path instruction totals to make a diff legible.
///
/// Both engines share the wrong path, so `engine_equivalence` cannot see
/// a change to it; the Fig 8 traces above cover four gadget runs. This
/// covers the generator's branchy, faulting, PAC-heavy programs under
/// every wrong-path policy.
fn wrong_path_fingerprints() -> String {
    use pacman::reference::diff::quiet_config;
    use pacman::reference::gen::{generate, scenario_seed};
    use pacman::uarch::{Machine, MachineConfig, Mitigation, SquashPolicy};
    use pacman_telemetry::Registry;

    let mut out = String::new();
    for mitigation in [
        Mitigation::None,
        Mitigation::FenceAfterAut,
        Mitigation::NonSpeculativeAut,
        Mitigation::TaintAutOutputs,
        Mitigation::DelayOnMiss,
    ] {
        for squash in [SquashPolicy::Eager, SquashPolicy::Lazy] {
            let (mut hash, mut events, mut spec_insts) = (0xCBF2_9CE4_8422_2325u64, 0usize, 0);
            for index in 0..FINGERPRINT_SCENARIOS {
                let scenario = generate(scenario_seed(0x3B0_9A7B, index));
                let mut m = Machine::new(MachineConfig { mitigation, squash, ..quiet_config() });
                scenario.install_uarch(&mut m);
                let (end, trace) = m.with_trace(|m| {
                    for _ in 0..FINGERPRINT_BUDGET {
                        match m.step() {
                            Ok(None) => {}
                            Ok(Some(stop)) => return format!("stop {stop:?}"),
                            Err(trap) => return format!("trap {trap:?}"),
                        }
                    }
                    "budget exhausted".to_string()
                });
                hash = fnv1a(hash, end.as_bytes());
                for e in &trace {
                    hash = fnv1a(hash, e.to_string().as_bytes());
                }
                hash = fnv1a(hash, &m.cycles.to_le_bytes());
                let mut reg = Registry::new();
                m.export_telemetry(&mut reg);
                for (name, value) in reg.snapshot().counters() {
                    if !name.starts_with("exec.") {
                        hash = fnv1a(hash, name.as_bytes());
                        hash = fnv1a(hash, &value.to_le_bytes());
                    }
                }
                events += trace.len();
                spec_insts += m.stats.spec_insts;
            }
            out.push_str(&format!(
                "{mitigation:?}/{squash:?}: {FINGERPRINT_SCENARIOS} scenarios, \
                 {events} events, {spec_insts} wrong-path instructions, fnv {hash:016x}\n"
            ));
        }
    }
    out
}

#[test]
fn wrong_path_fingerprint_of_generated_scenarios_is_golden() {
    check_snapshot("wrong_path.txt", &wrong_path_fingerprints());
}
