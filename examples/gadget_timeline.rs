//! Figure 3 made visible: the speculation-event timeline of a PACMAN
//! gadget execution.
//!
//! ```text
//! cargo run --release --example gadget_timeline
//! ```
//!
//! Enables the machine's speculation tracer, triggers the data and
//! instruction gadgets with a correct and an incorrect PAC, and prints
//! the recorded event sequences — the concrete counterpart of the
//! paper's Figure 3(c) and 3(d) timelines.

use pacman::isa::ptr::with_pac_field;
use pacman::prelude::*;

fn show(title: &str, sys: &mut System, syscall: u64, signed: u64) {
    // Re-train between runs so the outer branch mispredicts.
    sys.train_gadget(syscall, 16).expect("training");
    let (result, events) = sys.trigger_gadget_traced(syscall, signed);
    result.expect("trigger");

    println!("\n### {title} ###");
    // Only the gadget's own shadow is interesting: take the last episode
    // containing an AUT event.
    let mut episodes: Vec<Vec<_>> = Vec::new();
    for e in events {
        if matches!(e, pacman::uarch::SpecEvent::ShadowOpened { .. }) {
            episodes.push(Vec::new());
        }
        if let Some(ep) = episodes.last_mut() {
            ep.push(e);
        }
    }
    let gadget_episode = episodes
        .into_iter()
        .rev()
        .find(|ep| ep.iter().any(|e| matches!(e, pacman::uarch::SpecEvent::AutExecuted { .. })));
    match gadget_episode {
        Some(ep) => {
            for e in ep {
                println!("  {e}");
            }
        }
        None => println!("  (no speculative AUT executed)"),
    }
}

fn main() {
    let mut cfg = SystemConfig::default();
    cfg.machine.os_noise = 0.0;
    let mut sys = System::boot(cfg);
    let set = sys.pick_quiet_dtlb_set();
    let target = sys.alloc_target(set);
    let true_pac = sys.true_pac(target);
    println!("target pointer {target:#x}, true PAC {true_pac:#06x}");

    let data = sys.gadget.data_gadget;
    let instr = sys.gadget.instr_gadget;
    show("Figure 3(c): data gadget, CORRECT PAC", &mut sys, data, with_pac_field(target, true_pac));
    show(
        "Figure 3(c): data gadget, WRONG PAC",
        &mut sys,
        data,
        with_pac_field(target, true_pac ^ 5),
    );
    show(
        "Figure 3(d): instruction gadget, CORRECT PAC",
        &mut sys,
        instr,
        with_pac_field(target, true_pac),
    );
    show(
        "Figure 3(d): instruction gadget, WRONG PAC",
        &mut sys,
        instr,
        with_pac_field(target, true_pac ^ 5),
    );

    println!("\nkernel crashes: {}", sys.kernel.crash_count());
}
