//! # PACMAN — reproduction of the ISCA 2022 paper
//!
//! *PACMAN: Attacking ARM Pointer Authentication with Speculative
//! Execution* (Ravichandran, Na, Lang, Yan — MIT CSAIL).
//!
//! This facade crate re-exports the whole workspace so examples, tests and
//! downstream users can depend on a single crate:
//!
//! - [`qarma`] — the QARMA-64 tweakable block cipher (PAC substrate)
//! - [`isa`] — an AArch64-like ISA subset with ARMv8.3 PAC instructions
//! - [`uarch`] — the Apple-M1-like speculative microarchitecture model
//! - [`kernel`] — the XNU-like kernel model (EL0/EL1, kexts, signed vtables)
//! - [`attack`] — the PACMAN attack library itself (the paper's contribution)
//! - [`reference`](mod@reference) — the in-order architectural reference machine and the
//!   differential conformance harness that checks the speculative core
//! - [`gadget`] — the static PACMAN-gadget scanner (§4.3)
//! - [`os`] — PacmanOS, the bare-metal experiment environment (§6.2)
//! - [`mitigations`] — the §9 countermeasure evaluation harness
//!
//! # Quickstart
//!
//! ```
//! use pacman::prelude::*;
//!
//! // Boot a simulated M1-like machine running an XNU-like kernel with the
//! // paper's PoC kexts installed.
//! let mut sys = System::boot(SystemConfig::default());
//!
//! // Pick an attacker-chosen kernel address and build the speculative PAC
//! // oracle of paper §8.1. `true_pac` is evaluation-only ground truth —
//! // the oracle itself never needs it.
//! let set = sys.pick_quiet_dtlb_set();
//! let target = sys.alloc_target(set);
//! let true_pac = sys.true_pac(target);
//!
//! let mut oracle = DataPacOracle::new(&mut sys).expect("oracle setup");
//! let verdict = oracle.test_pac(&mut sys, target, true_pac).expect("trial");
//! assert!(verdict.is_correct());
//!
//! // The defining property: not a single kernel crash.
//! assert_eq!(sys.kernel.crash_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pacman_core as attack;
pub use pacman_gadget as gadget;
pub use pacman_isa as isa;
pub use pacman_kernel as kernel;
pub use pacman_mitigations as mitigations;
pub use pacman_os as os;
pub use pacman_qarma as qarma;
pub use pacman_ref as reference;
pub use pacman_uarch as uarch;

/// Convenience re-exports covering the common attack workflow.
pub mod prelude {
    pub use pacman_core::brute::{BruteForcer, BruteOutcome, BruteVerdict};
    pub use pacman_core::cache_probe::CacheDataPacOracle;
    pub use pacman_core::jump2win::{Jump2Win, Jump2WinReport};
    pub use pacman_core::oracle::{
        DataPacOracle, InstrPacOracle, OracleError, OracleVerdict, PacOracle,
    };
    pub use pacman_core::{System, SystemConfig};
    pub use pacman_isa::ptr::{PointerKind, VirtualAddress};
    pub use pacman_kernel::Kernel;
    pub use pacman_uarch::{CoreKind, Machine, MachineConfig, Mitigation, TimingSource};
}
