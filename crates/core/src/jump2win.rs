//! The Jump2Win control-flow hijack (paper §8.3, Figure 9).
//!
//! End-to-end: the attacker (an unprivileged EL0 process) uses the PAC
//! oracle to brute-force the two PACs Figure 9 requires — the IA-key PAC
//! of the `win()` address and the DA-key PAC of the fake-vtable address
//! — then triggers the kext's buffer overflow once to plant both signed
//! pointers, and finally invokes the C++-style dispatch syscall, which
//! authenticates the planted pointers successfully and calls `win()` at
//! EL1. No kernel crash occurs at any point.
//!
//! Jump2Win is a composition, not a new attack: each brute-force phase
//! is one §8.2 [`BruteForcer`](crate::brute::BruteForcer) run over the
//! §8.1 dTLB oracle, triggering the cpp kext's salt-matched gadget, and
//! [`parallel_jump2win`](crate::parallel::parallel_jump2win) runs the two
//! phases on the shard harness before the overflow.

use pacman_isa::ptr::with_pac_field;
use pacman_isa::PacKey;
use pacman_kernel::kext::cpp::{OBJ2_OFFSET, WIN_MAGIC};
use pacman_kernel::KernelError;

use crate::oracle::{dtlb_trial, OracleError, PacOracle, ProbeCache};
use crate::parallel::{probe, ExperimentError};
use crate::system::{System, SystemConfig};

/// Samples per PAC guess (median rule) in both phases.
pub const SAMPLES: usize = 3;

/// Branch-training syscalls per trial in both phases.
pub const TRAIN_ITERS: usize = 16;

/// Report of a finished Jump2Win run.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct Jump2WinReport {
    /// Recovered IA-key PAC for the `win()` pointer.
    pub pac_win: u16,
    /// Recovered DA-key PAC for the fake vtable pointer.
    pub pac_vtable: u16,
    /// PAC candidates tested across both brute-force phases.
    pub guesses_tested: u64,
    /// Syscalls issued in total.
    pub syscalls: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Kernel crashes (zero on success — the whole point).
    pub crashes: u64,
    /// Whether `win()` actually ran at EL1.
    pub hijacked: bool,
}

/// Errors from the end-to-end attack.
#[derive(Debug)]
pub enum Jump2WinError {
    /// A brute-force phase exhausted its window without a hit
    /// (tolerable per §8.2 — the caller may simply retry).
    PacNotFound {
        /// Which key's PAC was being searched.
        key: PacKey,
    },
    /// The final dispatch crashed or failed.
    Dispatch(KernelError),
}

impl std::fmt::Display for Jump2WinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Jump2WinError::PacNotFound { key } => {
                write!(f, "no PAC found for key {key:?} (retryable false negative)")
            }
            Jump2WinError::Dispatch(e) => write!(f, "final dispatch failed: {e}"),
        }
    }
}

impl std::error::Error for Jump2WinError {}

/// The key of each phase's PAC: IA for `win()`, DA for the fake vtable.
pub(crate) const PHASE_KEYS: [PacKey; 2] = [PacKey::Ia, PacKey::Da];

/// Phase `phase` of Figure 9 on `sys`: the cpp kext's salt-matched
/// gadget syscall and the pointer whose PAC it reveals. Phase 0 is
/// `win()`; phase 1 the fake vtable (the overflowed object doubles as
/// the vtable).
pub(crate) fn phase(sys: &System, phase: usize) -> (u64, u64) {
    if phase == 0 {
        (sys.cpp.gadget_ia, sys.cpp.win_fn)
    } else {
        (sys.cpp.gadget_da, sys.cpp.obj1)
    }
}

/// Per-phase candidate windows `(start, len)` of `len` guesses centred on
/// the true PACs, read by a [`probe`] of `cfg` on a pooled worker system;
/// every shard system shares its kernel seed, hence its keys and layout.
/// A `len` of 2^16 or more sweeps the whole space from 0.
///
/// # Errors
///
/// [`ExperimentError::Shards`] if the probe shard fails.
pub fn centred_windows(cfg: &SystemConfig, len: u32) -> Result<[(u16, u32); 2], ExperimentError> {
    if len >= 1 << 16 {
        return Ok([(0, 1 << 16); 2]);
    }
    probe(cfg, move |sys| {
        [0, 1].map(|i| {
            let true_pac = sys.true_pac_with_salt(PHASE_KEYS[i], phase(sys, i).1);
            (true_pac.wrapping_sub((len / 2) as u16), len)
        })
    })
}

/// The §8.3 PAC oracle: the §8.1 dTLB data channel over one of the cpp
/// kext's salt-matched gadgets, whose PACs are salted with the victim
/// object's address like the ones the dispatch path consumes.
///
/// It has no hot-set guard. The guard stops an attacker from monitoring
/// a target it chose in a set its own syscalls pollute; §8.3's pointers
/// are fixed by the victim, and at the default kernel seed the object
/// sits in such a set, yet its fill still shows.
#[derive(Debug)]
pub(crate) struct SaltedPacOracle {
    sc: u64,
    probes: ProbeCache,
}

impl SaltedPacOracle {
    /// The oracle over gadget syscall `sc`.
    pub(crate) fn new(sc: u64) -> Self {
        Self { sc, probes: ProbeCache::default() }
    }
}

impl PacOracle for SaltedPacOracle {
    fn samples(&self) -> usize {
        SAMPLES
    }

    fn channel(&self) -> &'static str {
        "dtlb-data"
    }

    fn train_iters(&self) -> usize {
        TRAIN_ITERS
    }

    fn trial(&mut self, sys: &mut System, target: u64, pac: u16) -> Result<usize, OracleError> {
        let pp = self.probes.get(sys, target)?;
        dtlb_trial(sys, pp, None, self.sc, TRAIN_ITERS, target, pac)
    }
}

/// Phases 3–4 of Figure 9: the buffer overflow planting both signed
/// pointers, then the dispatch that authenticates them and diverts to
/// `win()`. Returns whether the hijack landed.
pub(crate) fn plant_and_dispatch(
    sys: &mut System,
    pac_win: u16,
    pac_vtable: u16,
) -> Result<bool, Jump2WinError> {
    let win = sys.cpp.win_fn;
    let fake_vtable = sys.cpp.obj1;
    let mut payload = vec![0u8; (OBJ2_OFFSET + 8) as usize];
    payload[0..8].copy_from_slice(&with_pac_field(win, pac_win).to_le_bytes());
    payload[OBJ2_OFFSET as usize..]
        .copy_from_slice(&with_pac_field(fake_vtable, pac_vtable).to_le_bytes());
    let buf = sys.write_payload(&payload);
    sys.kernel
        .syscall(&mut sys.machine, sys.cpp.overflow, &[buf, payload.len() as u64])
        .map_err(Jump2WinError::Dispatch)?;
    sys.kernel
        .syscall(&mut sys.machine, sys.cpp.dispatch, &[0, 0])
        .map_err(Jump2WinError::Dispatch)?;
    Ok(sys.cpp.flag_value(&sys.machine) == WIN_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForcer;
    use crate::fault::Tolerance;
    use crate::parallel::parallel_jump2win;

    fn quiet_config() -> SystemConfig {
        let mut cfg = SystemConfig::default();
        cfg.machine.os_noise = 0.0;
        cfg
    }

    #[test]
    fn jump2win_end_to_end_with_narrowed_windows() {
        let mut sys = System::boot(quiet_config());
        let mut found = [0u16; 2];
        for (i, pac) in found.iter_mut().enumerate() {
            let (sc, target) = phase(&sys, i);
            let true_pac = sys.true_pac_with_salt(PHASE_KEYS[i], target);
            let mut bf = BruteForcer::new(SaltedPacOracle::new(sc));
            let window = (0..8).map(|g| true_pac.wrapping_sub(3).wrapping_add(g));
            *pac = bf.brute(&mut sys, target, window).unwrap().found.expect("PAC found");
            assert_eq!(*pac, true_pac, "phase {i}");
        }
        assert!(plant_and_dispatch(&mut sys, found[0], found[1]).unwrap());
        assert_eq!(sys.cpp.flag_value(&sys.machine), WIN_MAGIC);
        assert_eq!(sys.kernel.crash_count(), 0, "the hijack must be crash-free");
    }

    #[test]
    fn windows_centre_on_the_true_pacs_or_cover_the_whole_space() {
        let cfg = quiet_config();
        let sys = System::boot(cfg.clone());
        for (i, (start, len)) in centred_windows(&cfg, 8).unwrap().into_iter().enumerate() {
            let true_pac = sys.true_pac_with_salt(PHASE_KEYS[i], phase(&sys, i).1);
            assert_eq!((start.wrapping_add(4), len), (true_pac, 8));
        }
        assert_eq!(centred_windows(&cfg, 1 << 16).unwrap(), [(0, 1 << 16); 2]);
    }

    #[test]
    fn wrong_window_reports_a_retryable_false_negative() {
        let cfg = quiet_config();
        let [(ia, _), (da, _)] = centred_windows(&cfg, 8).unwrap();
        let windows = [(ia.wrapping_add(100), 8), (da, 8)];
        let err = parallel_jump2win(&cfg, windows, 1, false, &Tolerance::default()).unwrap_err();
        assert!(matches!(
            err,
            ExperimentError::Jump2Win(Jump2WinError::PacNotFound { key: PacKey::Ia })
        ));
    }
}
