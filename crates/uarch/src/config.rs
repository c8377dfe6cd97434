//! Machine configuration: core kind, structure parameters, latency model,
//! speculation policy and mitigations.

use crate::cache::CacheParams;
use crate::tlb::TlbParams;

/// Which M1 core cluster the machine models (paper §5: big.LITTLE with
/// four performance and four efficiency cores; the attack targets
/// p-cores).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum CoreKind {
    /// Firestorm-class performance core (the attack platform).
    #[default]
    PCore,
    /// Icestorm-class efficiency core.
    ECore,
}

/// How the core handles a nested branch discovered to be mispredicted
/// while already executing under the shadow of an outer misprediction
/// (paper Figure 3(d)).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum SquashPolicy {
    /// Eagerly squash the inner branch's wrong path and redirect fetch to
    /// the resolved target — the M1 behaviour the instruction PACMAN
    /// gadget requires (§4.2).
    #[default]
    Eager,
    /// Never redirect nested speculative fetch; the resolved target of an
    /// inner branch is simply not fetched. Under this policy the
    /// instruction gadget leaks nothing (the §4.2 constraint, used as an
    /// ablation).
    Lazy,
}

/// Countermeasures from paper §9, applied inside the speculative engine.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum Mitigation {
    /// Baseline: no defence.
    #[default]
    None,
    /// PAC-agnostic execution via an implicit `isb` after every `AUT`:
    /// speculation stops before a verified pointer can be transmitted.
    /// Costs a pipeline drain on every architectural `AUT` as well.
    FenceAfterAut,
    /// `AUT` does not execute speculatively at all (stalls until the
    /// speculation shadow resolves).
    NonSpeculativeAut,
    /// STT-style taint tracking with AUT outputs as taint sources (§9's
    /// proposed fix to STT/NDA/Dolma): tainted addresses are never issued
    /// to the memory hierarchy while speculative.
    TaintAutOutputs,
    /// Delay-on-miss invisible speculation extended to TLBs: speculative
    /// accesses that miss in the L1 structures receive no fills.
    DelayOnMiss,
}

/// Which execution engine drives the retire loop.
///
/// Both engines are architecturally identical — same cycles, same
/// microarchitectural side effects, same RNG draws — which the
/// `pacman-ref` conformance harness proves. The interpreter exists as
/// the measurable pre-rewrite baseline for the `perf_exec_engine`
/// bench and as a fallback while bisecting engine bugs.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum ExecEngine {
    /// Predecoded basic-block cache: each fetched word is decoded once
    /// into a flat micro-op arena keyed by physical address and
    /// re-dispatched from the arena on re-entry, with PAC results
    /// memoised per (key, pointer, modifier). Self-modifying stores
    /// invalidate affected entries.
    #[default]
    Cached,
    /// The original decode-every-step interpreter, with no PAC memo:
    /// the faithful pre-rewrite baseline.
    Interpreted,
}

/// Typed configuration validation errors, reported by
/// [`MachineConfig::validate`] before any machine state is built.
#[derive(Clone, PartialEq, Debug)]
pub enum ConfigError {
    /// `clock_hz / system_counter_hz` would be zero: either the system
    /// counter frequency is zero or it exceeds the core clock, so every
    /// `CNTPCT` read would divide by zero.
    InvalidTimerRatio {
        /// Configured core clock, Hz.
        clock_hz: u64,
        /// Configured system counter frequency, Hz.
        system_counter_hz: u64,
    },
    /// A zero speculation window cannot model any speculative shadow.
    ZeroSpeculationWindow,
    /// `os_noise` must be a probability in `[0, 1]`.
    InvalidOsNoise(
        /// The rejected value.
        f64,
    ),
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InvalidTimerRatio { clock_hz, system_counter_hz } => write!(
                f,
                "invalid timer ratio: clock_hz {clock_hz} must be >= system_counter_hz \
                 {system_counter_hz} > 0"
            ),
            Self::ZeroSpeculationWindow => write!(f, "speculation_window must be nonzero"),
            Self::InvalidOsNoise(v) => write!(f, "os_noise {v} outside [0, 1]"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Deliberately broken squash/recovery behaviours, used by the
/// conformance harness's self-test (`pacman-ref`) to prove the
/// differential oracle detects wrong-path state leaking into committed
/// state. Every knob is off by default; enabling one makes the machine
/// *architecturally wrong on purpose*, so nothing outside the self-test
/// should ever turn one on.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct InjectedBugs {
    /// Skip the register-file restore when a speculation shadow closes:
    /// the wrong path's shadow registers (including SP and the compare
    /// flags) are copied back into committed state, modelling a broken
    /// eager squash.
    pub leak_squashed_registers: bool,
    /// Deliver suppressed wrong-path faults architecturally: a fault
    /// that speculation should squash silently is instead raised as a
    /// precise trap at the next retire boundary, modelling broken
    /// speculative-fault suppression.
    pub commit_suppressed_faults: bool,
}

impl InjectedBugs {
    /// Whether any deliberate bug is armed.
    #[must_use]
    pub fn any(self) -> bool {
        self.leak_squashed_registers || self.commit_suppressed_faults
    }
}

/// Cycle costs of the memory hierarchy and measurement path.
///
/// The constants are calibrated so that the *measured* latency plateaus
/// match the paper's Figure 5/7 numbers (~60 for an L1+dTLB hit, ~80 for
/// an L2-cache hit, ~95/110 after a dTLB miss, ~115/130 after an L2 TLB
/// miss); see DESIGN.md for the calibration note.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct LatencyModel {
    /// L1 hit latency (data or instruction).
    pub l1_hit: u64,
    /// Additional latency of an L2 cache hit.
    pub l2_hit: u64,
    /// Additional latency of a DRAM access.
    pub dram: u64,
    /// Additional latency of an L2 TLB hit after an L1 TLB miss.
    pub l2_tlb_hit: u64,
    /// Additional latency of a full page-table walk.
    pub walk: u64,
    /// Fixed overhead of the `isb; mrs; isb` measurement bracket
    /// (Figure 4(b)).
    pub measure_overhead: u64,
    /// Pipeline-flush penalty charged when a misprediction is resolved.
    pub mispredict_penalty: u64,
    /// Cost of a serialising barrier (`isb`/`dsb`), also charged by the
    /// [`Mitigation::FenceAfterAut`] implicit fence.
    pub fence: u64,
    /// Base cost of a simple ALU instruction.
    pub alu: u64,
    /// One-way EL0→EL1 transition cost (syscall entry or exit).
    pub syscall_transition: u64,
    /// Uniform measurement noise added to timed accesses: `0..=noise`.
    pub noise: u64,
    /// Injected timing-noise spike added to every timed access (0 =
    /// disabled). Set only by the fault-injection layer to make a
    /// shard's measurements unmistakably corrupted; the spiked attempt
    /// is then discarded and retried, so the field never influences a
    /// surviving aggregate.
    pub fault_spike: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            l1_hit: 4,
            l2_hit: 20,
            dram: 80,
            l2_tlb_hit: 35,
            walk: 55,
            measure_overhead: 56,
            mispredict_penalty: 14,
            fence: 30,
            alu: 1,
            // One-way EL0<->EL1 transition. Calibrated so a 64-training
            // PAC test costs ~2.7 simulated ms (paper §8.2 measured
            // 2.69 ms/guess, dominated by syscall overhead on macOS).
            syscall_transition: 65_000,
            noise: 2,
            fault_spike: 0,
        }
    }
}

/// Top-level machine configuration.
///
/// `PartialEq` (not `Eq`: `os_noise` is an `f64`) lets the core system
/// pool key recycled machines by configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct MachineConfig {
    /// Which core cluster to model.
    pub core: CoreKind,
    /// RNG seed for the timer-jitter and noise models (deterministic runs
    /// use a fixed seed).
    pub seed: u64,
    /// Maximum instructions executed down a mis-speculated path before the
    /// squash (a stand-in for ROB capacity past the branch).
    pub speculation_window: u32,
    /// Nested-branch squash behaviour.
    pub squash: SquashPolicy,
    /// Active countermeasure.
    pub mitigation: Mitigation,
    /// Latency constants.
    pub latency: LatencyModel,
    /// Nominal core clock in Hz (p-core ≈ 3.2 GHz); used only to convert
    /// cycle counts to wall-clock figures in reports.
    pub clock_hz: u64,
    /// Frequency of the architected system counter (`CNTFRQ_EL0`): 24 MHz
    /// on the M1 (paper Table 1).
    pub system_counter_hz: u64,
    /// Probability (per syscall) that unrelated kernel activity touches a
    /// random dTLB set, modelling OS noise. The paper's experiments ran
    /// under real noise (web browsing, video calls, §8.2) and still
    /// avoided false positives; keep this non-zero for honest accuracy
    /// numbers.
    pub os_noise: f64,
    /// Deliberately broken squash behaviours for the conformance
    /// self-test (all off by default — see [`InjectedBugs`]).
    pub bugs: InjectedBugs,
    /// Enables the retire-loop self-profiler (per-opcode and hot-block
    /// attribution — see `profiler`). Off by default: on, it reads the
    /// clock once per retired run, full fetch and `exec`; off, it costs
    /// a predicted branch at each of the retire loop's record points.
    pub profile: bool,
    /// Which execution engine drives the retire loop (architecturally
    /// identical either way — see [`ExecEngine`]).
    pub engine: ExecEngine,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            core: CoreKind::PCore,
            seed: 0x9E3779B97F4A7C15,
            speculation_window: 48,
            squash: SquashPolicy::Eager,
            mitigation: Mitigation::None,
            latency: LatencyModel::default(),
            clock_hz: 3_200_000_000,
            system_counter_hz: 24_000_000,
            os_noise: 0.02,
            bugs: InjectedBugs::default(),
            profile: false,
            engine: ExecEngine::default(),
        }
    }
}

impl MachineConfig {
    /// Validates the configuration, returning the first violated
    /// constraint as a typed error. `Machine::try_new` calls this before
    /// building any state; `Machine::new` panics on the same conditions.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.system_counter_hz == 0 || self.clock_hz < self.system_counter_hz {
            return Err(ConfigError::InvalidTimerRatio {
                clock_hz: self.clock_hz,
                system_counter_hz: self.system_counter_hz,
            });
        }
        if self.speculation_window == 0 {
            return Err(ConfigError::ZeroSpeculationWindow);
        }
        if !(0.0..=1.0).contains(&self.os_noise) {
            return Err(ConfigError::InvalidOsNoise(self.os_noise));
        }
        Ok(())
    }

    /// Cache parameters of the selected core cluster (Table 2).
    pub fn cache_params(&self) -> ClusterCaches {
        ClusterCaches::for_core(self.core)
    }

    /// TLB parameters (identical across clusters in our model; the paper
    /// reverse-engineered the p-core hierarchy, Figure 6).
    pub fn tlb_params(&self) -> ClusterTlbs {
        ClusterTlbs::m1()
    }
}

/// Per-cluster cache parameters.
///
/// `*_reported` carry the architecturally visible configuration-register
/// values (Table 2); `l1d_effective_ways` is the *observed* associativity
/// the paper's footnote 5 notes is half the reported value, and is what
/// the timing model uses.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct ClusterCaches {
    /// L1 instruction cache (reported geometry).
    pub l1i: CacheParams,
    /// L1 data cache (reported geometry).
    pub l1d: CacheParams,
    /// Shared L2 cache (reported geometry).
    pub l2: CacheParams,
    /// Observed effective L1D associativity (paper footnote 5: half of
    /// the reported ways).
    pub l1d_effective_ways: usize,
}

impl ClusterCaches {
    /// Table 2 parameters for the given cluster.
    pub fn for_core(core: CoreKind) -> Self {
        match core {
            CoreKind::PCore => Self {
                l1i: CacheParams { ways: 6, sets: 512, line: 64 },
                l1d: CacheParams { ways: 8, sets: 256, line: 64 },
                l2: CacheParams { ways: 12, sets: 8192, line: 128 },
                l1d_effective_ways: 4,
            },
            CoreKind::ECore => Self {
                l1i: CacheParams { ways: 8, sets: 256, line: 64 },
                l1d: CacheParams { ways: 8, sets: 128, line: 64 },
                l2: CacheParams { ways: 16, sets: 2048, line: 128 },
                l1d_effective_ways: 4,
            },
        }
    }
}

/// TLB hierarchy parameters (paper Figure 6).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct ClusterTlbs {
    /// Each per-privilege L1 instruction TLB: 4 ways × 32 sets.
    pub itlb: TlbParams,
    /// The shared L1 data TLB: 12 ways × 256 sets.
    pub dtlb: TlbParams,
    /// The shared L2 TLB: 23 ways × 2048 sets.
    pub l2: TlbParams,
}

impl ClusterTlbs {
    /// The reverse-engineered M1 p-core hierarchy.
    pub fn m1() -> Self {
        Self {
            itlb: TlbParams { ways: 4, sets: 32 },
            dtlb: TlbParams { ways: 12, sets: 256 },
            l2: TlbParams { ways: 23, sets: 2048 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_pcore_sizes() {
        let c = ClusterCaches::for_core(CoreKind::PCore);
        assert_eq!(c.l1i.total_bytes(), 192 * 1024);
        assert_eq!(c.l1d.total_bytes(), 128 * 1024);
        assert_eq!(c.l2.total_bytes(), 12 * 1024 * 1024);
    }

    #[test]
    fn table2_ecore_sizes() {
        let c = ClusterCaches::for_core(CoreKind::ECore);
        assert_eq!(c.l1i.total_bytes(), 128 * 1024);
        assert_eq!(c.l1d.total_bytes(), 64 * 1024);
        assert_eq!(c.l2.total_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    fn figure6_tlb_parameters() {
        let t = ClusterTlbs::m1();
        assert_eq!((t.itlb.ways, t.itlb.sets), (4, 32));
        assert_eq!((t.dtlb.ways, t.dtlb.sets), (12, 256));
        assert_eq!((t.l2.ways, t.l2.sets), (23, 2048));
    }

    #[test]
    fn defaults_are_the_attack_platform() {
        let c = MachineConfig::default();
        assert_eq!(c.core, CoreKind::PCore);
        assert_eq!(c.squash, SquashPolicy::Eager);
        assert_eq!(c.mitigation, Mitigation::None);
        assert_eq!(c.system_counter_hz, 24_000_000);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_ratios() {
        assert_eq!(MachineConfig::default().validate(), Ok(()));

        let inverted = MachineConfig {
            clock_hz: 24_000_000,
            system_counter_hz: 3_200_000_000,
            ..MachineConfig::default()
        };
        assert_eq!(
            inverted.validate(),
            Err(ConfigError::InvalidTimerRatio {
                clock_hz: 24_000_000,
                system_counter_hz: 3_200_000_000,
            })
        );

        let zero = MachineConfig { system_counter_hz: 0, ..MachineConfig::default() };
        assert!(matches!(zero.validate(), Err(ConfigError::InvalidTimerRatio { .. })));

        let noisy = MachineConfig { os_noise: 1.5, ..MachineConfig::default() };
        assert_eq!(noisy.validate(), Err(ConfigError::InvalidOsNoise(1.5)));

        let err = inverted.validate().unwrap_err().to_string();
        assert!(err.contains("invalid timer ratio"), "display form: {err}");
    }

    #[test]
    fn latency_plateaus_match_paper_shape() {
        // The derived measured latencies must land on the paper's plateaus.
        let l = LatencyModel::default();
        let base = l.measure_overhead + l.l1_hit;
        assert_eq!(base, 60, "L1+dTLB hit plateau");
        assert_eq!(base + l.l2_hit, 80, "L2 cache hit plateau");
        assert_eq!(base + l.l2_tlb_hit, 95, "dTLB miss plateau (Fig 5a)");
        assert_eq!(base + l.l2_hit + l.l2_tlb_hit, 115, "dTLB miss + L2 cache (Fig 5b)");
        assert_eq!(base + l.walk, 115, "L2 TLB miss plateau (Fig 5a)");
        assert_eq!(base + l.l2_hit + l.walk, 135, "L2 TLB miss + L2 cache (Fig 5b)");
    }
}
