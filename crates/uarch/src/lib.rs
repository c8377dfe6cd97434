//! An Apple-M1-like speculative microarchitecture model.
//!
//! The PACMAN paper (ISCA 2022) demonstrates its attack on the M1 SoC.
//! This crate is the workspace's stand-in for that hardware: a
//! cycle-costed simulator of one performance core with
//!
//! - the Table 2 cache hierarchy and the Figure 6 TLB hierarchy
//!   (privilege-split L1 iTLBs, a shared L1 dTLB that doubles as the
//!   iTLBs' non-inclusive backing store, a shared L2 TLB);
//! - 16 KB paging with 48-bit virtual addresses and real page-table walks
//!   over simulated physical memory;
//! - a bimodal conditional predictor, a BTB, and a speculative execution
//!   engine with bounded wrong-path execution, suppressed speculative
//!   faults, and **eager squash of nested branches** — the Figure 3
//!   machinery every PACMAN gadget depends on;
//! - ARMv8.3 Pointer Authentication backed by QARMA-64, with the five key
//!   registers, EL0/EL1 privilege separation, and corrupt-on-failure
//!   semantics;
//! - the Table 1 timers: the coarse 24 MHz system counter, the EL1-gated
//!   `PMC0` cycle counter, and the userspace multi-thread timer of §6.1;
//! - the §9 mitigations as configuration switches, applied at the exact
//!   pipeline points the paper discusses.
//!
//! # Example
//!
//! ```
//! use pacman_uarch::{Machine, MachineConfig, Perms};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! m.map_page(0x40_0000, Perms::user_rw());
//! // A cold access walks the page tables; a hot one hits the dTLB.
//! let cold = m.timed_user_load(0x40_0000)?;
//! let hot = m.timed_user_load(0x40_0000)?;
//! assert!(hot < cold);
//! # Ok::<(), pacman_uarch::Trap>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block_cache;
pub mod cache;
pub mod config;
pub mod cpu;
mod fasthash;
pub mod machine;
pub mod mem;
pub mod paging;
pub mod predict;
pub mod profiler;
pub mod timer;
pub mod tlb;
pub mod trace;

pub use block_cache::{BlockCache, BlockCacheStats};
pub use cache::{Cache, CacheParams, CacheStats};
pub use config::{
    ClusterCaches, ClusterTlbs, ConfigError, CoreKind, ExecEngine, InjectedBugs, LatencyModel,
    MachineConfig, Mitigation, SquashPolicy,
};
pub use cpu::{AccessKind, Cpu, El, Trap};
pub use machine::{AccessOutcome, CacheHit, Machine, MachineStats, MemorySystem, Stop, TlbHit};
pub use mem::PhysMemory;
pub use paging::{PageTables, Perms};
pub use predict::{Bimodal, Btb, PredictStats, Rsb};
pub use profiler::{Phase, Profiler};
pub use timer::{Timers, TimingSource};
pub use tlb::{FetchWorld, Tlb, TlbEntry, TlbHierarchy, TlbParams, TlbStats};
pub use trace::{SpecEvent, SpecTrace};
