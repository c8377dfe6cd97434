//! The machine: memory system + speculative core + timers.
//!
//! [`Machine`] executes programs written in `pacman_isa` with an explicit
//! model of the microarchitectural behaviour the PACMAN attack depends on:
//!
//! - every architectural and speculative memory access goes through the
//!   caches and the Figure 6 TLB hierarchy;
//! - conditional-branch mispredictions open a *speculation shadow* in
//!   which up to `speculation_window` wrong-path instructions execute
//!   against microarchitectural state only, with faults suppressed at the
//!   squash (Figure 3(c));
//! - indirect branches inside the shadow first fetch their BTB-predicted
//!   target, then — under [`SquashPolicy::Eager`] — are eagerly squashed
//!   and redirected to the resolved target (Figure 3(d));
//! - the §9 mitigations hook into exactly these paths.
//!
//! [`Machine::run`] is the one retire loop ([`Machine::step`] is
//! `run(1)`). Under [`ExecEngine::Cached`], while a fetch cursor covers
//! the PC, it executes each run of consecutive predecoded register-only
//! instructions back to back and charges their fetches in bulk; the
//! instruction that ends a run goes through `Machine::exec`. A run ends
//! at the page end, at the instruction budget, or at the first slot that
//! is not a decoded register-only instruction. Bulk charging is exact:
//! those instructions touch no simulated memory, TLB, predictor or RNG,
//! so their fetches make the same counter updates and cycles in one
//! update as one by one — block-cache hits, MRU iTLB hits and the L1i
//! accessed line by line in program order. The profiler times each
//! instruction, so under it the loop forms no runs: each cursor-served
//! fetch is charged alone and each instruction goes through `exec`.
//! Every other fetch, and every fetch under
//! [`ExecEngine::Interpreted`], goes through the full per-instruction
//! path in the same loop.
//!
//! The retire path (`Machine::exec`) and the wrong path
//! (`Machine::spec_exec`) share one copy of the instruction semantics:
//! `alu` evaluates the register-only instructions and `MemOp` computes
//! every load/store address. They differ only in policy. The retire path
//! raises traps, trains the predictors and writes memory; the wrong path
//! suppresses faults, follows the predictor untrained, never writes
//! memory, and applies the mitigations, with every access outcome going
//! through `Machine::spec_outcome`.

use std::collections::HashMap;

use pacman_isa::ptr::{self, AuthResult, VirtualAddress, PAGE_SIZE, VA_BITS};
use pacman_isa::{decode, encode, Inst, PacKey, PacModifier, Reg, SysReg};
use pacman_qarma::{PacComputer, QarmaKey};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::block_cache::BlockCache;
use crate::cache::{Cache, CacheOutcome};
use crate::config::{ConfigError, ExecEngine, MachineConfig, Mitigation, SquashPolicy};
use crate::cpu::{AccessKind, Cpu, El, SavedContext, Trap};
use crate::fasthash::FxBuild;
use crate::mem::PhysMemory;
use crate::paging::{PageTables, Perms};
use crate::predict::{Bimodal, Btb, PredictStats, Rsb};
use crate::profiler::{ProfTimer, Profiler};
use crate::timer::{Timers, TimingSource};
use crate::tlb::{DataLookup, FetchLookup, FetchWorld, TlbHierarchy};
use crate::trace::{SpecEvent, SpecTrace};
use pacman_telemetry::{Histogram, Registry};

/// Size bound on the PAC memo; reaching it clears the table (entries are
/// recomputable on demand, so a flush only costs warm-up).
const PAC_MEMO_CAP: usize = 1 << 20;

/// Where a translation was satisfied.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum TlbHit {
    /// L1 TLB hit (dTLB for data, the private iTLB for fetches).
    L1,
    /// L2 TLB hit.
    L2,
    /// Full page-table walk.
    Walk,
}

/// Where a cache access was satisfied.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum CacheHit {
    /// L1 hit.
    L1,
    /// L2 hit.
    L2,
    /// DRAM.
    Memory,
}

/// Timing-relevant outcome of one memory access.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct AccessOutcome {
    /// Cycles consumed by the access itself (without measurement
    /// overhead).
    pub cycles: u64,
    /// TLB level that satisfied the translation.
    pub tlb: TlbHit,
    /// Cache level that satisfied the data.
    pub cache: CacheHit,
}

#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum MemFault {
    NonCanonical,
    Unmapped,
    Perm,
}

impl MemFault {
    fn into_trap(self, va: u64, el: El, access: AccessKind) -> Trap {
        match self {
            MemFault::NonCanonical | MemFault::Unmapped => {
                Trap::TranslationFault { va, el, access }
            }
            MemFault::Perm => Trap::PermissionFault { va, el, access },
        }
    }
}

#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum SpecAccess {
    Ok(AccessOutcome, u64),
    /// Would fault: suppressed, ends the shadow.
    Fault,
    /// Blocked by an invisible-speculation mitigation: no side effects.
    Blocked,
}

/// The memory system: physical memory, page tables, caches, TLBs.
#[derive(Debug)]
pub struct MemorySystem {
    /// Physical memory.
    pub phys: PhysMemory,
    /// Translation tables.
    pub tables: PageTables,
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2 cache.
    pub l2c: Cache,
    /// The Figure 6 TLB hierarchy.
    pub tlbs: TlbHierarchy,
    latency: crate::config::LatencyModel,
}

impl MemorySystem {
    fn new(config: &MachineConfig) -> Self {
        let caches = config.cache_params();
        let tlbs = config.tlb_params();
        let mut phys = PhysMemory::new();
        let tables = PageTables::new(&mut phys);
        Self {
            phys,
            tables,
            l1i: Cache::new(caches.l1i, None),
            l1d: Cache::new(caches.l1d, Some(caches.l1d_effective_ways)),
            l2c: Cache::new(caches.l2, None),
            tlbs: TlbHierarchy::new(tlbs.itlb, tlbs.dtlb, tlbs.l2),
            latency: config.latency,
        }
    }

    /// Returns this memory system to the state of a fresh
    /// `MemorySystem::new(config)`, recycling its own frames
    /// ([`PhysMemory::reset`]). Caches and TLBs whose geometry `config`
    /// leaves unchanged are flushed and their counters zeroed in place
    /// instead of being reallocated.
    fn reset(&mut self, config: &MachineConfig) {
        let caches = config.cache_params();
        let tlbs = config.tlb_params();
        self.phys.reset();
        self.tables = PageTables::new(&mut self.phys);
        self.l1i.reset(caches.l1i, None);
        self.l1d.reset(caches.l1d, Some(caches.l1d_effective_ways));
        self.l2c.reset(caches.l2, None);
        self.tlbs.reset(tlbs.itlb, tlbs.dtlb, tlbs.l2);
        self.latency = config.latency;
    }

    fn world(el: El) -> FetchWorld {
        match el {
            El::El0 => FetchWorld::User,
            El::El1 => FetchWorld::Kernel,
        }
    }

    fn check_perms(
        entry: &crate::tlb::TlbEntry,
        el: El,
        access: AccessKind,
    ) -> Result<(), MemFault> {
        let p = entry.perms;
        if el == El::El0 && !p.user {
            return Err(MemFault::Perm);
        }
        let allowed = match access {
            AccessKind::Load => p.read,
            AccessKind::Store => p.write,
            AccessKind::Fetch => p.execute,
        };
        if allowed {
            Ok(())
        } else {
            Err(MemFault::Perm)
        }
    }

    /// One access of `pa` through the L1 that `access` uses (the L1i for
    /// fetches, else the L1d) and on a miss the unified L2: where it hit
    /// and what it cost.
    fn cache_access(&mut self, access: AccessKind, pa: u64) -> (CacheHit, u64) {
        let l1 = if access == AccessKind::Fetch { &mut self.l1i } else { &mut self.l1d };
        match l1.access(pa) {
            CacheOutcome::Hit => (CacheHit::L1, self.latency.l1_hit),
            CacheOutcome::Miss => match self.l2c.access(pa) {
                CacheOutcome::Hit => (CacheHit::L2, self.latency.l1_hit + self.latency.l2_hit),
                CacheOutcome::Miss => (
                    CacheHit::Memory,
                    self.latency.l1_hit + self.latency.l2_hit + self.latency.dram,
                ),
            },
        }
    }

    /// Architectural data access: translates, permission-checks, touches
    /// the caches, and returns the outcome plus physical address.
    fn data_access(
        &mut self,
        va: u64,
        el: El,
        access: AccessKind,
    ) -> Result<(AccessOutcome, u64), MemFault> {
        if !ptr::is_canonical(va) {
            return Err(MemFault::NonCanonical);
        }
        let v = VirtualAddress::new(va);
        let (entry, tlb, tlb_cycles) = match self.tlbs.lookup_data(v.vpn()) {
            DataLookup::DtlbHit(e) => (e, TlbHit::L1, 0),
            DataLookup::L2Hit(e) => (e, TlbHit::L2, self.latency.l2_tlb_hit),
            DataLookup::Miss => {
                let (e, _reads) =
                    self.tables.walk(&self.phys, v).map_err(|_| MemFault::Unmapped)?;
                self.tlbs.fill_data(e);
                (e, TlbHit::Walk, self.latency.walk)
            }
        };
        Self::check_perms(&entry, el, access)?;
        let pa = entry.pfn * PAGE_SIZE + v.page_offset();
        let (cache, cache_cycles) = self.cache_access(access, pa);
        Ok((AccessOutcome { cycles: tlb_cycles + cache_cycles, tlb, cache }, pa))
    }

    /// Architectural instruction fetch through the per-privilege iTLB.
    fn fetch_access(&mut self, va: u64, el: El) -> Result<(AccessOutcome, u64), MemFault> {
        if !ptr::is_canonical(va) {
            return Err(MemFault::NonCanonical);
        }
        let v = VirtualAddress::new(va);
        let world = Self::world(el);
        let (entry, tlb, tlb_cycles) = match self.tlbs.lookup_fetch(world, v.vpn()) {
            FetchLookup::ItlbHit(e) => (e, TlbHit::L1, 0),
            FetchLookup::L2Hit(e) => (e, TlbHit::L2, self.latency.l2_tlb_hit),
            FetchLookup::Miss => {
                let (e, _reads) =
                    self.tables.walk(&self.phys, v).map_err(|_| MemFault::Unmapped)?;
                self.tlbs.fill_fetch(world, e);
                (e, TlbHit::Walk, self.latency.walk)
            }
        };
        Self::check_perms(&entry, el, AccessKind::Fetch)?;
        let pa = entry.pfn * PAGE_SIZE + v.page_offset();
        let (cache, cache_cycles) = self.cache_access(AccessKind::Fetch, pa);
        Ok((AccessOutcome { cycles: tlb_cycles + cache_cycles, tlb, cache }, pa))
    }

    /// Speculative data access. Faults are reported, not raised; under
    /// [`Mitigation::DelayOnMiss`] any L1 miss blocks the access without
    /// side effects.
    fn spec_data_access(
        &mut self,
        va: u64,
        el: El,
        access: AccessKind,
        mit: Mitigation,
    ) -> SpecAccess {
        if mit == Mitigation::DelayOnMiss {
            if !ptr::is_canonical(va) {
                return SpecAccess::Fault;
            }
            let v = VirtualAddress::new(va);
            if !self.tlbs.dtlb().contains(v.vpn()) {
                return SpecAccess::Blocked;
            }
            // dTLB hit: safe to proceed through the normal path (it will
            // hit), then check the cache probe-first.
            let entry = match self.tlbs.lookup_data(v.vpn()) {
                DataLookup::DtlbHit(e) => e,
                _ => unreachable!("probe said the dTLB holds this vpn"),
            };
            if Self::check_perms(&entry, el, access).is_err() {
                return SpecAccess::Fault;
            }
            let pa = entry.pfn * PAGE_SIZE + v.page_offset();
            if !self.l1d.contains(pa) {
                return SpecAccess::Blocked;
            }
            let (cache, cycles) = self.cache_access(access, pa);
            return SpecAccess::Ok(AccessOutcome { cycles, tlb: TlbHit::L1, cache }, pa);
        }
        match self.data_access(va, el, access) {
            Ok((outcome, pa)) => SpecAccess::Ok(outcome, pa),
            Err(_) => SpecAccess::Fault,
        }
    }

    /// Speculative instruction fetch (the transmit step of the instruction
    /// PACMAN gadget when it targets the verified pointer).
    fn spec_fetch(&mut self, va: u64, el: El, mit: Mitigation) -> SpecAccess {
        if mit == Mitigation::DelayOnMiss {
            if !ptr::is_canonical(va) {
                return SpecAccess::Fault;
            }
            let v = VirtualAddress::new(va);
            if !self.tlbs.itlb(Self::world(el)).contains(v.vpn()) {
                return SpecAccess::Blocked;
            }
        }
        match self.fetch_access(va, el) {
            Ok((outcome, pa)) => SpecAccess::Ok(outcome, pa),
            Err(_) => SpecAccess::Fault,
        }
    }

    /// Debug read (no microarchitectural side effects): translates through
    /// the page tables directly.
    pub fn debug_read_u64(&self, va: u64) -> Option<u64> {
        let pa = self.tables.translate(&self.phys, VirtualAddress::new(va))?;
        Some(self.phys.read_u64(pa))
    }

    /// Debug byte-slice write, page-crossing safe.
    pub fn debug_write_bytes(&mut self, va: u64, bytes: &[u8]) -> bool {
        for (i, &b) in bytes.iter().enumerate() {
            match self.tables.translate(&self.phys, VirtualAddress::new(va + i as u64)) {
                Some(pa) => self.phys.write_u8(pa, b),
                None => return false,
            }
        }
        true
    }

    /// Debug byte read.
    pub fn debug_read_u8(&self, va: u64) -> Option<u8> {
        let pa = self.tables.translate(&self.phys, VirtualAddress::new(va))?;
        Some(self.phys.read_u8(pa))
    }
}

/// Why [`Machine::run`] stopped.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum Stop {
    /// A `HLT` retired.
    Hlt,
    /// The instruction budget was exhausted.
    InstLimit,
}

/// Execution statistics.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct MachineStats {
    /// Architecturally retired instructions.
    pub retired: u64,
    /// Speculation shadows opened.
    pub spec_episodes: u64,
    /// Wrong-path instructions executed.
    pub spec_insts: u64,
    /// Faults raised on a wrong path and suppressed by the squash.
    pub spec_faults_suppressed: u64,
    /// Eager nested-branch squashes performed.
    pub eager_squashes: u64,
    /// Accesses blocked by taint tracking.
    pub taint_blocked: u64,
    /// Accesses blocked by delay-on-miss.
    pub delay_blocked: u64,
    /// Implicit fences injected by [`Mitigation::FenceAfterAut`].
    pub fences_injected: u64,
    /// Syscall round trips.
    pub syscalls: u64,
    /// Timed accesses inflated by an injected timing-noise spike
    /// ([`crate::config::LatencyModel::fault_spike`]); nonzero only
    /// under fault injection, and only on attempts that are discarded
    /// and retried.
    pub fault_spikes: u64,
}

#[derive(Clone, Debug)]
struct Shadow {
    regs: [u64; 31],
    sp: u64,
    cmp: (i64, i64),
    taint: [bool; 31],
}

impl Shadow {
    fn from_cpu(cpu: &Cpu) -> Self {
        Self { regs: cpu.regs, sp: cpu.sp[cpu.el as usize], cmp: cpu.cmp, taint: [false; 31] }
    }

    fn get(&self, r: Reg) -> u64 {
        match r.index() {
            31 => self.sp,
            32 => 0,
            n => self.regs[n as usize],
        }
    }

    fn set(&mut self, r: Reg, v: u64) {
        match r.index() {
            31 => self.sp = v,
            32 => {}
            n => self.regs[n as usize] = v,
        }
    }

    fn tainted(&self, r: Reg) -> bool {
        match r.index() {
            31 | 32 => false,
            n => self.taint[n as usize],
        }
    }

    fn set_taint(&mut self, r: Reg, t: bool) {
        if let n @ 0..=30 = r.index() {
            self.taint[n as usize] = t;
        }
    }
}

/// The pattern of the register-only instructions [`alu`] evaluates, so
/// the retire path and the wrong path each dispatch them with one arm.
macro_rules! alu_insts {
    () => {
        Inst::MovZ { .. }
            | Inst::MovK { .. }
            | Inst::MovN { .. }
            | Inst::MovReg { .. }
            | Inst::Csel { .. }
            | Inst::AddImm { .. }
            | Inst::SubImm { .. }
            | Inst::AddReg { .. }
            | Inst::SubReg { .. }
            | Inst::AndReg { .. }
            | Inst::OrrReg { .. }
            | Inst::EorReg { .. }
            | Inst::Mul { .. }
            | Inst::LslImm { .. }
            | Inst::LsrImm { .. }
            | Inst::CmpImm { .. }
            | Inst::CmpReg { .. }
            | Inst::Xpac { .. }
    };
}

/// The pattern of the loads and stores [`MemOp::of`] decodes.
macro_rules! mem_insts {
    () => {
        Inst::Ldr { .. }
            | Inst::Ldrb { .. }
            | Inst::Str { .. }
            | Inst::Strb { .. }
            | Inst::Ldp { .. }
            | Inst::Stp { .. }
    };
}

/// What a register-only instruction does, as [`alu`] evaluates it.
#[derive(Copy, Clone, Debug)]
enum AluOut {
    /// Write `value` to `rd`. On the wrong path `rd` is then tainted iff
    /// one of the registers the value was read from, `srcs`, is (unused
    /// entries are `XZR`, which is never tainted).
    Write { rd: Reg, value: u64, srcs: [Reg; 2] },
    /// Set the comparison operands.
    Cmp(i64, i64),
}

/// Evaluates an [`alu_insts!`] instruction against a register file read
/// through `get` and the comparison operands `cmp`: the one copy of these
/// semantics behind both [`Machine::exec`] and [`Machine::spec_exec`].
#[inline(always)]
fn alu(inst: Inst, get: impl Fn(Reg) -> u64, cmp: (i64, i64)) -> AluOut {
    const NONE: Reg = Reg::XZR;
    let write = |rd, value, srcs| AluOut::Write { rd, value, srcs };
    match inst {
        Inst::MovZ { rd, imm, shift } => {
            write(rd, u64::from(imm) << (16 * u32::from(shift)), [NONE; 2])
        }
        Inst::MovK { rd, imm, shift } => {
            let sh = 16 * u32::from(shift);
            write(rd, (get(rd) & !(0xFFFFu64 << sh)) | (u64::from(imm) << sh), [rd, NONE])
        }
        Inst::MovN { rd, imm, shift } => {
            write(rd, !(u64::from(imm) << (16 * u32::from(shift))), [NONE; 2])
        }
        Inst::MovReg { rd, rn } => write(rd, get(rn), [rn, NONE]),
        Inst::Csel { rd, rn, rm, cond } => {
            let src = if cond.holds(cmp.0, cmp.1) { rn } else { rm };
            write(rd, get(src), [src, NONE])
        }
        Inst::AddImm { rd, rn, imm } => write(rd, get(rn).wrapping_add(u64::from(imm)), [rn, NONE]),
        Inst::SubImm { rd, rn, imm } => write(rd, get(rn).wrapping_sub(u64::from(imm)), [rn, NONE]),
        Inst::AddReg { rd, rn, rm } => write(rd, get(rn).wrapping_add(get(rm)), [rn, rm]),
        Inst::SubReg { rd, rn, rm } => write(rd, get(rn).wrapping_sub(get(rm)), [rn, rm]),
        Inst::AndReg { rd, rn, rm } => write(rd, get(rn) & get(rm), [rn, rm]),
        Inst::OrrReg { rd, rn, rm } => write(rd, get(rn) | get(rm), [rn, rm]),
        Inst::EorReg { rd, rn, rm } => write(rd, get(rn) ^ get(rm), [rn, rm]),
        Inst::Mul { rd, rn, rm } => write(rd, get(rn).wrapping_mul(get(rm)), [rn, rm]),
        Inst::LslImm { rd, rn, shift } => write(rd, get(rn) << shift, [rn, NONE]),
        Inst::LsrImm { rd, rn, shift } => write(rd, get(rn) >> shift, [rn, NONE]),
        Inst::CmpImm { rn, imm } => AluOut::Cmp(get(rn) as i64, i64::from(imm)),
        Inst::CmpReg { rn, rm } => AluOut::Cmp(get(rn) as i64, get(rm) as i64),
        Inst::Xpac { rd, .. } => write(rd, ptr::canonicalize(get(rd)), [rd, NONE]),
        _ => unreachable!("alu_insts! lists exactly the instructions alu evaluates"),
    }
}

/// A load or store as both paths issue it: the access kind, whether it
/// moves one byte, its base register, and the (data register, effective
/// address) words it moves — one, or two consecutive doublewords for a
/// pair.
#[derive(Copy, Clone, Debug)]
struct MemOp {
    kind: AccessKind,
    byte: bool,
    rn: Reg,
    words: [(Reg, u64); 2],
    len: usize,
}

impl MemOp {
    /// Decodes a [`mem_insts!`] instruction, reading its base register
    /// through `get`. The effective address is `rn + offset` (wrapping);
    /// a pair's second word is the doubleword after it.
    #[inline(always)]
    fn of(inst: Inst, get: impl Fn(Reg) -> u64) -> Self {
        use AccessKind::{Load, Store};
        let (kind, byte, rt, rt2, rn, offset) = match inst {
            Inst::Ldr { rt, rn, offset } => (Load, false, rt, None, rn, offset),
            Inst::Ldrb { rt, rn, offset } => (Load, true, rt, None, rn, offset),
            Inst::Str { rt, rn, offset } => (Store, false, rt, None, rn, offset),
            Inst::Strb { rt, rn, offset } => (Store, true, rt, None, rn, offset),
            Inst::Ldp { rt, rt2, rn, offset } => (Load, false, rt, Some(rt2), rn, offset),
            Inst::Stp { rt, rt2, rn, offset } => (Store, false, rt, Some(rt2), rn, offset),
            _ => unreachable!("mem_insts! lists exactly the instructions MemOp decodes"),
        };
        let va = get(rn).wrapping_add_signed(offset.into());
        let second = (rt2.unwrap_or(Reg::XZR), va.wrapping_add(8));
        Self { kind, byte, rn, words: [(rt, va), second], len: 1 + usize::from(rt2.is_some()) }
    }

    /// The words to move, in order.
    fn words(&self) -> &[(Reg, u64)] {
        &self.words[..self.len]
    }
}

/// The value of a `PAC*`/`AUT*` modifier operand, reading a register
/// modifier through `get`.
#[inline(always)]
fn modifier_value(modifier: PacModifier, get: impl Fn(Reg) -> u64) -> u64 {
    match modifier {
        PacModifier::Reg(m) => get(m),
        PacModifier::Zero => 0,
    }
}

/// Number of [`ExecEngine::Cached`] fetch cursors (a power of two): a
/// direct-mapped table indexed by the low page-number bits of the PC, so
/// a syscall's user page, vector page and handler page each keep theirs.
const CURSORS: usize = 4;

/// The fetch cursor slot for `pc`.
#[inline(always)]
fn cursor_index(pc: u64) -> usize {
    (pc / PAGE_SIZE) as usize & (CURSORS - 1)
}

/// One [`ExecEngine::Cached`] fetch cursor: a page an architectural fetch
/// went through, with everything the slow path derived from it. After any
/// successful `Cached` fetch the page's translation is the MRU way of its
/// set in its EL's iTLB, whether the lookup hit, refilled from the L2 TLB
/// or walked. A word-aligned fetch in the same page at the same EL is
/// served from here while
///
/// - that iTLB is still at [`FetchCursor::version`] (so the translation is
///   still its set's MRU way, and the lookup would hit it unchanged and
///   promote nothing — see [`crate::tlb::Tlb::version`]), and
/// - the block cache is still in [`FetchCursor::epoch`] and memory still
///   at code-write generation [`FetchCursor::gen`] (so the frame's slot
///   table is intact and current) and the slot is decoded.
///
/// Host-side only: never serialised, cold after a reset or a restore.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
struct FetchCursor {
    /// Page-aligned VA of the page.
    page: u64,
    /// The EL the page was fetched at.
    el: El,
    /// The version of that EL's iTLB the translation was read under.
    version: u64,
    /// Physical address of the page's frame.
    frame: u64,
    /// Block-cache arena position of the frame's word 0.
    slots: usize,
    /// Block-cache epoch `slots` belongs to.
    epoch: u64,
    /// Code-write generation the slots were decoded at.
    gen: u64,
}

impl FetchCursor {
    /// A cursor that serves nothing: no iTLB version, block-cache epoch
    /// or code-write generation ever reaches `u64::MAX`.
    const COLD: Self =
        Self { page: 0, el: El::El0, version: u64::MAX, frame: 0, slots: 0, epoch: 0, gen: 0 };
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    /// Architectural CPU state.
    pub cpu: Cpu,
    /// Memory system.
    pub mem: MemorySystem,
    /// Timer block.
    pub timers: Timers,
    /// Conditional branch predictor.
    pub bimodal: Bimodal,
    /// Branch target buffer.
    pub btb: Btb,
    /// Return stack buffer (predicts `ret` targets).
    pub rsb: Rsb,
    /// Counters.
    pub stats: MachineStats,
    /// Prediction-outcome counters (always on; plain adds).
    pub predict_stats: PredictStats,
    /// Wrong-path instructions per speculation shadow, log₂-bucketed.
    pub spec_depth: Histogram,
    /// Optional speculation-event recorder (Figure 3 timelines).
    pub trace: SpecTrace,
    /// Retire-loop self-profiler (per-opcode / hot-block / phase
    /// attribution). Enabled via `MachineConfig::profile`; off, it
    /// costs one predicted branch per retired instruction.
    pub profiler: Profiler,
    /// Global cycle count.
    pub cycles: u64,
    config: MachineConfig,
    /// Predecoded micro-op arena the [`ExecEngine::Cached`] dispatch path
    /// fetches from; unused (and empty) under `Interpreted`.
    block_cache: BlockCache,
    /// Page-granular fast paths ahead of `fetch_access` + the block cache
    /// (`Cached` only; all cold under `Interpreted`).
    fetch_cursors: [FetchCursor; CURSORS],
    /// Memoised PAC computations keyed by (key value, canonical pointer,
    /// modifier). Keying on the key *value* makes invalidation on key
    /// writes unnecessary: a changed key never matches old entries. Only
    /// consulted under [`ExecEngine::Cached`].
    pac_memo: HashMap<(u128, u64, u64), u16, FxBuild>,
    pac_memo_hits: u64,
    pac_memo_misses: u64,
    rng: SmallRng,
    timing_source: TimingSource,
    vbar: u64,
    /// A wrong-path fault latched for architectural delivery by the
    /// `commit_suppressed_faults` injected bug. Always `None` unless the
    /// conformance self-test armed that knob.
    pending_spec_fault: Option<Trap>,
}

impl Machine {
    /// Boots a machine with the given configuration. Memory starts empty;
    /// callers map pages and load programs before running.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`MachineConfig::validate`]
    /// (use [`Machine::try_new`] for a typed error instead).
    pub fn new(config: MachineConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid machine configuration: {e}");
        }
        let mem = MemorySystem::new(&config);
        let timers = Timers::new(config.clock_hz, config.system_counter_hz);
        let rng = SmallRng::seed_from_u64(config.seed);
        Self {
            cpu: Cpu::new(),
            mem,
            timers,
            bimodal: Bimodal::new(),
            btb: Btb::new(),
            rsb: Rsb::default(),
            stats: MachineStats::default(),
            predict_stats: PredictStats::default(),
            spec_depth: Histogram::new(),
            trace: SpecTrace::default(),
            profiler: Profiler::new(config.profile),
            cycles: 0,
            config,
            block_cache: BlockCache::new(),
            fetch_cursors: [FetchCursor::COLD; CURSORS],
            pac_memo: HashMap::default(),
            pac_memo_hits: 0,
            pac_memo_misses: 0,
            rng,
            timing_source: TimingSource::default(),
            vbar: 0,
            pending_spec_fault: None,
        }
    }

    /// Boots a machine, reporting an invalid configuration as a typed
    /// [`ConfigError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by
    /// [`MachineConfig::validate`].
    pub fn try_new(config: MachineConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self::new(config))
    }

    /// Rebuilds this machine from scratch with its current configuration,
    /// recycling the physical frames already allocated. Equivalent to
    /// `*self = Machine::new(self.config().clone())` but without
    /// returning frame storage to the host allocator.
    pub fn reset(&mut self) {
        let config = self.config.clone();
        self.reset_with(config);
    }

    /// [`Machine::reset`] with a (possibly different) configuration.
    /// Equivalent to `*self = Machine::new(config)`, but physical frames
    /// are recycled and caches, TLBs and the block cache arena whose
    /// geometry is unchanged are emptied in place rather than
    /// reallocated.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`MachineConfig::validate`].
    pub fn reset_with(&mut self, config: MachineConfig) {
        if let Err(e) = config.validate() {
            panic!("invalid machine configuration: {e}");
        }
        // Exhaustive on purpose: a new field must decide how it resets.
        let Self {
            cpu,
            mem,
            timers,
            bimodal,
            btb,
            rsb,
            stats,
            predict_stats,
            spec_depth,
            trace,
            profiler,
            cycles,
            config: old_config,
            block_cache,
            fetch_cursors,
            pac_memo,
            pac_memo_hits,
            pac_memo_misses,
            rng,
            timing_source,
            vbar,
            pending_spec_fault,
        } = self;
        mem.reset(&config);
        block_cache.reset();
        *fetch_cursors = [FetchCursor::COLD; CURSORS];
        *cpu = Cpu::new();
        *timers = Timers::new(config.clock_hz, config.system_counter_hz);
        *bimodal = Bimodal::new();
        *btb = Btb::new();
        *rsb = Rsb::default();
        *stats = MachineStats::default();
        *predict_stats = PredictStats::default();
        *spec_depth = Histogram::new();
        *trace = SpecTrace::default();
        *profiler = Profiler::new(config.profile);
        *cycles = 0;
        *pac_memo = HashMap::default();
        *pac_memo_hits = 0;
        *pac_memo_misses = 0;
        *rng = SmallRng::seed_from_u64(config.seed);
        *timing_source = TimingSource::default();
        *vbar = 0;
        *pending_spec_fault = None;
        *old_config = config;
    }

    /// The active configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Installs the syscall entry point (the kernel's exception vector).
    pub fn set_vbar(&mut self, va: u64) {
        self.vbar = va;
    }

    /// Selects the timer used by the timed-access helpers.
    pub fn set_timing_source(&mut self, source: TimingSource) {
        self.timing_source = source;
    }

    /// The selected timing source.
    pub fn timing_source(&self) -> TimingSource {
        self.timing_source
    }

    /// Runs `f` with speculation tracing enabled and returns its result
    /// together with the events recorded during the call. Any prior trace
    /// state (enabled flag and buffered events) is saved first and
    /// restored afterwards, so this composes with manual
    /// [`SpecTrace::enable`]/[`SpecTrace::take`] use.
    pub fn with_trace<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, Vec<SpecEvent>) {
        let saved = std::mem::take(&mut self.trace);
        self.trace.enable();
        let result = f(self);
        let events = self.trace.take();
        self.trace = saved;
        (result, events)
    }

    /// Exports every microarchitectural counter into `reg` under the
    /// canonical `tlb.*` / `cache.*` / `predict.*` / `spec.*` /
    /// `mitigations.*` / `cpu.*` names.
    ///
    /// The exported values are *lifetime totals* added via
    /// [`Registry::incr_by`], so exporting the same machine twice double
    /// counts. Export once at the end of an experiment, or snapshot the
    /// registry around an interval and diff.
    pub fn export_telemetry(&self, reg: &mut Registry) {
        if !reg.is_enabled() {
            return;
        }
        let t = &self.mem.tlbs;
        let p = &self.predict_stats;
        let s = &self.stats;
        let counters = [
            ("tlb.walks", t.stats.walks),
            ("tlb.itlb_to_dtlb_migrations", t.stats.itlb_to_dtlb_migrations),
            ("predict.bimodal.correct", p.bimodal_correct),
            ("predict.bimodal.mispredicts", p.bimodal_mispredicts),
            ("predict.btb.hits", p.btb_hits),
            ("predict.btb.misses", p.btb_misses),
            ("predict.btb.mispredicts", p.btb_mispredicts),
            ("predict.rsb.hits", p.rsb_hits),
            ("predict.rsb.underflows", p.rsb_underflows),
            ("predict.ret.mispredicts", p.ret_mispredicts),
            ("spec.episodes", s.spec_episodes),
            ("spec.insts", s.spec_insts),
            ("spec.faults_suppressed", s.spec_faults_suppressed),
            ("spec.eager_squashes", s.eager_squashes),
            ("mitigations.taint_blocked", s.taint_blocked),
            ("mitigations.delay_blocked", s.delay_blocked),
            ("mitigations.fences_injected", s.fences_injected),
            ("cpu.retired", s.retired),
            ("cpu.syscalls", s.syscalls),
            ("uarch.fault_spikes", s.fault_spikes),
            ("exec.block.hits", self.block_cache.stats.hits),
            ("exec.block.misses", self.block_cache.stats.misses),
            ("exec.block.decoded", self.block_cache.stats.decoded),
            ("exec.block.invalidations", self.block_cache.stats.invalidations),
            ("exec.block.bypasses", self.block_cache.stats.bypasses),
            ("exec.pac.memo_hits", self.pac_memo_hits),
            ("exec.pac.memo_misses", self.pac_memo_misses),
        ];
        for (name, value) in counters {
            reg.incr_by(name, value);
        }
        for (name, c) in [
            ("tlb.itlb.user", t.itlb(FetchWorld::User).stats()),
            ("tlb.itlb.kernel", t.itlb(FetchWorld::Kernel).stats()),
            ("tlb.dtlb", t.dtlb().stats()),
            ("tlb.l2", t.l2().stats()),
            ("cache.l1i", self.mem.l1i.stats()),
            ("cache.l1d", self.mem.l1d.stats()),
            ("cache.l2", self.mem.l2c.stats()),
        ] {
            reg.incr_by(&format!("{name}.hits"), c.hits);
            reg.incr_by(&format!("{name}.misses"), c.misses);
            reg.incr_by(&format!("{name}.fills"), c.fills);
            reg.incr_by(&format!("{name}.evictions"), c.evictions);
        }
        reg.gauge("cpu.cycles", i64::try_from(self.cycles).unwrap_or(i64::MAX));
        reg.merge_histogram("spec.depth", &self.spec_depth);
        self.profiler.export_into(reg);
    }

    /// The ten PAC key-half system registers, in snapshot order.
    const KEY_HALVES: [SysReg; 10] = [
        SysReg::ApiaKeyLo,
        SysReg::ApiaKeyHi,
        SysReg::ApibKeyLo,
        SysReg::ApibKeyHi,
        SysReg::ApdaKeyLo,
        SysReg::ApdaKeyHi,
        SysReg::ApdbKeyLo,
        SysReg::ApdbKeyHi,
        SysReg::ApgaKeyLo,
        SysReg::ApgaKeyHi,
    ];

    /// Serialises the full mutable machine state — architectural CPU
    /// state, physical memory, every microarchitectural structure, all
    /// counters, and the RNG position — so that a machine restored via
    /// [`Machine::restore_state`] onto an identically-configured fresh
    /// boot continues bit-identically to one that was never interrupted
    /// (telemetry export included). The configuration itself is *not*
    /// written; the caller owns it and must boot with the same one.
    ///
    /// Not captured, by design: the speculation trace and profiler
    /// (diagnostic recorders, off by default and simulation-invisible)
    /// and the fetch cursors (restored cold; their contract makes them
    /// invisible too).
    ///
    /// # Panics
    ///
    /// Panics if a wrong-path fault is latched for architectural
    /// delivery (only possible under the `commit_suppressed_faults`
    /// injected bug) — such a machine is mid-misbehaviour and has no
    /// meaningful snapshot.
    pub fn save_state(&self, w: &mut pacman_telemetry::bin::Writer) {
        assert!(
            self.pending_spec_fault.is_none(),
            "cannot snapshot a machine with a latched wrong-path fault"
        );
        // Architectural CPU state.
        for &r in &self.cpu.regs {
            w.u64(r);
        }
        w.u64(self.cpu.sp[0]);
        w.u64(self.cpu.sp[1]);
        w.u64(self.cpu.pc);
        w.u8(match self.cpu.el {
            El::El0 => 0,
            El::El1 => 1,
        });
        w.i64(self.cpu.cmp.0);
        w.i64(self.cpu.cmp.1);
        for reg in Self::KEY_HALVES {
            w.u64(self.cpu.keys.read_half(reg).expect("key halves are always readable"));
        }
        match &self.cpu.saved {
            None => w.bool(false),
            Some(saved) => {
                w.bool(true);
                for &r in &saved.regs {
                    w.u64(r);
                }
                w.u64(saved.sp);
                w.u64(saved.pc);
            }
        }
        // Memory system (physical memory first: the block cache restore
        // re-decodes from it).
        self.mem.phys.save_state(w);
        self.mem.tables.save_state(w);
        self.mem.l1i.save_state(w);
        self.mem.l1d.save_state(w);
        self.mem.l2c.save_state(w);
        self.mem.tlbs.save_state(w);
        // Predictors and timers.
        self.bimodal.save_state(w);
        self.btb.save_state(w);
        self.rsb.save_state(w);
        self.timers.save_state(w);
        // Counters.
        let s = &self.stats;
        for v in [
            s.retired,
            s.spec_episodes,
            s.spec_insts,
            s.spec_faults_suppressed,
            s.eager_squashes,
            s.taint_blocked,
            s.delay_blocked,
            s.fences_injected,
            s.syscalls,
            s.fault_spikes,
        ] {
            w.u64(v);
        }
        let p = &self.predict_stats;
        for v in [
            p.bimodal_correct,
            p.bimodal_mispredicts,
            p.btb_hits,
            p.btb_misses,
            p.btb_mispredicts,
            p.rsb_hits,
            p.rsb_underflows,
            p.ret_mispredicts,
        ] {
            w.u64(v);
        }
        self.spec_depth.save_bin(w);
        w.u64(self.cycles);
        // Execution-engine accelerators.
        self.block_cache.save_state(w);
        let mut memo: Vec<(&(u128, u64, u64), &u16)> = self.pac_memo.iter().collect();
        memo.sort_unstable();
        w.usize(memo.len());
        for (&(key, pointer, modifier), &pac) in memo {
            w.u128(key);
            w.u64(pointer);
            w.u64(modifier);
            w.u16(pac);
        }
        w.u64(self.pac_memo_hits);
        w.u64(self.pac_memo_misses);
        // Remaining machine-level state.
        for word in self.rng.state() {
            w.u64(word);
        }
        w.u8(match self.timing_source {
            TimingSource::Pmc0 => 0,
            TimingSource::MultiThread => 1,
            TimingSource::SystemCounter => 2,
        });
        w.u64(self.vbar);
    }

    /// Restores state written by [`Machine::save_state`] into a machine
    /// booted with the same configuration.
    ///
    /// # Errors
    ///
    /// [`pacman_telemetry::bin::BinError`] on a truncated, corrupt, or
    /// geometry-mismatched stream. The machine's state is then
    /// unspecified and the caller must discard it.
    pub fn restore_state(
        &mut self,
        r: &mut pacman_telemetry::bin::Reader<'_>,
    ) -> Result<(), pacman_telemetry::bin::BinError> {
        use pacman_telemetry::bin::BinError;
        for reg in &mut self.cpu.regs {
            *reg = r.u64()?;
        }
        self.cpu.sp[0] = r.u64()?;
        self.cpu.sp[1] = r.u64()?;
        self.cpu.pc = r.u64()?;
        self.cpu.el = match r.u8()? {
            0 => El::El0,
            1 => El::El1,
            other => return Err(BinError::Corrupt(format!("exception level {other}"))),
        };
        self.cpu.cmp = (r.i64()?, r.i64()?);
        for reg in Self::KEY_HALVES {
            let half = r.u64()?;
            if !self.cpu.keys.write_half(reg, half) {
                return Err(BinError::Corrupt(format!("unwritable key half {reg:?}")));
            }
        }
        self.cpu.saved = if r.bool()? {
            let mut regs = [0u64; 31];
            for reg in &mut regs {
                *reg = r.u64()?;
            }
            Some(SavedContext { regs, sp: r.u64()?, pc: r.u64()? })
        } else {
            None
        };
        self.mem.phys.restore_state(r)?;
        self.mem.tables.restore_state(r)?;
        self.mem.l1i.restore_state(r)?;
        self.mem.l1d.restore_state(r)?;
        self.mem.l2c.restore_state(r)?;
        self.mem.tlbs.restore_state(r)?;
        self.bimodal.restore_state(r)?;
        self.btb.restore_state(r)?;
        self.rsb.restore_state(r)?;
        self.timers.restore_state(r)?;
        let s = &mut self.stats;
        for v in [
            &mut s.retired,
            &mut s.spec_episodes,
            &mut s.spec_insts,
            &mut s.spec_faults_suppressed,
            &mut s.eager_squashes,
            &mut s.taint_blocked,
            &mut s.delay_blocked,
            &mut s.fences_injected,
            &mut s.syscalls,
            &mut s.fault_spikes,
        ] {
            *v = r.u64()?;
        }
        let p = &mut self.predict_stats;
        for v in [
            &mut p.bimodal_correct,
            &mut p.bimodal_mispredicts,
            &mut p.btb_hits,
            &mut p.btb_misses,
            &mut p.btb_mispredicts,
            &mut p.rsb_hits,
            &mut p.rsb_underflows,
            &mut p.ret_mispredicts,
        ] {
            *v = r.u64()?;
        }
        self.spec_depth = Histogram::load_bin(r)?;
        self.cycles = r.u64()?;
        self.block_cache.restore_state(r, &self.mem.phys)?;
        self.pac_memo.clear();
        for _ in 0..r.usize()? {
            let triple = (r.u128()?, r.u64()?, r.u64()?);
            let pac = r.u16()?;
            self.pac_memo.insert(triple, pac);
        }
        self.pac_memo_hits = r.u64()?;
        self.pac_memo_misses = r.u64()?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.u64()?;
        }
        self.rng = SmallRng::from_state(rng_state);
        self.timing_source = match r.u8()? {
            0 => TimingSource::Pmc0,
            1 => TimingSource::MultiThread,
            2 => TimingSource::SystemCounter,
            other => return Err(BinError::Corrupt(format!("timing source {other}"))),
        };
        self.vbar = r.u64()?;
        self.pending_spec_fault = None;
        self.fetch_cursors = [FetchCursor::COLD; CURSORS];
        Ok(())
    }

    /// Maps a fresh zeroed page at `va` (page-aligned) and returns its
    /// physical frame number.
    pub fn map_page(&mut self, va: u64, perms: Perms) -> u64 {
        self.mem.tables.map_fresh(&mut self.mem.phys, VirtualAddress::new(va), perms)
    }

    /// Maps `va` to an *existing* physical frame (aliasing). Large
    /// eviction regions alias one frame: the TLB experiments only care
    /// about translations, not contents, and this keeps host memory flat.
    pub fn map_alias(&mut self, va: u64, pfn: u64, perms: Perms) {
        self.mem.tables.map(&mut self.mem.phys, VirtualAddress::new(va), pfn, perms);
    }

    /// Allocates one physical frame without mapping it (pair with
    /// [`Machine::map_alias`]).
    pub fn alloc_frame(&mut self) -> u64 {
        self.mem.phys.alloc_frame()
    }

    /// Maps `len` bytes starting at page-aligned `va`. Regions touching
    /// the top of the address space are clamped there rather than
    /// wrapping (`va + len` would overflow for the last page).
    pub fn map_region(&mut self, va: u64, len: u64, perms: Perms) {
        let mut a = va & !(PAGE_SIZE - 1);
        let end = va.saturating_add(len);
        while a < end {
            self.map_page(a, perms);
            match a.checked_add(PAGE_SIZE) {
                Some(next) => a = next,
                None => break,
            }
        }
    }

    /// Encodes and writes a program at `va` (must be mapped and writable
    /// via the debug path). Returns the VA one past the last instruction.
    ///
    /// # Panics
    ///
    /// Panics if an instruction does not encode or the region is unmapped —
    /// both are setup bugs, not runtime conditions.
    pub fn load_program(&mut self, va: u64, program: &[Inst]) -> u64 {
        for (i, inst) in program.iter().enumerate() {
            let w = encode(inst).expect("program instruction must encode");
            let addr = va.wrapping_add(4 * i as u64);
            let pa = self
                .mem
                .tables
                .translate(&self.mem.phys, VirtualAddress::new(addr))
                .expect("program region must be mapped");
            self.mem.phys.write_u32(pa, w);
        }
        va.wrapping_add(4 * program.len() as u64)
    }

    /// Reads the active timing source. Returns `None` if the source traps
    /// at the current EL (e.g. `PMC0` at EL0 without the kext, Table 1).
    pub fn read_timer(&mut self) -> Option<u64> {
        let at_el0 = self.cpu.el == El::El0;
        self.timers.read(self.timing_source, self.cycles, at_el0, &mut self.rng)
    }

    fn noise(&mut self) -> u64 {
        let n = self.config.latency.noise;
        if n == 0 {
            0
        } else {
            self.rng.gen_range(0..=n)
        }
    }

    // ----- EL0 attacker primitives ------------------------------------

    /// An untimed user-mode load of `va` (microarchitecturally visible).
    ///
    /// # Errors
    ///
    /// Returns the architectural [`Trap`] for unmapped or forbidden
    /// addresses.
    pub fn user_load(&mut self, va: u64) -> Result<AccessOutcome, Trap> {
        let (outcome, _pa) = self
            .mem
            .data_access(va, El::El0, AccessKind::Load)
            .map_err(|f| f.into_trap(va, El::El0, AccessKind::Load))?;
        self.cycles += outcome.cycles;
        Ok(outcome)
    }

    /// A user-mode store.
    ///
    /// # Errors
    ///
    /// Returns the architectural [`Trap`] for unmapped or forbidden
    /// addresses.
    pub fn user_store(&mut self, va: u64, value: u64) -> Result<AccessOutcome, Trap> {
        let (outcome, pa) = self
            .mem
            .data_access(va, El::El0, AccessKind::Store)
            .map_err(|f| f.into_trap(va, El::El0, AccessKind::Store))?;
        self.cycles += outcome.cycles;
        self.mem.phys.write_u64(pa, value);
        Ok(outcome)
    }

    /// A user-mode instruction fetch of `va` — the effect of branching
    /// into the paper's JIT region (§7.3 step 2/3).
    ///
    /// # Errors
    ///
    /// Returns the architectural [`Trap`] for unmapped or non-executable
    /// addresses.
    pub fn user_fetch(&mut self, va: u64) -> Result<AccessOutcome, Trap> {
        let (outcome, _pa) = self
            .mem
            .fetch_access(va, El::El0)
            .map_err(|f| f.into_trap(va, El::El0, AccessKind::Fetch))?;
        self.cycles += outcome.cycles;
        Ok(outcome)
    }

    /// A timed user-mode load: the `isb; read; load; isb; read` bracket of
    /// Figure 4(b), returning the latency in ticks of the active timing
    /// source.
    ///
    /// # Errors
    ///
    /// [`Trap`] as for [`Machine::user_load`]; also
    /// [`Trap::SysRegAccess`] if the timing source is not readable at EL0.
    pub fn timed_user_load(&mut self, va: u64) -> Result<u64, Trap> {
        let source = self.timing_source;
        let t1 =
            self.read_timer().ok_or(Trap::SysRegAccess { reg: source_reg(source), el: El::El0 })?;
        self.cycles += self.config.latency.measure_overhead;
        self.cycles += self.noise();
        if self.config.latency.fault_spike > 0 {
            self.cycles += self.config.latency.fault_spike;
            self.stats.fault_spikes += 1;
        }
        self.user_load(va)?;
        let t2 =
            self.read_timer().ok_or(Trap::SysRegAccess { reg: source_reg(source), el: El::El0 })?;
        Ok(t2 - t1)
    }

    // ----- execution ---------------------------------------------------

    /// Runs from the current PC until `HLT`, a trap, or `max_insts`
    /// retired instructions: the one retire loop.
    ///
    /// While a fetch cursor covers the PC, each run of consecutive
    /// decoded register-only slots executes back to back (`retire_run`),
    /// and the slot that ends it goes through `exec`; while the profiler
    /// runs, every instruction goes through `exec` on its own. Any
    /// instruction no cursor serves — all of them under
    /// [`ExecEngine::Interpreted`] — takes a full fetch first.
    ///
    /// # Errors
    ///
    /// Returns the first architectural [`Trap`]. A trap while at EL1 is a
    /// kernel panic; the kernel crate turns it into a reboot.
    pub fn run(&mut self, max_insts: u64) -> Result<Stop, Trap> {
        if self.profiler.is_enabled() {
            self.retire_loop::<true>(max_insts)
        } else {
            self.retire_loop::<false>(max_insts)
        }
    }

    /// The body of [`Machine::run`], compiled once with the profiler's
    /// per-instruction timing (`PROFILED`) and once without, so the
    /// unprofiled loop carries none of it.
    #[inline(always)]
    fn retire_loop<const PROFILED: bool>(&mut self, max_insts: u64) -> Result<Stop, Trap> {
        let mut left = max_insts;
        // The table slot of the cursor covering the PC. It is looked up
        // after a page change and kept while only what cannot invalidate
        // the cursor happened (only a full fetch re-aims a slot).
        let mut cursor = None;
        while left > 0 {
            if let Some(trap) = self.pending_spec_fault {
                // Only reachable under the `commit_suppressed_faults`
                // injected bug: the wrong-path fault the squash should
                // have discarded is delivered architecturally instead.
                self.pending_spec_fault = None;
                return Err(trap);
            }
            let el = self.cpu.el;
            if cursor.is_none() {
                cursor = self.covering_cursor(self.cpu.pc, el);
            }
            let step_start = self.cycles;
            let decode_timer = ProfTimer::start(PROFILED);
            let served = match cursor {
                Some(slot) => self.retire_run::<PROFILED>(slot, &mut left),
                None => None,
            };
            let pc = self.cpu.pc;
            let inst = match served {
                Some(inst) => inst,
                None => {
                    // The run reached the page end or the budget, or the
                    // PC's slot takes a full fetch.
                    let page_end = cursor.is_some_and(|slot| {
                        pc.wrapping_sub(self.fetch_cursors[slot].page) >= PAGE_SIZE
                    });
                    cursor = None;
                    if left == 0 || page_end {
                        continue;
                    }
                    let inst = self.fetch(pc, el)?;
                    self.cycles += self.config.latency.alu;
                    self.stats.retired += 1;
                    left -= 1;
                    inst
                }
            };
            if PROFILED {
                self.profiler.record_decode(self.cycles - step_start, decode_timer.elapsed_ns());
            }
            let exec_start = self.cycles;
            let exec_timer = ProfTimer::start(PROFILED);
            let out = self.exec(pc, el, inst);
            if PROFILED {
                self.profiler.record_retire(
                    &inst,
                    pc,
                    self.cycles - step_start,
                    self.cycles - exec_start,
                    exec_timer.elapsed_ns(),
                );
            }
            if let Some(stop) = out? {
                return Ok(stop);
            }
            // What `exec` can change of a cursor's validity: the EL, the
            // iTLB version (a translation or a wrong-path fetch), the
            // code-write generation (a store) and the page of the PC. A
            // latched wrong-path fault is checked at the top.
            cursor = cursor.filter(|&slot| {
                let c = &self.fetch_cursors[slot];
                self.cpu.el == el
                    && self.mem.tlbs.itlb(MemorySystem::world(el)).version() == c.version
                    && self.mem.phys.code_write_gen() == c.gen
                    && self.cpu.pc.wrapping_sub(c.page) & !(PAGE_SIZE - 4) == 0
            });
        }
        Ok(Stop::InstLimit)
    }

    /// Fetches, decodes and retires exactly one instruction — `run(1)`,
    /// the retire boundary the differential conformance harness
    /// (`pacman-ref`) compares committed state at.
    ///
    /// # Errors
    ///
    /// Returns the architectural [`Trap`] raised by this instruction.
    pub fn step(&mut self) -> Result<Option<Stop>, Trap> {
        match self.run(1)? {
            Stop::InstLimit => Ok(None),
            stop => Ok(Some(stop)),
        }
    }

    /// Retires from the PC, which the cursor in table slot `slot` covers,
    /// at most `*left` instructions, counting them off: the run of decoded
    /// register-only slots there executes back to back, up to the page
    /// end or the budget, then [`Machine::charge_fetches`] charges its
    /// fetches and that of the decoded slot that ended it, which it
    /// returns for [`Machine::exec`]. Charging in bulk is exact: the run's
    /// instructions touch no simulated memory, TLB, predictor or RNG, so
    /// nothing can observe the order. The PC is left after the run.
    /// `None` if the run reached the page end or the budget, if the slot
    /// after it is not decoded, or if the block cache was flushed since
    /// the cursor was aimed.
    ///
    /// While the profiler runs (`PROFILED`), there are no runs: the
    /// slot at the PC is charged alone ([`Machine::charge_fetch`]) and
    /// returned, so `exec` can be timed for every instruction.
    #[inline(always)]
    fn retire_run<const PROFILED: bool>(&mut self, slot: usize, left: &mut u64) -> Option<Inst> {
        let c = self.fetch_cursors[slot];
        let slots = self.block_cache.page(c.epoch, c.slots)?;
        let pc = self.cpu.pc;
        let first = ((pc - c.page) / 4) as usize;
        if PROFILED {
            let inst = slots[first]?;
            self.charge_fetch(c, pc);
            self.stats.retired += 1;
            *left -= 1;
            return Some(inst);
        }
        let budget = usize::try_from(*left).unwrap_or(usize::MAX);
        let end = first + (slots.len() - first).min(budget);
        let mut i = first;
        while i < end {
            let Some(inst @ alu_insts!()) = slots[i] else { break };
            match alu(inst, |r| self.cpu.get(r), self.cpu.cmp) {
                AluOut::Write { rd, value, .. } => self.cpu.set(rd, value),
                AluOut::Cmp(a, b) => self.cpu.cmp = (a, b),
            }
            i += 1;
        }
        let ender = if i < end { slots[i] } else { None };
        let ran = (i - first) as u64;
        let charged = ran + u64::from(ender.is_some());
        if charged > 0 {
            self.charge_fetches(c, pc, charged);
            self.stats.retired += charged;
            *left -= charged;
        }
        self.cpu.pc = pc + 4 * ran;
        ender
    }

    /// `pc`'s table slot, if its cursor covers a fetch of `pc` at `el`:
    /// word-aligned, inside its page, at its EL, under its iTLB version
    /// and code-write generation (see [`FetchCursor`]).
    #[inline(always)]
    fn covering_cursor(&self, pc: u64, el: El) -> Option<usize> {
        let slot = cursor_index(pc);
        let c = &self.fetch_cursors[slot];
        let off = pc.wrapping_sub(c.page);
        // One test for "word-aligned and inside the page".
        let covers = off & !(PAGE_SIZE - 4) == 0
            && el == c.el
            && self.mem.tlbs.itlb(MemorySystem::world(el)).version() == c.version
            && self.mem.phys.code_write_gen() == c.gen;
        covers.then_some(slot)
    }

    /// Charges the fetches of the `n` consecutive words from `pc` in
    /// cursor `c`'s page, decoded slots all, with exactly the counter
    /// updates and cycles of `n` full fetches in program order plus the
    /// `alu` issue cost of each: `n` block-cache hits and MRU iTLB hits,
    /// and the L1i line by line — a line's first word a real access
    /// unless it lies in the line accessed last, every other word a hit
    /// on what is then its set's MRU way.
    #[inline(always)]
    fn charge_fetches(&mut self, c: FetchCursor, pc: u64, n: u64) {
        self.block_cache.stats.hits += n;
        self.mem.tlbs.count_itlb_hits(MemorySystem::world(c.el), n);
        let hit = self.mem.latency.l1_hit;
        let line = self.mem.l1i.line_bytes();
        let mut cycles = n * (self.config.latency.alu + hit);
        let mut hits = n;
        let start = c.frame + (pc - c.page);
        let mut pa = start;
        while pa < start + 4 * n {
            if !self.mem.l1i.in_last_line(pa) {
                hits -= 1;
                cycles += self.mem.cache_access(AccessKind::Fetch, pa).1 - hit;
            }
            pa = (pa | (line - 1)) + 1;
        }
        self.mem.l1i.sets.stats.hits += hits;
        self.cycles += cycles;
    }

    /// [`Machine::charge_fetches`] for the one word at `pc`, without the
    /// line walk.
    #[inline(always)]
    fn charge_fetch(&mut self, c: FetchCursor, pc: u64) {
        self.block_cache.stats.hits += 1;
        self.mem.tlbs.count_itlb_hits(MemorySystem::world(c.el), 1);
        let pa = c.frame + (pc - c.page);
        let fetch_cycles = if self.mem.l1i.in_last_line(pa) {
            self.mem.l1i.sets.stats.hits += 1;
            self.mem.latency.l1_hit
        } else {
            self.mem.cache_access(AccessKind::Fetch, pa).1
        };
        self.cycles += fetch_cycles + self.config.latency.alu;
    }

    /// The full fetch + decode of `pc` at `el`: translation, permissions
    /// and L1i timing through `fetch_access`, then the engine's decode.
    /// Under [`ExecEngine::Cached`] it then aims `pc`'s fetch cursor at
    /// the fetched page.
    fn fetch(&mut self, pc: u64, el: El) -> Result<Inst, Trap> {
        let (fetch_outcome, pa) =
            self.mem.fetch_access(pc, el).map_err(|f| f.into_trap(pc, el, AccessKind::Fetch))?;
        self.cycles += fetch_outcome.cycles;
        let inst = self.decode_at(pa).ok_or(Trap::Decode { pc })?;
        if self.config.engine == ExecEngine::Cached {
            self.aim_cursor(pc, el, pa);
        }
        Ok(inst)
    }

    /// Decodes the word at physical `pa` with the configured engine. The
    /// engines are bit-identical: the cached path only skips the re-read
    /// and re-decode of the word, never any simulated cost (the fetch
    /// was already charged).
    fn decode_at(&mut self, pa: u64) -> Option<Inst> {
        match self.config.engine {
            ExecEngine::Cached => self.block_cache.fetch(pa, &mut self.mem.phys),
            ExecEngine::Interpreted => decode(self.mem.phys.read_u32(pa)).ok(),
        }
    }

    /// Points `pc`'s fetch cursor at the page a `Cached` fetch of `pc`
    /// (at physical `pa`) just went through — now its iTLB set's MRU way
    /// — if the frame has a slot table; else leaves the slot as it is.
    fn aim_cursor(&mut self, pc: u64, el: El, pa: u64) {
        let frame = pa & !(PAGE_SIZE - 1);
        let Some(slots) = self.block_cache.slot_base(frame / PAGE_SIZE) else {
            return;
        };
        self.fetch_cursors[cursor_index(pc)] = FetchCursor {
            page: pc & !(PAGE_SIZE - 1),
            el,
            version: self.mem.tlbs.itlb(MemorySystem::world(el)).version(),
            frame,
            slots,
            epoch: self.block_cache.epoch(),
            gen: self.mem.phys.code_write_gen(),
        };
    }

    #[inline(always)]
    fn exec(&mut self, pc: u64, el: El, inst: Inst) -> Result<Option<Stop>, Trap> {
        let next = pc.wrapping_add(4);
        match inst {
            Inst::Nop => self.cpu.pc = next,
            Inst::Isb | Inst::Dsb => {
                self.cycles += self.config.latency.fence;
                self.cpu.pc = next;
            }
            Inst::Hlt => return Ok(Some(Stop::Hlt)),
            Inst::Svc { .. } => {
                if el != El::El0 || self.vbar == 0 {
                    return Err(Trap::BadSvc { pc });
                }
                self.stats.syscalls += 1;
                self.cycles += self.config.latency.syscall_transition;
                self.os_noise_tick();
                self.cpu.saved = Some(SavedContext {
                    regs: self.cpu.regs,
                    sp: self.cpu.sp[El::El0 as usize],
                    pc: next,
                });
                self.cpu.el = El::El1;
                self.cpu.pc = self.vbar;
            }
            Inst::Eret => {
                if el != El::El1 {
                    return Err(Trap::BadEret { pc });
                }
                let Some(saved) = &self.cpu.saved else {
                    return Err(Trap::BadEret { pc });
                };
                self.cycles += self.config.latency.syscall_transition;
                // Return values in x0/x1 survive the context restore, as on
                // a real syscall ABI.
                self.cpu.regs[2..].copy_from_slice(&saved.regs[2..]);
                self.cpu.sp[El::El0 as usize] = saved.sp;
                self.cpu.pc = saved.pc;
                self.cpu.saved = None;
                self.cpu.el = El::El0;
            }
            alu_insts!() => {
                match alu(inst, |r| self.cpu.get(r), self.cpu.cmp) {
                    AluOut::Write { rd, value, .. } => self.cpu.set(rd, value),
                    AluOut::Cmp(a, b) => self.cpu.cmp = (a, b),
                }
                self.cpu.pc = next;
            }
            mem_insts!() => {
                let op = MemOp::of(inst, |r| self.cpu.get(r));
                for &(rt, va) in op.words() {
                    let (outcome, pa) = self
                        .mem
                        .data_access(va, el, op.kind)
                        .map_err(|f| f.into_trap(va, el, op.kind))?;
                    self.cycles += outcome.cycles;
                    let phys = &mut self.mem.phys;
                    match (op.kind, op.byte) {
                        (AccessKind::Load, false) => self.cpu.set(rt, phys.read_u64(pa)),
                        (AccessKind::Load, true) => self.cpu.set(rt, u64::from(phys.read_u8(pa))),
                        (_, false) => phys.write_u64(pa, self.cpu.get(rt)),
                        (_, true) => phys.write_u8(pa, self.cpu.get(rt) as u8),
                    }
                }
                self.cpu.pc = next;
            }
            Inst::B { offset } => self.cpu.pc = pc.wrapping_add_signed(4 * i64::from(offset)),
            Inst::Bl { offset } => {
                self.cpu.set(Reg::LR, next);
                self.rsb.push(next);
                self.cpu.pc = pc.wrapping_add_signed(4 * i64::from(offset));
            }
            Inst::BCond { cond, offset } => {
                let taken = cond.holds(self.cpu.cmp.0, self.cpu.cmp.1);
                self.conditional_branch(pc, el, taken, offset);
            }
            Inst::Cbz { rt, offset } => {
                let taken = self.cpu.get(rt) == 0;
                self.conditional_branch(pc, el, taken, offset);
            }
            Inst::Cbnz { rt, offset } => {
                let taken = self.cpu.get(rt) != 0;
                self.conditional_branch(pc, el, taken, offset);
            }
            Inst::Tbz { rt, bit, offset } => {
                let taken = (self.cpu.get(rt) >> bit) & 1 == 0;
                self.conditional_branch(pc, el, taken, offset);
            }
            Inst::Tbnz { rt, bit, offset } => {
                let taken = (self.cpu.get(rt) >> bit) & 1 == 1;
                self.conditional_branch(pc, el, taken, offset);
            }
            Inst::Br { rn } | Inst::Blr { rn } => {
                let target = self.cpu.get(rn);
                self.indirect_branch(pc, el, target);
                if matches!(inst, Inst::Blr { .. }) {
                    self.cpu.set(Reg::LR, next);
                    self.rsb.push(next);
                }
                self.cpu.pc = target;
            }
            Inst::Ret => {
                // Returns predict through the RSB first (ret2spec-style
                // behaviour); the BTB is the fallback for underflow.
                let target = self.cpu.get(Reg::LR);
                let from_rsb = self.rsb.pop();
                if from_rsb.is_some() {
                    self.predict_stats.rsb_hits += 1;
                } else {
                    self.predict_stats.rsb_underflows += 1;
                }
                let predicted = from_rsb.or_else(|| self.btb.predict(pc));
                self.btb.train(pc, target);
                if let Some(p) = predicted {
                    if p != target {
                        self.predict_stats.ret_mispredicts += 1;
                        self.cycles += self.config.latency.mispredict_penalty;
                        self.speculate(pc, p, el);
                    }
                }
                self.cpu.pc = target;
            }
            Inst::Pac { key, rd, modifier } => {
                let modifier = modifier_value(modifier, |r| self.cpu.get(r));
                let signed = self.sign_pac(key, self.cpu.get(rd), modifier);
                self.cpu.set(rd, signed);
                self.cpu.pc = next;
            }
            Inst::Aut { key, rd, modifier } => {
                let modifier = modifier_value(modifier, |r| self.cpu.get(r));
                let result = self.auth_pac(key, self.cpu.get(rd), modifier);
                self.cpu.set(rd, result.pointer());
                if self.config.mitigation == Mitigation::FenceAfterAut {
                    self.stats.fences_injected += 1;
                    self.cycles += self.config.latency.fence;
                }
                self.cpu.pc = next;
            }
            Inst::Pacga { rd, rn, rm } => {
                let tag = self.pacga_tag(self.cpu.get(rn), self.cpu.get(rm));
                self.cpu.set(rd, tag << 48);
                self.cpu.pc = next;
            }
            Inst::Mrs { rd, sysreg } => {
                let v =
                    self.read_sysreg(sysreg, el).ok_or(Trap::SysRegAccess { reg: sysreg, el })?;
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::Msr { sysreg, rn } => {
                let v = self.cpu.get(rn);
                if !self.write_sysreg(sysreg, v, el) {
                    return Err(Trap::SysRegAccess { reg: sysreg, el });
                }
                self.cpu.pc = next;
            }
        }
        Ok(None)
    }

    fn read_sysreg(&mut self, reg: SysReg, el: El) -> Option<u64> {
        let at_el0 = el == El::El0;
        if at_el0 && !reg.el0_readable(self.timers.pmc0_el0_enabled) {
            return None;
        }
        match reg {
            SysReg::CntpctEl0 => Some(self.timers.cntpct(self.cycles)),
            SysReg::CntfrqEl0 => Some(self.timers.cntfrq()),
            SysReg::Pmc0 => Some(self.timers.pmc0(self.cycles)),
            SysReg::Pmc1 => Some(self.stats.retired),
            SysReg::Pmcr0 => Some(u64::from(self.timers.pmc0_el0_enabled)),
            SysReg::CurrentEl => Some(match el {
                El::El0 => 0,
                El::El1 => 1 << 2,
            }),
            _ => self.cpu.keys.read_half(reg),
        }
    }

    fn write_sysreg(&mut self, reg: SysReg, value: u64, el: El) -> bool {
        if el == El::El0 {
            return false;
        }
        match reg {
            SysReg::Pmcr0 => {
                self.timers.pmc0_el0_enabled = value & 1 == 1;
                true
            }
            SysReg::CntpctEl0
            | SysReg::CntfrqEl0
            | SysReg::Pmc0
            | SysReg::Pmc1
            | SysReg::CurrentEl => false,
            _ => self.cpu.keys.write_half(reg, value),
        }
    }

    /// The memoised PAC of `(key value, pointer, modifier)`. The memo is
    /// sound because QARMA is a pure function of exactly this triple;
    /// keying on the key *value* (not the register name) means entries
    /// written under an old key can never be served after a key change.
    /// Under [`ExecEngine::Interpreted`] the memo is bypassed entirely so
    /// that engine stays a faithful pre-cache baseline.
    fn pac_of(&mut self, keyval: u128, pointer: u64, modifier: u64) -> u16 {
        if self.config.engine == ExecEngine::Interpreted {
            let pacs = PacComputer::new(QarmaKey::from_u128(keyval), VA_BITS);
            return pacs.pac(pointer, modifier) as u16;
        }
        let triple = (keyval, pointer, modifier);
        if let Some(&pac) = self.pac_memo.get(&triple) {
            self.pac_memo_hits += 1;
            return pac;
        }
        self.pac_memo_misses += 1;
        let pacs = PacComputer::new(QarmaKey::from_u128(keyval), VA_BITS);
        let pac = pacs.pac(pointer, modifier) as u16;
        if self.pac_memo.len() >= PAC_MEMO_CAP {
            self.pac_memo.clear();
        }
        self.pac_memo.insert(triple, pac);
        pac
    }

    /// `PAC*`-family semantics via the memo; mirrors [`ptr::sign`].
    fn sign_pac(&mut self, key: PacKey, ptr_value: u64, modifier: u64) -> u64 {
        let canonical = ptr::canonicalize(ptr_value);
        let keyval = self.cpu.keys.get(key);
        let pac = self.pac_of(keyval, canonical, modifier);
        ptr::with_pac_field(canonical, pac)
    }

    /// `AUT*`-family semantics via the memo; mirrors [`ptr::authenticate`].
    fn auth_pac(&mut self, key: PacKey, ptr_value: u64, modifier: u64) -> AuthResult {
        let canonical = ptr::canonicalize(ptr_value);
        let keyval = self.cpu.keys.get(key);
        let expected = self.pac_of(keyval, canonical, modifier);
        if ptr::pac_field(ptr_value) == expected {
            AuthResult::Valid(canonical)
        } else {
            AuthResult::Corrupt(ptr::corrupt(canonical, key))
        }
    }

    /// `PACGA` tag via the memo (generic authentication signs raw
    /// register values, no canonicalisation).
    fn pacga_tag(&mut self, rn_val: u64, rm_val: u64) -> u64 {
        let keyval = self.cpu.keys.ga();
        u64::from(self.pac_of(keyval, rn_val, rm_val))
    }

    /// Precomputes the PACs of `pointers` under `key` and `modifier` into
    /// the memo using the bitsliced QARMA path (64 pointers per cipher
    /// pass). A no-op under [`ExecEngine::Interpreted`]. The §8.2
    /// brute-forcer warms the candidate set this way before replaying the
    /// PACMAN gadget, turning per-guess cipher work into a table lookup.
    pub fn warm_pac_memo(&mut self, key: PacKey, pointers: &[u64], modifier: u64) {
        if self.config.engine == ExecEngine::Interpreted {
            return;
        }
        let keyval = self.cpu.keys.get(key);
        let pacs = PacComputer::new(QarmaKey::from_u128(keyval), VA_BITS);
        let canonicals: Vec<u64> = pointers.iter().map(|&p| ptr::canonicalize(p)).collect();
        if self.pac_memo.len() + canonicals.len() > PAC_MEMO_CAP {
            self.pac_memo.clear();
        }
        for (canonical, pac) in canonicals.iter().zip(pacs.pac_many(&canonicals, modifier)) {
            self.pac_memo.insert((keyval, *canonical, modifier), pac as u16);
        }
    }

    /// Block-cache dispatch counters (all zero under
    /// [`ExecEngine::Interpreted`]).
    pub fn block_cache_stats(&self) -> crate::block_cache::BlockCacheStats {
        self.block_cache.stats
    }

    /// Background kernel activity occasionally perturbing a random dTLB
    /// set (paper §8.2 evaluates under web-browsing/video-call noise).
    fn os_noise_tick(&mut self) {
        if self.config.os_noise > 0.0 && self.rng.gen_bool(self.config.os_noise) {
            let vpn = 0x2_0000_0000u64 >> 14 | self.rng.gen_range(0..4096u64);
            self.mem.tlbs.fill_data(crate::tlb::TlbEntry {
                vpn,
                pfn: 0,
                perms: Perms::kernel_rw(),
            });
        }
    }

    fn conditional_branch(&mut self, pc: u64, el: El, taken: bool, offset: i32) {
        let predicted = self.bimodal.predict(pc);
        self.bimodal.train(pc, taken);
        let target = pc.wrapping_add_signed(4 * i64::from(offset));
        let fallthrough = pc.wrapping_add(4);
        if predicted != taken {
            self.predict_stats.bimodal_mispredicts += 1;
            self.cycles += self.config.latency.mispredict_penalty;
            let wrong_path = if predicted { target } else { fallthrough };
            self.speculate(pc, wrong_path, el);
        } else {
            self.predict_stats.bimodal_correct += 1;
        }
        self.cpu.pc = if taken { target } else { fallthrough };
    }

    fn indirect_branch(&mut self, pc: u64, el: El, target: u64) {
        let predicted = self.btb.predict(pc);
        self.btb.train(pc, target);
        if let Some(p) = predicted {
            self.predict_stats.btb_hits += 1;
            if p != target {
                self.predict_stats.btb_mispredicts += 1;
                self.cycles += self.config.latency.mispredict_penalty;
                self.speculate(pc, p, el);
            }
        } else {
            self.predict_stats.btb_misses += 1;
        }
    }

    /// Executes the wrong path under the shadow of a mispredicted branch:
    /// microarchitectural effects only, faults suppressed, bounded by the
    /// speculation window.
    fn speculate(&mut self, branch_pc: u64, start_pc: u64, el: El) {
        self.stats.spec_episodes += 1;
        self.trace.record(SpecEvent::ShadowOpened { branch_pc, wrong_path_pc: start_pc });
        let mit = self.config.mitigation;
        let mut shadow = Shadow::from_cpu(&self.cpu);
        let mut pc = start_pc;
        let mut executed: u32 = 0;
        for _ in 0..self.config.speculation_window {
            let fetch = self.mem.spec_fetch(pc, el, mit);
            let Some(pa) = self.spec_outcome(pc, pc, el, AccessKind::Fetch, fetch) else {
                break;
            };
            let Some(inst) = self.decode_at(pa) else {
                break;
            };
            self.stats.spec_insts += 1;
            executed += 1;
            if !self.spec_exec(&mut shadow, &mut pc, el, inst, mit) {
                break;
            }
        }
        if self.config.bugs.leak_squashed_registers {
            // Injected bug (conformance self-test only): the squash
            // "forgets" to restore the register file, so wrong-path
            // results leak into committed state.
            self.cpu.regs = shadow.regs;
            self.cpu.sp[self.cpu.el as usize] = shadow.sp;
            self.cpu.cmp = shadow.cmp;
        }
        self.close_shadow(executed);
    }

    /// Suppresses a wrong-path fault: counted, and — under the
    /// `commit_suppressed_faults` injected bug — latched for precise
    /// architectural delivery at the next retire boundary.
    fn suppress_spec_fault(&mut self, va: u64, el: El, access: AccessKind) {
        self.stats.spec_faults_suppressed += 1;
        if self.config.bugs.commit_suppressed_faults && self.pending_spec_fault.is_none() {
            self.pending_spec_fault = Some(Trap::TranslationFault { va, el, access });
        }
    }

    /// Accounts for the outcome of one wrong-path access of `va` by the
    /// instruction at `pc`. An access that went through charges its
    /// overlapped quarter of the cycles and returns the physical address;
    /// a fault is suppressed and a delay-on-miss block counted, each
    /// recorded, and both end the shadow (`None`).
    fn spec_outcome(
        &mut self,
        pc: u64,
        va: u64,
        el: El,
        kind: AccessKind,
        access: SpecAccess,
    ) -> Option<u64> {
        match access {
            SpecAccess::Ok(outcome, pa) => {
                self.cycles += outcome.cycles / 4; // overlapped wrong-path work
                Some(pa)
            }
            SpecAccess::Fault => {
                self.suppress_spec_fault(va, el, kind);
                self.trace.record(SpecEvent::FaultSuppressed { pc, va });
                None
            }
            SpecAccess::Blocked => {
                self.stats.delay_blocked += 1;
                self.trace.record(SpecEvent::MitigationBlocked { pc, what: "delay-on-miss" });
                None
            }
        }
    }

    /// Whether taint tracking ([`Mitigation::TaintAutOutputs`]) blocks
    /// the wrong-path instruction at `pc` from issuing an address held in
    /// `rn`; a block is counted and recorded.
    fn taint_blocks(&mut self, shadow: &Shadow, pc: u64, rn: Reg, mit: Mitigation) -> bool {
        let blocked = mit == Mitigation::TaintAutOutputs && shadow.tainted(rn);
        if blocked {
            self.stats.taint_blocked += 1;
            self.trace.record(SpecEvent::MitigationBlocked { pc, what: "taint tracking" });
        }
        blocked
    }

    /// Ends a speculation shadow: records the squash in the trace and the
    /// wrong-path depth in the episode histogram.
    fn close_shadow(&mut self, executed: u32) {
        self.spec_depth.observe(u64::from(executed));
        self.trace.record(SpecEvent::ShadowClosed { instructions: executed });
    }

    /// Executes one wrong-path instruction. Returns false when the shadow
    /// ends (fault, serialisation, window-irrelevant instruction).
    ///
    /// The values come from the same [`alu`] and [`MemOp`] as the retire
    /// path's; what differs is policy: faults are suppressed instead of
    /// raised, conditional branches follow the predictor without training
    /// it, stores never write memory, and the mitigations act here.
    fn spec_exec(
        &mut self,
        shadow: &mut Shadow,
        pc: &mut u64,
        el: El,
        inst: Inst,
        mit: Mitigation,
    ) -> bool {
        let next = pc.wrapping_add(4);
        match inst {
            Inst::Nop => *pc = next,
            // Serialising or privilege-transferring instructions end
            // speculation.
            Inst::Isb
            | Inst::Dsb
            | Inst::Hlt
            | Inst::Svc { .. }
            | Inst::Eret
            | Inst::Msr { .. } => return false,
            alu_insts!() => {
                match alu(inst, |r| shadow.get(r), shadow.cmp) {
                    AluOut::Write { rd, value, srcs } => {
                        let taint = srcs.iter().any(|&r| shadow.tainted(r));
                        shadow.set(rd, value);
                        shadow.set_taint(rd, taint);
                    }
                    AluOut::Cmp(a, b) => shadow.cmp = (a, b),
                }
                *pc = next;
            }
            mem_insts!() => {
                // Wrong-path stores translate (filling TLBs — a valid
                // transmit channel, §4.1) but never write memory. The
                // first fault or block ends the shadow.
                let op = MemOp::of(inst, |r| shadow.get(r));
                if self.taint_blocks(shadow, *pc, op.rn, mit) {
                    if op.kind == AccessKind::Load {
                        for &(rt, _) in op.words() {
                            shadow.set(rt, 0);
                            shadow.set_taint(rt, true);
                        }
                    }
                    *pc = next;
                    return true;
                }
                for &(rt, va) in op.words() {
                    let access = self.mem.spec_data_access(va, el, op.kind, mit);
                    let Some(pa) = self.spec_outcome(*pc, va, el, op.kind, access) else {
                        return false;
                    };
                    self.trace.record(SpecEvent::SpecAccessIssued { pc: *pc, va });
                    if op.kind == AccessKind::Load {
                        let phys = &self.mem.phys;
                        let v =
                            if op.byte { u64::from(phys.read_u8(pa)) } else { phys.read_u64(pa) };
                        shadow.set(rt, v);
                        shadow.set_taint(rt, false);
                    }
                }
                *pc = next;
            }
            Inst::B { offset } => *pc = pc.wrapping_add_signed(4 * i64::from(offset)),
            Inst::Bl { offset } => {
                shadow.set(Reg::LR, next);
                *pc = pc.wrapping_add_signed(4 * i64::from(offset));
            }
            Inst::BCond { offset, .. }
            | Inst::Cbz { offset, .. }
            | Inst::Cbnz { offset, .. }
            | Inst::Tbz { offset, .. }
            | Inst::Tbnz { offset, .. } => {
                // Inside the shadow, nested conditional branches follow the
                // predictor (no training on wrong paths).
                let taken = self.bimodal.predict(*pc);
                *pc = if taken { pc.wrapping_add_signed(4 * i64::from(offset)) } else { next };
            }
            Inst::Br { .. } | Inst::Blr { .. } | Inst::Ret => {
                let rn = match inst {
                    Inst::Br { rn } | Inst::Blr { rn } => rn,
                    _ => Reg::LR,
                };
                if self.taint_blocks(shadow, *pc, rn, mit) {
                    return false;
                }
                let actual = shadow.get(rn);
                // t2 of Figure 3(d): fetch proceeds from the BTB-predicted
                // target while the address operand resolves.
                if let Some(predicted) = self.btb.predict(*pc) {
                    let _ = self.mem.spec_fetch(predicted, el, mit);
                    self.trace.record(SpecEvent::BtbPredictedFetch { pc: *pc, predicted });
                    if self.config.squash == SquashPolicy::Lazy {
                        // No eager squash: the resolved target is never
                        // fetched; speculation continues down the
                        // predicted path (§4.2's failure mode).
                        *pc = predicted;
                        return true;
                    }
                } else if self.config.squash == SquashPolicy::Lazy {
                    return false;
                }
                // t3/t4: eager squash of the inner branch, redirect fetch
                // to the resolved target.
                self.stats.eager_squashes += 1;
                let fetch = self.mem.spec_fetch(actual, el, mit);
                if self.spec_outcome(*pc, actual, el, AccessKind::Fetch, fetch).is_none() {
                    return false;
                }
                self.trace.record(SpecEvent::EagerSquashRedirect { pc: *pc, actual });
                if matches!(inst, Inst::Blr { .. }) {
                    shadow.set(Reg::LR, next);
                }
                *pc = actual;
            }
            Inst::Pac { key, rd, modifier } => {
                let modifier = modifier_value(modifier, |r| shadow.get(r));
                let v = self.sign_pac(key, shadow.get(rd), modifier);
                shadow.set(rd, v);
                *pc = next;
            }
            Inst::Aut { .. } if mit == Mitigation::NonSpeculativeAut => {
                // The AUT stalls until the shadow resolves; nothing
                // downstream of it executes speculatively.
                self.trace
                    .record(SpecEvent::MitigationBlocked { pc: *pc, what: "non-speculative AUT" });
                return false;
            }
            Inst::Aut { key, rd, modifier } => {
                let modifier = modifier_value(modifier, |r| shadow.get(r));
                let result = self.auth_pac(key, shadow.get(rd), modifier);
                self.trace.record(SpecEvent::AutExecuted {
                    pc: *pc,
                    valid: result.is_valid(),
                    result: result.pointer(),
                });
                shadow.set(rd, result.pointer());
                if mit == Mitigation::TaintAutOutputs {
                    shadow.set_taint(rd, true);
                }
                if mit == Mitigation::FenceAfterAut {
                    // The implicit fence stops speculation before the
                    // verified pointer can be transmitted.
                    self.stats.fences_injected += 1;
                    self.trace
                        .record(SpecEvent::MitigationBlocked { pc: *pc, what: "fence after AUT" });
                    return false;
                }
                *pc = next;
            }
            Inst::Pacga { rd, rn, rm } => {
                let tag = self.pacga_tag(shadow.get(rn), shadow.get(rm));
                shadow.set(rd, tag << 48);
                *pc = next;
            }
            Inst::Mrs { rd, sysreg } => match self.read_sysreg(sysreg, el) {
                Some(v) => {
                    shadow.set(rd, v);
                    *pc = next;
                }
                None => return false,
            },
        }
        true
    }
}

fn source_reg(source: TimingSource) -> SysReg {
    match source {
        TimingSource::Pmc0 => SysReg::Pmc0,
        TimingSource::MultiThread => SysReg::CntpctEl0, // no MSR involved; closest stand-in
        TimingSource::SystemCounter => SysReg::CntpctEl0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_isa::{Asm, PacKey};

    const USER_CODE: u64 = 0x0000_0000_0040_0000;
    const USER_DATA: u64 = 0x0000_0000_1000_0000;

    fn machine() -> Machine {
        Machine::new(MachineConfig { os_noise: 0.0, ..MachineConfig::default() })
    }

    fn run_user(m: &mut Machine, program: &[Inst]) {
        m.map_region(USER_CODE, 4 * program.len() as u64, Perms::user_rwx());
        m.load_program(USER_CODE, program);
        m.cpu.pc = USER_CODE;
        m.cpu.el = El::El0;
        m.run(100_000).expect("program must not trap");
    }

    #[test]
    fn profiler_attributes_retired_work_when_enabled() {
        let mut m = Machine::new(MachineConfig {
            os_noise: 0.0,
            profile: true,
            ..MachineConfig::default()
        });
        m.map_page(USER_DATA, Perms::user_rw());
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov_imm64(Reg::X0, 8);
        a.mov_imm64(Reg::X1, USER_DATA);
        a.bind(top);
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X1, offset: 0 });
        a.push(Inst::SubImm { rd: Reg::X0, rn: Reg::X0, imm: 1 });
        a.cbnz(Reg::X0, top);
        a.push(Inst::Hlt);
        let program = a.assemble().unwrap();
        run_user(&mut m, &program);

        let prof = &m.profiler;
        assert_eq!(prof.opcodes()["ldr"].retired, 8);
        assert_eq!(prof.opcodes()["sub_imm"].retired, 8);
        assert!(prof.phase(crate::profiler::Phase::Memory).cycles > 0);
        assert!(prof.phase(crate::profiler::Phase::Decode).events > 0);
        // The loop body re-enters its block once per iteration.
        let loop_block = prof.blocks().values().map(|b| b.entries).max().expect("blocks recorded");
        assert!(loop_block >= 7, "loop entries recorded: {loop_block}");

        let mut reg = Registry::new();
        m.export_telemetry(&mut reg);
        assert_eq!(reg.counter_value("profile.opcode.ldr.retired"), 8);
        assert!(reg.counter_value("profile.phase.dispatch.cycles") > 0);

        // Same program with the profiler off: identical architectural
        // outcome, no profile.* series at all.
        let mut off = machine();
        off.map_page(USER_DATA, Perms::user_rw());
        run_user(&mut off, &program);
        assert!(off.profiler.is_empty());
        let mut reg_off = Registry::new();
        off.export_telemetry(&mut reg_off);
        assert!(!reg_off.snapshot().counters().any(|(k, _)| k.starts_with("profile.")));
        assert_eq!(off.cycles, m.cycles, "profiling must not change simulated time");
    }

    #[test]
    fn save_restore_mid_program_continues_bit_identically() {
        // Run a PAC-heavy syscall-free loop partway, snapshot, and let
        // both the original and a restored fresh boot finish: every
        // architectural register, the cycle count, and the full
        // telemetry export must agree.
        let mut m = machine();
        m.map_page(USER_DATA, Perms::user_rw());
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov_imm64(Reg::X0, 12);
        a.mov_imm64(Reg::X1, USER_DATA);
        a.mov_imm64(Reg::X9, 0x0000_0000_4567_0000);
        a.bind(top);
        a.push(Inst::Pac { key: PacKey::Ia, rd: Reg::X9, modifier: pacman_isa::PacModifier::Zero });
        a.push(Inst::Xpac { rd: Reg::X9, data: false });
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X1, offset: 0 });
        a.push(Inst::Str { rt: Reg::X0, rn: Reg::X1, offset: 8 });
        a.push(Inst::SubImm { rd: Reg::X0, rn: Reg::X0, imm: 1 });
        a.cbnz(Reg::X0, top);
        a.push(Inst::Hlt);
        let program = a.assemble().unwrap();
        m.map_region(USER_CODE, 4 * program.len() as u64, Perms::user_rwx());
        m.load_program(USER_CODE, &program);
        m.cpu.pc = USER_CODE;
        m.cpu.el = El::El0;
        for _ in 0..20 {
            m.step().expect("no trap");
        }
        let mut w = pacman_telemetry::bin::Writer::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = machine();
        let mut r = pacman_telemetry::bin::Reader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_done(), "snapshot fully consumed");
        assert_eq!(restored.cycles, m.cycles);
        assert_eq!(restored.cpu.pc, m.cpu.pc);

        m.run(100_000).expect("original finishes");
        restored.run(100_000).expect("restored finishes");
        assert_eq!(restored.cpu.regs, m.cpu.regs);
        assert_eq!(restored.cycles, m.cycles);
        assert_eq!(restored.stats, m.stats);
        let (mut reg_a, mut reg_b) = (Registry::new(), Registry::new());
        m.export_telemetry(&mut reg_a);
        restored.export_telemetry(&mut reg_b);
        assert_eq!(reg_a.snapshot(), reg_b.snapshot(), "telemetry must be bit-identical");

        // Truncating the snapshot anywhere is a typed error, never a
        // panic (spot-check a spread of prefixes; every byte would be
        // slow against a full memory image).
        for cut in [0, 1, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            let mut broken = machine();
            let mut r = pacman_telemetry::bin::Reader::new(&bytes[..cut]);
            assert!(broken.restore_state(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn alu_and_mov_semantics() {
        let mut m = machine();
        let mut a = Asm::new();
        a.mov_imm64(Reg::X0, 40);
        a.push(Inst::AddImm { rd: Reg::X1, rn: Reg::X0, imm: 2 });
        a.push(Inst::SubReg { rd: Reg::X2, rn: Reg::X1, rm: Reg::X0 });
        a.push(Inst::LslImm { rd: Reg::X3, rn: Reg::X1, shift: 4 });
        a.push(Inst::Hlt);
        run_user(&mut m, &a.assemble().unwrap());
        assert_eq!(m.cpu.get(Reg::X1), 42);
        assert_eq!(m.cpu.get(Reg::X2), 2);
        assert_eq!(m.cpu.get(Reg::X3), 42 << 4);
    }

    #[test]
    fn movn_csel_and_bit_branches() {
        let mut m = machine();
        let mut a = Asm::new();
        let bit_set = a.new_label();
        let done = a.new_label();
        a.push(Inst::MovN { rd: Reg::X0, imm: 0, shift: 0 }); // x0 = !0 = u64::MAX
        a.push(Inst::CmpImm { rn: Reg::X1, imm: 5 });
        a.mov_imm64(Reg::X2, 100);
        a.mov_imm64(Reg::X3, 200);
        // x4 = (x1 < 5) ? x2 : x3; with x1 = 0 -> 100.
        a.push(Inst::Csel { rd: Reg::X4, rn: Reg::X2, rm: Reg::X3, cond: pacman_isa::Cond::Lt });
        // tbnz on bit 63 of x0 (set) -> branch taken.
        a.tbnz(Reg::X0, 63, bit_set);
        a.mov_imm64(Reg::X5, 1); // skipped
        a.b(done);
        a.bind(bit_set);
        a.mov_imm64(Reg::X5, 2);
        a.bind(done);
        // tbz on bit 0 of x4 (100 -> bit0 = 0) -> taken.
        let even = a.new_label();
        a.tbz(Reg::X4, 0, even);
        a.mov_imm64(Reg::X6, 1);
        a.bind(even);
        a.push(Inst::Hlt);
        run_user(&mut m, &a.assemble().unwrap());
        assert_eq!(m.cpu.get(Reg::X0), u64::MAX);
        assert_eq!(m.cpu.get(Reg::X4), 100);
        assert_eq!(m.cpu.get(Reg::X5), 2, "tbnz must have taken the branch");
        assert_eq!(m.cpu.get(Reg::X6), 0, "tbz must have skipped the mov");
    }

    #[test]
    fn pair_loads_and_stores() {
        let mut m = machine();
        m.map_page(USER_DATA, Perms::user_rw());
        let mut a = Asm::new();
        a.mov_imm64(Reg::X0, USER_DATA + 0x100);
        a.mov_imm64(Reg::X1, 0x1111_2222_3333_4444);
        a.mov_imm64(Reg::X2, 0x5555_6666_7777_8888);
        a.push(Inst::Stp { rt: Reg::X1, rt2: Reg::X2, rn: Reg::X0, offset: 16 });
        a.push(Inst::Ldp { rt: Reg::X3, rt2: Reg::X4, rn: Reg::X0, offset: 16 });
        a.push(Inst::Hlt);
        run_user(&mut m, &a.assemble().unwrap());
        assert_eq!(m.cpu.get(Reg::X3), 0x1111_2222_3333_4444);
        assert_eq!(m.cpu.get(Reg::X4), 0x5555_6666_7777_8888);
        assert_eq!(m.mem.debug_read_u64(USER_DATA + 0x118), Some(0x5555_6666_7777_8888));
    }

    #[test]
    fn loads_and_stores_roundtrip_through_memory() {
        let mut m = machine();
        m.map_page(USER_DATA, Perms::user_rw());
        let mut a = Asm::new();
        a.mov_imm64(Reg::X0, USER_DATA + 0x100);
        a.mov_imm64(Reg::X1, 0xDEAD_BEEF_1234_5678);
        a.push(Inst::Str { rt: Reg::X1, rn: Reg::X0, offset: 0 });
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 });
        a.push(Inst::Ldrb { rt: Reg::X3, rn: Reg::X0, offset: 0 });
        a.push(Inst::Hlt);
        run_user(&mut m, &a.assemble().unwrap());
        assert_eq!(m.cpu.get(Reg::X2), 0xDEAD_BEEF_1234_5678);
        assert_eq!(m.cpu.get(Reg::X3), 0x78);
        assert_eq!(m.mem.debug_read_u64(USER_DATA + 0x100), Some(0xDEAD_BEEF_1234_5678));
    }

    #[test]
    fn loops_and_conditionals_execute() {
        // sum 1..=10 via a loop
        let mut m = machine();
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov_imm64(Reg::X0, 10);
        a.mov_imm64(Reg::X1, 0);
        a.bind(top);
        a.push(Inst::AddReg { rd: Reg::X1, rn: Reg::X1, rm: Reg::X0 });
        a.push(Inst::SubImm { rd: Reg::X0, rn: Reg::X0, imm: 1 });
        a.cbnz(Reg::X0, top);
        a.push(Inst::Hlt);
        run_user(&mut m, &a.assemble().unwrap());
        assert_eq!(m.cpu.get(Reg::X1), 55);
    }

    #[test]
    fn architectural_pac_roundtrip() {
        let mut m = machine();
        m.cpu.keys.write_half(SysReg::ApiaKeyLo, 0x1234);
        m.cpu.keys.write_half(SysReg::ApiaKeyHi, 0x5678);
        m.map_page(USER_DATA, Perms::user_rw());
        let mut a = Asm::new();
        a.mov_imm64(Reg::X0, USER_DATA + 8);
        a.mov_imm64(Reg::X1, 0x77);
        a.push(Inst::Pac { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Reg(Reg::X1) });
        a.push(Inst::MovReg { rd: Reg::X4, rn: Reg::X0 }); // keep signed copy
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Reg(Reg::X1) });
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 }); // must not fault
        a.push(Inst::Hlt);
        run_user(&mut m, &a.assemble().unwrap());
        assert_eq!(m.cpu.get(Reg::X0), USER_DATA + 8, "AUT strips the PAC");
        assert_ne!(m.cpu.get(Reg::X4), USER_DATA + 8, "PAC must actually sign");
    }

    #[test]
    fn architectural_aut_failure_crashes_on_use() {
        let mut m = machine();
        m.cpu.keys.write_half(SysReg::ApiaKeyLo, 0x9999);
        m.map_page(USER_DATA, Perms::user_rw());
        let mut a = Asm::new();
        a.mov_imm64(Reg::X0, USER_DATA + 8);
        a.mov_imm64(Reg::X1, 0x77);
        a.push(Inst::Pac { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Reg(Reg::X1) });
        a.mov_imm64(Reg::X1, 0x78); // wrong modifier
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Reg(Reg::X1) });
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 }); // faults
        a.push(Inst::Hlt);
        let prog = a.assemble().unwrap();
        m.map_region(USER_CODE, 4 * prog.len() as u64, Perms::user_rwx());
        m.load_program(USER_CODE, &prog);
        m.cpu.pc = USER_CODE;
        let err = m.run(1000).unwrap_err();
        assert!(matches!(err, Trap::TranslationFault { access: AccessKind::Load, .. }));
    }

    #[test]
    fn el0_cannot_touch_kernel_pages_or_key_registers() {
        let mut m = machine();
        let kva = 0xFFFF_FFF0_0000_0000u64;
        m.map_page(kva, Perms::kernel_rw());
        let mut a = Asm::new();
        a.mov_imm64(Reg::X0, kva);
        a.push(Inst::Ldr { rt: Reg::X1, rn: Reg::X0, offset: 0 });
        let prog = a.assemble().unwrap();
        m.map_region(USER_CODE, 64, Perms::user_rwx());
        m.load_program(USER_CODE, &prog);
        m.cpu.pc = USER_CODE;
        assert!(matches!(m.run(10), Err(Trap::PermissionFault { .. })));

        let mut a = Asm::new();
        a.push(Inst::Mrs { rd: Reg::X0, sysreg: SysReg::ApiaKeyLo });
        let prog = a.assemble().unwrap();
        m.load_program(USER_CODE, &prog);
        m.cpu.pc = USER_CODE;
        assert!(matches!(m.run(10), Err(Trap::SysRegAccess { .. })));
    }

    #[test]
    fn timed_loads_distinguish_dtlb_hits_from_misses() {
        let mut m = machine();
        m.set_timing_source(TimingSource::MultiThread);
        m.map_page(USER_DATA, Perms::user_rw());
        // First access: walk (slow). Second: everything hot (fast).
        let cold = m.timed_user_load(USER_DATA).unwrap();
        let hot = m.timed_user_load(USER_DATA).unwrap();
        assert!(hot <= 27, "hot load measured {hot} ticks");
        assert!(cold >= 32, "cold load measured {cold} ticks");
    }

    #[test]
    fn mispredicted_branch_opens_a_speculative_shadow() {
        let mut m = machine();
        m.map_page(USER_DATA, Perms::user_rw());
        let secret = USER_DATA + 0x2000;
        m.map_page(secret, Perms::user_rw());

        // if (x1 != 0) load [x2];  — train taken, then flip.
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Ldr { rt: Reg::X3, rn: Reg::X2, offset: 0 });
        a.bind(skip);
        a.push(Inst::Hlt);
        let prog = a.assemble().unwrap();
        m.map_region(USER_CODE, 64, Perms::user_rwx());
        m.load_program(USER_CODE, &prog);

        // Train: x1=1 (branch not taken at cbz — i.e. fall through to the
        // load) so the predictor learns "not taken".
        for _ in 0..4 {
            m.cpu.pc = USER_CODE;
            m.cpu.set(Reg::X1, 1);
            m.cpu.set(Reg::X2, USER_DATA);
            m.run(100).unwrap();
        }
        // Flush the secret page's TLB entry footprint, then run with x1=0:
        // architecturally the load is skipped, but the wrong path executes
        // it speculatively.
        m.mem.tlbs.flush();
        let episodes_before = m.stats.spec_episodes;
        m.cpu.pc = USER_CODE;
        m.cpu.set(Reg::X1, 0);
        m.cpu.set(Reg::X2, secret);
        m.run(100).unwrap();
        assert_eq!(m.stats.spec_episodes, episodes_before + 1);
        assert_eq!(m.cpu.get(Reg::X3), 0, "architectural state untouched");
        assert!(
            m.mem.tlbs.dtlb().contains(VirtualAddress::new(secret).vpn()),
            "speculative load must leave a dTLB footprint"
        );

        // The same shadow over a store whose offset carries it into the
        // next page: the footprint is at `rn + offset`, not at `rn`.
        let mut m = machine();
        m.map_region(USER_DATA, 4 * PAGE_SIZE, Perms::user_rw());
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Str { rt: Reg::X3, rn: Reg::X2, offset: 16 });
        a.bind(skip);
        a.push(Inst::Hlt);
        let prog = a.assemble().unwrap();
        m.map_region(USER_CODE, 64, Perms::user_rwx());
        m.load_program(USER_CODE, &prog);
        for _ in 0..4 {
            m.cpu.pc = USER_CODE;
            m.cpu.set(Reg::X1, 1);
            m.cpu.set(Reg::X2, USER_DATA);
            m.run(100).unwrap();
        }
        m.mem.tlbs.flush();
        let base = USER_DATA + 2 * PAGE_SIZE - 8;
        m.cpu.pc = USER_CODE;
        m.cpu.set(Reg::X1, 0);
        m.cpu.set(Reg::X2, base);
        m.run(100).unwrap();
        let dtlb = m.mem.tlbs.dtlb();
        assert!(
            dtlb.contains(VirtualAddress::new(base + 16).vpn()),
            "speculative store must fill the dTLB at rn + offset, in the next page"
        );
        assert!(!dtlb.contains(VirtualAddress::new(base).vpn()), "the base's own page stays cold");
    }

    #[test]
    fn delay_on_miss_blocks_a_sequential_wrong_path_fetch_onto_an_itlb_missing_page() {
        // The last slot of page A holds a `cbz` trained not taken, whose
        // fall-through is page B. Run with the branch taken after a TLB
        // flush: the wrong path fetches B sequentially while B is in no
        // TLB. Without a mitigation that fetch walks and fills the iTLB
        // and the L2 TLB; under delay-on-miss it must block with no fill.
        let slots = (PAGE_SIZE / 4) as usize;
        let (a, b) = (USER_CODE, USER_CODE + PAGE_SIZE);
        let mut asm = Asm::new();
        let (taken, last) = (asm.new_label(), asm.new_label());
        asm.b(last);
        asm.bind(taken);
        asm.push(Inst::Hlt);
        while asm.len() < slots - 1 {
            asm.push(Inst::Nop);
        }
        asm.bind(last);
        asm.cbz(Reg::X1, taken);
        asm.push(Inst::Hlt); // slot 0 of page B
        let program = asm.assemble().unwrap();
        let b_vpn = VirtualAddress::new(b).vpn();
        for (mitigation, fills) in [(Mitigation::None, true), (Mitigation::DelayOnMiss, false)] {
            let mut m = Machine::new(MachineConfig {
                os_noise: 0.0,
                mitigation,
                ..MachineConfig::default()
            });
            m.map_region(a, 2 * PAGE_SIZE, Perms::user_rwx());
            m.load_program(a, &program);
            m.cpu.el = El::El0;
            for _ in 0..4 {
                m.cpu.pc = a;
                m.cpu.set(Reg::X1, 1);
                assert_eq!(m.run(100), Ok(Stop::Hlt));
            }
            m.mem.tlbs.flush();
            let episodes = m.stats.spec_episodes;
            m.cpu.pc = a;
            m.cpu.set(Reg::X1, 0);
            assert_eq!(m.run(100), Ok(Stop::Hlt));
            assert_eq!(m.stats.spec_episodes, episodes + 1, "{mitigation:?}: one shadow");
            let tlbs = &m.mem.tlbs;
            assert_eq!(tlbs.itlb(FetchWorld::User).contains(b_vpn), fills, "{mitigation:?}: iTLB");
            assert_eq!(tlbs.l2().contains(b_vpn), fills, "{mitigation:?}: L2 TLB");
        }
    }

    #[test]
    fn speculative_faults_are_suppressed() {
        let mut m = machine();
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Ldr { rt: Reg::X3, rn: Reg::X2, offset: 0 });
        a.bind(skip);
        a.push(Inst::Hlt);
        let prog = a.assemble().unwrap();
        m.map_region(USER_CODE, 64, Perms::user_rwx());
        m.map_page(USER_DATA, Perms::user_rw());
        m.load_program(USER_CODE, &prog);
        for _ in 0..4 {
            m.cpu.pc = USER_CODE;
            m.cpu.set(Reg::X1, 1);
            m.cpu.set(Reg::X2, USER_DATA);
            m.run(100).unwrap();
        }
        m.cpu.pc = USER_CODE;
        m.cpu.set(Reg::X1, 0);
        m.cpu.set(Reg::X2, 0x00F0_DEAD_0000_0000); // non-canonical
        let before = m.stats.spec_faults_suppressed;
        m.run(100).expect("speculative fault must not become architectural");
        assert_eq!(m.stats.spec_faults_suppressed, before + 1);
    }

    #[test]
    fn wrong_path_taint_follows_the_registers_each_alu_result_reads() {
        use pacman_isa::Cond;
        // x2 holds a signed pointer, x6 = USER_DATA and x7 = 0. Under
        // the shadow, `autda x2` taints x2; `body` derives x5 (USER_DATA
        // whichever way) and `ldr x4, [x5]` is blocked iff x5 is tainted.
        let blocked = |body: &[Inst]| {
            let mut m = Machine::new(MachineConfig {
                os_noise: 0.0,
                mitigation: Mitigation::TaintAutOutputs,
                ..MachineConfig::default()
            });
            m.map_page(USER_DATA, Perms::user_rw());
            let mut a = Asm::new();
            let skip = a.new_label();
            a.push(Inst::Pac { key: PacKey::Da, rd: Reg::X2, modifier: PacModifier::Zero });
            a.cbz(Reg::X1, skip);
            a.push(Inst::Aut { key: PacKey::Da, rd: Reg::X2, modifier: PacModifier::Zero });
            for &inst in body {
                a.push(inst);
            }
            a.push(Inst::Ldr { rt: Reg::X4, rn: Reg::X5, offset: 0 });
            a.bind(skip);
            a.push(Inst::Hlt);
            let prog = a.assemble().unwrap();
            m.map_region(USER_CODE, 4 * prog.len() as u64, Perms::user_rwx());
            m.load_program(USER_CODE, &prog);
            for x1 in [1, 1, 1, 1, 0] {
                m.cpu.pc = USER_CODE;
                for (r, v) in
                    [(Reg::X1, x1), (Reg::X2, USER_DATA), (Reg::X6, USER_DATA), (Reg::X7, 0)]
                {
                    m.cpu.set(r, v);
                }
                m.run(100).expect("the body computes a mapped address");
            }
            assert_eq!(m.stats.spec_episodes, 1, "{body:?}");
            m.stats.taint_blocked == 1
        };
        let mov = |rd, rn| Inst::MovReg { rd, rn };
        let cases: [(&[Inst], bool); 10] = [
            (&[mov(Reg::X5, Reg::X2)], true),
            (&[Inst::MovZ { rd: Reg::X5, imm: 0x1000, shift: 1 }], false),
            (&[mov(Reg::X5, Reg::X2), Inst::MovZ { rd: Reg::X5, imm: 0x1000, shift: 1 }], false),
            (&[mov(Reg::X5, Reg::X2), Inst::MovK { rd: Reg::X5, imm: 0, shift: 0 }], true),
            (&[mov(Reg::X5, Reg::X2), Inst::Xpac { data: true, rd: Reg::X5 }], true),
            (
                &[
                    Inst::CmpReg { rn: Reg::XZR, rm: Reg::XZR },
                    Inst::Csel { rd: Reg::X5, rn: Reg::X2, rm: Reg::X6, cond: Cond::Eq },
                ],
                true,
            ),
            (
                &[
                    Inst::CmpReg { rn: Reg::XZR, rm: Reg::XZR },
                    Inst::Csel { rd: Reg::X5, rn: Reg::X2, rm: Reg::X6, cond: Cond::Ne },
                ],
                false,
            ),
            (
                &[
                    Inst::CmpReg { rn: Reg::XZR, rm: Reg::XZR },
                    Inst::Csel { rd: Reg::X5, rn: Reg::X6, rm: Reg::X2, cond: Cond::Ne },
                ],
                true,
            ),
            (&[Inst::AddReg { rd: Reg::X5, rn: Reg::X7, rm: Reg::X2 }], true),
            (&[Inst::AddReg { rd: Reg::X5, rn: Reg::X6, rm: Reg::XZR }], false),
        ];
        for (body, expect) in cases {
            assert_eq!(blocked(body), expect, "{body:?}");
        }
    }

    #[test]
    fn svc_eret_roundtrip_runs_kernel_code() {
        let mut m = machine();
        let kcode = 0xFFFF_FFF0_0010_0000u64;
        m.map_region(kcode, 256, Perms::kernel_rx());
        // Kernel: x0 = x16 + 1; eret.
        let mut k = Asm::new();
        k.push(Inst::AddImm { rd: Reg::X0, rn: Reg::X16, imm: 1 });
        k.push(Inst::Eret);
        let kprog = k.assemble().unwrap();
        {
            // kernel pages are not debug-writable via user perms; write via phys
            for (i, inst) in kprog.iter().enumerate() {
                let w = encode(inst).unwrap();
                let pa = m
                    .mem
                    .tables
                    .translate(&m.mem.phys, VirtualAddress::new(kcode + 4 * i as u64))
                    .unwrap();
                m.mem.phys.write_u32(pa, w);
            }
        }
        m.set_vbar(kcode);
        let mut a = Asm::new();
        a.mov_imm64(Reg::X16, 41);
        a.push(Inst::Svc { imm: 0 });
        a.push(Inst::Hlt);
        run_user(&mut m, &a.assemble().unwrap());
        assert_eq!(m.cpu.get(Reg::X0), 42);
        assert_eq!(m.cpu.el, El::El0);
        assert_eq!(m.stats.syscalls, 1);
    }

    #[test]
    fn pmcr0_gate_controls_el0_pmc0_reads() {
        let mut m = machine();
        m.set_timing_source(TimingSource::Pmc0);
        assert!(m.read_timer().is_none(), "PMC0 must trap at EL0 by default");
        m.timers.pmc0_el0_enabled = true; // what the kext does
        assert!(m.read_timer().is_some());
    }

    /// A sum-loop whose backward branch mispredicts on the cold first
    /// iteration and again at the exit — two speculation shadows.
    fn mispredicting_loop() -> Vec<Inst> {
        let mut a = Asm::new();
        let top = a.new_label();
        a.mov_imm64(Reg::X0, 10);
        a.mov_imm64(Reg::X1, 0);
        a.bind(top);
        a.push(Inst::AddReg { rd: Reg::X1, rn: Reg::X1, rm: Reg::X0 });
        a.push(Inst::SubImm { rd: Reg::X0, rn: Reg::X0, imm: 1 });
        a.cbnz(Reg::X0, top);
        a.push(Inst::Hlt);
        a.assemble().unwrap()
    }

    #[test]
    fn predict_stats_count_conditional_outcomes() {
        let mut m = machine();
        run_user(&mut m, &mispredicting_loop());
        let p = m.predict_stats;
        // Ten cbnz executions: the cold weakly-not-taken counter misses
        // the first taken iteration, and the saturated counter misses the
        // final not-taken exit.
        assert!(p.bimodal_mispredicts >= 2, "got {p:?}");
        assert!(p.bimodal_correct >= 7, "got {p:?}");
        assert_eq!(p.bimodal_correct + p.bimodal_mispredicts, 10);
    }

    #[test]
    fn spec_depth_histogram_records_one_entry_per_shadow() {
        let mut m = machine();
        run_user(&mut m, &mispredicting_loop());
        assert!(m.stats.spec_episodes > 0);
        assert_eq!(m.spec_depth.count(), m.stats.spec_episodes);
    }

    #[test]
    fn rsb_predicts_returns() {
        let mut m = machine();
        let mut a = Asm::new();
        let func = a.new_label();
        let done = a.new_label();
        a.bl(func);
        a.b(done);
        a.bind(func);
        a.push(Inst::Ret);
        a.bind(done);
        a.push(Inst::Hlt);
        run_user(&mut m, &a.assemble().unwrap());
        assert_eq!(m.predict_stats.rsb_hits, 1);
        assert_eq!(m.predict_stats.rsb_underflows, 0);
        assert_eq!(m.predict_stats.ret_mispredicts, 0);
    }

    #[test]
    fn export_telemetry_emits_canonical_counters() {
        let mut m = machine();
        run_user(&mut m, &mispredicting_loop());
        let mut reg = Registry::new();
        m.export_telemetry(&mut reg);
        assert!(reg.counter_value("tlb.itlb.user.hits") > 0);
        assert!(reg.counter_value("tlb.itlb.user.misses") > 0);
        assert!(reg.counter_value("cache.l1i.hits") > 0);
        assert_eq!(reg.counter_value("cpu.retired"), m.stats.retired);
        assert_eq!(
            reg.counter_value("predict.bimodal.mispredicts"),
            m.predict_stats.bimodal_mispredicts
        );
        let h = reg.histogram("spec.depth").expect("depth histogram exported");
        assert_eq!(h.count(), m.stats.spec_episodes);

        let mut off = Registry::disabled();
        m.export_telemetry(&mut off);
        assert!(off.is_empty(), "a disabled registry must stay empty");
    }

    #[test]
    fn with_trace_scopes_recording_and_restores_prior_state() {
        let mut m = machine();
        m.trace.enable();
        let (_, events) = m.with_trace(|m| run_user(m, &mispredicting_loop()));
        assert!(events.iter().any(|e| matches!(e, SpecEvent::ShadowOpened { .. })));
        assert!(m.trace.is_enabled(), "prior enabled flag restored");
        assert!(m.trace.events().is_empty(), "scoped events must not leak out");
    }

    /// A program that patches two of its own instruction slots with one
    /// 64-bit store before control reaches them, then runs a PAC/AUT loop
    /// (exercising both block-cache invalidation and the PAC memo).
    fn self_modifying_pac_program() -> Vec<Inst> {
        let patched = encode(&Inst::MovZ { rd: Reg::X5, imm: 42, shift: 0 }).unwrap();
        let nop = encode(&Inst::Nop).unwrap();
        let patch_words = u64::from(patched) | (u64::from(nop) << 32);
        let mut a = Asm::new();
        a.mov_imm64(Reg::X1, USER_CODE + 4 * 16); // patch site: slots 16 and 17
        a.mov_imm64(Reg::X2, patch_words);
        a.push(Inst::Str { rt: Reg::X2, rn: Reg::X1, offset: 0 });
        a.mov_imm64(Reg::X0, 5); // PAC/AUT loop count
        a.mov_imm64(Reg::X3, USER_DATA + 8);
        while a.len() < 16 {
            a.push(Inst::Nop);
        }
        // Slots 16/17: overwritten by the store above before first fetch.
        a.push(Inst::MovZ { rd: Reg::X5, imm: 7, shift: 0 });
        a.push(Inst::MovZ { rd: Reg::X5, imm: 9, shift: 0 });
        let top = a.new_label();
        a.bind(top);
        a.push(Inst::Pac { key: PacKey::Ia, rd: Reg::X3, modifier: PacModifier::Zero });
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X3, modifier: PacModifier::Zero });
        a.push(Inst::SubImm { rd: Reg::X0, rn: Reg::X0, imm: 1 });
        a.cbnz(Reg::X0, top);
        a.push(Inst::Hlt);
        a.assemble().unwrap()
    }

    #[test]
    fn cached_engine_is_bit_identical_to_interpreted() {
        let program = self_modifying_pac_program();
        let mut cached = machine();
        cached.cpu.keys.write_half(SysReg::ApiaKeyLo, 0xfeed);
        let mut interp = Machine::new(MachineConfig {
            os_noise: 0.0,
            engine: ExecEngine::Interpreted,
            ..MachineConfig::default()
        });
        interp.cpu.keys.write_half(SysReg::ApiaKeyLo, 0xfeed);
        run_user(&mut cached, &program);
        run_user(&mut interp, &program);

        assert_eq!(cached.cpu.get(Reg::X5), 42, "patched instruction must execute");
        assert_eq!(cached.cpu.regs, interp.cpu.regs);
        assert_eq!(cached.cpu.pc, interp.cpu.pc);
        assert_eq!(cached.cycles, interp.cycles, "engines must agree on simulated time");
        assert_eq!(cached.stats.retired, interp.stats.retired);

        let bs = cached.block_cache_stats();
        assert!(bs.hits > 0, "the PAC/AUT loop must dispatch from the arena");
        assert!(bs.invalidations >= 1, "the self-modifying store must flush the cache");
        assert!(cached.pac_memo_hits > 0, "repeated AUTs must hit the memo");
        let ibs = interp.block_cache_stats();
        assert_eq!((ibs.hits, ibs.misses, ibs.decoded), (0, 0, 0));
        assert_eq!(interp.pac_memo_hits + interp.pac_memo_misses, 0);
    }

    /// A `Cached` and an `Interpreted` machine with one configuration.
    fn engine_pair() -> (Machine, Machine) {
        let config = MachineConfig { os_noise: 0.0, ..MachineConfig::default() };
        let interp = Machine::new(MachineConfig { engine: ExecEngine::Interpreted, ..config });
        (Machine::new(config), interp)
    }

    /// Maps and loads `program` at [`USER_CODE`] and points EL0 at it.
    fn load_user(m: &mut Machine, program: &[Inst]) {
        m.map_region(USER_CODE, 4 * program.len() as u64, Perms::user_rwx());
        m.load_program(USER_CODE, program);
        m.cpu.pc = USER_CODE;
        m.cpu.el = El::El0;
    }

    /// What the engines must agree on: architectural state, simulated
    /// time, and every exported series except the host-only `exec.*`
    /// accelerator counters.
    fn assert_engines_agree(cached: &Machine, interp: &Machine) {
        assert_eq!(format!("{:?}", cached.cpu), format!("{:?}", interp.cpu));
        assert_eq!(cached.cycles, interp.cycles, "engines must agree on simulated time");
        let export = |m: &Machine| {
            let mut reg = Registry::new();
            m.export_telemetry(&mut reg);
            let mut snap = reg.snapshot();
            snap.retain_counters(|name| !name.starts_with("exec."));
            snap
        };
        assert_eq!(export(cached), export(interp));
    }

    #[test]
    fn cursor_sees_a_store_patching_the_same_l1i_line() {
        // The store rewrites the instruction two slots ahead — same page,
        // same 64-byte L1i line — while the cursor is serving this page.
        // The 64-bit store also rewrites the following HLT, unchanged.
        let patched = encode(&Inst::MovZ { rd: Reg::X5, imm: 42, shift: 0 }).unwrap();
        let hlt = encode(&Inst::Hlt).unwrap();
        let mut a = Asm::new();
        a.mov_imm64(Reg::X1, USER_CODE);
        a.mov_imm64(Reg::X2, u64::from(patched) | u64::from(hlt) << 32);
        let site = a.len() + 2;
        a.push(Inst::Str { rt: Reg::X2, rn: Reg::X1, offset: 4 * site as i16 });
        a.push(Inst::Nop);
        a.push(Inst::MovZ { rd: Reg::X5, imm: 7, shift: 0 });
        a.push(Inst::Hlt);
        let program = a.assemble().unwrap();
        assert!(
            USER_CODE.is_multiple_of(64) && 4 * site < 64,
            "the store site shares the first line"
        );
        let (mut cached, mut interp) = engine_pair();
        for m in [&mut cached, &mut interp] {
            load_user(m, &program);
            assert_eq!(m.run(100), Ok(Stop::Hlt));
        }
        assert_eq!(cached.cpu.get(Reg::X5), 42, "the patched instruction must execute");
        assert!(cached.block_cache_stats().invalidations >= 1);
        assert_engines_agree(&cached, &interp);
    }

    #[test]
    fn cursor_survives_mid_page_flushes_like_the_kernel_panic_path() {
        // The kernel's panic path flushes the TLBs and caches directly;
        // do the same between two halves of a straight-line run, with
        // the cursor live on the page.
        let mut a = Asm::new();
        for i in 0..24 {
            a.push(Inst::AddImm { rd: Reg::X0, rn: Reg::X0, imm: i });
        }
        a.push(Inst::Hlt);
        let program = a.assemble().unwrap();
        for flush in [
            |m: &mut Machine| m.mem.l1i.flush(),
            |m: &mut Machine| m.mem.tlbs.flush(),
            |m: &mut Machine| {
                m.mem.tlbs.flush();
                m.mem.l1i.flush();
                m.mem.l1d.flush();
                m.mem.l2c.flush();
            },
        ] {
            let (mut cached, mut interp) = engine_pair();
            for m in [&mut cached, &mut interp] {
                load_user(m, &program);
                assert_eq!(m.run(8), Ok(Stop::InstLimit));
            }
            let pc = cached.cpu.pc;
            assert!(cursor_live(&cached, pc, El::El0), "the cursor must be live mid-page");
            flush(&mut cached);
            flush(&mut interp);
            assert_eq!(cached.run(100), Ok(Stop::Hlt));
            assert_eq!(interp.run(100), Ok(Stop::Hlt));
            assert_engines_agree(&cached, &interp);
        }
    }

    /// Whether a fetch cursor covers a fetch of `pc` at `el` in the
    /// current block-cache epoch.
    fn cursor_live(m: &Machine, pc: u64, el: El) -> bool {
        m.covering_cursor(pc, el).is_some_and(|i| m.fetch_cursors[i].epoch == m.block_cache.epoch())
    }

    #[test]
    fn cursor_survives_a_syscall_round_trip() {
        // A syscall crosses three pages in three cursor slots and three
        // iTLB sets: the user page, the vector page, and a handler on the
        // next kernel page. The first round trip fills the kernel iTLB,
        // which moves its version past the vector page's first cursor; the
        // second re-aims that cursor; the third must neither invalidate nor
        // re-aim any of them.
        let user = USER_CODE + 2 * PAGE_SIZE;
        let vector = 0xFFFF_FFF0_0000_0000;
        let handler = vector + PAGE_SIZE;
        assert_eq!([user, vector, handler].map(cursor_index), [2, 0, 1]);
        let u = [Inst::Svc { imm: 0 }, Inst::Svc { imm: 0 }, Inst::Svc { imm: 0 }, Inst::Hlt];
        let mut v = Asm::new();
        v.mov_imm64(Reg::X9, handler);
        v.push(Inst::Br { rn: Reg::X9 });
        let v = v.assemble().unwrap();
        let h = [Inst::AddImm { rd: Reg::X0, rn: Reg::X0, imm: 1 }, Inst::Eret];
        let (mut cached, mut interp) = engine_pair();
        for m in [&mut cached, &mut interp] {
            m.map_page(user, Perms::user_rx());
            m.load_program(user, &u);
            for (va, code) in [(vector, &v[..]), (handler, &h[..])] {
                m.map_page(va, Perms::kernel_rx());
                m.load_program(va, code);
            }
            m.set_vbar(vector);
            m.cpu.pc = user;
            m.cpu.el = El::El0;
            while m.cpu.pc != user + 8 {
                assert_eq!(m.step(), Ok(None));
            }
        }
        let warm = cached.fetch_cursors;
        for (pc, el) in [(user + 8, El::El0), (vector, El::El1), (handler, El::El1)] {
            assert!(cursor_live(&cached, pc, el), "{pc:#x}'s cursor must be live");
        }
        assert_eq!(cached.run(100), Ok(Stop::Hlt));
        assert_eq!(interp.run(100), Ok(Stop::Hlt));
        assert_eq!(cached.cpu.get(Reg::X0), 3);
        assert_eq!(cached.fetch_cursors, warm, "the round trip must keep every cursor");
        for (pc, el) in [(user + 12, El::El0), (vector, El::El1), (handler + 4, El::El1)] {
            assert!(cursor_live(&cached, pc, el), "{pc:#x}'s cursor must still be live");
        }
        assert_engines_agree(&cached, &interp);
    }

    #[test]
    fn cursor_is_dropped_when_a_wrong_path_fetches_another_page() {
        // Page A's `br` at L first goes to page B (training the BTB),
        // then — back on A — to K on A: the BTB still predicts B, so the
        // wrong path fetches B (same EL, same iTLB set: B is 32 pages on)
        // before execution resumes at K. Resuming must promote A back over
        // B in the iTLB, which three more same-set pages C, D, E then
        // show: their fills evict by LRU order, and the final fetch on A
        // hits or misses accordingly. K is predecoded and A runs no other
        // branch before leaving, so nothing else re-promotes A.
        let stride = 32 * PAGE_SIZE;
        let [a, b, c, d, e] = [0u64, 1, 2, 3, 4].map(|i| USER_CODE + i * stride);
        let trampoline = |to: Reg, regs: &[(Reg, u64)]| {
            let mut t = Asm::new();
            // Serialising: a wrong path entering here ends at once
            // (B's own `br` would otherwise speculatively fetch A).
            t.push(Inst::Isb);
            for &(r, v) in regs {
                t.mov_imm64(r, v);
            }
            t.push(Inst::Br { rn: to });
            t.assemble().unwrap()
        };
        let mut pa = Asm::new();
        let (k, l) = (pa.new_label(), pa.new_label());
        pa.mov_imm64(Reg::X1, b);
        pa.mov_imm64(Reg::X3, a + 4 * 8);
        pa.cbz(Reg::X9, l); // always taken
        let k_slot = pa.len() as u64;
        pa.bind(k); // decoded in the run from slot 0
        pa.mov_imm64(Reg::X5, c);
        pa.push(Inst::Br { rn: Reg::X5 });
        assert!(pa.len() <= 8, "L must be slot 8");
        while pa.len() < 8 {
            pa.push(Inst::Nop);
        }
        pa.bind(l); // slot 8
        pa.push(Inst::Br { rn: Reg::X1 });
        let last = a + 4 * pa.len() as u64;
        pa.push(Inst::AddImm { rd: Reg::X2, rn: Reg::X2, imm: 1 });
        pa.push(Inst::Hlt);
        let page_a = pa.assemble().unwrap();
        let page_b = trampoline(Reg::X3, &[(Reg::X1, a + 4 * k_slot)]);
        let page_c = trampoline(Reg::X6, &[(Reg::X6, d)]);
        let page_d = trampoline(Reg::X7, &[(Reg::X7, e)]);
        let page_e = trampoline(Reg::X8, &[(Reg::X8, last)]);
        let (mut cached, mut interp) = engine_pair();
        for m in [&mut cached, &mut interp] {
            for (va, code) in [(a, &page_a), (b, &page_b), (c, &page_c), (d, &page_d), (e, &page_e)]
            {
                m.map_page(va, Perms::user_rwx());
                m.load_program(va, code);
            }
            m.cpu.pc = a;
            m.cpu.el = El::El0;
            assert_eq!(m.run(200), Ok(Stop::Hlt));
        }
        assert_eq!(cached.cpu.get(Reg::X2), 1);
        assert!(cached.stats.spec_insts > 0, "the wrong path must run on page B");
        assert!(
            cached.mem.tlbs.itlb(FetchWorld::User).stats().evictions > 0,
            "the set must overflow"
        );
        assert_engines_agree(&cached, &interp);
    }

    #[test]
    fn cursor_dies_when_a_wrong_path_fills_its_itlb_set() {
        // Mid-run on page A, a wrong-path fetch (as the instruction
        // gadget's transmit makes) fills page B, never fetched before and
        // in A's iTLB set: B becomes the set's MRU way without touching
        // A's cursor slot. A's next fetch must take the full path and
        // promote A over B, which three more same-set pages C, D, E then
        // show: their fills evict by LRU order, so the final fetch on A
        // hits only if A was promoted.
        let stride = 32 * PAGE_SIZE;
        let [a, b, c, d, e] = [0u64, 1, 2, 3, 4].map(|i| USER_CODE + i * stride);
        let trampoline = |to: u64| {
            let mut t = Asm::new();
            t.mov_imm64(Reg::X6, to);
            t.push(Inst::Br { rn: Reg::X6 });
            t.assemble().unwrap()
        };
        let mut pa = Asm::new();
        pa.mov_imm64(Reg::X5, c);
        let split = pa.len() as u64;
        for imm in 1..=4 {
            pa.push(Inst::AddImm { rd: Reg::X0, rn: Reg::X0, imm });
        }
        pa.push(Inst::Br { rn: Reg::X5 });
        let last = a + 4 * pa.len() as u64;
        pa.push(Inst::AddImm { rd: Reg::X2, rn: Reg::X2, imm: 1 });
        pa.push(Inst::Hlt);
        let page_a = pa.assemble().unwrap();
        let (mut cached, mut interp) = engine_pair();
        for m in [&mut cached, &mut interp] {
            m.map_page(a, Perms::user_rwx());
            m.load_program(a, &page_a);
            for (va, to) in [(b, a), (c, d), (d, e), (e, last)] {
                m.map_page(va, Perms::user_rwx());
                m.load_program(va, &trampoline(to));
            }
            m.cpu.pc = a;
            m.cpu.el = El::El0;
            assert_eq!(m.run(split + 1), Ok(Stop::InstLimit));
        }
        assert!(cursor_live(&cached, cached.cpu.pc, El::El0), "A's cursor must be live");
        for m in [&mut cached, &mut interp] {
            assert!(matches!(m.mem.spec_fetch(b, El::El0, Mitigation::None), SpecAccess::Ok(..)));
            assert_eq!(m.run(100), Ok(Stop::Hlt));
        }
        assert_eq!(cached.cpu.get(Reg::X2), 1);
        let itlb = cached.mem.tlbs.itlb(FetchWorld::User);
        assert!(itlb.contains(VirtualAddress::new(a).vpn()), "A must survive");
        assert!(!itlb.contains(VirtualAddress::new(b).vpn()), "B must be evicted");
        assert_engines_agree(&cached, &interp);
    }

    #[test]
    fn cursor_declines_a_misaligned_branch_target_inside_the_page() {
        // The `br` lands half-way into slot 4, which the run decoded from
        // slot 0 holds: a cursor ignoring alignment would serve slot 4.
        let target = USER_CODE + 4 * 4 + 2;
        let mut a = Asm::new();
        let l = a.new_label();
        a.mov_imm64(Reg::X1, target);
        assert_eq!(a.len(), 2);
        a.cbnz(Reg::X1, l);
        for imm in 1..=4 {
            a.push(Inst::AddImm { rd: Reg::X0, rn: Reg::X0, imm });
        }
        a.bind(l);
        a.push(Inst::Br { rn: Reg::X1 });
        a.push(Inst::Hlt);
        let program = a.assemble().unwrap();
        let (mut cached, mut interp) = engine_pair();
        let mut ends = Vec::new();
        for m in [&mut cached, &mut interp] {
            load_user(m, &program);
            ends.push(m.run(100));
        }
        assert_eq!(ends[0], ends[1], "both engines must end the same way");
        assert_eq!(cached.cpu.pc % 4, 2, "execution must have reached the misaligned PC");
        assert!(cached.block_cache_stats().bypasses >= 1);
        assert_engines_agree(&cached, &interp);
    }

    #[test]
    fn alu_run_crosses_l1i_lines_and_the_page_end() {
        // Forty register-only instructions end page A, and twenty more
        // open page B: the run from A's second slot charges the L1i line
        // by line across three cold lines, stops at A's end, and B's
        // first fetch starts a new page.
        let tail = 40;
        let start = USER_CODE + PAGE_SIZE - 4 * tail;
        let mut a = Asm::new();
        for imm in 1..=60 {
            a.push(Inst::AddImm { rd: Reg::X0, rn: Reg::X0, imm });
        }
        a.push(Inst::Hlt);
        let program = a.assemble().unwrap();
        let (mut cached, mut interp) = engine_pair();
        for m in [&mut cached, &mut interp] {
            m.map_region(USER_CODE, 2 * PAGE_SIZE, Perms::user_rwx());
            m.load_program(start, &program);
            m.cpu.pc = start;
            m.cpu.el = El::El0;
            assert_eq!(m.run(100), Ok(Stop::Hlt));
        }
        assert_eq!(cached.cpu.get(Reg::X0), (1..=60).sum::<u64>());
        assert!(cached.mem.l1i.stats().misses >= 4, "every line is cold");
        assert!(cached.block_cache_stats().hits >= 58, "both pages run from the arena");
        assert_engines_agree(&cached, &interp);
    }

    #[test]
    fn a_budget_that_ends_mid_run_stops_exactly_there() {
        let mut a = Asm::new();
        for imm in 1..=30 {
            a.push(Inst::AddImm { rd: Reg::X0, rn: Reg::X0, imm });
        }
        a.push(Inst::Hlt);
        let program = a.assemble().unwrap();
        let (mut cached, mut interp) = engine_pair();
        for m in [&mut cached, &mut interp] {
            load_user(m, &program);
        }
        let mut steps = 0;
        for budget in [1, 12, 5] {
            assert_eq!(cached.run(budget), Ok(Stop::InstLimit));
            for _ in 0..budget {
                assert_eq!(interp.step(), Ok(None));
            }
            steps += budget;
            assert_eq!(cached.cpu.pc, USER_CODE + 4 * steps, "the run must stop at the budget");
            assert_eq!(cached.stats.retired, steps);
            assert_engines_agree(&cached, &interp);
        }
        assert_eq!(cached.run(100), Ok(Stop::Hlt));
        assert_eq!(interp.run(100), Ok(Stop::Hlt));
        assert_engines_agree(&cached, &interp);
    }

    #[test]
    fn a_store_into_the_running_frame_changes_the_very_next_instruction() {
        // Mid-run, a 64-bit store rewrites the two slots right after it,
        // both decoded with the run: the next instruction must be the
        // new one.
        let patched = encode(&Inst::MovZ { rd: Reg::X5, imm: 42, shift: 0 }).unwrap();
        let add = Inst::AddImm { rd: Reg::X6, rn: Reg::X6, imm: 1 };
        let mut a = Asm::new();
        a.mov_imm64(Reg::X1, USER_CODE);
        a.mov_imm64(Reg::X2, u64::from(patched) | u64::from(encode(&add).unwrap()) << 32);
        if a.len().is_multiple_of(2) {
            a.push(Inst::AddImm { rd: Reg::X7, rn: Reg::X7, imm: 1 });
        }
        let site = a.len() + 1;
        a.push(Inst::Str { rt: Reg::X2, rn: Reg::X1, offset: 4 * site as i16 });
        a.push(Inst::MovZ { rd: Reg::X5, imm: 7, shift: 0 });
        a.push(add);
        a.push(Inst::Hlt);
        let program = a.assemble().unwrap();
        let (mut cached, mut interp) = engine_pair();
        for m in [&mut cached, &mut interp] {
            load_user(m, &program);
            assert_eq!(m.run(100), Ok(Stop::Hlt));
        }
        assert_eq!(cached.cpu.get(Reg::X5), 42, "the patched instruction must execute");
        assert_eq!(cached.cpu.get(Reg::X6), 1);
        assert!(cached.block_cache_stats().invalidations >= 1);
        assert_engines_agree(&cached, &interp);
    }

    #[test]
    fn a_profiled_run_counts_exactly_what_the_unprofiled_run_counts() {
        // The profiler charges every instruction's fetch on its own; the
        // unprofiled run charges register-only runs in bulk. Every
        // exported counter but the profiler's own must agree, the
        // engine's `exec.*` counters included.
        let program = self_modifying_pac_program();
        let [mut plain, mut profiled] = [false, true].map(|profile| {
            let mut m =
                Machine::new(MachineConfig { os_noise: 0.0, profile, ..MachineConfig::default() });
            m.cpu.keys.write_half(SysReg::ApiaKeyLo, 0xfeed);
            m
        });
        for m in [&mut plain, &mut profiled] {
            run_user(m, &program);
        }
        let export = |m: &Machine| {
            let mut reg = Registry::new();
            m.export_telemetry(&mut reg);
            let mut snap = reg.snapshot();
            snap.retain_counters(|name| !name.starts_with("profile."));
            snap
        };
        assert!(plain.block_cache_stats().hits > 0);
        assert_eq!(format!("{:?}", plain.cpu), format!("{:?}", profiled.cpu));
        assert_eq!(plain.cycles, profiled.cycles);
        assert_eq!(export(&plain), export(&profiled));
    }

    #[test]
    fn memoised_pac_matches_ptr_semantics_and_survives_key_changes() {
        let mut m = machine();
        m.cpu.keys.write_half(SysReg::ApiaKeyLo, 0xdead_beef);
        let pointers = [USER_DATA, USER_DATA + 8, 0xFFFF_FFF0_0000_0010u64, 0];
        m.warm_pac_memo(PacKey::Ia, &pointers, 0x77);
        for &p in &pointers {
            let pacs = m.cpu.pac_computer(PacKey::Ia);
            assert_eq!(m.sign_pac(PacKey::Ia, p, 0x77), ptr::sign(&pacs, p, 0x77));
            let signed = m.sign_pac(PacKey::Ia, p, 0x77);
            assert_eq!(
                m.auth_pac(PacKey::Ia, signed, 0x77),
                ptr::authenticate(&pacs, signed, 0x77, PacKey::Ia)
            );
        }
        assert!(m.pac_memo_hits >= pointers.len() as u64, "warming must pre-fill the memo");

        // Changing the key must not serve stale PACs (the memo is keyed
        // by key value, so no explicit flush exists to get wrong).
        let before = m.sign_pac(PacKey::Ia, USER_DATA, 0x77);
        m.cpu.keys.write_half(SysReg::ApiaKeyLo, 0x1234_5678);
        let after = m.sign_pac(PacKey::Ia, USER_DATA, 0x77);
        let pacs = m.cpu.pac_computer(PacKey::Ia);
        assert_eq!(after, ptr::sign(&pacs, USER_DATA, 0x77));
        assert_ne!(before, after, "key change must change the PAC");
    }

    #[test]
    fn reset_recycles_frames_bit_identically() {
        let program = self_modifying_pac_program();
        let mut pooled = machine();
        run_user(&mut pooled, &program);
        let first_cycles = pooled.cycles;
        let frames_before = pooled.mem.phys.frame_count();
        pooled.reset();
        assert_eq!(pooled.cycles, 0, "reset must rebuild from scratch");
        run_user(&mut pooled, &program);

        let mut fresh = machine();
        run_user(&mut fresh, &program);
        assert_eq!(pooled.cycles, first_cycles);
        assert_eq!(pooled.cycles, fresh.cycles, "pooled reset must be bit-identical");
        assert_eq!(pooled.cpu.regs, fresh.cpu.regs);
        assert_eq!(pooled.mem.phys.frame_count(), frames_before, "same frame layout");
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn constructor_rejects_invalid_timer_ratio() {
        let _ =
            Machine::new(MachineConfig { system_counter_hz: u64::MAX, ..MachineConfig::default() });
    }

    #[test]
    fn try_new_reports_typed_config_errors() {
        let err =
            Machine::try_new(MachineConfig { system_counter_hz: 0, ..MachineConfig::default() })
                .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidTimerRatio { .. }));
        assert!(Machine::try_new(MachineConfig::default()).is_ok());
    }
}
