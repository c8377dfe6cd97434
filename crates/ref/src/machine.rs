//! The in-order, non-speculative architectural reference interpreter.
//!
//! [`RefMachine`] executes the `pacman-isa` instruction set with precise
//! exceptions and nothing else: no caches, no TLBs, no predictors, no
//! speculation window, no cycle accounting. It reuses the workspace's
//! architectural *state containers* — [`Cpu`] for the register file and
//! the paging structures for memory — so that committed state can be
//! compared field-for-field against the speculative core, but the
//! instruction semantics here are an independent reimplementation (the
//! thing the conformance harness actually cross-checks).
//!
//! Deliberate scope limits, mirrored by the scenario generator:
//!
//! - `CNTPCT_EL0` and `PMC0` read as 0 (their architectural values are
//!   cycle-dependent, which an untimed interpreter cannot reproduce);
//!   generated programs never read them.
//! - Physical frames are allocated by the same bump allocator in the
//!   same mapping order as on the speculative machine, so unaligned
//!   accesses that straddle a page boundary read the same bytes on both.

use pacman_isa::ptr::{self, VirtualAddress, PAGE_SIZE};
use pacman_isa::{decode, encode, Inst, PacModifier, Reg, SysReg};
use pacman_qarma::{PacComputer, QarmaKey};
use pacman_uarch::mem::PhysMemory;
use pacman_uarch::{AccessKind, Cpu, El, PageTables, Perms, Stop, Trap};

/// The reference machine: architectural state plus flat paged memory.
#[derive(Debug)]
pub struct RefMachine {
    /// Architectural register state (the same container the speculative
    /// core uses, compared field-for-field by the harness).
    pub cpu: Cpu,
    /// Retired-instruction count (the architectural value of `PMC1`).
    pub retired: u64,
    /// Byte ranges written by the most recently retired instruction, as
    /// `(va, len)` pairs — the harness's incremental memory-equivalence
    /// check.
    pub last_stores: Vec<(u64, u64)>,
    tables: PageTables,
    phys: PhysMemory,
    vbar: u64,
    pmc0_el0_enabled: bool,
    cntfrq: u64,
}

impl Default for RefMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl RefMachine {
    /// A fresh machine with empty memory, the M1's 24 MHz system-counter
    /// frequency, and the CPU reset state.
    #[must_use]
    pub fn new() -> Self {
        Self::with_memory(PhysMemory::new())
    }

    /// The reset state of [`RefMachine::new`] on top of `phys`, which must
    /// be empty.
    fn with_memory(mut phys: PhysMemory) -> Self {
        let tables = PageTables::new(&mut phys);
        Self {
            cpu: Cpu::new(),
            retired: 0,
            last_stores: Vec::new(),
            tables,
            phys,
            vbar: 0,
            pmc0_el0_enabled: false,
            cntfrq: 24_000_000,
        }
    }

    /// Returns this machine to the reset state of [`RefMachine::new`],
    /// recycling its physical frames ([`PhysMemory::reset`]) so a
    /// conformance shard can run thousands of scenarios without
    /// per-scenario heap allocation. The bump allocator restarts at the
    /// same PFN, so a reset machine is bit-identical to a fresh one.
    pub fn reset(&mut self) {
        let mut phys = std::mem::take(&mut self.phys);
        phys.reset();
        *self = Self::with_memory(phys);
    }

    /// Installs the syscall entry point (the kernel's exception vector).
    pub fn set_vbar(&mut self, va: u64) {
        self.vbar = va;
    }

    /// Maps a fresh zeroed page at `va` (page-aligned), returning its
    /// physical frame number.
    pub fn map_page(&mut self, va: u64, perms: Perms) -> u64 {
        self.tables.map_fresh(&mut self.phys, VirtualAddress::new(va), perms)
    }

    /// Maps `len` bytes starting at page-aligned `va`. Clamped at the top
    /// of the address space like [`pacman_uarch::Machine::map_region`]
    /// (`va + len` would overflow for the last page).
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

    /// Encodes and writes a program at `va` (must be mapped).
    ///
    /// # Panics
    ///
    /// Panics if an instruction does not encode or the region is
    /// unmapped — setup bugs, not runtime conditions.
    pub fn load_program(&mut self, va: u64, program: &[Inst]) -> u64 {
        for (i, inst) in program.iter().enumerate() {
            let w = encode(inst).expect("program instruction must encode");
            let addr = va.wrapping_add(4 * i as u64);
            let pa = self
                .tables
                .translate(&self.phys, VirtualAddress::new(addr))
                .expect("program region must be mapped");
            self.phys.write_u32(pa, w);
        }
        va.wrapping_add(4 * program.len() as u64)
    }

    /// Reads one byte through the page tables with no side effects;
    /// `None` if `va` is unmapped.
    #[must_use]
    pub fn debug_read_u8(&self, va: u64) -> Option<u8> {
        let pa = self.tables.translate(&self.phys, VirtualAddress::new(va))?;
        Some(self.phys.read_u8(pa))
    }

    /// Reads a u64 through the page tables with no side effects; `None`
    /// if `va` is unmapped.
    #[must_use]
    pub fn debug_read_u64(&self, va: u64) -> Option<u64> {
        let pa = self.tables.translate(&self.phys, VirtualAddress::new(va))?;
        Some(self.phys.read_u64(pa))
    }

    /// Translates and permission-checks one architectural access,
    /// returning the physical address or the precise trap.
    fn access(&mut self, va: u64, el: El, access: AccessKind) -> Result<u64, Trap> {
        if !ptr::is_canonical(va) {
            return Err(Trap::TranslationFault { va, el, access });
        }
        let v = VirtualAddress::new(va);
        let (entry, _level) = self
            .tables
            .walk(&self.phys, v)
            .map_err(|_| Trap::TranslationFault { va, el, access })?;
        let p = entry.perms;
        let allowed = match access {
            AccessKind::Load => p.read,
            AccessKind::Store => p.write,
            AccessKind::Fetch => p.execute,
        };
        if (el == El::El0 && !p.user) || !allowed {
            return Err(Trap::PermissionFault { va, el, access });
        }
        Ok(entry.pfn * PAGE_SIZE + v.page_offset())
    }

    /// The PAC datapath for `key` over the current key registers.
    fn pac_computer(&self, key: pacman_isa::PacKey) -> PacComputer {
        PacComputer::new(QarmaKey::from_u128(self.cpu.keys.get(key)), ptr::VA_BITS)
    }

    fn modifier_value(&self, modifier: PacModifier) -> u64 {
        match modifier {
            PacModifier::Reg(m) => self.cpu.get(m),
            PacModifier::Zero => 0,
        }
    }

    fn read_sysreg(&self, reg: SysReg, el: El) -> Option<u64> {
        if el == El::El0 && !reg.el0_readable(self.pmc0_el0_enabled) {
            return None;
        }
        match reg {
            // Cycle-dependent counters are outside the architectural
            // contract of an untimed interpreter; the generator never
            // reads them (see module docs).
            SysReg::CntpctEl0 | SysReg::Pmc0 => Some(0),
            SysReg::CntfrqEl0 => Some(self.cntfrq),
            SysReg::Pmc1 => Some(self.retired),
            SysReg::Pmcr0 => Some(u64::from(self.pmc0_el0_enabled)),
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
                self.pmc0_el0_enabled = value & 1 == 1;
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

    /// Runs from the current PC until `HLT`, a trap, or `max_insts`.
    ///
    /// # Errors
    ///
    /// Returns the first architectural [`Trap`].
    pub fn run(&mut self, max_insts: u64) -> Result<Stop, Trap> {
        for _ in 0..max_insts {
            if let Some(stop) = self.step()? {
                return Ok(stop);
            }
        }
        Ok(Stop::InstLimit)
    }

    /// Fetches, decodes and retires exactly one instruction.
    ///
    /// # Errors
    ///
    /// Returns the architectural [`Trap`] raised by this instruction.
    pub fn step(&mut self) -> Result<Option<Stop>, Trap> {
        self.last_stores.clear();
        let pc = self.cpu.pc;
        let el = self.cpu.el;
        let pa = self.access(pc, el, AccessKind::Fetch)?;
        let word = self.phys.read_u32(pa);
        let inst = decode(word).map_err(|_| Trap::Decode { pc })?;
        // Retired is bumped before execution (matching the core), so a
        // trapping instruction still counts as dispatched for `PMC1`.
        self.retired += 1;
        self.exec(pc, el, inst)
    }

    fn load(&mut self, va: u64, el: El, byte: bool) -> Result<u64, Trap> {
        let pa = self.access(va, el, AccessKind::Load)?;
        Ok(if byte { u64::from(self.phys.read_u8(pa)) } else { self.phys.read_u64(pa) })
    }

    fn store(&mut self, va: u64, el: El, value: u64, byte: bool) -> Result<(), Trap> {
        let pa = self.access(va, el, AccessKind::Store)?;
        if byte {
            self.phys.write_u8(pa, value as u8);
            self.last_stores.push((va, 1));
        } else {
            self.phys.write_u64(pa, value);
            self.last_stores.push((va, 8));
        }
        Ok(())
    }

    fn branch(&mut self, pc: u64, taken: bool, offset: i32) {
        self.cpu.pc =
            if taken { pc.wrapping_add_signed(4 * i64::from(offset)) } else { pc.wrapping_add(4) };
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, pc: u64, el: El, inst: Inst) -> Result<Option<Stop>, Trap> {
        let next = pc.wrapping_add(4);
        match inst {
            Inst::Nop | Inst::Isb | Inst::Dsb => self.cpu.pc = next,
            Inst::Hlt => return Ok(Some(Stop::Hlt)),
            Inst::Svc { .. } => {
                if el != El::El0 || self.vbar == 0 {
                    return Err(Trap::BadSvc { pc });
                }
                self.cpu.saved = Some(pacman_uarch::cpu::SavedContext {
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
                let saved = self.cpu.saved.take().ok_or(Trap::BadEret { pc })?;
                let (x0, x1) = (self.cpu.regs[0], self.cpu.regs[1]);
                self.cpu.regs = saved.regs;
                self.cpu.regs[0] = x0;
                self.cpu.regs[1] = x1;
                self.cpu.sp[El::El0 as usize] = saved.sp;
                self.cpu.el = El::El0;
                self.cpu.pc = saved.pc;
            }
            Inst::MovZ { rd, imm, shift } => {
                self.cpu.set(rd, u64::from(imm) << (16 * u32::from(shift)));
                self.cpu.pc = next;
            }
            Inst::MovK { rd, imm, shift } => {
                let sh = 16 * u32::from(shift);
                let old = self.cpu.get(rd);
                self.cpu.set(rd, (old & !(0xFFFFu64 << sh)) | (u64::from(imm) << sh));
                self.cpu.pc = next;
            }
            Inst::MovN { rd, imm, shift } => {
                self.cpu.set(rd, !(u64::from(imm) << (16 * u32::from(shift))));
                self.cpu.pc = next;
            }
            Inst::MovReg { rd, rn } => {
                let v = self.cpu.get(rn);
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::Csel { rd, rn, rm, cond } => {
                let v = if cond.holds(self.cpu.cmp.0, self.cpu.cmp.1) {
                    self.cpu.get(rn)
                } else {
                    self.cpu.get(rm)
                };
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::AddImm { rd, rn, imm } => {
                let v = self.cpu.get(rn).wrapping_add(u64::from(imm));
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::SubImm { rd, rn, imm } => {
                let v = self.cpu.get(rn).wrapping_sub(u64::from(imm));
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::AddReg { rd, rn, rm } => {
                let v = self.cpu.get(rn).wrapping_add(self.cpu.get(rm));
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::SubReg { rd, rn, rm } => {
                let v = self.cpu.get(rn).wrapping_sub(self.cpu.get(rm));
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::AndReg { rd, rn, rm } => {
                let v = self.cpu.get(rn) & self.cpu.get(rm);
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::OrrReg { rd, rn, rm } => {
                let v = self.cpu.get(rn) | self.cpu.get(rm);
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::EorReg { rd, rn, rm } => {
                let v = self.cpu.get(rn) ^ self.cpu.get(rm);
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::LslImm { rd, rn, shift } => {
                let v = self.cpu.get(rn) << shift;
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::LsrImm { rd, rn, shift } => {
                let v = self.cpu.get(rn) >> shift;
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::Mul { rd, rn, rm } => {
                let v = self.cpu.get(rn).wrapping_mul(self.cpu.get(rm));
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::CmpImm { rn, imm } => {
                self.cpu.cmp = (self.cpu.get(rn) as i64, i64::from(imm));
                self.cpu.pc = next;
            }
            Inst::CmpReg { rn, rm } => {
                self.cpu.cmp = (self.cpu.get(rn) as i64, self.cpu.get(rm) as i64);
                self.cpu.pc = next;
            }
            Inst::Ldr { rt, rn, offset } | Inst::Ldrb { rt, rn, offset } => {
                let va = self.cpu.get(rn).wrapping_add_signed(offset.into());
                let v = self.load(va, el, matches!(inst, Inst::Ldrb { .. }))?;
                self.cpu.set(rt, v);
                self.cpu.pc = next;
            }
            Inst::Str { rt, rn, offset } | Inst::Strb { rt, rn, offset } => {
                let va = self.cpu.get(rn).wrapping_add_signed(offset.into());
                let v = self.cpu.get(rt);
                self.store(va, el, v, matches!(inst, Inst::Strb { .. }))?;
                self.cpu.pc = next;
            }
            Inst::Ldp { rt, rt2, rn, offset } => {
                // Sequential: a fault on the second access leaves the
                // first destination written (matching the core).
                let base = self.cpu.get(rn).wrapping_add_signed(offset.into());
                for (reg, addr) in [(rt, base), (rt2, base.wrapping_add(8))] {
                    let v = self.load(addr, el, false)?;
                    self.cpu.set(reg, v);
                }
                self.cpu.pc = next;
            }
            Inst::Stp { rt, rt2, rn, offset } => {
                let base = self.cpu.get(rn).wrapping_add_signed(offset.into());
                for (reg, addr) in [(rt, base), (rt2, base.wrapping_add(8))] {
                    let v = self.cpu.get(reg);
                    self.store(addr, el, v, false)?;
                }
                self.cpu.pc = next;
            }
            Inst::B { offset } => self.cpu.pc = pc.wrapping_add_signed(4 * i64::from(offset)),
            Inst::Bl { offset } => {
                self.cpu.set(Reg::LR, next);
                self.cpu.pc = pc.wrapping_add_signed(4 * i64::from(offset));
            }
            Inst::BCond { cond, offset } => {
                let taken = cond.holds(self.cpu.cmp.0, self.cpu.cmp.1);
                self.branch(pc, taken, offset);
            }
            Inst::Cbz { rt, offset } => {
                let taken = self.cpu.get(rt) == 0;
                self.branch(pc, taken, offset);
            }
            Inst::Cbnz { rt, offset } => {
                let taken = self.cpu.get(rt) != 0;
                self.branch(pc, taken, offset);
            }
            Inst::Tbz { rt, bit, offset } => {
                let taken = (self.cpu.get(rt) >> bit) & 1 == 0;
                self.branch(pc, taken, offset);
            }
            Inst::Tbnz { rt, bit, offset } => {
                let taken = (self.cpu.get(rt) >> bit) & 1 == 1;
                self.branch(pc, taken, offset);
            }
            Inst::Br { rn } | Inst::Blr { rn } => {
                let target = self.cpu.get(rn);
                if matches!(inst, Inst::Blr { .. }) {
                    self.cpu.set(Reg::LR, next);
                }
                self.cpu.pc = target;
            }
            Inst::Ret => self.cpu.pc = self.cpu.get(Reg::LR),
            Inst::Pac { key, rd, modifier } => {
                let m = self.modifier_value(modifier);
                let pacs = self.pac_computer(key);
                let signed = ptr::sign(&pacs, self.cpu.get(rd), m);
                self.cpu.set(rd, signed);
                self.cpu.pc = next;
            }
            Inst::Aut { key, rd, modifier } => {
                let m = self.modifier_value(modifier);
                let pacs = self.pac_computer(key);
                let result = ptr::authenticate(&pacs, self.cpu.get(rd), m, key);
                self.cpu.set(rd, result.pointer());
                self.cpu.pc = next;
            }
            Inst::Xpac { rd, .. } => {
                let v = ptr::canonicalize(self.cpu.get(rd));
                self.cpu.set(rd, v);
                self.cpu.pc = next;
            }
            Inst::Pacga { rd, rn, rm } => {
                let pacs = PacComputer::new(QarmaKey::from_u128(self.cpu.keys.ga()), ptr::VA_BITS);
                let tag = pacs.pac(self.cpu.get(rn), self.cpu.get(rm));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_isa::PacKey;

    const CODE: u64 = 0x40_0000;
    const DATA: u64 = 0x1000_0000;

    fn booted(program: &[Inst]) -> RefMachine {
        let mut m = RefMachine::new();
        m.map_region(CODE, 4 * program.len() as u64, Perms::user_rwx());
        m.map_region(DATA, PAGE_SIZE, Perms::user_rw());
        m.load_program(CODE, program);
        m.cpu.pc = CODE;
        m
    }

    #[test]
    fn alu_and_store_roundtrip() {
        let mut m = booted(&[
            Inst::MovZ { rd: Reg::x(0), imm: 0x1000, shift: 1 },
            Inst::AddImm { rd: Reg::x(1), rn: Reg::x(0), imm: 8 },
            Inst::Str { rt: Reg::x(1), rn: Reg::x(0), offset: 0 },
            Inst::Ldr { rt: Reg::x(2), rn: Reg::x(0), offset: 0 },
            Inst::Hlt,
        ]);
        assert_eq!(m.run(100), Ok(Stop::Hlt));
        assert_eq!(m.cpu.regs[2], 0x1000_0008);
        assert_eq!(m.debug_read_u64(DATA), Some(0x1000_0008));
        assert_eq!(m.retired, 5);
    }

    #[test]
    fn unmapped_load_raises_precise_translation_fault() {
        let mut m = booted(&[
            Inst::MovZ { rd: Reg::x(0), imm: 0xDEAD, shift: 1 },
            Inst::Ldr { rt: Reg::x(1), rn: Reg::x(0), offset: 0 },
        ]);
        let trap = m.run(100).unwrap_err();
        assert_eq!(
            trap,
            Trap::TranslationFault { va: 0xDEAD_0000, el: El::El0, access: AccessKind::Load }
        );
        assert_eq!(m.cpu.pc, CODE + 4, "PC is precise: the faulting instruction's address");
    }

    #[test]
    fn pac_roundtrip_matches_sign_then_authenticate() {
        let mut m = booted(&[
            Inst::Pac { key: PacKey::Da, rd: Reg::x(0), modifier: PacModifier::Zero },
            Inst::Aut { key: PacKey::Da, rd: Reg::x(0), modifier: PacModifier::Zero },
            Inst::Hlt,
        ]);
        m.cpu.regs[0] = DATA;
        assert_eq!(m.run(100), Ok(Stop::Hlt));
        assert_eq!(m.cpu.regs[0], DATA, "sign/auth round-trip restores the pointer");
    }

    #[test]
    fn svc_without_vbar_is_bad_svc() {
        let mut m = booted(&[Inst::Svc { imm: 0 }]);
        assert_eq!(m.run(100), Err(Trap::BadSvc { pc: CODE }));
    }
}
