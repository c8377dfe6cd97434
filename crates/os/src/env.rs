//! The bare-metal environment: full machine control, no kernel.

use pacman_isa::ptr::PAGE_SIZE;
use pacman_isa::{Asm, Inst, Reg, SysReg};
use pacman_uarch::{AccessOutcome, El, Machine, MachineConfig, Perms, TimingSource, Trap};

/// What a bare-metal MSR probe discovered about one system register.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum MsrAccess {
    /// Readable; carries the value observed.
    Readable(u64),
    /// The `MRS` trapped even at EL1.
    Inaccessible,
}

/// A machine booted straight into EL1 with no operating system.
///
/// PacmanOS owns the whole machine: it runs privileged, maps whatever it
/// wants, and can quiesce all microarchitectural state between trials —
/// the "noiseless experiments" property of §6.2.
#[derive(Debug)]
pub struct BareMetal {
    /// The bare machine.
    pub machine: Machine,
    scratch_code: u64,
    next_va: u64,
}

/// Where PacmanOS places its own probe stub.
const SCRATCH_CODE: u64 = 0xFFFF_FFFF_0000_0000;
/// Base of experiment data mappings.
const DATA_BASE: u64 = 0x0000_0800_0000_0000;

impl BareMetal {
    /// Boots with an explicit machine configuration. OS noise is forced
    /// off — there is no other software on a PacmanOS machine.
    pub fn boot(mut config: MachineConfig) -> Self {
        config.os_noise = 0.0;
        let mut machine = Machine::new(config);
        machine.cpu.el = El::El1;
        // PacmanOS configures the performance counters itself (no kext
        // needed at EL1) and times with PMC0, like the paper's RE setup.
        machine.timers.pmc0_el0_enabled = true;
        machine.set_timing_source(TimingSource::Pmc0);
        machine.map_page(SCRATCH_CODE, Perms::kernel_rwx());
        Self { machine, scratch_code: SCRATCH_CODE, next_va: DATA_BASE }
    }

    /// Boots with the default configuration.
    pub fn boot_default() -> Self {
        Self::boot(MachineConfig::default())
    }

    /// Runs a short privileged program on the bare machine, returning the
    /// final `x0`.
    ///
    /// # Errors
    ///
    /// Propagates any architectural [`Trap`] — on bare metal a trap is
    /// the experiment's answer, not a crash (there is no kernel to kill).
    pub fn run_privileged(&mut self, program: &[Inst]) -> Result<u64, Trap> {
        self.machine.load_program(self.scratch_code, program);
        self.machine.cpu.el = El::El1;
        self.machine.cpu.pc = self.scratch_code;
        self.machine.run(10_000)?;
        Ok(self.machine.cpu.get(Reg::X0))
    }

    /// Probes one MSR by executing `MRS x0, <reg>` at EL1.
    pub fn probe_msr(&mut self, reg: SysReg) -> MsrAccess {
        let mut a = Asm::new();
        a.push(Inst::Mrs { rd: Reg::X0, sysreg: reg });
        a.push(Inst::Hlt);
        match self.run_privileged(&a.assemble().expect("probe stub assembles")) {
            Ok(v) => MsrAccess::Readable(v),
            Err(_) => MsrAccess::Inaccessible,
        }
    }

    /// Writes one MSR by executing `MSR <reg>, x0` at EL1; returns false
    /// if the write trapped.
    pub fn write_msr(&mut self, reg: SysReg, value: u64) -> bool {
        let mut a = Asm::new();
        a.mov_imm64(Reg::X0, value);
        a.push(Inst::Msr { sysreg: reg, rn: Reg::X0 });
        a.push(Inst::Hlt);
        self.run_privileged(&a.assemble().expect("probe stub assembles")).is_ok()
    }

    /// Maps `pages` fresh pages of experiment memory and returns the base
    /// VA. PacmanOS maps experiment data user-accessible so the timed
    /// load helpers (which model EL0 measurement code) work unchanged.
    pub fn alloc_pages(&mut self, pages: u64) -> u64 {
        let align = 2048 * PAGE_SIZE;
        let base = self.next_va.div_ceil(align) * align;
        self.next_va = base + pages * PAGE_SIZE;
        for i in 0..pages {
            self.machine.map_page(base + i * PAGE_SIZE, Perms::user_rwx());
        }
        base
    }

    /// Reserves a `pages`-page span of VA space without mapping it (for
    /// experiments that map strided subsets themselves).
    pub fn reserve_span(&mut self, pages: u64) -> u64 {
        let align = 2048 * PAGE_SIZE;
        let base = self.next_va.div_ceil(align) * align;
        self.next_va = base + pages * PAGE_SIZE;
        base
    }

    /// Maps a fresh frame at exactly `va`.
    pub fn map_page_at(&mut self, va: u64) {
        self.machine.map_page(va, Perms::user_rwx());
    }

    /// Maps a single page at an arbitrary, possibly aliased VA — the
    /// "creating arbitrary paging configurations" capability.
    pub fn map_alias(&mut self, va: u64, pfn: u64) {
        self.machine.map_alias(va, pfn, Perms::user_rwx());
    }

    /// Allocates a raw physical frame for aliasing games.
    pub fn alloc_frame(&mut self) -> u64 {
        self.machine.alloc_frame()
    }

    /// Quiesces all microarchitectural state (caches, TLBs) so the next
    /// trial starts from a known-cold machine.
    pub fn quiesce(&mut self) {
        self.machine.mem.tlbs.flush();
        self.machine.mem.l1i.flush();
        self.machine.mem.l1d.flush();
        self.machine.mem.l2c.flush();
    }

    /// Flushes the TLB hierarchy only (a `tlbi vmalle1`-style invalidate),
    /// leaving the caches warm — isolates translation latency.
    pub fn flush_tlbs(&mut self) {
        self.machine.mem.tlbs.flush();
    }

    /// A timed load of `va` under the current timing source.
    ///
    /// # Errors
    ///
    /// Propagates traps from unmapped experiment addresses.
    pub fn timed_load(&mut self, va: u64) -> Result<u64, Trap> {
        self.machine.timed_user_load(va)
    }

    /// An untimed warming load.
    ///
    /// # Errors
    ///
    /// Propagates traps from unmapped experiment addresses.
    pub fn load(&mut self, va: u64) -> Result<AccessOutcome, Trap> {
        self.machine.user_load(va)
    }

    /// An instruction fetch of `va` (branch-into semantics).
    ///
    /// # Errors
    ///
    /// Propagates traps from unmapped experiment addresses.
    pub fn fetch(&mut self, va: u64) -> Result<AccessOutcome, Trap> {
        self.machine.user_fetch(va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boots_privileged_with_pmc0() {
        let mut os = BareMetal::boot_default();
        assert_eq!(os.machine.cpu.el, El::El1);
        assert_eq!(os.machine.timing_source(), TimingSource::Pmc0);
        assert_eq!(os.machine.config().os_noise, 0.0);
        // PMC0 readable without any kext.
        assert!(matches!(os.probe_msr(SysReg::Pmc0), MsrAccess::Readable(_)));
    }

    #[test]
    fn msr_inventory_distinguishes_readable_registers() {
        let mut os = BareMetal::boot_default();
        assert!(matches!(os.probe_msr(SysReg::CntfrqEl0), MsrAccess::Readable(24_000_000)));
        assert!(matches!(os.probe_msr(SysReg::ApiaKeyLo), MsrAccess::Readable(_)));
        // Write a key, read it back through the probe path.
        assert!(os.write_msr(SysReg::ApiaKeyLo, 0xDEAD_BEEF));
        assert!(matches!(os.probe_msr(SysReg::ApiaKeyLo), MsrAccess::Readable(0xDEAD_BEEF)));
        // CNTPCT is read-only: writes trap even at EL1.
        assert!(!os.write_msr(SysReg::CntpctEl0, 0));
    }

    #[test]
    fn quiesce_makes_trials_noiseless() {
        let mut os = BareMetal::boot_default();
        let page = os.alloc_pages(1);
        // Two identical cold trials must measure identically up to the
        // bounded measurement noise.
        let mut samples = Vec::new();
        for _ in 0..8 {
            os.quiesce();
            samples.push(os.timed_load(page).unwrap());
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        assert!(max - min <= 4, "cold trials spread too much: {samples:?}");
        // And warm loads are clearly faster.
        let warm = os.timed_load(page).unwrap();
        assert!(warm + 20 < min, "warm {warm} vs cold {min}");
    }

    #[test]
    fn arbitrary_aliasing_is_possible() {
        let mut os = BareMetal::boot_default();
        let frame = os.alloc_frame();
        os.map_alias(0x100_0000, frame);
        os.map_alias(0x200_0000, frame);
        os.machine.user_store(0x100_0000, 0x77).unwrap();
        let v = os.machine.mem.debug_read_u64(0x200_0000).unwrap();
        assert_eq!(v, 0x77, "aliases must share the frame");
    }

    #[test]
    fn traps_are_answers_not_crashes() {
        let mut os = BareMetal::boot_default();
        let mut a = Asm::new();
        a.mov_imm64(Reg::X9, 0x00AA_0000_0000_1234); // non-canonical
        a.push(Inst::Ldr { rt: Reg::X0, rn: Reg::X9, offset: 0 });
        a.push(Inst::Hlt);
        assert!(os.run_privileged(&a.assemble().unwrap()).is_err());
        // The environment is still usable afterwards.
        let page = os.alloc_pages(1);
        assert!(os.load(page).is_ok());
    }
}
