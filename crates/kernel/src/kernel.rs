//! The kernel proper: boot, keys, syscall dispatch, panic handling.

use pacman_isa::ptr::{self, PAGE_SIZE};
use pacman_isa::{Asm, Inst, PacKey, Reg, SysReg};
use pacman_uarch::{El, Machine, Perms, Trap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::layout;

/// Errors surfaced by the syscall path.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum KernelError {
    /// The kernel took an architectural trap at EL1 and panicked. The
    /// machine has been rebooted: PA keys were renewed and crash
    /// accounting updated — every previously minted PAC is now stale.
    Panic {
        /// The trap that killed the kernel.
        trap: Trap,
    },
    /// Unknown syscall number.
    BadSyscall {
        /// The offending number.
        num: u64,
    },
    /// The handler exceeded its instruction budget.
    Runaway,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Panic { trap } => write!(f, "kernel panic: {trap}"),
            KernelError::BadSyscall { num } => write!(f, "unknown syscall {num}"),
            KernelError::Runaway => write!(f, "syscall handler exceeded its budget"),
        }
    }
}

impl std::error::Error for KernelError {}

/// The booted kernel.
#[derive(Debug)]
pub struct Kernel {
    syscalls: Vec<u64>, // handler VAs, indexed by syscall number
    next_code_va: u64,
    next_data_va: u64,
    crash_count: u64,
    boots: u64,
    rng: SmallRng,
}

impl Kernel {
    /// Boots the kernel on `machine`: randomises the PA keys, maps the
    /// syscall vector, table and user stub, and installs the dispatcher.
    pub fn boot(machine: &mut Machine, seed: u64) -> Self {
        let mut kernel = Self {
            syscalls: Vec::new(),
            next_code_va: layout::KEXT_TEXT_BASE,
            next_data_va: layout::KERNEL_DATA_BASE,
            crash_count: 0,
            boots: 0,
            rng: SmallRng::seed_from_u64(seed),
        };
        kernel.bring_up(machine);
        kernel
    }

    fn bring_up(&mut self, machine: &mut Machine) {
        self.boots += 1;
        self.randomize_keys(machine);

        machine.map_page(layout::SYSCALL_VECTOR, Perms::kernel_rx());
        machine.map_page(layout::SYSCALL_TABLE, Perms::kernel_rw());
        machine.map_page(layout::USER_SYSCALL_STUB, Perms::user_rx());
        machine.map_page(layout::USER_SCRATCH, Perms::user_rw());

        // Dispatcher: x16 = syscall number; branch through the handler
        // table. The indirect `br` trains the BTB per last handler, which
        // is exactly the real-world predictor behaviour syscall-heavy
        // attacks contend with.
        let mut d = Asm::new();
        d.mov_imm64(Reg::X9, layout::SYSCALL_TABLE);
        d.push(Inst::LslImm { rd: Reg::X10, rn: Reg::X16, shift: 3 });
        d.push(Inst::AddReg { rd: Reg::X9, rn: Reg::X9, rm: Reg::X10 });
        d.push(Inst::Ldr { rt: Reg::X9, rn: Reg::X9, offset: 0 });
        d.push(Inst::Br { rn: Reg::X9 });
        let dispatcher = d.assemble().expect("dispatcher assembles");
        load_kernel_program(machine, layout::SYSCALL_VECTOR, &dispatcher);
        machine.set_vbar(layout::SYSCALL_VECTOR);

        // User stub: svc; hlt.
        let mut s = Asm::new();
        s.push(Inst::Svc { imm: 0 });
        s.push(Inst::Hlt);
        let stub = s.assemble().expect("stub assembles");
        machine.load_program(layout::USER_SYSCALL_STUB, &stub);

        // Re-install handler table entries after a reboot.
        for (num, &va) in self.syscalls.clone().iter().enumerate() {
            self.write_table_entry(machine, num as u64, va);
        }
    }

    fn randomize_keys(&mut self, machine: &mut Machine) {
        for lo_hi in [
            (SysReg::ApiaKeyLo, SysReg::ApiaKeyHi),
            (SysReg::ApibKeyLo, SysReg::ApibKeyHi),
            (SysReg::ApdaKeyLo, SysReg::ApdaKeyHi),
            (SysReg::ApdbKeyLo, SysReg::ApdbKeyHi),
            (SysReg::ApgaKeyLo, SysReg::ApgaKeyHi),
        ] {
            machine.cpu.keys.write_half(lo_hi.0, self.rng.gen());
            machine.cpu.keys.write_half(lo_hi.1, self.rng.gen());
        }
    }

    fn write_table_entry(&mut self, machine: &mut Machine, num: u64, handler_va: u64) {
        assert!(num < layout::MAX_SYSCALLS, "syscall table full");
        let slot = layout::SYSCALL_TABLE + num * 8;
        write_kernel_u64(machine, slot, handler_va);
    }

    /// Number of kernel panics so far. The PACMAN attack's defining
    /// property (paper abstract) is keeping this at zero.
    pub fn crash_count(&self) -> u64 {
        self.crash_count
    }

    /// Number of boots (1 + crash count).
    pub fn boots(&self) -> u64 {
        self.boots
    }

    // ----- kext services ------------------------------------------------

    /// Allocates and maps a fresh executable kernel code page, returning
    /// its VA (kext loading).
    pub fn alloc_code_page(&mut self, machine: &mut Machine) -> u64 {
        let va = self.next_code_va;
        self.next_code_va += PAGE_SIZE;
        machine.map_page(va, Perms::kernel_rx());
        va
    }

    /// Allocates and maps a fresh kernel data page, returning its VA.
    pub fn alloc_data_page(&mut self, machine: &mut Machine) -> u64 {
        let va = self.next_data_va;
        self.next_data_va += PAGE_SIZE;
        machine.map_page(va, Perms::kernel_rw());
        va
    }

    /// Registers `program` as a syscall handler on a fresh code page and
    /// returns the syscall number.
    pub fn register_syscall(&mut self, machine: &mut Machine, program: &[Inst]) -> u64 {
        let va = self.alloc_code_page(machine);
        self.register_syscall_at(machine, va, program)
    }

    /// Registers `program` as a syscall handler at an already mapped
    /// executable kernel VA (used by the jump-pad kext, which needs
    /// handlers at *computed* addresses).
    pub fn register_syscall_at(&mut self, machine: &mut Machine, va: u64, program: &[Inst]) -> u64 {
        load_kernel_program(machine, va, program);
        let num = self.syscalls.len() as u64;
        self.syscalls.push(va);
        self.write_table_entry(machine, num, va);
        num
    }

    // ----- syscall path --------------------------------------------------

    /// Performs a syscall from EL0 through the user stub: `x16 = num`,
    /// `x0..=x5 = args`. Returns the handler's `x0`.
    ///
    /// # Errors
    ///
    /// - [`KernelError::BadSyscall`] for unregistered numbers (checked
    ///   host-side; the dispatcher itself is trusted).
    /// - [`KernelError::Panic`] if the handler traps at EL1 — the kernel
    ///   then *reboots*: keys are renewed, microarchitectural state is
    ///   flushed, and the crash counter increments.
    pub fn syscall(
        &mut self,
        machine: &mut Machine,
        num: u64,
        args: &[u64],
    ) -> Result<u64, KernelError> {
        if num >= self.syscalls.len() as u64 {
            return Err(KernelError::BadSyscall { num });
        }
        assert!(args.len() <= 6, "at most six syscall arguments");
        machine.cpu.el = El::El0;
        machine.cpu.set(Reg::X16, num);
        let (given, rest) = machine.cpu.regs[..6].split_at_mut(args.len());
        given.copy_from_slice(args);
        rest.fill(0);
        machine.cpu.pc = layout::USER_SYSCALL_STUB;
        match machine.run(1_000_000) {
            Ok(pacman_uarch::Stop::Hlt) => Ok(machine.cpu.get(Reg::X0)),
            Ok(pacman_uarch::Stop::InstLimit) => Err(KernelError::Runaway),
            Err(trap) => {
                self.panic_and_reboot(machine);
                Err(KernelError::Panic { trap })
            }
        }
    }

    fn panic_and_reboot(&mut self, machine: &mut Machine) {
        self.crash_count += 1;
        // A reboot renews the PA keys (paper §1: "Restarting a program
        // after a crash results in changed PACs") and clears transient
        // microarchitectural state.
        machine.cpu.saved = None;
        machine.cpu.el = El::El0;
        machine.mem.tlbs.flush();
        machine.mem.l1i.flush();
        machine.mem.l1d.flush();
        machine.mem.l2c.flush();
        machine.bimodal.reset();
        machine.btb.reset();
        machine.rsb.reset();
        self.boots += 1;
        self.randomize_keys(machine);
    }

    // ----- ground-truth helpers (evaluation only) -------------------------

    /// Signs `pointer` with the kernel IA key and a zero modifier —
    /// ground truth for evaluating oracles. A real attacker cannot call
    /// this; tests and benches use it to label trials.
    pub fn debug_sign_ia_zero(&self, machine: &Machine, pointer: u64) -> u64 {
        ptr::sign(&machine.cpu.pac_computer(PacKey::Ia), pointer, 0)
    }

    /// The correct 16-bit PAC for `pointer` under the kernel IA key and a
    /// zero modifier (evaluation ground truth).
    pub fn debug_true_pac(&self, machine: &Machine, pointer: u64) -> u16 {
        ptr::pac_field(self.debug_sign_ia_zero(machine, pointer))
    }

    /// Serialises the kernel's own bookkeeping (the memory it manages —
    /// vectors, tables, kext pages — lives in the machine's physical
    /// memory and travels with [`Machine::save_state`]).
    pub fn save_state(&self, w: &mut pacman_telemetry::bin::Writer) {
        w.usize(self.syscalls.len());
        for &va in &self.syscalls {
            w.u64(va);
        }
        w.u64(self.next_code_va);
        w.u64(self.next_data_va);
        w.u64(self.crash_count);
        w.u64(self.boots);
        for word in self.rng.state() {
            w.u64(word);
        }
    }

    /// Restores state written by [`Kernel::save_state`]. The paired
    /// machine must be restored separately (and first) — this only
    /// rebuilds the kernel's allocator cursors, syscall table mirror,
    /// crash accounting, and key-randomisation RNG position.
    ///
    /// # Errors
    ///
    /// [`pacman_telemetry::bin::BinError`] on truncation or corruption.
    pub fn restore_state(
        &mut self,
        r: &mut pacman_telemetry::bin::Reader<'_>,
    ) -> Result<(), pacman_telemetry::bin::BinError> {
        let n = r.usize()?;
        if n as u64 > layout::MAX_SYSCALLS {
            return Err(pacman_telemetry::bin::BinError::Corrupt(format!(
                "{n} syscalls exceeds the table"
            )));
        }
        self.syscalls.clear();
        for _ in 0..n {
            self.syscalls.push(r.u64()?);
        }
        self.next_code_va = r.u64()?;
        self.next_data_va = r.u64()?;
        self.crash_count = r.u64()?;
        self.boots = r.u64()?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.u64()?;
        }
        self.rng = SmallRng::from_state(rng_state);
        Ok(())
    }
}

/// Writes an encoded program into mapped kernel memory (debug path; kernel
/// text pages are not user-writable, so this models the kext loader).
pub(crate) fn load_kernel_program(machine: &mut Machine, va: u64, program: &[Inst]) {
    use pacman_isa::encode;
    for (i, inst) in program.iter().enumerate() {
        let w = encode(inst).expect("kernel instruction must encode");
        let addr = va + 4 * i as u64;
        let pa = machine
            .mem
            .tables
            .translate(&machine.mem.phys, pacman_isa::ptr::VirtualAddress::new(addr))
            .expect("kernel program page must be mapped");
        machine.mem.phys.write_u32(pa, w);
    }
}

/// Writes a u64 into mapped kernel memory (kext loader data path).
pub(crate) fn write_kernel_u64(machine: &mut Machine, va: u64, value: u64) {
    let pa = machine
        .mem
        .tables
        .translate(&machine.mem.phys, pacman_isa::ptr::VirtualAddress::new(va))
        .expect("kernel data page must be mapped");
    machine.mem.phys.write_u64(pa, value);
}

/// Reads a u64 from mapped kernel memory (evaluation/debug).
pub(crate) fn read_kernel_u64(machine: &Machine, va: u64) -> u64 {
    let pa = machine
        .mem
        .tables
        .translate(&machine.mem.phys, pacman_isa::ptr::VirtualAddress::new(va))
        .expect("kernel data page must be mapped");
    machine.mem.phys.read_u64(pa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_uarch::MachineConfig;

    fn boot() -> (Machine, Kernel) {
        let mut m = Machine::new(MachineConfig { os_noise: 0.0, ..MachineConfig::default() });
        let k = Kernel::boot(&mut m, 42);
        (m, k)
    }

    fn simple_handler(result: u64) -> Vec<Inst> {
        let mut a = Asm::new();
        a.mov_imm64(Reg::X0, result);
        a.push(Inst::Eret);
        a.assemble().unwrap()
    }

    #[test]
    fn syscalls_dispatch_and_return() {
        let (mut m, mut k) = boot();
        let s1 = k.register_syscall(&mut m, &simple_handler(111));
        let s2 = k.register_syscall(&mut m, &simple_handler(222));
        assert_eq!(k.syscall(&mut m, s1, &[]).unwrap(), 111);
        assert_eq!(k.syscall(&mut m, s2, &[]).unwrap(), 222);
        assert_eq!(k.syscall(&mut m, s1, &[]).unwrap(), 111);
        assert_eq!(k.crash_count(), 0);
    }

    #[test]
    fn arguments_reach_handlers() {
        let (mut m, mut k) = boot();
        let mut a = Asm::new();
        a.push(Inst::AddReg { rd: Reg::X0, rn: Reg::X0, rm: Reg::X1 });
        a.push(Inst::Eret);
        let sc = k.register_syscall(&mut m, &a.assemble().unwrap());
        assert_eq!(k.syscall(&mut m, sc, &[40, 2]).unwrap(), 42);
    }

    #[test]
    fn unknown_syscalls_are_rejected() {
        let (mut m, mut k) = boot();
        assert_eq!(k.syscall(&mut m, 99, &[]), Err(KernelError::BadSyscall { num: 99 }));
    }

    #[test]
    fn kernel_panic_renews_keys_and_counts_crashes() {
        let (mut m, mut k) = boot();
        // Handler dereferences a corrupted (non-canonical) pointer.
        let mut a = Asm::new();
        a.mov_imm64(Reg::X9, 0x00AB_0000_DEAD_0000);
        a.push(Inst::Ldr { rt: Reg::X0, rn: Reg::X9, offset: 0 });
        a.push(Inst::Eret);
        let sc = k.register_syscall(&mut m, &a.assemble().unwrap());
        let keys_before = m.cpu.keys;
        let err = k.syscall(&mut m, sc, &[]).unwrap_err();
        assert!(matches!(err, KernelError::Panic { .. }));
        assert_eq!(k.crash_count(), 1);
        assert_eq!(k.boots(), 2);
        assert_ne!(m.cpu.keys, keys_before, "reboot must renew PA keys");
        // The kernel still works after the reboot.
        let sc2 = k.register_syscall(&mut m, &simple_handler(7));
        assert_eq!(k.syscall(&mut m, sc2, &[]).unwrap(), 7);
    }

    #[test]
    fn pa_roundtrip_inside_a_handler() {
        // Sign and authenticate a pointer entirely at EL1, then use it.
        let (mut m, mut k) = boot();
        let data = k.alloc_data_page(&mut m);
        write_kernel_u64(&mut m, data, 0x5151_5151);
        let mut a = Asm::new();
        a.mov_imm64(Reg::X9, data);
        a.push(Inst::Pac { key: PacKey::Ia, rd: Reg::X9, modifier: pacman_isa::PacModifier::Zero });
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X9, modifier: pacman_isa::PacModifier::Zero });
        a.push(Inst::Ldr { rt: Reg::X0, rn: Reg::X9, offset: 0 });
        a.push(Inst::Eret);
        let sc = k.register_syscall(&mut m, &a.assemble().unwrap());
        assert_eq!(k.syscall(&mut m, sc, &[]).unwrap(), 0x5151_5151);
        assert_eq!(k.crash_count(), 0);
    }

    #[test]
    fn wrong_pac_dereference_is_a_panic() {
        // The security-by-crash baseline: an architecturally used wrong
        // PAC kills the kernel (paper §1).
        let (mut m, mut k) = boot();
        let data = k.alloc_data_page(&mut m);
        let mut a = Asm::new();
        a.mov_imm64(Reg::X9, data);
        a.push(Inst::Pac { key: PacKey::Ia, rd: Reg::X9, modifier: pacman_isa::PacModifier::Zero });
        // Flip a PAC bit, then authenticate and dereference.
        a.mov_imm64(Reg::X10, 1u64 << 48);
        a.push(Inst::EorReg { rd: Reg::X9, rn: Reg::X9, rm: Reg::X10 });
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X9, modifier: pacman_isa::PacModifier::Zero });
        a.push(Inst::Ldr { rt: Reg::X0, rn: Reg::X9, offset: 0 });
        a.push(Inst::Eret);
        let sc = k.register_syscall(&mut m, &a.assemble().unwrap());
        assert!(matches!(k.syscall(&mut m, sc, &[]), Err(KernelError::Panic { .. })));
        assert_eq!(k.crash_count(), 1);
    }

    #[test]
    fn debug_ground_truth_matches_hardware_signing() {
        let (mut m, mut k) = boot();
        let data = k.alloc_data_page(&mut m);
        // Handler: x0 = pacia(data, 0) — the hardware-signed pointer.
        let mut a = Asm::new();
        a.mov_imm64(Reg::X0, data);
        a.push(Inst::Pac { key: PacKey::Ia, rd: Reg::X0, modifier: pacman_isa::PacModifier::Zero });
        a.push(Inst::Eret);
        let sc = k.register_syscall(&mut m, &a.assemble().unwrap());
        let hw = k.syscall(&mut m, sc, &[]).unwrap();
        assert_eq!(hw, k.debug_sign_ia_zero(&m, data));
    }

    #[test]
    fn syscall_costs_cycles() {
        let (mut m, mut k) = boot();
        let sc = k.register_syscall(&mut m, &simple_handler(0));
        let before = m.cycles;
        k.syscall(&mut m, sc, &[]).unwrap();
        let cost = m.cycles - before;
        assert!(cost >= 2 * m.config().latency.syscall_transition, "round trip too cheap: {cost}");
    }
}
