//! Architectural CPU state: registers, exception levels, PA keys, traps.

use pacman_isa::{PacKey, Reg, SysReg};
use pacman_qarma::{PacComputer, QarmaKey};

/// Exception level (paper §5: EL0 = user, EL1 = kernel).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum El {
    /// Unprivileged user mode.
    #[default]
    El0,
    /// Supervisor (kernel) mode.
    El1,
}

/// What kind of memory access faulted.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum AccessKind {
    /// Data load.
    Load,
    /// Data store.
    Store,
    /// Instruction fetch.
    Fetch,
}

/// Architecturally visible faults. A trap at EL1 is a kernel panic — the
/// "crash" that Pointer Authentication's security argument rests on and
/// that the PACMAN attack avoids by keeping faults speculative.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum Trap {
    /// The address is non-canonical or unmapped.
    TranslationFault {
        /// Faulting virtual address (possibly a corrupted pointer).
        va: u64,
        /// Level at which the access executed.
        el: El,
        /// Access kind.
        access: AccessKind,
    },
    /// The mapping exists but forbids this access.
    PermissionFault {
        /// Faulting virtual address.
        va: u64,
        /// Level at which the access executed.
        el: El,
        /// Access kind.
        access: AccessKind,
    },
    /// `MRS`/`MSR` of a register not accessible at this level.
    SysRegAccess {
        /// The register involved.
        reg: SysReg,
        /// Level of the faulting access.
        el: El,
    },
    /// The fetched word is not a valid instruction.
    Decode {
        /// PC of the bad word.
        pc: u64,
    },
    /// `SVC` executed with no syscall vector installed, or at EL1.
    BadSvc {
        /// PC of the `SVC`.
        pc: u64,
    },
    /// `ERET` with no saved context.
    BadEret {
        /// PC of the `ERET`.
        pc: u64,
    },
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::TranslationFault { va, el, access } => {
                write!(f, "translation fault at {va:#x} ({access:?} at {el:?})")
            }
            Trap::PermissionFault { va, el, access } => {
                write!(f, "permission fault at {va:#x} ({access:?} at {el:?})")
            }
            Trap::SysRegAccess { reg, el } => write!(f, "illegal access to {reg} at {el:?}"),
            Trap::Decode { pc } => write!(f, "undefined instruction at {pc:#x}"),
            Trap::BadSvc { pc } => write!(f, "svc without a kernel at {pc:#x}"),
            Trap::BadEret { pc } => write!(f, "eret without saved context at {pc:#x}"),
        }
    }
}

impl std::error::Error for Trap {}

/// EL0 context saved on syscall entry, restored by `ERET`.
#[derive(Clone, Debug)]
pub struct SavedContext {
    /// General-purpose registers.
    pub regs: [u64; 31],
    /// EL0 stack pointer.
    pub sp: u64,
    /// Return PC (instruction after the `SVC`).
    pub pc: u64,
}

/// The five 128-bit PA key registers (paper §2.2: up to five keys in
/// hardware, selected by opcode).
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct KeyStore {
    ia: u128,
    ib: u128,
    da: u128,
    db: u128,
    ga: u128,
}

impl KeyStore {
    /// The key selected by a `PAC`/`AUT` opcode.
    pub fn get(&self, key: PacKey) -> u128 {
        match key {
            PacKey::Ia => self.ia,
            PacKey::Ib => self.ib,
            PacKey::Da => self.da,
            PacKey::Db => self.db,
        }
    }

    /// The generic key used by `PACGA`.
    pub fn ga(&self) -> u128 {
        self.ga
    }

    fn slot_mut(&mut self, reg: SysReg) -> Option<(&mut u128, bool)> {
        // (slot, is_high_half)
        Some(match reg {
            SysReg::ApiaKeyLo => (&mut self.ia, false),
            SysReg::ApiaKeyHi => (&mut self.ia, true),
            SysReg::ApibKeyLo => (&mut self.ib, false),
            SysReg::ApibKeyHi => (&mut self.ib, true),
            SysReg::ApdaKeyLo => (&mut self.da, false),
            SysReg::ApdaKeyHi => (&mut self.da, true),
            SysReg::ApdbKeyLo => (&mut self.db, false),
            SysReg::ApdbKeyHi => (&mut self.db, true),
            SysReg::ApgaKeyLo => (&mut self.ga, false),
            SysReg::ApgaKeyHi => (&mut self.ga, true),
            _ => return None,
        })
    }

    /// Writes one half of a key register; returns false if `reg` is not a
    /// key register.
    pub fn write_half(&mut self, reg: SysReg, value: u64) -> bool {
        match self.slot_mut(reg) {
            Some((slot, true)) => {
                *slot = (*slot & 0xFFFF_FFFF_FFFF_FFFF) | (u128::from(value) << 64);
                true
            }
            Some((slot, false)) => {
                *slot = (*slot & !0xFFFF_FFFF_FFFF_FFFFu128) | u128::from(value);
                true
            }
            None => false,
        }
    }

    /// Reads one half of a key register (EL1 only, enforced by the core).
    pub fn read_half(&self, reg: SysReg) -> Option<u64> {
        let v = match reg {
            SysReg::ApiaKeyLo => self.ia as u64,
            SysReg::ApiaKeyHi => (self.ia >> 64) as u64,
            SysReg::ApibKeyLo => self.ib as u64,
            SysReg::ApibKeyHi => (self.ib >> 64) as u64,
            SysReg::ApdaKeyLo => self.da as u64,
            SysReg::ApdaKeyHi => (self.da >> 64) as u64,
            SysReg::ApdbKeyLo => self.db as u64,
            SysReg::ApdbKeyHi => (self.db >> 64) as u64,
            SysReg::ApgaKeyLo => self.ga as u64,
            SysReg::ApgaKeyHi => (self.ga >> 64) as u64,
            _ => return None,
        };
        Some(v)
    }
}

/// Architectural register state.
#[derive(Clone, Debug)]
pub struct Cpu {
    /// X0..=X30.
    pub regs: [u64; 31],
    /// Stack pointers, indexed by EL.
    pub sp: [u64; 2],
    /// Program counter.
    pub pc: u64,
    /// Current exception level.
    pub el: El,
    /// Operands of the most recent compare (flags, evaluated lazily).
    pub cmp: (i64, i64),
    /// PA key registers.
    pub keys: KeyStore,
    /// EL0 context saved on syscall entry.
    pub saved: Option<SavedContext>,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A reset CPU at EL0.
    pub fn new() -> Self {
        Self {
            regs: [0; 31],
            sp: [0; 2],
            pc: 0,
            el: El::El0,
            cmp: (0, 0),
            keys: KeyStore::default(),
            saved: None,
        }
    }

    /// Reads a register (XZR reads zero, SP reads the current EL's stack
    /// pointer).
    pub fn get(&self, r: Reg) -> u64 {
        match r.index() {
            31 => self.sp[self.el as usize],
            32 => 0,
            n => self.regs[n as usize],
        }
    }

    /// Writes a register (writes to XZR are discarded).
    pub fn set(&mut self, r: Reg, v: u64) {
        match r.index() {
            31 => self.sp[self.el as usize] = v,
            32 => {}
            n => self.regs[n as usize] = v,
        }
    }

    /// Builds the PAC datapath for one of the four pointer keys from the
    /// current key registers.
    pub fn pac_computer(&self, key: PacKey) -> PacComputer {
        PacComputer::new(QarmaKey::from_u128(self.keys.get(key)), pacman_isa::ptr::VA_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xzr_reads_zero_and_swallows_writes() {
        let mut c = Cpu::new();
        c.set(Reg::XZR, 42);
        assert_eq!(c.get(Reg::XZR), 0);
    }

    #[test]
    fn sp_is_banked_per_el() {
        let mut c = Cpu::new();
        c.set(Reg::SP, 0x1000);
        c.el = El::El1;
        c.set(Reg::SP, 0x2000);
        assert_eq!(c.get(Reg::SP), 0x2000);
        c.el = El::El0;
        assert_eq!(c.get(Reg::SP), 0x1000);
    }

    #[test]
    fn key_halves_assemble() {
        let mut ks = KeyStore::default();
        assert!(ks.write_half(SysReg::ApiaKeyLo, 0x1111_2222_3333_4444));
        assert!(ks.write_half(SysReg::ApiaKeyHi, 0xAAAA_BBBB_CCCC_DDDD));
        assert_eq!(ks.get(PacKey::Ia), 0xAAAA_BBBB_CCCC_DDDD_1111_2222_3333_4444);
        assert_eq!(ks.read_half(SysReg::ApiaKeyLo), Some(0x1111_2222_3333_4444));
        assert_eq!(ks.read_half(SysReg::ApiaKeyHi), Some(0xAAAA_BBBB_CCCC_DDDD));
    }

    #[test]
    fn non_key_registers_are_rejected_by_keystore() {
        let mut ks = KeyStore::default();
        assert!(!ks.write_half(SysReg::Pmcr0, 1));
        assert!(ks.read_half(SysReg::CntpctEl0).is_none());
    }

    #[test]
    fn distinct_keys_produce_distinct_pacs() {
        let mut c = Cpu::new();
        c.keys.write_half(SysReg::ApiaKeyLo, 1);
        c.keys.write_half(SysReg::ApibKeyLo, 2);
        let p = 0x0000_7FFF_0000_4000u64;
        let ia = c.pac_computer(PacKey::Ia).pac(p, 0);
        let ib = c.pac_computer(PacKey::Ib).pac(p, 0);
        assert_ne!(ia, ib);
    }

    #[test]
    fn traps_render_usefully() {
        let t = Trap::TranslationFault { va: 0x4000, el: El::El1, access: AccessKind::Load };
        assert!(t.to_string().contains("translation fault"));
        assert!(t.to_string().contains("El1"));
    }
}
