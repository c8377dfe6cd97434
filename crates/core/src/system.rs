//! The attack platform: one machine + one booted kernel + the PoC kexts.

use pacman_isa::PacKey;
use pacman_kernel::kext::{CppKext, GadgetKext, PmcKext};
use pacman_kernel::{layout, Kernel};
use pacman_telemetry::bin::{BinError, Reader, Writer};
use pacman_telemetry::{Registry, Snapshot};
use pacman_uarch::{
    CoreKind, ExecEngine, Machine, MachineConfig, Mitigation, Perms, SquashPolicy, TimingSource,
};

/// Configuration for [`System::boot`].
///
/// `PartialEq` (inherited float fields keep it from being `Eq`) is what
/// the [`crate::pool`] system pool keys recycled machines by.
#[derive(Clone, PartialEq, Debug)]
pub struct SystemConfig {
    /// Machine (microarchitecture) configuration.
    pub machine: MachineConfig,
    /// Seed for the kernel's per-boot key generator.
    pub kernel_seed: u64,
    /// Timing source the attacker uses (the real attack uses the
    /// multi-thread timer; the reverse-engineering experiments use PMC0
    /// through the PMC kext).
    pub timing: TimingSource,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            machine: MachineConfig::default(),
            kernel_seed: 0xA11CE,
            timing: TimingSource::MultiThread,
        }
    }
}

/// A booted attack platform: the simulated M1-like machine, the XNU-like
/// kernel, and the paper's PoC kexts.
#[derive(Debug)]
pub struct System {
    /// The machine.
    pub machine: Machine,
    /// The kernel.
    pub kernel: Kernel,
    /// The §8.1 Listing-1 gadget kext.
    pub gadget: GadgetKext,
    /// The §8.3 C++ dispatch kext.
    pub cpp: CppKext,
    /// The §6.1 performance-counter kext.
    pub pmc: PmcKext,
    /// Attack-level metrics registry (disabled by default; enable with
    /// [`Registry::set_enabled`] — e.g. for the CLI's `--json` mode).
    pub telemetry: Registry,
    next_user_va: u64,
    /// The boot configuration, kept for [`System::reboot`].
    config: SystemConfig,
}

/// Base of the attacker's private user mappings (eviction sets, JIT
/// regions). Chosen 2048-set aligned so set arithmetic is simple.
pub const ATTACKER_REGION: u64 = 0x0000_2000_0000_0000;

impl System {
    /// Boots the platform: machine, kernel, kexts.
    pub fn boot(config: SystemConfig) -> Self {
        let mut machine = Machine::new(config.machine.clone());
        let (kernel, gadget, cpp, pmc) = Self::install(&mut machine, &config);
        Self {
            machine,
            kernel,
            gadget,
            cpp,
            pmc,
            telemetry: Registry::disabled(),
            next_user_va: ATTACKER_REGION,
            config,
        }
    }

    /// The boot sequence on a freshly reset `machine`: timing source,
    /// kernel, kexts.
    fn install(
        machine: &mut Machine,
        config: &SystemConfig,
    ) -> (Kernel, GadgetKext, CppKext, PmcKext) {
        machine.set_timing_source(config.timing);
        let mut kernel = Kernel::boot(machine, config.kernel_seed);
        let gadget = GadgetKext::install(&mut kernel, machine);
        let cpp = CppKext::install(&mut kernel, machine);
        let pmc = PmcKext::install(&mut kernel, machine);
        (kernel, gadget, cpp, pmc)
    }

    /// Reboots the platform in place with its original configuration,
    /// recycling the machine's physical frames instead of returning them
    /// to the host allocator. The result is bit-identical to a fresh
    /// [`System::boot`] with the same config: same keys, same layout,
    /// same ground truth, fresh telemetry. This is what per-trial
    /// experiment loops use to get a pristine system without paying a
    /// full allocation cycle per trial.
    pub fn reboot(&mut self) {
        self.reboot_into(self.config.clone());
    }

    /// [`System::reboot`] into a *different* configuration: resets the
    /// machine in place ([`Machine::reset_with`]: frames recycled,
    /// caches and TLBs of unchanged geometry flushed rather than
    /// reallocated) and boots `config` on it. Bit-identical to
    /// `System::boot(config)` for the same reason `reboot` is — recycling
    /// only changes where storage comes from, never its contents or
    /// layout. This is how the executor's per-worker system pool turns a
    /// cached machine for one campaign into a machine for the next.
    pub fn reboot_into(&mut self, config: SystemConfig) {
        self.machine.reset_with(config.machine.clone());
        let (kernel, gadget, cpp, pmc) = Self::install(&mut self.machine, &config);
        // Exhaustive on purpose: a new field must decide how it resets.
        let Self {
            machine: _,
            kernel: old_kernel,
            gadget: old_gadget,
            cpp: old_cpp,
            pmc: old_pmc,
            telemetry,
            next_user_va,
            config: old_config,
        } = self;
        *old_kernel = kernel;
        *old_gadget = gadget;
        *old_cpp = cpp;
        *old_pmc = pmc;
        *telemetry = Registry::disabled();
        *next_user_va = ATTACKER_REGION;
        *old_config = config;
    }

    /// A combined metrics snapshot: the attack-level `oracle.*` /
    /// `brute.*` series recorded in [`System::telemetry`] plus the
    /// machine's lifetime `tlb.*` / `cache.*` / `predict.*` / `spec.*`
    /// totals. The machine export lands on an enabled clone, so the
    /// microarchitectural series are present even when the attack-level
    /// registry is disabled, and calling this twice never double-counts.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut reg = self.telemetry.clone();
        reg.set_enabled(true);
        self.machine.export_telemetry(&mut reg);
        reg.snapshot()
    }

    /// Maps a fresh kernel page in the requested dTLB set and returns its
    /// VA — the "attacker-chosen address" of the threat model (in a real
    /// attack this is an existing kernel address such as `win()`; for the
    /// Figure 8 oracle evaluation it is a controlled landing page).
    pub fn alloc_target(&mut self, dtlb_set: usize) -> u64 {
        GadgetKext::alloc_target_page(&mut self.machine, dtlb_set)
    }

    /// Ground truth for evaluation: the correct PAC of `pointer` under
    /// the kernel IA key with a zero modifier (what the gadget kext
    /// verifies). Not available to a real attacker.
    pub fn true_pac(&self, pointer: u64) -> u16 {
        self.kernel.debug_true_pac(&self.machine, pointer)
    }

    /// Ground truth for the Jump2Win PACs (key + object-salt).
    pub fn true_pac_with_salt(&self, key: PacKey, pointer: u64) -> u16 {
        self.cpp.debug_true_pac(&self.machine, key, pointer)
    }

    /// The user scratch page used to stage syscall payloads.
    pub fn scratch_va(&self) -> u64 {
        layout::USER_SCRATCH
    }

    /// Writes an attack payload into the attacker's own scratch page.
    pub fn write_payload(&mut self, bytes: &[u8]) -> u64 {
        let va = self.scratch_va();
        assert!(self.machine.mem.debug_write_bytes(va, bytes), "scratch page must be mapped");
        va
    }

    /// Maps (if needed) one page of attacker memory at `va`.
    pub fn ensure_user_page(&mut self, va: u64) {
        let page = va & !(pacman_isa::ptr::PAGE_SIZE - 1);
        if self
            .machine
            .mem
            .tables
            .translate(&self.machine.mem.phys, pacman_isa::ptr::VirtualAddress::new(page))
            .is_none()
        {
            self.machine.map_page(page, Perms::user_rwx());
        }
    }

    /// Bump-allocates a fresh, unmapped attacker VA region of `pages`
    /// pages aligned to 2048 dTLB-set periods, for experiments that need
    /// their own address real estate.
    pub fn alloc_user_region(&mut self, pages: u64) -> u64 {
        let align = 2048 * pacman_isa::ptr::PAGE_SIZE;
        let base = self.next_user_va.div_ceil(align) * align;
        self.next_user_va = base + pages * pacman_isa::ptr::PAGE_SIZE;
        base
    }

    /// The dTLB sets the syscall path itself touches on every call.
    /// Attack experiments must monitor a set outside this list.
    pub fn hot_dtlb_sets(&self) -> Vec<u64> {
        let mut vpns = self.gadget.hot_data_vpns();
        vpns.extend(self.cpp.hot_data_vpns());
        vpns.push(pacman_isa::ptr::VirtualAddress::new(layout::USER_SCRATCH).vpn());
        vpns.push(pacman_isa::ptr::VirtualAddress::new(layout::USER_SYSCALL_STUB).vpn());
        let mut sets: Vec<u64> = vpns.into_iter().map(|v| v % 256).collect();
        sets.sort_unstable();
        sets.dedup();
        sets
    }

    /// Picks a dTLB set that no per-syscall service page collides with.
    pub fn pick_quiet_dtlb_set(&self) -> usize {
        let hot = self.hot_dtlb_sets();
        (0..256u64).find(|s| !hot.contains(s)).expect("fewer than 256 hot sets") as usize
    }

    /// Serialises the *entire* mutable platform state — configuration,
    /// machine (registers, physical memory, caches, TLBs, predictors,
    /// block cache, PAC memo, RNG position), kernel bookkeeping, the
    /// attack-level telemetry registry and the user-VA bump allocator —
    /// into a self-describing byte blob. [`System::restore`] on the
    /// result yields a system that continues *bit-identically* to this
    /// one: same cycles, same measurements, same RNG draws, same
    /// telemetry export.
    ///
    /// The blob carries a format version but no checksum; durable
    /// consumers (the daemon's snapshot files) wrap it in their own
    /// checksummed envelope.
    ///
    /// # Panics
    ///
    /// If called while a speculative fault is pending delivery, i.e.
    /// mid-instruction. Snapshot only at instruction boundaries (any
    /// point where the driving loop owns control).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u16(SYSTEM_SNAPSHOT_VERSION);
        save_config(&self.config, &mut w);
        w.u64(self.next_user_va);
        self.telemetry.save_bin(&mut w);
        self.machine.save_state(&mut w);
        self.kernel.save_state(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a [`System`] from a [`System::snapshot`] blob.
    ///
    /// Restore is "boot plus overlay": the embedded configuration boots
    /// a fresh platform (so kexts, layout and ground truth are rebuilt
    /// by exactly the code that built them originally), then the saved
    /// mutable state is laid over it. Any truncation, version mismatch
    /// or geometry disagreement is a typed [`BinError`] — never a panic.
    pub fn restore(bytes: &[u8]) -> Result<Self, BinError> {
        let mut r = Reader::new(bytes);
        let version = r.u16()?;
        if version != SYSTEM_SNAPSHOT_VERSION {
            return Err(BinError::Corrupt(format!(
                "system snapshot version {version} (expected {SYSTEM_SNAPSHOT_VERSION})"
            )));
        }
        let config = load_config(&mut r)?;
        config
            .machine
            .validate()
            .map_err(|e| BinError::Corrupt(format!("snapshot config invalid: {e}")))?;
        let next_user_va = r.u64()?;
        let telemetry = Registry::load_bin(&mut r)?;
        let mut sys = Self::boot(config);
        sys.machine.restore_state(&mut r)?;
        sys.kernel.restore_state(&mut r)?;
        if !r.is_done() {
            return Err(BinError::Corrupt(format!(
                "{} trailing bytes after system snapshot",
                r.remaining()
            )));
        }
        sys.next_user_va = next_user_va;
        sys.telemetry = telemetry;
        Ok(sys)
    }
}

/// Format version of the [`System::snapshot`] blob. Bump on any layout
/// change; [`System::restore`] rejects mismatches with a typed error.
pub const SYSTEM_SNAPSHOT_VERSION: u16 = 1;

fn save_config(config: &SystemConfig, w: &mut Writer) {
    let m = &config.machine;
    w.u8(match m.core {
        CoreKind::PCore => 0,
        CoreKind::ECore => 1,
    });
    w.u64(m.seed);
    w.u32(m.speculation_window);
    w.u8(match m.squash {
        SquashPolicy::Eager => 0,
        SquashPolicy::Lazy => 1,
    });
    w.u8(match m.mitigation {
        Mitigation::None => 0,
        Mitigation::FenceAfterAut => 1,
        Mitigation::NonSpeculativeAut => 2,
        Mitigation::TaintAutOutputs => 3,
        Mitigation::DelayOnMiss => 4,
    });
    let l = &m.latency;
    for field in [
        l.l1_hit,
        l.l2_hit,
        l.dram,
        l.l2_tlb_hit,
        l.walk,
        l.measure_overhead,
        l.mispredict_penalty,
        l.fence,
        l.alu,
        l.syscall_transition,
        l.noise,
        l.fault_spike,
    ] {
        w.u64(field);
    }
    w.u64(m.clock_hz);
    w.u64(m.system_counter_hz);
    w.f64(m.os_noise);
    w.bool(m.bugs.leak_squashed_registers);
    w.bool(m.bugs.commit_suppressed_faults);
    w.bool(m.profile);
    w.u8(match m.engine {
        ExecEngine::Cached => 0,
        ExecEngine::Interpreted => 1,
    });
    w.u64(config.kernel_seed);
    w.u8(match config.timing {
        TimingSource::Pmc0 => 0,
        TimingSource::MultiThread => 1,
        TimingSource::SystemCounter => 2,
    });
}

fn load_config(r: &mut Reader<'_>) -> Result<SystemConfig, BinError> {
    let mut m = MachineConfig {
        core: match r.u8()? {
            0 => CoreKind::PCore,
            1 => CoreKind::ECore,
            b => return Err(BinError::Corrupt(format!("unknown core kind {b}"))),
        },
        seed: r.u64()?,
        speculation_window: r.u32()?,
        squash: match r.u8()? {
            0 => SquashPolicy::Eager,
            1 => SquashPolicy::Lazy,
            b => return Err(BinError::Corrupt(format!("unknown squash policy {b}"))),
        },
        mitigation: match r.u8()? {
            0 => Mitigation::None,
            1 => Mitigation::FenceAfterAut,
            2 => Mitigation::NonSpeculativeAut,
            3 => Mitigation::TaintAutOutputs,
            4 => Mitigation::DelayOnMiss,
            b => return Err(BinError::Corrupt(format!("unknown mitigation {b}"))),
        },
        ..MachineConfig::default()
    };
    for field in [
        &mut m.latency.l1_hit,
        &mut m.latency.l2_hit,
        &mut m.latency.dram,
        &mut m.latency.l2_tlb_hit,
        &mut m.latency.walk,
        &mut m.latency.measure_overhead,
        &mut m.latency.mispredict_penalty,
        &mut m.latency.fence,
        &mut m.latency.alu,
        &mut m.latency.syscall_transition,
        &mut m.latency.noise,
        &mut m.latency.fault_spike,
    ] {
        *field = r.u64()?;
    }
    m.clock_hz = r.u64()?;
    m.system_counter_hz = r.u64()?;
    m.os_noise = r.f64()?;
    m.bugs.leak_squashed_registers = r.bool()?;
    m.bugs.commit_suppressed_faults = r.bool()?;
    m.profile = r.bool()?;
    m.engine = match r.u8()? {
        0 => ExecEngine::Cached,
        1 => ExecEngine::Interpreted,
        b => return Err(BinError::Corrupt(format!("unknown exec engine {b}"))),
    };
    let kernel_seed = r.u64()?;
    let timing = match r.u8()? {
        0 => TimingSource::Pmc0,
        1 => TimingSource::MultiThread,
        2 => TimingSource::SystemCounter,
        b => return Err(BinError::Corrupt(format!("unknown timing source {b}"))),
    };
    Ok(SystemConfig { machine: m, kernel_seed, timing })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_isa::ptr::VirtualAddress;

    #[test]
    fn boot_installs_everything() {
        let mut sys = System::boot(SystemConfig::default());
        assert_eq!(sys.kernel.crash_count(), 0);
        // Training the gadget does not crash.
        sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();
    }

    #[test]
    fn targets_land_in_requested_sets_and_quiet_sets_are_quiet() {
        let mut sys = System::boot(SystemConfig::default());
        let quiet = sys.pick_quiet_dtlb_set();
        assert!(!sys.hot_dtlb_sets().contains(&(quiet as u64)));
        let t = sys.alloc_target(quiet);
        assert_eq!(VirtualAddress::new(t).vpn() % 256, quiet as u64);
    }

    #[test]
    fn user_regions_are_disjoint_and_aligned() {
        let mut sys = System::boot(SystemConfig::default());
        let a = sys.alloc_user_region(10);
        let b = sys.alloc_user_region(10);
        assert!(b >= a + 10 * pacman_isa::ptr::PAGE_SIZE);
        assert_eq!(VirtualAddress::new(a).vpn() % 2048, 0);
        assert_eq!(VirtualAddress::new(b).vpn() % 2048, 0);
    }

    #[test]
    fn reboot_reproduces_a_fresh_boot_bit_for_bit() {
        let cfg = SystemConfig::default();
        let mut fresh = System::boot(cfg.clone());
        let tf = fresh.alloc_target(5);
        let pf = fresh.true_pac(tf);
        fresh.kernel.syscall(&mut fresh.machine, fresh.gadget.data_gadget, &[0, 0, 1]).unwrap();
        let fresh_cycles = fresh.machine.cycles;
        let fresh_frames = fresh.machine.mem.phys.frame_count();

        let mut sys = System::boot(cfg);
        // Dirty the system thoroughly, then reboot in place.
        let _ = sys.alloc_target(9);
        for _ in 0..5 {
            sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();
        }
        sys.reboot();
        let t = sys.alloc_target(5);
        let p = sys.true_pac(t);
        sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();

        assert_eq!((t, p), (tf, pf), "layout and ground truth reproduce");
        assert_eq!(sys.machine.cycles, fresh_cycles, "pooled reboot is cycle-identical");
        assert_eq!(sys.machine.mem.phys.frame_count(), fresh_frames);
        assert_eq!(sys.kernel.crash_count(), 0);
    }

    #[test]
    fn reboot_in_place_matches_a_fresh_boot_across_geometries() {
        // Rebooting flushes caches and TLBs of unchanged geometry in place
        // and rebuilds the rest: either way every exported series, not
        // just the cycle count, must match a fresh boot.
        let run = |sys: &mut System| {
            sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();
            (sys.machine.cycles, sys.telemetry_snapshot())
        };
        let pcore = SystemConfig::default();
        let mut ecore = SystemConfig::default();
        ecore.machine.core = CoreKind::ECore;
        for (from, to) in [(&pcore, &pcore), (&pcore, &ecore), (&ecore, &pcore)] {
            let mut sys = System::boot(from.clone());
            for _ in 0..3 {
                run(&mut sys);
            }
            sys.reboot_into(to.clone());
            assert_eq!(run(&mut sys), run(&mut System::boot(to.clone())));
        }
    }

    #[test]
    fn reboot_into_a_different_config_matches_a_fresh_boot() {
        let mut other = SystemConfig::default();
        other.machine.seed = 0xDEAD_BEEF;
        other.kernel_seed = 0xB0B;

        let mut fresh = System::boot(other.clone());
        let tf = fresh.alloc_target(5);
        let pf = fresh.true_pac(tf);
        fresh.kernel.syscall(&mut fresh.machine, fresh.gadget.data_gadget, &[0, 0, 1]).unwrap();
        let fresh_cycles = fresh.machine.cycles;

        // Boot under the *default* config, dirty it, then reboot into
        // the other config on the recycled frames.
        let mut sys = System::boot(SystemConfig::default());
        let _ = sys.alloc_target(9);
        for _ in 0..3 {
            sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();
        }
        sys.reboot_into(other);
        let t = sys.alloc_target(5);
        let p = sys.true_pac(t);
        sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();

        assert_eq!((t, p), (tf, pf), "layout and ground truth reproduce across configs");
        assert_eq!(sys.machine.cycles, fresh_cycles, "cross-config reboot is cycle-identical");
        assert_eq!(
            sys.machine.mem.phys.fresh_alloc_count(),
            0,
            "a recycled boot never touches the host allocator"
        );
    }

    #[test]
    fn ground_truth_is_stable_until_reboot() {
        let mut sys = System::boot(SystemConfig::default());
        let t = sys.alloc_target(3);
        let p1 = sys.true_pac(t);
        let p2 = sys.true_pac(t);
        assert_eq!(p1, p2);
    }

    /// Drives a system through a slice of "campaign": gadget syscalls,
    /// attack-level telemetry, user allocations.
    fn campaign_step(sys: &mut System, rounds: usize) {
        for i in 0..rounds {
            sys.kernel.syscall(&mut sys.machine, sys.gadget.data_gadget, &[0, 0, 1]).unwrap();
            sys.telemetry.incr("test.rounds");
            sys.telemetry.observe("test.cycles", sys.machine.cycles + i as u64);
        }
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let mut cfg = SystemConfig::default();
        cfg.machine.seed = 0x5EED_0001;
        cfg.kernel_seed = 0xFACE;

        // Control: the same campaign run without interruption.
        let mut control = System::boot(cfg.clone());
        let mut live = System::boot(cfg);
        for sys in [&mut control, &mut live] {
            sys.telemetry.set_enabled(true);
            let _ = sys.alloc_target(5);
            let _ = sys.alloc_user_region(3);
            campaign_step(sys, 4);
        }

        // Interrupt `live` mid-campaign, shuttle it through bytes.
        let blob = live.snapshot();
        drop(live);
        let mut restored = System::restore(&blob).expect("snapshot restores");

        for sys in [&mut control, &mut restored] {
            campaign_step(sys, 4);
        }

        assert_eq!(restored.machine.cycles, control.machine.cycles, "cycle-identical");
        assert_eq!(
            restored.machine.cpu.regs, control.machine.cpu.regs,
            "architectural state identical"
        );
        assert_eq!(
            restored.telemetry_snapshot(),
            control.telemetry_snapshot(),
            "attack-level + machine telemetry identical"
        );
        assert_eq!(
            restored.alloc_user_region(1),
            control.alloc_user_region(1),
            "user VA allocator resumes where it left off"
        );
        let t = restored.alloc_target(7);
        assert_eq!(restored.true_pac(t), control.true_pac(t), "ground truth survives");
    }

    #[test]
    fn snapshot_restore_rejects_damage_with_typed_errors() {
        let sys = System::boot(SystemConfig::default());
        let blob = sys.snapshot();

        // Truncation at any prefix is an error, never a panic.
        for cut in [0, 1, 2, blob.len() / 3, blob.len() / 2, blob.len() - 1] {
            assert!(System::restore(&blob[..cut]).is_err(), "cut at {cut} must fail");
        }

        // Wrong format version.
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        match System::restore(&bad) {
            Err(BinError::Corrupt(msg)) => assert!(msg.contains("version"), "got: {msg}"),
            other => panic!("expected version error, got {other:?}"),
        }

        // Trailing garbage.
        let mut long = blob.clone();
        long.extend_from_slice(&[0u8; 7]);
        match System::restore(&long) {
            Err(BinError::Corrupt(msg)) => assert!(msg.contains("trailing"), "got: {msg}"),
            other => panic!("expected trailing-bytes error, got {other:?}"),
        }
    }
}
