//! Prime+Probe over the shared L1 dTLB (paper §2.3, §8.1).

use crate::evict::EvictionSet;
use crate::system::System;
use pacman_uarch::Trap;

/// Default tick threshold separating a dTLB hit from a miss with the
/// multi-thread timer (paper §7.4: hits never beyond 27, misses never
/// below 32, threshold set to 30).
pub const DEFAULT_THRESHOLD: u64 = 30;

/// A Prime+Probe instance monitoring one dTLB set.
#[derive(Clone, Debug)]
pub struct PrimeProbe {
    prime_set: EvictionSet,
    reset_set: EvictionSet,
    threshold: u64,
}

impl PrimeProbe {
    /// Builds the prime and reset sets for `target_va` (§8.1 steps 2–3).
    pub fn for_target(sys: &mut System, target_va: u64) -> Self {
        let prime_set = EvictionSet::dtlb_for_target(sys, target_va);
        let reset_set = EvictionSet::l2_reset_for_target(sys, target_va);
        Self { prime_set, reset_set, threshold: DEFAULT_THRESHOLD }
    }

    /// Overrides the hit/miss threshold (see [`crate::timing`] for
    /// calibration).
    pub fn set_threshold(&mut self, threshold: u64) {
        self.threshold = threshold;
    }

    /// The active threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The monitored dTLB set.
    pub fn monitored_set(&self) -> u64 {
        self.prime_set.set()
    }

    /// §8.1 step 2: reset the TLB hierarchy so no stale copy of the
    /// target's translation survives from a previous trial.
    ///
    /// # Errors
    ///
    /// Propagates traps from the attacker's own loads (setup bugs only).
    pub fn reset(&self, sys: &mut System) -> Result<(), Trap> {
        for &a in self.reset_set.addrs() {
            sys.machine.user_load(a)?;
        }
        Ok(())
    }

    /// §8.1 step 3: prime the monitored dTLB set by filling it with the
    /// eviction set.
    ///
    /// # Errors
    ///
    /// Propagates traps from the attacker's own loads.
    pub fn prime(&self, sys: &mut System) -> Result<(), Trap> {
        for &a in self.prime_set.addrs() {
            sys.machine.user_load(a)?;
        }
        Ok(())
    }

    /// §8.1 step 5/6: probe the monitored set, returning the number of
    /// member addresses whose reload latency classifies as a miss.
    ///
    /// A victim insertion into the set evicts the LRU member; with true
    /// LRU the sequential probe then cascades, so a single insertion
    /// shows up as a near-full-set miss count (the paper's "at least 5
    /// misses" signal), while an untouched set probes with 0–1 misses.
    ///
    /// # Errors
    ///
    /// Propagates traps from the attacker's own loads.
    pub fn probe(&self, sys: &mut System) -> Result<usize, Trap> {
        let mut misses = 0;
        for &a in self.prime_set.addrs() {
            let ticks = sys.machine.timed_user_load(a)?;
            if ticks > self.threshold {
                misses += 1;
            }
        }
        Ok(misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use pacman_isa::ptr::{VirtualAddress, PAGE_SIZE};
    use pacman_uarch::{Perms, TlbEntry};

    fn quiet_system() -> System {
        let mut cfg = SystemConfig::default();
        cfg.machine.os_noise = 0.0;
        System::boot(cfg)
    }

    #[test]
    fn unperturbed_set_probes_clean() {
        let mut sys = quiet_system();
        let target = sys.alloc_target(33);
        let pp = PrimeProbe::for_target(&mut sys, target);
        pp.reset(&mut sys).unwrap();
        pp.prime(&mut sys).unwrap();
        let misses = pp.probe(&mut sys).unwrap();
        assert!(misses <= 1, "clean probe saw {misses} misses");
    }

    #[test]
    fn a_single_victim_insertion_cascades_into_many_misses() {
        let mut sys = quiet_system();
        let target = sys.alloc_target(33);
        let target_vpn = VirtualAddress::new(target).vpn();
        let pp = PrimeProbe::for_target(&mut sys, target);
        pp.reset(&mut sys).unwrap();
        pp.prime(&mut sys).unwrap();
        // Simulate the victim's speculative load filling the set.
        sys.machine.mem.tlbs.fill_data(TlbEntry {
            vpn: target_vpn,
            pfn: 1,
            perms: Perms::kernel_rw(),
        });
        let misses = pp.probe(&mut sys).unwrap();
        assert!(misses >= 5, "victim insertion only caused {misses} misses");
    }

    #[test]
    fn probe_re_primes_for_the_next_round() {
        let mut sys = quiet_system();
        let target = sys.alloc_target(12);
        let pp = PrimeProbe::for_target(&mut sys, target);
        pp.reset(&mut sys).unwrap();
        pp.prime(&mut sys).unwrap();
        let _ = pp.probe(&mut sys).unwrap();
        // After a probe, the set is primed again; an immediate re-probe is
        // clean.
        let misses = pp.probe(&mut sys).unwrap();
        assert!(misses <= 1);
    }

    #[test]
    fn reset_clears_a_stale_target_translation() {
        let mut sys = quiet_system();
        // Make the target share sets with a *user* page so we can load it.
        let target = sys.alloc_target(99);
        let stale = sys.alloc_user_region(4096) + 99 * PAGE_SIZE;
        sys.ensure_user_page(stale);
        sys.machine.user_load(stale).unwrap();
        let pp = PrimeProbe::for_target(&mut sys, target);
        // The reset set shares the *L2* set of the target (vpn % 2048);
        // `stale` shares only the dTLB set, so check via dTLB occupancy:
        // priming evicts it regardless; what matters is the combination
        // leaves no stale state that the probe would misread.
        pp.reset(&mut sys).unwrap();
        pp.prime(&mut sys).unwrap();
        assert!(pp.probe(&mut sys).unwrap() <= 1);
    }

    #[test]
    fn threshold_is_adjustable() {
        let mut sys = quiet_system();
        let target = sys.alloc_target(1);
        let mut pp = PrimeProbe::for_target(&mut sys, target);
        assert_eq!(pp.threshold(), DEFAULT_THRESHOLD);
        pp.set_threshold(100);
        pp.reset(&mut sys).unwrap();
        pp.prime(&mut sys).unwrap();
        // With an absurdly high threshold even real misses vanish.
        sys.machine.mem.tlbs.flush();
        let misses = pp.probe(&mut sys).unwrap();
        assert_eq!(misses, 0, "threshold 100 should classify everything as hits");
    }
}
