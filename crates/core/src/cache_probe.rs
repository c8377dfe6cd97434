//! A cache-based transmission channel (paper §4.1).
//!
//! "Our attack is general enough to work with a wide range of
//! micro-architectural side channels" — the PoCs use TLBs, but nothing in
//! the gadget depends on that. This module implements the same PAC oracle
//! over the **L1 data cache**: Prime+Probe on the L1D set of the target
//! address instead of its dTLB set.
//!
//! On the modelled machine (as on many L1 designs) the L1D index bits all
//! come from the page offset — 256 sets × 64 B lines exactly covers a
//! 16 KB page — so an attacker can build L1D eviction sets from its own
//! pages purely by matching the target's *page offset*, with no physical
//! address knowledge.

use std::collections::HashMap;

use pacman_isa::ptr::{with_pac_field, PAGE_SIZE};
use pacman_uarch::Trap;

use crate::oracle::{OracleError, OracleVerdict, PacOracle, TRAIN_ITERS};
use crate::system::System;

/// Effective L1D associativity the probe must defeat (Table 2 footnote 5).
pub const L1D_WAYS: usize = 4;
/// L1D set count.
pub const L1D_SETS: u64 = 256;
/// L1D line size.
pub const LINE: u64 = 64;

/// Tick threshold separating an L1D hit (~60 cycles ≈ 24 ticks) from an
/// L1D miss / L2 hit (~80 cycles ≈ 32 ticks) under the multi-thread
/// timer. Finer than the TLB threshold because the gap is smaller.
pub const CACHE_THRESHOLD: u64 = 28;

/// Miss count classifying a trial as "correct PAC" (4-way set, so a
/// cascade yields ~4 misses; an untouched set 0–1).
pub const CACHE_MISS_THRESHOLD: usize = 3;

/// Prime+Probe over one L1D set.
#[derive(Clone, Debug)]
pub struct CachePrimeProbe {
    addrs: Vec<u64>,
    set: u64,
}

impl CachePrimeProbe {
    /// Builds an L1D eviction set for the cache set of `target_va`:
    /// [`L1D_WAYS`] attacker lines in distinct pages sharing the target's
    /// page offset (hence its L1D set), placed in distinct dTLB sets so
    /// the probe never fights the TLB.
    pub fn for_target(sys: &mut System, target_va: u64) -> Self {
        let set = (target_va / LINE) % L1D_SETS;
        let offset = target_va % PAGE_SIZE / LINE * LINE;
        let base = sys.alloc_user_region(8 * L1D_WAYS as u64);
        let mut addrs = Vec::with_capacity(L1D_WAYS);
        for i in 0..L1D_WAYS as u64 {
            // Distinct pages 8 apart: distinct dTLB sets, same page offset.
            let va = base + 8 * i * PAGE_SIZE + offset;
            sys.ensure_user_page(va);
            addrs.push(va);
        }
        Self { addrs, set }
    }

    /// The monitored L1D set.
    pub fn monitored_set(&self) -> u64 {
        self.set
    }

    /// Fills the monitored set (also warms the member pages' dTLB
    /// entries, so probe latencies isolate the cache).
    ///
    /// # Errors
    ///
    /// Propagates traps from the attacker's own loads.
    pub fn prime(&self, sys: &mut System) -> Result<(), Trap> {
        for &a in &self.addrs {
            sys.machine.user_load(a)?;
        }
        Ok(())
    }

    /// Probes the set, counting members whose reload exceeds
    /// [`CACHE_THRESHOLD`].
    ///
    /// # Errors
    ///
    /// Propagates traps from the attacker's own loads.
    pub fn probe(&self, sys: &mut System) -> Result<usize, Trap> {
        let mut misses = 0;
        for &a in &self.addrs {
            if sys.machine.timed_user_load(a)? > CACHE_THRESHOLD {
                misses += 1;
            }
        }
        Ok(misses)
    }
}

/// The L1D set indices the syscall path touches on every call (object,
/// scratch and table accesses all live in the first lines of their
/// pages).
pub fn hot_l1d_sets() -> Vec<u64> {
    (0..8).collect()
}

/// Picks a target-side page offset whose L1D set is quiet.
pub fn quiet_target_offset() -> u64 {
    let hot = hot_l1d_sets();
    let set = (0..L1D_SETS).find(|s| !hot.contains(s)).expect("256 sets cannot all be hot");
    set * LINE
}

/// The data-gadget PAC oracle transmitting through the L1 data cache.
#[derive(Debug)]
pub struct CacheDataPacOracle {
    probes: HashMap<u64, CachePrimeProbe>,
    samples: usize,
    /// Training iterations per trial.
    pub train_iters: usize,
}

impl CacheDataPacOracle {
    /// Creates the oracle.
    pub fn new(_sys: &mut System) -> Result<Self, OracleError> {
        Ok(Self { probes: HashMap::new(), samples: 1, train_iters: TRAIN_ITERS })
    }

    /// Sets the per-test sample count.
    pub fn with_samples(mut self, samples: usize) -> Self {
        assert!(samples >= 1);
        self.samples = samples;
        self
    }
}

impl PacOracle for CacheDataPacOracle {
    fn samples(&self) -> usize {
        self.samples
    }

    fn channel(&self) -> &'static str {
        "l1d-data"
    }

    fn trial(&mut self, sys: &mut System, target: u64, pac: u16) -> Result<usize, OracleError> {
        // An executor scheduling point, as in the dTLB channels' trial.
        pacman_runner::executor::yield_now();
        let train_iters = self.train_iters;
        // Borrow, don't clone: the eviction set is invariant across
        // guesses, so the per-guess address vector rebuild was pure waste.
        let pp =
            self.probes.entry(target).or_insert_with(|| CachePrimeProbe::for_target(sys, target));
        let sc = sys.gadget.data_gadget;
        sys.train_gadget(sc, train_iters)?;
        pp.prime(sys)?;
        sys.trigger_gadget(sc, with_pac_field(target, pac))?;
        Ok(pp.probe(sys)?)
    }

    /// The cache channel uses its own miss threshold (4-way sets).
    fn test_pac(
        &mut self,
        sys: &mut System,
        target: u64,
        pac: u16,
    ) -> Result<OracleVerdict, OracleError> {
        let mut misses = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            misses.push(self.trial(sys, target, pac)?);
        }
        Ok(OracleVerdict::with_threshold(misses, CACHE_MISS_THRESHOLD))
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

    fn quiet_target(sys: &mut System) -> u64 {
        let set = sys.pick_quiet_dtlb_set();
        sys.alloc_target(set) + quiet_target_offset()
    }

    #[test]
    fn eviction_set_shares_the_targets_l1d_set() {
        let mut sys = quiet_system();
        let target = quiet_target(&mut sys);
        let pp = CachePrimeProbe::for_target(&mut sys, target);
        assert_eq!(pp.monitored_set(), (target / LINE) % L1D_SETS);
        assert_eq!(pp.addrs.len(), L1D_WAYS);
        for &a in &pp.addrs {
            assert_eq!((a / LINE) % L1D_SETS, pp.monitored_set());
        }
    }

    #[test]
    fn unperturbed_set_probes_clean_and_victim_fill_cascades() {
        let mut sys = quiet_system();
        let target = quiet_target(&mut sys);
        let pp = CachePrimeProbe::for_target(&mut sys, target);
        pp.prime(&mut sys).unwrap();
        assert!(pp.probe(&mut sys).unwrap() <= 1);
        // Simulate the victim's fill: one access to the target's set.
        pp.prime(&mut sys).unwrap();
        // The target is a kernel address; emulate its line fill directly.
        let pa = sys
            .machine
            .mem
            .tables
            .translate(&sys.machine.mem.phys, pacman_isa::ptr::VirtualAddress::new(target))
            .unwrap();
        sys.machine.mem.l1d.access(pa);
        let misses = pp.probe(&mut sys).unwrap();
        assert!(misses >= CACHE_MISS_THRESHOLD, "victim fill caused only {misses} misses");
    }

    #[test]
    fn cache_channel_oracle_distinguishes_pacs() {
        let mut sys = quiet_system();
        let target = quiet_target(&mut sys);
        let true_pac = sys.true_pac(target);
        let mut oracle = CacheDataPacOracle::new(&mut sys).unwrap();
        let good = oracle.test_pac(&mut sys, target, true_pac).unwrap();
        assert!(good.is_correct(), "true PAC rejected via the cache channel: {good:?}");
        for delta in [1u16, 0x40, 0x2000] {
            let bad = oracle.test_pac(&mut sys, target, true_pac ^ delta).unwrap();
            assert!(!bad.is_correct(), "wrong PAC accepted via the cache channel: {bad:?}");
        }
        assert_eq!(sys.kernel.crash_count(), 0);
    }

    #[test]
    fn quiet_offset_avoids_hot_lines() {
        let off = quiet_target_offset();
        assert!(!hot_l1d_sets().contains(&(off / LINE)));
        assert_eq!(off % LINE, 0);
    }
}
