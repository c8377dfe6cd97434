//! Per-worker [`System`] pool behind the persistent executor.
//!
//! Booting a [`System`] is the allocation hot spot of every campaign:
//! fresh physical frames, rebuilt page tables, a cold block-cache
//! arena. The executor keeps its workers alive for the process
//! lifetime, so a worker that just finished a shard can hand its booted
//! system to the next shard instead of tearing it down —
//! [`System::reboot_into`] resets the machine in place, recycling its
//! physical frames, and is bit-identical to a fresh boot (pinned by a
//! `system` test), which makes pooling invisible to results and
//! allocator-free in steady state.
//!
//! The pool is **thread-local** (one per executor worker, no locks) and
//! keyed by the shard configuration with the per-shard fields
//! normalised away: `machine.seed` changes on every shard and
//! `machine.latency.fault_spike` on every injected-fault attempt, and
//! both are plain config values that `reboot_into` re-applies, so
//! systems that differ only there are interchangeable. Everything else
//! (kernel seed, timing source, latency model, bug switches) must match
//! exactly or the lease falls back to a fresh boot.
//!
//! This in-place reboot is the only way a warm machine is made or
//! reused. Parked systems never leave their thread and are never
//! persisted: a restarted daemon starts with empty pools, and each
//! worker's first lease per key is a fresh boot (restoring a serialised
//! machine would cost more, since [`System::restore`] boots fresh and
//! then overlays the saved state).
//!
//! Global counters ([`stats`]) expose fresh boots, pooled reboots and
//! freshly allocated frames; the `perf_campaign` bench reads them to
//! back the allocator-free steady-state claim.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::system::{System, SystemConfig};

/// Parked systems kept per thread. Workers juggle very few distinct
/// keys at once — the campaign config plus perhaps a sweep stride — so
/// a small cap bounds memory without hurting the hit rate.
const POOL_CAP: usize = 3;

static FRESH_BOOTS: AtomicU64 = AtomicU64::new(0);
static REBOOTS: AtomicU64 = AtomicU64::new(0);
static FRESH_FRAMES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static POOL: RefCell<Vec<(SystemConfig, System)>> = const { RefCell::new(Vec::new()) };
}

/// The pool key: the config with the per-shard fields zeroed. Two
/// configs with the same key describe interchangeable systems (the
/// differing fields are re-applied by the reboot).
fn pool_key(cfg: &SystemConfig) -> SystemConfig {
    let mut key = cfg.clone();
    key.machine.seed = 0;
    key.machine.latency.fault_spike = 0;
    key
}

/// Process-wide pool counters (summed over every thread-local pool).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct PoolStats {
    /// Systems booted from nothing (pool miss).
    pub fresh_boots: u64,
    /// Systems recycled through [`System::reboot_into`] (pool hit).
    pub reboots: u64,
    /// Physical frames allocated fresh instead of recycled, summed at
    /// lease return. Zero deltas here are the allocator-free claim.
    pub fresh_frames: u64,
    /// Always 0: nothing seeds the pool. Kept only because the
    /// `perfbench` harness reads it.
    pub seeded_boots: u64,
}

/// Snapshot of the global counters. Benches measure deltas across a
/// warmed steady-state window rather than absolute values.
#[must_use]
pub fn stats() -> PoolStats {
    PoolStats {
        fresh_boots: FRESH_BOOTS.load(Ordering::Relaxed),
        reboots: REBOOTS.load(Ordering::Relaxed),
        fresh_frames: FRESH_FRAMES.load(Ordering::Relaxed),
        seeded_boots: 0,
    }
}

/// Empties the calling thread's pool. Test/bench hook for starting a
/// measurement from a known-cold state.
#[doc(hidden)]
pub fn clear_thread_pool() {
    POOL.with(|p| p.borrow_mut().clear());
}

/// Leases a booted [`System`] for `config`: a parked system with the
/// same pool key is rebooted into `config` (allocator-free), otherwise
/// one is booted fresh. Dropping the returned guard parks the system
/// back in the calling thread's pool.
pub fn lease(config: SystemConfig) -> PooledSystem {
    let key = pool_key(&config);
    let parked = POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.iter().position(|(k, _)| *k == key).map(|i| p.swap_remove(i).1)
    });
    let sys = match parked {
        Some(mut sys) => {
            REBOOTS.fetch_add(1, Ordering::Relaxed);
            sys.reboot_into(config);
            sys
        }
        None => {
            FRESH_BOOTS.fetch_add(1, Ordering::Relaxed);
            System::boot(config)
        }
    };
    PooledSystem { slot: Some((key, sys)) }
}

/// A leased [`System`]: dereferences to the system, returns it to the
/// lease's thread-local pool on drop (evicting the oldest entry when
/// the pool is full).
#[derive(Debug)]
pub struct PooledSystem {
    slot: Option<(SystemConfig, System)>,
}

impl Deref for PooledSystem {
    type Target = System;

    fn deref(&self) -> &System {
        &self.slot.as_ref().expect("leased system present until drop").1
    }
}

impl DerefMut for PooledSystem {
    fn deref_mut(&mut self) -> &mut System {
        &mut self.slot.as_mut().expect("leased system present until drop").1
    }
}

impl Drop for PooledSystem {
    fn drop(&mut self) {
        let Some((key, sys)) = self.slot.take() else { return };
        // `fresh_alloc_count` is per boot generation: a warm reboot that
        // recycled every frame contributes zero here.
        FRESH_FRAMES.fetch_add(sys.machine.mem.phys.fresh_alloc_count(), Ordering::Relaxed);
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() >= POOL_CAP {
                p.remove(0);
            }
            p.push((key, sys));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kernel_seed: u64, machine_seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig { kernel_seed, ..SystemConfig::default() };
        cfg.machine.seed = machine_seed;
        cfg
    }

    #[test]
    fn a_pooled_reboot_recycles_every_frame() {
        clear_thread_pool();
        let first = lease(cfg(7, 1));
        assert!(first.machine.mem.phys.fresh_alloc_count() > 0, "cold boot allocates");
        drop(first);
        // Same key, different per-shard seed: must come from the pool.
        let second = lease(cfg(7, 2));
        assert_eq!(
            second.machine.mem.phys.fresh_alloc_count(),
            0,
            "a warm reboot must not allocate a single fresh frame"
        );
    }

    #[test]
    fn a_rebooted_lease_matches_a_fresh_boot() {
        clear_thread_pool();
        drop(lease(cfg(11, 1)));
        let mut pooled = lease(cfg(11, 9));
        let mut fresh = System::boot(cfg(11, 9));
        let set = fresh.pick_quiet_dtlb_set();
        assert_eq!(pooled.pick_quiet_dtlb_set(), set);
        let (pt, ft) = (pooled.alloc_target(set), fresh.alloc_target(set));
        assert_eq!(pt, ft, "target layout is boot-path independent");
        assert_eq!(pooled.true_pac(pt), fresh.true_pac(ft));
        assert_eq!(pooled.machine.cycles, fresh.machine.cycles, "cycle-identical");
    }

    #[test]
    fn distinct_keys_never_share_a_parked_system() {
        clear_thread_pool();
        drop(lease(cfg(3, 1)));
        // Different kernel seed => different key => fresh boot.
        let other = lease(cfg(4, 1));
        assert!(other.machine.mem.phys.fresh_alloc_count() > 0);
        drop(other);
        // The first key's system is still parked.
        let back = lease(cfg(3, 2));
        assert_eq!(back.machine.mem.phys.fresh_alloc_count(), 0);
    }

    #[test]
    fn the_cap_evicts_the_oldest_entry() {
        clear_thread_pool();
        for seed in 0..=POOL_CAP as u64 {
            drop(lease(cfg(100 + seed, 1)));
        }
        // Key 100 was pushed first and evicted when key 103 returned.
        let evicted = lease(cfg(100, 2));
        assert!(evicted.machine.mem.phys.fresh_alloc_count() > 0, "oldest key was evicted");
        drop(evicted);
        let kept = lease(cfg(102, 2));
        assert_eq!(kept.machine.mem.phys.fresh_alloc_count(), 0, "younger keys survive");
    }

    #[test]
    fn counters_only_grow() {
        let before = stats();
        clear_thread_pool();
        drop(lease(cfg(21, 1)));
        drop(lease(cfg(21, 2)));
        let after = stats();
        assert!(after.fresh_boots > before.fresh_boots);
        assert!(after.reboots > before.reboots);
    }
}
