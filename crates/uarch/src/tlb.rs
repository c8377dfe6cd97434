//! The TLB hierarchy reverse-engineered in paper §7 (Figure 6).
//!
//! Per p-core there are four structures:
//!
//! - two private L1 instruction TLBs (4 ways × 32 sets), one for
//!   userspace and one for kernelspace fetches — *not* shared across
//!   privilege levels;
//! - one L1 data TLB (12 ways × 256 sets), shared across privilege
//!   levels — the channel all the PoC attacks monitor;
//! - one L2 TLB (23 ways × 2048 sets), shared.
//!
//! The paper's key §7.3 finding is modelled exactly: the L1 dTLB serves as
//! a **non-inclusive backing store** of the iTLBs — an entry evicted from
//! an iTLB is inserted into the dTLB (becoming visible to loads), while an
//! entry resident only in an iTLB is invisible to the load/store port.

use pacman_telemetry::bin::{BinError, Reader, Writer};

use crate::cache::{CacheStats, SetAssoc, Way};
use crate::paging::Perms;

/// Geometry of one TLB structure.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct TlbParams {
    /// Associativity.
    pub ways: usize,
    /// Number of sets (power of two).
    pub sets: usize,
}

/// One cached translation.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct TlbEntry {
    /// Virtual page number (canonical VA bits `[47:14]`).
    pub vpn: u64,
    /// Physical frame number.
    pub pfn: u64,
    /// Page permissions.
    pub perms: Perms,
}

impl Way for TlbEntry {
    const EMPTY: Self = TlbEntry {
        vpn: 0,
        pfn: 0,
        perms: Perms { read: false, write: false, execute: false, user: false },
    };

    #[inline(always)]
    fn key(&self) -> u64 {
        self.vpn
    }

    fn save(&self, w: &mut Writer) {
        let p = &self.perms;
        w.u64(self.vpn);
        w.u64(self.pfn);
        w.u8(u8::from(p.read)
            | u8::from(p.write) << 1
            | u8::from(p.execute) << 2
            | u8::from(p.user) << 3);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, BinError> {
        let vpn = r.u64()?;
        let pfn = r.u64()?;
        let bits = r.u8()?;
        if bits > 0xF {
            return Err(BinError::Corrupt(format!("perm bits {bits:#x}")));
        }
        let perms = Perms {
            read: bits & 1 != 0,
            write: bits & 2 != 0,
            execute: bits & 4 != 0,
            user: bits & 8 != 0,
        };
        Ok(TlbEntry { vpn, pfn, perms })
    }
}

/// A single set-associative, true-LRU TLB: a `SetAssoc` of entries
/// keyed by vpn, stored inline (this structure sits on every simulated
/// memory access), plus a version for the machine's fetch cursors.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Entries, LRU state and hit/miss/fill/eviction counters.
    pub(crate) sets: SetAssoc<TlbEntry>,
    /// Bumped by everything that can change a set's contents or LRU
    /// order (see [`Tlb::version`]).
    version: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(params: TlbParams) -> Self {
        Self { sets: SetAssoc::new(params.ways, params.sets), version: 0 }
    }

    /// Returns this TLB to the state of `Tlb::new(params)`, flushing in
    /// place when the geometry is unchanged. The version moves on either
    /// way, so it never repeats over the TLB's lifetime.
    fn reset(&mut self, params: TlbParams) {
        self.sets.reset(params.ways, params.sets);
        self.version += 1;
    }

    /// Changes whenever any set's contents or LRU order may have: on a
    /// promoting [`Tlb::lookup`], an insert, a flush, a restore or a
    /// reset. A lookup that re-touches its set's MRU way leaves it
    /// alone, so while the version holds, every entry that was its set's
    /// MRU way still is — the machine's fetch cursors rely on exactly
    /// this.
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// This TLB's geometry.
    pub fn params(&self) -> TlbParams {
        TlbParams { ways: self.sets.ways(), sets: self.sets.sets() }
    }

    /// Hit/miss/fill/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.sets.stats
    }

    /// The set index a virtual page number maps to.
    pub fn set_of(&self, vpn: u64) -> usize {
        self.sets.set_index(vpn)
    }

    /// Looks up a translation, promoting it to MRU on hit.
    #[inline]
    pub fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
        let (hit, promoted) = self.sets.lookup(vpn)?;
        self.version += u64::from(promoted);
        Some(hit)
    }

    /// Presence check without LRU side effects.
    pub fn contains(&self, vpn: u64) -> bool {
        self.sets.contains(vpn)
    }

    /// Inserts an entry as MRU, returning the evicted LRU victim if the
    /// set overflowed. Re-inserting an existing vpn replaces it.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.version += 1;
        self.sets.insert(entry)
    }

    /// Drops everything (a `tlbi`-style full invalidate).
    pub fn flush(&mut self) {
        self.sets.flush();
        self.version += 1;
    }

    /// Number of valid entries currently in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        self.sets.occupancy(set)
    }

    /// Serialises the live prefix of every set, MRU order included, and
    /// the counters.
    pub fn save_state(&self, w: &mut Writer) {
        self.sets.save_state(w);
    }

    /// Restores state written by [`Tlb::save_state`] into a TLB of
    /// identical geometry.
    ///
    /// # Errors
    ///
    /// [`BinError`] on truncation, corruption, or a geometry mismatch.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), BinError> {
        self.version += 1;
        self.sets.restore_state(r)
    }
}

/// Which privilege level an instruction fetch executes at (selects the
/// private iTLB).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum FetchWorld {
    /// EL0 fetch.
    User,
    /// EL1 fetch.
    Kernel,
}

/// Result of a data-side hierarchy lookup.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum DataLookup {
    /// Hit in the L1 dTLB.
    DtlbHit(TlbEntry),
    /// Missed the dTLB, hit the L2 TLB; the dTLB has been refilled.
    L2Hit(TlbEntry),
    /// Missed everywhere; the caller must walk the page tables and then
    /// call [`TlbHierarchy::fill_data`].
    Miss,
}

/// Result of an instruction-side hierarchy lookup.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum FetchLookup {
    /// Hit in the private L1 iTLB.
    ItlbHit(TlbEntry),
    /// Missed the iTLB, hit the L2 TLB; the iTLB has been refilled (and
    /// any iTLB victim migrated into the dTLB).
    L2Hit(TlbEntry),
    /// Missed everywhere; walk then call [`TlbHierarchy::fill_fetch`].
    Miss,
}

/// Hierarchy-level counters. Each structure counts its own hits,
/// misses, fills and evictions ([`Tlb::stats`]); these count what spans
/// structures.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct TlbStats {
    /// Full page-table walks.
    pub walks: u64,
    /// iTLB victims migrated into the dTLB (the §7.3 backing-store path).
    pub itlb_to_dtlb_migrations: u64,
}

/// The full Figure 6 hierarchy: four [`Tlb`]s, so four instances of the
/// one set-associative LRU structure the caches use too.
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    itlb_user: Tlb,
    itlb_kernel: Tlb,
    dtlb: Tlb,
    l2: Tlb,
    /// Counters (public for experiment reporting).
    pub stats: TlbStats,
}

impl TlbHierarchy {
    /// Builds the hierarchy from per-structure parameters.
    pub fn new(itlb: TlbParams, dtlb: TlbParams, l2: TlbParams) -> Self {
        Self {
            itlb_user: Tlb::new(itlb),
            itlb_kernel: Tlb::new(itlb),
            dtlb: Tlb::new(dtlb),
            l2: Tlb::new(l2),
            stats: TlbStats::default(),
        }
    }

    /// Returns the hierarchy to the state of `TlbHierarchy::new(itlb,
    /// dtlb, l2)`, reusing each structure's storage whose geometry is
    /// unchanged (a reboot then costs a flush, not four reallocations).
    pub(crate) fn reset(&mut self, itlb: TlbParams, dtlb: TlbParams, l2: TlbParams) {
        self.itlb_user.reset(itlb);
        self.itlb_kernel.reset(itlb);
        self.dtlb.reset(dtlb);
        self.l2.reset(l2);
        self.stats = TlbStats::default();
    }

    fn itlb_mut(&mut self, world: FetchWorld) -> &mut Tlb {
        match world {
            FetchWorld::User => &mut self.itlb_user,
            FetchWorld::Kernel => &mut self.itlb_kernel,
        }
    }

    /// Shared-dTLB accessor (read-only; the probe primitives in the attack
    /// crate go through timed loads, not this).
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// The private iTLB for a world (read-only).
    pub fn itlb(&self, world: FetchWorld) -> &Tlb {
        match world {
            FetchWorld::User => &self.itlb_user,
            FetchWorld::Kernel => &self.itlb_kernel,
        }
    }

    /// The shared L2 TLB (read-only).
    pub fn l2(&self) -> &Tlb {
        &self.l2
    }

    /// Data-side lookup for a load/store.
    pub fn lookup_data(&mut self, vpn: u64) -> DataLookup {
        if let Some(e) = self.dtlb.lookup(vpn) {
            return DataLookup::DtlbHit(e);
        }
        if let Some(e) = self.l2.lookup(vpn) {
            self.dtlb.insert(e);
            return DataLookup::L2Hit(e);
        }
        DataLookup::Miss
    }

    /// Installs a walked translation on the data side (L2 + dTLB).
    pub fn fill_data(&mut self, entry: TlbEntry) {
        self.stats.walks += 1;
        self.l2.insert(entry);
        self.dtlb.insert(entry);
    }

    /// Instruction-side lookup for a fetch at the given privilege.
    pub fn lookup_fetch(&mut self, world: FetchWorld, vpn: u64) -> FetchLookup {
        if let Some(e) = self.itlb_mut(world).lookup(vpn) {
            return FetchLookup::ItlbHit(e);
        }
        if let Some(e) = self.l2.lookup(vpn) {
            self.fill_itlb_with_migration(world, e);
            return FetchLookup::L2Hit(e);
        }
        FetchLookup::Miss
    }

    /// Installs a walked translation on the fetch side (L2 + iTLB, with
    /// victim migration into the dTLB).
    pub fn fill_fetch(&mut self, world: FetchWorld, entry: TlbEntry) {
        self.stats.walks += 1;
        self.l2.insert(entry);
        self.fill_itlb_with_migration(world, entry);
    }

    /// Counts `n` iTLB hits on the MRU way, the fetches the machine
    /// serves from a fetch cursor without a lookup.
    #[inline]
    pub(crate) fn count_itlb_hits(&mut self, world: FetchWorld, n: u64) {
        self.itlb_mut(world).sets.stats.hits += n;
    }

    /// The §7.3 behaviour: an iTLB fill whose victim is re-homed into the
    /// shared dTLB, where userspace Prime+Probe can see it.
    fn fill_itlb_with_migration(&mut self, world: FetchWorld, entry: TlbEntry) {
        if let Some(victim) = self.itlb_mut(world).insert(entry) {
            self.stats.itlb_to_dtlb_migrations += 1;
            self.dtlb.insert(victim);
        }
    }

    /// Full hierarchy invalidate.
    pub fn flush(&mut self) {
        self.itlb_user.flush();
        self.itlb_kernel.flush();
        self.dtlb.flush();
        self.l2.flush();
    }

    /// Serialises all four structures plus the counters.
    pub fn save_state(&self, w: &mut Writer) {
        self.itlb_user.save_state(w);
        self.itlb_kernel.save_state(w);
        self.dtlb.save_state(w);
        self.l2.save_state(w);
        w.u64(self.stats.walks);
        w.u64(self.stats.itlb_to_dtlb_migrations);
    }

    /// Restores state written by [`TlbHierarchy::save_state`] into a
    /// hierarchy of identical geometry.
    ///
    /// # Errors
    ///
    /// [`BinError`] on truncation, corruption, or a geometry mismatch.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), BinError> {
        self.itlb_user.restore_state(r)?;
        self.itlb_kernel.restore_state(r)?;
        self.dtlb.restore_state(r)?;
        self.l2.restore_state(r)?;
        self.stats.walks = r.u64()?;
        self.stats.itlb_to_dtlb_migrations = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u64) -> TlbEntry {
        TlbEntry { vpn, pfn: vpn + 1000, perms: Perms::kernel_rwx() }
    }

    fn small_hierarchy() -> TlbHierarchy {
        TlbHierarchy::new(
            TlbParams { ways: 2, sets: 4 },
            TlbParams { ways: 3, sets: 8 },
            TlbParams { ways: 4, sets: 16 },
        )
    }

    #[test]
    fn tlb_lru_and_eviction() {
        let mut t = Tlb::new(TlbParams { ways: 2, sets: 4 });
        // vpns 0, 4, 8 all map to set 0.
        assert!(t.insert(entry(0)).is_none());
        assert!(t.insert(entry(4)).is_none());
        let victim = t.insert(entry(8)).expect("set overflow evicts");
        assert_eq!(victim.vpn, 0);
        assert!(t.contains(4) && t.contains(8) && !t.contains(0));
    }

    #[test]
    fn lookup_promotes_to_mru() {
        let mut t = Tlb::new(TlbParams { ways: 2, sets: 4 });
        t.insert(entry(0));
        t.insert(entry(4));
        assert!(t.lookup(0).is_some());
        let victim = t.insert(entry(8)).unwrap();
        assert_eq!(victim.vpn, 4, "entry 0 was refreshed, 4 is LRU");
    }

    #[test]
    fn version_moves_with_set_contents_and_lru_order_only() {
        let mut t = Tlb::new(TlbParams { ways: 2, sets: 4 });
        let mut seen = vec![t.version()];
        let mut moved = |t: &Tlb, expect: bool, what: &str| {
            let v = t.version();
            assert_eq!(!seen.contains(&v), expect, "{what}: version {v} after {seen:?}");
            seen.push(v);
        };
        t.insert(entry(0));
        moved(&t, true, "insert");
        t.insert(entry(4)); // set 0 is now [4, 0]
        moved(&t, true, "second insert");
        assert!(t.lookup(4).is_some());
        moved(&t, false, "MRU re-touch");
        assert!(t.lookup(1).is_none());
        moved(&t, false, "miss");
        assert!(t.lookup(0).is_some());
        moved(&t, true, "promotion");
        assert!(t.contains(4));
        moved(&t, false, "presence check");
        t.flush();
        moved(&t, true, "flush");
        let mut w = Writer::new();
        t.save_state(&mut w);
        t.restore_state(&mut Reader::new(&w.into_bytes())).unwrap();
        moved(&t, true, "restore");
        t.reset(TlbParams { ways: 2, sets: 4 });
        moved(&t, true, "reset");
        t.reset(TlbParams { ways: 4, sets: 8 });
        moved(&t, true, "reset to a new geometry");
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut t = Tlb::new(TlbParams { ways: 2, sets: 4 });
        t.insert(entry(0));
        let mut e = entry(0);
        e.pfn = 77;
        assert!(t.insert(e).is_none());
        assert_eq!(t.lookup(0).unwrap().pfn, 77);
        assert_eq!(t.occupancy(0), 1);
    }

    #[test]
    fn data_lookup_fills_from_l2() {
        let mut h = small_hierarchy();
        h.fill_data(entry(5));
        assert!(h.dtlb.contains(5));
        // Knock it out of the dTLB only: vpns 5, 13, 21 and 29 share dTLB
        // set 5 (3 ways), but 13 and 29 go to another L2 set.
        for vpn in [13, 21, 29] {
            h.fill_data(entry(vpn));
        }
        assert!(!h.dtlb.contains(5) && h.l2.contains(5));
        assert_eq!(h.lookup_data(5), DataLookup::L2Hit(entry(5)));
        // Now it is back in the dTLB.
        assert_eq!(h.lookup_data(5), DataLookup::DtlbHit(entry(5)));
    }

    #[test]
    fn data_miss_requires_walk() {
        let mut h = small_hierarchy();
        assert_eq!(h.lookup_data(9), DataLookup::Miss);
        h.fill_data(entry(9));
        assert_eq!(h.lookup_data(9), DataLookup::DtlbHit(entry(9)));
    }

    #[test]
    fn itlbs_are_private_per_world() {
        let mut h = small_hierarchy();
        h.fill_fetch(FetchWorld::Kernel, entry(3));
        assert!(h.itlb(FetchWorld::Kernel).contains(3));
        assert!(!h.itlb(FetchWorld::User).contains(3));
        // A user fetch of the same page misses its own iTLB and refills
        // from L2.
        assert_eq!(h.lookup_fetch(FetchWorld::User, 3), FetchLookup::L2Hit(entry(3)));
        assert!(h.itlb(FetchWorld::User).contains(3));
    }

    #[test]
    fn itlb_resident_entry_is_invisible_to_loads() {
        // §7.3: an entry only in the iTLB (and L2) does not hit on the
        // data side — loads must go to the L2 TLB.
        let mut h = small_hierarchy();
        h.fill_fetch(FetchWorld::Kernel, entry(7));
        assert!(!h.dtlb().contains(7));
        assert_eq!(h.lookup_data(7), DataLookup::L2Hit(entry(7)));
    }

    #[test]
    fn itlb_eviction_migrates_victim_into_dtlb() {
        // §7.3: filling an iTLB set past its associativity re-homes the
        // LRU entry into the shared dTLB. This is the mechanism the
        // instruction-gadget PoC (§8.1) depends on.
        let mut h = small_hierarchy();
        // iTLB: 2 ways, 4 sets; vpns 0,4,8 share iTLB set 0.
        h.fill_fetch(FetchWorld::Kernel, entry(0));
        h.fill_fetch(FetchWorld::Kernel, entry(4));
        assert!(!h.dtlb().contains(0));
        h.fill_fetch(FetchWorld::Kernel, entry(8)); // evicts vpn 0
        assert!(h.dtlb().contains(0), "victim must appear in the shared dTLB");
        assert_eq!(h.stats.itlb_to_dtlb_migrations, 1);
        // And it is now visible to loads as a dTLB hit.
        assert_eq!(h.lookup_data(0), DataLookup::DtlbHit(entry(0)));
    }

    #[test]
    fn flush_clears_everything() {
        let mut h = small_hierarchy();
        h.fill_data(entry(1));
        h.fill_fetch(FetchWorld::User, entry(2));
        h.flush();
        assert_eq!(h.lookup_data(1), DataLookup::Miss);
        assert_eq!(h.lookup_fetch(FetchWorld::User, 2), FetchLookup::Miss);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut h = small_hierarchy();
        h.fill_data(entry(1));
        let _ = h.lookup_data(1); // hit
        let _ = h.lookup_data(2); // miss (walk not performed)
        let (dtlb, l2) = (h.dtlb().stats(), h.l2().stats());
        assert_eq!(dtlb.hits, 1);
        assert_eq!(dtlb.misses, 1);
        assert_eq!(h.stats.walks, 1);
        assert_eq!(l2.misses, 1, "the full miss also missed L2");
        assert_eq!(dtlb.fills, 1);
        assert_eq!(l2.fills, 1);
    }

    #[test]
    fn save_restore_round_trips_the_hierarchy() {
        let mut h = small_hierarchy();
        h.fill_fetch(FetchWorld::Kernel, entry(0));
        h.fill_fetch(FetchWorld::Kernel, entry(4));
        h.fill_fetch(FetchWorld::Kernel, entry(8)); // migrates vpn 0 into dTLB
        h.fill_data(entry(9));
        let _ = h.lookup_data(9);
        let mut w = Writer::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = small_hierarchy();
        let mut r = Reader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(fresh.stats, h.stats);
        assert_eq!(fresh.dtlb().stats(), h.dtlb().stats());
        assert_eq!(fresh.itlb(FetchWorld::Kernel).stats(), h.itlb(FetchWorld::Kernel).stats());
        assert!(fresh.dtlb().contains(0), "migrated victim survives the round trip");
        assert!(fresh.itlb(FetchWorld::Kernel).contains(8));
        assert_eq!(fresh.lookup_data(9), DataLookup::DtlbHit(entry(9)));
        // Geometry mismatch is corruption, not a panic.
        let mut wrong = TlbHierarchy::new(
            TlbParams { ways: 2, sets: 8 },
            TlbParams { ways: 3, sets: 8 },
            TlbParams { ways: 4, sets: 16 },
        );
        let mut r = Reader::new(&bytes);
        assert!(wrong.restore_state(&mut r).is_err());
    }

    #[test]
    fn stats_split_itlb_worlds_and_count_evictions() {
        let mut h = small_hierarchy();
        h.fill_fetch(FetchWorld::Kernel, entry(0));
        h.fill_fetch(FetchWorld::User, entry(0));
        let _ = h.lookup_fetch(FetchWorld::Kernel, 0); // kernel hit
        let _ = h.lookup_fetch(FetchWorld::User, 1); // user miss (L2 miss too)
        let user = |h: &TlbHierarchy| h.itlb(FetchWorld::User).stats();
        let kernel = |h: &TlbHierarchy| h.itlb(FetchWorld::Kernel).stats();
        assert_eq!(kernel(&h).hits, 1);
        assert_eq!(user(&h).hits, 0);
        assert_eq!(user(&h).misses, 1);
        assert_eq!(kernel(&h).misses, 0);
        assert_eq!(kernel(&h).fills, 1);
        assert_eq!(user(&h).fills, 1);
        // Overflow kernel iTLB set 0 (2 ways; vpns 0,4,8 share it).
        h.fill_fetch(FetchWorld::Kernel, entry(4));
        h.fill_fetch(FetchWorld::Kernel, entry(8));
        assert_eq!(kernel(&h).evictions, 1);
        assert_eq!(user(&h).evictions, 0);
        // The migrated victim counts as a dTLB fill.
        assert_eq!(h.stats.itlb_to_dtlb_migrations, 1);
        assert_eq!(h.dtlb().stats().fills, 1);
    }
}
