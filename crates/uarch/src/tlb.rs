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

/// A single set-associative, true-LRU TLB.
///
/// Entries live in one flat allocation indexed `set * ways + way`, with
/// way 0 the MRU; only the first `occ[set]` ways of a set are live. LRU
/// maintenance is slice rotation within the set's window, so lookups,
/// fills and invalidates never allocate — this structure sits on every
/// simulated memory access.
#[derive(Clone, Debug)]
pub struct Tlb {
    params: TlbParams,
    /// Cached `sets - 1` (sets are a power of two).
    set_mask: usize,
    /// Flat MRU-first entry storage; slots beyond a set's occupancy are
    /// dead and never read.
    entries: Vec<TlbEntry>,
    /// Live-way count per set.
    occ: Vec<u16>,
    /// Bumped by everything that can change a set's contents or LRU
    /// order (see [`Tlb::version`]).
    version: u64,
}

/// Placeholder filling dead slots (never observable through the API).
const DEAD: TlbEntry = TlbEntry {
    vpn: 0,
    pfn: 0,
    perms: Perms { read: false, write: false, execute: false, user: false },
};

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(params: TlbParams) -> Self {
        assert!(params.ways > 0 && params.sets.is_power_of_two());
        Self {
            params,
            set_mask: params.sets - 1,
            entries: vec![DEAD; params.ways * params.sets],
            occ: vec![0; params.sets],
            version: 0,
        }
    }

    /// Returns this TLB to the state of `Tlb::new(params)`, flushing in
    /// place when the geometry is unchanged. The version moves on either
    /// way, so it never repeats over the TLB's lifetime.
    fn reset(&mut self, params: TlbParams) {
        if self.params == params {
            self.flush();
        } else {
            let version = self.version + 1;
            *self = Self::new(params);
            self.version = version;
        }
    }

    /// Changes whenever any set's contents or LRU order may have: on a
    /// promoting [`Tlb::lookup`], an insert, an invalidate, a flush, a
    /// restore or a reset. A lookup that re-touches its set's MRU way
    /// leaves it alone, so while the version holds, every entry that was
    /// its set's MRU way still is — the machine's fetch cursors rely on
    /// exactly this.
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// This TLB's geometry.
    pub fn params(&self) -> TlbParams {
        self.params
    }

    /// The set index a virtual page number maps to.
    pub fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & self.set_mask
    }

    /// Looks up a translation, promoting it to MRU on hit.
    #[inline]
    pub fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
        let set = self.set_of(vpn);
        let base = set * self.params.ways;
        let n = self.occ[set] as usize;
        let live = &mut self.entries[base..base + n];
        // Re-touching the MRU way (consecutive accesses to one page) needs
        // no promotion.
        match live.first() {
            Some(e) if e.vpn == vpn => Some(*e),
            _ => {
                let pos = live.iter().position(|e| e.vpn == vpn)?;
                let hit = live[pos];
                live.copy_within(..pos, 1);
                live[0] = hit;
                self.version += 1;
                Some(hit)
            }
        }
    }

    /// Presence check without LRU side effects.
    pub fn contains(&self, vpn: u64) -> bool {
        let set = self.set_of(vpn);
        let base = set * self.params.ways;
        self.entries[base..base + self.occ[set] as usize].iter().any(|e| e.vpn == vpn)
    }

    /// Inserts an entry as MRU, returning the evicted LRU victim if the
    /// set overflowed. Re-inserting an existing vpn replaces it.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.version += 1;
        let set = self.set_of(entry.vpn);
        let base = set * self.params.ways;
        let mut n = self.occ[set] as usize;
        let ways = &mut self.entries[base..base + self.params.ways];
        if let Some(pos) = ways[..n].iter().position(|e| e.vpn == entry.vpn) {
            // Remove in place (the replacement may carry a new pfn/perms).
            ways[pos..n].rotate_left(1);
            n -= 1;
            self.occ[set] -= 1;
        }
        if n == ways.len() {
            let victim = ways[n - 1];
            ways.rotate_right(1);
            ways[0] = entry;
            Some(victim)
        } else {
            ways[..=n].rotate_right(1);
            ways[0] = entry;
            self.occ[set] += 1;
            None
        }
    }

    /// Drops the entry for `vpn` if present.
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        let set = self.set_of(vpn);
        let base = set * self.params.ways;
        let n = self.occ[set] as usize;
        let live = &mut self.entries[base..base + n];
        if let Some(pos) = live.iter().position(|e| e.vpn == vpn) {
            live[pos..].rotate_left(1);
            self.occ[set] -= 1;
            self.version += 1;
            true
        } else {
            false
        }
    }

    /// Drops everything (a `tlbi`-style full invalidate).
    pub fn flush(&mut self) {
        self.occ.fill(0);
        self.version += 1;
    }

    /// Number of valid entries currently in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        self.occ[set] as usize
    }

    /// Serialises the live prefix of every set, MRU order included.
    pub fn save_state(&self, w: &mut pacman_telemetry::bin::Writer) {
        w.usize(self.occ.len());
        for (set, &n) in self.occ.iter().enumerate() {
            let base = set * self.params.ways;
            w.u16(n);
            for e in &self.entries[base..base + n as usize] {
                w.u64(e.vpn);
                w.u64(e.pfn);
                let p = &e.perms;
                w.u8(u8::from(p.read)
                    | u8::from(p.write) << 1
                    | u8::from(p.execute) << 2
                    | u8::from(p.user) << 3);
            }
        }
    }

    /// Restores state written by [`Tlb::save_state`] into a TLB of
    /// identical geometry.
    ///
    /// # Errors
    ///
    /// [`pacman_telemetry::bin::BinError`] on truncation, corruption,
    /// or a geometry mismatch.
    pub fn restore_state(
        &mut self,
        r: &mut pacman_telemetry::bin::Reader<'_>,
    ) -> Result<(), pacman_telemetry::bin::BinError> {
        use pacman_telemetry::bin::BinError;
        self.version += 1;
        let sets = r.usize()?;
        if sets != self.occ.len() {
            return Err(BinError::Corrupt(format!("set count {sets} != {}", self.occ.len())));
        }
        for set in 0..sets {
            let n = r.u16()?;
            if n as usize > self.params.ways {
                return Err(BinError::Corrupt(format!(
                    "occupancy {n} > {} ways",
                    self.params.ways
                )));
            }
            let base = set * self.params.ways;
            for way in 0..n as usize {
                let vpn = r.u64()?;
                let pfn = r.u64()?;
                let bits = r.u8()?;
                if bits > 0xF {
                    return Err(BinError::Corrupt(format!("perm bits {bits:#x}")));
                }
                self.entries[base + way] = TlbEntry {
                    vpn,
                    pfn,
                    perms: Perms {
                        read: bits & 1 != 0,
                        write: bits & 2 != 0,
                        execute: bits & 4 != 0,
                        user: bits & 8 != 0,
                    },
                };
            }
            self.occ[set] = n;
        }
        Ok(())
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

/// Per-structure hit/miss/fill/eviction counters, always on (plain `u64`
/// adds on paths that already do set scans; exported into a telemetry
/// registry only at snapshot boundaries).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct TlbStats {
    /// dTLB hits.
    pub dtlb_hits: u64,
    /// dTLB misses.
    pub dtlb_misses: u64,
    /// dTLB entry installs (refills, walks, and §7.3 migrations).
    pub dtlb_fills: u64,
    /// dTLB capacity evictions.
    pub dtlb_evictions: u64,
    /// iTLB hits (both worlds).
    pub itlb_hits: u64,
    /// iTLB misses (both worlds).
    pub itlb_misses: u64,
    /// User-world iTLB hits.
    pub itlb_user_hits: u64,
    /// User-world iTLB misses.
    pub itlb_user_misses: u64,
    /// User-world iTLB entry installs.
    pub itlb_user_fills: u64,
    /// User-world iTLB capacity evictions.
    pub itlb_user_evictions: u64,
    /// Kernel-world iTLB hits.
    pub itlb_kernel_hits: u64,
    /// Kernel-world iTLB misses.
    pub itlb_kernel_misses: u64,
    /// Kernel-world iTLB entry installs.
    pub itlb_kernel_fills: u64,
    /// Kernel-world iTLB capacity evictions.
    pub itlb_kernel_evictions: u64,
    /// L2 TLB hits.
    pub l2_hits: u64,
    /// L2 TLB misses (a full walk is required).
    pub l2_misses: u64,
    /// L2 TLB entry installs.
    pub l2_fills: u64,
    /// L2 TLB capacity evictions.
    pub l2_evictions: u64,
    /// Full page-table walks.
    pub walks: u64,
    /// iTLB victims migrated into the dTLB (the §7.3 backing-store path).
    pub itlb_to_dtlb_migrations: u64,
}

/// The full Figure 6 hierarchy.
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
            self.stats.dtlb_hits += 1;
            return DataLookup::DtlbHit(e);
        }
        self.stats.dtlb_misses += 1;
        if let Some(e) = self.l2.lookup(vpn) {
            self.stats.l2_hits += 1;
            self.dtlb_insert_counted(e);
            return DataLookup::L2Hit(e);
        }
        self.stats.l2_misses += 1;
        DataLookup::Miss
    }

    /// Installs a walked translation on the data side (L2 + dTLB).
    pub fn fill_data(&mut self, entry: TlbEntry) {
        self.stats.walks += 1;
        self.l2_insert_counted(entry);
        self.dtlb_insert_counted(entry);
    }

    /// Instruction-side lookup for a fetch at the given privilege.
    pub fn lookup_fetch(&mut self, world: FetchWorld, vpn: u64) -> FetchLookup {
        if let Some(e) = self.itlb_mut(world).lookup(vpn) {
            self.count_itlb_hits(world, 1);
            return FetchLookup::ItlbHit(e);
        }
        self.stats.itlb_misses += 1;
        match world {
            FetchWorld::User => self.stats.itlb_user_misses += 1,
            FetchWorld::Kernel => self.stats.itlb_kernel_misses += 1,
        }
        if let Some(e) = self.l2.lookup(vpn) {
            self.stats.l2_hits += 1;
            self.fill_itlb_with_migration(world, e);
            return FetchLookup::L2Hit(e);
        }
        self.stats.l2_misses += 1;
        FetchLookup::Miss
    }

    /// Installs a walked translation on the fetch side (L2 + iTLB, with
    /// victim migration into the dTLB).
    pub fn fill_fetch(&mut self, world: FetchWorld, entry: TlbEntry) {
        self.stats.walks += 1;
        self.l2_insert_counted(entry);
        self.fill_itlb_with_migration(world, entry);
    }

    /// The counter updates of `n` iTLB hits (also those of the fetches
    /// the machine serves from a fetch cursor).
    #[inline]
    pub(crate) fn count_itlb_hits(&mut self, world: FetchWorld, n: u64) {
        self.stats.itlb_hits += n;
        match world {
            FetchWorld::User => self.stats.itlb_user_hits += n,
            FetchWorld::Kernel => self.stats.itlb_kernel_hits += n,
        }
    }

    /// The §7.3 behaviour: an iTLB fill whose victim is re-homed into the
    /// shared dTLB, where userspace Prime+Probe can see it.
    fn fill_itlb_with_migration(&mut self, world: FetchWorld, entry: TlbEntry) {
        let victim = self.itlb_mut(world).insert(entry);
        match world {
            FetchWorld::User => {
                self.stats.itlb_user_fills += 1;
                self.stats.itlb_user_evictions += u64::from(victim.is_some());
            }
            FetchWorld::Kernel => {
                self.stats.itlb_kernel_fills += 1;
                self.stats.itlb_kernel_evictions += u64::from(victim.is_some());
            }
        }
        if let Some(victim) = victim {
            self.stats.itlb_to_dtlb_migrations += 1;
            self.dtlb_insert_counted(victim);
        }
    }

    fn dtlb_insert_counted(&mut self, entry: TlbEntry) {
        self.stats.dtlb_fills += 1;
        if self.dtlb.insert(entry).is_some() {
            self.stats.dtlb_evictions += 1;
        }
    }

    fn l2_insert_counted(&mut self, entry: TlbEntry) {
        self.stats.l2_fills += 1;
        if self.l2.insert(entry).is_some() {
            self.stats.l2_evictions += 1;
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
    pub fn save_state(&self, w: &mut pacman_telemetry::bin::Writer) {
        self.itlb_user.save_state(w);
        self.itlb_kernel.save_state(w);
        self.dtlb.save_state(w);
        self.l2.save_state(w);
        let s = &self.stats;
        for v in [
            s.dtlb_hits,
            s.dtlb_misses,
            s.dtlb_fills,
            s.dtlb_evictions,
            s.itlb_hits,
            s.itlb_misses,
            s.itlb_user_hits,
            s.itlb_user_misses,
            s.itlb_user_fills,
            s.itlb_user_evictions,
            s.itlb_kernel_hits,
            s.itlb_kernel_misses,
            s.itlb_kernel_fills,
            s.itlb_kernel_evictions,
            s.l2_hits,
            s.l2_misses,
            s.l2_fills,
            s.l2_evictions,
            s.walks,
            s.itlb_to_dtlb_migrations,
        ] {
            w.u64(v);
        }
    }

    /// Restores state written by [`TlbHierarchy::save_state`] into a
    /// hierarchy of identical geometry.
    ///
    /// # Errors
    ///
    /// [`pacman_telemetry::bin::BinError`] on truncation, corruption,
    /// or a geometry mismatch.
    pub fn restore_state(
        &mut self,
        r: &mut pacman_telemetry::bin::Reader<'_>,
    ) -> Result<(), pacman_telemetry::bin::BinError> {
        self.itlb_user.restore_state(r)?;
        self.itlb_kernel.restore_state(r)?;
        self.dtlb.restore_state(r)?;
        self.l2.restore_state(r)?;
        let s = &mut self.stats;
        for v in [
            &mut s.dtlb_hits,
            &mut s.dtlb_misses,
            &mut s.dtlb_fills,
            &mut s.dtlb_evictions,
            &mut s.itlb_hits,
            &mut s.itlb_misses,
            &mut s.itlb_user_hits,
            &mut s.itlb_user_misses,
            &mut s.itlb_user_fills,
            &mut s.itlb_user_evictions,
            &mut s.itlb_kernel_hits,
            &mut s.itlb_kernel_misses,
            &mut s.itlb_kernel_fills,
            &mut s.itlb_kernel_evictions,
            &mut s.l2_hits,
            &mut s.l2_misses,
            &mut s.l2_fills,
            &mut s.l2_evictions,
            &mut s.walks,
            &mut s.itlb_to_dtlb_migrations,
        ] {
            *v = r.u64()?;
        }
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
        assert!(!t.invalidate(9));
        moved(&t, false, "invalidate of an absent vpn");
        assert!(t.invalidate(4));
        moved(&t, true, "invalidate");
        t.flush();
        moved(&t, true, "flush");
        let mut w = pacman_telemetry::bin::Writer::new();
        t.save_state(&mut w);
        t.restore_state(&mut pacman_telemetry::bin::Reader::new(&w.into_bytes())).unwrap();
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
        // Knock it out of the dTLB only.
        assert!(h.dtlb.contains(5));
        h.dtlb.invalidate(5);
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
        assert_eq!(h.stats.dtlb_hits, 1);
        assert_eq!(h.stats.dtlb_misses, 1);
        assert_eq!(h.stats.walks, 1);
        assert_eq!(h.stats.l2_misses, 1, "the full miss also missed L2");
        assert_eq!(h.stats.dtlb_fills, 1);
        assert_eq!(h.stats.l2_fills, 1);
    }

    #[test]
    fn save_restore_round_trips_the_hierarchy() {
        let mut h = small_hierarchy();
        h.fill_fetch(FetchWorld::Kernel, entry(0));
        h.fill_fetch(FetchWorld::Kernel, entry(4));
        h.fill_fetch(FetchWorld::Kernel, entry(8)); // migrates vpn 0 into dTLB
        h.fill_data(entry(9));
        let _ = h.lookup_data(9);
        let mut w = pacman_telemetry::bin::Writer::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = small_hierarchy();
        let mut r = pacman_telemetry::bin::Reader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(fresh.stats, h.stats);
        assert!(fresh.dtlb().contains(0), "migrated victim survives the round trip");
        assert!(fresh.itlb(FetchWorld::Kernel).contains(8));
        assert_eq!(fresh.lookup_data(9), DataLookup::DtlbHit(entry(9)));
        // Geometry mismatch is corruption, not a panic.
        let mut wrong = TlbHierarchy::new(
            TlbParams { ways: 2, sets: 8 },
            TlbParams { ways: 3, sets: 8 },
            TlbParams { ways: 4, sets: 16 },
        );
        let mut r = pacman_telemetry::bin::Reader::new(&bytes);
        assert!(wrong.restore_state(&mut r).is_err());
    }

    #[test]
    fn stats_split_itlb_worlds_and_count_evictions() {
        let mut h = small_hierarchy();
        h.fill_fetch(FetchWorld::Kernel, entry(0));
        h.fill_fetch(FetchWorld::User, entry(0));
        let _ = h.lookup_fetch(FetchWorld::Kernel, 0); // kernel hit
        let _ = h.lookup_fetch(FetchWorld::User, 1); // user miss (L2 miss too)
        assert_eq!(h.stats.itlb_kernel_hits, 1);
        assert_eq!(h.stats.itlb_user_hits, 0);
        assert_eq!(h.stats.itlb_user_misses, 1);
        assert_eq!(h.stats.itlb_kernel_misses, 0);
        assert_eq!(h.stats.itlb_kernel_fills, 1);
        assert_eq!(h.stats.itlb_user_fills, 1);
        // Overflow kernel iTLB set 0 (2 ways; vpns 0,4,8 share it).
        h.fill_fetch(FetchWorld::Kernel, entry(4));
        h.fill_fetch(FetchWorld::Kernel, entry(8));
        assert_eq!(h.stats.itlb_kernel_evictions, 1);
        assert_eq!(h.stats.itlb_user_evictions, 0);
        // The migrated victim counts as a dTLB fill.
        assert_eq!(h.stats.itlb_to_dtlb_migrations, 1);
        assert!(h.stats.dtlb_fills >= 1);
    }
}
