//! Set-associative caches with true-LRU replacement, and the one
//! set-associative structure they share with the TLBs.

use pacman_telemetry::bin::{BinError, Reader, Writer};

/// Geometry of one cache level.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct CacheParams {
    /// Associativity.
    pub ways: usize,
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Line size in bytes (must be a power of two).
    pub line: u64,
}

impl CacheParams {
    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.ways as u64 * self.sets as u64 * self.line
    }
}

/// One way of a [`SetAssoc`]: what a set stores, looked up by its key.
/// The caches store the bare line key; the TLBs store a whole
/// [`crate::tlb::TlbEntry`] inline, keyed by its vpn.
pub(crate) trait Way: Copy {
    /// Filler for dead slots beyond a set's live prefix (never read).
    const EMPTY: Self;
    /// The key this way is found by; its set is the key's low bits.
    fn key(&self) -> u64;
    /// Writes this way into a snapshot.
    fn save(&self, w: &mut Writer);
    /// Reads a way written by [`Way::save`].
    fn restore(r: &mut Reader<'_>) -> Result<Self, BinError>;
}

impl Way for u64 {
    const EMPTY: Self = 0;

    #[inline(always)]
    fn key(&self) -> u64 {
        *self
    }

    fn save(&self, w: &mut Writer) {
        w.u64(*self);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, BinError> {
        r.u64()
    }
}

/// The one set-associative, true-LRU structure: every cache level
/// ([`Cache`], ways = line keys) and every TLB ([`crate::tlb::Tlb`],
/// ways = entries keyed by vpn) is one of these.
///
/// Ways live in one flat MRU-first allocation indexed `set * ways +
/// way`; only the first `occ[set]` ways of a set are live. LRU
/// maintenance is slice rotation within the set's window, so no lookup,
/// fill or flush ever allocates. It also keeps the structure's
/// hit/miss/fill/eviction counters.
#[derive(Clone, Debug)]
pub(crate) struct SetAssoc<W> {
    ways: usize,
    /// Cached `sets - 1` (sets are a power of two).
    set_mask: usize,
    /// Flat MRU-first way storage; slots beyond a set's occupancy are
    /// dead and never read.
    slots: Vec<W>,
    /// Live-way count per set.
    occ: Vec<u16>,
    /// Counters: [`SetAssoc::lookup`] counts hits and misses,
    /// [`SetAssoc::insert`] fills and evictions.
    pub(crate) stats: CacheStats,
}

impl<W: Way> SetAssoc<W> {
    pub(crate) fn new(ways: usize, sets: usize) -> Self {
        assert!(ways > 0 && sets.is_power_of_two(), "need ways>0 and power-of-two sets");
        Self {
            ways,
            set_mask: sets - 1,
            slots: vec![W::EMPTY; ways * sets],
            occ: vec![0; sets],
            stats: CacheStats::default(),
        }
    }

    /// Returns to the state of `SetAssoc::new(ways, sets)`, flushing in
    /// place when the geometry is unchanged so a reboot does not
    /// reallocate (and re-fill) the way array.
    pub(crate) fn reset(&mut self, ways: usize, sets: usize) {
        if (self.ways, self.occ.len()) == (ways, sets) {
            self.flush();
            self.stats = CacheStats::default();
        } else {
            *self = Self::new(ways, sets);
        }
    }

    /// Associativity.
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.occ.len()
    }

    pub(crate) fn set_index(&self, key: u64) -> usize {
        (key as usize) & self.set_mask
    }

    /// Looks up `key`, counting a hit or a miss. A hit is promoted to
    /// MRU and returned with whether that moved it: re-touching the MRU
    /// way, by far the most common hit (consecutive accesses to one line
    /// or page), changes nothing.
    #[inline]
    pub(crate) fn lookup(&mut self, key: u64) -> Option<(W, bool)> {
        let set = self.set_index(key);
        let base = set * self.ways;
        let live = &mut self.slots[base..base + self.occ[set] as usize];
        match live.first() {
            Some(w) if w.key() == key => {
                self.stats.hits += 1;
                Some((*w, false))
            }
            _ => {
                let Some(pos) = live.iter().position(|w| w.key() == key) else {
                    self.stats.misses += 1;
                    return None;
                };
                let hit = live[pos];
                live.copy_within(..pos, 1);
                live[0] = hit;
                self.stats.hits += 1;
                Some((hit, true))
            }
        }
    }

    /// Checks for presence without perturbing LRU state or counters.
    pub(crate) fn contains(&self, key: u64) -> bool {
        let set = self.set_index(key);
        let base = set * self.ways;
        self.slots[base..base + self.occ[set] as usize].iter().any(|w| w.key() == key)
    }

    /// Installs `way` as MRU, counting a fill, and returns the evicted LRU
    /// victim (counted too) if the set was full. A way whose key is
    /// present replaces it (a TLB refill may carry a new pfn or perms).
    pub(crate) fn insert(&mut self, way: W) -> Option<W> {
        let set = self.set_index(way.key());
        let base = set * self.ways;
        let n = self.occ[set] as usize;
        let ways = &mut self.slots[base..base + self.ways];
        self.stats.fills += 1;
        let (shift, victim) = match ways[..n].iter().position(|w| w.key() == way.key()) {
            Some(pos) => (pos + 1, None),
            None if n == ways.len() => (n, Some(ways[n - 1])),
            None => {
                self.occ[set] += 1;
                (n + 1, None)
            }
        };
        ways[..shift].rotate_right(1);
        ways[0] = way;
        self.stats.evictions += u64::from(victim.is_some());
        victim
    }

    pub(crate) fn flush(&mut self) {
        // Dead slots beyond the live prefix are never read; clearing the
        // occupancy counters is the whole invalidate.
        self.occ.fill(0);
    }

    /// Number of live ways in `set`.
    pub(crate) fn occupancy(&self, set: usize) -> usize {
        self.occ[set] as usize
    }

    /// The live ways of `set`, MRU first.
    #[cfg(test)]
    fn live(&self, set: usize) -> &[W] {
        &self.slots[set * self.ways..][..self.occ[set] as usize]
    }

    /// Serialises the live prefix of every set (MRU order included; dead
    /// slots carry no state worth snapshotting), then the counters.
    pub(crate) fn save_state(&self, w: &mut Writer) {
        w.usize(self.occ.len());
        for (set, &n) in self.occ.iter().enumerate() {
            let base = set * self.ways;
            w.u16(n);
            for way in &self.slots[base..base + n as usize] {
                way.save(w);
            }
        }
        let s = &self.stats;
        for v in [s.hits, s.misses, s.fills, s.evictions] {
            w.u64(v);
        }
    }

    /// Restores state written by [`SetAssoc::save_state`] into a
    /// structure of identical geometry.
    pub(crate) fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), BinError> {
        let sets = r.usize()?;
        if sets != self.occ.len() {
            return Err(BinError::Corrupt(format!("set count {sets} != {}", self.occ.len())));
        }
        for set in 0..sets {
            let n = r.u16()?;
            if n as usize > self.ways {
                return Err(BinError::Corrupt(format!("occupancy {n} > {} ways", self.ways)));
            }
            let base = set * self.ways;
            for way in 0..n as usize {
                self.slots[base + way] = W::restore(r)?;
            }
            self.occ[set] = n;
        }
        let s = &mut self.stats;
        for v in [&mut s.hits, &mut s.misses, &mut s.fills, &mut s.evictions] {
            *v = r.u64()?;
        }
        Ok(())
    }
}

/// Always-on hit/miss/fill/eviction counters of one cache level or TLB
/// (plain `u64` adds; exported into a telemetry registry at snapshot
/// time).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found the line (or translation).
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines (or entries) installed.
    pub fills: u64,
    /// Lines (or entries) evicted by a fill into a full set.
    pub evictions: u64,
}

/// A physically-indexed cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    params: CacheParams,
    /// Line keys (`pa >> line_shift`) at the effective associativity.
    pub(crate) sets: SetAssoc<u64>,
    line_shift: u32,
    /// Line key of the most recent access — always its set's MRU way —
    /// or [`NO_LINE`] after a flush or restore.
    last: u64,
}

/// `last` when no access happened since the contents changed wholesale
/// (line keys are addresses shifted right, so never this value).
const NO_LINE: u64 = u64::MAX;

/// Outcome of a cache lookup.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; it has now been filled.
    Miss,
}

impl Cache {
    /// Creates a cache with the given geometry, optionally overriding the
    /// *effective* associativity used by the replacement logic (paper
    /// footnote 5: the M1 L1D behaves as if it had half its reported
    /// ways).
    pub fn new(params: CacheParams, effective_ways: Option<usize>) -> Self {
        Self {
            params,
            sets: SetAssoc::new(effective_ways.unwrap_or(params.ways), params.sets),
            line_shift: params.line.trailing_zeros(),
            last: NO_LINE,
        }
    }

    /// Returns this cache to the state of `Cache::new(params,
    /// effective_ways)`, flushing in place when the geometry is unchanged
    /// so a reboot does not reallocate (and re-zero) the tag array.
    pub(crate) fn reset(&mut self, params: CacheParams, effective_ways: Option<usize>) {
        self.sets.reset(effective_ways.unwrap_or(params.ways), params.sets);
        self.params = params;
        self.line_shift = params.line.trailing_zeros();
        self.last = NO_LINE;
    }

    /// The reported geometry (what the configuration registers expose).
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Access counters (for experiment reporting).
    pub fn stats(&self) -> CacheStats {
        self.sets.stats
    }

    fn line_key(&self, pa: u64) -> u64 {
        pa >> self.line_shift
    }

    /// The set a physical address maps to.
    pub fn set_of(&self, pa: u64) -> usize {
        self.sets.set_index(self.line_key(pa))
    }

    /// Accesses `pa`: returns hit/miss and fills the line on miss.
    pub fn access(&mut self, pa: u64) -> CacheOutcome {
        let key = self.line_key(pa);
        self.last = key;
        if self.sets.lookup(key).is_some() {
            CacheOutcome::Hit
        } else {
            self.sets.insert(key);
            CacheOutcome::Miss
        }
    }

    /// Whether `pa` lies in the most recently accessed line, which is
    /// still its set's MRU way, so [`Cache::access`] would hit it without
    /// promotion.
    #[inline]
    pub(crate) fn in_last_line(&self, pa: u64) -> bool {
        self.line_key(pa) == self.last
    }

    /// The line size in bytes.
    pub(crate) fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Presence check without LRU update (for assertions in tests).
    pub fn contains(&self, pa: u64) -> bool {
        self.sets.contains(self.line_key(pa))
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.sets.flush();
        self.last = NO_LINE;
    }

    /// Serialises resident lines (LRU order included) and counters.
    pub fn save_state(&self, w: &mut Writer) {
        self.sets.save_state(w);
    }

    /// Restores state written by [`Cache::save_state`] into a cache of
    /// identical geometry.
    ///
    /// # Errors
    ///
    /// [`BinError`] on truncation, corruption, or a geometry mismatch.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), BinError> {
        self.last = NO_LINE;
        self.sets.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheParams { ways: 2, sets: 4, line: 64 }, None)
    }

    #[test]
    fn total_bytes() {
        assert_eq!(CacheParams { ways: 8, sets: 256, line: 64 }.total_bytes(), 128 * 1024);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert_eq!(c.access(0x1000), CacheOutcome::Miss);
        assert_eq!(c.access(0x1000), CacheOutcome::Hit);
        assert_eq!(c.access(0x1008), CacheOutcome::Hit, "same line");
        assert_eq!(c.access(0x1040), CacheOutcome::Miss, "next line");
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = small();
        // Three lines mapping to set 0 (line addresses multiples of 4*64).
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        assert_eq!(c.set_of(a), c.set_of(b));
        assert_eq!(c.set_of(a), c.set_of(d));
        c.access(a);
        c.access(b);
        c.access(d); // evicts a (LRU)
        assert!(!c.contains(a));
        assert!(c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn touch_refreshes_lru_order() {
        let mut c = small();
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.access(a);
        c.access(b);
        c.access(a); // a becomes MRU
        c.access(d); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
    }

    #[test]
    fn effective_ways_shrink_associativity() {
        let mut c = Cache::new(CacheParams { ways: 8, sets: 4, line: 64 }, Some(2));
        assert_eq!(c.params().ways, 8, "reported geometry unchanged");
        let stride = 4 * 64;
        c.access(0);
        c.access(stride);
        c.access(2 * stride);
        assert!(!c.contains(0), "third fill must evict with effective 2 ways");
    }

    #[test]
    fn stats_count_every_outcome() {
        let mut c = small();
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.access(a); // miss + fill
        c.access(a); // hit
        c.access(b); // miss + fill
        c.access(d); // miss + fill + eviction of a
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 3, fills: 3, evictions: 1 });
    }

    #[test]
    fn flush_empties() {
        let mut c = small();
        c.access(0x40);
        c.flush();
        assert!(!c.contains(0x40));
    }

    #[test]
    fn save_restore_preserves_lru_order_and_stats() {
        let mut c = small();
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.access(a);
        c.access(b);
        c.access(a); // a is MRU, b is LRU
        let mut w = Writer::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = small();
        let mut r = Reader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(fresh.stats(), c.stats());
        fresh.access(d); // must evict b, the restored LRU
        assert!(fresh.contains(a));
        assert!(!fresh.contains(b));
        // Truncation at any point is an error, not a panic.
        let mut short = small();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(short.restore_state(&mut r).is_err());
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = small();
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.access(a);
        c.access(b);
        assert!(c.contains(a)); // probe a; must NOT make it MRU
        c.access(d); // should evict a (still LRU)
        assert!(!c.contains(a));
    }

    /// Model-based check of the one [`SetAssoc`], for both way types,
    /// against a naive per-set `VecDeque` LRU.
    mod model {
        use std::collections::VecDeque;
        use std::fmt::Debug;

        use proptest::prelude::*;

        use super::super::{CacheStats, SetAssoc, Way};
        use crate::paging::Perms;
        use crate::tlb::{Tlb, TlbEntry, TlbParams};

        #[derive(Copy, Clone, Debug)]
        enum Op {
            Lookup(u64),
            Contains(u64),
            /// A key and a payload (a TLB entry's pfn and perms).
            Insert(u64, u64),
            Flush,
        }

        /// Mostly lookups and inserts over 24 keys, so small sets fill,
        /// evict and re-touch; a flush now and then.
        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let op = (0u8..32, 0u64..24, 0u64..16).prop_map(|(kind, key, payload)| match kind {
                0 => Op::Flush,
                1..=12 => Op::Lookup(key),
                13..=16 => Op::Contains(key),
                _ => Op::Insert(key, payload),
            });
            prop::collection::vec(op, 0..200)
        }

        /// A structure under test: the bare [`SetAssoc`] or a [`Tlb`]
        /// (which adds a version).
        trait Subject {
            type W: Way + PartialEq + Debug;
            fn way(key: u64, payload: u64) -> Self::W;
            fn sets(&self) -> &SetAssoc<Self::W>;
            fn lookup(&mut self, key: u64) -> Option<Self::W>;
            fn insert(&mut self, way: Self::W) -> Option<Self::W>;
            fn flush(&mut self);
            fn version(&self) -> Option<u64>;
        }

        impl Subject for SetAssoc<u64> {
            type W = u64;
            fn way(key: u64, _: u64) -> u64 {
                key
            }
            fn sets(&self) -> &SetAssoc<u64> {
                self
            }
            fn lookup(&mut self, key: u64) -> Option<u64> {
                SetAssoc::lookup(self, key).map(|(w, _)| w)
            }
            fn insert(&mut self, way: u64) -> Option<u64> {
                SetAssoc::insert(self, way)
            }
            fn flush(&mut self) {
                SetAssoc::flush(self);
            }
            fn version(&self) -> Option<u64> {
                None
            }
        }

        impl Subject for Tlb {
            type W = TlbEntry;
            fn way(vpn: u64, payload: u64) -> TlbEntry {
                let bit = |i: u32| payload >> i & 1 != 0;
                let perms = Perms { read: bit(0), write: bit(1), execute: bit(2), user: bit(3) };
                TlbEntry { vpn, pfn: payload * 1000 + vpn, perms }
            }
            fn sets(&self) -> &SetAssoc<TlbEntry> {
                &self.sets
            }
            fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
                Tlb::lookup(self, vpn)
            }
            fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
                Tlb::insert(self, entry)
            }
            fn flush(&mut self) {
                Tlb::flush(self);
            }
            fn version(&self) -> Option<u64> {
                Some(Tlb::version(self))
            }
        }

        /// Runs `ops` on `subject` and on the model (one MRU-first deque
        /// per set), comparing every answer, victim, set (contents and
        /// MRU order), occupancy and counter after each step. A version,
        /// if the subject has one, must move whenever a set changed, and
        /// must hold across lookups and presence checks that changed
        /// nothing (an MRU re-touch, a miss).
        fn check<S: Subject>(mut subject: S, ways: usize, ops: &[Op]) -> Result<(), TestCaseError> {
            let sets = subject.sets().sets();
            let mut model: Vec<VecDeque<S::W>> = vec![VecDeque::new(); sets];
            let mut stats = CacheStats::default();
            let set_of = |key: u64| key as usize & (sets - 1);
            for (step, &op) in ops.iter().enumerate() {
                let (before, version) = (model.clone(), subject.version());
                match op {
                    Op::Lookup(key) => {
                        let set = &mut model[set_of(key)];
                        let want = set.iter().position(|w| w.key() == key).map(|pos| {
                            let w = set.remove(pos).expect("position is live");
                            set.push_front(w);
                            w
                        });
                        stats.hits += u64::from(want.is_some());
                        stats.misses += u64::from(want.is_none());
                        let got = subject.lookup(key);
                        prop_assert!(got == want, "step {step} {op:?}: {got:?}, want {want:?}");
                    }
                    Op::Contains(key) => {
                        let want = model[set_of(key)].iter().any(|w| w.key() == key);
                        let got = subject.sets().contains(key);
                        prop_assert!(got == want, "step {step} {op:?}: {got}, want {want}");
                    }
                    Op::Insert(key, payload) => {
                        let set = &mut model[set_of(key)];
                        let victim = match set.iter().position(|w| w.key() == key) {
                            Some(pos) => {
                                set.remove(pos);
                                None
                            }
                            None if set.len() == ways => set.pop_back(),
                            None => None,
                        };
                        set.push_front(S::way(key, payload));
                        stats.fills += 1;
                        stats.evictions += u64::from(victim.is_some());
                        let got = subject.insert(S::way(key, payload));
                        prop_assert!(got == victim, "step {step} {op:?}: {got:?}, want {victim:?}");
                    }
                    Op::Flush => {
                        model.iter_mut().for_each(VecDeque::clear);
                        subject.flush();
                    }
                }
                for (set, want) in model.iter().enumerate() {
                    let (n, live) = (subject.sets().occupancy(set), subject.sets().live(set));
                    prop_assert!(
                        n == want.len() && live.iter().eq(want),
                        "step {step} {op:?}: set {set} holds {n} {live:?}, want {want:?} (MRU first)"
                    );
                }
                let got = subject.sets().stats;
                prop_assert!(got == stats, "step {step} {op:?}: {got:?}, want {stats:?}");
                let moved = subject.version() != version;
                if model != before {
                    prop_assert!(moved || version.is_none(), "step {step} {op:?} kept the version");
                } else if matches!(op, Op::Lookup(_) | Op::Contains(_)) {
                    prop_assert!(
                        !moved,
                        "step {step} {op:?} changed nothing but moved the version"
                    );
                }
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn set_assoc_matches_a_naive_lru(ways in 1usize..5, log_sets in 0u32..3, ops in ops()) {
                check(SetAssoc::<u64>::new(ways, 1 << log_sets), ways, &ops)?;
            }

            #[test]
            fn tlb_matches_a_naive_lru_and_versions_every_change(
                ways in 1usize..5,
                log_sets in 0u32..3,
                ops in ops(),
            ) {
                check(Tlb::new(TlbParams { ways, sets: 1 << log_sets }), ways, &ops)?;
            }
        }
    }
}
