//! Set-associative caches with true-LRU replacement.

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

/// A generic set-associative, true-LRU lookup structure over `u64` tags.
///
/// Shared by the caches (tag = line address) and, through
/// [`crate::tlb::Tlb`], the TLBs (tag = virtual page number, payload
/// carried separately).
#[derive(Clone, Debug)]
pub(crate) struct SetAssoc {
    ways: usize,
    /// Cached `sets - 1` (sets are a power of two).
    set_mask: usize,
    /// Flat MRU-first tag storage, indexed `set * ways + way`. Only the
    /// first `occ[set]` ways of each set are live; everything runs on
    /// slice rotations, so no access ever allocates.
    lines: Vec<u64>,
    /// Live-way count per set.
    occ: Vec<u16>,
}

impl SetAssoc {
    pub(crate) fn new(ways: usize, sets: usize) -> Self {
        assert!(ways > 0 && sets.is_power_of_two(), "need ways>0 and power-of-two sets");
        Self { ways, set_mask: sets - 1, lines: vec![0; ways * sets], occ: vec![0; sets] }
    }

    pub(crate) fn set_index(&self, key: u64) -> usize {
        (key as usize) & self.set_mask
    }

    /// Looks up `key`; on hit, promotes it to MRU and returns true.
    #[inline]
    pub(crate) fn touch(&mut self, key: u64) -> bool {
        let set = self.set_index(key);
        let base = set * self.ways;
        let n = self.occ[set] as usize;
        let live = &mut self.lines[base..base + n];
        // Re-touching the MRU way is the overwhelmingly common case
        // (sequential fetches share a line); it needs no promotion.
        if live.first() == Some(&key) {
            return true;
        }
        match live.iter().position(|&t| t == key) {
            Some(pos) => {
                live.copy_within(..pos, 1);
                live[0] = key;
                true
            }
            None => false,
        }
    }

    /// Checks for presence without perturbing LRU state.
    pub(crate) fn probe(&self, key: u64) -> bool {
        let set = self.set_index(key);
        let base = set * self.ways;
        self.lines[base..base + self.occ[set] as usize].contains(&key)
    }

    /// Inserts `key` as MRU; returns the evicted LRU victim if the set was
    /// full. Inserting a present key just promotes it.
    pub(crate) fn insert(&mut self, key: u64) -> Option<u64> {
        let set = self.set_index(key);
        let base = set * self.ways;
        let n = self.occ[set] as usize;
        let ways = &mut self.lines[base..base + self.ways];
        if let Some(pos) = ways[..n].iter().position(|&t| t == key) {
            ways[..=pos].rotate_right(1);
            return None;
        }
        if n == ways.len() {
            let victim = ways[n - 1];
            ways.rotate_right(1);
            ways[0] = key;
            Some(victim)
        } else {
            ways[..=n].rotate_right(1);
            ways[0] = key;
            self.occ[set] += 1;
            None
        }
    }

    pub(crate) fn flush(&mut self) {
        // Dead tags beyond the live prefix are never read; clearing the
        // occupancy counters is the whole invalidate.
        self.occ.fill(0);
    }

    /// Serialises only the live prefix of every set (dead slots are
    /// never read, so they carry no state worth snapshotting).
    pub(crate) fn save_state(&self, w: &mut pacman_telemetry::bin::Writer) {
        w.usize(self.occ.len());
        for (set, &n) in self.occ.iter().enumerate() {
            let base = set * self.ways;
            w.u16(n);
            for &tag in &self.lines[base..base + n as usize] {
                w.u64(tag);
            }
        }
    }

    /// Restores state written by [`SetAssoc::save_state`] into a
    /// structure of identical geometry.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut pacman_telemetry::bin::Reader<'_>,
    ) -> Result<(), pacman_telemetry::bin::BinError> {
        use pacman_telemetry::bin::BinError;
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
                self.lines[base + way] = r.u64()?;
            }
            self.occ[set] = n;
        }
        Ok(())
    }
}

/// Always-on hit/miss/fill/eviction counters for one cache level (plain
/// `u64` adds; exported into a telemetry registry at snapshot time).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that missed (and triggered a fill).
    pub misses: u64,
    /// Lines installed.
    pub fills: u64,
    /// Lines evicted by a fill into a full set.
    pub evictions: u64,
}

/// A physically-indexed cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    params: CacheParams,
    inner: SetAssoc,
    line_shift: u32,
    /// Line key of the most recent access — always its set's MRU way —
    /// or [`NO_LINE`] after a flush or restore.
    last: u64,
    /// Access counters (public for experiment reporting).
    pub stats: CacheStats,
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
        let ways = effective_ways.unwrap_or(params.ways);
        let line_shift = params.line.trailing_zeros();
        Self {
            params,
            inner: SetAssoc::new(ways, params.sets),
            line_shift,
            last: NO_LINE,
            stats: CacheStats::default(),
        }
    }

    /// Returns this cache to the state of `Cache::new(params,
    /// effective_ways)`, flushing in place when the geometry is unchanged
    /// so a reboot does not reallocate (and re-zero) the tag array.
    pub(crate) fn reset(&mut self, params: CacheParams, effective_ways: Option<usize>) {
        if self.params == params && self.inner.ways == effective_ways.unwrap_or(params.ways) {
            self.flush();
            self.stats = CacheStats::default();
        } else {
            *self = Self::new(params, effective_ways);
        }
    }

    /// The reported geometry (what the configuration registers expose).
    pub fn params(&self) -> CacheParams {
        self.params
    }

    fn line_key(&self, pa: u64) -> u64 {
        pa >> self.line_shift
    }

    /// The set a physical address maps to.
    pub fn set_of(&self, pa: u64) -> usize {
        self.inner.set_index(self.line_key(pa))
    }

    /// Accesses `pa`: returns hit/miss and fills the line on miss.
    pub fn access(&mut self, pa: u64) -> CacheOutcome {
        let key = self.line_key(pa);
        self.last = key;
        if self.inner.touch(key) {
            self.stats.hits += 1;
            CacheOutcome::Hit
        } else {
            self.stats.misses += 1;
            self.stats.fills += 1;
            if self.inner.insert(key).is_some() {
                self.stats.evictions += 1;
            }
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
        self.inner.probe(self.line_key(pa))
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.inner.flush();
        self.last = NO_LINE;
    }

    /// Serialises resident lines (LRU order included) and counters.
    pub fn save_state(&self, w: &mut pacman_telemetry::bin::Writer) {
        self.inner.save_state(w);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.fills);
        w.u64(self.stats.evictions);
    }

    /// Restores state written by [`Cache::save_state`] into a cache of
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
        self.last = NO_LINE;
        self.inner.restore_state(r)?;
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        self.stats.fills = r.u64()?;
        self.stats.evictions = r.u64()?;
        Ok(())
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
        assert_eq!(c.stats, CacheStats { hits: 1, misses: 3, fills: 3, evictions: 1 });
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
        let mut w = pacman_telemetry::bin::Writer::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = small();
        let mut r = pacman_telemetry::bin::Reader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(fresh.stats, c.stats);
        fresh.access(d); // must evict b, the restored LRU
        assert!(fresh.contains(a));
        assert!(!fresh.contains(b));
        // Truncation at any point is an error, not a panic.
        let mut short = small();
        let mut r = pacman_telemetry::bin::Reader::new(&bytes[..bytes.len() - 1]);
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
}
