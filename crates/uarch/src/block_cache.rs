//! Predecoded basic-block cache: the hot half of the execution engine.
//!
//! The interpreter's per-step cost was dominated by re-reading the fetched
//! word from sparse physical memory and re-decoding it, both of which are
//! pure functions of frame contents. This cache decodes each fetched word
//! once into a flat micro-op arena and re-dispatches from the arena on
//! re-entry:
//!
//! - **Keying.** Entries are keyed by *physical* address, so aliased
//!   mappings share decoded code and remaps cannot serve stale virtual
//!   translations (translation, permissions, and all timing are the
//!   machine's business — the cache only replaces the `read_u32` +
//!   `decode` pair).
//! - **Slots.** Each frame that has been decoded from gets a dense
//!   `PAGE_SIZE / 4` slot table (word index → micro-op) in one shared
//!   arena, so a dispatch is two array indexes. The machine's fetch
//!   cursor keeps a frame's arena position and re-hits with one index,
//!   valid until the next flush starts a new epoch.
//! - **Runs.** A miss decodes forward from the missing word — up to
//!   `MAX_RUN` instructions, stopping at the frame boundary, at an
//!   undecodable word, or after an unconditional control transfer — so
//!   straight-line code warms in one pass.
//! - **Invalidation.** Decoding registers the frame with
//!   [`PhysMemory::note_code_frame`]; any later write into a registered
//!   frame bumps the global code-write generation and the next dispatch
//!   flushes the whole cache. Self-modifying stores therefore always see
//!   freshly decoded code, at the cost of re-warming (the conformance
//!   harness pins this against the reference machine).
//! - **Bypasses.** Misaligned fetches and words straddling a frame
//!   boundary are decoded directly without caching: they cannot use the
//!   one-frame slot table, and a straddling word would need generation
//!   checks on two frames.

use pacman_isa::ptr::PAGE_SIZE;
use pacman_isa::{decode, Inst};

use crate::mem::PhysMemory;

/// Maximum instructions decoded ahead of a missing word in one run.
const MAX_RUN: usize = 64;
/// Arena size bound; reaching it flushes the cache (a new epoch) rather
/// than growing without limit under pathological self-modifying code.
const ARENA_CAP: usize = 1 << 20;
/// Words per frame slot table.
const SLOTS: usize = (PAGE_SIZE / 4) as usize;

/// Dispatch and invalidation counters, exported as `exec.block.*`.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct BlockCacheStats {
    /// Dispatches served from the arena.
    pub hits: u64,
    /// Dispatches that triggered a decode run.
    pub misses: u64,
    /// Instructions decoded into the arena (lifetime, across flushes).
    pub decoded: u64,
    /// Whole-cache flushes caused by writes into decoded code frames.
    pub invalidations: u64,
    /// Misaligned or frame-straddling fetches decoded without caching.
    pub bypasses: u64,
}

/// Table index meaning "this frame was never decoded from".
const NO_TABLE: u32 = u32::MAX;

/// The predecoded block cache. One per [`crate::Machine`]; purely a
/// host-side accelerator — it never changes simulated cycles, RNG draws,
/// or microarchitectural state.
#[derive(Debug, Default)]
pub struct BlockCache {
    /// Slot-table index per frame, indexed `pfn - 1` (frames are
    /// bump-allocated densely from PFN 1, so this mirrors
    /// [`PhysMemory`]'s own storage); [`NO_TABLE`] for frames never
    /// decoded from.
    tables: Vec<u32>,
    /// Every frame's `PAGE_SIZE / 4` slot table back to back (table `t`
    /// starts at `t * SLOTS`): word index → predecoded micro-op. Storing
    /// the `Inst` inline makes a dispatch hit exactly one indexed load.
    slots: Vec<Option<Inst>>,
    /// Micro-ops currently live across all slot tables (capacity
    /// accounting for the epoch flush).
    live: usize,
    /// The code-write generation the cached entries were decoded at.
    valid_gen: u64,
    /// Bumped by every flush; a slot position handed out by
    /// [`BlockCache::slot_base`] is only meaningful within its epoch.
    epoch: u64,
    /// Dispatch counters.
    pub stats: BlockCacheStats,
}

impl BlockCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the decoded instruction at physical address `pa`, or `None`
    /// if the word there does not decode (the caller raises the same
    /// `Trap::Decode` the interpreter would).
    ///
    /// Takes `phys` mutably only to register decoded-from frames for
    /// write tracking; memory contents are never modified.
    pub fn fetch(&mut self, pa: u64, phys: &mut PhysMemory) -> Option<Inst> {
        let gen = phys.code_write_gen();
        if gen != self.valid_gen {
            // A store hit a decoded code frame since the last dispatch:
            // drop everything and re-decode on demand.
            self.clear();
            self.valid_gen = gen;
            self.stats.invalidations += 1;
        }
        let off = (pa % PAGE_SIZE) as usize;
        if !pa.is_multiple_of(4) || off + 4 > SLOTS * 4 {
            self.stats.bypasses += 1;
            return decode(phys.read_u32(pa)).ok();
        }
        if let Some(base) = self.slot_base(pa / PAGE_SIZE) {
            if let Some(inst) = self.slots[base + off / 4] {
                self.stats.hits += 1;
                return Some(inst);
            }
        }
        self.stats.misses += 1;
        self.decode_run(pa, phys)
    }

    /// Position in the slot arena of frame `pfn`'s word 0, if the frame
    /// has a slot table. Valid until the epoch changes.
    pub(crate) fn slot_base(&self, pfn: u64) -> Option<usize> {
        match self.tables.get(pfn.wrapping_sub(1) as usize) {
            Some(&t) if t != NO_TABLE => Some(t as usize * SLOTS),
            _ => None,
        }
    }

    /// The current flush epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The fetch cursor's dispatch: the micro-op at arena position `slot`
    /// (from [`BlockCache::slot_base`] in `epoch`), counted as a hit, or
    /// `None` — with no side effects — if the cache was flushed since or
    /// the slot is not decoded. The caller also checks that the
    /// code-write generation is still the one `slot` was taken at (else
    /// [`BlockCache::fetch`] would flush); a `Some` is then exactly the
    /// hit [`BlockCache::fetch`] would make.
    #[inline]
    pub(crate) fn rehit(&mut self, epoch: u64, slot: usize) -> Option<Inst> {
        if epoch != self.epoch {
            return None;
        }
        let inst = self.slots[slot]?;
        self.stats.hits += 1;
        Some(inst)
    }

    /// Drops every decoded entry (slot storage is kept for reuse) and
    /// starts a new epoch.
    fn clear(&mut self) {
        self.tables.clear();
        self.slots.clear();
        self.live = 0;
        self.epoch += 1;
    }

    /// Empties the cache for a rebooted machine, keeping the arena's
    /// allocation: equivalent to [`BlockCache::new`] for every observable
    /// purpose.
    pub(crate) fn reset(&mut self) {
        self.clear();
        self.valid_gen = 0;
        self.stats = BlockCacheStats::default();
    }

    fn decode_run(&mut self, pa: u64, phys: &mut PhysMemory) -> Option<Inst> {
        if self.live + MAX_RUN > ARENA_CAP {
            self.clear();
        }
        let pfn = pa / PAGE_SIZE;
        if !phys.is_backed(pfn) {
            // Unallocated frames read as zero and cannot be registered for
            // write tracking, so nothing from them may be cached.
            self.stats.bypasses += 1;
            return decode(phys.read_u32(pa)).ok();
        }
        phys.note_code_frame(pfn);
        let first = decode(phys.read_u32(pa)).ok()?;
        let base = self.table_for(pfn);
        let mut inst = first;
        let mut off = (pa % PAGE_SIZE) as usize;
        for _ in 0..MAX_RUN {
            let slot = &mut self.slots[base + off / 4];
            self.live += usize::from(slot.is_none());
            *slot = Some(inst);
            self.stats.decoded += 1;
            off += 4;
            if off + 4 > SLOTS * 4 || ends_run(inst) {
                break;
            }
            match decode(phys.read_u32(pfn * PAGE_SIZE + off as u64)) {
                Ok(i) => inst = i,
                Err(_) => break,
            }
        }
        Some(first)
    }

    /// Frame `pfn`'s slot-table base, appending an empty table first if
    /// it has none.
    fn table_for(&mut self, pfn: u64) -> usize {
        if let Some(base) = self.slot_base(pfn) {
            return base;
        }
        let fi = (pfn - 1) as usize;
        if self.tables.len() <= fi {
            self.tables.resize(fi + 1, NO_TABLE);
        }
        let base = self.slots.len();
        self.tables[fi] = u32::try_from(base / SLOTS).expect("slot tables fit in u32");
        self.slots.resize(base + SLOTS, None);
        base
    }

    /// Serialises which slots are decoded (one bitmap per frame) plus the
    /// generation and counters. The `Inst` values themselves are not
    /// written: generation invalidation guarantees every cached entry
    /// matches current memory, so a restore re-decodes them exactly.
    pub fn save_state(&self, w: &mut pacman_telemetry::bin::Writer) {
        w.u64(self.valid_gen);
        w.usize(self.live);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.decoded);
        w.u64(self.stats.invalidations);
        w.u64(self.stats.bypasses);
        w.usize(self.tables.len());
        for pfn in 1..=self.tables.len() as u64 {
            match self.slot_base(pfn) {
                None => w.bool(false),
                Some(base) => {
                    w.bool(true);
                    let mut bitmap = vec![0u8; SLOTS / 8];
                    for (i, slot) in self.slots[base..base + SLOTS].iter().enumerate() {
                        if slot.is_some() {
                            bitmap[i / 8] |= 1 << (i % 8);
                        }
                    }
                    w.bytes(&bitmap);
                }
            }
        }
    }

    /// Restores state written by [`BlockCache::save_state`], re-decoding
    /// each flagged slot from `phys` (which must already hold the memory
    /// image the snapshot was taken against).
    ///
    /// # Errors
    ///
    /// [`pacman_telemetry::bin::BinError`] on truncation, a malformed
    /// bitmap, a live count disagreeing with the bitmaps, or a flagged
    /// word that no longer decodes (all of which mean the snapshot does
    /// not match the memory image).
    pub fn restore_state(
        &mut self,
        r: &mut pacman_telemetry::bin::Reader<'_>,
        phys: &PhysMemory,
    ) -> Result<(), pacman_telemetry::bin::BinError> {
        use pacman_telemetry::bin::BinError;
        self.valid_gen = r.u64()?;
        let live = r.usize()?;
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        self.stats.decoded = r.u64()?;
        self.stats.invalidations = r.u64()?;
        self.stats.bypasses = r.u64()?;
        let count = r.usize()?;
        self.clear();
        for fi in 0..count {
            if !r.bool()? {
                continue;
            }
            let bitmap = r.bytes()?;
            if bitmap.len() != SLOTS / 8 {
                return Err(BinError::Corrupt(format!("slot bitmap of {} bytes", bitmap.len())));
            }
            let pfn = fi as u64 + 1;
            let base = self.table_for(pfn);
            for i in 0..SLOTS {
                if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                    let pa = pfn * PAGE_SIZE + 4 * i as u64;
                    let inst = decode(phys.read_u32(pa)).map_err(|_| {
                        BinError::Corrupt(format!("cached slot at {pa:#x} no longer decodes"))
                    })?;
                    self.slots[base + i] = Some(inst);
                    self.live += 1;
                }
            }
        }
        self.tables.resize(count, NO_TABLE);
        if live != self.live {
            return Err(BinError::Corrupt(format!("live count {live} != {} slots", self.live)));
        }
        Ok(())
    }
}

/// Whether decoding should stop after `inst`: unconditional control
/// transfers (and halts) end straight-line runs, so the arena does not
/// fill with whatever bytes follow a function's final branch.
fn ends_run(inst: Inst) -> bool {
    matches!(
        inst,
        Inst::B { .. }
            | Inst::Bl { .. }
            | Inst::Br { .. }
            | Inst::Blr { .. }
            | Inst::Ret
            | Inst::Hlt
            | Inst::Eret
            | Inst::Svc { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_isa::{encode, Reg};

    fn backed(phys: &mut PhysMemory) -> u64 {
        phys.alloc_frame() * PAGE_SIZE
    }

    fn write_inst(phys: &mut PhysMemory, pa: u64, inst: Inst) {
        phys.write_u32(pa, encode(&inst).expect("encodes"));
    }

    fn movz(rd: u8, imm: u16) -> Inst {
        Inst::MovZ { rd: Reg::from_index(rd).expect("register"), imm, shift: 0 }
    }

    #[test]
    fn decodes_once_then_hits() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        let prog = [movz(1, 7), movz(2, 3), Inst::Hlt];
        for (i, inst) in prog.iter().enumerate() {
            write_inst(&mut phys, base + 4 * i as u64, *inst);
        }
        assert_eq!(bc.fetch(base, &mut phys), Some(prog[0]));
        assert_eq!(bc.stats.misses, 1);
        // The run decoded ahead: the following words are hits.
        assert_eq!(bc.fetch(base + 4, &mut phys), Some(prog[1]));
        assert_eq!(bc.fetch(base + 8, &mut phys), Some(prog[2]));
        assert_eq!(bc.fetch(base, &mut phys), Some(prog[0]));
        assert_eq!(bc.stats.misses, 1);
        assert_eq!(bc.stats.hits, 3);
    }

    #[test]
    fn undecodable_words_are_not_cached_and_return_none() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        phys.write_u32(base, 0xFFFF_FFFF);
        assert_eq!(bc.fetch(base, &mut phys), None);
        assert_eq!(bc.fetch(base, &mut phys), None);
        assert_eq!(bc.stats.hits, 0);
    }

    #[test]
    fn store_into_decoded_frame_invalidates() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        write_inst(&mut phys, base, movz(1, 7));
        assert!(matches!(bc.fetch(base, &mut phys), Some(Inst::MovZ { .. })));
        // Overwrite the decoded word: the write bumps the generation
        // because decoding registered the frame.
        write_inst(&mut phys, base, movz(1, 9));
        let refetched = bc.fetch(base, &mut phys).expect("still decodes");
        assert_eq!(refetched, movz(1, 9));
        assert_eq!(bc.stats.invalidations, 1);
    }

    #[test]
    fn writes_to_undecoded_frames_do_not_invalidate() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let code = backed(&mut phys);
        let data = backed(&mut phys);
        write_inst(&mut phys, code, movz(1, 7));
        bc.fetch(code, &mut phys);
        phys.write_u64(data, 0xDEAD_BEEF);
        bc.fetch(code, &mut phys);
        assert_eq!(bc.stats.invalidations, 0);
        assert_eq!(bc.stats.hits, 1);
    }

    #[test]
    fn misaligned_and_straddling_fetches_bypass() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        let _next = backed(&mut phys); // adjacent frame for the straddle
        let word = encode(&movz(3, 5)).expect("encodes");
        // Misaligned.
        phys.write_u32(base + 2, word);
        assert_eq!(bc.fetch(base + 2, &mut phys), Some(movz(3, 5)));
        // Straddling the frame boundary.
        phys.write_u32(base + PAGE_SIZE - 2, word);
        assert_eq!(bc.fetch(base + PAGE_SIZE - 2, &mut phys), Some(movz(3, 5)));
        assert_eq!(bc.stats.bypasses, 2);
        assert_eq!(bc.stats.hits + bc.stats.misses, 0);
    }

    #[test]
    fn save_restore_rebuilds_the_arena_by_redecoding() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        let prog = [movz(1, 7), movz(2, 3), Inst::Hlt];
        for (i, inst) in prog.iter().enumerate() {
            write_inst(&mut phys, base + 4 * i as u64, *inst);
        }
        bc.fetch(base, &mut phys);
        bc.fetch(base + 4, &mut phys);
        let mut w = pacman_telemetry::bin::Writer::new();
        bc.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = BlockCache::new();
        let mut r = pacman_telemetry::bin::Reader::new(&bytes);
        fresh.restore_state(&mut r, &phys).unwrap();
        assert!(r.is_done());
        assert_eq!(fresh.stats, bc.stats);
        // The decoded run survives: every fetch is a hit, exactly as it
        // would be on the uninterrupted cache.
        assert_eq!(fresh.fetch(base + 8, &mut phys), Some(prog[2]));
        assert_eq!(fresh.stats.hits, bc.stats.hits + 1);
        assert_eq!(fresh.stats.misses, bc.stats.misses);
        // A snapshot whose flagged words no longer decode is corruption.
        phys.write_u32(base, 0xFFFF_FFFF);
        let mut stale = BlockCache::new();
        let mut r = pacman_telemetry::bin::Reader::new(&bytes);
        assert!(stale.restore_state(&mut r, &phys).is_err());
    }

    #[test]
    fn runs_stop_at_unconditional_control_flow() {
        let mut phys = PhysMemory::new();
        let mut bc = BlockCache::new();
        let base = backed(&mut phys);
        write_inst(&mut phys, base, Inst::Ret);
        // The word after the RET is garbage; a run that decoded past the
        // RET would still succeed (garbage may decode), but must not be
        // *required* to. Either way the RET itself dispatches.
        phys.write_u32(base + 4, 0xFFFF_FFFF);
        assert_eq!(bc.fetch(base, &mut phys), Some(Inst::Ret));
        assert_eq!(bc.stats.decoded, 1, "run ends at the RET");
    }
}
