//! Sparse physical memory.

use pacman_isa::ptr::PAGE_SIZE;

/// Physical frame number.
pub type Pfn = u64;

/// Byte-addressable physical memory organised in 16 KB frames, with a
/// bump allocator for fresh frames.
///
/// Frames are bump-allocated contiguously from PFN 1, so storage is a
/// dense vector indexed by `pfn - 1` — the per-access frame lookup on
/// the simulator's hottest path is one bounds-checked index, never a
/// hash.
///
/// Frames that hold predecoded code (registered by the execution engine's
/// block cache via [`PhysMemory::note_code_frame`]) are tracked so that
/// any write into them bumps a global code-write generation; the block
/// cache compares generations on every dispatch, which is how
/// self-modifying stores invalidate stale decoded entries.
#[derive(Debug, Default)]
pub struct PhysMemory {
    /// Frame `pfn` lives at index `pfn - 1` (PFN 0 is reserved).
    frames: Vec<Box<[u8]>>,
    /// Per-frame "holds predecoded code" flags, parallel to `frames`
    /// (shorter vectors read as all-false).
    code_flags: Vec<bool>,
    /// Whether any frame is flagged — lets the write path skip the flag
    /// check entirely until the block cache first decodes something.
    any_code: bool,
    code_write_gen: u64,
    /// Recycled frame storage for `alloc_frame`, refilled by
    /// [`PhysMemory::reset`].
    pool: Vec<Box<[u8]>>,
    /// Frames this memory had to request from the host allocator (pool
    /// misses) — the counter behind the executor pool's allocator-free
    /// steady-state claim. Per generation: zeroed by
    /// [`PhysMemory::reset`], so a fully recycled reboot keeps it at zero.
    /// `u32` on purpose: it packs into the padding after `any_code`, so
    /// the struct stays the same size as before the counter existed and
    /// no hot field downstream in `Machine` shifts cache lines.
    fresh_allocs: u32,
}

impl PhysMemory {
    /// Creates empty physical memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties this memory for the next machine generation. Every
    /// allocated frame moves to the internal pool, the bump allocator
    /// restarts at PFN 1 and the fresh-allocation count returns to zero.
    /// Recycled frames are zeroed when handed out again, so the frame
    /// layout and contents match [`PhysMemory::new`].
    pub fn reset(&mut self) {
        self.pool.append(&mut self.frames);
        self.code_flags.clear();
        self.any_code = false;
        self.code_write_gen = 0;
        self.fresh_allocs = 0;
    }

    /// Allocates a zeroed frame and returns its frame number.
    pub fn alloc_frame(&mut self) -> Pfn {
        let frame = match self.pool.pop() {
            Some(mut f) => {
                f.fill(0);
                f
            }
            None => {
                self.fresh_allocs += 1;
                vec![0u8; PAGE_SIZE as usize].into_boxed_slice()
            }
        };
        self.frames.push(frame);
        self.frames.len() as Pfn
    }

    /// Frames allocated fresh from the host (pool misses) over this
    /// memory generation's lifetime.
    pub fn fresh_alloc_count(&self) -> u64 {
        u64::from(self.fresh_allocs)
    }

    /// Number of allocated frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Registers `pfn` as holding predecoded code: subsequent writes into
    /// it bump the code-write generation. Registration is sticky for the
    /// lifetime of this memory (decoded entries for the frame may persist
    /// in the block cache until invalidated). Unallocated frames cannot be
    /// registered — the block cache never caches from them.
    pub fn note_code_frame(&mut self, pfn: Pfn) {
        if pfn >= 1 && pfn <= self.frames.len() as Pfn {
            if self.code_flags.len() < self.frames.len() {
                self.code_flags.resize(self.frames.len(), false);
            }
            self.code_flags[(pfn - 1) as usize] = true;
            self.any_code = true;
        }
    }

    /// Whether `pfn` is a currently allocated frame.
    pub fn is_backed(&self, pfn: Pfn) -> bool {
        pfn >= 1 && pfn <= self.frames.len() as Pfn
    }

    /// Generation counter bumped by every write that lands in a
    /// registered code frame. A block-cache entry decoded at generation
    /// `g` is valid iff the counter still reads `g`.
    pub fn code_write_gen(&self) -> u64 {
        self.code_write_gen
    }

    #[inline]
    fn frame(&self, pa: u64) -> Option<&[u8]> {
        let pfn = pa / PAGE_SIZE;
        self.frames.get((pfn.wrapping_sub(1)) as usize).map(|f| &f[..])
    }

    #[inline]
    fn bump_if_code(&mut self, pfn: Pfn) {
        if self.any_code && self.code_flags.get((pfn - 1) as usize) == Some(&true) {
            self.code_write_gen += 1;
        }
    }

    /// Reads one byte of physical memory (zero for unbacked addresses).
    pub fn read_u8(&self, pa: u64) -> u8 {
        self.frame(pa).map_or(0, |f| f[(pa % PAGE_SIZE) as usize])
    }

    /// Writes one byte; silently ignored for unbacked addresses.
    pub fn write_u8(&mut self, pa: u64, v: u8) {
        let pfn = pa / PAGE_SIZE;
        if let Some(f) = self.frames.get_mut((pfn.wrapping_sub(1)) as usize) {
            f[(pa % PAGE_SIZE) as usize] = v;
            self.bump_if_code(pfn);
        }
    }

    /// Reads a little-endian 32-bit word (may straddle frames).
    #[inline]
    pub fn read_u32(&self, pa: u64) -> u32 {
        let off = (pa % PAGE_SIZE) as usize;
        if off + 4 <= PAGE_SIZE as usize {
            // Within one frame: a single lookup covers all four bytes (an
            // unbacked frame reads as zero, matching the byte path).
            return self.frame(pa).map_or(0, |f| {
                u32::from_le_bytes(f[off..off + 4].try_into().expect("4-byte slice"))
            });
        }
        let mut b = [0u8; 4];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = self.read_u8(pa + i as u64);
        }
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian 32-bit word.
    pub fn write_u32(&mut self, pa: u64, v: u32) {
        for (i, byte) in v.to_le_bytes().iter().enumerate() {
            self.write_u8(pa + i as u64, *byte);
        }
    }

    /// Reads a little-endian 64-bit word.
    #[inline]
    pub fn read_u64(&self, pa: u64) -> u64 {
        let off = (pa % PAGE_SIZE) as usize;
        if off + 8 <= PAGE_SIZE as usize {
            return self.frame(pa).map_or(0, |f| {
                u64::from_le_bytes(f[off..off + 8].try_into().expect("8-byte slice"))
            });
        }
        let mut b = [0u8; 8];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = self.read_u8(pa + i as u64);
        }
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian 64-bit word.
    pub fn write_u64(&mut self, pa: u64, v: u64) {
        let pfn = pa / PAGE_SIZE;
        let off = (pa % PAGE_SIZE) as usize;
        if off + 8 <= PAGE_SIZE as usize {
            if let Some(f) = self.frames.get_mut((pfn.wrapping_sub(1)) as usize) {
                f[off..off + 8].copy_from_slice(&v.to_le_bytes());
                self.bump_if_code(pfn);
            }
            return;
        }
        for (i, byte) in v.to_le_bytes().iter().enumerate() {
            self.write_u8(pa + i as u64, *byte);
        }
    }

    /// Copies a byte slice into physical memory.
    pub fn write_bytes(&mut self, pa: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(pa + i as u64, b);
        }
    }

    /// Serialises every frame plus the code-tracking state. All-zero
    /// frames are stored as one flag byte, so a sparse address space
    /// stays a small snapshot.
    pub fn save_state(&self, w: &mut pacman_telemetry::bin::Writer) {
        w.u64(self.code_write_gen);
        w.u32(self.fresh_allocs);
        w.usize(self.frames.len());
        for frame in &self.frames {
            let nonzero = frame.iter().any(|&b| b != 0);
            w.bool(nonzero);
            if nonzero {
                w.bytes(frame);
            }
        }
        let flagged: Vec<u64> =
            self.code_flags.iter().enumerate().filter(|(_, &f)| f).map(|(i, _)| i as u64).collect();
        w.usize(flagged.len());
        for i in flagged {
            w.u64(i);
        }
    }

    /// Restores state written by [`PhysMemory::save_state`], recycling
    /// this memory's existing frame boxes (surplus frames return to the
    /// internal pool; missing ones are drawn from it, then the host).
    ///
    /// # Errors
    ///
    /// [`pacman_telemetry::bin::BinError`] on a truncated or corrupt
    /// stream; this memory's contents are then unspecified and the
    /// caller must discard it.
    pub fn restore_state(
        &mut self,
        r: &mut pacman_telemetry::bin::Reader<'_>,
    ) -> Result<(), pacman_telemetry::bin::BinError> {
        self.code_write_gen = r.u64()?;
        self.fresh_allocs = r.u32()?;
        let count = r.usize()?;
        while self.frames.len() > count {
            self.pool.push(self.frames.pop().expect("len checked"));
        }
        while self.frames.len() < count {
            let frame = self.pool.pop().unwrap_or_else(|| {
                self.fresh_allocs += 1;
                vec![0u8; PAGE_SIZE as usize].into_boxed_slice()
            });
            self.frames.push(frame);
        }
        for frame in &mut self.frames {
            if r.bool()? {
                let bytes = r.bytes()?;
                if bytes.len() != frame.len() {
                    return Err(pacman_telemetry::bin::BinError::Corrupt(format!(
                        "frame size {} != {PAGE_SIZE}",
                        bytes.len()
                    )));
                }
                frame.copy_from_slice(bytes);
            } else {
                frame.fill(0);
            }
        }
        self.code_flags.clear();
        self.code_flags.resize(count, false);
        self.any_code = false;
        for _ in 0..r.usize()? {
            let i = r.usize()?;
            let slot = self.code_flags.get_mut(i).ok_or_else(|| {
                pacman_telemetry::bin::BinError::Corrupt(format!("code flag index {i}"))
            })?;
            *slot = true;
            self.any_code = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_16kb_and_zeroed() {
        let mut m = PhysMemory::new();
        let pfn = m.alloc_frame();
        let base = pfn * PAGE_SIZE;
        assert_eq!(m.read_u64(base), 0);
        assert_eq!(m.read_u8(base + PAGE_SIZE - 1), 0);
    }

    #[test]
    fn word_roundtrips_within_a_frame() {
        let mut m = PhysMemory::new();
        let base = m.alloc_frame() * PAGE_SIZE;
        m.write_u64(base + 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(base + 8), 0x1122_3344_5566_7788);
        m.write_u32(base + 100, 0xDEADBEEF);
        assert_eq!(m.read_u32(base + 100), 0xDEADBEEF);
    }

    #[test]
    fn words_straddle_frames() {
        let mut m = PhysMemory::new();
        let a = m.alloc_frame();
        let b = m.alloc_frame();
        assert_eq!(b, a + 1, "bump allocator must be contiguous");
        let boundary = b * PAGE_SIZE - 4;
        m.write_u64(boundary, 0xA1B2_C3D4_E5F6_0718);
        assert_eq!(m.read_u64(boundary), 0xA1B2_C3D4_E5F6_0718);
        assert_eq!(m.read_u32(boundary + 2), (0xA1B2_C3D4_E5F6_0718u64 >> 16) as u32);
    }

    #[test]
    fn unbacked_reads_are_zero_and_writes_ignored() {
        let mut m = PhysMemory::new();
        m.write_u64(0x8000_0000, 42);
        assert_eq!(m.read_u64(0x8000_0000), 0);
        // PFN 0 is reserved and never backed.
        m.write_u64(8, 42);
        assert_eq!(m.read_u64(8), 0);
        assert!(!m.is_backed(0));
    }

    #[test]
    fn write_bytes_copies() {
        let mut m = PhysMemory::new();
        let base = m.alloc_frame() * PAGE_SIZE;
        m.write_bytes(base, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(base), u32::from_le_bytes([1, 2, 3, 4]));
    }

    #[test]
    fn code_write_generation_tracks_only_registered_frames() {
        let mut m = PhysMemory::new();
        let code = m.alloc_frame();
        let data = m.alloc_frame();
        assert_eq!(m.code_write_gen(), 0);

        // Unregistered writes never move the generation.
        m.write_u64(data * PAGE_SIZE, 1);
        m.write_u8(code * PAGE_SIZE, 1);
        assert_eq!(m.code_write_gen(), 0);

        m.note_code_frame(code);
        m.write_u64(data * PAGE_SIZE + 8, 2);
        assert_eq!(m.code_write_gen(), 0, "data-frame writes are free");
        m.write_u8(code * PAGE_SIZE + 4, 0xAA);
        assert_eq!(m.code_write_gen(), 1);
        m.write_u64(code * PAGE_SIZE + 8, 0xBB);
        assert_eq!(m.code_write_gen(), 2);
        // A straddling write that clips the code frame still bumps.
        m.write_u64(code * PAGE_SIZE + PAGE_SIZE - 4, 0xCC);
        assert!(m.code_write_gen() >= 3);
    }

    #[test]
    fn code_frames_registered_after_later_allocs_still_track() {
        let mut m = PhysMemory::new();
        let code = m.alloc_frame();
        for _ in 0..4 {
            m.alloc_frame();
        }
        m.note_code_frame(code);
        m.write_u8(code * PAGE_SIZE, 1);
        assert_eq!(m.code_write_gen(), 1);
        // Unallocated frames cannot be registered.
        m.note_code_frame(99);
        m.write_u8(99 * PAGE_SIZE, 1);
        assert_eq!(m.code_write_gen(), 1);
    }

    #[test]
    fn frame_pool_recycles_with_identical_layout() {
        let mut m = PhysMemory::new();
        let a = m.alloc_frame();
        let b = m.alloc_frame();
        m.write_u64(a * PAGE_SIZE, 0xDEAD);
        m.write_u64(b * PAGE_SIZE + 16, 0xBEEF);
        assert_eq!(m.fresh_alloc_count(), 2);

        m.reset();
        assert_eq!(m.frame_count(), 0);
        assert_eq!(m.fresh_alloc_count(), 0);

        let a2 = m.alloc_frame();
        let b2 = m.alloc_frame();
        assert_eq!((a2, b2), (a, b), "bump layout must repeat across generations");
        assert_eq!(m.read_u64(a2 * PAGE_SIZE), 0, "recycled frames are zeroed");
        assert_eq!(m.read_u64(b2 * PAGE_SIZE + 16), 0);
        assert_eq!(m.fresh_alloc_count(), 0, "both frames came from the pool");
        // Pool exhausted: the third frame falls back to fresh allocation.
        let c = m.alloc_frame();
        assert_eq!(c, b2 + 1);
        assert_eq!(m.read_u64(c * PAGE_SIZE), 0);
        assert_eq!(m.fresh_alloc_count(), 1);
    }
}
