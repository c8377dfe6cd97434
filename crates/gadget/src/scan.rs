//! The scanner: conditional-branch enumeration + register dataflow.

use pacman_isa::{decode, Inst, Reg};

/// Gadget classification (paper §4.1/§4.2).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum GadgetKind {
    /// Transmit by load/store (Figure 3(a)).
    Data,
    /// Transmit by indirect branch (Figure 3(b)).
    Instruction,
}

/// One detected gadget.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct Gadget {
    /// Word index of the guarding conditional branch (`BR1`).
    pub branch_index: usize,
    /// Word index of the verification (`AUT`) instruction.
    pub aut_index: usize,
    /// Word index of the transmit instruction.
    pub transmit_index: usize,
    /// Data or instruction gadget.
    pub kind: GadgetKind,
    /// Whether the gadget was found on the taken path (vs fall-through).
    pub on_taken_path: bool,
}

impl Gadget {
    /// Instructions between the conditional branch and the transmit
    /// instruction (the paper reports a mean of 8.1 over XNU).
    pub fn distance(&self) -> usize {
        self.transmit_index.abs_diff(self.branch_index)
    }
}

/// Scanner parameters.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct ScanConfig {
    /// How many instructions to inspect down each branch direction
    /// (paper: 32).
    pub window: usize,
    /// Deduplicate gadgets that share the same (aut, transmit) pair but
    /// are guarded by different branches. The paper counts per branch
    /// (the default, `false`).
    pub dedup_by_aut: bool,
    /// Additionally track AUT results spilled to and reloaded from
    /// SP-relative stack slots. The paper's tool "only tracks
    /// data-dependence via registers, not memory" and predicts "more
    /// gadgets can be found with a comprehensive analysis" — this flag is
    /// that analysis (partially: constant SP-relative slots only).
    pub track_stack: bool,
}

impl Default for ScanConfig {
    fn default() -> Self {
        Self { window: 32, dedup_by_aut: false, track_stack: false }
    }
}

/// Scan results.
#[derive(Clone, Eq, PartialEq, Debug, Default)]
pub struct ScanReport {
    /// Every gadget found.
    pub gadgets: Vec<Gadget>,
    /// Number of conditional branches inspected.
    pub conditional_branches: usize,
    /// Number of decodable instructions in the image.
    pub instructions: usize,
}

impl ScanReport {
    /// Total gadget count.
    pub fn total(&self) -> usize {
        self.gadgets.len()
    }

    /// Data-gadget count.
    pub fn data_count(&self) -> usize {
        self.gadgets.iter().filter(|g| g.kind == GadgetKind::Data).count()
    }

    /// Instruction-gadget count.
    pub fn instruction_count(&self) -> usize {
        self.gadgets.iter().filter(|g| g.kind == GadgetKind::Instruction).count()
    }

    /// Mean branch→transmit distance (instructions).
    pub fn mean_distance(&self) -> f64 {
        if self.gadgets.is_empty() {
            return 0.0;
        }
        self.gadgets.iter().map(|g| g.distance()).sum::<usize>() as f64 / self.gadgets.len() as f64
    }

    /// Folds another report into this one: gadget lists concatenate,
    /// branch and instruction counts add. Gadget indices stay relative to
    /// their source image (a merged census spans several images), which
    /// leaves every derived statistic — counts, kind split, distances —
    /// exact. Merging is associative and, for the census aggregates,
    /// order-insensitive.
    pub fn merge(&mut self, other: &ScanReport) {
        self.gadgets.extend_from_slice(&other.gadgets);
        self.conditional_branches += other.conditional_branches;
        self.instructions += other.instructions;
    }
}

/// Decodes a little-endian image into instructions; undecodable words
/// become `None` (data islands are skipped, like a linear-sweep
/// disassembler would).
fn decode_image(bytes: &[u8]) -> Vec<Option<Inst>> {
    bytes
        .chunks_exact(4)
        .map(|w| decode(u32::from_le_bytes(w.try_into().expect("chunk of 4"))).ok())
        .collect()
}

/// Follows one straight-line path from `start`, tracking which registers
/// currently hold an AUT result, and reporting the first gadget if any.
///
/// Register-only dataflow, exactly like the paper's tool: a write to a
/// register clears its taint unless the writer is itself an `AUT`; memory
/// is not tracked (the paper notes this undercounts).
fn walk_path(
    insts: &[Option<Inst>],
    branch_index: usize,
    start: usize,
    config: &ScanConfig,
    on_taken_path: bool,
    out: &mut Vec<Gadget>,
) {
    let mut auted: [Option<usize>; Reg::COUNT] = [None; Reg::COUNT];
    // SP-relative spill slots holding AUT results (track_stack only).
    let mut stack_slots: Vec<(i16, usize)> = Vec::new();
    let mut idx = start;
    for _ in 0..window_of(config) {
        let Some(Some(inst)) = insts.get(idx).copied() else { return };
        // Transmit check first: `aut x0; ldr x1, [x0]` has x0 both as an
        // AUT result and an address source in consecutive instructions.
        // The walk keeps going after a match — one verified pointer can
        // feed several transmits, and the paper counts gadgets, not paths.
        if let Some(src) = inst.address_source() {
            if let Some(aut_index) = auted[src.index() as usize] {
                let kind = if inst.is_indirect_branch() {
                    GadgetKind::Instruction
                } else {
                    GadgetKind::Data
                };
                out.push(Gadget {
                    branch_index,
                    aut_index,
                    transmit_index: idx,
                    kind,
                    on_taken_path,
                });
            }
        }
        // Stack dataflow (track_stack): spills of AUT results create
        // tainted slots; reloads from tainted slots re-taint registers.
        if config.track_stack {
            match inst {
                Inst::Str { rt, rn, offset } if rn == Reg::SP => {
                    stack_slots.retain(|&(o, _)| o != offset);
                    if let Some(src) = auted[rt.index() as usize] {
                        stack_slots.push((offset, src));
                    }
                }
                Inst::Ldr { rt, rn, offset } if rn == Reg::SP => {
                    if let Some(&(_, src)) = stack_slots.iter().find(|&&(o, _)| o == offset) {
                        auted[rt.index() as usize] = Some(src);
                        // Skip the generic destination-clearing below.
                        idx += 1;
                        continue;
                    }
                }
                _ => {}
            }
        }
        if let Some(rd) = inst.aut_destination() {
            auted[rd.index() as usize] = Some(idx);
        } else if let Some(rd) = inst.destination() {
            auted[rd.index() as usize] = None;
            if let Some(rd2) = inst.second_destination() {
                auted[rd2.index() as usize] = None;
            }
        }
        // Straight-line sweep: direct branches redirect the walk;
        // anything that leaves the function ends it.
        match inst {
            Inst::B { offset } => {
                let Some(next) = idx.checked_add_signed(offset as isize) else { return };
                idx = next;
            }
            Inst::Ret | Inst::Br { .. } | Inst::Eret | Inst::Hlt => return,
            _ => idx += 1,
        }
    }
}

fn window_of(config: &ScanConfig) -> usize {
    config.window
}

/// Scans a binary image for PACMAN gadgets (the paper's §4.3 analysis).
pub fn scan_image(bytes: &[u8], config: &ScanConfig) -> ScanReport {
    let insts = decode_image(bytes);
    let mut report = ScanReport {
        instructions: insts.iter().filter(|i| i.is_some()).count(),
        ..ScanReport::default()
    };
    for (i, slot) in insts.iter().enumerate() {
        let Some(inst) = slot else { continue };
        if !inst.is_conditional_branch() {
            continue;
        }
        report.conditional_branches += 1;
        let offset = inst.branch_offset().expect("conditional branches carry an offset") as isize;
        // Taken direction.
        if let Some(taken) = i.checked_add_signed(offset) {
            walk_path(&insts, i, taken, config, true, &mut report.gadgets);
        }
        // Fall-through direction.
        walk_path(&insts, i, i + 1, config, false, &mut report.gadgets);
    }
    if config.dedup_by_aut {
        let mut seen = std::collections::HashSet::new();
        report.gadgets.retain(|g| seen.insert((g.aut_index, g.transmit_index)));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_isa::{encode::encode_program, Asm, PacKey, PacModifier};

    fn image(program: &[Inst]) -> Vec<u8> {
        encode_program(program).expect("test program encodes")
    }

    fn data_gadget_program() -> Vec<Inst> {
        // Figure 3(a): if (cond) { v = AUT(x0); load v }
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Zero });
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 });
        a.bind(skip);
        a.push(Inst::Ret);
        a.assemble().unwrap()
    }

    #[test]
    fn finds_the_minimal_data_gadget() {
        let report = scan_image(&image(&data_gadget_program()), &ScanConfig::default());
        assert_eq!(report.total(), 1);
        let g = report.gadgets[0];
        assert_eq!(g.kind, GadgetKind::Data);
        assert_eq!(g.branch_index, 0);
        assert_eq!(g.aut_index, 1);
        assert_eq!(g.transmit_index, 2);
        assert_eq!(g.distance(), 2);
        assert!(!g.on_taken_path, "the gadget body is the fall-through here");
    }

    #[test]
    fn finds_the_minimal_instruction_gadget() {
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Zero });
        a.push(Inst::Blr { rn: Reg::X0 });
        a.bind(skip);
        a.push(Inst::Ret);
        let report = scan_image(&image(&a.assemble().unwrap()), &ScanConfig::default());
        assert_eq!(report.total(), 1);
        assert_eq!(report.gadgets[0].kind, GadgetKind::Instruction);
    }

    #[test]
    fn intervening_arithmetic_does_not_break_detection() {
        // §4.1: "Other instructions between the verification and
        // transmission instructions ... can exist without affecting the
        // attack."
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Aut { key: PacKey::Da, rd: Reg::X0, modifier: PacModifier::Zero });
        a.push(Inst::AddImm { rd: Reg::X3, rn: Reg::X4, imm: 8 });
        a.push(Inst::MovZ { rd: Reg::X5, imm: 1, shift: 0 });
        a.push(Inst::Str { rt: Reg::X3, rn: Reg::X0, offset: 16 });
        a.bind(skip);
        a.push(Inst::Ret);
        let report = scan_image(&image(&a.assemble().unwrap()), &ScanConfig::default());
        assert_eq!(report.total(), 1);
        assert_eq!(report.gadgets[0].distance(), 4);
    }

    #[test]
    fn overwriting_the_verified_register_kills_the_gadget() {
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Zero });
        a.push(Inst::MovZ { rd: Reg::X0, imm: 0, shift: 0 }); // clobber
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 });
        a.bind(skip);
        a.push(Inst::Ret);
        let report = scan_image(&image(&a.assemble().unwrap()), &ScanConfig::default());
        assert_eq!(report.total(), 0);
    }

    #[test]
    fn ret_after_aut_of_lr_is_an_instruction_gadget() {
        // The function-epilogue pattern of Figure 2(b): aut lr; ret.
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::LR, modifier: PacModifier::Reg(Reg::SP) });
        a.push(Inst::Ret);
        a.bind(skip);
        a.push(Inst::Ret);
        let report = scan_image(&image(&a.assemble().unwrap()), &ScanConfig::default());
        assert_eq!(report.total(), 1);
        assert_eq!(report.gadgets[0].kind, GadgetKind::Instruction);
    }

    #[test]
    fn stack_tracking_finds_spill_reload_gadgets() {
        // aut x0; spill to the stack; clobber x0; reload; transmit.
        // Register-only dataflow (the paper's tool) misses this; the
        // track_stack extension finds it.
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Zero });
        a.push(Inst::Str { rt: Reg::X0, rn: Reg::SP, offset: 0x10 });
        a.push(Inst::MovZ { rd: Reg::X0, imm: 0, shift: 0 });
        a.push(Inst::Ldr { rt: Reg::X0, rn: Reg::SP, offset: 0x10 });
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 });
        a.bind(skip);
        a.push(Inst::Ret);
        let bytes = image(&a.assemble().unwrap());
        let plain = scan_image(&bytes, &ScanConfig::default());
        assert_eq!(plain.total(), 0, "register-only dataflow must miss the spill");
        let deep = scan_image(&bytes, &ScanConfig { track_stack: true, ..ScanConfig::default() });
        assert_eq!(deep.total(), 1, "stack tracking must find it");
        assert_eq!(deep.gadgets[0].kind, GadgetKind::Data);
    }

    #[test]
    fn stack_tracking_respects_slot_overwrites() {
        // The slot is overwritten with a non-AUT value before the reload:
        // no gadget either way.
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Zero });
        a.push(Inst::Str { rt: Reg::X0, rn: Reg::SP, offset: 0x10 });
        a.push(Inst::Str { rt: Reg::X3, rn: Reg::SP, offset: 0x10 }); // clobber slot
        a.push(Inst::MovZ { rd: Reg::X0, imm: 0, shift: 0 });
        a.push(Inst::Ldr { rt: Reg::X0, rn: Reg::SP, offset: 0x10 });
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 });
        a.bind(skip);
        a.push(Inst::Ret);
        let bytes = image(&a.assemble().unwrap());
        let deep = scan_image(&bytes, &ScanConfig { track_stack: true, ..ScanConfig::default() });
        assert_eq!(deep.total(), 0);
    }

    #[test]
    fn stack_tracking_finds_more_gadgets_in_synthetic_images() {
        use crate::synth::{synthesize, ImageSpec};
        let image = synthesize(&ImageSpec { functions: 300, seed: 77, ..ImageSpec::default() });
        let plain = scan_image(&image.bytes, &ScanConfig::default());
        let deep =
            scan_image(&image.bytes, &ScanConfig { track_stack: true, ..ScanConfig::default() });
        assert!(deep.total() >= plain.total(), "deeper analysis can only add gadgets");
    }

    #[test]
    fn gadgets_beyond_the_window_are_missed() {
        // The paper's own caveat: the 32-instruction window undercounts.
        let mut a = Asm::new();
        let skip = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Zero });
        for _ in 0..40 {
            a.push(Inst::Nop);
        }
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 });
        a.bind(skip);
        a.push(Inst::Ret);
        let prog = a.assemble().unwrap();
        assert_eq!(scan_image(&image(&prog), &ScanConfig::default()).total(), 0);
        let wide = ScanConfig { window: 64, ..ScanConfig::default() };
        assert_eq!(scan_image(&image(&prog), &wide).total(), 1);
    }

    #[test]
    fn both_branch_directions_are_scanned() {
        // Gadget on the *taken* path.
        let mut a = Asm::new();
        let gadget = a.new_label();
        a.cbnz(Reg::X1, gadget);
        a.push(Inst::Ret);
        a.bind(gadget);
        a.push(Inst::Aut { key: PacKey::Ib, rd: Reg::X0, modifier: PacModifier::Zero });
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 });
        a.push(Inst::Ret);
        let report = scan_image(&image(&a.assemble().unwrap()), &ScanConfig::default());
        assert_eq!(report.total(), 1);
        assert!(report.gadgets[0].on_taken_path);
    }

    #[test]
    fn undecodable_words_are_tolerated() {
        let mut bytes = image(&data_gadget_program());
        bytes.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes()); // junk word
        let report = scan_image(&bytes, &ScanConfig::default());
        assert_eq!(report.total(), 1);
    }

    #[test]
    fn unconditional_branch_redirects_the_walk() {
        // aut, then jump over a clobber to the transmit.
        let mut a = Asm::new();
        let skip = a.new_label();
        let over = a.new_label();
        a.cbz(Reg::X1, skip);
        a.push(Inst::Aut { key: PacKey::Ia, rd: Reg::X0, modifier: PacModifier::Zero });
        a.b(over);
        a.push(Inst::MovZ { rd: Reg::X0, imm: 0, shift: 0 }); // skipped clobber
        a.bind(over);
        a.push(Inst::Ldr { rt: Reg::X2, rn: Reg::X0, offset: 0 });
        a.bind(skip);
        a.push(Inst::Ret);
        let report = scan_image(&image(&a.assemble().unwrap()), &ScanConfig::default());
        assert_eq!(report.total(), 1);
    }

    #[test]
    fn merge_folds_counts_and_distances_exactly() {
        use crate::synth::{synthesize, ImageSpec};
        let cfg = ScanConfig::default();
        let spec = ImageSpec { functions: 100, seed: 0xC0DE, ..ImageSpec::default() };
        let a = scan_image(&synthesize(&spec).bytes, &cfg);
        let b = scan_image(&synthesize(&ImageSpec { seed: 0xBEEF, ..spec }).bytes, &cfg);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), a.total() + b.total());
        assert_eq!(merged.data_count(), a.data_count() + b.data_count());
        assert_eq!(merged.instructions, a.instructions + b.instructions);
        assert_eq!(merged.conditional_branches, a.conditional_branches + b.conditional_branches);
        let weighted = a.mean_distance() * a.total() as f64 + b.mean_distance() * b.total() as f64;
        let expected = weighted / (a.total() + b.total()) as f64;
        assert!((merged.mean_distance() - expected).abs() < 1e-9);
    }
}
