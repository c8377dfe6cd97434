//! The retire-loop self-profiler: per-opcode retire counts, a
//! hot-basic-block histogram, and phase attribution of simulated-cycle
//! and wall-clock cost.
//!
//! The ROADMAP's throughput rewrite needs to know *where* a retired
//! instruction's time goes before any restructuring can be justified.
//! This module answers that with four phase buckets:
//!
//! - [`Phase::Decode`] — fetch (iTLB + L1I) plus instruction decode;
//! - [`Phase::Dispatch`] — execution of ALU, branch, and system
//!   instructions;
//! - [`Phase::Memory`] — execution of loads/stores (the dTLB + cache
//!   model dominates here);
//! - [`Phase::Qarma`] — execution of the PA instructions, whose cost is
//!   the QARMA-64 datapath.
//!
//! The profiler times the one retire loop an iteration at a time: a
//! cursor-served run of register-only instructions, with the fetch of
//! the one ending it, is one host-time interval of [`Phase::Dispatch`];
//! a full fetch is one of [`Phase::Decode`]; each `exec` is one of its
//! instruction's phase. Counts and simulated cycles equal per-instruction
//! attribution: a run's fetches, cycles and block membership are sums,
//! and a register-only `exec` adds no cycles. The loop branches on
//! [`Profiler::is_enabled`] at its record points only, so a disabled
//! profiler reads no clock; an enabled one reads it once per interval
//! boundary and holds the open interval's start itself.
//!
//! Basic blocks are keyed by their entry PC: a new block begins
//! whenever the previous instruction's architectural successor differs
//! from the PC actually retired (i.e. after any taken control transfer,
//! including traps into the kernel vector).
//!
//! [`Machine`]: crate::machine::Machine

use pacman_isa::Inst;
use pacman_telemetry::Registry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Pipeline phase the profiler attributes cost to.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum Phase {
    /// Instruction fetch (iTLB + L1I) and decode.
    Decode,
    /// ALU / branch / system instruction execution.
    Dispatch,
    /// Load/store execution through the memory model.
    Memory,
    /// Pointer-authentication execution (QARMA-64 datapath).
    Qarma,
}

/// Every phase, in export order.
pub const PHASES: [Phase; 4] = [Phase::Decode, Phase::Dispatch, Phase::Memory, Phase::Qarma];

impl Phase {
    /// Canonical lower-case name used in `profile.phase.*` series.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::Dispatch => "dispatch",
            Phase::Memory => "memory",
            Phase::Qarma => "qarma",
        }
    }
}

/// The mnemonic an instruction retires under (one per `Inst` variant).
pub fn mnemonic(inst: &Inst) -> &'static str {
    match inst {
        Inst::Nop => "nop",
        Inst::Isb => "isb",
        Inst::Dsb => "dsb",
        Inst::Hlt => "hlt",
        Inst::Eret => "eret",
        Inst::Svc { .. } => "svc",
        Inst::MovZ { .. } => "movz",
        Inst::MovK { .. } => "movk",
        Inst::MovN { .. } => "movn",
        Inst::MovReg { .. } => "mov",
        Inst::Csel { .. } => "csel",
        Inst::AddImm { .. } => "add_imm",
        Inst::SubImm { .. } => "sub_imm",
        Inst::AddReg { .. } => "add",
        Inst::SubReg { .. } => "sub",
        Inst::AndReg { .. } => "and",
        Inst::OrrReg { .. } => "orr",
        Inst::EorReg { .. } => "eor",
        Inst::LslImm { .. } => "lsl",
        Inst::LsrImm { .. } => "lsr",
        Inst::Mul { .. } => "mul",
        Inst::CmpImm { .. } => "cmp_imm",
        Inst::CmpReg { .. } => "cmp",
        Inst::Ldr { .. } => "ldr",
        Inst::Str { .. } => "str",
        Inst::Ldrb { .. } => "ldrb",
        Inst::Strb { .. } => "strb",
        Inst::Ldp { .. } => "ldp",
        Inst::Stp { .. } => "stp",
        Inst::B { .. } => "b",
        Inst::Bl { .. } => "bl",
        Inst::BCond { .. } => "b_cond",
        Inst::Cbz { .. } => "cbz",
        Inst::Cbnz { .. } => "cbnz",
        Inst::Tbz { .. } => "tbz",
        Inst::Tbnz { .. } => "tbnz",
        Inst::Br { .. } => "br",
        Inst::Blr { .. } => "blr",
        Inst::Ret => "ret",
        Inst::Pac { .. } => "pac",
        Inst::Aut { .. } => "aut",
        Inst::Xpac { .. } => "xpac",
        Inst::Pacga { .. } => "pacga",
        Inst::Mrs { .. } => "mrs",
        Inst::Msr { .. } => "msr",
    }
}

/// The execution phase an instruction's retire cost is attributed to
/// (its fetch/decode cost always lands in [`Phase::Decode`]).
pub fn phase_of(inst: &Inst) -> Phase {
    match inst {
        Inst::Ldr { .. }
        | Inst::Str { .. }
        | Inst::Ldrb { .. }
        | Inst::Strb { .. }
        | Inst::Ldp { .. }
        | Inst::Stp { .. } => Phase::Memory,
        Inst::Pac { .. } | Inst::Aut { .. } | Inst::Xpac { .. } | Inst::Pacga { .. } => {
            Phase::Qarma
        }
        _ => Phase::Dispatch,
    }
}

/// Accumulated cost of one opcode.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct OpcodeCost {
    /// Instructions retired under this mnemonic.
    pub retired: u64,
    /// Simulated cycles spent executing them (excluding fetch/decode).
    pub cycles: u64,
}

/// Accumulated cost of one basic block, keyed by entry PC.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct BlockCost {
    /// Times control entered the block.
    pub entries: u64,
    /// Instructions retired inside it.
    pub insts: u64,
    /// Simulated cycles retired inside it (fetch/decode + execute).
    pub cycles: u64,
}

/// Accumulated cost of one [`Phase`].
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct PhaseCost {
    /// Hook invocations attributed to the phase.
    pub events: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Host wall-clock nanoseconds.
    pub wall_ns: u64,
}

/// The per-machine profiler state. See the [module docs](self) for the
/// attribution model and cost discipline.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    enabled: bool,
    opcodes: BTreeMap<&'static str, OpcodeCost>,
    blocks: BTreeMap<u64, BlockCost>,
    phases: [PhaseCost; 4],
    /// Fall-through successor (`pc + 4`) of the previous retired
    /// instruction; a retire at any other PC — i.e. after any taken
    /// control transfer — opens a new basic block.
    expected_pc: Option<u64>,
    /// Entry PC of the block currently executing.
    current_block: u64,
    /// Where the open interval began: the host clock's reading and the
    /// machine's cycle count.
    mark: Option<(Instant, u64)>,
    /// The instruction fetched last, whose `exec` is not recorded yet.
    fetched: Option<Inst>,
}

impl Profiler {
    /// A profiler; enabled per `MachineConfig::profile`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, ..Self::default() }
    }

    /// Whether the retire loop records into this profiler.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing at an entry to the retire loop, the machine's cycle
    /// count being `cycles`.
    pub(crate) fn start(&mut self, cycles: u64) {
        self.mark = Some((Instant::now(), cycles));
    }

    /// Records one fetch of the retire loop, the machine's cycle count
    /// now being `cycles`: the instructions fetched in program order from
    /// `pc`, that is `ran`, the register-only instructions a cursor-served
    /// run retired without `exec`, then `ender`, if any, whose `exec` the
    /// next [`record_exec`](Self::record_exec) records. The host time
    /// since the last record goes to `phase`: [`Phase::Dispatch`] for a
    /// cursor-served run, [`Phase::Decode`] for a full fetch.
    #[cold]
    pub(crate) fn record_fetch<'a>(
        &mut self,
        pc: u64,
        cycles: u64,
        ran: impl IntoIterator<Item = &'a Inst>,
        ender: Option<Inst>,
        phase: Phase,
    ) {
        let (cycles, wall_ns) = self.lap(cycles);
        let mut retired = 0;
        for inst in ran {
            self.opcodes.entry(mnemonic(inst)).or_default().retired += 1;
            retired += 1;
        }
        self.phases[Phase::Dispatch as usize].events += retired;
        let fetched = retired + u64::from(ender.is_some());
        self.fetched = ender;
        let decode = &mut self.phases[Phase::Decode as usize];
        decode.events += fetched;
        decode.cycles += cycles;
        let wall = &mut self.phases[phase as usize].wall_ns;
        *wall = wall.saturating_add(wall_ns);

        if self.expected_pc != Some(pc) {
            self.current_block = pc;
            self.blocks.entry(pc).or_default().entries += 1;
        }
        let block = self.blocks.entry(self.current_block).or_default();
        block.insts += fetched;
        block.cycles += cycles;
        self.expected_pc = Some(pc + 4 * fetched);
    }

    /// Records the `exec` of the instruction fetched last, which left the
    /// machine's cycle count at `cycles`: the cycles and host time since
    /// the last record, attributed to its mnemonic, its phase and its
    /// block.
    #[cold]
    pub(crate) fn record_exec(&mut self, cycles: u64) {
        let inst = self.fetched.take().expect("an instruction is fetched before it executes");
        let (cycles, wall_ns) = self.lap(cycles);
        let op = self.opcodes.entry(mnemonic(&inst)).or_default();
        op.retired += 1;
        op.cycles += cycles;

        let phase = &mut self.phases[phase_of(&inst) as usize];
        phase.events += 1;
        phase.cycles += cycles;
        phase.wall_ns = phase.wall_ns.saturating_add(wall_ns);

        self.blocks.entry(self.current_block).or_default().cycles += cycles;
    }

    /// Ends the open interval at the cycle count `cycles` and starts the
    /// next with the same clock reading: the ended interval's simulated
    /// cycles and host nanoseconds.
    fn lap(&mut self, cycles: u64) -> (u64, u64) {
        let (at, start) = self.mark.expect("the retire loop starts the profiler before recording");
        let now = Instant::now();
        self.mark = Some((now, cycles));
        (cycles - start, u64::try_from(now.duration_since(at).as_nanos()).unwrap_or(u64::MAX))
    }

    /// Per-opcode costs, keyed by mnemonic.
    pub fn opcodes(&self) -> &BTreeMap<&'static str, OpcodeCost> {
        &self.opcodes
    }

    /// Per-block costs, keyed by entry PC.
    pub fn blocks(&self) -> &BTreeMap<u64, BlockCost> {
        &self.blocks
    }

    /// Accumulated cost of `phase`.
    pub fn phase(&self, phase: Phase) -> PhaseCost {
        self.phases[phase as usize]
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.opcodes.is_empty() && self.phases.iter().all(|p| p.events == 0)
    }

    /// Exports everything as `profile.*` counters. Counter-only on
    /// purpose: counters merge commutatively across shard registries,
    /// so sharded profiles aggregate exactly. Same lifetime-total
    /// caveat as `Machine::export_telemetry` — export once per run.
    pub fn export_into(&self, reg: &mut Registry) {
        if !reg.is_enabled() || self.is_empty() {
            return;
        }
        for (mnem, c) in &self.opcodes {
            reg.incr_by(&format!("profile.opcode.{mnem}.retired"), c.retired);
            reg.incr_by(&format!("profile.opcode.{mnem}.cycles"), c.cycles);
        }
        for (phase, cost) in PHASES.iter().zip(self.phases.iter()) {
            let name = phase.name();
            reg.incr_by(&format!("profile.phase.{name}.events"), cost.events);
            reg.incr_by(&format!("profile.phase.{name}.cycles"), cost.cycles);
            reg.incr_by(&format!("profile.phase.{name}.wall_ns"), cost.wall_ns);
        }
        for (pc, b) in &self.blocks {
            reg.incr_by(&format!("profile.block.{pc:#x}.entries"), b.entries);
            reg.incr_by(&format!("profile.block.{pc:#x}.insts"), b.insts);
            reg.incr_by(&format!("profile.block.{pc:#x}.cycles"), b.cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_isa::Reg;

    fn add() -> Inst {
        Inst::AddImm { rd: Reg::X0, rn: Reg::X0, imm: 1 }
    }

    #[test]
    fn phases_and_mnemonics_classify() {
        assert_eq!(phase_of(&add()), Phase::Dispatch);
        assert_eq!(phase_of(&Inst::Ldr { rt: Reg::X0, rn: Reg::X1, offset: 0 }), Phase::Memory);
        assert_eq!(mnemonic(&Inst::Ret), "ret");
        assert_eq!(Phase::Qarma.name(), "qarma");
    }

    #[test]
    fn straight_line_code_is_one_block() {
        let mut p = Profiler::new(true);
        p.start(100);
        // A run of three register-only instructions whose fetches, and
        // that of the branch ending it, cost 8 cycles; then the branch.
        let branch = Inst::B { offset: 0 };
        p.record_fetch(0x1000, 108, &[add(), add(), add()], Some(branch), Phase::Dispatch);
        p.record_exec(109);
        assert_eq!(p.blocks().len(), 1);
        let b = p.blocks()[&0x1000];
        assert_eq!((b.entries, b.insts, b.cycles), (1, 4, 9));
        assert_eq!(p.opcodes()["add_imm"], OpcodeCost { retired: 3, cycles: 0 });
        assert_eq!(p.opcodes()["b"], OpcodeCost { retired: 1, cycles: 1 });
        let dispatch = p.phase(Phase::Dispatch);
        assert_eq!((dispatch.events, dispatch.cycles), (4, 1));
        let decode = p.phase(Phase::Decode);
        assert_eq!((decode.events, decode.cycles, decode.wall_ns), (4, 8, 0));
    }

    #[test]
    fn control_transfers_open_new_blocks() {
        let mut p = Profiler::new(true);
        p.start(0);
        // 0x1000 falls through to 0x1004; 0x1004 branches to 0x2000;
        // 0x2000 branches back to 0x1000 (loop entry counted again).
        let b = Inst::B { offset: 0 };
        p.record_fetch(0x1000, 2, [&add()], Some(b), Phase::Dispatch);
        p.record_exec(3);
        p.record_fetch(0x2000, 4, [], Some(b), Phase::Decode);
        p.record_exec(5);
        p.record_fetch(0x1000, 6, [], Some(add()), Phase::Decode);
        p.record_exec(6);
        assert_eq!(p.blocks().len(), 2);
        assert_eq!(p.blocks()[&0x1000].entries, 2);
        assert_eq!(p.blocks()[&0x2000].entries, 1);
        assert_eq!(p.blocks()[&0x1000].insts, 3);
        assert_eq!(p.blocks()[&0x1000].cycles, 4);
    }

    #[test]
    fn export_writes_profile_counters() {
        let mut p = Profiler::new(true);
        p.start(0);
        p.record_fetch(0x4000, 2, [], Some(add()), Phase::Decode);
        p.record_exec(3);
        let mut reg = Registry::new();
        p.export_into(&mut reg);
        assert_eq!(reg.counter_value("profile.opcode.add_imm.retired"), 1);
        assert_eq!(reg.counter_value("profile.phase.decode.cycles"), 2);
        assert_eq!(reg.counter_value("profile.phase.dispatch.cycles"), 1);
        assert_eq!(reg.counter_value("profile.block.0x4000.cycles"), 3);

        // An empty profiler exports nothing at all.
        let mut empty = Registry::new();
        Profiler::new(true).export_into(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn host_time_is_split_at_the_records_without_a_gap() {
        let mut p = Profiler::new(true);
        p.start(0);
        let (started, _) = p.mark.unwrap();
        let ldr = Inst::Ldr { rt: Reg::X0, rn: Reg::X1, offset: 0 };
        p.record_fetch(0x1000, 2, [&add()], Some(ldr), Phase::Dispatch);
        p.record_exec(6);
        // A run the page end cuts, with no instruction to execute.
        p.record_fetch(0x1008, 7, [&add()], None, Phase::Dispatch);
        p.record_fetch(0x100c, 8, [], Some(add()), Phase::Decode);
        p.record_exec(8);
        let wall: u64 = PHASES.iter().map(|&phase| p.phase(phase).wall_ns).sum();
        let (ended, cycles) = p.mark.unwrap();
        assert_eq!(u128::from(wall), ended.duration_since(started).as_nanos());
        assert_eq!((cycles, p.blocks()[&0x1000].insts), (8, 4));
    }
}
