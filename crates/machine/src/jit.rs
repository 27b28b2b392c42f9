//! Template JIT: the accelerated engine's block format, a lowered IR of
//! pre-specialized host closures for the chainable subset.
//!
//! The reference engine dispatches one decoded [`Insn`] at a time
//! through the full `execute` match. With the acceleration layer on,
//! `Machine::step_block` instead extracts each decoded run once (see
//! `ICache::superblock`) and lowers it into a [`CompiledBlock`] of
//! segments:
//!
//! * `Alu` runs of pure-ALU *templates* — function pointers selected at
//!   lowering time with register slots resolved, immediates
//!   constant-folded (including fully PC-folded `ADR`/`ADRP`, since a
//!   block's virtual address is fixed by its icache key), and
//!   flag-setting variants split into their own entry points;
//! * `Mem` segments for `LDR`/`STR` with an unsigned immediate, served
//!   inline on a micro-DTLB hit (`Machine::step_jit`);
//! * `Branch` segments for `B.cond`/`CBZ`/`CBNZ`, their targets folded
//!   to absolute addresses. A taken branch is a *side exit*: it leaves
//!   the fall-through path and ends the block, unless it targets the
//!   block's own start, where the executor may loop back in-block;
//! * `Slow` segments for anything that needs full interpreter
//!   bookkeeping (pair and unprivileged loads/stores, and the block's
//!   trailing non-chainable instruction).
//!
//! Every extracted run lowers, so a block made only of `Slow` segments is
//! an ordinary compiled block: the engine has no second, interpreted
//! block loop.
//!
//! # Why per-segment revalidation is exact
//!
//! Stepping observes `Tlb::generation` and `PhysMem::write_gen`/
//! `frame_version` before every instruction. An ALU template or a branch
//! touches only `Cpu` registers, NZCV, the PC and the cycle/instruction
//! counters: it cannot insert or promote a TLB entry, write memory or
//! fault. An inline load or store on a micro-DTLB hit replays a free L1
//! hit (no TLB structure changes); a store bumps `write_gen`. Checking
//! once per segment boundary therefore observes exactly the states
//! stepping would. `Slow` segments and `Mem` fallbacks run through
//! `Machine::execute` with the interpreter's own per-instruction
//! bookkeeping, so a store that bumps `write_gen` (self-modifying code)
//! or a load that promotes a TLB entry ends the compiled block at the
//! same boundary a step loop would observe it. A loop-back re-runs the
//! checks that serving the block again from the run loop would make.
//!
//! # Why batched cycle charging is cycle-invariant
//!
//! Each ALU run's modelled cost (`n × insn_base` plus fixed
//! multiply/divide latencies) is summed at lowering time and charged in
//! one `cycles +=`. The only observers of intermediate cycle values are
//! journal events (`Machine::record_event` stamps `cpu.cycles`) and
//! traps — and ALU templates emit neither, so no observation point can
//! distinguish batched from per-instruction charging. When the quantum
//! or a breakpoint ends a block inside a run, the executor runs only the
//! run's first ops and charges each its own `Tmpl::cycles`, so a
//! partial run leaves the counters a step loop would. Trace entries are
//! `(pc, word, EL)` tuples without a cycle stamp and are replayed
//! per-op when tracing is enabled.

use crate::cpu::Cpu;
use lz_arch::insn::{Cond, Insn, LogicOp, MemSize};
use lz_arch::pstate::Nzcv;

/// Extra modelled latency of `MADD` beyond `insn_base` (shared with the
/// interpreter's `execute`).
pub(crate) const MADD_EXTRA_CYCLES: u8 = 2;
/// Extra modelled latency of `UDIV` beyond `insn_base`.
pub(crate) const UDIV_EXTRA_CYCLES: u8 = 8;

/// One lowered ALU instruction: a template function plus its resolved
/// operands. `run` is selected at lowering time (flag-setting and
/// add/sub variants get distinct entry points), register slots are plain
/// indices (`x31` semantics live in [`Cpu::reg`]/[`Cpu::set_reg`]), and
/// `a`/`b` carry folded immediates — a shift amount, a pre-shifted
/// imm12, a MOVK keep-mask, or a fully PC-folded `ADR`/`ADRP` result.
/// `extra` is the modelled latency beyond `insn_base`; `word` is kept
/// for trace replay.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tmpl {
    run: fn(&mut Cpu, &Tmpl),
    a: u64,
    b: u64,
    rd: u8,
    rn: u8,
    rm: u8,
    ra: u8,
    cond: Cond,
    extra: u8,
    pub(crate) word: u32,
}

impl Tmpl {
    /// Execute this template against `cpu`.
    #[inline(always)]
    pub(crate) fn exec(&self, cpu: &mut Cpu) {
        (self.run)(cpu, self)
    }

    /// This op's modelled cost: `insn_base` plus its fixed latency.
    #[inline]
    pub(crate) fn cycles(&self, insn_base: u64) -> u64 {
        insn_base + u64::from(self.extra)
    }
}

/// A compiled superblock segment.
#[derive(Debug)]
pub(crate) enum Segment {
    /// A run of pure-ALU templates; `cycles` is the run's total modelled
    /// cost (`ops.len() × insn_base` plus fixed latencies), charged once.
    Alu { ops: Box<[Tmpl]>, cycles: u64 },
    /// An `LDR`/`STR` with an unsigned immediate offset, run inline on a
    /// micro-DTLB hit.
    Mem(MemOp),
    /// A conditional branch (`B.cond`, `CBZ`, `CBNZ`).
    Branch(BranchOp),
    /// An instruction that needs full interpreter bookkeeping: a pair or
    /// unprivileged load/store (may fault, self-modify, or perturb the
    /// TLB) or the block's trailing non-chainable instruction.
    Slow { word: u32, insn: Insn },
}

/// A lowered `LDR`/`STR` (unsigned immediate). `insn` is the decoded
/// instruction, run through `execute` whenever the inline path cannot
/// serve the access (watchpoints, page-crossing, a micro-DTLB miss).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemOp {
    pub(crate) rt: u8,
    pub(crate) rn: u8,
    pub(crate) store: bool,
    pub(crate) bytes: u64,
    pub(crate) offset: u64,
    pub(crate) word: u32,
    pub(crate) insn: Insn,
}

/// The condition a [`BranchOp`] tests.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BranchTest {
    /// `B.cond`: NZCV satisfies the condition.
    Cond(Cond),
    /// `CBZ` (`nonzero == false`) / `CBNZ`: register `rt` is (not) zero.
    Zero { rt: u8, nonzero: bool },
}

/// A lowered conditional branch; `target` is the absolute taken
/// address (the block's VA is fixed by its icache key).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BranchOp {
    pub(crate) test: BranchTest,
    pub(crate) target: u64,
    pub(crate) word: u32,
}

impl BranchOp {
    /// Whether the branch is taken in `cpu`'s current state.
    #[inline(always)]
    pub(crate) fn taken(&self, cpu: &Cpu) -> bool {
        match self.test {
            BranchTest::Cond(cond) => cond.holds(cpu.pstate.nzcv),
            BranchTest::Zero { rt, nonzero } => (cpu.reg(rt) == 0) != nonzero,
        }
    }
}

/// A superblock lowered to segments. Stored in the icache page entry
/// that produced it and therefore dropped by exactly the invalidation
/// scopes (TLBI, ASID/VMID maintenance, content staleness, capacity)
/// that drop the decoded block; serve-time validation mirrors the
/// decoded-slot fast probe, and per-segment revalidation mirrors what
/// stepping observes.
#[derive(Debug)]
pub struct CompiledBlock {
    pub(crate) segs: Box<[Segment]>,
    /// Instructions in the block: it spans `[va, va + 4 * len)`.
    pub(crate) len: u64,
}

// --- template library ---------------------------------------------------

fn t_mov_const(cpu: &mut Cpu, t: &Tmpl) {
    cpu.set_reg(t.rd, t.a);
}

fn t_movk(cpu: &mut Cpu, t: &Tmpl) {
    let old = cpu.reg(t.rd);
    cpu.set_reg(t.rd, (old & t.a) | t.b);
}

fn t_add_imm(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), t.a, false, false);
}

fn t_adds_imm(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), t.a, false, true);
}

fn t_sub_imm(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), t.a, true, false);
}

fn t_subs_imm(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), t.a, true, true);
}

fn t_add_reg(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), cpu.reg(t.rm) << t.a, false, false);
}

fn t_adds_reg(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), cpu.reg(t.rm) << t.a, false, true);
}

fn t_sub_reg(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), cpu.reg(t.rm) << t.a, true, false);
}

fn t_subs_reg(cpu: &mut Cpu, t: &Tmpl) {
    cpu.arith(t.rd, cpu.reg(t.rn), cpu.reg(t.rm) << t.a, true, true);
}

fn t_and(cpu: &mut Cpu, t: &Tmpl) {
    let r = cpu.reg(t.rn) & (cpu.reg(t.rm) << t.a);
    cpu.set_reg(t.rd, r);
}

fn t_orr(cpu: &mut Cpu, t: &Tmpl) {
    let r = cpu.reg(t.rn) | (cpu.reg(t.rm) << t.a);
    cpu.set_reg(t.rd, r);
}

fn t_eor(cpu: &mut Cpu, t: &Tmpl) {
    let r = cpu.reg(t.rn) ^ (cpu.reg(t.rm) << t.a);
    cpu.set_reg(t.rd, r);
}

fn t_ands(cpu: &mut Cpu, t: &Tmpl) {
    let r = cpu.reg(t.rn) & (cpu.reg(t.rm) << t.a);
    cpu.pstate.nzcv = Nzcv { n: r >> 63 == 1, z: r == 0, c: false, v: false };
    cpu.set_reg(t.rd, r);
}

fn t_lsr(cpu: &mut Cpu, t: &Tmpl) {
    cpu.set_reg(t.rd, cpu.reg(t.rn) >> t.a);
}

fn t_lsl(cpu: &mut Cpu, t: &Tmpl) {
    cpu.set_reg(t.rd, cpu.reg(t.rn) << t.a);
}

fn t_madd(cpu: &mut Cpu, t: &Tmpl) {
    let v = cpu.reg(t.ra).wrapping_add(cpu.reg(t.rn).wrapping_mul(cpu.reg(t.rm)));
    cpu.set_reg(t.rd, v);
}

fn t_udiv(cpu: &mut Cpu, t: &Tmpl) {
    let v = cpu.reg(t.rn).checked_div(cpu.reg(t.rm)).unwrap_or(0);
    cpu.set_reg(t.rd, v);
}

fn t_csel(cpu: &mut Cpu, t: &Tmpl) {
    let v = if t.cond.holds(cpu.pstate.nzcv) { cpu.reg(t.rn) } else { cpu.reg(t.rm) };
    cpu.set_reg(t.rd, v);
}

fn t_csinc(cpu: &mut Cpu, t: &Tmpl) {
    let v = if t.cond.holds(cpu.pstate.nzcv) { cpu.reg(t.rn) } else { cpu.reg(t.rm).wrapping_add(1) };
    cpu.set_reg(t.rd, v);
}

fn t_nop(_cpu: &mut Cpu, _t: &Tmpl) {}

// --- lowering -----------------------------------------------------------

const BLANK: Tmpl = Tmpl { run: t_nop, a: 0, b: 0, rd: 31, rn: 31, rm: 31, ra: 31, cond: Cond::Al, extra: 0, word: 0 };

/// Lower one instruction to an ALU template, or `None` when it needs a
/// `Slow` segment. `pc` is the instruction's virtual address (fixed by
/// the block's icache key), letting `ADR`/`ADRP` fold completely.
fn lower_alu(pc: u64, word: u32, insn: Insn) -> Option<Tmpl> {
    Some(match insn {
        Insn::Movz { rd, imm16, hw } => Tmpl { run: t_mov_const, a: (imm16 as u64) << (16 * hw), rd, word, ..BLANK },
        Insn::Movn { rd, imm16, hw } => Tmpl { run: t_mov_const, a: !((imm16 as u64) << (16 * hw)), rd, word, ..BLANK },
        Insn::Movk { rd, imm16, hw } => {
            let mask = 0xffffu64 << (16 * hw);
            Tmpl { run: t_movk, a: !mask, b: (imm16 as u64) << (16 * hw), rd, word, ..BLANK }
        }
        Insn::AddImm { rd, rn, imm12, shift12, sub, set_flags } => {
            let run = match (sub, set_flags) {
                (false, false) => t_add_imm,
                (false, true) => t_adds_imm,
                (true, false) => t_sub_imm,
                (true, true) => t_subs_imm,
            };
            let b = (imm12 as u64) << if shift12 { 12 } else { 0 };
            Tmpl { run, a: b, rd, rn, word, ..BLANK }
        }
        Insn::AddReg { rd, rn, rm, shift, sub, set_flags } => {
            let run = match (sub, set_flags) {
                (false, false) => t_add_reg,
                (false, true) => t_adds_reg,
                (true, false) => t_sub_reg,
                (true, true) => t_subs_reg,
            };
            Tmpl { run, a: shift as u64, rd, rn, rm, word, ..BLANK }
        }
        Insn::LogicReg { rd, rn, rm, shift, op } => {
            let run = match op {
                LogicOp::And => t_and,
                LogicOp::Orr => t_orr,
                LogicOp::Eor => t_eor,
                LogicOp::Ands => t_ands,
            };
            Tmpl { run, a: shift as u64, rd, rn, rm, word, ..BLANK }
        }
        Insn::LsrImm { rd, rn, shift } => Tmpl { run: t_lsr, a: shift as u64, rd, rn, word, ..BLANK },
        Insn::LslImm { rd, rn, shift } => Tmpl { run: t_lsl, a: shift as u64, rd, rn, word, ..BLANK },
        Insn::Adr { rd, offset } => Tmpl { run: t_mov_const, a: pc.wrapping_add_signed(offset), rd, word, ..BLANK },
        Insn::Adrp { rd, offset } => {
            Tmpl { run: t_mov_const, a: (pc & !0xfff).wrapping_add_signed(offset), rd, word, ..BLANK }
        }
        Insn::Madd { rd, rn, rm, ra } => Tmpl { run: t_madd, rd, rn, rm, ra, extra: MADD_EXTRA_CYCLES, word, ..BLANK },
        Insn::Udiv { rd, rn, rm } => Tmpl { run: t_udiv, rd, rn, rm, extra: UDIV_EXTRA_CYCLES, word, ..BLANK },
        Insn::Csel { rd, rn, rm, cond } => Tmpl { run: t_csel, rd, rn, rm, cond, word, ..BLANK },
        Insn::Csinc { rd, rn, rm, cond } => Tmpl { run: t_csinc, rd, rn, rm, cond, word, ..BLANK },
        Insn::Nop => Tmpl { run: t_nop, word, ..BLANK },
        _ => return None,
    })
}

/// Lower a decoded superblock (as extracted by `ICache::superblock`,
/// starting at virtual address `va`) into a [`CompiledBlock`]. A run
/// with no ALU instruction lowers to non-ALU segments only.
pub(crate) fn lower(va: u64, buf: &[(u32, Insn)], insn_base: u64) -> CompiledBlock {
    let mut segs: Vec<Segment> = Vec::new();
    let mut run: Vec<Tmpl> = Vec::new();
    let mut run_cycles = 0u64;
    for (k, &(word, insn)) in buf.iter().enumerate() {
        let pc_k = va + 4 * k as u64;
        if let Some(t) = lower_alu(pc_k, word, insn) {
            run_cycles += t.cycles(insn_base);
            run.push(t);
            continue;
        }
        if !run.is_empty() {
            segs.push(Segment::Alu { ops: std::mem::take(&mut run).into_boxed_slice(), cycles: run_cycles });
            run_cycles = 0;
        }
        segs.push(lower_other(pc_k, word, insn));
    }
    if !run.is_empty() {
        segs.push(Segment::Alu { ops: run.into_boxed_slice(), cycles: run_cycles });
    }
    CompiledBlock { segs: segs.into_boxed_slice(), len: buf.len() as u64 }
}

/// Lower one non-ALU instruction at `pc`: an inline memory or branch
/// segment where one exists, else `Slow`.
fn lower_other(pc: u64, word: u32, insn: Insn) -> Segment {
    let mem = |rt, rn, offset, size: MemSize, store| {
        Segment::Mem(MemOp { rt, rn, store, bytes: size.bytes(), offset, word, insn })
    };
    match insn {
        Insn::LdrImm { rt, rn, offset, size } => mem(rt, rn, offset, size, false),
        Insn::StrImm { rt, rn, offset, size } => mem(rt, rn, offset, size, true),
        Insn::BCond { cond, offset } => {
            Segment::Branch(BranchOp { test: BranchTest::Cond(cond), target: pc.wrapping_add_signed(offset), word })
        }
        Insn::Cbz { rt, offset, nonzero } => Segment::Branch(BranchOp {
            test: BranchTest::Zero { rt, nonzero },
            target: pc.wrapping_add_signed(offset),
            word,
        }),
        _ => Segment::Slow { word, insn },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(words: &[u32]) -> Vec<(u32, Insn)> {
        words.iter().map(|&w| (w, Insn::decode(w))).collect()
    }

    #[test]
    fn pure_alu_block_lowers_to_one_run() {
        // movz x0, #7 ; add x0, x0, #1 ; nop
        let buf = block(&[0xD280_00E0, 0x9100_0400, 0xD503_201F]);
        let b = lower(0x40_0000, &buf, 1);
        assert_eq!(b.segs.len(), 1);
        match &b.segs[0] {
            Segment::Alu { ops, cycles } => {
                assert_eq!(ops.len(), 3);
                assert_eq!(*cycles, 3);
            }
            s => panic!("expected ALU run, got {s:?}"),
        }
    }

    #[test]
    fn memory_ops_split_runs() {
        // movz x0, #7 ; ldr x1, [x2] ; movz x3, #9
        let buf = block(&[0xD280_00E0, 0xF940_0041, 0xD280_0123]);
        let b = lower(0x40_0000, &buf, 1);
        assert_eq!(b.segs.len(), 3);
        assert_eq!(b.len, 3);
        assert!(matches!(b.segs[0], Segment::Alu { .. }));
        assert!(matches!(b.segs[1], Segment::Mem(MemOp { rt: 1, rn: 2, offset: 0, bytes: 8, store: false, .. })));
        assert!(matches!(b.segs[2], Segment::Alu { .. }));
    }

    #[test]
    fn block_with_no_alu_lowers_to_other_segments() {
        // ldp x1, x2, [x3] ; str w1, [x2, #4] ; svc #0
        let buf = block(&[0xA940_0861, 0xB900_0441, 0xD400_0001]);
        let b = lower(0x40_0000, &buf, 1);
        assert_eq!(b.segs.len(), 3);
        assert!(matches!(b.segs[0], Segment::Slow { .. }));
        assert!(matches!(b.segs[1], Segment::Mem(MemOp { store: true, bytes: 4, offset: 4, .. })));
        assert!(matches!(b.segs[2], Segment::Slow { .. }));
    }

    #[test]
    fn branch_targets_fold_to_absolute_addresses() {
        // b.ne .-4 at va+4 ; cbnz x3, .+8 at va+8
        let buf = block(&[
            0xD503_201F,
            Insn::BCond { cond: Cond::Ne, offset: -4 }.encode(),
            Insn::Cbz { rt: 3, offset: 8, nonzero: true }.encode(),
        ]);
        let b = lower(0x40_0100, &buf, 1);
        let Segment::Branch(ne) = &b.segs[1] else { panic!("expected a branch segment") };
        let Segment::Branch(cbnz) = &b.segs[2] else { panic!("expected a branch segment") };
        assert_eq!((ne.target, cbnz.target), (0x40_0100, 0x40_0110));
        let mut cpu = Cpu::new();
        cpu.pstate.nzcv.z = true;
        assert!(!ne.taken(&cpu) && !cbnz.taken(&cpu));
        cpu.pstate.nzcv.z = false;
        cpu.set_reg(3, 1);
        assert!(ne.taken(&cpu) && cbnz.taken(&cpu));
    }

    #[test]
    fn madd_and_udiv_latencies_are_batched() {
        // mul x0, x1, x2 ; udiv x3, x4, x5
        let buf = block(&[0x9B02_7C20, 0x9AC5_0883]);
        let b = lower(0x40_0000, &buf, 1);
        match &b.segs[0] {
            Segment::Alu { cycles, .. } => {
                assert_eq!(*cycles, 2 + u64::from(MADD_EXTRA_CYCLES + UDIV_EXTRA_CYCLES));
            }
            s => panic!("expected ALU run, got {s:?}"),
        }
    }

    #[test]
    fn adr_folds_to_block_va() {
        // adr x0, #+16 at va 0x40_0100
        let buf = block(&[0x1000_0080]);
        // Single ADR is still an ALU run.
        let b = lower(0x40_0100, &buf, 1);
        let Segment::Alu { ops, .. } = &b.segs[0] else { panic!("expected ALU run") };
        let mut cpu = Cpu::new();
        ops[0].exec(&mut cpu);
        assert_eq!(cpu.reg(0), 0x40_0100 + 16);
    }
}
