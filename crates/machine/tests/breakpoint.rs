//! Host breakpoints (`Machine::break_before`) and quantum ends on both
//! engines.
//!
//! One EL0 program runs under the reference step loop and the
//! accelerated engine (compiled blocks). A breakpoint placed at a block
//! start, in the middle of a block, inside an already compiled block, or
//! at a fall-through entry must stop both engines at the same `(pc,
//! insns, cycles)`, be consumed when it fires, and leave no trace:
//! resuming to the exit must reach exactly the state of an unbroken run,
//! event journal included. A second program checks that a quantum end or
//! a breakpoint inside an ALU run holding a MADD and a UDIV stops the
//! compiled block itself with per-instruction cycles. A third, a byte
//! scan whose compiled block loops back to its own start in-block and
//! leaves by a side exit, checks breakpoints at the looping block's start
//! and inside its body, and quantum ends mid-loop.

use lz_arch::asm::Asm;
use lz_arch::esr::ExceptionClass;
use lz_arch::pstate::PState;
use lz_arch::sysreg::{hcr, sctlr, ttbr, SysReg};
use lz_arch::Platform;
use lz_machine::pte::S1Perms;
use lz_machine::walk::{alloc_table, s1_map_page};
use lz_machine::{Exit, Machine};

const CODE: u64 = 0x40_0000;
const DATA: u64 = 0x50_0000;
const LIMIT: u64 = 1_000_000;
const OUTER: u64 = 6;
const INNER: u64 = 5;
/// Arrivals at the inner loop top after which the accelerated engine
/// serves the inner loop's block compiled (the first passes step and
/// recompile it while the data page's TLB entry settles).
const WARM: u64 = 8;

/// The engines, as `(name, accel)`.
const ENGINES: [(&str, bool); 2] = [("reference", false), ("accelerated", true)];

/// Addresses of interest in the test program.
#[derive(Debug, Clone, Copy)]
struct Marks {
    /// First instruction of the outer loop (entered by fall-through,
    /// then as a branch target).
    outer: u64,
    /// First instruction of the inner loop (a branch target).
    inner: u64,
    /// An ALU instruction in the middle of the inner loop's block.
    mid: u64,
    /// The fall-through after the inner loop's `b.ne`.
    after_inner: u64,
    /// The return point of the in-loop `svc`.
    after_svc: u64,
}

/// Nested loops: a long ALU run with a store and a load in the inner
/// loop (JIT-compilable, with slow segments), an `svc` per outer
/// iteration (a journalled trap the driver resumes from), and a final
/// `svc` with `x0 == 0`.
fn program() -> (Asm, Marks) {
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, OUTER);
    a.mov_imm64(11, DATA);
    let outer = a.here();
    let outer_l = a.label();
    a.bind(outer_l);
    a.mov_imm64(1, INNER);
    let inner = a.here();
    let inner_l = a.label();
    a.bind(inner_l);
    a.add_imm(2, 2, 1);
    a.eor_reg(3, 3, 2);
    a.orr_reg(4, 4, 3);
    a.add_reg(5, 5, 4);
    a.str(5, 11, 0);
    a.add_imm(6, 6, 3);
    a.eor_reg(7, 7, 6);
    let mid = a.here();
    a.add_reg(9, 9, 7);
    a.orr_reg(10, 10, 9);
    a.ldr(8, 11, 0);
    a.add_reg(12, 12, 8);
    a.eor_reg(13, 13, 12);
    a.subs_imm(1, 1, 1);
    a.b_ne(inner_l);
    let after_inner = a.here();
    a.add_reg(14, 14, 2);
    a.svc(0);
    let after_svc = a.here();
    a.add_reg(15, 15, 14);
    a.subs_imm(0, 0, 1);
    a.b_ne(outer_l);
    a.svc(0);
    (a, Marks { outer, inner, mid, after_inner, after_svc })
}

fn machine(engine: (&str, bool)) -> Machine {
    machine_with(engine, program().0.bytes())
}

/// A machine on `engine` with `code` mapped at `CODE` and a data page at
/// `DATA`, about to run `code` at EL0.
fn machine_with(engine: (&str, bool), code: Vec<u8>) -> Machine {
    let mut m = Machine::new(Platform::CortexA55);
    m.set_accel(engine.1);
    m.set_metrics(true);
    let root = alloc_table(&mut m.mem);
    let code_pa = m.mem.alloc_frame();
    m.mem.write_bytes(code_pa, &code);
    let code = S1Perms { read: true, write: false, user_exec: true, priv_exec: false, el0: true, global: false };
    s1_map_page(&mut m.mem, root, CODE, code_pa, code);
    let data_pa = m.mem.alloc_frame();
    let data = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
    s1_map_page(&mut m.mem, root, DATA, data_pa, data);
    m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
    m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
    m.cpu.pstate = PState::user();
    m.cpu.pc = CODE;
    m
}

/// Run until a breakpoint or the final `svc`, resuming after every
/// in-loop `svc` the way a modelled EL2 handler would.
fn drive(m: &mut Machine) -> Exit {
    loop {
        match m.run(LIMIT) {
            Exit::El2(ExceptionClass::Svc) if m.cpu.x[0] != 0 => {
                let elr = m.sysreg(SysReg::ELR_EL2);
                m.enter(PState::user(), elr);
            }
            exit => return exit,
        }
    }
}

/// Everything an unbroken run must reproduce.
type Final = (u64, u64, u64, [u64; 31], String);

fn finish(m: &mut Machine) -> Final {
    assert_eq!(drive(m), Exit::El2(ExceptionClass::Svc), "program must reach its final svc");
    assert_eq!(m.cpu.x[0], 0);
    (m.cpu.pc, m.cpu.insns, m.cpu.cycles, m.cpu.x, m.journal.dump_json())
}

/// Arm each `(pc, hits)` in turn and run to it; returns every stop's
/// `(pc, insns, cycles)` and the state at the final `svc`.
fn run_case(engine: (&str, bool), stops: &[(u64, u64)]) -> (Vec<(u64, u64, u64)>, Final) {
    let mut m = machine(engine);
    let mut seen = Vec::new();
    for &(pc, hits) in stops {
        m.break_before(pc, hits);
        assert_eq!(m.breakpoint(), Some((pc, hits)));
        assert_eq!(drive(&mut m), Exit::Limit, "{}: breakpoint {pc:#x}x{hits} never fired", engine.0);
        assert_eq!(m.breakpoint(), None, "{}: a fired breakpoint must be consumed", engine.0);
        assert_eq!(m.cpu.pc, pc, "{}: stopped at the wrong instruction", engine.0);
        seen.push((m.cpu.pc, m.cpu.insns, m.cpu.cycles));
    }
    (seen, finish(&mut m))
}

fn cases(k: Marks) -> Vec<(&'static str, Vec<(u64, u64)>)> {
    vec![
        ("first instruction", vec![(CODE, 1)]),
        ("block start, fall-through entry", vec![(k.outer, 1)]),
        ("block start, branch target", vec![(k.outer, 4)]),
        ("inner loop top", vec![(k.inner, 1)]),
        ("inner loop top, later pass", vec![(k.inner, 7)]),
        ("mid-block", vec![(k.mid, 1)]),
        ("mid-block, later pass", vec![(k.mid, 6)]),
        ("inside a compiled block", vec![(k.inner, WARM), (k.mid, 1)]),
        ("inside a compiled block, later pass", vec![(k.inner, WARM), (k.mid, 5)]),
        ("fall-through after b.ne", vec![(k.after_inner, 1)]),
        ("fall-through after b.ne, later pass", vec![(k.after_inner, 3)]),
        ("return point of an svc", vec![(k.after_svc, 2)]),
        ("chained breakpoints", vec![(k.mid, 2), (k.after_inner, 1), (k.inner, 2), (k.after_svc, 1)]),
    ]
}

#[test]
fn every_engine_stops_at_the_same_boundary_and_resumes_exactly() {
    let marks = program().1;
    let unbroken: Vec<Final> = ENGINES.iter().map(|&e| finish(&mut machine(e))).collect();
    for f in &unbroken[1..] {
        assert_eq!(f, &unbroken[0], "engines disagree without any breakpoint");
    }
    for (name, stops) in cases(marks) {
        let reference = run_case(ENGINES[0], &stops);
        for (i, &engine) in ENGINES.iter().enumerate() {
            let (seen, fin) = run_case(engine, &stops);
            assert_eq!(seen, reference.0, "{name}: {} stopped elsewhere than the reference step", engine.0);
            assert_eq!(fin, unbroken[i], "{name}: {} resumed to a different final state", engine.0);
        }
    }
}

#[test]
fn stops_count_retired_instructions_exactly() {
    // The first instruction stops before anything retires; the inner
    // loop's second arrival follows exactly one inner iteration.
    let marks = program().1;
    let (seen, _) = run_case(ENGINES[0], &[(CODE, 1)]);
    assert_eq!((seen[0].1, seen[0].2), (0, 0));
    let (first, _) = run_case(ENGINES[0], &[(marks.inner, 1)]);
    let (second, _) = run_case(ENGINES[0], &[(marks.inner, 2)]);
    assert_eq!(second[0].1 - first[0].1, (marks.after_inner - marks.inner) / 4);
}

#[test]
fn jit_case_really_enters_compiled_blocks() {
    // Guard the "inside a compiled block" case against silently testing
    // the step fallback only: by the first stop the engine has run
    // compiled blocks, and the stop at `mid` is one more compiled-block
    // entry — the block at `inner`, clamped by the breakpoint.
    let marks = program().1;
    let mut m = machine(ENGINES[1]);
    m.break_before(marks.inner, WARM);
    assert_eq!(drive(&mut m), Exit::Limit);
    let before = m.tlb.fast_stats().jit_blocks;
    assert!(before > 0, "the engine never entered a compiled block");
    m.break_before(marks.mid, 1);
    assert_eq!(drive(&mut m), Exit::Limit);
    assert_eq!(m.cpu.pc, marks.mid);
    assert_eq!(m.tlb.fast_stats().jit_blocks, before + 1);
}

/// A loop whose block starts with a six-op ALU run holding a MADD (op 1)
/// and a UDIV (op 3), then a store, a one-op ALU run and the `b.ne`.
/// Returns the code and the loop top.
fn latency_program() -> (Vec<u8>, u64) {
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, 12);
    a.mov_imm64(11, DATA);
    a.mov_imm64(20, 3);
    let top = a.here();
    let top_l = a.label();
    a.bind(top_l);
    a.add_imm(2, 2, 5);
    a.madd(3, 2, 2, 3);
    a.eor_reg(4, 4, 3);
    a.udiv(5, 3, 20);
    a.orr_reg(6, 6, 5);
    a.add_reg(7, 7, 6);
    a.str(7, 11, 0);
    a.subs_imm(0, 0, 1);
    a.b_ne(top_l);
    a.svc(0);
    (a.bytes(), top)
}

#[test]
fn quantum_and_breakpoint_stop_inside_a_compiled_alu_run() {
    let (code, top) = latency_program();
    // Warm up to the loop top's 4th arrival (the block is compiled by
    // then), stop `ops` instructions into the ALU run — by quantum or by
    // breakpoint — and resume to the final `svc`.
    let stop = |engine: (&str, bool), ops: u64, by_breakpoint: bool| {
        let mut m = machine_with(engine, code.clone());
        m.break_before(top, 4);
        assert_eq!(drive(&mut m), Exit::Limit);
        let blocks = m.tlb.fast_stats().jit_blocks;
        if by_breakpoint {
            m.break_before(top + 4 * ops, 1);
            assert_eq!(drive(&mut m), Exit::Limit);
        } else {
            assert_eq!(m.run(ops), Exit::Limit);
        }
        let at = (m.cpu.pc, m.cpu.insns, m.cpu.cycles, m.journal.dump_json());
        let entries = m.tlb.fast_stats().jit_blocks - blocks;
        (at, entries, finish(&mut m))
    };
    let unbroken = finish(&mut machine_with(ENGINES[0], code.clone()));
    // 2: after the MADD; 3: between MADD and UDIV; 4: after the UDIV;
    // 5: one op short of the run's end.
    for ops in 2..=5u64 {
        for by_breakpoint in [false, true] {
            let how = if by_breakpoint { "breakpoint" } else { "quantum" };
            let (reference, _, ref_fin) = stop(ENGINES[0], ops, by_breakpoint);
            let (accel, entries, fin) = stop(ENGINES[1], ops, by_breakpoint);
            assert_eq!(reference.0, top + 4 * ops, "{how} {ops}: reference stopped at the wrong pc");
            assert_eq!(accel, reference, "{how} {ops}: compiled block stopped elsewhere than the reference");
            assert_eq!(entries, 1, "{how} {ops}: the stop did not come from one compiled-block entry");
            assert_eq!(fin, ref_fin, "{how} {ops}: resumed to a different final state");
            assert_eq!(fin, unbroken, "{how} {ops}: the stop left a trace");
        }
    }
}

#[test]
fn run_epoch_ignores_and_keeps_the_breakpoint() {
    let marks = program().1;
    for engine in ENGINES {
        let mut m = machine(engine);
        m.break_before(marks.inner, 1);
        let out = m.run_epoch(&[LIMIT]);
        assert_eq!(out[0].0, Exit::El2(ExceptionClass::Svc), "{}: epoch stopped early", engine.0);
        assert_eq!(m.breakpoint(), Some((marks.inner, 1)), "{}: epoch consumed the breakpoint", engine.0);
    }
}

/// Outer passes of [`scan_program`].
const SCANS: u64 = 3;
/// Offset of the 0xff byte each scan stops at (a `b.eq` side exit).
const NEEDLE_AT: u64 = 25;

/// Addresses of interest in the scan program.
#[derive(Debug, Clone, Copy)]
struct ScanMarks {
    /// The scan loop's first instruction: a `ldrb` its own `b.ne` targets.
    scan: u64,
    /// The `cmp` inside the scan body.
    body: u64,
    /// The side-exit target after the `b.eq`.
    found: u64,
}

/// The Figure 5 search loop (`ldrb; add; cmp; b.eq; subs; b.ne`) inside
/// `SCANS` outer passes, each ending in a resumable `svc`; the byte
/// scanned for is planted by an inline `strb`.
fn scan_program() -> (Vec<u8>, ScanMarks) {
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, SCANS);
    a.mov_imm64(11, DATA);
    a.mov_imm64(12, 0xff);
    a.strb(12, 11, NEEDLE_AT);
    let outer = a.label();
    a.bind(outer);
    a.mov_imm64(24, 40);
    a.mov_reg(25, 11);
    let scan = a.here();
    let scan_l = a.label();
    let found_l = a.label();
    a.bind(scan_l);
    a.ldrb(26, 25, 0);
    a.add_imm(25, 25, 1);
    let body = a.here();
    a.cmp_imm(26, 0xff);
    a.b_eq(found_l);
    a.subs_imm(24, 24, 1);
    a.b_ne(scan_l);
    let found = a.here();
    a.bind(found_l);
    a.add_reg(14, 14, 24);
    a.svc(0);
    a.subs_imm(0, 0, 1);
    a.b_ne(outer);
    a.svc(0);
    (a.bytes(), ScanMarks { scan, body, found })
}

/// Run `code` to its final `svc` in `quantum`-instruction slices.
fn finish_sliced(m: &mut Machine, quantum: u64) -> Final {
    loop {
        match m.run(quantum) {
            Exit::Limit => {}
            Exit::El2(ExceptionClass::Svc) if m.cpu.x[0] != 0 => {
                let elr = m.sysreg(SysReg::ELR_EL2);
                m.enter(PState::user(), elr);
            }
            exit => {
                assert_eq!(exit, Exit::El2(ExceptionClass::Svc), "program must reach its final svc");
                return (m.cpu.pc, m.cpu.insns, m.cpu.cycles, m.cpu.x, m.journal.dump_json());
            }
        }
    }
}

#[test]
fn breakpoints_and_quanta_stop_a_looping_block_exactly() {
    let (code, k) = scan_program();
    let unbroken: Vec<Final> = ENGINES.iter().map(|&e| finish(&mut machine_with(e, code.clone()))).collect();
    assert_eq!(unbroken[1], unbroken[0], "engines disagree on the scan without any breakpoint");
    let mut m = machine_with(ENGINES[1], code.clone());
    finish(&mut m);
    let fast = m.tlb.fast_stats();
    assert!(fast.jit_loopbacks >= SCANS * (NEEDLE_AT - 4), "the scan block did not loop in-block: {fast:?}");
    assert!(fast.dtlb_hits >= SCANS * (NEEDLE_AT - 4), "the scan's ldrb never went inline: {fast:?}");

    // Stops at the looping block's start (every pass is an arrival,
    // later hits reach into the next outer pass), inside its body, and
    // at the side-exit target.
    let cases: Vec<(&str, Vec<(u64, u64)>)> = vec![
        ("scan start, first arrival", vec![(k.scan, 1)]),
        ("scan start, second arrival", vec![(k.scan, 2)]),
        ("scan start, mid-loop", vec![(k.scan, 12)]),
        ("scan start, last pass", vec![(k.scan, NEEDLE_AT + 1)]),
        ("scan start, next outer pass", vec![(k.scan, NEEDLE_AT + 9)]),
        ("scan body", vec![(k.body, 1)]),
        ("scan body, mid-loop", vec![(k.body, 17)]),
        ("scan body, then scan start", vec![(k.body, 10), (k.scan, 3), (k.scan, 5)]),
        ("side-exit target", vec![(k.found, 2)]),
        ("scan start, then side-exit target", vec![(k.scan, 20), (k.found, 1)]),
    ];
    for (name, stops) in cases {
        let run = |engine: (&str, bool)| {
            let mut m = machine_with(engine, code.clone());
            let mut seen = Vec::new();
            for &(pc, hits) in &stops {
                m.break_before(pc, hits);
                assert_eq!(drive(&mut m), Exit::Limit, "{name}: {} never stopped at {pc:#x}", engine.0);
                assert_eq!((m.breakpoint(), m.cpu.pc), (None, pc), "{name}: {} stopped wrongly", engine.0);
                seen.push((m.cpu.pc, m.cpu.insns, m.cpu.cycles, m.journal.dump_json()));
            }
            (seen, finish(&mut m))
        };
        let (reference, ref_fin) = run(ENGINES[0]);
        let (accel, fin) = run(ENGINES[1]);
        assert_eq!(accel, reference, "{name}: the looping block stopped elsewhere than the reference");
        assert_eq!(fin, ref_fin, "{name}: resumed to a different final state");
        assert_eq!(fin, unbroken[0], "{name}: the stop left a trace");
    }

    // Quantum ends land mid-loop, in every segment of the scan block.
    for quantum in [3u64, 5, 7, 11] {
        for engine in ENGINES {
            let fin = finish_sliced(&mut machine_with(engine, code.clone()), quantum);
            assert_eq!(fin, unbroken[0], "{}: {quantum}-instruction slices changed the run", engine.0);
        }
    }
}
