//! Differential testing of the accelerated engine against the reference
//! engine (`Machine::set_accel`).
//!
//! Every test here builds two identical machines, one on the accelerated
//! engine (decoded-block fetch cache, micro-DTLB, stage-1/stage-2 walk
//! cache and template-JIT compiled blocks; DESIGN.md §7, §10, §13) and
//! one on the reference engine (uncached fetch, one `step()` per
//! instruction), drives both through the same program and the same
//! host-side operations, and asserts the complete observable state is
//! identical: exit reason, registers, PC, cycle and instruction counts,
//! TLB statistics, the retired-instruction trace and, where enabled, the
//! metric journal. The acceleration layer is allowed to skip host-side
//! work only — any divergence is a coherence or accounting bug.
//!
//! Coverage: seeded random programs (ALU, loads/stores, forward branches,
//! trap-and-resume via `svc`, self-modifying stores into an executed-twice
//! patch area), run whole and in small quantum slices that stop compiled
//! blocks mid-run, plus deterministic scenarios for break-before-make
//! code remapping, physical code patching without TLBI, TTBR/ASID domain
//! switching over global and non-global pages, spurious TLBIs, SMP
//! quantum interleaving and cross-core code flips. Each accelerated side
//! asserts its layers really engaged (`jit_blocks`, `dtlb_hits`,
//! `walkcache_hits`).

use lz_arch::asm::Asm;
use lz_arch::esr::{self, ExceptionClass};
use lz_arch::insn::Insn;
use lz_arch::pstate::PState;
use lz_arch::sysreg::{hcr, sctlr, ttbr, SysReg};
use lz_arch::Platform;
use lz_machine::pte::S1Perms;
use lz_machine::walk::{alloc_table, s1_map_page, s1_unmap};
use lz_machine::{Exit, Machine};

// The generators and the bare-machine harness are shared with the
// chaos soak (`lz-chaos`): the differential suite and the
// fault-injection suite must drive the *same* programs.
use lz_chaos::programs::{
    build_machine, patch_area, random_program, run_to_completion, snapshot, user_rwx, Snapshot, CODE, DATA, PATCH,
};

fn assert_identical(on: Snapshot, off: Snapshot, ctx: &str) {
    assert_eq!(on, off, "accelerated and reference runs diverged ({ctx})");
}

fn differential_run(seed: u64) {
    let (code, patch) = random_program(seed, 400, 64);
    let mut on = build_machine(&code, &patch, true);
    let mut off = build_machine(&code, &patch, false);
    let (exit_on, res_on) = run_to_completion(&mut on);
    let (exit_off, res_off) = run_to_completion(&mut off);
    assert_identical(
        snapshot(&on, exit_on, res_on),
        snapshot(&off, exit_off, res_off),
        &format!("random program, seed {seed}"),
    );
    // The fetch cache must actually have been exercised, or this test
    // proves nothing: the patch area alone is fetched twice.
    let (hits, _) = on.tlb.icache().stats();
    assert!(hits > 0, "seed {seed}: fetch cache never hit");
}

#[test]
fn random_programs_agree() {
    for seed in 0..24u64 {
        differential_run(seed);
    }
}

/// Build the accelerated/reference machine pair for one program, with
/// the metrics journal enabled so journal equality is part of the
/// assertion.
fn build_engine_pair(code: &[u8], patch: &[u8]) -> (Machine, Machine) {
    let mut on = build_machine(code, patch, true);
    on.set_metrics(true);
    let mut off = build_machine(code, patch, false);
    off.set_metrics(true);
    (on, off)
}

fn assert_journals_identical(on: &Machine, off: &Machine, ctx: &str) {
    assert_eq!(on.journal.dump_json(), off.journal.dump_json(), "metric journals diverged ({ctx})");
}

/// Journal-level differential over the same randomized, self-modifying,
/// trap-and-resume program generator.
#[test]
fn fastpath_random_programs_agree() {
    let mut dtlb_hits = 0u64;
    let mut jit_blocks = 0u64;
    let mut jit_compiled = 0u64;
    for seed in 0..16u64 {
        let (code, patch) = random_program(seed, 400, 64);
        let (mut on, mut off) = build_engine_pair(&code, &patch);
        let (e_on, r_on) = run_to_completion(&mut on);
        let (e_off, r_off) = run_to_completion(&mut off);
        assert_identical(
            snapshot(&on, e_on, r_on),
            snapshot(&off, e_off, r_off),
            &format!("fastpath random program, seed {seed}"),
        );
        assert_journals_identical(&on, &off, &format!("fastpath random program, seed {seed}"));
        let fast = on.tlb.fast_stats();
        dtlb_hits += fast.dtlb_hits;
        jit_blocks += fast.jit_blocks;
        jit_compiled += fast.jit_compiled;
        let fast_off = off.tlb.fast_stats();
        assert_eq!(fast_off, Default::default(), "seed {seed}: reference engine recorded acceleration activity");
    }
    // The comparison proves nothing unless the accelerated engine ran.
    assert!(dtlb_hits > 0, "micro-DTLB never hit across any seed");
    assert!(jit_compiled > 0, "the template JIT never compiled a block across any seed");
    assert!(jit_blocks > 0, "no compiled block ever executed across any seed");
}

/// Differential over TTBR/ASID domain switching: two address spaces,
/// different code at the same VA, a shared global data page. The
/// micro-DTLB's vmid/asid/el/pan tags must keep armed entries from
/// leaking across domains.
#[test]
fn fastpath_domain_switch_agrees() {
    let body = |tag: u64| {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, tag);
        a.mov_imm64(19, DATA);
        // Several reads and writes to the same page: the first access
        // arms the micro-DTLB entry, the rest should hit it (while the
        // domain is live — switching must tag it out).
        a.ldr(1, 19, 0);
        a.ldr(2, 19, 8);
        a.ldr(3, 19, 16);
        a.add_reg(1, 1, 0);
        a.str(1, 19, 0);
        a.str(2, 19, 8);
        a.svc(0);
        a.bytes()
    };
    let global_rw = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: true };
    let run = |accel: bool| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        m.trace.set_enabled(true);
        let shared = m.mem.alloc_frame();
        let mut roots = [0u64; 2];
        for (i, tag) in [1u64, 1000].iter().enumerate() {
            let root = alloc_table(&mut m.mem);
            let code_pa = m.mem.alloc_frame();
            m.mem.write_bytes(code_pa, &body(*tag));
            s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
            s1_map_page(&mut m.mem, root, DATA, shared, global_rw);
            roots[i] = root;
        }
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        let mut last = Exit::Limit;
        for round in 0..9u64 {
            let domain = (round % 2) as usize;
            m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(domain as u16 + 1, roots[domain]));
            m.enter(PState::user(), CODE);
            let (exit, _) = run_to_completion(&mut m);
            assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
            last = exit;
        }
        let counter = {
            let (pa, _, _) = lz_machine::walk::s1_lookup(&m.mem, roots[0], DATA).unwrap();
            m.mem.read_u32(pa).unwrap() as u64
        };
        (snapshot(&m, last, 0), counter, m.tlb.fast_stats())
    };
    let (snap_on, counter_on, fast) = run(true);
    let (snap_off, counter_off, _) = run(false);
    assert_identical(snap_on, snap_off, "data-side domain switch");
    // 9 rounds alternating: 5 × tag 1, 4 × tag 1000.
    assert_eq!(counter_on, 5 * 1 + 4 * 1000, "shared counter must accumulate across domains");
    assert_eq!(counter_on, counter_off);
    assert!(fast.dtlb_hits > 0, "domain-switch loads never hit the micro-DTLB");
}

/// Spurious TLBI (no page-table change) differential: the walk cache may
/// keep serving descriptors after a TLBI because a fresh walk would read
/// the very same (version-pinned) table bytes — DESIGN.md §10.3.
#[test]
fn fastpath_walk_cache_survives_spurious_tlbi() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.ldr(1, 19, 0);
    a.add_imm(1, 1, 1);
    a.str(1, 19, 0);
    a.svc(0);
    let code = a.bytes();
    let patch = patch_area(4);
    let drive = |m: &mut Machine| {
        let mut last = Exit::Limit;
        for _ in 0..6 {
            m.enter(PState::user(), CODE);
            let (exit, _) = run_to_completion(m);
            assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
            // TLBI with no page-table write: the next data access misses
            // the TLB but the walk frames are unchanged.
            m.tlb.invalidate_va(0, DATA);
            m.tlb.invalidate_va(0, CODE);
            last = exit;
        }
        last
    };
    let (mut on, mut off) = build_engine_pair(&code, &patch);
    let e_on = drive(&mut on);
    let e_off = drive(&mut off);
    assert_identical(snapshot(&on, e_on, 0), snapshot(&off, e_off, 0), "spurious TLBI");
    assert!(on.tlb.fast_stats().walkcache_hits > 0, "walk cache never served a spurious-TLBI refill");
}

/// Single-core penetration test (mirrors the cross-core one in
/// `tests/smp.rs`): a JIT page covered by a *hot compiled block* and an
/// *armed micro-DTLB entry* is remapped via break-before-make. Neither
/// the stale compiled block nor the stale data translation may survive —
/// re-entry must execute and load the fresh frame's bytes, identically
/// on both engines.
#[test]
fn fastpath_bbm_with_hot_superblock_and_dtlb_agrees() {
    // The JIT stub at PATCH both executes and is read as data: it arms
    // an instruction-side compiled block and a data-side DTLB entry for
    // the same page. x21 = PATCH (set by the warm-up code below).
    let stub = |marker: u16| {
        let mut a = Asm::new(PATCH);
        a.movz(17, marker, 0);
        a.ldr(18, 21, 0); // first stub word, through the data side
        a.ret();
        a.bytes()
    };
    let first_dword = |bytes: &[u8]| u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let mut warm = Asm::new(CODE);
    warm.mov_imm64(21, PATCH);
    warm.mov_imm64(10, PATCH);
    warm.mov_imm64(11, 8);
    let top = warm.label();
    warm.bind(top);
    warm.blr(10);
    warm.subs_imm(11, 11, 1);
    warm.b_ne(top);
    warm.svc(0);
    let run = |m: &mut Machine| {
        // Phase 1: heat the compiled block + DTLB entry over the stub page.
        let (exit, _) = run_to_completion(m);
        assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(17), 0x1111);
        // Phase 2: break-before-make remap of the stub page.
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        s1_unmap(&mut m.mem, root, PATCH);
        m.tlb.invalidate_va(0, PATCH);
        let fresh = m.mem.alloc_frame();
        m.mem.write_bytes(fresh, &stub(0x2222));
        s1_map_page(&mut m.mem, root, PATCH, fresh, user_rwx());
        // Phase 3: straight into the stub; `ret` to 0 ends the run.
        m.cpu.x[30] = 0;
        m.enter(PState::user(), PATCH);
        let _ = m.run(8);
        (m.cpu.reg(17), m.cpu.reg(18))
    };
    let code = warm.bytes();
    let (mut on, mut off) = build_engine_pair(&code, &stub(0x1111));
    let (x17_on, x18_on) = run(&mut on);
    let (x17_off, x18_off) = run(&mut off);
    let fresh_word = first_dword(&stub(0x2222));
    assert_eq!(x17_on, 0x2222, "stale compiled block executed old code");
    assert_eq!(x18_on, fresh_word, "stale micro-DTLB entry served old data");
    assert_eq!((x17_on, x18_on), (x17_off, x18_off), "acceleration changed BBM outcome");
    assert_eq!(
        (on.cpu.cycles, on.cpu.insns, on.tlb.stats()),
        (off.cpu.cycles, off.cpu.insns, off.tlb.stats()),
        "acceleration changed BBM accounting"
    );
    assert_journals_identical(&on, &off, "BBM remap");
    assert!(on.tlb.fast_stats().jit_blocks > 0, "warm-up never executed a compiled block");
}

#[test]
fn hot_loop_agrees_and_hits() {
    // Straight-line loop: the cache's bread and butter.
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, 5_000);
    a.movz(1, 0, 0);
    let top = a.label();
    a.bind(top);
    a.add_imm(1, 1, 3);
    a.eor_reg(2, 1, 0);
    a.subs_imm(0, 0, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    let patch = patch_area(4);
    let mut on = build_machine(&code, &patch, true);
    let mut off = build_machine(&code, &patch, false);
    let (e_on, r_on) = run_to_completion(&mut on);
    let (e_off, r_off) = run_to_completion(&mut off);
    assert_identical(snapshot(&on, e_on, r_on), snapshot(&off, e_off, r_off), "hot loop");
    let (hits, misses) = on.tlb.icache().stats();
    assert!(hits > 10 * misses, "hot loop should be cache-dominated: {hits} hits / {misses} misses");
}

/// Break-before-make code remap: unmap, TLBI, write fresh frame, remap.
/// Both machines must observe the new code on re-entry.
#[test]
fn break_before_make_remap_agrees() {
    let body = |ret: u16| {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, ret as u64);
        a.svc(0);
        a.bytes()
    };
    let run_pair = |m: &mut Machine| {
        // First pass: original code.
        let (exit, _) = run_to_completion(m);
        assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(0), 111);
        // Break-before-make: unmap + TLBI, then map new frame.
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        s1_unmap(&mut m.mem, root, CODE);
        m.tlb.invalidate_va(0, CODE); // VMID 0: stage 1 only, no VTTBR
        let fresh = m.mem.alloc_frame();
        m.mem.write_bytes(fresh, &body(222));
        s1_map_page(&mut m.mem, root, CODE, fresh, user_rwx());
        m.enter(PState::user(), CODE);
        let (exit, _) = run_to_completion(m);
        assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
        exit
    };
    let mut on = build_machine(&body(111), &patch_area(4), true);
    let mut off = build_machine(&body(111), &patch_area(4), false);
    let e_on = run_pair(&mut on);
    let e_off = run_pair(&mut off);
    assert_eq!(on.cpu.reg(0), 222, "remapped code must execute (accelerated)");
    assert_identical(snapshot(&on, e_on, 0), snapshot(&off, e_off, 0), "break-before-make");
}

/// Physical patch of the live code frame with no TLBI at all: the frame
/// version check must evict the stale decoded block.
#[test]
fn physical_code_patch_agrees() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, 5);
    a.movz(1, 7, 0); // patched to movz(1, 9, 0) below
    a.svc(0);
    let code = a.bytes();
    let patched_word = Insn::Movz { rd: 1, imm16: 9, hw: 0 }.encode();
    let run_pair = |m: &mut Machine| {
        let (exit, _) = run_to_completion(m);
        assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
        assert_eq!(m.cpu.reg(1), 7);
        // Overwrite the movz in place — same frame, no TLB maintenance.
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        let (pa, _, _) = lz_machine::walk::s1_lookup(&m.mem, root, CODE).expect("code mapped");
        m.mem.write(pa + 4, patched_word as u64, 4);
        m.enter(PState::user(), CODE);
        let (exit, _) = run_to_completion(m);
        exit
    };
    let mut on = build_machine(&code, &patch_area(4), true);
    let mut off = build_machine(&code, &patch_area(4), false);
    let e_on = run_pair(&mut on);
    let e_off = run_pair(&mut off);
    assert_eq!(on.cpu.reg(1), 9, "patched word must be fetched fresh (accelerated)");
    assert_identical(snapshot(&on, e_on, 0), snapshot(&off, e_off, 0), "physical patch");
}

/// TTBR/ASID domain switching: two address spaces with different code at
/// the same VA plus a shared global data page; the host switches TTBR0
/// back and forth. ASID tagging must keep the decoded blocks separate
/// while global data entries persist.
#[test]
fn ttbr_domain_switch_agrees() {
    let body = |tag: u64| {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, tag);
        a.mov_imm64(19, DATA);
        a.ldr(1, 19, 0);
        a.add_reg(1, 1, 0);
        a.str(1, 19, 0);
        a.svc(0);
        a.bytes()
    };
    let global_rw = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: true };
    let build = |accel: bool| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        let shared = m.mem.alloc_frame();
        let mut roots = [0u64; 2];
        for (i, tag) in [1u64, 1000].iter().enumerate() {
            let root = alloc_table(&mut m.mem);
            let code_pa = m.mem.alloc_frame();
            m.mem.write_bytes(code_pa, &body(*tag));
            s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
            s1_map_page(&mut m.mem, root, DATA, shared, global_rw);
            roots[i] = root;
        }
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        m.trace.set_enabled(true);
        (m, roots)
    };
    let drive = |m: &mut Machine, roots: [u64; 2]| {
        let mut last = Exit::Limit;
        for round in 0..7u64 {
            let domain = (round % 2) as usize;
            m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(domain as u16 + 1, roots[domain]));
            m.enter(PState::user(), CODE);
            let (exit, _) = run_to_completion(m);
            assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
            last = exit;
        }
        last
    };
    let (mut on, roots_on) = build(true);
    let (mut off, roots_off) = build(false);
    let e_on = drive(&mut on, roots_on);
    let e_off = drive(&mut off, roots_off);
    // 7 rounds alternating: 4 × tag 1, 3 × tag 1000.
    let expect = 4 * 1 + 3 * 1000;
    assert_eq!(
        on.mem
            .read_u32({
                let (pa, _, _) = lz_machine::walk::s1_lookup(&on.mem, roots_on[0], DATA).unwrap();
                pa
            })
            .unwrap() as u64,
        expect,
        "shared counter must accumulate across domains"
    );
    assert_identical(snapshot(&on, e_on, 0), snapshot(&off, e_off, 0), "domain switch");
}

/// The full LightZone stack (gate, kernel, traps) on both engines: a
/// host-deployment syscall loop must produce identical cycle counts.
#[test]
fn lightzone_syscall_loop_agrees() {
    use lightzone::api::{LzAsm, LzProgramBuilder, SAN_TTBR};
    let run = |accel: bool| {
        let mut b = LzProgramBuilder::new(CODE);
        b.asm.lz_enter(true, SAN_TTBR);
        b.asm.mov_imm64(23, 200);
        b.asm.mov_imm64(8, lz_kernel::Sysno::Yield.nr());
        let top = b.asm.label();
        b.asm.bind(top);
        b.asm.svc(0);
        b.asm.subs_imm(23, 23, 1);
        b.asm.b_ne(top);
        b.asm.exit_imm(0);
        let prog = b.build();
        let mut lz = lightzone::LightZone::new_host(Platform::CortexA55);
        lz.kernel.machine.set_accel(accel);
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run(400_000_000), lz_kernel::Event::Exited(0));
        (lz.kernel.machine.cpu.cycles, lz.kernel.machine.cpu.insns)
    };
    assert_eq!(run(true), run(false), "LightZone syscall loop diverged");
}

/// The same loop in the guest deployment (stage-2 walks under the
/// Lowvisor, so the walk cache sees nested walks) on both engines:
/// identical cycles, instructions, and metric journals.
#[test]
fn lightzone_fastpath_on_off_agrees() {
    use lightzone::api::{LzAsm, LzProgramBuilder, SAN_TTBR};
    let run = |accel: bool| {
        let mut b = LzProgramBuilder::new(CODE);
        b.asm.lz_enter(true, SAN_TTBR);
        b.asm.mov_imm64(23, 200);
        b.asm.mov_imm64(8, lz_kernel::Sysno::Yield.nr());
        let top = b.asm.label();
        b.asm.bind(top);
        b.asm.svc(0);
        b.asm.subs_imm(23, 23, 1);
        b.asm.b_ne(top);
        b.asm.exit_imm(0);
        let prog = b.build();
        let mut lz = lightzone::LightZone::new_guest(Platform::CortexA55);
        lz.kernel.machine.set_accel(accel);
        lz.kernel.machine.set_metrics(true);
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run(400_000_000), lz_kernel::Event::Exited(0));
        (lz.kernel.machine.cpu.cycles, lz.kernel.machine.cpu.insns, lz.kernel.machine.journal.dump_json())
    };
    assert_eq!(run(true), run(false), "guest LightZone run diverged under acceleration");
}

/// Regression test for the unconditional [`Machine::walk_config`] memo:
/// every way the translation regime can change — a host-side
/// `set_sysreg`, an interpreted EL1 `MSR TTBR0_EL1`, an `ERET`, and a
/// `switch_core` — must invalidate the memo, so a stale configuration
/// can never serve a translation. Runs on the reference engine: the
/// memo is the only cache in play.
#[test]
fn walk_config_memo_never_stale() {
    // Read-only: EL0-*writable* pages are never privileged-executable
    // (check_s1), and the EL1 probe must fetch from this page.
    let exec_rw = S1Perms { read: true, write: false, user_exec: true, priv_exec: true, el0: true, global: false };
    let data_rw = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
    let mut m = Machine::new(Platform::CortexA55);
    m.set_accel(false);

    // EL0 probe at CODE: load the data page, exit. EL1 probe at
    // CODE+0x100: interpreted MSR domain switch, load, ERET to EL0.
    let mut a = Asm::new(CODE);
    a.ldr(1, 19, 0);
    a.svc(0);
    let el0_probe = a.bytes();
    let mut a = Asm::new(CODE + 0x100);
    a.msr(SysReg::TTBR0_EL1, 20);
    a.ldr(2, 19, 0);
    a.eret();
    let el1_probe = a.bytes();

    let code_pa = m.mem.alloc_frame();
    m.mem.write_bytes(code_pa, &el0_probe);
    m.mem.write_bytes(code_pa + 0x100, &el1_probe);
    let mut ttbrs = [0u64; 2];
    for (i, value) in [0xAAAAu64, 0xBBBB].iter().enumerate() {
        let root = alloc_table(&mut m.mem);
        let data_pa = m.mem.alloc_frame();
        m.mem.write(data_pa, *value, 8);
        s1_map_page(&mut m.mem, root, CODE, code_pa, exec_rw);
        s1_map_page(&mut m.mem, root, DATA, data_pa, data_rw);
        ttbrs[i] = ttbr::pack(i as u16 + 1, root);
    }
    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
    m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
    let probe_el0 = |m: &mut Machine| {
        m.cpu.x[19] = DATA;
        m.enter(PState::user(), CODE);
        assert_eq!(m.run(4), Exit::El2(ExceptionClass::Svc));
        m.cpu.reg(1)
    };

    // 1. Host-side set_sysreg: warm the memo on domain A, switch to B.
    m.set_sysreg(SysReg::TTBR0_EL1, ttbrs[0]);
    assert_eq!(probe_el0(&mut m), 0xAAAA);
    m.set_sysreg(SysReg::TTBR0_EL1, ttbrs[1]);
    assert_eq!(m.walk_config().ttbr0, ttbrs[1], "host set_sysreg left the memo stale");
    assert_eq!(probe_el0(&mut m), 0xBBBB);

    // 2. Interpreted MSR + ERET: EL1 switches back to domain A and loads
    // through the *new* regime, then ERETs to the EL0 probe.
    m.cpu.x[19] = DATA;
    m.cpu.x[20] = ttbrs[0];
    m.set_sysreg(SysReg::SPSR_EL1, PState::user().to_spsr());
    m.set_sysreg(SysReg::ELR_EL1, CODE);
    m.enter(PState::reset(), CODE + 0x100);
    assert_eq!(m.run(8), Exit::El2(ExceptionClass::Svc));
    assert_eq!(m.cpu.reg(2), 0xAAAA, "interpreted MSR TTBR0_EL1 left the memo stale");
    assert_eq!(m.cpu.reg(1), 0xAAAA, "post-ERET EL0 load used a stale regime");
    assert_eq!(m.walk_config().ttbr0, ttbrs[0]);

    // 3. switch_core: the secondary core's (fresh) registers must become
    // the live regime immediately, and core 0's must return intact.
    m.configure_smp(2);
    m.switch_core(1);
    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
    m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
    m.set_sysreg(SysReg::TTBR0_EL1, ttbrs[1]);
    assert_eq!(probe_el0(&mut m), 0xBBBB, "switch_core(1) left core 0's memo live");
    m.switch_core(0);
    assert_eq!(m.walk_config().ttbr0, ttbrs[0], "switch_core(0) left core 1's memo live");
    assert_eq!(probe_el0(&mut m), 0xAAAA);
}

/// Metrics must be observation-only: a machine with the event journal
/// enabled and one with it disabled run byte-identically — same exit,
/// registers, cycle/instruction counts, TLB statistics, and trace.
/// (Raw counters are always on; `set_metrics` gates the journal.)
#[test]
fn metrics_on_off_agree() {
    for seed in 0..8u64 {
        let (code, patch) = random_program(seed, 400, 64);
        let mut on = build_machine(&code, &patch, true);
        on.set_metrics(true);
        let mut off = build_machine(&code, &patch, true);
        off.set_metrics(false);
        let (e_on, r_on) = run_to_completion(&mut on);
        let (e_off, r_off) = run_to_completion(&mut off);
        assert_identical(
            snapshot(&on, e_on, r_on),
            snapshot(&off, e_off, r_off),
            &format!("metrics on/off, seed {seed}"),
        );
        // The journal must actually have observed the run on one side and
        // stayed silent on the other, or the comparison proves nothing.
        assert!(!on.journal.is_empty(), "seed {seed}: journal recorded nothing");
        assert!(off.journal.is_empty(), "seed {seed}: disabled journal recorded events");
    }
}

/// Same property through the full LightZone stack: enabling the journal
/// must not change a single modelled cycle, and the `Violation` events it
/// records must agree exactly with the module's violation counter.
#[test]
fn lightzone_metrics_on_off_agree_and_violations_match() {
    use lightzone::api::{LzAsm, LzProgramBuilder, RW, SAN_PAN, USER};
    use lightzone::pgt::PGT_ALL;
    const ARENA: u64 = 0x5000_0000;
    let build = || {
        let mut b = LzProgramBuilder::new(CODE);
        b.with_anon_segment(ARENA, 0x1000, lz_kernel::VmProt::RW);
        b.asm.lz_enter(false, SAN_PAN);
        b.asm.lz_prot_imm(ARENA, 0x1000, PGT_ALL, RW | USER);
        // A few legal rounds, then an illegal PAN-protected access.
        b.asm.set_pan(0);
        b.asm.mov_imm64(1, ARENA);
        b.asm.ldr(2, 1, 0);
        b.asm.set_pan(1);
        b.asm.ldr(2, 1, 0); // PAN set: violation
        b.asm.exit_imm(0);
        b.build()
    };
    let run = |metrics_on: bool| {
        let prog = build();
        let mut lz = lightzone::LightZone::new_host(Platform::CortexA55);
        lz.kernel.machine.set_metrics(metrics_on);
        let pid = lz.spawn(&prog);
        lz.enter_process(pid);
        assert_eq!(lz.run_to_exit(), lightzone::SECURITY_KILL);
        let report = lz.metrics_report();
        let violations = report.section("lz").unwrap().get("violations").unwrap();
        let journaled = lz.kernel.machine.journal.count(|e| matches!(e, lz_machine::EventKind::Violation { .. }));
        (lz.kernel.machine.cpu.cycles, lz.kernel.machine.cpu.insns, violations, journaled)
    };
    let (cy_on, in_on, viol_on, j_on) = run(true);
    let (cy_off, in_off, viol_off, j_off) = run(false);
    assert_eq!((cy_on, in_on), (cy_off, in_off), "journal changed modelled state");
    assert_eq!(viol_on, viol_off, "violation counter must not depend on the journal");
    assert_eq!(j_on, viol_on, "journaled Violation events must match the counter");
    assert_eq!(j_off, 0, "disabled journal recorded events");
}

// ---------------------------------------------------------------------
// Compiled blocks under quantum clamps (DESIGN.md §13)
// ---------------------------------------------------------------------

/// `run_to_completion` in slices of `quantum` instructions, resuming
/// after every `Exit::Limit`: on the accelerated engine most slices end
/// inside a compiled block, so the block must stop exactly where the
/// reference stepper does.
fn run_sliced(m: &mut Machine, quantum: u64) -> (Exit, u32) {
    let mut resumes = 0u32;
    loop {
        match m.run(quantum) {
            Exit::Limit => continue,
            Exit::El2(ExceptionClass::Svc) if esr::esr_imm(m.sysreg(SysReg::ESR_EL2)) != 0 => {
                resumes += 1;
                let elr = m.sysreg(SysReg::ELR_EL2);
                m.enter(PState::user(), elr);
            }
            exit => return (exit, resumes),
        }
    }
}

/// The random-program families of [`fastpath_random_programs_agree`],
/// same seeds, run in small quantum slices (coprime quanta, so the stop
/// lands at every offset of ALU runs and `Slow` segments): identical
/// snapshots and journals on both engines, with compiled blocks served
/// rather than bypassed.
#[test]
fn jit_random_programs_agree() {
    let mut jit_blocks = 0u64;
    for seed in 0..16u64 {
        let quantum = [3u64, 5, 7, 11][seed as usize % 4];
        let (code, patch) = random_program(seed, 400, 64);
        let (mut on, mut off) = build_engine_pair(&code, &patch);
        let (e_on, r_on) = run_sliced(&mut on, quantum);
        let (e_off, r_off) = run_sliced(&mut off, quantum);
        let ctx = format!("random program in {quantum}-instruction slices, seed {seed}");
        assert_identical(snapshot(&on, e_on, r_on), snapshot(&off, e_off, r_off), &ctx);
        assert_journals_identical(&on, &off, &ctx);
        jit_blocks += on.tlb.fast_stats().jit_blocks;
    }
    assert!(jit_blocks > 0, "no compiled block ever executed across any seed");
}

/// Differential over TTBR/ASID domain switching with ALU-heavy bodies:
/// compiled blocks are keyed by the same `(vmid, asid, el, page)` tags
/// as decoded slots, so switching domains must never serve a block
/// compiled for the other address space.
#[test]
fn jit_domain_switch_agrees() {
    let body = |tag: u64| {
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, tag);
        a.mov_imm64(19, DATA);
        a.ldr(1, 19, 0);
        a.add_reg(1, 1, 0);
        a.eor_reg(2, 1, 0);
        a.orr_reg(3, 2, 1);
        a.str(1, 19, 0);
        a.svc(0);
        a.bytes()
    };
    let global_rw = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: true };
    let run = |accel: bool| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        m.trace.set_enabled(true);
        let shared = m.mem.alloc_frame();
        let mut roots = [0u64; 2];
        for (i, tag) in [1u64, 1000].iter().enumerate() {
            let root = alloc_table(&mut m.mem);
            let code_pa = m.mem.alloc_frame();
            m.mem.write_bytes(code_pa, &body(*tag));
            s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
            s1_map_page(&mut m.mem, root, DATA, shared, global_rw);
            roots[i] = root;
        }
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        let mut last = Exit::Limit;
        for round in 0..9u64 {
            let domain = (round % 2) as usize;
            m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(domain as u16 + 1, roots[domain]));
            m.enter(PState::user(), CODE);
            let (exit, _) = run_to_completion(&mut m);
            assert_eq!(exit, Exit::El2(ExceptionClass::Svc));
            last = exit;
        }
        let counter = {
            let (pa, _, _) = lz_machine::walk::s1_lookup(&m.mem, roots[0], DATA).unwrap();
            m.mem.read_u32(pa).unwrap() as u64
        };
        (snapshot(&m, last, 0), counter, m.tlb.fast_stats())
    };
    let (snap_on, counter_on, fast) = run(true);
    let (snap_off, counter_off, fast_off) = run(false);
    assert_identical(snap_on, snap_off, "compiled-block domain switch");
    assert_eq!(counter_on, 5 * 1 + 4 * 1000, "shared counter must accumulate across domains");
    assert_eq!(counter_on, counter_off);
    assert!(fast.jit_blocks > 0, "domain-switch rounds never executed a compiled block");
    assert_eq!(fast_off.jit_blocks, 0, "reference engine executed a compiled block");
}

/// Cross-core code-byte flip on a bare SMP machine: core 0 compiles a
/// hot block over its code page, core 1 patches the code *frame*
/// physically (no TLBI, no IPI — the frame-version check is the only
/// defence), and core 0 re-enters. The stale compiled block must not
/// serve, identically on both engines.
#[test]
fn jit_cross_core_code_flip_agrees() {
    let body = |tag: u16| {
        let mut a = Asm::new(CODE);
        a.movz(17, tag, 0);
        a.add_imm(17, 17, 0);
        a.svc(0);
        a.bytes()
    };
    let run = |accel: bool| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        m.trace.set_enabled(true);
        let root = alloc_table(&mut m.mem);
        let code_pa = m.mem.alloc_frame();
        m.mem.write_bytes(code_pa, &body(0x1111));
        s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
        m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
        m.configure_smp(2);
        // Warm: core 0 executes the block enough times to compile and
        // then serve it from the block cache.
        for _ in 0..4 {
            m.enter(PState::user(), CODE);
            assert_eq!(m.run(8), Exit::El2(ExceptionClass::Svc));
            assert_eq!(m.cpu.reg(17), 0x1111);
        }
        // Core 1 flips the code bytes in physical memory.
        m.switch_core(1);
        m.mem.write_bytes(code_pa, &body(0x2222));
        m.switch_core(0);
        m.enter(PState::user(), CODE);
        assert_eq!(m.run(8), Exit::El2(ExceptionClass::Svc));
        (m.cpu.reg(17), m.cpu.cycles, m.cpu.insns, m.tlb.fast_stats().jit_blocks)
    };
    let (x17_on, cy_on, in_on, blocks_on) = run(true);
    let (x17_off, cy_off, in_off, blocks_off) = run(false);
    assert_eq!(x17_on, 0x2222, "stale compiled block survived a cross-core code flip");
    assert_eq!((x17_on, cy_on, in_on), (x17_off, cy_off, in_off), "acceleration changed the cross-core flip outcome");
    assert!(blocks_on > 0, "warm-up never executed a compiled block");
    assert_eq!(blocks_off, 0, "reference engine executed a compiled block");
}

/// Two cores interleaved on a quantum *smaller* than the hot block:
/// compiled blocks must stop at the per-slice instruction budget exactly
/// where the reference stepper does, so per-core cycles, instruction
/// counts, and the round-robin schedule are identical on both engines.
#[test]
fn jit_smp_interleaved_quantum_agrees() {
    let run = |accel: bool, quantum: u64| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        let root = alloc_table(&mut m.mem);
        let code_pa = m.mem.alloc_frame();
        let mut a = Asm::new(CODE);
        a.mov_imm64(0, 300);
        let top = a.label();
        a.bind(top);
        a.add_imm(1, 1, 3);
        a.eor_reg(2, 1, 0);
        a.orr_reg(3, 2, 1);
        a.add_reg(4, 3, 2);
        a.subs_imm(0, 0, 1);
        a.b_ne(top);
        a.svc(0);
        m.mem.write_bytes(code_pa, &a.bytes());
        s1_map_page(&mut m.mem, root, CODE, code_pa, user_rwx());
        m.configure_smp(2);
        for core in [0usize, 1] {
            m.switch_core(core);
            m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
            m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
            m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
            m.enter(PState::user(), CODE);
        }
        m.switch_core(0);
        let exits = m.run_interleaved(quantum, 0x1234, 100_000);
        let per_core: Vec<(u64, u64)> =
            (0..m.num_cores()).map(|i| (m.core_cpu(i).insns, m.core_cpu(i).cycles)).collect();
        let mut jit_blocks = 0u64;
        for i in 0..m.num_cores() {
            m.switch_core(i);
            jit_blocks += m.tlb.fast_stats().jit_blocks;
        }
        (exits, per_core, jit_blocks)
    };
    // Quantum 7 ends most slices mid-block (the loop body is 6
    // instructions), so the budget — not the block length — decides
    // where execution pauses. Quantum 64 lets whole blocks run; both
    // must agree with the reference engine.
    for quantum in [7u64, 64] {
        let (exits_on, per_core_on, jit_blocks) = run(true, quantum);
        let (exits_off, per_core_off, _) = run(false, quantum);
        assert_eq!(exits_on, exits_off, "quantum {quantum}: acceleration changed the interleaved exits");
        assert_eq!(per_core_on, per_core_off, "quantum {quantum}: acceleration changed per-core accounting");
        assert!(jit_blocks > 0, "quantum {quantum}: no compiled block ever executed");
    }
}

/// Exhaustive regression for the translation-regime memo (`cfg_memo`):
/// after *every* mutator that can change the regime — a host-side
/// `set_sysreg` and a charged kernel-path write of each of the five
/// regime registers, an interpreted `MSR`, an `ERET`, `switch_core` in
/// both directions, and a chaos-preempted SMP kernel run — the memoised
/// [`Machine::walk_config`] must equal a config rebuilt from the live
/// registers, so a stale memo can never serve a translation.
#[test]
fn walk_config_memo_matches_live_regs_exhaustively() {
    use lz_machine::walk::WalkConfig;
    let rebuild = |m: &Machine| -> WalkConfig {
        let sctlr_el1 = m.sysreg(SysReg::SCTLR_EL1);
        let hcr_el2 = m.sysreg(SysReg::HCR_EL2);
        WalkConfig {
            ttbr0: m.sysreg(SysReg::TTBR0_EL1),
            ttbr1: m.sysreg(SysReg::TTBR1_EL1),
            s1_enabled: sctlr_el1 & sctlr::M != 0,
            wxn: sctlr_el1 & sctlr::WXN != 0,
            vttbr: if hcr_el2 & hcr::VM != 0 { Some(m.sysreg(SysReg::VTTBR_EL2)) } else { None },
        }
    };
    let check = |m: &Machine, ctx: &str| {
        assert_eq!(m.walk_config(), rebuild(m), "memo went stale after {ctx}");
    };

    // 1. Host-side writes: both write paths, every regime register, the
    // memo warmed before each so only a correct generation bump can
    // keep it honest.
    let mut m = Machine::new(Platform::CortexA55);
    let mutations: [(SysReg, u64); 5] = [
        (SysReg::TTBR0_EL1, ttbr::pack(3, 0x1000)),
        (SysReg::TTBR1_EL1, 0x2000),
        (SysReg::SCTLR_EL1, sctlr::M | sctlr::WXN | sctlr::SPAN),
        (SysReg::HCR_EL2, hcr::VM),
        (SysReg::VTTBR_EL2, 0x3000),
    ];
    for (reg, value) in mutations {
        let _ = m.walk_config();
        m.set_sysreg(reg, value);
        check(&m, &format!("set_sysreg({reg:?})"));
        let _ = m.walk_config();
        m.write_sysreg_charged(reg, value ^ 0x40_0000);
        check(&m, &format!("write_sysreg_charged({reg:?})"));
    }

    // 2. Interpreted MSR and ERET, run with the MMU off (identity
    // regime) so the probe needs no page tables: the interpreter's
    // sysreg-write path must bump the generation like the host's.
    let mut m = Machine::new(Platform::CortexA55);
    let entry = m.mem.alloc_frame();
    let mut a = Asm::new(entry);
    a.msr(SysReg::TTBR0_EL1, 20);
    a.nop();
    let code = a.bytes();
    m.mem.write_bytes(entry, &code);
    m.cpu.x[20] = ttbr::pack(7, 0x7000);
    let _ = m.walk_config();
    m.enter(PState::reset(), entry);
    assert_eq!(m.run(2), Exit::Limit);
    assert_eq!(m.walk_config().ttbr0, ttbr::pack(7, 0x7000), "interpreted MSR left the memo stale");
    check(&m, "interpreted MSR TTBR0_EL1");
    let mut a = Asm::new(entry);
    a.eret();
    a.nop();
    m.mem.write_bytes(entry, &a.bytes());
    m.set_sysreg(SysReg::SPSR_EL1, PState::user().to_spsr());
    m.set_sysreg(SysReg::ELR_EL1, entry + 4);
    let _ = m.walk_config();
    m.enter(PState::reset(), entry);
    assert_eq!(m.run(2), Exit::Limit);
    check(&m, "ERET to EL0");

    // 3. switch_core, both directions, with divergent per-core regimes.
    m.configure_smp(2);
    let core0_cfg = m.walk_config();
    m.switch_core(1);
    check(&m, "switch_core(1)");
    m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(9, 0x9000));
    let _ = m.walk_config();
    m.switch_core(0);
    check(&m, "switch_core(0)");
    assert_eq!(m.walk_config(), core0_cfg, "core 0's regime did not survive the round trip");
    m.switch_core(1);
    assert_eq!(m.walk_config().ttbr0, ttbr::pack(9, 0x9000), "core 1's regime was lost");

    // 4. A chaos-preempted SMP kernel run: scheduler preemption fires
    // mid-quantum on every core, and the memo must still match the live
    // registers of whichever core ends up active — and of every core.
    use lz_machine::{FaultPlan, FaultSite};
    let compute = |iters: u16| {
        let mut a = Asm::new(CODE);
        a.movz(1, iters, 0);
        let top = a.label();
        a.bind(top);
        a.add_imm(2, 2, 3);
        a.sub_imm(1, 1, 1);
        a.cbnz(1, top);
        a.movz(0, 0x2a, 0);
        a.mov_imm64(8, lz_kernel::Sysno::Exit.nr());
        a.svc(0);
        lz_kernel::Program::from_code(CODE, a.bytes())
    };
    let mut k = lz_kernel::Kernel::new_host(Platform::CortexA55);
    k.machine.chaos.install(FaultPlan::new(11).with_sites(&[FaultSite::SchedPreempt]).with_rate(2));
    k.spawn(&compute(400));
    k.spawn(&compute(90));
    let run = k.run_smp(lz_kernel::SmpConfig { cores: 2, quantum: 32, seed: 7 }, 10_000_000);
    assert!(!run.stalled, "chaos-preempted SMP run stalled");
    assert_eq!(run.exited.len(), 2, "both compute processes must exit");
    assert!(k.machine.chaos.faults_injected > 0, "preemption site never fired");
    for i in 0..k.machine.num_cores() {
        k.machine.switch_core(i);
        check(&k.machine, &format!("chaos-preempted SMP run, core {i}"));
    }
}

// ----------------------------------------------------------------------
// Loop-resident compiled blocks: side exits, in-block loop-backs and
// inline micro-DTLB loads and stores (DESIGN.md §13).
// ----------------------------------------------------------------------

/// A seeded loop nest. Counted loops branch back to their first
/// instruction (an in-block loop-back once that instruction starts a
/// compiled block), and their bodies mix ALU ops, loads and stores
/// (inline on a micro-DTLB hit, including byte accesses and
/// page-crossing ones that fall back), forward conditional skips (side
/// exits), tight inner loops, byte scans that leave early on a match,
/// and — when `traps` — resumable `svc`s. `x9` is mixed into the
/// registers, so SMP cores running the same code diverge.
fn random_loop_program(seed: u64, traps: bool) -> Vec<u8> {
    use lz_arch::insn::{Cond, MemSize};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Asm::new(CODE);
    a.mov_imm64(19, DATA);
    a.mov_imm64(20, DATA + 0x1000);
    a.mov_imm64(21, DATA + 0xffc);
    for r in 0..8u8 {
        a.mov_imm64(r, rng.raw_u64() & 0xffff);
        a.add_reg(r, r, 9);
    }
    for _ in 0..rng.random_range(4u32..8) {
        a.mov_imm64(11, rng.random_range(2u64..24));
        let top = a.label();
        a.bind(top);
        for _ in 0..rng.random_range(2u32..10) {
            let (rd, rn, rm) = (rng.random_range(0u8..8), rng.random_range(0u8..8), rng.random_range(0u8..8));
            let base = if rng.random_bool() { 19 } else { 20 };
            match rng.random_range(0u32..100) {
                0..=29 => {
                    match rng.random_range(0u32..5) {
                        0 => a.add_reg(rd, rn, rm),
                        1 => a.eor_reg(rd, rn, rm),
                        2 => a.mul(rd, rn, rm),
                        3 => a.add_imm(rd, rn, rng.random_range(0u16..4096)),
                        _ => a.lsr_imm(rd, rn, rng.random_range(1u8..32)),
                    };
                }
                30..=49 => {
                    let off = rng.random_range(0u64..512) * 8;
                    match rng.random_range(0u32..5) {
                        0 => a.str(rd, base, off),
                        1 => a.strb(rd, base, off + rng.random_range(0u64..8)),
                        2 => a.ldrb(rd, base, off + rng.random_range(0u64..8)),
                        3 => a.emit(Insn::LdrImm { rt: rd, rn: 21, offset: 0, size: MemSize::X }),
                        _ => a.ldr(rd, base, off),
                    };
                }
                50..=64 => {
                    // Forward skip: a side exit whenever it is taken.
                    let skip = a.label();
                    match rng.random_range(0u32..3) {
                        0 => {
                            a.cmp_imm(rn, rng.random_range(0u16..64));
                            a.b_cond(if rng.random_bool() { Cond::Eq } else { Cond::Hi }, skip);
                        }
                        1 => {
                            a.and_reg(rd, rd, rn);
                            a.cbz(rd, skip);
                        }
                        _ => {
                            a.cbnz(rn, skip);
                        }
                    };
                    for _ in 0..rng.random_range(1u32..4) {
                        a.add_imm(rm, rm, 1);
                    }
                    a.bind(skip);
                }
                65..=79 => {
                    // A tight inner loop back to its own first instruction.
                    a.mov_imm64(12, rng.random_range(1u64..40));
                    let inner = a.label();
                    a.bind(inner);
                    a.add_reg(rd, rd, rn);
                    if rng.random_bool() {
                        a.ldr(rm, base, rng.random_range(0u64..512) * 8);
                    }
                    if rng.random_bool() {
                        a.subs_imm(12, 12, 1);
                        a.b_ne(inner);
                    } else {
                        a.sub_imm(12, 12, 1);
                        a.cbnz(12, inner);
                    }
                }
                80..=93 => {
                    // A byte scan for a byte value stores may have planted.
                    let needle = rng.random_range(0u16..4);
                    a.mov_imm64(13, rng.random_range(1u64..64));
                    a.mov_imm64(14, DATA + rng.random_range(0u64..0x1f00));
                    let scan = a.label();
                    let found = a.label();
                    a.bind(scan);
                    a.ldrb(15, 14, 0);
                    a.add_imm(14, 14, 1);
                    a.cmp_imm(15, needle);
                    a.b_eq(found);
                    a.subs_imm(13, 13, 1);
                    a.b_ne(scan);
                    a.bind(found);
                    a.add_reg(rd, rd, 13);
                }
                _ if traps => {
                    a.svc(rng.random_range(1u16..100));
                }
                _ => {
                    a.nop();
                }
            }
        }
        a.subs_imm(11, 11, 1);
        a.b_ne(top);
    }
    a.svc(0);
    let bytes = a.bytes();
    assert!(bytes.len() <= 3 * 0x1000, "loop program overflowed the code pages");
    bytes
}

/// Random loop nests, run whole and in 3/5/7/11-instruction slices
/// (quantum ends land mid-loop, in every segment kind): identical
/// snapshots and journals on both engines, with compiled blocks really
/// looping in-block and taking inline micro-DTLB hits.
#[test]
fn loop_programs_agree_whole_and_sliced() {
    let patch = patch_area(4);
    let (mut loopbacks, mut dtlb_hits) = (0u64, 0u64);
    for seed in 0..12u64 {
        let code = random_loop_program(seed, true);
        for quantum in [None, Some(3u64), Some(5), Some(7), Some(11)] {
            let (mut on, mut off) = build_engine_pair(&code, &patch);
            let run = |m: &mut Machine| match quantum {
                Some(q) => run_sliced(m, q),
                None => run_to_completion(m),
            };
            let (e_on, r_on) = run(&mut on);
            let (e_off, r_off) = run(&mut off);
            let ctx = format!("loop program, seed {seed}, quantum {quantum:?}");
            assert_eq!(e_on, Exit::El2(ExceptionClass::Svc), "{ctx}: did not reach its svc");
            assert_identical(snapshot(&on, e_on, r_on), snapshot(&off, e_off, r_off), &ctx);
            assert_journals_identical(&on, &off, &ctx);
            loopbacks += on.tlb.fast_stats().jit_loopbacks;
            dtlb_hits += on.tlb.fast_stats().dtlb_hits;
        }
    }
    assert!(loopbacks > 1_000, "compiled blocks barely looped in-block: {loopbacks} loop-backs");
    assert!(dtlb_hits > 1_000, "looped loads and stores barely hit the micro-DTLB: {dtlb_hits}");
}

/// Two cores running random loop nests interleaved on 3/5/7/11-
/// instruction quanta through the epoch executor: exits and every
/// core's architectural state and counters agree on both engines.
#[test]
fn loop_programs_agree_on_smp_quanta() {
    let patch = patch_area(4);
    type Core = (u64, u64, u64, Vec<u64>, (u64, u64));
    let run = |code: &[u8], accel: bool, quantum: u64| -> (Vec<Option<Exit>>, Vec<Core>, u64) {
        let mut m = build_machine(code, &patch, accel);
        let regime: Vec<(SysReg, u64)> =
            [SysReg::TTBR0_EL1, SysReg::SCTLR_EL1, SysReg::HCR_EL2].iter().map(|&r| (r, m.sysreg(r))).collect();
        m.configure_smp(2);
        m.switch_core(1);
        for &(r, v) in &regime {
            m.set_sysreg(r, v);
        }
        m.cpu.x[9] = 0x5a5a;
        m.enter(PState::user(), CODE);
        m.switch_core(0);
        let exits = m.run_interleaved(quantum, 0xC0FFEE, 2_000_000);
        let mut loopbacks = 0;
        let cores = (0..m.num_cores())
            .map(|i| {
                m.switch_core(i);
                loopbacks += m.tlb.fast_stats().jit_loopbacks;
                let c = &m.cpu;
                (c.pc, c.insns, c.cycles, c.x.to_vec(), m.tlb.stats())
            })
            .collect();
        (exits, cores, loopbacks)
    };
    let mut loopbacks = 0;
    for seed in 0..8u64 {
        let code = random_loop_program(100 + seed, false);
        let quantum = [3u64, 5, 7, 11][seed as usize % 4];
        let (exits_on, cores_on, lb) = run(&code, true, quantum);
        let (exits_off, cores_off, _) = run(&code, false, quantum);
        assert!(exits_on.iter().all(|e| *e == Some(Exit::El2(ExceptionClass::Svc))), "seed {seed}: a core hung");
        assert_eq!(exits_on, exits_off, "seed {seed}, quantum {quantum}: exits diverged");
        assert_eq!(cores_on, cores_off, "seed {seed}, quantum {quantum}: per-core state diverged");
        loopbacks += lb;
    }
    assert!(loopbacks > 0, "no compiled block ever looped in-block on SMP quanta");
}

/// A store inside a counted loop rewrites the loop's first instruction
/// on the fourth pass (the store's address is chosen by `csel`, so every
/// other pass writes the data page and the block keeps looping in
/// place): the rewritten instruction must run on every later pass.
#[test]
fn looped_store_rewriting_its_own_loop_agrees() {
    use lz_arch::insn::{Cond, MemSize};
    let mut a = Asm::new(CODE);
    a.mov_imm64(1, 8);
    a.mov_imm64(17, DATA);
    let top_va = CODE + 4 * 10;
    a.mov_imm64(16, top_va);
    a.mov_imm64(
        9,
        Insn::AddImm { rd: 2, rn: 2, imm12: 100, shift12: false, sub: false, set_flags: false }.encode() as u64,
    );
    assert!(a.here() <= top_va, "prologue overran the loop");
    while a.here() < top_va {
        a.nop();
    }
    let top = a.label();
    a.bind(top);
    a.add_imm(2, 2, 1);
    a.cmp_imm(1, 5);
    a.csel(10, 16, 17, Cond::Eq);
    a.emit(Insn::StrImm { rt: 9, rn: 10, offset: 0, size: MemSize::W });
    a.subs_imm(1, 1, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    for quantum in [None, Some(3u64), Some(5), Some(7), Some(11)] {
        let (mut on, mut off) = build_engine_pair(&code, &patch_area(4));
        let run = |m: &mut Machine| match quantum {
            Some(q) => run_sliced(m, q),
            None => run_to_completion(m),
        };
        let (e_on, r_on) = run(&mut on);
        let (e_off, r_off) = run(&mut off);
        let ctx = format!("self-rewriting loop, quantum {quantum:?}");
        assert_eq!(off.cpu.reg(2), 4 + 4 * 100, "{ctx}: reference did not run the rewritten instruction");
        assert_identical(snapshot(&on, e_on, r_on), snapshot(&off, e_off, r_off), &ctx);
        assert_journals_identical(&on, &off, &ctx);
        if quantum.is_none() {
            assert!(on.tlb.fast_stats().jit_loopbacks > 0, "the self-rewriting loop never looped in-block");
        }
    }
}

/// EL1 code whose loop is closed by an exception instead of a branch:
/// the loop's last instruction, an `stp` at the end of its page, writes
/// its first half and faults on the second (the next page is unmapped),
/// and `VBAR_EL1` vectors the same-EL data abort back to the loop's
/// first instruction. On the pass where the first half hits the code
/// page it rewrites the loop's third instruction, and nothing but the
/// code-frame check at loop-back stands between the block and running
/// that instruction stale.
#[test]
fn exception_closed_loop_rewriting_itself_agrees() {
    use lz_arch::insn::Cond;
    let top = CODE + 0xff0;
    let add = |imm12| Insn::AddImm { rd: 2, rn: 2, imm12, shift12: false, sub: false, set_flags: false }.encode();
    let stp = Insn::Stp { rt: 9, rt2: 9, rn: 11, offset: 0 }.encode();
    let mut a = Asm::new(top);
    a.subs_imm(1, 1, 1);
    a.csel(11, 16, 17, Cond::Eq);
    a.raw(add(1));
    a.raw(stp);
    let code = a.bytes();
    let run = |accel: bool, quantum: u64| {
        let mut m = Machine::new(Platform::CortexA55);
        m.set_accel(accel);
        m.set_metrics(true);
        m.trace.set_enabled(true);
        let root = alloc_table(&mut m.mem);
        let el1_rwx = S1Perms { read: true, write: true, user_exec: false, priv_exec: true, el0: false, global: false };
        let code_pa = m.mem.alloc_frame();
        m.mem.write_bytes(code_pa + 0xff0, &code);
        s1_map_page(&mut m.mem, root, CODE, code_pa, el1_rwx);
        let data_pa = m.mem.alloc_frame();
        s1_map_page(&mut m.mem, root, DATA, data_pa, el1_rwx);
        m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
        m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
        m.set_sysreg(SysReg::VBAR_EL1, top - 0x200);
        m.cpu.x[1] = 12;
        m.cpu.x[9] = u64::from(stp) << 32 | u64::from(add(100));
        m.cpu.x[16] = top + 8;
        m.cpu.x[17] = DATA + 0xff8;
        m.cpu.pstate = PState::reset();
        m.cpu.pc = top;
        let mut left = 40 * 4;
        while left > 0 {
            let q = quantum.min(left);
            assert_eq!(m.run(q), Exit::Limit, "the exception-closed loop left EL1");
            left -= q;
        }
        let fast = m.tlb.fast_stats();
        (snapshot(&m, Exit::Limit, 0), m.journal.dump_json(), fast.jit_loopbacks)
    };
    for quantum in [160u64, 3, 5, 7, 11] {
        let (snap_on, journal_on, loopbacks) = run(true, quantum);
        let (snap_off, journal_off, _) = run(false, quantum);
        // 12 passes of +1 (the 12th writes the code page), 28 of +100.
        assert_eq!(snap_off.regs[2], 12 + 28 * 100, "quantum {quantum}: reference missed the rewrite");
        assert_identical(snap_on, snap_off, &format!("exception-closed loop, quantum {quantum}"));
        assert_eq!(journal_on, journal_off, "quantum {quantum}: journals diverged");
        if quantum == 160 {
            assert!(loopbacks > 0, "the exception-closed loop never looped in-block");
        }
    }
}

/// A byte scan whose loads meet an EL0 read watchpoint on every outer
/// pass (the host loop skips the watched load and resumes) and then run off
/// the end of the mapped data into a page the host loop maps on demand at
/// the first translation fault. A second run arms the watchpoint away from
/// the scanned bytes: it never fires, and the loads stay inline under it.
#[test]
fn looped_load_watchpoint_and_demand_fault_agree() {
    use lz_machine::cpu::Watchpoint;
    let mut a = Asm::new(CODE);
    a.mov_imm64(0, 3);
    let outer = a.label();
    a.bind(outer);
    a.mov_imm64(13, 0x180);
    a.mov_imm64(14, DATA + 0x1f00);
    let scan = a.label();
    a.bind(scan);
    a.ldrb(15, 14, 0);
    a.add_reg(16, 16, 15);
    a.add_imm(14, 14, 1);
    a.subs_imm(13, 13, 1);
    a.b_ne(scan);
    a.subs_imm(0, 0, 1);
    a.b_ne(outer);
    a.svc(0);
    let code = a.bytes();
    let run = |accel: bool, watch: u64| {
        let mut m = build_machine(&code, &patch_area(4), accel);
        m.set_metrics(true);
        let fresh = m.mem.alloc_frame();
        m.mem.write_bytes(fresh, &[7u8; 0x100]);
        m.cpu.watchpoints[0] = Some(Watchpoint { addr: watch, len: 4, on_read: true, on_write: false });
        m.cpu.watchpoints_enabled = true;
        let (mut watch_hits, mut faults) = (0, 0);
        let exit = loop {
            match m.run(1_000_000) {
                Exit::El2(ExceptionClass::WatchpointLower) => {
                    watch_hits += 1;
                    if watch_hits == 2 {
                        // Lift the watchpoint for the rest of the run: the
                        // watched load then stops trapping.
                        m.cpu.watchpoints_enabled = false;
                    }
                    let elr = m.sysreg(SysReg::ELR_EL2);
                    m.enter(PState::user(), elr + 4);
                }
                Exit::El2(ExceptionClass::DataAbortLower) => {
                    faults += 1;
                    let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
                    s1_map_page(&mut m.mem, root, DATA + 0x2000, fresh, lz_chaos::programs::user_rw());
                    let elr = m.sysreg(SysReg::ELR_EL2);
                    m.enter(PState::user(), elr);
                }
                exit => break exit,
            }
        };
        (
            watch_hits,
            faults,
            m.cpu.watchpoints_enabled,
            snapshot(&m, exit, 0),
            m.journal.dump_json(),
            m.tlb.fast_stats(),
        )
    };
    // Watched: inside the scanned bytes. Unwatched: past their end.
    for (watch, hits, what) in [(DATA + 0x1f40, 2, "watched"), (DATA + 0x2800, 0, "unwatched")] {
        let (hits_on, faults_on, armed, snap_on, journal_on, fast) = run(true, watch);
        let (hits_off, faults_off, _, snap_off, journal_off, _) = run(false, watch);
        assert_eq!((hits_on, faults_on), (hits, 1), "{what}, accelerated: unexpected trap mix");
        assert_eq!((hits_off, faults_off), (hits, 1), "{what}, reference: unexpected trap mix");
        assert_eq!(armed, hits < 2, "{what}: the watchpoint is lifted only after its second hit");
        assert_eq!(snap_off.exit, Exit::El2(ExceptionClass::Svc));
        assert_identical(snap_on, snap_off, &format!("{what} watchpoint and demand fault in a looped load"));
        assert_eq!(journal_on, journal_off, "{what}: watchpoint/demand-fault journals diverged");
        assert!(
            fast.jit_loopbacks > 0 && fast.dtlb_hits > 0,
            "{what}: the scan never looped with inline loads: {fast:?}"
        );
    }
}

/// A looped load from a page mapped to an unbacked frame: the first pass
/// arms the micro-DTLB and takes the bus error on the slow path, every
/// later pass hits the micro-DTLB inline and must raise the bus error
/// without a second lookup (TLB statistics must match the reference).
#[test]
fn looped_load_bus_error_on_a_dtlb_hit_agrees() {
    let mut a = Asm::new(CODE);
    a.mov_imm64(3, 6);
    a.mov_imm64(18, DATA + 0x2000);
    let top = a.label();
    a.bind(top);
    a.ldr(1, 18, 0);
    a.add_imm(2, 2, 1);
    a.subs_imm(3, 3, 1);
    a.b_ne(top);
    a.svc(0);
    let code = a.bytes();
    let run = |accel: bool| {
        let mut m = build_machine(&code, &patch_area(4), accel);
        m.set_metrics(true);
        let root = ttbr::baddr(m.sysreg(SysReg::TTBR0_EL1));
        // A frame far above anything the allocator hands out.
        let unbacked = 0x40_0000_0000;
        assert!(!m.mem.is_mapped(unbacked));
        s1_map_page(&mut m.mem, root, DATA + 0x2000, unbacked, lz_chaos::programs::user_rw());
        let mut bus_errors = 0;
        let exit = loop {
            match m.run(1_000_000) {
                Exit::El2(ExceptionClass::DataAbortLower) => {
                    bus_errors += 1;
                    let elr = m.sysreg(SysReg::ELR_EL2);
                    m.enter(PState::user(), elr + 4);
                }
                exit => break exit,
            }
        };
        assert_eq!(bus_errors, 6, "accel={accel}: every pass must raise the bus error");
        (snapshot(&m, exit, 0), m.journal.dump_json(), m.tlb.fast_stats().dtlb_hits)
    };
    let (snap_on, journal_on, dtlb_hits) = run(true);
    let (snap_off, journal_off, _) = run(false);
    assert_identical(snap_on, snap_off, "bus error on a micro-DTLB hit");
    assert_eq!(journal_on, journal_off, "bus-error journals diverged");
    assert!(dtlb_hits >= 4, "the looped load never hit the micro-DTLB ({dtlb_hits} hits)");
}
