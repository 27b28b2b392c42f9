//! What both fleet benchmarks share: one guest layout, one boot step,
//! one tenant-program scaffold and one epoch drain.
//!
//! [`crate::sim`] (finite, self-timing tenants) and [`crate::recovery`]
//! (infinite request servers under a supervisor) differ only in the
//! body of their request loop and in what they do with each core's
//! exit; everything else is defined here once.

use crate::load::Lcg;
use lightzone::api::{LzAsm, LzProgram, LzProgramBuilder, RW, SAN_TTBR};
use lightzone::gate::layout;
use lightzone::LightZone;
use lz_arch::{Platform, PAGE_SIZE};
use lz_kernel::kvm::VmidAllocator;
use lz_kernel::{Event, Pid, VmProt};
use lz_machine::Exit;

pub(crate) const CODE: u64 = 0x40_0000;
/// The switch sequence (pairs of 8-byte words: gate VA, arena page).
pub(crate) const SEQ_BASE: u64 = 0x2000_0000;
/// Results the host reads back from guest memory (timings, or the
/// request counter the watchdog samples).
pub(crate) const RESULTS_BASE: u64 = 0x2800_0000;
/// Per-domain 4 KB arena pages.
pub(crate) const ARENA_BASE: u64 = 0x3000_0000;

/// Instructions per epoch. Tenants share no memory, so the quantum only
/// balances barrier overhead against trap-handling latency (a pending
/// VE exit waits out the epoch).
pub(crate) const QUANTUM: u64 = 16_384;

/// A fresh host LightZone: the VMID space overridden when asked (to
/// force generation recycling cheaply), then `cores` cores online.
pub(crate) fn boot(platform: Platform, vmid_space: Option<u16>, cores: usize) -> LightZone {
    let mut lz = LightZone::new_host(platform);
    if let Some(space) = vmid_space {
        lz.kernel.vmids = VmidAllocator::with_space(space);
    }
    if cores > 1 {
        lz.kernel.machine.configure_smp(cores);
    }
    lz
}

/// Read one u64 from a (live, or exited but unreaped) guest's memory; 0
/// if the address was never populated.
pub(crate) fn read_guest_u64(lz: &LightZone, pid: Pid, va: u64) -> u64 {
    let Some(pa) = lz.kernel.process(pid).mm.page_at(va & !(PAGE_SIZE - 1)) else {
        return 0;
    };
    lz.kernel.machine.mem.read_u64(pa + (va & (PAGE_SIZE - 1))).unwrap_or(0)
}

/// Start a tenant program: a seeded `pairs`-long switch sequence over
/// `domains` domains, the sequence/results/arena segments, then
/// `lz_enter` and one table + gate + arena page per domain. `lz_alloc`
/// returns deterministic table ids `1..=domains`.
pub(crate) fn tenant_prologue(domains: usize, pairs: usize, seq_seed: u64) -> LzProgramBuilder {
    let mut lcg = Lcg::new(seq_seed);
    let mut seq = Vec::with_capacity(pairs * 16);
    for _ in 0..pairs {
        let d = lcg.below(domains as u64);
        seq.extend_from_slice(&layout::gate_va(d as u16).to_le_bytes());
        seq.extend_from_slice(&(ARENA_BASE + d * PAGE_SIZE).to_le_bytes());
    }
    let mut b = LzProgramBuilder::new(CODE);
    b.with_segment(SEQ_BASE, seq, VmProt::R);
    b.with_segment(RESULTS_BASE, vec![0u8; PAGE_SIZE as usize], VmProt::RW);
    b.with_segment(ARENA_BASE, vec![0u8; domains * PAGE_SIZE as usize], VmProt::RW);

    b.asm.lz_enter(true, SAN_TTBR);
    for d in 0..domains as u64 {
        b.asm.lz_alloc();
        b.asm.lz_map_gate_pgt_imm(d + 1, d);
        b.asm.lz_prot_imm(ARENA_BASE + d * PAGE_SIZE, PAGE_SIZE, d + 1, RW);
    }
    b
}

/// Emit `switches` gate switches along the sequence cursor, each
/// followed by one 8-byte access in the entered domain, and return the
/// single ENTRY shared by every gate.
///
/// Registers: x17 gate target, x19 arena page of the entered domain,
/// x21 sequence cursor, x23 switch countdown.
pub(crate) fn gate_switches(b: &mut LzProgramBuilder, switches: u64) -> u64 {
    b.asm.mov_imm64(23, switches);
    let sw_top = b.asm.label();
    b.asm.bind(sw_top);
    b.asm.ldr(17, 21, 0); // gate address
    b.asm.ldr(19, 21, 8); // arena page of the target domain
    b.asm.add_imm(21, 21, 16);
    b.asm.blr(17);
    let entry = b.here();
    b.asm.ldr(1, 19, 0);
    b.asm.subs_imm(23, 23, 1);
    b.asm.b_ne(sw_top);
    entry
}

/// Finish a tenant program: every gate returns to `entry`.
pub(crate) fn tenant_build(mut b: LzProgramBuilder, domains: usize, entry: u64) -> LzProgram {
    for g in 0..domains as u16 {
        b.register_gate_entry(g, entry);
    }
    b.build()
}

/// Make `core` active and, given a VE, save its live registers there to
/// its context — before another VE loads on the core, or a snapshot.
pub(crate) fn park(lz: &mut LightZone, core: usize, pid: Option<Pid>) {
    lz.kernel.machine.switch_core(core);
    if let Some(pid) = pid {
        lz.kernel.set_current(pid);
        lz.kernel.save_current();
        lz.kernel.clear_current();
    }
}

/// Run one [`QUANTUM`] epoch over `jobs` (one VE per core, indexed by
/// core; `None` idles the core), then, in core order, dispatch each
/// core's exit for its VE as `LightZone::run` would and hand that core
/// to `policy(lz, core, pid, exit, retired, event)` before the next
/// core's dispatch, so chaos draws in `dispatch_exit` and in the policy
/// keep one global order. `event` is `None` while the VE keeps running;
/// `false` from the policy retires the job. One active core runs in
/// place, with no shell.
pub(crate) fn drain_epoch(
    lz: &mut LightZone,
    jobs: &mut [Option<Pid>],
    mut policy: impl FnMut(&mut LightZone, usize, Pid, Exit, u64, Option<Event>) -> bool,
) {
    let budgets: Vec<u64> = jobs.iter().map(|j| if j.is_some() { QUANTUM } else { 0 }).collect();
    let results = lz.kernel.machine.run_epoch(&budgets);
    for (core, job) in jobs.iter_mut().enumerate() {
        let Some(pid) = *job else { continue };
        let (exit, used) = results[core];
        let mut event = None;
        if exit != Exit::Limit {
            lz.kernel.machine.switch_core(core);
            lz.kernel.set_current(pid);
            event = lz.dispatch_exit(exit);
            lz.kernel.clear_current();
        }
        if !policy(lz, core, pid, exit, used, event) {
            *job = None;
        }
    }
}
