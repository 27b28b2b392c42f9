//! `nvm_scan`: a subset of Figure 5 through `lz_workloads::nvm`.
//!
//! The memory-bound guest path: `ldrb` scans over 2 MiB huge pages with
//! slow steps between JIT ALU segments, plus TTBR/PAN switches and the
//! watchpoint/lwC kernel traps. It runs on one simulated core and
//! barely touches the VE lifecycle.
//!
//! The full workload covers both platforms, both deployments and all four
//! mechanisms at two buffer counts per (platform, deployment), through
//! `nvm_overhead`, so each cell re-runs its vanilla baseline exactly as
//! `repro fig5` does.

use crate::common::{derive_seed, guard, mean, median, Metrics, Ops, Size, DEFAULT_SEED};
use crate::trace;
use lz_arch::asm::Asm;
use lz_arch::pstate::PState;
use lz_arch::sysreg::{hcr, sctlr, ttbr, SysReg};
use lz_arch::Platform;
use lz_bench::paper::fig5 as paper;
use lz_bench::table::pct;
use lz_machine::pte::S1Perms;
use lz_machine::walk::{alloc_table, s1_map_page};
use lz_machine::{Exit, Machine};
use lz_workloads::nvm::{self, NvmResult};
use lz_workloads::{Deployment, Mechanism};

/// (platform, deployment) pairs of the full workload, with their
/// `repro fig5` row names. One pair per platform, one per deployment;
/// the Cortex-A55 guest is the Lowvisor path.
const PAIRS: [(Platform, Deployment, &str); 2] =
    [(Platform::Carmel, Deployment::Host, "Carmel Host"), (Platform::CortexA55, Deployment::Guest, "Cortex Guest")];
/// Every pair runs at 16 buffers (the watchpoint prototype's limit, and
/// the cells that set the peak resident set) and at one count the seed
/// draws from this pool.
const MAX_BUFFERS: usize = 16;
const BUFFER_POOL: [usize; 4] = [1, 2, 4, 8];
/// The default seed's drawn count: with 16, the `repro fig5` columns
/// that every mechanism supports.
const DEFAULT_BUFFERS: usize = 2;
/// The smoke cell (its whole row in a traced run).
const SMOKE: (Platform, Deployment, &str, usize) = (Platform::CortexA55, Deployment::Host, "Cortex Host", 2);
/// Searches the bare-machine scan runs (about 5 M instructions).
const SCAN_SEARCHES: u64 = 1_000;
const SCAN_CODE: u64 = 0x40_0000;
const SCAN_DATA: u64 = 0x50_0000;

/// `repro fig5` overheads at the default seed for the cells this
/// benchmark runs, including the smoke cell's row.
const GOLDEN: &[(&str, Mechanism, usize, &str)] = &[
    ("Carmel Host", Mechanism::LzPan, 2, "0.23%"),
    ("Carmel Host", Mechanism::LzPan, 16, "0.23%"),
    ("Carmel Host", Mechanism::LzTtbr, 2, "12.51%"),
    ("Carmel Host", Mechanism::LzTtbr, 16, "12.51%"),
    ("Carmel Host", Mechanism::Watchpoint, 2, "200.55%"),
    ("Carmel Host", Mechanism::Watchpoint, 16, "200.41%"),
    ("Carmel Host", Mechanism::Lwc, 2, "363.74%"),
    ("Carmel Host", Mechanism::Lwc, 16, "363.50%"),
    ("Cortex Guest", Mechanism::LzPan, 2, "0.08%"),
    ("Cortex Guest", Mechanism::LzPan, 16, "0.08%"),
    ("Cortex Guest", Mechanism::LzTtbr, 2, "1.76%"),
    ("Cortex Guest", Mechanism::LzTtbr, 16, "1.79%"),
    ("Cortex Guest", Mechanism::Watchpoint, 2, "22.13%"),
    ("Cortex Guest", Mechanism::Watchpoint, 16, "21.90%"),
    ("Cortex Guest", Mechanism::Lwc, 2, "31.88%"),
    ("Cortex Guest", Mechanism::Lwc, 16, "31.56%"),
    ("Cortex Host", Mechanism::LzPan, 2, "0.08%"),
    ("Cortex Host", Mechanism::LzTtbr, 2, "1.76%"),
    ("Cortex Host", Mechanism::Watchpoint, 2, "22.77%"),
    ("Cortex Host", Mechanism::Lwc, 2, "32.53%"),
];

/// One Figure 5 cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    row: &'static str,
    platform: Platform,
    deploy: Deployment,
    mech: Mechanism,
    buffers: usize,
}

impl Cell {
    fn key(&self) -> (Platform, Deployment, usize) {
        (self.platform, self.deploy, self.buffers)
    }
}

/// The paper's average overhead (percent) for a cell, where it gives one.
fn paper_pct(c: &Cell) -> Option<f64> {
    use {Deployment::*, Mechanism::*, Platform::*};
    Some(match (c.platform, c.deploy, c.mech) {
        (Carmel, Host, LzPan) => paper::CARMEL_HOST_PAN,
        (Carmel, Guest, LzPan) => paper::CARMEL_GUEST_PAN,
        (Carmel, Host, LzTtbr) => paper::CARMEL_HOST_TTBR,
        (Carmel, Guest, LzTtbr) => paper::CARMEL_GUEST_TTBR,
        (CortexA55, Host, LzPan) => paper::CORTEX_HOST_PAN,
        (CortexA55, Guest, LzPan) => paper::CORTEX_GUEST_PAN,
        (CortexA55, Host, LzTtbr) => paper::CORTEX_HOST_TTBR,
        (CortexA55, Guest, LzTtbr) => paper::CORTEX_GUEST_TTBR,
        _ => return None,
    })
}

/// The two buffer counts for pair `i`, ascending.
fn buffer_counts(seed: u64, i: usize) -> [usize; 2] {
    let drawn = if seed == DEFAULT_SEED {
        DEFAULT_BUFFERS
    } else {
        BUFFER_POOL[(derive_seed(0, seed, 100 + i as u64) % BUFFER_POOL.len() as u64) as usize]
    };
    [drawn, MAX_BUFFERS]
}

/// A bare machine whose EL0 program runs `searches` Figure 5 byte scans
/// (`nvm`'s search loop) over one zero-filled page; returns it with the
/// instruction budget that reaches the final `svc`.
fn scan_machine(platform: Platform, searches: u64) -> (Machine, u64) {
    let window = nvm::scan_bytes(platform);
    let mut a = Asm::new(SCAN_CODE);
    a.mov_imm64(20, searches);
    let outer = a.label();
    a.bind(outer);
    a.mov_imm64(24, window);
    a.mov_imm64(25, SCAN_DATA);
    let found = a.label();
    let scan = a.label();
    a.bind(scan);
    a.ldrb(26, 25, 0);
    a.add_imm(25, 25, 1);
    a.cmp_imm(26, 0xff);
    a.b_eq(found);
    a.subs_imm(24, 24, 1);
    a.b_ne(scan);
    a.bind(found);
    a.subs_imm(20, 20, 1);
    a.b_ne(outer);
    a.svc(0);

    let mut m = Machine::new(platform);
    let root = alloc_table(&mut m.mem);
    let code_pa = m.mem.alloc_frame();
    m.mem.write_bytes(code_pa, &a.bytes());
    let code = S1Perms { read: true, write: false, user_exec: true, priv_exec: false, el0: true, global: false };
    s1_map_page(&mut m.mem, root, SCAN_CODE, code_pa, code);
    let data_pa = m.mem.alloc_frame();
    let data = S1Perms { read: true, write: true, user_exec: false, priv_exec: false, el0: true, global: false };
    s1_map_page(&mut m.mem, root, SCAN_DATA, data_pa, data);
    m.set_sysreg(SysReg::TTBR0_EL1, ttbr::pack(1, root));
    m.set_sysreg(SysReg::SCTLR_EL1, sctlr::M | sctlr::SPAN);
    m.set_sysreg(SysReg::HCR_EL2, hcr::TGE | hcr::E2H);
    m.cpu.pstate = PState::user();
    m.cpu.pc = SCAN_CODE;
    (m, searches * (window * 6 + 16) + 64)
}

/// Run the scan to its `svc`; instructions retired and seconds taken.
fn run_scan(platform: Platform, searches: u64) -> Option<(u64, f64)> {
    let (mut m, budget) = trace::span("machine", "Machine::new+map", 0, || scan_machine(platform, searches));
    let (exit, secs) = trace::timed("machine", "Machine::run", 0, || m.run(budget));
    matches!(exit, Exit::El2(_)).then_some((m.cpu.insns, secs))
}

pub struct NvmScan {
    cells: Vec<Cell>,
    /// Whether the cells' outputs must equal [`GOLDEN`].
    golden: bool,
    /// The last round's result and wall time per cell (a traced run's
    /// last round is its traced one).
    last: Vec<(Option<NvmResult>, f64)>,
}

impl NvmScan {
    /// Choose the cells and warm the interpreter on a short scan.
    pub fn setup(seed: u64, size: Size, traced: bool) -> Self {
        let mut cells = Vec::new();
        let mut push_row = |row, platform, deploy, buffers| {
            for mech in Mechanism::PROTECTED {
                cells.push(Cell { row, platform, deploy, mech, buffers });
            }
        };
        match size {
            Size::Full => {
                for (i, &(platform, deploy, row)) in PAIRS.iter().enumerate() {
                    for buffers in buffer_counts(seed, i) {
                        push_row(row, platform, deploy, buffers);
                    }
                }
            }
            Size::Smoke => {
                let (platform, deploy, row, buffers) = SMOKE;
                push_row(row, platform, deploy, buffers);
                if !traced {
                    // One cell untraced; the traced run needs every
                    // mechanism's layer time.
                    cells.retain(|c| c.mech == Mechanism::LzTtbr);
                }
            }
        }
        // Warm-up only (about 0.1 s): nothing here is measured.
        let _ = run_scan(Platform::CortexA55, SCAN_SEARCHES);
        NvmScan { cells, golden: size == Size::Smoke || seed == DEFAULT_SEED, last: Vec::new() }
    }

    /// Run every cell once; returns the cells' total wall-clock seconds.
    pub fn round(&mut self, _traced: bool, ops: &mut Ops) -> f64 {
        let mut out = Vec::with_capacity(self.cells.len());
        for (i, c) in self.cells.iter().enumerate() {
            let (r, secs) = trace::timed("workloads", "nvm::nvm_overhead", i as u64, || {
                guard(|| nvm::nvm_overhead(c.platform, c.deploy, c.mech, c.buffers))
            });
            out.push((r, secs));
        }
        let wall = out.iter().map(|(_, s)| s).sum();
        self.check(&out, ops);
        self.last = out;
        wall
    }

    /// Output checks: the golden rows, and PAN ≤ TTBR < Watchpoint < lwC
    /// within each (cell, buffers) row.
    fn check(&self, out: &[(Option<NvmResult>, f64)], ops: &mut Ops) {
        let mut bad = vec![false; self.cells.len()];
        for (i, (c, (r, _))) in self.cells.iter().zip(out).enumerate() {
            let Some(r) = r else {
                bad[i] = true;
                ops.errors.push(format!("{} {} {}: nvm_overhead panicked", c.row, c.mech, c.buffers));
                continue;
            };
            if self.golden {
                let want = GOLDEN.iter().find(|g| g.0 == c.row && g.1 == c.mech && g.2 == c.buffers).map(|g| g.3);
                if want != Some(pct(r.overhead).as_str()) {
                    bad[i] = true;
                    ops.errors.push(format!(
                        "{} {} {}: overhead {} != repro fig5 {want:?}",
                        c.row,
                        c.mech,
                        c.buffers,
                        pct(r.overhead)
                    ));
                }
            }
        }
        // Cells come in rows of the four mechanisms, in PROTECTED order.
        for (k, (cells, res)) in self.cells.chunks(4).zip(out.chunks(4)).enumerate() {
            let ovh: Option<Vec<f64>> = res.iter().map(|(r, _)| r.map(|r| r.overhead)).collect();
            if let (4, Some(o)) = (cells.len(), ovh) {
                if !(o[0] <= o[1] && o[1] < o[2] && o[2] < o[3]) {
                    ops.errors.push(format!(
                        "{} {}: overheads {o:?} break PAN <= TTBR < Watchpoint < lwC",
                        cells[0].row, cells[0].buffers
                    ));
                    bad[k * 4..k * 4 + 4].iter_mut().for_each(|b| *b = true);
                }
            }
        }
        ops.attempted += self.cells.len() as u64;
        ops.failed += bad.iter().filter(|b| **b).count() as u64;
    }

    pub fn finish(&mut self, traced: bool, ops: &mut Ops, m: &mut Metrics) {
        let results: Vec<(Cell, NvmResult)> =
            self.cells.iter().zip(&self.last).filter_map(|(c, (r, _))| r.map(|r| (*c, r))).collect();
        let errs: Vec<f64> =
            results.iter().filter_map(|(c, r)| paper_pct(c).map(|p| (r.overhead * 100.0 - p).abs())).collect();
        m.insert("paper_err_pp".into(), mean(&errs));
        if !traced {
            return;
        }
        let round = &self.last;
        let cell_secs: Vec<f64> = round.iter().map(|(_, s)| *s).collect();
        m.insert("workloads.nvm_cell_s".into(), median(&cell_secs));

        // One standalone vanilla run per distinct (platform, deployment,
        // buffers), to split each cell's time into baseline and mechanism.
        let mut keys: Vec<(Platform, Deployment, usize)> = Vec::new();
        for c in &self.cells {
            if !keys.contains(&c.key()) {
                keys.push(c.key());
            }
        }
        let mut vanilla = Vec::new();
        for (i, &(p, d, b)) in keys.iter().enumerate() {
            let (cycles, secs) = trace::timed("workloads", "nvm::nvm_cycles_per_op", i as u64, || {
                guard(|| nvm::nvm_cycles_per_op(p, d, Mechanism::Vanilla, b))
            });
            ops.record(1, u64::from(cycles.is_none()), || format!("vanilla {p:?} {d:?} {b}: panicked"));
            vanilla.push((cycles.unwrap_or(f64::NAN), secs));
        }
        m.insert("workloads.nvm_vanilla_s".into(), median(&vanilla.iter().map(|v| v.1).collect::<Vec<_>>()));
        m.insert("workloads.cycles_per_search.vanilla".into(), mean(&vanilla.iter().map(|v| v.0).collect::<Vec<_>>()));
        let excess = |mechs: &[Mechanism]| -> Vec<f64> {
            self.cells
                .iter()
                .zip(round)
                .filter(|(c, _)| mechs.contains(&c.mech))
                .map(|(c, (_, s))| s - vanilla[keys.iter().position(|k| *k == c.key()).unwrap_or(0)].1)
                .collect()
        };
        m.insert("core.nvm_lz_s".into(), median(&excess(&[Mechanism::LzPan, Mechanism::LzTtbr])));
        m.insert("baselines.nvm_wp_s".into(), median(&excess(&[Mechanism::Watchpoint])));
        m.insert("baselines.nvm_lwc_s".into(), median(&excess(&[Mechanism::Lwc])));
        for (mech, name) in [
            (Mechanism::LzPan, "pan"),
            (Mechanism::LzTtbr, "ttbr"),
            (Mechanism::Watchpoint, "wp"),
            (Mechanism::Lwc, "lwc"),
        ] {
            let cycles: Vec<f64> =
                results.iter().filter(|(c, _)| c.mech == mech).map(|(_, r)| r.cycles_per_op).collect();
            m.insert(format!("workloads.cycles_per_search.{name}"), mean(&cycles));
        }

        match run_scan(Platform::CortexA55, SCAN_SEARCHES) {
            Some((insns, secs)) => {
                m.insert("machine.scan_mips".into(), insns as f64 / secs / 1e6);
            }
            None => ops.check(false, || "bare-machine scan did not reach its svc".into()),
        }
    }
}
