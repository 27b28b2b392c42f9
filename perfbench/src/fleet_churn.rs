//! `fleet_churn`: the VE create/enter/teardown path and the modelled
//! serving result.
//!
//! Two parts per round. Serving: `lz_fleet::run_fleet` on the paper
//! 1-core configuration without its churn phase (64 tenants × 33
//! domains answering gate-switch requests), at a few fixed open-loop
//! arrival gaps and several seed replicas each, because one replica's
//! 1,024-request p99 moves by a whole histogram bucket from seed to seed.
//! Churn: minimal VEs (`lz_enter`, then exit) driven through
//! `LightZone::spawn` / `schedule_to` / `run` / `reap` until the 16-bit
//! VMID space has rolled over. Almost no guest instructions run.

use crate::common::{batched_quantile, derive_seed, guard, mean, median, Metrics, Ops, Size, DEFAULT_SEED};
use crate::trace;
use lightzone::api::{LzAsm, LzProgram, LzProgramBuilder, SAN_PAN};
use lightzone::LightZone;
use lz_arch::Platform;
use lz_chaos::invariants::ChaosInvariants;
use lz_fleet::{run_fleet, FleetConfig, FleetRun};
use lz_kernel::kvm::VmidAllocator;
use lz_kernel::Event;
use lz_machine::Report;
use std::time::Instant;

/// Open-loop mean arrival gaps in modelled cycles; the first is the
/// paper rate (`FleetConfig::paper`), the rest step the load down.
const GAPS: [u64; 4] = [40_000, 80_000, 120_000, 160_000];
/// Seed replicas per gap (replica 0 of the default seed is the paper seed).
const REPLICAS: u64 = 10;
/// Request-latency limit on the replica-mean p99, in modelled cycles:
/// 16 mean service times of the paper configuration. Over 13 seeds the
/// replica-mean p99 is 838k–1,232k cycles at the 80,000 gap and
/// 242k–406k at the 120,000 gap, so the limit sits well clear of both.
const LATENCY_LIMIT: f64 = 600_000.0;
/// Churn VEs per round: more than the 65,535 VMIDs, so one rollover.
const CHURN_VES: u64 = 66_000;
/// The smoke churn rolls a 32-VMID space over many times instead.
const SMOKE_CHURN_VES: u64 = 8_000;
/// Lifecycle percentiles are taken per batch of this many consecutive
/// VEs (the p99 has 10 samples beyond it), then their median reported.
const BATCH: usize = 1_000;
const SMOKE_VMID_SPACE: u16 = 32;
/// Lifecycles on a throwaway instance during set-up: about 0.15 s, so
/// that most set-ups of a run are timed past its first moments, whose
/// host speed varies most from run to run.
const WARM_VES: u64 = 2_000;
const CHURN_LIMIT: u64 = 1_000_000;

/// Latency fields of the 1-core row of `repro fleet --json`.
const GOLDEN_SWITCH: &str = r#"{"p50": 453, "p99": 3584, "p999": 4096, "max": 4363, "mean": 882, "samples": 1024}"#;
const GOLDEN_SERVICE: &str =
    r#"{"p50": 32768, "p99": 98304, "p999": 98304, "max": 113891, "mean": 37566, "samples": 1024}"#;
const GOLDEN_LATENCY: &str =
    r#"{"p50": 3145728, "p99": 4194304, "p999": 4194304, "max": 5239237, "mean": 3048505, "samples": 1024}"#;

/// Per-VE registry deltas: (metric, section, counters summed).
const PER_VE: [(&str, &str, &[&str]); 7] = [
    ("kernel.page_faults_per_ve", "kernel", &["page_faults"]),
    ("kernel.syscalls_per_ve", "kernel", &["syscalls"]),
    ("wx.sanitized_pages_per_ve", "wx", &["sanitized_pages"]),
    ("stage2.faults_per_ve", "stage2", &["faults"]),
    ("tlb.invalidations_per_ve", "tlb", &["invalidate_all", "invalidate_vmid", "invalidate_asid", "invalidate_va"]),
    ("icache.misses_per_ve", "icache", &["misses"]),
    ("machine.insns_per_ve", "cpu", &["insns"]),
];
const CALLS: [&str; 4] = ["spawn", "schedule", "run", "reap"];

fn counter(r: &Report, section: &str, keys: &[&str]) -> f64 {
    let s = r.section(section);
    keys.iter().map(|k| s.and_then(|s| s.get(k)).unwrap_or(0)).sum::<u64>() as f64
}

/// The churn VE: enter LightZone, exit 0.
fn churn_prog() -> LzProgram {
    let mut b = LzProgramBuilder::new(0x40_0000);
    b.asm.lz_enter(false, SAN_PAN);
    b.asm.exit_imm(0);
    b.build()
}

/// What one churn pass leaves behind.
#[derive(Default)]
struct Churn {
    lifecycle_us: Vec<f64>,
    /// Per-call host times, traced passes only.
    calls_us: [Vec<f64>; 4],
    per_ve: Vec<(&'static str, f64)>,
    vmid_recycles: f64,
    rollover_shootdowns: f64,
    frames_leaked: f64,
}

pub struct FleetChurn {
    /// (gap index, configuration) per serving call.
    serve: Vec<(usize, FleetConfig)>,
    churn_ves: u64,
    vmid_space: Option<u16>,
    prog: LzProgram,
    golden: bool,
    /// Last round's serving results, in `serve` order.
    runs: Vec<Option<FleetRun>>,
    serve_s: Vec<f64>,
    churn: Churn,
}

impl FleetChurn {
    /// Build the serving configurations and the churn program, and warm
    /// the lifecycle path on a throwaway instance.
    pub fn setup(seed: u64, size: Size) -> Self {
        let mut serve = Vec::new();
        for (g, &gap) in GAPS.iter().enumerate() {
            match size {
                Size::Full => {
                    for r in 0..REPLICAS {
                        let mut cfg = FleetConfig::paper(Platform::Carmel, 1);
                        cfg.seed = derive_seed(cfg.seed, seed, r);
                        cfg.churn_ves = 0;
                        cfg.arrival_gap_mean = gap;
                        serve.push((g, cfg));
                    }
                }
                Size::Smoke => {
                    let mut cfg = FleetConfig::smoke(1);
                    cfg.churn_ves = 0;
                    cfg.arrival_gap_mean = gap;
                    serve.push((g, cfg));
                }
            }
        }
        let prog = trace::span("core", "LzProgramBuilder::build", 0, churn_prog);
        let mut lz = trace::span("core", "LightZone::new_host", 0, || LightZone::new_host(Platform::Carmel));
        for i in 0..WARM_VES {
            let _ = guard(|| lifecycle(&mut lz, &prog, i, false));
        }
        let (churn_ves, vmid_space) = match size {
            Size::Full => (CHURN_VES, None),
            Size::Smoke => (SMOKE_CHURN_VES, Some(SMOKE_VMID_SPACE)),
        };
        FleetChurn {
            serve,
            churn_ves,
            vmid_space,
            prog,
            golden: size == Size::Full && seed == DEFAULT_SEED,
            runs: Vec::new(),
            serve_s: Vec::new(),
            churn: Churn::default(),
        }
    }

    /// Serve at every gap and replica, then churn; returns the round's
    /// wall-clock seconds.
    pub fn round(&mut self, traced: bool, ops: &mut Ops) -> f64 {
        let t = Instant::now();
        let mut runs = Vec::with_capacity(self.serve.len());
        for (i, (_, cfg)) in self.serve.iter().enumerate() {
            let run = trace::span("fleet", "run_fleet", i as u64, || guard(|| run_fleet(cfg)));
            let requests = (cfg.tenants * cfg.requests_per_tenant) as u64;
            let bad = match &run {
                None => Some("run_fleet panicked".to_string()),
                Some(r) => check_serving(r, cfg, self.golden && i == 0),
            };
            ops.record(requests, if bad.is_some() { requests } else { 0 }, || {
                format!("serving gap {} seed {:#x}: {}", cfg.arrival_gap_mean, cfg.seed, bad.unwrap_or_default())
            });
            runs.push(run);
        }
        self.serve_s.push(t.elapsed().as_secs_f64());
        self.runs = runs;
        self.churn = self.churn_pass(traced, ops);
        t.elapsed().as_secs_f64()
    }

    fn churn_pass(&self, traced: bool, ops: &mut Ops) -> Churn {
        let ves = self.churn_ves;
        let mut lz = trace::span("core", "LightZone::new_host", 0, || LightZone::new_host(Platform::Carmel));
        if let Some(space) = self.vmid_space {
            lz.kernel.vmids =
                trace::span("kernel", "VmidAllocator::with_space", 0, || VmidAllocator::with_space(space));
        }
        let frames0 =
            trace::span("machine", "PhysMem::allocated_frames", 0, || lz.kernel.machine.mem.allocated_frames());
        let before = trace::span("core", "LightZone::metrics_report", 0, || lz.metrics_report());
        let mut out = Churn::default();
        let mut failed = 0u64;
        for i in 0..ves {
            match guard(|| lifecycle(&mut lz, &self.prog, i, traced)) {
                Some(Some(times)) => {
                    out.lifecycle_us.push(times.iter().sum());
                    if traced {
                        for (v, t) in out.calls_us.iter_mut().zip(times) {
                            v.push(t);
                        }
                    }
                }
                _ => failed += 1,
            }
        }
        ops.record(ves, failed, || format!("{failed} churn VEs did not exit 0 and reap"));

        let frames =
            trace::span("machine", "PhysMem::allocated_frames", 0, || lz.kernel.machine.mem.allocated_frames());
        out.frames_leaked = frames as f64 - frames0 as f64;
        ops.check(frames == frames0, || format!("churn leaked {} frames", out.frames_leaked));
        let rollovers = trace::span("kernel", "VmidAllocator::rollovers", 0, || lz.kernel.vmids.rollovers());
        ops.check(rollovers >= 1, || "churn did not roll the VMID space over".into());
        let violations = trace::span("chaos", "ChaosInvariants::check_machine", 0, || {
            ChaosInvariants::check_machine(&lz.kernel.machine)
        });
        ops.check(violations.is_empty(), || format!("machine invariants after churn: {violations:?}"));

        let after = trace::span("core", "LightZone::metrics_report", 0, || lz.metrics_report());
        let n = ves as f64;
        for (name, section, keys) in PER_VE {
            out.per_ve.push((name, (counter(&after, section, keys) - counter(&before, section, keys)) / n));
        }
        out.vmid_recycles = counter(&after, "fleet", &["vmid_recycles"]);
        out.rollover_shootdowns = counter(&after, "fleet", &["rollover_shootdowns"]);
        out
    }

    pub fn finish(&mut self, traced: bool, _ops: &mut Ops, m: &mut Metrics) {
        let at_gap = |g: usize| -> Vec<&FleetRun> {
            self.serve.iter().zip(&self.runs).filter(|((gi, _), _)| *gi == g).filter_map(|(_, r)| r.as_ref()).collect()
        };
        let paper: Vec<&FleetRun> = at_gap(0);
        m.insert(
            "switch_p50_cycles".into(),
            median(&paper.iter().map(|r| r.switch_cycles.p50 as f64).collect::<Vec<_>>()),
        );
        m.insert(
            "request_p99_cycles".into(),
            mean(&paper.iter().map(|r| r.request_latency.p99 as f64).collect::<Vec<_>>()),
        );
        let slo = GAPS
            .iter()
            .enumerate()
            .filter(|&(g, _)| {
                mean(&at_gap(g).iter().map(|r| r.request_latency.p99 as f64).collect::<Vec<_>>()) <= LATENCY_LIMIT
            })
            .map(|(_, &gap)| 1e6 / gap as f64)
            .fold(0.0, f64::max);
        m.insert("slo_rate".into(), slo);
        if !traced {
            return;
        }
        let lifecycles = &self.churn.lifecycle_us;
        m.insert("ve_lifecycle_p50_us".into(), batched_quantile(lifecycles, BATCH, 0.5));
        m.insert("ve_lifecycle_p99_us".into(), batched_quantile(lifecycles, BATCH, 0.99));
        m.insert("fleet.serve_s".into(), *self.serve_s.last().unwrap_or(&f64::NAN));
        for (call, v) in CALLS.iter().zip(&self.churn.calls_us) {
            m.insert(format!("core.{call}_us.p50"), batched_quantile(v, BATCH, 0.5));
            m.insert(format!("core.{call}_us.p99"), batched_quantile(v, BATCH, 0.99));
        }
        for &(name, v) in &self.churn.per_ve {
            m.insert(name.into(), v);
        }
        m.insert("fleet.vmid_recycles".into(), self.churn.vmid_recycles);
        m.insert("fleet.rollover_shootdowns".into(), self.churn.rollover_shootdowns);
        m.insert("machine.frames_leaked".into(), self.churn.frames_leaked);
    }

    /// Lifecycle samples behind a traced run's `ve_lifecycle_*`.
    pub fn lifecycle_samples(&self) -> usize {
        self.churn.lifecycle_us.len()
    }
}

/// Output checks on one serving call.
fn check_serving(r: &FleetRun, cfg: &FleetConfig, golden: bool) -> Option<String> {
    let requests = (cfg.tenants * cfg.requests_per_tenant) as u64;
    let domains = (cfg.tenants * (cfg.domains_per_tenant + 1)) as u64;
    if r.requests != requests || r.switch_cycles.samples != requests || r.request_latency.samples != requests {
        return Some(format!("{} requests, {} latency samples", r.requests, r.request_latency.samples));
    }
    if r.domains_live_peak != domains {
        return Some(format!("{} live domains, want {domains}", r.domains_live_peak));
    }
    let fields = [r.switch_cycles.json(), r.service_cycles.json(), r.request_latency.json()];
    if golden && fields != [GOLDEN_SWITCH, GOLDEN_SERVICE, GOLDEN_LATENCY] {
        return Some(format!("latency fields {fields:?} differ from repro fleet"));
    }
    None
}

/// One spawn → schedule → run → reap; per-call microseconds when
/// `traced`, else the whole lifecycle in the first slot. `None` if the
/// VE did not exit 0 or could not be reaped.
fn lifecycle(lz: &mut LightZone, prog: &LzProgram, op: u64, traced: bool) -> Option<[f64; 4]> {
    if !traced {
        let t = Instant::now();
        let pid = lz.spawn(prog);
        lz.schedule_to(pid);
        let ev = lz.run(CHURN_LIMIT);
        let reaped = lz.reap(pid);
        let us = t.elapsed().as_secs_f64() * 1e6;
        return (ev == Event::Exited(0) && reaped).then_some([us, 0.0, 0.0, 0.0]);
    }
    let (pid, a) = trace::timed("core", "LightZone::spawn", op, || lz.spawn(prog));
    let ((), b) = trace::timed("core", "LightZone::schedule_to", op, || lz.schedule_to(pid));
    let (ev, c) = trace::timed("core", "LightZone::run", op, || lz.run(CHURN_LIMIT));
    let (reaped, d) = trace::timed("core", "LightZone::reap", op, || lz.reap(pid));
    (ev == Event::Exited(0) && reaped).then_some([a * 1e6, b * 1e6, c * 1e6, d * 1e6])
}
