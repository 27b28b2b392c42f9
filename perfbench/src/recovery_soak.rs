//! `recovery_soak`: `lz_fleet::run_recovery` on the paper 2-core
//! configuration.
//!
//! The only workload where the threaded epoch executor (shell set-up,
//! copy-on-write physical views, merge, commit) runs every epoch, and
//! where snapshot/restore and the supervisor run. It does little
//! memory-bound interpretation.
//!
//! A round is one short soak (the paper configuration stopped at
//! [`SOAK_FAULTS`] injected faults, about a second); rounds cycle through
//! [`REPLICAS`] seed replicas, so a run's median round rides out bursts
//! of host contention that one long soak would absorb whole. One soak's
//! recovery p99 sits on a log2 histogram bucket (96 or 112 epochs), so
//! the reported p99 is the replica mean. At the default seed the full
//! paper soak also runs once, untimed, and must equal `repro recovery`.

use crate::common::{derive_seed, guard, mean, Metrics, Ops, Size, DEFAULT_SEED};
use crate::trace;
use lz_arch::Platform;
use lz_fleet::{run_recovery, RecoveryConfig, RecoveryRun};
use std::time::Instant;

/// Seed replicas; every untraced run soaks each at least once.
const REPLICAS: u64 = 8;
/// Injected faults per measured soak (the paper soak injects 10,000).
const SOAK_FAULTS: u64 = 1_000;

/// The `run` object of `repro recovery --json`.
const GOLDEN: &str = concat!(
    r#"{"cores": 2, "tenants": 12, "seed": 1589673553, "epochs": 78992, "requests": 62475, "spawns": 1932, "#,
    r#""faults_injected": 10000, "faults_contained": 10000, "ve_crashes": 9105, "watchdog_kills": 278, "#,
    r#""missed_epochs": 0, "snapshot_corruptions": 283, "warm_restarts": 4298, "cold_restarts": 3162, "#,
    r#""denials": 74481, "storm_compressions": 492, "strikes": 9666, "quarantines": 1998, "#,
    r#""snapshots_taken": 13568, "vmid_recycles": 8880, "rollover_shootdowns": 8880, "priority_events": 1024, "#,
    r#""invariant_violations": 0, "recovery_epochs": {"p50": 12, "p99": 96, "p999": 160, "max": 238, "#,
    r#""mean": 20, "samples": 7460}}"#
);

pub struct RecoverySoak {
    cfgs: Vec<RecoveryConfig>,
    golden: bool,
    /// Rounds made so far; round `k` soaks replica `k % cfgs.len()`.
    rounds: usize,
    /// Each replica's latest run.
    runs: Vec<Option<RecoveryRun>>,
    /// The last round's replica and wall seconds.
    last: Option<(usize, f64)>,
}

impl RecoverySoak {
    /// Fix the configurations and warm the epoch executor on a short soak.
    pub fn setup(seed: u64, size: Size) -> Self {
        let cfgs: Vec<RecoveryConfig> = match size {
            Size::Full => (0..REPLICAS)
                .map(|r| {
                    let mut cfg = RecoveryConfig::paper(Platform::Carmel, 2);
                    cfg.seed = derive_seed(cfg.seed, seed, r);
                    cfg.target_faults = SOAK_FAULTS;
                    cfg
                })
                .collect(),
            Size::Smoke => vec![RecoveryConfig::smoke(2)],
        };
        let _ = guard(|| run_recovery(&RecoveryConfig::smoke(2)));
        RecoverySoak {
            runs: vec![None; cfgs.len()],
            cfgs,
            golden: size == Size::Full && seed == DEFAULT_SEED,
            rounds: 0,
            last: None,
        }
    }

    /// Rounds an untraced run makes at least: one soak of every replica.
    pub fn min_rounds(&self) -> usize {
        self.cfgs.len()
    }

    /// The next replica's soak; returns its wall-clock seconds.
    pub fn round(&mut self, _traced: bool, ops: &mut Ops) -> f64 {
        let r = self.rounds % self.cfgs.len();
        self.rounds += 1;
        let (run, wall) = soak(&self.cfgs[r], r as u64, ops);
        self.runs[r] = run;
        self.last = Some((r, wall));
        wall
    }

    pub fn finish(&mut self, traced: bool, ops: &mut Ops, m: &mut Metrics) {
        if self.golden {
            let paper = RecoveryConfig::paper(Platform::Carmel, 2);
            let (run, _) = soak(&paper, REPLICAS, ops);
            ops.check(run.as_ref().is_some_and(|r| r.json() == GOLDEN), || {
                format!("paper recovery run {:?} differs from repro recovery", run.map(|r| r.json()))
            });
        }
        let p99: Vec<f64> = self.runs.iter().flatten().map(|r| r.recovery_epochs.p99 as f64).collect();
        if !p99.is_empty() {
            m.insert("recovery_p99_epochs".into(), mean(&p99));
        }
        if !traced {
            return;
        }
        // The traced round's replica again, on the sequential replay backend.
        let Some((r, wall)) = self.last else { return };
        let Some(run) = self.runs[r].clone() else { return };
        let prior = trace::span("machine", "default_parallel", 0, lz_machine::default_parallel);
        trace::span("machine", "set_default_parallel", 0, || lz_machine::set_default_parallel(false));
        let (replay, replay_wall) = soak(&self.cfgs[r], r as u64, ops);
        trace::span("machine", "set_default_parallel", 0, || lz_machine::set_default_parallel(prior));
        ops.check(replay.as_ref() == Some(&run), || "parallel and replay recovery runs differ".into());
        let epoch_us = wall / run.epochs as f64 * 1e6;
        let replay_us = replay_wall / run.epochs as f64 * 1e6;
        m.insert("machine.epoch_us".into(), epoch_us);
        m.insert("machine.epoch_replay_us".into(), replay_us);
        m.insert("machine.shell_overhead_us".into(), epoch_us - replay_us);
        m.insert("fleet.requests_per_s".into(), run.requests as f64 / wall);
        for (name, v) in [
            ("fleet.epochs", run.epochs),
            ("fleet.requests", run.requests),
            ("fleet.warm_restarts", run.warm_restarts),
            ("fleet.cold_restarts", run.cold_restarts),
            ("fleet.snapshots_taken", run.snapshots_taken),
            ("fleet.denials", run.denials),
            ("fleet.quarantines", run.quarantines),
        ] {
            m.insert(name.into(), v as f64);
        }
    }
}

/// One soak with its output checks; the run (`None` if it panicked) and
/// its wall seconds.
fn soak(cfg: &RecoveryConfig, op: u64, ops: &mut Ops) -> (Option<RecoveryRun>, f64) {
    let t = Instant::now();
    let run = trace::span("fleet", "run_recovery", op, || guard(|| run_recovery(cfg)));
    let wall = t.elapsed().as_secs_f64();
    match &run {
        None => ops.record(cfg.target_faults, cfg.target_faults, || format!("run_recovery {:#x} panicked", cfg.seed)),
        Some(run) => {
            let uncontained = run.faults_injected.saturating_sub(run.faults_contained);
            ops.record(run.faults_injected, run.invariant_violations.max(uncontained), || {
                format!(
                    "recovery {:#x}: {} invariant violations, {uncontained} faults not contained",
                    cfg.seed, run.invariant_violations
                )
            });
        }
    }
    (run, wall)
}
