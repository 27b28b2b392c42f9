//! Chaos regression corpus: deterministic fault-injection soaks over
//! the four scenario generators, plus property tests over random fault
//! plans.
//!
//! The contract under test (DESIGN.md §11): every injected fault either
//! leaves the run journal-identical to the clean run or ends in a
//! precise guest-side kill — never a silently widened access — and the
//! fail-closed invariants (TLB coherence vs a fresh-walk oracle, W^X,
//! stage-2 containment, fake-phys bijectivity, journal bounds) hold
//! after every run. A failing random case is shrunk to a minimal
//! replayed fault schedule before being reported.

use lz_chaos::{run_scenario, run_soak, shrink_plan, verify_plan, Scenario, ALL_SCENARIOS};
use lz_machine::{FaultPlan, FaultSite, ALL_SITES};
use proptest::prelude::*;
use std::sync::{RwLock, RwLockReadGuard};

/// Serialises the process-global engine default: the test that flips it
/// holds the write side, every other test here (they all build machines
/// from it) holds the read side, so none silently runs on whichever
/// engine happens to be live. The lock guards no data, so a guard
/// poisoned by a failing test is taken over as is.
static ENGINE_DEFAULT: RwLock<()> = RwLock::new(());

fn engine_default() -> RwLockReadGuard<'static, ()> {
    ENGINE_DEFAULT.read().unwrap_or_else(|e| e.into_inner())
}

/// Report a failing plan with its shrunk schedule, or pass.
fn assert_contained(scenario: Scenario, seed: u64, plan: &FaultPlan) -> Result<(), TestCaseError> {
    let v = verify_plan(scenario, seed, plan);
    if v.problems.is_empty() {
        return Ok(());
    }
    let detail = match shrink_plan(scenario, seed, plan) {
        Some((schedule, problems)) => {
            format!("shrunk to {} fault(s) at seq {:?}: {}", schedule.len(), schedule, problems.join("; "))
        }
        None => "failure did not reproduce under replay".to_string(),
    };
    Err(TestCaseError::fail(format!(
        "{} seed={seed:#x} plan(seed={:#x}, rate={}, sites={:?}): {}; {detail}",
        scenario.name(),
        plan.seed,
        plan.rate,
        plan.sites.iter().map(|s| s.name()).collect::<Vec<_>>(),
        v.problems.join("; ")
    )))
}

/// Fixed-seed soak across all four generators: a deterministic corpus
/// that must inject a substantial number of faults and find nothing.
/// (The CI chaos leg runs the full 10k-fault version via `repro chaos`;
/// this keeps a smaller always-on floor in the test suite.)
#[test]
fn fixed_seed_soak_is_contained() {
    let _engine = engine_default();
    let report = run_soak(0x1297_5EED, 8, 2_000, 400);
    assert!(report.ok(), "soak problems:\n{}", report.problems.join("\n"));
    assert!(
        report.faults_injected >= 2_000,
        "soak under-injected: {} faults in {} runs",
        report.faults_injected,
        report.runs
    );
    assert_eq!(
        report.faults_injected, report.faults_contained,
        "every injected fault must be handled by a fail-closed path"
    );
}

/// Same seed, same plan ⇒ byte-identical digest, fired schedule, and
/// metrics journal, for every scenario.
#[test]
fn chaos_runs_are_deterministic() {
    let _engine = engine_default();
    for (i, &scenario) in ALL_SCENARIOS.iter().enumerate() {
        let seed = 0xD00D + i as u64;
        let plan = FaultPlan::new(seed ^ 0xFACE).with_rate(6);
        let a = run_scenario(scenario, seed, Some(&plan));
        let b = run_scenario(scenario, seed, Some(&plan));
        assert_eq!(a.digest, b.digest, "{}: digest diverged", scenario.name());
        assert_eq!(a.fired, b.fired, "{}: fault schedule diverged", scenario.name());
        assert_eq!(a.journal_json, b.journal_json, "{}: journal diverged", scenario.name());
        assert_eq!(
            (a.injected, a.contained, a.ve_kills, a.journal_dropped),
            (b.injected, b.contained, b.ve_kills, b.journal_dropped),
            "{}: counters diverged",
            scenario.name()
        );
    }
}

/// Replaying a run's full recorded schedule reproduces it exactly —
/// the property the shrinker is built on.
#[test]
fn replay_of_full_schedule_reproduces_run() {
    let _engine = engine_default();
    for (i, &scenario) in ALL_SCENARIOS.iter().enumerate() {
        let seed = 0xBEEF + i as u64;
        let plan = FaultPlan::new(seed).with_rate(5);
        let original = run_scenario(scenario, seed, Some(&plan));
        if original.fired.is_empty() {
            continue;
        }
        let schedule = original.fired.iter().map(|&(s, _)| s).collect();
        let replayed = run_scenario(scenario, seed, Some(&plan.clone().replay(schedule)));
        assert_eq!(original.digest, replayed.digest, "{}: replay digest", scenario.name());
        assert_eq!(original.fired, replayed.fired, "{}: replay schedule", scenario.name());
        assert_eq!(original.journal_json, replayed.journal_json, "{}: replay journal", scenario.name());
    }
}

/// A passing plan has nothing to shrink.
#[test]
fn shrink_rejects_passing_plan() {
    let _engine = engine_default();
    let plan = FaultPlan::new(77).with_rate(8);
    assert!(shrink_plan(Scenario::Randomized, 9, &plan).is_none());
}

/// The accelerated engine must not change what a fault plan does: same
/// seed, same plan, accelerated vs reference engine ⇒ identical digest,
/// schedule, and journal. (Chaos consultations happen only at modelled
/// events, which the acceleration layer preserves exactly.)
#[test]
fn fastpath_on_off_agree_under_chaos() {
    use lz_machine::{default_accel, set_default_accel};
    let _guard = ENGINE_DEFAULT.write().unwrap_or_else(|e| e.into_inner());
    let saved = default_accel();
    let run_both = |scenario: Scenario, seed: u64| {
        let plan = FaultPlan::new(seed ^ 0xF00D).with_rate(6);
        set_default_accel(true);
        let on = run_scenario(scenario, seed, Some(&plan));
        set_default_accel(false);
        let off = run_scenario(scenario, seed, Some(&plan));
        assert_eq!(on.digest, off.digest, "{}: acceleration changed the digest", scenario.name());
        assert_eq!(on.fired, off.fired, "{}: acceleration changed the fault schedule", scenario.name());
        assert_eq!(on.journal_json, off.journal_json, "{}: acceleration changed the journal", scenario.name());
        assert!(on.violations.is_empty() && off.violations.is_empty());
    };
    for (i, &scenario) in ALL_SCENARIOS.iter().enumerate() {
        run_both(scenario, 0xFA57 + i as u64);
    }
    set_default_accel(saved);
}

/// Single-site sweeps: each site, alone, at an aggressive rate, must be
/// contained on the scenario that exercises it.
#[test]
fn single_site_sweeps_are_contained() {
    let _engine = engine_default();
    let cases: &[(FaultSite, Scenario)] = &[
        (FaultSite::PtwBitFlip, Scenario::DomainSwitching),
        (FaultSite::S2WalkAbort, Scenario::DomainSwitching),
        (FaultSite::GateTransient, Scenario::DomainSwitching),
        (FaultSite::SanitizerInterrupt, Scenario::DomainSwitching),
        (FaultSite::TlbiLost, Scenario::SelfModifying),
        (FaultSite::TlbiSpurious, Scenario::SelfModifying),
        (FaultSite::ShootdownDrop, Scenario::Smp),
        (FaultSite::ShootdownDup, Scenario::Smp),
        (FaultSite::ShootdownDelay, Scenario::Smp),
        (FaultSite::SchedPreempt, Scenario::Smp),
    ];
    for &(site, scenario) in cases {
        for seed in 0..3u64 {
            let plan = FaultPlan::new(seed ^ 0x517E).with_sites(&[site]).with_rate(2);
            let v = verify_plan(scenario, seed, &plan);
            assert!(v.problems.is_empty(), "{} under {}: {:?}", site.name(), scenario.name(), v.problems);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random fault plans (seed, rate, site subset) over random
    /// scenarios: the fail-closed contract must hold for all of them.
    #[test]
    fn random_plans_are_contained(
        scenario_idx in 0usize..4,
        seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        rate in 2u64..24,
        site_mask in 1u32..1024,
    ) {
        let _engine = engine_default();
        let scenario = ALL_SCENARIOS[scenario_idx];
        let sites: Vec<FaultSite> = ALL_SITES
            .iter()
            .enumerate()
            .filter(|&(i, _)| site_mask & (1 << i) != 0)
            .map(|(_, &s)| s)
            .collect();
        let plan = FaultPlan::new(plan_seed).with_sites(&sites).with_rate(rate);
        assert_contained(scenario, seed, &plan)?;
    }
}
