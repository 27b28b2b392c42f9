//! Determinism regressions for the paper tables.
//!
//! Two guarantees, both load-bearing for the reproduction:
//!
//! * back-to-back runs of the same table are byte-identical (the whole
//!   pipeline is deterministic — seeded PRNGs, no wall-clock input);
//! * the acceleration layer changes no modelled cycle count, so every
//!   table is byte-identical on the accelerated and the reference
//!   engine.

use lz_bench::report;
use lz_machine::cpu::{default_accel, set_default_accel};
use std::sync::Mutex;

/// Serialises tests that flip (or depend on) process-global defaults.
static CACHE_FLAG: Mutex<()> = Mutex::new(());

#[test]
fn table5_back_to_back_runs_are_byte_identical() {
    let _guard = CACHE_FLAG.lock().unwrap();
    let first = report::table5_report(false);
    let second = report::table5_report(false);
    assert!(!first.is_empty());
    assert_eq!(first, second, "repro table5 must be byte-reproducible");
}

#[test]
fn table4_back_to_back_runs_are_byte_identical() {
    let _guard = CACHE_FLAG.lock().unwrap();
    assert_eq!(report::table4_report(), report::table4_report());
}

#[test]
fn tables_are_byte_identical_cache_on_and_off() {
    let _guard = CACHE_FLAG.lock().unwrap();
    let saved = default_accel();
    set_default_accel(true);
    let t4_on = report::table4_report();
    let t5_on = report::table5_report(false);
    set_default_accel(false);
    let t4_off = report::table4_report();
    let t5_off = report::table5_report(false);
    set_default_accel(saved);
    assert_eq!(t4_on, t4_off, "table 4 cycles must not depend on the acceleration layer");
    assert_eq!(t5_on, t5_off, "table 5 cycles must not depend on the acceleration layer");
}

#[test]
fn tables_are_byte_identical_metrics_on_and_off() {
    use lz_machine::metrics::{default_metrics, set_default_metrics};
    let _guard = CACHE_FLAG.lock().unwrap();
    let saved = default_metrics();
    set_default_metrics(true);
    let t4_on = report::table4_report();
    let t5_on = report::table5_report(false);
    set_default_metrics(false);
    let t4_off = report::table4_report();
    let t5_off = report::table5_report(false);
    set_default_metrics(saved);
    assert_eq!(t4_on, t4_off, "table 4 cycles must not depend on the metrics journal");
    assert_eq!(t5_on, t5_off, "table 5 cycles must not depend on the metrics journal");
}
