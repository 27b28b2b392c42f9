//! Smoke-size self-check: `--workload smoke` runs `FleetConfig::smoke`,
//! `RecoveryConfig::smoke` and one Figure 5 cell (its row when traced),
//! and must emit every metric `BENCHMARK.json` names, with its unit, as
//! a number, with every output check passing.

use std::process::Command;

const SPEC: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// `(name, unit)` of every entry in the `section` array of the spec.
fn spec_metrics(section: &str) -> Vec<(String, String)> {
    let start = SPEC.find(&format!("\"{section}\"")).expect("section in BENCHMARK.json");
    let body = &SPEC[start..start + SPEC[start..].find(']').expect("section array closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key in entry") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closing quote")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn run_smoke(trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lz-perfbench"))
        .args(["--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", &trace.to_string()])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "smoke run failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(section: &str, trace: u8) {
    let result = run_smoke(trace);
    assert!(result.starts_with("{\"correct\": true, "), "{result}");
    let metrics = spec_metrics(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = result.find(&key).unwrap_or_else(|| panic!("{name} missing from {result}")) + key.len();
        let rest = &result[at..];
        let value = &rest[..rest.find(',').expect("value ends")];
        assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{name} = {value}");
        assert!(rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")), "{name} unit, got {rest}");
    }
}

#[test]
fn untraced_smoke_emits_every_end_to_end_metric() {
    check("end_to_end", 0);
}

#[test]
fn traced_smoke_emits_every_per_layer_metric() {
    check("per_layer", 1);
}
