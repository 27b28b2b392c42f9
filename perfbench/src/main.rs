//! `lz-perfbench` — the repository benchmark: three workloads over the
//! LightZone stack, measured end to end (untraced) or layer by layer
//! (traced), with every output checked.
//!
//! ```text
//! lz-perfbench --workload nvm_scan|fleet_churn|recovery_soak|smoke
//!              --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! run's metadata (seed, rounds, host context). A readable summary goes
//! to standard error. See `perfbench/README.md` for the workloads and
//! metrics.
//!
//! A run sets its workload up [`SETUP_REPS`] times, then makes the
//! smoke-size passes of the other two workloads, so its result carries
//! every named metric (a metric a workload does not own comes from those
//! passes). It then measures whole rounds: it starts another round only
//! while that round would end within `--seconds`, once it has made the
//! workload's minimum (one round, or one soak per `recovery_soak` replica).
//! A traced run measures exactly one untraced and one traced round.

mod common;
mod fleet_churn;
mod host;
mod nvm_scan;
mod recovery_soak;
mod trace;

use common::{median, Metrics, Ops, Size, HELD_OUT_SEED};
use fleet_churn::FleetChurn;
use nvm_scan::NvmScan;
use recovery_soak::RecoverySoak;
use std::time::Instant;

/// End-to-end metrics (untraced run): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("paper_err_pp", "pp"),
    ("switch_p50_cycles", "cycles"),
    ("request_p99_cycles", "cycles"),
    ("slo_rate", "req/Mcycle"),
    ("recovery_p99_epochs", "epochs"),
];

/// Per-layer metrics (traced run): name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.nvm_cell_s", "s"),
    ("workloads.nvm_vanilla_s", "s"),
    ("core.nvm_lz_s", "s"),
    ("baselines.nvm_wp_s", "s"),
    ("baselines.nvm_lwc_s", "s"),
    ("machine.scan_mips", "MIPS"),
    ("ve_lifecycle_p50_us", "us"),
    ("ve_lifecycle_p99_us", "us"),
    ("workloads.cycles_per_search.vanilla", "cycles"),
    ("workloads.cycles_per_search.pan", "cycles"),
    ("workloads.cycles_per_search.ttbr", "cycles"),
    ("workloads.cycles_per_search.wp", "cycles"),
    ("workloads.cycles_per_search.lwc", "cycles"),
    ("core.spawn_us.p50", "us"),
    ("core.spawn_us.p99", "us"),
    ("core.schedule_us.p50", "us"),
    ("core.schedule_us.p99", "us"),
    ("core.run_us.p50", "us"),
    ("core.run_us.p99", "us"),
    ("core.reap_us.p50", "us"),
    ("core.reap_us.p99", "us"),
    ("fleet.serve_s", "s"),
    ("kernel.page_faults_per_ve", "count"),
    ("kernel.syscalls_per_ve", "count"),
    ("wx.sanitized_pages_per_ve", "count"),
    ("stage2.faults_per_ve", "count"),
    ("tlb.invalidations_per_ve", "count"),
    ("icache.misses_per_ve", "count"),
    ("machine.insns_per_ve", "count"),
    ("fleet.vmid_recycles", "count"),
    ("fleet.rollover_shootdowns", "count"),
    ("machine.frames_leaked", "frames"),
    ("machine.epoch_us", "us"),
    ("machine.epoch_replay_us", "us"),
    ("machine.shell_overhead_us", "us"),
    ("fleet.requests_per_s", "1/s"),
    ("fleet.epochs", "count"),
    ("fleet.requests", "count"),
    ("fleet.warm_restarts", "count"),
    ("fleet.cold_restarts", "count"),
    ("fleet.snapshots_taken", "count"),
    ("fleet.denials", "count"),
    ("fleet.quarantines", "count"),
    ("self_s.machine", "s"),
    ("self_s.kernel", "s"),
    ("self_s.core", "s"),
    ("self_s.workloads", "s"),
    ("self_s.fleet", "s"),
    ("self_s.chaos", "s"),
    ("trace.overhead_s", "s"),
];

/// Layers the benchmark calls directly; `baselines` is reached only
/// through `workloads::nvm`, so its time shows in the `nvm_*` metrics.
const LAYERS: [&str; 6] = ["machine", "kernel", "core", "workloads", "fleet", "chaos"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str =
    "usage: lz-perfbench --workload nvm_scan|fleet_churn|recovery_soak|smoke --seed N --seconds S --trace 0|1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    NvmScan,
    FleetChurn,
    RecoverySoak,
}

const KINDS: [Kind; 3] = [Kind::NvmScan, Kind::FleetChurn, Kind::RecoverySoak];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::NvmScan => "nvm_scan",
            Kind::FleetChurn => "fleet_churn",
            Kind::RecoverySoak => "recovery_soak",
        }
    }
}

enum Bench {
    Nvm(NvmScan),
    Fleet(Box<FleetChurn>),
    Recovery(RecoverySoak),
}

impl Bench {
    fn setup(kind: Kind, seed: u64, size: Size, traced: bool) -> Self {
        match kind {
            Kind::NvmScan => Bench::Nvm(NvmScan::setup(seed, size, traced)),
            Kind::FleetChurn => Bench::Fleet(Box::new(FleetChurn::setup(seed, size))),
            Kind::RecoverySoak => Bench::Recovery(RecoverySoak::setup(seed, size)),
        }
    }

    fn round(&mut self, traced: bool, ops: &mut Ops) -> f64 {
        match self {
            Bench::Nvm(b) => b.round(traced, ops),
            Bench::Fleet(b) => b.round(traced, ops),
            Bench::Recovery(b) => b.round(traced, ops),
        }
    }

    /// Rounds an untraced run makes whatever `--seconds` says.
    fn min_rounds(&self) -> usize {
        match self {
            Bench::Recovery(b) => b.min_rounds(),
            Bench::Nvm(_) | Bench::Fleet(_) => 1,
        }
    }

    fn finish(&mut self, traced: bool, ops: &mut Ops, m: &mut Metrics) {
        match self {
            Bench::Nvm(b) => b.finish(traced, ops, m),
            Bench::Fleet(b) => b.finish(traced, ops, m),
            Bench::Recovery(b) => b.finish(traced, ops, m),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse::<u32>().map_err(|e| format!("--seconds: {e}"))?;
    let traced = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args { workload, seed, seconds: f64::from(seconds), traced })
}

fn main() {
    trace::start_clock();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // The measured workloads, and the ones that only contribute their
    // smoke-size metrics.
    let (size, mains, companion_names): (Size, Vec<Kind>, Vec<Kind>) = match args.workload.as_str() {
        "smoke" => (Size::Smoke, KINDS.to_vec(), Vec::new()),
        name => match KINDS.iter().find(|k| k.name() == name) {
            Some(&k) => (Size::Full, vec![k], KINDS.iter().copied().filter(|&c| c != k).collect()),
            None => {
                eprintln!("unknown workload `{name}`\n{USAGE}");
                std::process::exit(2);
            }
        },
    };
    let traced = args.traced;
    let mut ops = Ops::default();

    // Set-up, timed from process start the first time.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut benches = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { 0.0 } else { trace::now_s() };
        benches = mains.iter().map(|&k| Bench::setup(k, args.seed, size, traced)).collect();
        setup_s.push(trace::now_s() - t0);
    }

    // Companions first, so they see the same fresh process whichever
    // workload is measured.
    trace::set_recording(traced);
    let mut companions: Vec<Bench> =
        companion_names.iter().map(|&k| Bench::setup(k, args.seed, Size::Smoke, traced)).collect();
    for c in &mut companions {
        c.round(traced, &mut ops);
    }
    trace::set_recording(false);

    let mut m = Metrics::new();
    let mut walls = Vec::new();
    if traced {
        let untraced: f64 = benches.iter_mut().map(|b| b.round(false, &mut ops)).sum();
        trace::set_recording(true);
        let first = trace::len();
        let wall: f64 = benches.iter_mut().map(|b| b.round(true, &mut ops)).sum();
        for (layer, s) in LAYERS.iter().map(|&l| (l, 0.0)).chain(trace::self_times(first..trace::len())) {
            *m.entry(format!("self_s.{layer}")).or_insert(0.0) += s;
        }
        m.insert("trace.overhead_s".into(), wall - untraced);
        walls.push(wall);
    } else {
        let min_rounds = benches.iter().map(Bench::min_rounds).max().unwrap_or(1);
        let start = Instant::now();
        loop {
            let wall: f64 = benches.iter_mut().map(|b| b.round(false, &mut ops)).sum();
            walls.push(wall);
            if walls.len() >= min_rounds && start.elapsed().as_secs_f64() + wall > args.seconds {
                break;
            }
        }
    }
    m.insert("wall_s".into(), median(&walls));
    m.insert("setup_s".into(), median(&setup_s));
    for b in &mut benches {
        b.finish(traced, &mut ops, &mut m);
    }
    let lifecycle_samples = benches.iter().chain(&companions).find_map(|b| {
        if let Bench::Fleet(f) = b {
            Some(f.lifecycle_samples())
        } else {
            None
        }
    });
    trace::set_recording(traced);
    let mut companion_m = Metrics::new();
    for c in &mut companions {
        c.finish(traced, &mut ops, &mut companion_m);
    }
    for (name, v) in companion_m {
        m.entry(name).or_insert(v);
    }
    trace::set_recording(false);
    m.insert("peak_rss_mib".into(), host::peak_rss_mib());

    let host = host::HostContext::probe();
    let meta = format!(
        concat!(
            "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {}, \"seconds\": {}, ",
            "\"trace\": {}, \"rounds\": {}, \"setup_reps\": {}, \"ve_lifecycle_samples\": {}, ",
            "\"companions\": [{}], \"host\": {}}}}}"
        ),
        args.workload,
        args.seed,
        HELD_OUT_SEED,
        args.seconds,
        u8::from(traced),
        walls.len(),
        SETUP_REPS,
        lifecycle_samples.map_or_else(|| "null".to_string(), |n| n.to_string()),
        companion_names.iter().map(|k| format!("\"{}\"", k.name())).collect::<Vec<_>>().join(", "),
        host.json(),
    );
    let result = render(if traced { PER_LAYER } else { END_TO_END }, &m, &mut ops);
    summarise(&args, &m, &ops, traced);
    write_outputs(&args, &meta, &result);
    println!("{meta}");
    println!("{result}");
}

/// The result line: every metric of `names`, with its unit. A metric
/// that is missing or not finite makes the run incorrect.
fn render(names: &[(&str, &str)], m: &Metrics, ops: &mut Ops) -> String {
    let mut parts = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match m.get(name) {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => {
                ops.errors.push(format!("metric {name} was not measured"));
                "null".to_string()
            }
        };
        parts.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.errors.is_empty() && ops.failed == 0,
        ops.attempted.max(1),
        ops.failed,
        parts.join(", ")
    )
}

fn summarise(args: &Args, m: &Metrics, ops: &Ops, traced: bool) {
    let names = if traced { PER_LAYER } else { END_TO_END };
    eprintln!("== {} seed {} ({}) ==", args.workload, args.seed, if traced { "traced" } else { "untraced" });
    for &(name, unit) in names {
        eprintln!("{name:<40} {:>16.4} {unit}", m.get(name).copied().unwrap_or(f64::NAN));
    }
    let rate = ops.failed as f64 / ops.attempted.max(1) as f64;
    eprintln!("{:<40} {rate:>16.6} ({} of {} operations)", "fail_rate", ops.failed, ops.attempted);
    for e in &ops.errors {
        eprintln!("FAILED: {e}");
    }
}

/// Keep the result, and the spans of a traced run, under the build
/// directory: `$CARGO_TARGET_DIR/perfbench/` (default `.bench_build`).
fn write_outputs(args: &Args, meta: &str, result: &str) {
    let dir = std::path::PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
        .join("perfbench");
    let write = |name: String, body: String| {
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(&name), body)) {
            eprintln!("could not write {}: {e}", dir.join(name).display());
        }
    };
    write(format!("{}-trace{}.json", args.workload, u8::from(args.traced)), format!("{meta}\n{result}\n"));
    if args.traced {
        write(format!("{}-spans.tsv", args.workload), trace::dump_tsv());
    }
}
