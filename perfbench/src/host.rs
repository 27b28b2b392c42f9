//! Host context recorded with every result, as metadata rather than
//! metrics: a result is only comparable with another taken on the same
//! kind of host, build and engine configuration.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the burn loop; about 50 ms of one core on a 2020s host.
const BURN_ITERS: u64 = 40_000_000;

/// The host facts one run records.
#[derive(Debug, Clone)]
pub struct HostContext {
    /// `available_parallelism`, i.e. what `nproc` reports.
    pub nproc: usize,
    /// Two threads burning the same fixed work as one thread, as a
    /// speed-up over that one thread (2.0 on two free cores).
    pub effective_parallelism: f64,
    pub profile: &'static str,
    /// Every `LZ_*` variable set in the environment, as `NAME=value`.
    pub lz_vars: Vec<String>,
}

impl HostContext {
    /// Probe the host (takes about 0.15 s).
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut lz_vars: Vec<String> =
            std::env::vars().filter(|(k, _)| k.starts_with("LZ_")).map(|(k, v)| format!("{k}={v}")).collect();
        lz_vars.sort();
        HostContext {
            nproc,
            effective_parallelism: burn_probe(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            lz_vars,
        }
    }

    /// Results taken with an engine toggle set are not comparable with
    /// the default configuration every workload is defined on.
    pub fn comparable(&self) -> bool {
        self.lz_vars.is_empty()
    }

    pub fn json(&self) -> String {
        let vars: Vec<String> = self.lz_vars.iter().map(|v| format!("\"{v}\"")).collect();
        format!(
            "{{\"nproc\": {}, \"effective_parallelism\": {:.3}, \"profile\": \"{}\", \"lz_vars\": [{}], \"comparable\": {}}}",
            self.nproc,
            self.effective_parallelism,
            self.profile,
            vars.join(", "),
            self.comparable()
        )
    }
}

fn burn() -> u64 {
    let mut x = 1u64;
    for _ in 0..black_box(BURN_ITERS) {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407));
    }
    x
}

/// One thread's time over two concurrent threads' time, doubled.
fn burn_probe() -> f64 {
    let t = Instant::now();
    black_box(burn());
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(burn);
        let b = s.spawn(burn);
        black_box(a.join().expect("burn thread panicked"));
        black_box(b.join().expect("burn thread panicked"));
    });
    2.0 * one / t.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
