//! Pieces every workload shares: workload seeds, the operation ledger
//! behind `attempted`/`failed`, the metric map, and order statistics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The workload seed that reproduces the repository's published runs:
/// `repro fig5` cells, the `repro fleet` 1-core row, `repro recovery`.
pub const DEFAULT_SEED: u64 = 0;
/// Seed held out from tuning the benchmark; check later claims on it.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// How large a workload runs: `Full` is the workload the benchmark
/// measures; `Smoke` is its seconds-scale self-check, with fixed inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// The splitmix64 finaliser: a bijection with `mix(0) == 0`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A layer seed for input stream `stream` of workload seed `seed`:
/// `base` itself for the default seed's stream 0, so the default seed
/// reproduces the layer's own configuration.
pub fn derive_seed(base: u64, seed: u64, stream: u64) -> u64 {
    base ^ mix(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// Operations attempted and failed, and what failed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks and invariants, one line each.
    pub errors: Vec<String>,
}

impl Ops {
    /// Count `n` operations, of which `bad` failed with `why`.
    pub fn record(&mut self, n: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.errors.push(why());
        }
    }

    /// A run-level check that is not one operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(why());
        }
    }
}

/// Run one call that may panic on a broken invariant; `None` (with the
/// panic message already on stderr) if it did.
pub fn guard<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Metric values by name; units live with the names in `main.rs`.
pub type Metrics = BTreeMap<String, f64>;

/// The `q`-quantile (0..=1) of `v` by the nearest-rank rule; NaN if empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The median over consecutive batches of `batch` samples of each
/// batch's `q`-quantile: a burst of host contention that covers fewer
/// than half the batches does not move it.
pub fn batched_quantile(v: &[f64], batch: usize, q: f64) -> f64 {
    median(&v.chunks_exact(batch).map(|c| quantile(c, q)).collect::<Vec<_>>())
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_layer_seeds() {
        assert_eq!(derive_seed(0x11a5_77a0, DEFAULT_SEED, 0), 0x11a5_77a0);
        assert_ne!(derive_seed(0x11a5_77a0, DEFAULT_SEED, 1), 0x11a5_77a0);
        assert_ne!(derive_seed(0x11a5_77a0, 1, 0), derive_seed(0x11a5_77a0, 0, 1));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let mut burst = vec![1.0; 300];
        burst[..100].iter_mut().for_each(|x| *x = 9.0);
        assert_eq!(batched_quantile(&burst, 100, 0.5), 1.0);
    }
}
