//! Fleet-scale multi-tenant serving benchmark for LightZone.
//!
//! The per-VE microbenchmarks ([`lz_workloads::micro`]) price one
//! domain switch in isolation; this crate asks the *fleet* question: a
//! serving host packs thousands of LightZone domains across many
//! tenants, VEs come and go fast enough to exhaust the 16-bit VMID
//! space, and what matters operationally is the full request-latency
//! distribution — p50, p99, p999 — not a mean.
//!
//! * [`load`] — open-loop arrival generation: a seeded, integer-only
//!   exponential schedule drawn up front, immune to coordinated
//!   omission.
//! * [`hist`] — a 256-bucket log2 histogram (no floats) whose quantiles
//!   serialise byte-identically across runs.
//! * `drive` — what both benchmarks share: one guest layout, one
//!   boot step, one tenant-program scaffold (switch sequence, domain
//!   prologue, gate-switch loop) and one epoch drain that hands each
//!   core's exit to the caller's policy in core order.
//! * [`sim`] — the benchmark itself: a resident pool of tenant VEs
//!   running real assembled gate-switching programs, an open-loop
//!   queueing overlay on the measured service times, and a churn phase
//!   that rolls the VMID space over to exercise generation-tagged
//!   recycling (`repro fleet`).
//! * [`supervisor`] — the pure kill → backoff → warm-restart →
//!   quarantine state machine: typed fault reports, strike ledgers,
//!   exponential backoff, and queue-depth admission control.
//! * [`recovery`] — the chaos-driven crash-recovery soak: `ve_crash` /
//!   `snapshot_corrupt` / `restart_storm` injection against a fleet of
//!   request servers, warm restarts from request-boundary snapshots,
//!   and per-restart invariant oracles (`repro recovery`); the
//!   supervisor is its policy on the shared epoch drain.

mod drive;
pub mod hist;
pub mod load;
pub mod recovery;
pub mod sim;
pub mod supervisor;

pub use hist::{LatSummary, Log2Hist};
pub use load::{Lcg, OpenLoop};
pub use recovery::{run_recovery, RecoveryConfig, RecoveryRun};
pub use sim::{run_fleet, FleetConfig, FleetRun};
pub use supervisor::{
    Denial, FaultKind, FaultReport, Supervisor, SupervisorConfig, SupervisorStats, TenantState, Verdict,
};
