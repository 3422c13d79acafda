//! # cslack — Commitment and Slack for Online Load Maximization
//!
//! A complete Rust reproduction of the SPAA 2020 paper by Jamalabadi,
//! Schwiegelshohn and Schwiegelshohn: the `Threshold` online admission
//! algorithm with immediate commitment (Algorithm 1), the competitive-ratio
//! function `c(eps, m)` with its phase structure, the Section-3 lower-bound
//! adversary, baselines from the surrounding literature, offline optimal
//! solvers, synthetic workloads, and an event-driven simulator.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`kernel`] — jobs, instances, schedules, validation.
//! * [`ratio`] — the function `c(eps, m)`, parameters `f_q`, corner values.
//! * [`algorithms`] — `Threshold` and every baseline (`OnlineScheduler`).
//! * [`adversary`] — the lower-bound adversary (Theorem 1).
//! * [`workloads`] — random instance generators.
//! * [`opt`] — offline optimal and upper bounds.
//! * [`sim`] — the simulator and parallel sweep harness.
//! * [`engine`] — the sharded concurrent admission-control service.
//! * [`obs`] — observability: decision traces with typed reject
//!   reasons, log-bucketed histogram metrics, flight recordings.
//!
//! ## Quickstart
//!
//! ```
//! use cslack::prelude::*;
//!
//! // Two machines, slack 1/2.
//! let inst = InstanceBuilder::new(2, 0.5)
//!     .tight_job(Time::ZERO, 1.0)
//!     .tight_job(Time::ZERO, 1.0)
//!     .tight_job(Time::new(0.1), 4.0)
//!     .build()
//!     .unwrap();
//!
//! let mut alg = Threshold::for_instance(&inst);
//! let report = simulate(&inst, &mut alg).unwrap();
//! assert!(report.accepted_load() > 0.0);
//! ```

pub use cslack_adversary as adversary;
pub use cslack_algorithms as algorithms;
pub use cslack_engine as engine;
pub use cslack_kernel as kernel;
pub use cslack_obs as obs;
pub use cslack_opt as opt;
pub use cslack_ratio as ratio;
pub use cslack_sim as sim;
pub use cslack_workloads as workloads;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use cslack_algorithms::{Decision, Greedy, OnlineScheduler, Threshold};
    pub use cslack_engine::{Engine, EngineConfig, EngineMetrics, EngineReport, ObsConfig};
    pub use cslack_kernel::{Instance, InstanceBuilder, Job, JobId, MachineId, Schedule, Time};
    pub use cslack_obs::{MetricsRegistry, RejectReason};
    pub use cslack_ratio::RatioFn;
    pub use cslack_sim::{simulate, SimReport};
}
