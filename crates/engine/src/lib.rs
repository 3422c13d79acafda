//! # cslack-engine
//!
//! A sharded, thread-safe admission-control *service* wrapping any
//! [`OnlineScheduler`](cslack_algorithms::OnlineScheduler) behind a
//! submission API — the paper's immediate-commitment model lifted from
//! a replayed trace to a concurrent server.
//!
//! ## Architecture
//!
//! ```text
//!          try_submit / submit / submit_batch_into (backpressure-typed)
//!  producers ──────────────┬─────────────────┬──────────────────┐
//!                          v                 v                  v
//!                   [ingest ring 0]   [ingest ring 1]  …  [ingest ring S-1]
//!                          │                 │                  │
//!                   worker thread 0   worker thread 1     worker thread S-1
//!                   scheduler shard   scheduler shard     scheduler shard
//!                   machines 0..g0    machines g0..g1     machines ..m
//!                          │                 │                  │
//!                          └────────── finish(): drain, join ───┘
//!                                            v
//!                        merge via cslack_kernel::merge_schedules
//!                        (every commitment re-validated on merge)
//! ```
//!
//! * The cluster's `m` machines are split into `S` disjoint contiguous
//!   groups; shard `s` owns group `s` and runs its own scheduler
//!   instance sized to that group.
//! * Jobs are routed by the deterministic [`shard_of`] function (job id
//!   modulo shard count), so a given instance always lands on the same
//!   shards in the same per-shard order — the accepted set is
//!   reproducible across runs regardless of thread scheduling.
//! * Submissions travel through the **ingestion plane** (the private
//!   `queue` module): one preallocated lock-free-consumer ring per
//!   shard, into which producers publish whole routed batches with one
//!   lock acquisition and one release store — no per-job allocation.
//!   The ring bounds queued *jobs* ([`EngineConfig::queue_capacity`]), and
//!   its fault-path drain poisons it before popping, so every
//!   submission that returned `Ok` is decided or counted as lost
//!   exactly once.
//! * Each shard drains its ring in batches, asks its scheduler for an
//!   irrevocable [`Decision`](cslack_algorithms::Decision) per job,
//!   and commits accepts to a shard-local
//!   [`Schedule`](cslack_kernel::Schedule) through the same
//!   contract-check the sequential simulator uses
//!   ([`cslack_sim::apply_decision`]).
//! * [`Engine::finish`] closes the rings, joins every worker, and
//!   merges the shard schedules into one cluster-wide
//!   [`Schedule`](cslack_kernel::Schedule); the merge re-validates
//!   every commitment, so shards can never silently double-commit a
//!   job or overlap a lane.
//!
//! ## Observability
//!
//! Every decision is measured into log-bucketed [`cslack_obs`]
//! histograms (decision latency and enqueue-to-decision queue wait) and
//! every rejection carries a typed
//! [`RejectReason`](cslack_obs::RejectReason) obtained through
//! [`OnlineScheduler::offer_explained`](cslack_algorithms::OnlineScheduler::offer_explained).
//! Pass an [`ObsConfig`] to [`Engine::start_observed`] to additionally:
//!
//! * stream live counters/histograms into a shared
//!   [`MetricsRegistry`](cslack_obs::MetricsRegistry)
//!   (Prometheus-exposable; flushed shard-locally once per batch so the
//!   hot path never contends on it — including a per-shard
//!   `cslack_queue_depth` gauge fed from both ends of the ring),
//! * record every decision into a bounded per-shard flight ring
//!   ([`FlightConfig`]): the one per-decision record, returned in
//!   [`EngineReport::flight`] as a [`FlightRecording`] that decodes on
//!   first read into a `.cfr`-writable snapshot of
//!   [`DecisionEvent`](cslack_obs::DecisionEvent)s, and
//! * stream every decision live to a [`DecisionSink`], called on each
//!   shard worker once per committed batch.
//!
//! The engine itself opens no sockets: the `cslack-server` crate's
//! telemetry listener serves `/metrics`, `/healthz` and
//! `/flight/snapshot` from [`Engine::health`],
//! [`Engine::health_generation`] and [`Engine::flight_snapshot`].
//!
//! ## Fault containment
//!
//! The paper's model makes every accept irrevocable, so the service
//! must never lose commitments it already made — including to its own
//! bugs. Each shard's decide/commit loop runs under
//! `std::panic::catch_unwind`: a panicking (or contract-breaking)
//! scheduler poisons only its shard. The worker converts the fault
//! into a typed [`ShardFailure`], writes the crash `.cfr` snapshot *at
//! failure time* (not at finish — an abandoned engine keeps the
//! evidence), marks itself failed in the shared health table, and
//! parks. [`Engine::finish`] joins **all** shards unconditionally and
//! merges the healthy ones into a degraded [`EngineReport`]
//! (`report.degraded` lists the failures); only when every shard died
//! does it fail terminally with [`EngineError::AllShardsFailed`].
//! Producers observe a dead shard as [`SubmitError::ShardFailed`]
//! (distinct from graceful [`SubmitError::Closed`]), and
//! [`Engine::health`] exposes per-shard liveness and heartbeats.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use cslack_kernel::{JobId, MachineId};

mod config;
#[allow(clippy::module_inception)]
mod engine;
mod error;
mod flight_state;
mod health;
mod observatory;
pub(crate) mod queue;
mod recovery;
mod report;
mod submit;
#[cfg(test)]
mod tests;
mod worker;

pub use config::{DecisionSink, EngineConfig, FlightConfig, ObsConfig};
pub use engine::Engine;
pub use error::{EngineError, FailureKind, ShardFailure, SubmitError};
pub use flight_state::FlightRecording;
pub use health::{ShardHealth, ShardState};
pub use observatory::{window_quality, ObservatoryConfig, WindowQuality};
pub use report::{EngineMetrics, EngineReport, LatencyStats, RecoveryStats, ShardMetrics};

/// Deterministic shard routing: the shard a job is offered to.
///
/// Depends only on the job id and the shard count, never on timing, so
/// the same instance submitted to an engine with the same shard count
/// always produces the same per-shard job streams.
#[inline]
pub fn shard_of(job: JobId, shards: usize) -> usize {
    job.index() % shards.max(1)
}

/// Splits `m` machines into `shards` disjoint contiguous groups.
///
/// Group sizes differ by at most one (`m mod shards` leading groups get
/// the extra machine); every machine belongs to exactly one group.
/// A layout the engine would refuse (`shards == 0` or `shards > m`) is
/// [`EngineError::BadShardCount`] here too — the same typed error
/// [`Engine::start_observed`] returns, instead of a panic.
pub fn machine_groups(m: usize, shards: usize) -> Result<Vec<Vec<MachineId>>, EngineError> {
    if shards == 0 || shards > m {
        return Err(EngineError::BadShardCount { shards, m });
    }
    Ok((0..shards)
        .map(|s| {
            let lo = s * m / shards;
            let hi = (s + 1) * m / shards;
            (lo..hi).map(|i| MachineId(i as u32)).collect()
        })
        .collect())
}
