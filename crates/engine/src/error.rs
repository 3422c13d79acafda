//! Typed failures of the engine lifecycle and submit paths.

use cslack_kernel::{Job, KernelError};
use serde::Serialize;
use std::fmt;

/// How a shard worker died.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum FailureKind {
    /// The scheduler (or the commit path) panicked.
    Panic,
    /// The scheduler returned a decision that violated the commitment
    /// contract (overlap, window, duplicate id). A duplicate id need not
    /// be the scheduler's fault: a submitter that reuses the id of a job
    /// this shard already accepted gets the same refusal from the
    /// shard's schedule.
    Contract,
}

impl FailureKind {
    /// Lower-case label for logs and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Contract => "contract",
        }
    }
}

/// A contained shard fault: everything `finish` (and the crash
/// snapshot) knows about why one worker died while the rest of the
/// engine kept serving.
#[derive(Clone, Debug, Serialize)]
pub struct ShardFailure {
    /// The shard whose worker died.
    pub shard: usize,
    /// Panic or contract violation.
    pub kind: FailureKind,
    /// The panic payload or contract error, rendered.
    pub payload: String,
    /// The job being decided when the fault hit, when known.
    pub failing_job: Option<u32>,
    /// The per-shard decision sequence number at the fault (equals the
    /// number of decisions the shard completed).
    pub seq: u64,
    /// Jobs that were enqueued to the shard but never decided: the
    /// rest of the failing batch plus whatever the queue still held
    /// when the worker parked.
    pub queued_lost: u64,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} {} after {} decision(s)",
            self.shard,
            match self.kind {
                FailureKind::Panic => "panicked",
                FailureKind::Contract => "broke the commitment contract",
            },
            self.seq
        )?;
        if let Some(job) = self.failing_job {
            write!(f, " while deciding J{job}")?;
        }
        write!(f, ": {}", self.payload)
    }
}

/// Failure modes of the engine lifecycle.
#[derive(Debug)]
pub enum EngineError {
    /// `shards` was zero or exceeded the machine count.
    BadShardCount {
        /// Requested shard count.
        shards: usize,
        /// Cluster machine count.
        m: usize,
    },
    /// The machine count `m` exceeds
    /// [`MAX_MACHINES`](cslack_obs::flight::MAX_MACHINES), or a sizing
    /// field of [`EngineConfig`](crate::EngineConfig) exceeds
    /// [`EngineConfig::MAX_JOBS`](crate::EngineConfig::MAX_JOBS).
    TooLarge {
        /// The offending field (`m`, `queue_capacity` or `batch_size`).
        field: &'static str,
        /// The requested value.
        value: usize,
    },
    /// Every shard failed, so there is no healthy schedule to merge —
    /// the only fault that makes `finish` itself fail. Single-shard
    /// faults surface as
    /// [`EngineReport::degraded`](crate::EngineReport::degraded)
    /// instead.
    AllShardsFailed {
        /// One entry per shard, in shard order.
        failures: Vec<ShardFailure>,
    },
    /// The merged schedule violated a kernel invariant (double commit
    /// or cross-shard overlap — shards are not trusted either).
    Merge(KernelError),
    /// A shard restart could not proceed — the shard is not failed,
    /// the flight recording needed for replay is missing or lossy, or
    /// the replayed schedule diverged from the recorded stream. The
    /// shard stays in whatever state it was in; no jobs are lost by a
    /// refused restart.
    Recovery {
        /// The shard whose restart was refused.
        shard: usize,
        /// Why the restart could not proceed.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadShardCount { shards, m } => {
                write!(f, "cannot run {shards} shard(s) on {m} machine(s)")
            }
            EngineError::TooLarge { field, value } => {
                let (ceiling, unit) = match *field {
                    "m" => (cslack_obs::flight::MAX_MACHINES, "machines"),
                    _ => (crate::EngineConfig::MAX_JOBS, "jobs"),
                };
                write!(
                    f,
                    "{field} = {value} exceeds the engine ceiling of {ceiling} {unit}"
                )
            }
            EngineError::AllShardsFailed { failures } => {
                write!(f, "all {} shard(s) failed", failures.len())?;
                if let Some(first) = failures.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            EngineError::Merge(e) => write!(f, "merging shard schedules failed: {e}"),
            EngineError::Recovery { shard, reason } => {
                write!(f, "shard {shard} cannot be restarted: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Why a submission was not enqueued.
#[derive(Debug)]
pub enum SubmitError {
    /// The target shard's queue is at capacity — the typed
    /// backpressure signal; the job is returned so the caller can
    /// retry or drop it. (Kept under its historical name: `Full` *is*
    /// the backpressure error, surfaced by
    /// [`Engine::try_submit`](crate::Engine::try_submit) and by
    /// [`Engine::submit_with_deadline`](crate::Engine::submit_with_deadline)
    /// once its deadline passes.)
    Full(Job),
    /// The engine is shutting down; the job is returned.
    Closed(Job),
    /// The target shard's worker died to a contained fault; the job is
    /// returned. Unlike [`SubmitError::Closed`] the rest of the engine
    /// is still serving — the caller may reroute or drop the job, but
    /// retrying the same shard is futile.
    ShardFailed(Job),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Full(j) => write!(f, "queue full, {} not enqueued", j.id),
            SubmitError::Closed(j) => write!(f, "engine closed, {} not enqueued", j.id),
            SubmitError::ShardFailed(j) => {
                write!(f, "target shard failed, {} not enqueued", j.id)
            }
        }
    }
}
