//! Result types of a drained engine: metrics snapshots and the final
//! report.

use crate::error::ShardFailure;
use crate::flight_state::FlightRecording;
use crate::queue::Submission;
use cslack_obs::{Histogram, RejectCounts};
use serde::Serialize;

/// What a shard thread hands back when it drains (or dies).
///
/// A failed shard still returns an outcome: the counters and
/// histograms cover every decision it completed before the fault, so
/// degraded reports stay consistent with the flight recording; only
/// its schedule is discarded (`failure` is `Some`, and the merge
/// skips it).
pub(crate) struct ShardOutcome {
    pub(crate) schedule: cslack_kernel::Schedule,
    pub(crate) submitted: u64,
    pub(crate) accepted: u64,
    pub(crate) rejected: RejectCounts,
    pub(crate) batches: u64,
    pub(crate) latency: Histogram,
    pub(crate) queue_wait: Histogram,
    /// Nanoseconds since engine start at the last completed batch,
    /// for the busy-window throughput measure (0 when idle).
    pub(crate) last_decision_ns: u64,
    pub(crate) failure: Option<ShardFailure>,
    /// Jobs the shard received but never decided, in arrival order:
    /// the failing job itself (first), the rest of its batch, and
    /// whatever the queue still held when the worker parked. Empty on
    /// a healthy exit. Recovery re-offers exactly these.
    pub(crate) undecided: Vec<Submission>,
}

impl ShardOutcome {
    /// The outcome of a shard over `group_len` machines that has not
    /// decided anything yet.
    pub(crate) fn new(group_len: usize) -> ShardOutcome {
        ShardOutcome {
            schedule: cslack_kernel::Schedule::new(group_len.max(1)),
            submitted: 0,
            accepted: 0,
            rejected: RejectCounts::default(),
            batches: 0,
            latency: Histogram::new(),
            queue_wait: Histogram::new(),
            last_decision_ns: 0,
            failure: None,
            undecided: Vec::new(),
        }
    }
}

/// Decision-latency / queue-wait summary over all shards, nanoseconds.
///
/// Rebuilt from exact log-bucketed histogram merges, so the quantiles
/// are the same whether one shard or sixteen recorded the samples. An
/// engine that decided zero jobs reports all-zero stats (not garbage
/// minima).
pub type LatencyStats = cslack_obs::HistogramSummary;

/// Per-shard slice of an [`EngineMetrics`] snapshot.
#[derive(Clone, Debug, Serialize)]
pub struct ShardMetrics {
    /// Shard index, `0..shards`.
    pub shard: usize,
    /// Machines in this shard's group.
    pub machines: usize,
    /// Jobs routed to this shard.
    pub submitted: u64,
    /// Jobs the shard's scheduler admitted.
    pub accepted: u64,
    /// Jobs the shard's scheduler rejected.
    pub rejected: u64,
    /// Rejections split by typed reason.
    pub rejected_by_reason: RejectCounts,
    /// Committed processing volume on this shard.
    pub accepted_load: f64,
    /// Busy fraction of the shard's machines over its own makespan
    /// (`accepted_load / (machines * makespan)`), 0 when idle.
    pub utilization: f64,
    /// Queue wakeups (each drains up to `batch_size` jobs).
    pub batches: u64,
    /// `true` when the shard's worker died to a contained fault — its
    /// counters cover the decisions completed before the fault and its
    /// schedule was excluded from the merge.
    pub failed: bool,
}

/// Aggregate snapshot of one engine run, serializable for reports.
#[derive(Clone, Debug, Serialize)]
pub struct EngineMetrics {
    /// Machines in the cluster.
    pub m: usize,
    /// Shard count.
    pub shards: usize,
    /// Total jobs submitted (and decided — the engine drains fully).
    pub submitted: u64,
    /// Total accepted jobs.
    pub accepted: u64,
    /// Total rejected jobs.
    pub rejected: u64,
    /// Rejections split by typed [`RejectReason`](cslack_obs::RejectReason).
    pub rejected_by_reason: RejectCounts,
    /// Blocking submissions that found their shard queue full and had
    /// to wait (no job is ever lost to backpressure).
    pub backpressure_stalls: u64,
    /// Objective value `sum p_j (1 - U_j)` of the merged schedule.
    pub accepted_load: f64,
    /// Wall-clock seconds from `start` to the end of `finish`.
    pub elapsed_secs: f64,
    /// The busy window: wall-clock seconds from the first enqueue to
    /// the last completed decision batch. Unlike `elapsed_secs` this
    /// excludes idle time before traffic and after the last decision
    /// (e.g. a `--hold` window keeping the telemetry endpoint up), so
    /// it is the honest denominator for throughput. 0 when no job was
    /// ever submitted.
    pub busy_secs: f64,
    /// Decisions per second over the busy window (`submitted /
    /// busy_secs`) — not wall time since start, which would dilute the
    /// rate by every idle second.
    pub decisions_per_sec: f64,
    /// Decision-latency summary (with percentiles) across all shards.
    pub latency: LatencyStats,
    /// Enqueue-to-decision wait summary across all shards.
    pub queue_wait: LatencyStats,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardMetrics>,
}

/// What happened across every shard restart of a run: the four-way
/// conservation ledger of jobs touched by a failure that was later
/// recovered.
///
/// Conservation identity: every job a failed-then-restarted shard ever
/// received lands in exactly one bucket —
/// `recovered_committed + re_admitted + re_rejected + lost ==
/// decisions replayed + jobs re-offered` (and rejected-before-crash
/// jobs stay in the ordinary rejected counters; they were decided,
/// not lost).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct RecoveryStats {
    /// Shard workers restarted via replay-driven recovery.
    pub restarts: u64,
    /// Commitments made before the crash and preserved bit-identical
    /// by the replay rebuild. These jobs were never re-offered — a
    /// commitment, once made, stands.
    pub recovered_committed: u64,
    /// Bounced/undecided jobs re-offered to the replacement worker and
    /// admitted (their commitment point `d_j - (1+eps)p_j` had not
    /// passed, so admission was still legal).
    pub re_admitted: u64,
    /// Bounced/undecided jobs re-offered and rejected — typically
    /// because the crash outage consumed their slack.
    pub re_rejected: u64,
    /// Jobs bounced by the failure that could not be re-offered at all
    /// (replacement queue refused them). 0 on every healthy recovery.
    pub lost: u64,
}

impl RecoveryStats {
    /// `true` when no restart ever happened (the field renders as
    /// absent-equivalent in reports).
    pub fn is_empty(&self) -> bool {
        self.restarts == 0
    }

    /// Jobs accounted for across the four recovery buckets.
    pub fn conserved_total(&self) -> u64 {
        self.recovered_committed + self.re_admitted + self.re_rejected + self.lost
    }
}

/// The result of a drained engine: the merged cluster schedule plus the
/// metrics snapshot and the flight recording.
#[derive(Debug)]
pub struct EngineReport {
    /// The cluster-wide merged schedule (all invariants re-validated).
    pub schedule: cslack_kernel::Schedule,
    /// Metrics snapshot for the run.
    pub metrics: EngineMetrics,
    /// The flight recording of the run, with header counters taken from
    /// the engine's own metrics. It derefs to a
    /// [`FlightSnapshot`](cslack_obs::FlightSnapshot), decoded from the
    /// finished rings on first read; its
    /// [`decisions`](cslack_obs::FlightSnapshot::decisions) are the
    /// per-decision record, in `(shard, seq)` order. `None` unless
    /// [`ObsConfig::flight`](crate::ObsConfig::flight) was set with a
    /// nonzero capacity.
    pub flight: Option<FlightRecording>,
    /// Shards that died to a contained fault, in shard order. Empty on
    /// a fully healthy run; non-empty means `schedule` is the merge of
    /// the *healthy* shards only (degraded mode — the accepted load of
    /// the surviving shards is preserved, honoring the commitments
    /// already made). A shard that failed and was then successfully
    /// restarted does **not** appear here — its recovered worker
    /// drained healthy and its ledger lives in `recovery`.
    pub degraded: Vec<ShardFailure>,
    /// The recovery ledger: restart count and the four-way job
    /// conservation across every replay-driven shard restart of the
    /// run. All-zero when no shard was ever restarted.
    pub recovery: RecoveryStats,
}

impl EngineReport {
    /// `true` when at least one shard failed and the report carries
    /// only the healthy shards' merged schedule.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }
}
