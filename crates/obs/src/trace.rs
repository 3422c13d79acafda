//! Structured decision traces: one [`DecisionEvent`] per decision, as
//! recorded in the engine's flight rings, and [`summarize`], which
//! counts a recording's decisions back into the engine's counters.
//!
//! The point of the trace is to make a rejection *explainable*: instead
//! of an opaque boolean, every rejected job carries a typed
//! [`RejectReason`] that maps back to the admission conditions of the
//! paper's Algorithm 1 (see DESIGN.md, "RejectReason taxonomy").

use serde::Serialize;
use std::collections::BTreeMap;

/// Why an admission-control algorithm rejected a job.
///
/// The taxonomy mirrors the two ways the paper's Threshold algorithm
/// (Algorithm 1) can refuse a job, plus two service-level causes:
///
/// * [`RejectReason::ThresholdExceeded`] — the deadline test failed:
///   `d_j < d_lim` with `d_lim = max_h (r_j + l(m_h) f_h)` (Eq. 9–10).
/// * [`RejectReason::NoFeasibleMachine`] — the threshold passed but no
///   machine could complete the job by its deadline (no feasible
///   interval; impossible for the paper's parameters by Claim 1, but
///   reachable by ablated variants and by greedy, where it is the only
///   reject cause).
/// * [`RejectReason::PolicyFiltered`] — a randomized/classifying policy
///   filtered the job out (e.g. it landed on a non-selected virtual
///   machine), independent of load.
/// * [`RejectReason::Unattributed`] — the algorithm rejected without
///   reporting a structured cause (default for schedulers that do not
///   override [`explained`](RejectReason#explained-offers)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum RejectReason {
    /// Deadline below the load threshold `d_lim` (paper Eq. 10).
    ThresholdExceeded,
    /// No machine can finish the job by its deadline.
    NoFeasibleMachine,
    /// Filtered by a policy decision unrelated to current load.
    PolicyFiltered,
    /// The algorithm gave no structured cause.
    Unattributed,
}

impl RejectReason {
    /// All variants, in a stable reporting order.
    pub const ALL: [RejectReason; 4] = [
        RejectReason::ThresholdExceeded,
        RejectReason::NoFeasibleMachine,
        RejectReason::PolicyFiltered,
        RejectReason::Unattributed,
    ];

    /// Stable snake_case label (metric/exposition name).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::ThresholdExceeded => "threshold_exceeded",
            RejectReason::NoFeasibleMachine => "no_feasible_machine",
            RejectReason::PolicyFiltered => "policy_filtered",
            RejectReason::Unattributed => "unattributed",
        }
    }
}

/// Rejections split by [`RejectReason`]; the engine's counters and the
/// trace summary both use this shape, so they can be compared directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct RejectCounts {
    /// Deadline below the load threshold.
    pub threshold_exceeded: u64,
    /// No machine could finish by the deadline.
    pub no_feasible_machine: u64,
    /// Filtered by a load-independent policy.
    pub policy_filtered: u64,
    /// No structured cause reported.
    pub unattributed: u64,
}

impl RejectCounts {
    /// Increments the counter for `reason`.
    pub fn bump(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::ThresholdExceeded => self.threshold_exceeded += 1,
            RejectReason::NoFeasibleMachine => self.no_feasible_machine += 1,
            RejectReason::PolicyFiltered => self.policy_filtered += 1,
            RejectReason::Unattributed => self.unattributed += 1,
        }
    }

    /// The counter for `reason`.
    pub fn get(&self, reason: RejectReason) -> u64 {
        match reason {
            RejectReason::ThresholdExceeded => self.threshold_exceeded,
            RejectReason::NoFeasibleMachine => self.no_feasible_machine,
            RejectReason::PolicyFiltered => self.policy_filtered,
            RejectReason::Unattributed => self.unattributed,
        }
    }

    /// Total rejections across all reasons.
    pub fn total(&self) -> u64 {
        RejectReason::ALL.iter().map(|&r| self.get(r)).sum()
    }

    /// Adds `other` into `self` (commutative, associative).
    pub fn merge(&mut self, other: &RejectCounts) {
        self.threshold_exceeded += other.threshold_exceeded;
        self.no_feasible_machine += other.no_feasible_machine;
        self.policy_filtered += other.policy_filtered;
        self.unattributed += other.unattributed;
    }
}

/// One admission decision, as recorded by the engine's shard workers.
///
/// The flight recorder stores every field of it (see
/// [`FlightSnapshot::decisions`](crate::FlightSnapshot::decisions)),
/// and its one byte encoding is the flight record
/// ([`encode_decision`](crate::flight::encode_decision));
/// `cslack trace-summary` aggregates a `.cfr` back into counters.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionEvent {
    /// Per-shard decision sequence number (0-based, arrival order).
    pub seq: u64,
    /// The job's id.
    pub job: u32,
    /// The shard that decided.
    pub shard: usize,
    /// Release time `r_j`.
    pub release: f64,
    /// Processing time `p_j`.
    pub proc_time: f64,
    /// Deadline `d_j`.
    pub deadline: f64,
    /// Machine candidates the allocator evaluated (0 when rejected at
    /// the threshold test, before allocation).
    pub candidates: u32,
    /// The admission threshold `d_lim` the job was tested against, when
    /// the algorithm exposes one.
    pub threshold: Option<f64>,
    /// Outstanding load of the least loaded machine at decision time,
    /// when the algorithm exposes it.
    pub min_load: Option<f64>,
    /// Whether the job was admitted.
    pub accepted: bool,
    /// Committed machine (global id) for accepted jobs.
    pub machine: Option<u32>,
    /// Committed start time for accepted jobs.
    pub start: Option<f64>,
    /// Why the job was rejected (`None` for accepted jobs).
    pub reject_reason: Option<RejectReason>,
    /// Scheduler decision latency, nanoseconds.
    pub latency_ns: u64,
    /// Time from enqueue to decision start, nanoseconds.
    pub queue_wait_ns: u64,
}

/// Per-shard slice of a [`TraceSummary`].
#[derive(Clone, Debug, Default, Serialize)]
pub struct ShardTraceSummary {
    /// Shard index.
    pub shard: usize,
    /// Decisions recorded for this shard.
    pub decisions: u64,
    /// Accepted jobs.
    pub accepted: u64,
    /// Rejected jobs, split by reason.
    pub rejected: RejectCounts,
    /// Events the shard's bounded flight ring dropped before the trace
    /// was written, inferred from the sequence numbers: the ring keeps
    /// the most recent window, so `max_seq + 1 - recorded` events are
    /// gone.
    pub dropped: u64,
}

/// What a decision trace decided, reproducible from the recording
/// alone — `cslack trace-summary` prints this, and the engine's own
/// counters must match it exactly when the trace captured every event.
/// How long the decisions took is `cslack latency`'s question.
#[derive(Clone, Debug, Default, Serialize)]
pub struct TraceSummary {
    /// Total decisions in the trace.
    pub decisions: u64,
    /// Accepted jobs.
    pub accepted: u64,
    /// Rejected jobs, split by reason.
    pub rejected: RejectCounts,
    /// Events dropped by the bounded rings before the trace was
    /// written (sum of the per-shard inferred counts). Nonzero means
    /// the trace is a most-recent window, not the full run.
    pub dropped: u64,
    /// Per-shard breakdown in shard order, one entry per shard that
    /// recorded a decision.
    pub per_shard: Vec<ShardTraceSummary>,
}

/// Aggregates a trace into counters.
pub fn summarize(events: &[DecisionEvent]) -> TraceSummary {
    let mut out = TraceSummary::default();
    // Keyed by the recorded shard id, so each id costs one entry however
    // large it is; the second field is the shard's push count.
    let mut shards: BTreeMap<usize, (ShardTraceSummary, u64)> = BTreeMap::new();
    for e in events {
        out.decisions += 1;
        let (slot, pushed) = shards.entry(e.shard).or_insert_with(|| {
            let slot = ShardTraceSummary {
                shard: e.shard,
                ..ShardTraceSummary::default()
            };
            (slot, 0)
        });
        slot.decisions += 1;
        // Seq numbers are dense per shard, so a trace recording the
        // most recent window reveals its losses: everything up to the
        // highest seq was once pushed.
        *pushed = (*pushed).max(e.seq.saturating_add(1));
        if e.accepted {
            out.accepted += 1;
            slot.accepted += 1;
        } else {
            // A rejection recorded without a reason still counts.
            let reason = e.reject_reason.unwrap_or(RejectReason::Unattributed);
            out.rejected.bump(reason);
            slot.rejected.bump(reason);
        }
    }
    for (mut slot, pushed) in shards.into_values() {
        slot.dropped = pushed.saturating_sub(slot.decisions);
        out.dropped = out.dropped.saturating_add(slot.dropped);
        out.per_shard.push(slot);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(
        seq: u64,
        shard: usize,
        accepted: bool,
        reason: Option<RejectReason>,
    ) -> DecisionEvent {
        DecisionEvent {
            seq,
            job: seq as u32,
            shard,
            release: 0.5 * seq as f64,
            proc_time: 1.0,
            deadline: 10.0,
            candidates: 2,
            threshold: Some(3.0),
            min_load: Some(1.0),
            accepted,
            machine: accepted.then_some(0),
            start: accepted.then_some(0.0),
            reject_reason: reason,
            latency_ns: 100 + seq,
            queue_wait_ns: 10,
        }
    }

    #[test]
    fn summary_counts_by_reason_and_shard() {
        let events = vec![
            event(0, 0, true, None),
            event(1, 0, false, Some(RejectReason::ThresholdExceeded)),
            event(2, 1, false, Some(RejectReason::ThresholdExceeded)),
            event(3, 1, false, Some(RejectReason::NoFeasibleMachine)),
            event(4, 2, false, None), // unattributed fallback
        ];
        let s = summarize(&events);
        assert_eq!(s.decisions, 5);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.rejected.threshold_exceeded, 2);
        assert_eq!(s.rejected.no_feasible_machine, 1);
        assert_eq!(s.rejected.unattributed, 1);
        assert_eq!(s.rejected.total(), 4);
        assert_eq!(s.per_shard.len(), 3);
        assert_eq!(s.per_shard[0].accepted, 1);
        assert_eq!(s.per_shard[1].rejected.total(), 2);
    }

    #[test]
    fn most_recent_window_reports_its_losses() {
        // What a lapped flight ring records: only the last 4 of 11
        // decisions.
        let events: Vec<DecisionEvent> = (7..11)
            .map(|seq| event(seq, 0, seq % 2 == 0, None))
            .collect();
        // The summary recovers the loss from the seq gap alone.
        let s = summarize(&events);
        assert_eq!(s.dropped, 7);
        assert_eq!(s.per_shard[0].dropped, 7);
    }

    #[test]
    fn every_reject_reason_is_counted() {
        let events: Vec<DecisionEvent> = RejectReason::ALL
            .iter()
            .enumerate()
            .map(|(i, &reason)| event(i as u64, 0, false, Some(reason)))
            .collect();
        let s = summarize(&events);
        for reason in RejectReason::ALL {
            assert_eq!(s.rejected.get(reason), 1, "{}", reason.as_str());
        }
    }

    #[test]
    fn sparse_shard_ids_cost_one_entry_each() {
        // A record's shard id comes from the file: a huge one must not
        // size anything.
        let far = 1usize << 40;
        let s = summarize(&[event(0, 0, true, None), event(0, far, false, None)]);
        let shards: Vec<usize> = s.per_shard.iter().map(|p| p.shard).collect();
        assert_eq!(shards, vec![0, far]);
        assert_eq!(s.per_shard[1].rejected.unattributed, 1);
    }

    #[test]
    fn complete_trace_reports_zero_dropped() {
        let events = vec![event(0, 0, true, None), event(1, 0, false, None)];
        let s = summarize(&events);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.per_shard[0].dropped, 0);
    }

    #[test]
    fn reject_counts_merge_is_exact() {
        let mut a = RejectCounts::default();
        a.bump(RejectReason::ThresholdExceeded);
        let mut b = RejectCounts::default();
        b.bump(RejectReason::PolicyFiltered);
        b.bump(RejectReason::ThresholdExceeded);
        a.merge(&b);
        assert_eq!(a.threshold_exceeded, 2);
        assert_eq!(a.policy_filtered, 1);
        assert_eq!(a.total(), 3);
    }
}
