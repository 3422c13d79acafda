//! Stage-resolved latency timelines: one monotonic clock, one stamp per
//! pipeline hop.
//!
//! A job travels client → frame decode → dispatch → shard queue →
//! worker → decision → delivery. Each hop stamps the job once —
//! [`ClockBase::now_ns`] is a single `Instant` read against a shared
//! base, so stamps taken on *different threads* of the same process are
//! directly comparable and per-stage deltas are meaningful. The stamps
//! ride in a fixed-width [`TimelineStamps`] array at the end of the
//! flight record, so a `.cfr` recording — and every wire `Decision`
//! frame — carries the full per-job waterfall alongside the decision.
//!
//! The one exception to the shared clock is [`Stage::ClientSend`]: it is
//! stamped by the *client* (loadgen) against the client's own clock base
//! and echoed through the wire protocol verbatim. It lets the client
//! subtract server time from its end-to-end measurement, but it must
//! never be compared against server-side stamps — monotonicity checks
//! ([`TimelineStamps::server_monotone`]) therefore start at
//! [`Stage::FrameDecode`].

use crate::hist::Histogram;
use std::time::Instant;

/// The pipeline hops a job is stamped at, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The client serialized the `SubmitBatch` frame (client clock
    /// domain — echoed, never compared with server stamps).
    ClientSend = 0,
    /// The server finished decoding the frame carrying the job.
    FrameDecode = 1,
    /// The server handed the job to its tenant's engine.
    Dispatch = 2,
    /// The job was enqueued on its shard's queue.
    Enqueue = 3,
    /// The shard worker picked the job up for its decision.
    Dequeue = 4,
    /// The scheduler produced the admission decision.
    Decide = 5,
    /// The decision was handed to its subscriber. The shard worker
    /// stamps it at decide time, which is what the flight record keeps;
    /// behind the server, the tenant's decision sink restamps the wire
    /// echo once per delivered chunk, as it encodes the chunk for the
    /// submitting connections, still on the worker.
    Delivery = 6,
}

/// Number of stages (length of a [`TimelineStamps`] array).
pub const STAGES: usize = 7;

impl Stage {
    /// All stages in causal order.
    pub const ALL: [Stage; STAGES] = [
        Stage::ClientSend,
        Stage::FrameDecode,
        Stage::Dispatch,
        Stage::Enqueue,
        Stage::Dequeue,
        Stage::Decide,
        Stage::Delivery,
    ];

    /// Stable snake_case label (JSON / exposition name).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::ClientSend => "client_send",
            Stage::FrameDecode => "frame_decode",
            Stage::Dispatch => "dispatch",
            Stage::Enqueue => "enqueue",
            Stage::Dequeue => "dequeue",
            Stage::Decide => "decide",
            Stage::Delivery => "delivery",
        }
    }
}

/// The shared monotonic clock base every stage stamps against.
///
/// One `ClockBase` per process (the engine creates one; a server shares
/// its own across every tenant engine and its connection threads):
/// `now_ns` is nanoseconds since the base instant, so stamps from any
/// thread live on one axis and subtract meaningfully. A stamp of `0`
/// always means "not stamped" — `now_ns` never returns 0.
#[derive(Debug)]
pub struct ClockBase {
    base: Instant,
}

impl Default for ClockBase {
    fn default() -> ClockBase {
        ClockBase::new()
    }
}

impl ClockBase {
    /// A clock based at the moment of creation.
    pub fn new() -> ClockBase {
        ClockBase {
            base: Instant::now(),
        }
    }

    /// Nanoseconds since the base instant — one monotonic clock read.
    /// Never 0 (0 is the "absent stamp" sentinel), saturating at
    /// `u64::MAX` (585 years of uptime).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1)
    }
}

/// One nanosecond stamp per [`Stage`]; `0` means the hop never stamped
/// (a path that skips the hop, such as an in-process submission's
/// client send).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineStamps(pub [u64; STAGES]);

impl TimelineStamps {
    /// All-absent stamps.
    pub const fn empty() -> TimelineStamps {
        TimelineStamps([0; STAGES])
    }

    /// The stamp for `stage` (0 = absent).
    #[inline]
    pub fn get(&self, stage: Stage) -> u64 {
        self.0[stage as usize]
    }

    /// Sets the stamp for `stage` — one relaxed store's worth of work.
    #[inline]
    pub fn set(&mut self, stage: Stage, ns: u64) {
        self.0[stage as usize] = ns;
    }

    /// Whether any stage carries a stamp.
    pub fn any(&self) -> bool {
        self.0.iter().any(|&s| s != 0)
    }

    /// The span `to - from` in nanoseconds, when both hops stamped and
    /// the order holds. Refuses [`Stage::ClientSend`] as an endpoint —
    /// it lives in the client's clock domain.
    pub fn span(&self, from: Stage, to: Stage) -> Option<u64> {
        if from == Stage::ClientSend || to == Stage::ClientSend {
            return None;
        }
        let (a, b) = (self.get(from), self.get(to));
        (a != 0 && b != 0 && b >= a).then(|| b - a)
    }

    /// Server-side end-to-end span: first server stamp (frame decode,
    /// falling back to dispatch, then enqueue) to the last (delivery,
    /// falling back to decide).
    pub fn server_end_to_end(&self) -> Option<u64> {
        let first = [Stage::FrameDecode, Stage::Dispatch, Stage::Enqueue]
            .into_iter()
            .map(|s| self.get(s))
            .find(|&v| v != 0)?;
        let last = [Stage::Delivery, Stage::Decide]
            .into_iter()
            .map(|s| self.get(s))
            .find(|&v| v != 0)?;
        (last >= first).then(|| last - first)
    }

    /// Whether the server-side stamps are non-decreasing in stage order.
    /// Absent (zero) stamps are skipped; [`Stage::ClientSend`] is
    /// excluded (client clock domain). This is the audit invariant the
    /// flight auditor checks on every decision record.
    pub fn server_monotone(&self) -> bool {
        let mut last = 0u64;
        for &stamp in &self.0[Stage::FrameDecode as usize..] {
            if stamp == 0 {
                continue;
            }
            if stamp < last {
                return false;
            }
            last = stamp;
        }
        true
    }
}

/// The adjacent-stage spans a waterfall reports, each labeled by the
/// *later* stamp: `dispatch` is frame-decode → dispatch, `queue` is
/// enqueue → dequeue, and so on. `client_send` has no server-side span
/// (its stamp lives in the client's clock domain).
pub const STAGE_SPANS: [(&str, Stage, Stage); 5] = [
    ("dispatch", Stage::FrameDecode, Stage::Dispatch),
    ("enqueue", Stage::Dispatch, Stage::Enqueue),
    ("queue", Stage::Enqueue, Stage::Dequeue),
    ("decide", Stage::Dequeue, Stage::Decide),
    ("delivery", Stage::Decide, Stage::Delivery),
];

/// Per-stage span histograms plus the server-side end-to-end
/// distribution, aggregated from a stream of [`TimelineStamps`] — the
/// waterfall builder behind `cslack latency`.
#[derive(Clone, Debug, Default)]
pub struct StageBreakdown {
    /// One histogram per [`STAGE_SPANS`] entry, same order.
    pub spans: [Histogram; STAGE_SPANS.len()],
    /// Server-side end-to-end (first server stamp to last).
    pub end_to_end: Histogram,
    /// Records whose stamps were all zero.
    pub unstamped: u64,
    /// Records with at least one stamp.
    pub stamped: u64,
}

impl StageBreakdown {
    /// An empty breakdown.
    pub fn new() -> StageBreakdown {
        StageBreakdown::default()
    }

    /// Folds one record's stamps in.
    pub fn record(&mut self, stamps: &TimelineStamps) {
        if !stamps.any() {
            self.unstamped += 1;
            return;
        }
        self.stamped += 1;
        for (slot, &(_, from, to)) in self.spans.iter_mut().zip(STAGE_SPANS.iter()) {
            if let Some(ns) = stamps.span(from, to) {
                slot.record(ns);
            }
        }
        if let Some(ns) = stamps.server_end_to_end() {
            self.end_to_end.record(ns);
        }
    }

    /// Merges another breakdown in (exact, commutative).
    pub fn merge(&mut self, other: &StageBreakdown) {
        for (a, b) in self.spans.iter_mut().zip(other.spans.iter()) {
            a.merge(b);
        }
        self.end_to_end.merge(&other.end_to_end);
        self.unstamped += other.unstamped;
        self.stamped += other.stamped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamped(values: [u64; STAGES]) -> TimelineStamps {
        TimelineStamps(values)
    }

    #[test]
    fn clock_is_monotone_and_never_zero() {
        let clock = ClockBase::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(a >= 1);
        assert!(b >= a);
    }

    #[test]
    fn spans_require_both_stamps_and_order() {
        let s = stamped([5, 10, 20, 30, 45, 50, 60]);
        assert_eq!(s.span(Stage::Enqueue, Stage::Dequeue), Some(15));
        assert_eq!(s.span(Stage::Dequeue, Stage::Decide), Some(5));
        // Client stamps never participate in server spans.
        assert_eq!(s.span(Stage::ClientSend, Stage::FrameDecode), None);
        let partial = stamped([0, 0, 0, 30, 45, 50, 0]);
        assert_eq!(partial.span(Stage::FrameDecode, Stage::Dispatch), None);
        assert_eq!(partial.span(Stage::Enqueue, Stage::Dequeue), Some(15));
    }

    #[test]
    fn end_to_end_falls_back_over_absent_edges() {
        let wire = stamped([99, 10, 20, 30, 45, 50, 60]);
        assert_eq!(wire.server_end_to_end(), Some(50));
        let engine_only = stamped([0, 0, 0, 30, 45, 50, 50]);
        assert_eq!(engine_only.server_end_to_end(), Some(20));
        assert_eq!(TimelineStamps::empty().server_end_to_end(), None);
    }

    #[test]
    fn monotonicity_skips_zeros_and_client_domain() {
        assert!(stamped([0, 0, 0, 0, 0, 0, 0]).server_monotone());
        assert!(stamped([u64::MAX, 10, 20, 30, 45, 50, 60]).server_monotone());
        assert!(stamped([0, 10, 0, 30, 45, 50, 60]).server_monotone());
        assert!(!stamped([0, 10, 20, 15, 45, 50, 60]).server_monotone());
        assert!(!stamped([0, 10, 20, 30, 45, 50, 40]).server_monotone());
    }

    #[test]
    fn breakdown_aggregates_spans_and_counts_unstamped() {
        let mut b = StageBreakdown::new();
        b.record(&stamped([5, 10, 20, 30, 45, 50, 60]));
        b.record(&stamped([5, 10, 22, 30, 47, 50, 60]));
        b.record(&TimelineStamps::empty());
        assert_eq!(b.stamped, 2);
        assert_eq!(b.unstamped, 1);
        let queue = &b.spans[2];
        assert_eq!(queue.count(), 2);
        assert_eq!(queue.min(), 15);
        assert_eq!(queue.max(), 17);
        assert_eq!(b.end_to_end.count(), 2);
        assert_eq!(b.end_to_end.min(), 50);
        // Merge is exact.
        let mut other = StageBreakdown::new();
        other.record(&stamped([0, 10, 20, 30, 45, 50, 60]));
        let mut merged = b.clone();
        merged.merge(&other);
        assert_eq!(merged.stamped, 3);
        assert_eq!(merged.spans[2].count(), 3);
    }

    #[test]
    fn stage_labels_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "client_send",
                "frame_decode",
                "dispatch",
                "enqueue",
                "dequeue",
                "decide",
                "delivery"
            ]
        );
    }
}
