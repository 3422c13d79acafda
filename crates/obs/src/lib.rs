//! # cslack-obs
//!
//! The observability layer of the cslack stack — std-only (like the
//! dependency shims, it pulls in nothing external) and cheap enough to
//! stay wired into the hot path permanently:
//!
//! * **Decision traces** ([`trace`]): every decision becomes a
//!   [`DecisionEvent`] carrying the job, the shard, the threshold it
//!   was tested against, and — for rejections — a typed
//!   [`RejectReason`]. Events are recorded in the flight rings below,
//!   and [`summarize`] counts a recording back into counters.
//! * **Histogram metrics** ([`hist`], [`metrics`]): log-bucketed
//!   [`Histogram`]s with p50/p90/p99/p999 summaries replace min/max
//!   aggregates; the [`MetricsRegistry`] holds atomic counters
//!   (submitted / accepted / rejected-by-reason / backpressure stalls)
//!   and renders a Prometheus-style text exposition.
//! * **Flight recordings** ([`flight`]): bounded per-shard binary rings
//!   holding one fixed-size record per decision (job, verdict and, for
//!   an accept, its commitment), snapshottable to a checksummed `.cfr`
//!   file for deterministic replay and invariant auditing. The
//!   record is the one byte encoding of a decision: the server's wire
//!   `Decision` frame carries it too. Each [`SharedFlightRing`] is
//!   lock-free: a single writer records while any thread reads the
//!   records pushed since its [`FlightCursor`].
//! * **Rolling windows** ([`window`]): fixed-width bucket rings
//!   (`WindowedCounter`, `WindowedHistogram`) with lazy rotation and
//!   exact cross-shard merge, mirroring every registry metric at
//!   1s/10s/60s resolutions as `cslack_window_*` gauges.
//! * **Quality gauges** ([`quality`]): windowed admitted load vs the
//!   max-flow OPT bound — `cslack_empirical_ratio` — published by the
//!   engine's observatory thread, with a ratio-floor alert counter.
//! * **Latency timelines** ([`timeline`]): stage-resolved stamps —
//!   client send, frame decode, dispatch, enqueue, dequeue, decide,
//!   delivery — on one shared monotonic [`ClockBase`], riding in the
//!   flight record, aggregated into per-stage waterfalls.
//!
//! The crate sits at the bottom of the workspace graph (no cslack
//! dependencies), so algorithms, the engine, the CLI, and benches can
//! all speak the same observability vocabulary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flight;
pub mod hist;
pub mod metrics;
pub mod quality;
pub mod timeline;
pub mod trace;
pub mod window;

pub use flight::{
    decode_event, encode_decision, encode_event, DecidedJob, FlightCursor, FlightEvent,
    FlightHeader, FlightSnapshot, ShardFlight, SharedFlightRing, StampedDecision, MAX_MACHINES,
    RECORD_SIZE,
};
pub use hist::{AtomicHistogram, Histogram, HistogramSummary};
pub use metrics::{Counter, MetricsRegistry, MetricsSnapshot};
pub use quality::QualityPanel;
pub use timeline::{ClockBase, Stage, StageBreakdown, TimelineStamps, STAGES, STAGE_SPANS};
pub use trace::{
    summarize, DecisionEvent, RejectCounts, RejectReason, ShardTraceSummary, TraceSummary,
};
pub use window::{
    WindowPanel, WindowSlot, WindowSnapshot, WindowedCounter, WindowedHistogram, BUCKET_WIDTH_NS,
    RESOLUTIONS, WINDOW_SLOTS,
};
