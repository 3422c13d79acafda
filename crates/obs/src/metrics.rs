//! A cheap process-wide metrics registry: atomic counters, lock-free
//! histograms, and a Prometheus-style text exposition.
//!
//! The registry is always safe to share (`&MetricsRegistry` from any
//! thread); recording is a relaxed atomic add. When disabled (the
//! default), instrumented call sites skip recording after a single
//! atomic flag load, so carrying a registry through the hot path costs
//! close to nothing.

use crate::hist::{bucket_upper_bound, AtomicHistogram, Histogram, BUCKETS};
use crate::quality::QualityPanel;
use crate::timeline::STAGE_SPANS;
use crate::trace::{RejectCounts, RejectReason};
use crate::window::WindowPanel;
use serde::Serialize;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A monotonically increasing counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-shard queue-depth gauge: how many jobs sit in each shard's
/// ingestion queue right now.
///
/// The slot array is sized lazily by [`QueueDepthGauge::register`]
/// (the engine calls it at startup with its shard count) so the
/// registry itself keeps a `const` constructor. Writes are relaxed
/// stores from both ends of the queue — producers after an enqueue,
/// the worker after each drained batch — so a scrape sees a depth at
/// most one publish stale from either direction. Until `register`
/// runs, nothing is rendered.
#[derive(Debug, Default)]
pub struct QueueDepthGauge {
    shards: OnceLock<Box<[AtomicU64]>>,
}

impl QueueDepthGauge {
    /// An unregistered gauge (renders nothing).
    pub const fn new() -> QueueDepthGauge {
        QueueDepthGauge {
            shards: OnceLock::new(),
        }
    }

    /// Sizes the gauge to `shards` slots, all zero. First registration
    /// wins; later calls (a second engine sharing the registry) are
    /// ignored.
    pub fn register(&self, shards: usize) {
        let _ = self
            .shards
            .set((0..shards).map(|_| AtomicU64::new(0)).collect());
    }

    /// Sets shard `shard`'s depth. A no-op before [`register`] or for
    /// an out-of-range shard — recording must never panic.
    ///
    /// [`register`]: QueueDepthGauge::register
    #[inline]
    pub fn set(&self, shard: usize, depth: u64) {
        if let Some(slots) = self.shards.get() {
            if let Some(slot) = slots.get(shard) {
                slot.store(depth, Ordering::Relaxed);
            }
        }
    }

    /// Current depth of shard `shard`; `None` before registration or
    /// out of range.
    pub fn get(&self, shard: usize) -> Option<u64> {
        self.shards
            .get()
            .and_then(|slots| slots.get(shard))
            .map(|slot| slot.load(Ordering::Relaxed))
    }

    /// Registered shard count (0 before registration).
    pub fn shard_count(&self) -> usize {
        self.shards.get().map(|slots| slots.len()).unwrap_or(0)
    }
}

/// The engine-facing metric family: submission counters, rejection
/// counters by [`RejectReason`], backpressure stalls, and per-stage
/// latency histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    /// Jobs offered to the service.
    pub submitted: Counter,
    /// Jobs admitted.
    pub accepted: Counter,
    /// Jobs rejected because the deadline fell below the threshold.
    pub rejected_threshold_exceeded: Counter,
    /// Jobs rejected because no machine could finish them in time.
    pub rejected_no_feasible_machine: Counter,
    /// Jobs rejected by a load-independent policy.
    pub rejected_policy_filtered: Counter,
    /// Jobs rejected without a structured cause.
    pub rejected_unattributed: Counter,
    /// Submissions that found their shard queue full.
    pub backpressure_stalls: Counter,
    /// Real (non-`WouldBlock`) accept failures in the telemetry
    /// endpoint's serve loop.
    pub telemetry_errors: Counter,
    /// Flight records dropped (overwritten by a full ring or discarded
    /// by a disabled one).
    pub flight_dropped: Counter,
    /// Shard workers restarted after a failure (replay-driven
    /// recovery).
    pub shard_restarts: Counter,
    /// Jobs carried across a shard restart: committed jobs whose
    /// schedule was rebuilt by replay plus bounced jobs re-admitted by
    /// the replacement worker.
    pub recovered_jobs: Counter,
    /// Per-stage pipeline span durations, one histogram per
    /// [`STAGE_SPANS`] entry (dispatch, enqueue, queue, decide,
    /// delivery), nanoseconds.
    pub stage_durations: [AtomicHistogram; STAGE_SPANS.len()],
    /// Jobs currently queued per shard ingestion ring (gauge; sized by
    /// the engine at startup via [`QueueDepthGauge::register`]).
    pub queue_depth: QueueDepthGauge,
    /// Rolling 1s/10s/60s windowed mirrors of the families above
    /// (armed by the engine via [`WindowPanel::register`]).
    pub windows: WindowPanel,
    /// Windowed admitted-load vs OPT-bound quality gauges (armed when
    /// an observatory is configured).
    pub quality: QualityPanel,
}

impl MetricsRegistry {
    /// A disabled registry (recording gated off).
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: AtomicBool::new(false),
            submitted: Counter::new(),
            accepted: Counter::new(),
            rejected_threshold_exceeded: Counter::new(),
            rejected_no_feasible_machine: Counter::new(),
            rejected_policy_filtered: Counter::new(),
            rejected_unattributed: Counter::new(),
            backpressure_stalls: Counter::new(),
            telemetry_errors: Counter::new(),
            flight_dropped: Counter::new(),
            shard_restarts: Counter::new(),
            recovered_jobs: Counter::new(),
            stage_durations: [
                AtomicHistogram::new(),
                AtomicHistogram::new(),
                AtomicHistogram::new(),
                AtomicHistogram::new(),
                AtomicHistogram::new(),
            ],
            queue_depth: QueueDepthGauge::new(),
            windows: WindowPanel::new(),
            quality: QualityPanel::new(),
        }
    }

    /// An enabled registry.
    pub fn enabled() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether instrumented call sites should record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The rejection counter for `reason`.
    pub fn rejected(&self, reason: RejectReason) -> &Counter {
        match reason {
            RejectReason::ThresholdExceeded => &self.rejected_threshold_exceeded,
            RejectReason::NoFeasibleMachine => &self.rejected_no_feasible_machine,
            RejectReason::PolicyFiltered => &self.rejected_policy_filtered,
            RejectReason::Unattributed => &self.rejected_unattributed,
        }
    }

    /// Rejection counters folded into a [`RejectCounts`] snapshot.
    pub fn reject_counts(&self) -> RejectCounts {
        RejectCounts {
            threshold_exceeded: self.rejected_threshold_exceeded.get(),
            no_feasible_machine: self.rejected_no_feasible_machine.get(),
            policy_filtered: self.rejected_policy_filtered.get(),
            unattributed: self.rejected_unattributed.get(),
        }
    }

    /// Serializable snapshot of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.get(),
            accepted: self.accepted.get(),
            rejected: self.reject_counts(),
            backpressure_stalls: self.backpressure_stalls.get(),
            telemetry_errors: self.telemetry_errors.get(),
            // `STAGE_SPANS[3]` is the decide span, `[2]` the queue span.
            decision_latency: self.stage_durations[3].snapshot().summary(),
            queue_wait: self.stage_durations[2].snapshot().summary(),
        }
    }

    /// Prometheus text exposition (v0.0.4) of the registry followed by
    /// the process-wide lines: the page an unlabelled telemetry
    /// listener serves for a single engine.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.render_prometheus_into(&mut out, &[]);
        render_process_lines(&mut out);
        out
    }

    /// Appends this registry's metric families to `out` with `labels`
    /// on every series — the multi-registry exposition path: a process
    /// holding one registry per tenant renders them all into one page
    /// with `[("tenant", name)]` labels, and HELP/TYPE headers are
    /// emitted once per family across the whole page.
    pub fn render_prometheus_into(&self, out: &mut String, labels: &[(&str, &str)]) {
        let label_set = |extra: Option<(&str, &str)>| -> String {
            let mut parts: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            if !out.contains(&format!("# TYPE {name} ")) {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} counter");
            }
            let _ = writeln!(out, "{name}{} {v}", label_set(None));
        };
        counter(
            out,
            "cslack_submitted_total",
            "Jobs offered to the admission service.",
            self.submitted.get(),
        );
        counter(
            out,
            "cslack_accepted_total",
            "Jobs admitted with a commitment.",
            self.accepted.get(),
        );
        if !out.contains("# TYPE cslack_rejected_total ") {
            let _ = writeln!(
                out,
                "# HELP cslack_rejected_total Jobs rejected, by typed reason."
            );
            let _ = writeln!(out, "# TYPE cslack_rejected_total counter");
        }
        for reason in RejectReason::ALL {
            let _ = writeln!(
                out,
                "cslack_rejected_total{} {}",
                label_set(Some(("reason", reason.as_str()))),
                self.rejected(reason).get()
            );
        }
        counter(
            out,
            "cslack_backpressure_stalls_total",
            "Submissions that found their shard queue full.",
            self.backpressure_stalls.get(),
        );
        counter(
            out,
            "cslack_telemetry_errors_total",
            "Real accept errors in the telemetry serve loop.",
            self.telemetry_errors.get(),
        );
        if self.queue_depth.shard_count() > 0 {
            if !out.contains("# TYPE cslack_queue_depth ") {
                let _ = writeln!(
                    out,
                    "# HELP cslack_queue_depth Jobs currently queued in each shard's ingestion ring."
                );
                let _ = writeln!(out, "# TYPE cslack_queue_depth gauge");
            }
            for shard in 0..self.queue_depth.shard_count() {
                let id = shard.to_string();
                let _ = writeln!(
                    out,
                    "cslack_queue_depth{} {}",
                    label_set(Some(("shard", &id))),
                    self.queue_depth.get(shard).unwrap_or(0)
                );
            }
        }
        counter(
            out,
            "cslack_flight_dropped_total",
            "Flight records overwritten by a full ring or discarded by a disabled one.",
            self.flight_dropped.get(),
        );
        counter(
            out,
            "cslack_shard_restarts_total",
            "Shard workers restarted after a failure.",
            self.shard_restarts.get(),
        );
        counter(
            out,
            "cslack_recovered_jobs_total",
            "Jobs carried across shard restarts (replayed commitments plus re-admissions).",
            self.recovered_jobs.get(),
        );
        for (i, (stage, _, _)) in STAGE_SPANS.iter().enumerate() {
            let mut stage_labels: Vec<(&str, &str)> = labels.to_vec();
            stage_labels.push(("stage", stage));
            render_histogram(
                out,
                "cslack_stage_duration_ns",
                "Pipeline stage span duration in nanoseconds, labeled by the later stage.",
                &stage_labels,
                &self.stage_durations[i].snapshot(),
            );
        }
        self.windows.render_into(out, labels);
        self.quality.render_into(out, labels);
    }
}

/// The instant uptime is measured from. Pinned by the first caller —
/// [`mark_process_start`] from a server/CLI entry point, or lazily by
/// the first exposition render.
fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Pins the process-start instant for `cslack_process_uptime_seconds`.
/// Idempotent; call early in `main` so uptime covers the whole run.
pub fn mark_process_start() {
    process_start();
}

/// Process-wide `/metrics` scrape counter. Process-wide (not
/// per-registry) because a multi-tenant page is one scrape however
/// many registries render into it.
static SCRAPES: Counter = Counter::new();

/// Counts one `/metrics` scrape. Telemetry listeners call this per
/// request — including requests answered from the rendered-page cache,
/// which is exactly the traffic the cache exists to absorb.
pub fn count_scrape() {
    SCRAPES.inc();
}

/// Scrapes counted so far.
pub fn scrapes_total() -> u64 {
    SCRAPES.get()
}

/// Appends the process-wide info lines — `cslack_build_info` (version,
/// git sha when baked in at compile time, build profile) and
/// `cslack_process_uptime_seconds` — to a Prometheus exposition page.
/// Process-wide state: render once per page, not once per tenant.
pub fn render_process_lines(out: &mut String) {
    let version = env!("CARGO_PKG_VERSION");
    let git_sha = option_env!("CSLACK_GIT_SHA").unwrap_or("unknown");
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let _ = writeln!(
        out,
        "# HELP cslack_build_info Build metadata; the value is always 1."
    );
    let _ = writeln!(out, "# TYPE cslack_build_info gauge");
    let _ = writeln!(
        out,
        "cslack_build_info{{version=\"{version}\",git_sha=\"{git_sha}\",profile=\"{profile}\"}} 1"
    );
    let uptime = process_start().elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "# HELP cslack_process_uptime_seconds Seconds since process start."
    );
    let _ = writeln!(out, "# TYPE cslack_process_uptime_seconds gauge");
    let _ = writeln!(out, "cslack_process_uptime_seconds {uptime:.3}");
    let _ = writeln!(
        out,
        "# HELP cslack_scrapes_total Metrics scrapes served by this process."
    );
    let _ = writeln!(out, "# TYPE cslack_scrapes_total counter");
    let _ = writeln!(out, "cslack_scrapes_total {}", scrapes_total());
}

/// Serializable snapshot of a [`MetricsRegistry`].
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MetricsSnapshot {
    /// Jobs offered.
    pub submitted: u64,
    /// Jobs admitted.
    pub accepted: u64,
    /// Rejections by reason.
    pub rejected: RejectCounts,
    /// Full-queue submission stalls.
    pub backpressure_stalls: u64,
    /// Real accept errors in the telemetry serve loop.
    pub telemetry_errors: u64,
    /// Decision latency summary: the `decide` stage span.
    pub decision_latency: crate::hist::HistogramSummary,
    /// Queue-wait summary: the `queue` stage span.
    pub queue_wait: crate::hist::HistogramSummary,
}

/// Renders one histogram in Prometheus exposition format: cumulative
/// `_bucket{le="..."}` series over the non-empty prefix of the log
/// buckets, then `_sum` and `_count`.
fn render_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    h: &Histogram,
) {
    // Only the first time for a metric family would normally emit HELP /
    // TYPE; emitting per series with identical text is also accepted by
    // the format, so keep it simple and always emit for the first label
    // set only when the output does not already name the family.
    if !out.contains(&format!("# TYPE {name} ")) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
    }
    let label = |extra: &str| -> String {
        let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        if !extra.is_empty() {
            parts.push(extra.to_string());
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    };
    // Highest non-empty bucket bounds the useful `le` range.
    let top = h
        .buckets()
        .iter()
        .rposition(|&n| n > 0)
        .map(|i| i + 1)
        .unwrap_or(1)
        .min(BUCKETS - 1);
    let mut cumulative = 0u64;
    for i in 0..top {
        cumulative += h.buckets()[i];
        let le = bucket_upper_bound(i);
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            label(&format!("le=\"{le}\""))
        );
    }
    let _ = writeln!(out, "{name}_bucket{} {}", label("le=\"+Inf\""), h.count());
    let _ = writeln!(out, "{name}_sum{} {}", label(""), h.sum());
    let _ = writeln!(out, "{name}_count{} {}", label(""), h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_enabled_on_demand() {
        let r = MetricsRegistry::new();
        assert!(!r.is_enabled());
        r.set_enabled(true);
        assert!(r.is_enabled());
        assert!(MetricsRegistry::enabled().is_enabled());
    }

    #[test]
    fn counters_and_snapshot_line_up() {
        let r = MetricsRegistry::enabled();
        r.submitted.add(5);
        r.accepted.add(3);
        r.rejected(RejectReason::ThresholdExceeded).inc();
        r.rejected(RejectReason::NoFeasibleMachine).inc();
        r.backpressure_stalls.inc();
        r.stage_durations[3].record(1000); // decide span
        r.stage_durations[2].record(50); // queue span
        r.stage_durations[2].record(70);
        let s = r.snapshot();
        assert_eq!(s.submitted, 5);
        assert_eq!(s.accepted, 3);
        assert_eq!(s.rejected.total(), 2);
        assert_eq!(s.backpressure_stalls, 1);
        assert_eq!(s.decision_latency.count, 1);
        assert_eq!(s.decision_latency.max_ns, 1000);
        assert_eq!(s.queue_wait.count, 2);
    }

    #[test]
    fn prometheus_exposition_has_all_families() {
        let r = MetricsRegistry::enabled();
        r.submitted.add(2);
        r.accepted.inc();
        r.rejected(RejectReason::ThresholdExceeded).inc();
        r.stage_durations[3].record(999); // decide span
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE cslack_submitted_total counter"));
        assert!(text.contains("cslack_submitted_total 2"));
        assert!(text.contains("cslack_rejected_total{reason=\"threshold_exceeded\"} 1"));
        assert!(text.contains("cslack_rejected_total{reason=\"no_feasible_machine\"} 0"));
        assert!(text.contains("# TYPE cslack_stage_duration_ns histogram"));
        assert!(text.contains("cslack_stage_duration_ns_bucket{stage=\"decide\",le=\"+Inf\"} 1"));
        assert!(text.contains("cslack_stage_duration_ns_sum{stage=\"decide\"} 999"));
        assert!(text.contains("cslack_stage_duration_ns_count{stage=\"decide\"} 1"));
        // One histogram per span: no second family for the same samples.
        assert!(!text.contains("cslack_decision_latency_ns"));
        assert!(!text.contains("cslack_queue_wait_ns"));
        assert!(text.contains("cslack_backpressure_stalls_total 0"));
        assert!(text.contains("cslack_flight_dropped_total 0"));
        assert!(text.contains("cslack_shard_restarts_total 0"));
        assert!(text.contains("cslack_recovered_jobs_total 0"));
        assert!(text.contains("cslack_build_info{version=\""));
        assert!(text.contains("# TYPE cslack_process_uptime_seconds gauge"));
        assert!(text.contains("cslack_process_uptime_seconds "));
    }

    #[test]
    fn stage_histograms_render_with_stage_labels() {
        let r = MetricsRegistry::enabled();
        r.stage_durations[2].record(1500); // queue span
        r.stage_durations[3].record(200); // decide span
        let mut out = String::new();
        r.render_prometheus_into(&mut out, &[("tenant", "alpha")]);
        assert!(out.contains("# TYPE cslack_stage_duration_ns histogram"));
        assert!(out.contains("cslack_stage_duration_ns_count{tenant=\"alpha\",stage=\"queue\"} 1"));
        assert!(out.contains("cslack_stage_duration_ns_sum{tenant=\"alpha\",stage=\"decide\"} 200"));
        assert!(
            out.contains("cslack_stage_duration_ns_count{tenant=\"alpha\",stage=\"dispatch\"} 0")
        );
        // Process-wide lines are not part of the per-tenant render.
        assert!(!out.contains("cslack_build_info"));
    }

    #[test]
    fn labeled_exposition_dedups_headers_across_registries() {
        let (a, b) = (MetricsRegistry::enabled(), MetricsRegistry::enabled());
        a.submitted.add(3);
        b.submitted.add(7);
        b.rejected(RejectReason::PolicyFiltered).inc();
        let mut out = String::new();
        a.render_prometheus_into(&mut out, &[("tenant", "alpha")]);
        b.render_prometheus_into(&mut out, &[("tenant", "beta")]);
        assert!(out.contains("cslack_submitted_total{tenant=\"alpha\"} 3"));
        assert!(out.contains("cslack_submitted_total{tenant=\"beta\"} 7"));
        assert!(out.contains("cslack_rejected_total{tenant=\"beta\",reason=\"policy_filtered\"} 1"));
        // One HELP/TYPE header per family for the whole page, however
        // many registries rendered into it.
        assert_eq!(out.matches("# TYPE cslack_submitted_total ").count(), 1);
        assert_eq!(out.matches("# TYPE cslack_stage_duration_ns ").count(), 1);
    }

    #[test]
    fn queue_depth_gauge_registers_once_and_renders_per_shard() {
        let r = MetricsRegistry::enabled();
        // Unregistered: silent no-op sets, no family in the exposition.
        r.queue_depth.set(0, 99);
        assert_eq!(r.queue_depth.get(0), None);
        assert!(!r.render_prometheus().contains("cslack_queue_depth"));

        r.queue_depth.register(3);
        r.queue_depth.set(0, 5);
        r.queue_depth.set(2, 11);
        r.queue_depth.set(7, 1); // out of range: ignored
        assert_eq!(r.queue_depth.get(0), Some(5));
        assert_eq!(r.queue_depth.get(1), Some(0));
        assert_eq!(r.queue_depth.get(7), None);

        // First registration wins; a second engine cannot shrink it.
        r.queue_depth.register(1);
        assert_eq!(r.queue_depth.shard_count(), 3);

        let text = r.render_prometheus();
        assert!(text.contains("# TYPE cslack_queue_depth gauge"));
        assert!(text.contains("cslack_queue_depth{shard=\"0\"} 5"));
        assert!(text.contains("cslack_queue_depth{shard=\"1\"} 0"));
        assert!(text.contains("cslack_queue_depth{shard=\"2\"} 11"));

        let mut out = String::new();
        r.render_prometheus_into(&mut out, &[("tenant", "alpha")]);
        assert!(out.contains("cslack_queue_depth{tenant=\"alpha\",shard=\"2\"} 11"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::new();
        h.record(1); // bucket 1 (le 1)
        h.record(3); // bucket 2 (le 3)
        h.record(3);
        let mut out = String::new();
        render_histogram(&mut out, "x_ns", "help", &[], &h);
        assert!(out.contains("x_ns_bucket{le=\"1\"} 1"));
        assert!(out.contains("x_ns_bucket{le=\"3\"} 3"));
        assert!(out.contains("x_ns_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("x_ns_count 3"));
    }
}
