//! Live quality gauges: windowed admitted load vs the OPT upper bound.
//!
//! The observatory thread (in the engine crate — it needs the flow
//! solver) slices the flight-recorded decision stream into release-time
//! windows, scores the newest closed window of each poll against the
//! max-flow OPT relaxation, and publishes the results here. This module is only the *publication*
//! side: lock-free gauge storage (f64 bits in atomics), the ratio-floor
//! alert counter, and the Prometheus rendering — so the std-only obs
//! crate stays free of solver dependencies.
//!
//! Gauge families (`shard="all"` is the cross-shard aggregate):
//!
//! * `cslack_window_admitted_load{shard}` — load admitted in the most
//!   recently closed window;
//! * `cslack_window_opt_upper_bound{shard}` — the flow relaxation's
//!   bound on what *any* schedule could have admitted there;
//! * `cslack_empirical_ratio{shard,window}` — admitted / bound, the
//!   paper's competitive ratio measured empirically (1.0 = matched the
//!   relaxation, 1/c(eps, m) = the guarantee's floor);
//! * `cslack_ratio_alerts_total` — scored aggregate windows whose ratio
//!   fell below the configured floor;
//! * `cslack_quality_windows_total` — aggregate windows closed so far;
//! * `cslack_quality_windows_skipped_total` — closed aggregate windows
//!   left unscored: older than the newest one a poll closed, or not read
//!   in full because the flight ring overwrote some of their records.
//!   The alert count covers the other `windows_total -
//!   windows_skipped_total` windows.

use crate::metrics::Counter;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One shard's (or the aggregate's) latest closed-window quality
/// reading. All fields are f64 bit-patterns in relaxed atomics: a
/// scrape may see admitted/bound/ratio from adjacent publishes, which
/// is the usual contract for gauge metrics.
#[derive(Debug, Default)]
struct QualitySlot {
    window_index: AtomicU64,
    admitted_bits: AtomicU64,
    bound_bits: AtomicU64,
    ratio_bits: AtomicU64,
    published: AtomicU64,
}

impl QualitySlot {
    fn publish(&self, window_index: u64, admitted: f64, bound: f64, ratio: f64) {
        self.window_index.store(window_index, Ordering::Relaxed);
        self.admitted_bits
            .store(admitted.to_bits(), Ordering::Relaxed);
        self.bound_bits.store(bound.to_bits(), Ordering::Relaxed);
        self.ratio_bits.store(ratio.to_bits(), Ordering::Relaxed);
        self.published.store(1, Ordering::Release);
    }

    fn read(&self) -> Option<(u64, f64, f64, f64)> {
        if self.published.load(Ordering::Acquire) == 0 {
            return None;
        }
        Some((
            self.window_index.load(Ordering::Relaxed),
            f64::from_bits(self.admitted_bits.load(Ordering::Relaxed)),
            f64::from_bits(self.bound_bits.load(Ordering::Relaxed)),
            f64::from_bits(self.ratio_bits.load(Ordering::Relaxed)),
        ))
    }
}

#[derive(Debug)]
struct QualityState {
    /// Window width in job time, for the constant `window` label.
    window_label: String,
    /// Ratio floor below which an aggregate publish counts as an alert.
    floor_bits: AtomicU64,
    /// One slot per shard plus the aggregate in the last position.
    slots: Vec<QualitySlot>,
}

/// The quality gauge family, registered into a
/// [`crate::MetricsRegistry`] when an observatory is configured (the
/// [`OnceLock`] keeps the registry's `const` constructor). Until
/// [`QualityPanel::register`] runs, publishing is a no-op and nothing
/// renders.
#[derive(Debug, Default)]
pub struct QualityPanel {
    inner: OnceLock<QualityState>,
    /// Aggregate windows closed, scored or skipped.
    pub windows_closed: Counter,
    /// Aggregate windows closed without being scored.
    pub windows_skipped: Counter,
    /// Scored aggregate windows whose empirical ratio fell below the
    /// floor.
    pub alerts: Counter,
}

impl QualityPanel {
    /// An unregistered panel (publishes and renders nothing).
    pub const fn new() -> QualityPanel {
        QualityPanel {
            inner: OnceLock::new(),
            windows_closed: Counter::new(),
            windows_skipped: Counter::new(),
            alerts: Counter::new(),
        }
    }

    /// Arms the panel: `shards` per-shard slots plus an aggregate,
    /// windows `window_width` wide in job time, alerting below
    /// `ratio_floor`. First registration wins.
    pub fn register(&self, shards: usize, window_width: f64, ratio_floor: f64) {
        let _ = self.inner.set(QualityState {
            window_label: format!("{window_width}"),
            floor_bits: AtomicU64::new(ratio_floor.to_bits()),
            slots: (0..=shards).map(|_| QualitySlot::default()).collect(),
        });
    }

    /// Whether [`QualityPanel::register`] has run.
    pub fn is_registered(&self) -> bool {
        self.inner.get().is_some()
    }

    /// The configured alert floor (0.0 before registration).
    pub fn ratio_floor(&self) -> f64 {
        self.inner
            .get()
            .map(|s| f64::from_bits(s.floor_bits.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }

    /// The empirical ratio for a closed window: admitted load over the
    /// OPT bound, defined as 1.0 when the bound is (numerically) empty
    /// — an empty window is trivially matched.
    pub fn ratio_of(admitted: f64, bound: f64) -> f64 {
        if bound <= f64::EPSILON {
            1.0
        } else {
            admitted / bound
        }
    }

    /// Publishes one shard's latest closed window. No-op before
    /// registration or for an out-of-range shard.
    pub fn publish_shard(&self, shard: usize, window_index: u64, admitted: f64, bound: f64) {
        if let Some(state) = self.inner.get() {
            // The last slot is the aggregate — not addressable as a shard.
            if shard + 1 < state.slots.len() {
                state.slots[shard].publish(
                    window_index,
                    admitted,
                    bound,
                    QualityPanel::ratio_of(admitted, bound),
                );
            }
        }
    }

    /// Publishes a closed *aggregate* (all-shards) window, counting it
    /// in `windows_closed` and bumping `alerts` when the ratio sits
    /// below the floor. Returns the ratio, or `None` before
    /// registration.
    pub fn publish_aggregate(&self, window_index: u64, admitted: f64, bound: f64) -> Option<f64> {
        let state = self.inner.get()?;
        let ratio = QualityPanel::ratio_of(admitted, bound);
        state
            .slots
            .last()
            .expect("panel always holds an aggregate slot")
            .publish(window_index, admitted, bound, ratio);
        self.windows_closed.inc();
        if ratio < f64::from_bits(state.floor_bits.load(Ordering::Relaxed)) {
            self.alerts.inc();
        }
        Some(ratio)
    }

    /// Counts a closed aggregate window that is not scored: it updates
    /// no gauge and raises no alert. No-op before registration.
    pub fn skip_aggregate(&self) {
        if self.is_registered() {
            self.windows_closed.inc();
            self.windows_skipped.inc();
        }
    }

    /// The latest aggregate reading: `(window_index, admitted, bound,
    /// ratio)`, or `None` until the first aggregate window closes.
    pub fn aggregate(&self) -> Option<(u64, f64, f64, f64)> {
        self.inner.get().and_then(|s| {
            s.slots
                .last()
                .expect("panel always holds an aggregate slot")
                .read()
        })
    }

    /// Appends the quality gauge families to a Prometheus exposition
    /// page, every series carrying `labels` plus `shard` and the
    /// constant `window` (width) label. Renders nothing before
    /// registration.
    pub fn render_into(&self, out: &mut String, labels: &[(&str, &str)]) {
        let Some(state) = self.inner.get() else {
            return;
        };
        let header = |out: &mut String, name: &str, help: &str, kind: &str| {
            if !out.contains(&format!("# TYPE {name} ")) {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} {kind}");
            }
        };
        let label_set = |extra: &[(&str, &str)]| -> String {
            let parts: Vec<String> = labels
                .iter()
                .chain(extra.iter())
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        header(
            out,
            "cslack_window_admitted_load",
            "Load admitted in the most recently closed quality window.",
            "gauge",
        );
        header(
            out,
            "cslack_window_opt_upper_bound",
            "Max-flow OPT relaxation bound for the same window.",
            "gauge",
        );
        header(
            out,
            "cslack_empirical_ratio",
            "Admitted load over the OPT bound for the last closed window.",
            "gauge",
        );
        let shard_count = state.slots.len() - 1;
        for (i, slot) in state.slots.iter().enumerate() {
            let Some((_, admitted, bound, ratio)) = slot.read() else {
                continue;
            };
            let shard = if i == shard_count {
                "all".to_string()
            } else {
                i.to_string()
            };
            let lbl = label_set(&[("shard", &shard), ("window", &state.window_label)]);
            let _ = writeln!(out, "cslack_window_admitted_load{lbl} {admitted:.6}");
            let _ = writeln!(out, "cslack_window_opt_upper_bound{lbl} {bound:.6}");
            let _ = writeln!(out, "cslack_empirical_ratio{lbl} {ratio:.6}");
        }
        header(
            out,
            "cslack_ratio_floor",
            "Alerting floor for the empirical ratio, derived from c(eps, m).",
            "gauge",
        );
        let _ = writeln!(
            out,
            "cslack_ratio_floor{} {:.6}",
            label_set(&[]),
            f64::from_bits(state.floor_bits.load(Ordering::Relaxed))
        );
        header(
            out,
            "cslack_quality_windows_total",
            "Aggregate quality windows closed, scored or skipped.",
            "counter",
        );
        let _ = writeln!(
            out,
            "cslack_quality_windows_total{} {}",
            label_set(&[]),
            self.windows_closed.get()
        );
        header(
            out,
            "cslack_quality_windows_skipped_total",
            "Closed aggregate quality windows left unscored: older than a poll's newest, or partly overwritten.",
            "counter",
        );
        let _ = writeln!(
            out,
            "cslack_quality_windows_skipped_total{} {}",
            label_set(&[]),
            self.windows_skipped.get()
        );
        header(
            out,
            "cslack_ratio_alerts_total",
            "Scored windows whose empirical ratio fell below the floor.",
            "counter",
        );
        let _ = writeln!(
            out,
            "cslack_ratio_alerts_total{} {}",
            label_set(&[]),
            self.alerts.get()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_until_registered() {
        let p = QualityPanel::new();
        p.publish_shard(0, 1, 5.0, 10.0);
        assert_eq!(p.publish_aggregate(1, 5.0, 10.0), None);
        p.skip_aggregate();
        assert!(p.aggregate().is_none());
        let mut out = String::new();
        p.render_into(&mut out, &[]);
        assert!(out.is_empty());
        assert_eq!(p.windows_closed.get(), 0);
        assert_eq!(p.windows_skipped.get(), 0);
    }

    #[test]
    fn ratio_of_empty_window_is_one() {
        assert_eq!(QualityPanel::ratio_of(0.0, 0.0), 1.0);
        assert_eq!(QualityPanel::ratio_of(3.0, 6.0), 0.5);
    }

    #[test]
    fn alerts_fire_only_below_floor() {
        let p = QualityPanel::new();
        p.register(2, 16.0, 0.8);
        assert_eq!(p.publish_aggregate(0, 9.0, 10.0), Some(0.9));
        assert_eq!(p.alerts.get(), 0);
        assert_eq!(p.publish_aggregate(1, 7.0, 10.0), Some(0.7));
        assert_eq!(p.alerts.get(), 1);
        assert_eq!(p.windows_closed.get(), 2);
        assert_eq!(p.aggregate(), Some((1, 7.0, 10.0, 0.7)));
    }

    #[test]
    fn renders_shard_and_aggregate_series_with_labels() {
        let p = QualityPanel::new();
        p.register(2, 16.0, 0.5);
        p.publish_shard(0, 3, 4.0, 8.0);
        p.publish_shard(9, 3, 1.0, 1.0); // out of range: ignored
        p.publish_aggregate(3, 12.0, 16.0);
        let mut out = String::new();
        p.render_into(&mut out, &[("tenant", "alpha")]);
        assert!(out.contains("# TYPE cslack_empirical_ratio gauge"));
        assert!(out.contains(
            "cslack_empirical_ratio{tenant=\"alpha\",shard=\"0\",window=\"16\"} 0.500000"
        ));
        // Shard 1 never published: no series for it.
        assert!(!out.contains("shard=\"1\""));
        assert!(out.contains(
            "cslack_window_admitted_load{tenant=\"alpha\",shard=\"all\",window=\"16\"} 12.000000"
        ));
        assert!(out.contains(
            "cslack_window_opt_upper_bound{tenant=\"alpha\",shard=\"all\",window=\"16\"} 16.000000"
        ));
        assert!(out.contains("cslack_ratio_floor{tenant=\"alpha\"} 0.500000"));
        assert!(out.contains("cslack_quality_windows_total{tenant=\"alpha\"} 1"));
        assert!(out.contains("cslack_ratio_alerts_total{tenant=\"alpha\"} 0"));
    }

    #[test]
    fn skipped_windows_count_as_closed_and_render_with_help_and_type() {
        let p = QualityPanel::new();
        p.register(1, 16.0, 0.8);
        p.publish_aggregate(4, 9.0, 10.0);
        // Below the floor, but skipped windows never alert or publish.
        p.skip_aggregate();
        p.skip_aggregate();
        assert_eq!(p.windows_closed.get(), 3);
        assert_eq!(p.windows_skipped.get(), 2);
        assert_eq!(p.alerts.get(), 0);
        assert_eq!(p.aggregate(), Some((4, 9.0, 10.0, 0.9)));
        let mut out = String::new();
        p.render_into(&mut out, &[("tenant", "alpha")]);
        assert!(out.contains("# HELP cslack_quality_windows_skipped_total "));
        assert!(out.contains("# TYPE cslack_quality_windows_skipped_total counter"));
        assert!(out.contains("cslack_quality_windows_total{tenant=\"alpha\"} 3"));
        assert!(out.contains("cslack_quality_windows_skipped_total{tenant=\"alpha\"} 2"));
    }
}
