//! Rolling time-series windows: fixed-width bucket rings with lazy
//! rotation, exact cross-shard merge, and 1s/10s/60s read resolutions.
//!
//! A ring indexes buckets **absolutely**: bucket `b = now_ns / width_ns`
//! lives in slot `b % slots`, and the ring remembers only `head`, the
//! highest absolute bucket it has seen. Buckets in the half-open span
//! `(head - slots, head]` are live; anything older has been overwritten
//! (rotated out). Rotation is *lazy*: nothing ticks in the background —
//! the first write or read whose `now` lands past `head` zeroes the
//! skipped slots and advances `head`. Because every operation targets
//! an absolute bucket, recording and merging **commute**: merging two
//! shards' rings (or snapshots taken at different times) is exact
//! bucket-wise addition aligned by absolute index, identical to
//! re-aggregating the combined event timeline serially — the property
//! the windowed proptests pin down.
//!
//! One 60-slot × 1s ring answers every standard resolution: the 1s /
//! 10s / 60s readings ([`RESOLUTIONS`]) are sums (or histogram merges)
//! over the last `k` buckets.

use crate::hist::Histogram;
use crate::timeline::{ClockBase, STAGE_SPANS};
use crate::trace::{RejectCounts, RejectReason};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// Default number of slots per ring: 60 one-second buckets.
pub const WINDOW_SLOTS: usize = 60;

/// Default bucket width: one second of [`ClockBase`] nanoseconds.
pub const BUCKET_WIDTH_NS: u64 = 1_000_000_000;

/// The standard read resolutions: label and bucket count (at the
/// default 1s bucket width).
pub const RESOLUTIONS: [(&str, usize); 3] = [("1s", 1), ("10s", 10), ("60s", 60)];

/// A bucket payload a window ring can hold: zeroable and foldable.
/// Folding must be commutative and associative so cross-shard merges
/// stay exact regardless of arrival order.
pub trait WindowSlot: Clone {
    /// The empty payload a rotated-in bucket starts as.
    fn empty() -> Self;
    /// Folds `other` into `self` (commutative, associative).
    fn absorb(&mut self, other: &Self);
}

impl WindowSlot for u64 {
    fn empty() -> u64 {
        0
    }
    fn absorb(&mut self, other: &u64) {
        *self += other;
    }
}

impl WindowSlot for Histogram {
    fn empty() -> Histogram {
        Histogram::new()
    }
    fn absorb(&mut self, other: &Histogram) {
        self.merge(other);
    }
}

/// The ring proper: absolute-bucket indexing over a fixed slot array.
#[derive(Clone, Debug)]
struct Ring<T> {
    width_ns: u64,
    slots: Vec<T>,
    /// Highest absolute bucket observed so far (`now_ns / width_ns`).
    head: u64,
}

impl<T: WindowSlot> Ring<T> {
    fn new(width_ns: u64, slots: usize) -> Ring<T> {
        Ring {
            width_ns: width_ns.max(1),
            slots: (0..slots.max(1)).map(|_| T::empty()).collect(),
            head: 0,
        }
    }

    fn bucket_of(&self, now_ns: u64) -> u64 {
        now_ns / self.width_ns
    }

    /// Lazy rotation: advance `head` to `bucket`, zeroing every slot
    /// that rotates in. A no-op when `bucket <= head`.
    fn rotate_to(&mut self, bucket: u64) {
        if bucket <= self.head {
            return;
        }
        let slots = self.slots.len() as u64;
        if bucket - self.head >= slots {
            for s in &mut self.slots {
                *s = T::empty();
            }
        } else {
            for b in (self.head + 1)..=bucket {
                self.slots[(b % slots) as usize] = T::empty();
            }
        }
        self.head = bucket;
    }

    /// Applies `f` to the bucket `now_ns` falls in, rotating first.
    /// Events older than the live span are dropped (returns `false`).
    fn apply(&mut self, now_ns: u64, f: impl FnOnce(&mut T)) -> bool {
        let bucket = self.bucket_of(now_ns);
        self.rotate_to(bucket);
        let slots = self.slots.len() as u64;
        if self.head >= slots && bucket <= self.head - slots {
            return false; // rotated out already
        }
        f(&mut self.slots[(bucket % slots) as usize]);
        true
    }

    /// Folds the last `k` live buckets (ending at the bucket `now_ns`
    /// falls in) into one payload, rotating first so idle time decays.
    fn fold_last(&mut self, now_ns: u64, k: usize) -> T {
        self.rotate_to(self.bucket_of(now_ns));
        let k = (k.max(1) as u64).min(self.slots.len() as u64);
        let slots = self.slots.len() as u64;
        let mut acc = T::empty();
        for back in 0..k {
            if back > self.head {
                break;
            }
            let b = self.head - back;
            acc.absorb(&self.slots[(b % slots) as usize]);
        }
        acc
    }

    /// Copies the live span out, oldest bucket first.
    fn snapshot(&mut self, now_ns: u64) -> WindowSnapshot<T> {
        self.rotate_to(self.bucket_of(now_ns));
        let slots = self.slots.len() as u64;
        let mut buckets = Vec::with_capacity(slots as usize);
        let oldest = self.head.saturating_sub(slots - 1);
        for b in oldest..=self.head {
            buckets.push(self.slots[(b % slots) as usize].clone());
        }
        WindowSnapshot {
            width_ns: self.width_ns,
            head: self.head,
            buckets,
        }
    }
}

/// An owned copy of a ring's live span: `buckets[last]` is absolute
/// bucket `head`, `buckets[0]` is `head - (len - 1)`. Snapshots merge
/// exactly by absolute index, so per-shard windows taken at slightly
/// different times still combine into the same totals a single serial
/// ring would hold.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSnapshot<T> {
    /// Bucket width in nanoseconds.
    pub width_ns: u64,
    /// Absolute index of the newest bucket.
    pub head: u64,
    /// Live buckets, oldest first; the last entry is bucket `head`.
    pub buckets: Vec<T>,
}

impl<T: WindowSlot> WindowSnapshot<T> {
    /// Folds `other` into `self`, aligning buckets by absolute index.
    /// The merged head is the newer of the two; buckets of `other`
    /// older than the merged span are dropped (they would have rotated
    /// out of a serial ring too). Mismatched widths are a programming
    /// error and panic.
    pub fn merge(&mut self, other: &WindowSnapshot<T>) {
        assert_eq!(
            self.width_ns, other.width_ns,
            "cannot merge windows of different bucket widths"
        );
        let len = self.buckets.len().max(other.buckets.len());
        let head = self.head.max(other.head);
        let oldest = head.saturating_sub(len as u64 - 1);
        let mut merged: Vec<T> = (oldest..=head).map(|_| T::empty()).collect();
        for src in [&*self, other] {
            for (i, payload) in src.buckets.iter().enumerate() {
                let b = src.head - (src.buckets.len() as u64 - 1) + i as u64;
                if b >= oldest {
                    merged[(b - oldest) as usize].absorb(payload);
                }
            }
        }
        self.head = head;
        self.buckets = merged;
    }

    /// Folds the newest `k` buckets into one payload.
    pub fn fold_last(&self, k: usize) -> T {
        let k = k.max(1).min(self.buckets.len());
        let mut acc = T::empty();
        for payload in &self.buckets[self.buckets.len() - k..] {
            acc.absorb(payload);
        }
        acc
    }
}

/// A windowed event counter: shared, internally locked (writes arrive
/// once per drained batch, not per event, so a `Mutex` is cheap here).
#[derive(Debug)]
pub struct WindowedCounter {
    ring: Mutex<Ring<u64>>,
}

impl Default for WindowedCounter {
    fn default() -> WindowedCounter {
        WindowedCounter::seconds()
    }
}

impl WindowedCounter {
    /// A ring of `slots` buckets, each `width_ns` wide.
    pub fn new(width_ns: u64, slots: usize) -> WindowedCounter {
        WindowedCounter {
            ring: Mutex::new(Ring::new(width_ns, slots)),
        }
    }

    /// The standard ring: 60 × 1s buckets.
    pub fn seconds() -> WindowedCounter {
        WindowedCounter::new(BUCKET_WIDTH_NS, WINDOW_SLOTS)
    }

    /// Adds `n` events at time `now_ns`. Returns `false` if the event
    /// was older than the live span and dropped.
    pub fn record(&self, now_ns: u64, n: u64) -> bool {
        self.ring.lock().unwrap().apply(now_ns, |slot| *slot += n)
    }

    /// Events in the last `k` buckets as of `now_ns`.
    pub fn sum_last(&self, now_ns: u64, k: usize) -> u64 {
        self.ring.lock().unwrap().fold_last(now_ns, k)
    }

    /// Events per second over the last `k` buckets as of `now_ns`.
    pub fn rate_per_sec(&self, now_ns: u64, k: usize) -> f64 {
        let ring = &mut *self.ring.lock().unwrap();
        let sum = ring.fold_last(now_ns, k);
        let secs = ring.width_ns as f64 * k.max(1) as f64 / 1e9;
        sum as f64 / secs
    }

    /// Copies the live span out as of `now_ns`.
    pub fn snapshot(&self, now_ns: u64) -> WindowSnapshot<u64> {
        self.ring.lock().unwrap().snapshot(now_ns)
    }
}

/// A windowed histogram: one [`Histogram`] per bucket, merged over the
/// requested span at read time so windowed quantiles stay exact
/// (bucket-wise addition loses nothing).
#[derive(Debug)]
pub struct WindowedHistogram {
    ring: Mutex<Ring<Histogram>>,
}

impl Default for WindowedHistogram {
    fn default() -> WindowedHistogram {
        WindowedHistogram::seconds()
    }
}

impl WindowedHistogram {
    /// A ring of `slots` buckets, each `width_ns` wide.
    pub fn new(width_ns: u64, slots: usize) -> WindowedHistogram {
        WindowedHistogram {
            ring: Mutex::new(Ring::new(width_ns, slots)),
        }
    }

    /// The standard ring: 60 × 1s buckets.
    pub fn seconds() -> WindowedHistogram {
        WindowedHistogram::new(BUCKET_WIDTH_NS, WINDOW_SLOTS)
    }

    /// Records one observation at time `now_ns`. Returns `false` if it
    /// was older than the live span and dropped.
    pub fn record(&self, now_ns: u64, value: u64) -> bool {
        self.ring
            .lock()
            .unwrap()
            .apply(now_ns, |slot| slot.record(value))
    }

    /// Folds a whole pre-aggregated histogram (a shard's batch delta)
    /// into the bucket `now_ns` falls in — the bulk-flush path.
    pub fn merge_histogram(&self, now_ns: u64, h: &Histogram) -> bool {
        if h.count() == 0 {
            return true;
        }
        self.ring
            .lock()
            .unwrap()
            .apply(now_ns, |slot| slot.merge(h))
    }

    /// Merges the last `k` buckets into one histogram as of `now_ns`.
    pub fn aggregate_last(&self, now_ns: u64, k: usize) -> Histogram {
        self.ring.lock().unwrap().fold_last(now_ns, k)
    }

    /// Copies the live span out as of `now_ns`.
    pub fn snapshot(&self, now_ns: u64) -> WindowSnapshot<Histogram> {
        self.ring.lock().unwrap().snapshot(now_ns)
    }
}

/// The windowed mirror of every engine metric family, registered into
/// a [`crate::MetricsRegistry`] at engine startup (the [`OnceLock`]
/// keeps the registry's `const` constructor, the same pattern as
/// [`crate::metrics::QueueDepthGauge`]). Until [`WindowPanel::register`]
/// runs, recording is a no-op and nothing renders.
#[derive(Debug, Default)]
pub struct WindowPanel {
    inner: OnceLock<PanelState>,
}

#[derive(Debug)]
struct PanelState {
    clock: Arc<ClockBase>,
    decisions: WindowedCounter,
    accepted: WindowedCounter,
    rejected: [WindowedCounter; RejectReason::ALL.len()],
    stages: [WindowedHistogram; STAGE_SPANS.len()],
    queue_depth: WindowedHistogram,
}

impl WindowPanel {
    /// An unregistered panel (records and renders nothing).
    pub const fn new() -> WindowPanel {
        WindowPanel {
            inner: OnceLock::new(),
        }
    }

    /// Arms the panel on `clock` — the same [`ClockBase`] the engine
    /// stamps timelines with, so window buckets and flight stamps share
    /// a time axis. First registration wins.
    pub fn register(&self, clock: Arc<ClockBase>) {
        let _ = self.inner.set(PanelState {
            clock,
            decisions: WindowedCounter::seconds(),
            accepted: WindowedCounter::seconds(),
            rejected: std::array::from_fn(|_| WindowedCounter::seconds()),
            stages: std::array::from_fn(|_| WindowedHistogram::seconds()),
            queue_depth: WindowedHistogram::seconds(),
        });
    }

    /// Whether [`WindowPanel::register`] has run.
    pub fn is_registered(&self) -> bool {
        self.inner.get().is_some()
    }

    /// Folds one shard's drained-batch delta into the current bucket:
    /// decision counts, rejection counts by reason, and the batch's
    /// per-stage histograms. No-op before registration.
    pub fn record_batch(
        &self,
        submitted: u64,
        accepted: u64,
        rejected: &RejectCounts,
        stages: &[Histogram],
    ) {
        let Some(p) = self.inner.get() else { return };
        let now = p.clock.now_ns();
        p.decisions.record(now, submitted);
        p.accepted.record(now, accepted);
        for (counter, reason) in p.rejected.iter().zip(RejectReason::ALL) {
            counter.record(now, rejected.get(reason));
        }
        for (ring, h) in p.stages.iter().zip(stages) {
            ring.merge_histogram(now, h);
        }
    }

    /// Folds a batch of observations of `STAGE_SPANS[span]` alone into
    /// the current bucket — the path for a span measured outside the
    /// shard's registry flush (the server's delivery span, merged once
    /// per delivered chunk). No-op before registration.
    pub fn record_stage_batch(&self, span: usize, h: &Histogram) {
        if let Some(p) = self.inner.get() {
            if let Some(ring) = p.stages.get(span) {
                ring.merge_histogram(p.clock.now_ns(), h);
            }
        }
    }

    /// Samples a shard's queue depth into the current bucket; windowed
    /// reads expose the max over the window. No-op before registration.
    pub fn record_queue_depth(&self, depth: u64) {
        if let Some(p) = self.inner.get() {
            p.queue_depth.record(p.clock.now_ns(), depth);
        }
    }

    /// Appends the windowed gauge families — one series per
    /// [`RESOLUTIONS`] entry, labeled `window="1s"|"10s"|"60s"` on top
    /// of `labels` — to a Prometheus exposition page. Renders nothing
    /// before registration.
    pub fn render_into(&self, out: &mut String, labels: &[(&str, &str)]) {
        let Some(p) = self.inner.get() else { return };
        let now = p.clock.now_ns();
        let gauge_header = |out: &mut String, name: &str, help: &str| {
            if !out.contains(&format!("# TYPE {name} ")) {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
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
        for (win, k) in RESOLUTIONS {
            let secs = (BUCKET_WIDTH_NS as f64 / 1e9) * k as f64;
            let decisions = p.decisions.sum_last(now, k);
            let accepted = p.accepted.sum_last(now, k);
            gauge_header(
                out,
                "cslack_window_decisions",
                "Decisions made within the trailing window.",
            );
            let _ = writeln!(
                out,
                "cslack_window_decisions{} {decisions}",
                label_set(&[("window", win)])
            );
            gauge_header(
                out,
                "cslack_window_decisions_per_sec",
                "Decision throughput over the trailing window.",
            );
            let _ = writeln!(
                out,
                "cslack_window_decisions_per_sec{} {:.3}",
                label_set(&[("window", win)]),
                decisions as f64 / secs
            );
            gauge_header(
                out,
                "cslack_window_accept_rate",
                "Fraction of windowed decisions that were admissions.",
            );
            let rate = if decisions == 0 {
                0.0
            } else {
                accepted as f64 / decisions as f64
            };
            let _ = writeln!(
                out,
                "cslack_window_accept_rate{} {rate:.6}",
                label_set(&[("window", win)])
            );
            gauge_header(
                out,
                "cslack_window_rejected",
                "Rejections within the trailing window, by typed reason.",
            );
            for (counter, reason) in p.rejected.iter().zip(RejectReason::ALL) {
                let _ = writeln!(
                    out,
                    "cslack_window_rejected{} {}",
                    label_set(&[("window", win), ("reason", reason.as_str())]),
                    counter.sum_last(now, k)
                );
            }
            gauge_header(
                out,
                "cslack_window_stage_p99_ns",
                "p99 pipeline stage span duration over the trailing window.",
            );
            for (ring, (stage, _, _)) in p.stages.iter().zip(STAGE_SPANS.iter()) {
                let _ = writeln!(
                    out,
                    "cslack_window_stage_p99_ns{} {}",
                    label_set(&[("window", win), ("stage", stage)]),
                    ring.aggregate_last(now, k).quantile(0.99)
                );
            }
            gauge_header(
                out,
                "cslack_window_queue_depth_max",
                "Highest sampled shard queue depth within the trailing window.",
            );
            let _ = writeln!(
                out,
                "cslack_window_queue_depth_max{} {}",
                label_set(&[("window", win)]),
                p.queue_depth.aggregate_last(now, k).max()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = BUCKET_WIDTH_NS;

    #[test]
    fn counter_windows_decay_over_time() {
        let c = WindowedCounter::seconds();
        c.record(S, 5);
        c.record(2 * S, 7);
        assert_eq!(c.sum_last(2 * S, 1), 7);
        assert_eq!(c.sum_last(2 * S, 10), 12);
        // 9 seconds later the 1s window is empty, the 10s window still
        // sees the second event, the 60s window sees both.
        assert_eq!(c.sum_last(11 * S, 1), 0);
        assert_eq!(c.sum_last(11 * S, 10), 7);
        assert_eq!(c.sum_last(11 * S, 60), 12);
        // Far in the future everything has rotated out.
        assert_eq!(c.sum_last(1000 * S, 60), 0);
    }

    #[test]
    fn late_events_within_span_land_in_their_own_bucket() {
        let c = WindowedCounter::seconds();
        assert!(c.record(100 * S, 1));
        assert!(c.record(60 * S, 3)); // 40 buckets late, still live
        assert_eq!(c.sum_last(100 * S, 60), 4);
        assert_eq!(c.sum_last(100 * S, 10), 1); // late event outside 10s
                                                // Older than the live span: dropped.
        assert!(!c.record(40 * S, 9));
        assert_eq!(c.sum_last(100 * S, 60), 4);
    }

    #[test]
    fn rate_accounts_for_window_length() {
        let c = WindowedCounter::seconds();
        c.record(5 * S, 100);
        assert!((c.rate_per_sec(5 * S, 1) - 100.0).abs() < 1e-9);
        assert!((c.rate_per_sec(5 * S, 10) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_windows_aggregate_exactly() {
        let h = WindowedHistogram::seconds();
        h.record(S, 100);
        h.record(2 * S, 300);
        let mut batch = Histogram::new();
        batch.record(500);
        batch.record(700);
        h.merge_histogram(2 * S, &batch);
        let w = h.aggregate_last(2 * S, 60);
        assert_eq!(w.count(), 4);
        assert_eq!(w.min(), 100);
        assert_eq!(w.max(), 700);
        // After the first bucket rotates out, only the 2s events remain.
        let w = h.aggregate_last(61 * S, 60);
        assert_eq!(w.count(), 3);
        assert_eq!(w.min(), 300);
    }

    #[test]
    fn snapshot_merge_is_exact_and_order_independent() {
        let a = WindowedCounter::seconds();
        let b = WindowedCounter::seconds();
        let serial = WindowedCounter::seconds();
        for (t, n) in [(3 * S, 2u64), (5 * S, 4), (7 * S, 1)] {
            a.record(t, n);
            serial.record(t, n);
        }
        for (t, n) in [(4 * S, 8u64), (7 * S, 3)] {
            b.record(t, n);
            serial.record(t, n);
        }
        // Snapshots taken at different times (buckets rotating between
        // them) must still merge to the serial aggregate.
        let mut ab = a.snapshot(8 * S);
        ab.merge(&b.snapshot(10 * S));
        let mut ba = b.snapshot(10 * S);
        ba.merge(&a.snapshot(8 * S));
        let want = serial.snapshot(10 * S);
        assert_eq!(ab.fold_last(60), want.fold_last(60));
        assert_eq!(ba.fold_last(60), want.fold_last(60));
        assert_eq!(ab.fold_last(60), 18);
        assert_eq!(ab.fold_last(4), 4); // buckets 7..=10 → only t=7 events
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn merging_mismatched_widths_panics() {
        let mut a = WindowedCounter::new(S, 60).snapshot(S);
        let b = WindowedCounter::new(S / 2, 60).snapshot(S);
        a.merge(&b);
    }

    #[test]
    fn panel_is_inert_until_registered_then_renders_every_family() {
        let panel = WindowPanel::new();
        panel.record_queue_depth(5); // no-op, must not panic
        let mut out = String::new();
        panel.render_into(&mut out, &[]);
        assert!(out.is_empty());

        panel.register(Arc::new(ClockBase::new()));
        assert!(panel.is_registered());
        let mut rejected = RejectCounts::default();
        rejected.bump(RejectReason::ThresholdExceeded);
        let stages: Vec<Histogram> = (0..STAGE_SPANS.len())
            .map(|i| {
                let mut h = Histogram::new();
                h.record(100 * (i as u64 + 1));
                h
            })
            .collect();
        panel.record_batch(4, 3, &rejected, &stages);
        panel.record_queue_depth(17);
        let mut delivery = Histogram::new();
        delivery.record(900);
        delivery.record(700);
        panel.record_stage_batch(4, &delivery);

        let mut out = String::new();
        panel.render_into(&mut out, &[("tenant", "alpha")]);
        assert!(out.contains("# TYPE cslack_window_decisions gauge"));
        assert!(out.contains("cslack_window_decisions{tenant=\"alpha\",window=\"1s\"} 4"));
        assert!(out.contains("cslack_window_decisions{tenant=\"alpha\",window=\"60s\"} 4"));
        assert!(out.contains("cslack_window_accept_rate{tenant=\"alpha\",window=\"10s\"} 0.75"));
        assert!(out.contains(
            "cslack_window_rejected{tenant=\"alpha\",window=\"1s\",reason=\"threshold_exceeded\"} 1"
        ));
        assert!(out.contains(
            "cslack_window_stage_p99_ns{tenant=\"alpha\",window=\"1s\",stage=\"decide\"} 400"
        ));
        assert!(!out.contains("cslack_window_decision_latency_p99_ns"));
        assert!(out.contains("cslack_window_queue_depth_max{tenant=\"alpha\",window=\"60s\"} 17"));
        assert!(out.contains("window=\"1s\",stage=\"dispatch\""));
        assert!(out.contains(
            "cslack_window_stage_p99_ns{tenant=\"alpha\",window=\"60s\",stage=\"delivery\"} 900"
        ));
        // Headers once per family across all three resolutions.
        assert_eq!(out.matches("# TYPE cslack_window_decisions ").count(), 1);
    }
}
