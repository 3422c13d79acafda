//! The quality observatory: a background thread that slices the
//! flight-recorded decision stream into release-time windows, scores
//! closed windows against the max-flow OPT relaxation
//! ([`cslack_opt::flow`]) **off the hot path**, and publishes the
//! results as `cslack_window_admitted_load` /
//! `cslack_window_opt_upper_bound` / `cslack_empirical_ratio` gauges
//! through the registry's [`QualityPanel`](cslack_obs::QualityPanel).
//!
//! ## How windows close
//!
//! The observatory keeps one [`FlightCursor`] per shard and reads each
//! shard's lock-free flight ring four times per poll with
//! [`SharedFlightRing::read_decided_since`](cslack_obs::SharedFlightRing::read_decided_since),
//! so a read copies only the records pushed since the previous one —
//! and of each only the four words it scores — and every decision is
//! consumed exactly once. Records the ring overwrote before the cursor
//! reached them are missed: quality tracking is best-effort by design
//! and never stalls a worker. Decisions are bucketed by
//! `floor(release / window)`. Workload generators emit jobs in release
//! order and the engine preserves per-shard arrival order, so when a
//! shard produces a decision in window `w` every window `< w` it still
//! holds is complete: the shard's slice closes and folds into the
//! aggregate window. The aggregate is ready once **every** shard's
//! watermark has passed it — and unconditionally at the final drain,
//! which runs after the workers have joined, so idle shards can only
//! delay a window's aggregate, never lose it. A straggler that decides
//! a job for an already-closed window folds into the aggregate if it is
//! not ready yet and is dropped otherwise.
//!
//! ## What a poll scores
//!
//! Scoring is a flow solve, so a poll bounds it rather than scoring
//! everything it closed. At the end of each poll each shard's newest
//! closed window is scored and published on the per-shard gauges, and
//! of the ready aggregates only the newest is scored and published. The
//! older ready aggregates count in `windows_closed` and
//! `windows_skipped` and touch no gauge and no alert. A poll therefore
//! solves at most `shards + 1` flows, and a one-shard engine whose
//! shard spans all `m` machines one: the shard's bound *is* the
//! aggregate's and is reused, unless a straggler folded in.
//!
//! A window the cursor did not read in full is skipped, never scored.
//! Each shard checks that the ring ordinals it is handed are
//! consecutive; at a gap the records in between were lost, so the
//! window open at the gap, the window of the first record after it and
//! any between them may miss records, and their aggregates are skipped.
//! The final drain applies the same rule.
//!
//! ## Alerting
//!
//! The empirical ratio is `admitted / bound` (`1.0` for an empty
//! window: nothing to admit is not a quality failure). The aggregate
//! ratio is compared against a floor derived from the paper's
//! guarantee: `floor_fraction / c(eps, m)` — an algorithm meeting its
//! proven ratio should never alert at `floor_fraction = 1.0`, and
//! operators tighten the fraction to watch for regressions well above
//! the proof's worst case. Alerts bump `cslack_ratio_alerts_total`;
//! skipped windows never alert.

use crate::flight_state::FlightState;
use cslack_obs::flight::{DecidedJob, FlightCursor};
use cslack_obs::quality::QualityPanel;
use cslack_obs::{DecisionEvent, MetricsRegistry};
use cslack_opt::flow::{triples_load_bound_in, Dinic};
use serde::Serialize;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Quality-observatory knobs ([`ObsConfig::observatory`](crate::ObsConfig::observatory)).
#[derive(Clone, Debug)]
pub struct ObservatoryConfig {
    /// Release-time window width (in the instance's time units) jobs
    /// are bucketed into. Must be positive; a non-positive width
    /// disables the observatory.
    pub window: f64,
    /// How often the observatory polls: scores and publishes what the
    /// shard streams closed. It reads the shard flight rings four times
    /// per poll, each read copying the records pushed since the last
    /// one — the workers never wait.
    pub poll: Duration,
    /// The alert floor as a fraction of the guaranteed ratio: the
    /// aggregate window alerts when `ratio < floor_fraction / c(eps,
    /// m)`. `1.0` alerts only below the paper's proven bound.
    pub floor_fraction: f64,
    /// Windows holding more jobs than this are scored with the O(n)
    /// capacity bound `min(total load, m * busy span)` instead of the
    /// max-flow relaxation, bounding the observatory's CPU burst on
    /// pathological windows. Both are upper bounds on OPT, so the
    /// ratio stays a sound lower estimate of quality either way.
    pub max_window_jobs: usize,
}

impl ObservatoryConfig {
    /// An observatory slicing at `window` time units with default
    /// polling (25ms), the proof-level alert floor, and a 1024-job
    /// flow-scoring cap.
    pub fn new(window: f64) -> ObservatoryConfig {
        ObservatoryConfig {
            window,
            poll: Duration::from_millis(25),
            floor_fraction: 1.0,
            max_window_jobs: 1024,
        }
    }
}

/// One scored release-time window: what was admitted vs what any
/// clairvoyant preemptive scheduler could have admitted.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct WindowQuality {
    /// Window index (`floor(release / window)`).
    pub index: u64,
    /// Window start (`index * window`).
    pub start: f64,
    /// Window end (exclusive).
    pub end: f64,
    /// Decisions whose job released inside the window.
    pub jobs: usize,
    /// How many of them were accepted.
    pub accepted: usize,
    /// Total processing volume of the accepted jobs.
    pub admitted_load: f64,
    /// The max-flow OPT upper bound over every job (accepted or not)
    /// released in the window.
    pub opt_bound: f64,
    /// `admitted_load / opt_bound` (`1.0` for an empty bound).
    pub ratio: f64,
}

/// Slices a decision stream into release-time windows of width
/// `window` and scores each one — the pure core of the observatory,
/// reused by `cslack watch` on captured `.cfr` files and by the tests
/// that cross-check the live gauges against an offline recomputation.
///
/// Windows are returned in index order; windows no decision released
/// in are skipped. `m` is the machine count the bound is computed for;
/// `max_window_jobs` selects the capacity fallback exactly as the live
/// observatory does (see [`ObservatoryConfig::max_window_jobs`]).
pub fn window_quality(
    decisions: &[DecisionEvent],
    window: f64,
    m: usize,
    max_window_jobs: usize,
) -> Vec<WindowQuality> {
    if !window.is_finite() || window <= 0.0 || m == 0 {
        return Vec::new();
    }
    let mut buckets: BTreeMap<u64, Bucket> = BTreeMap::new();
    for d in decisions {
        let idx = window_index(d.release, window);
        let b = buckets.entry(idx).or_default();
        b.push(d.into());
    }
    let mut net = Dinic::new(0);
    buckets
        .into_iter()
        .map(|(idx, b)| {
            let bound = score_window(&mut net, &b.triples, m, max_window_jobs);
            WindowQuality {
                index: idx,
                start: idx as f64 * window,
                end: (idx + 1) as f64 * window,
                jobs: b.triples.len(),
                accepted: b.accepted,
                admitted_load: b.admitted,
                opt_bound: bound,
                ratio: QualityPanel::ratio_of(b.admitted, bound),
            }
        })
        .collect()
}

/// The window a release time falls into. Non-finite or negative
/// releases clamp to window 0 so a corrupt record cannot allocate an
/// absurd index.
fn window_index(release: f64, window: f64) -> u64 {
    if !release.is_finite() || release <= 0.0 {
        return 0;
    }
    (release / window).floor() as u64
}

/// Upper-bounds OPT's admitted load for one window's jobs: the flow
/// relaxation (solved in `net`) when the window is small enough, the
/// capacity bound otherwise.
fn score_window(net: &mut Dinic, triples: &[(f64, f64, f64)], m: usize, max_jobs: usize) -> f64 {
    if triples.is_empty() {
        return 0.0;
    }
    if triples.len() <= max_jobs {
        return triples_load_bound_in(net, triples, m);
    }
    // Capacity fallback: no schedule can exceed the total offered load,
    // nor run `m` machines for longer than the window's busy span.
    // Infinite deadlines are capped at `horizon + total load`, matching
    // the flow relaxation, so the two bounds agree on degenerate input.
    let total: f64 = triples.iter().map(|t| t.1).sum();
    let min_r = triples.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    let horizon = triples
        .iter()
        .map(|t| if t.2.is_finite() { t.2 } else { t.0 })
        .fold(min_r, f64::max);
    let cap = horizon + total;
    let max_d = triples
        .iter()
        .map(|t| if t.2.is_finite() { t.2 } else { cap })
        .fold(min_r, f64::max);
    total.min(m as f64 * (max_d - min_r).max(0.0))
}

/// One open window's accumulator.
#[derive(Default)]
struct Bucket {
    triples: Vec<(f64, f64, f64)>,
    admitted: f64,
    accepted: usize,
}

impl Bucket {
    fn push(&mut self, d: DecidedJob) {
        self.triples.push((d.release, d.proc_time, d.deadline));
        if d.accepted {
            self.admitted += d.proc_time;
            self.accepted += 1;
        }
    }

    fn absorb(&mut self, mut other: Bucket) {
        self.triples.append(&mut other.triples);
        self.admitted += other.admitted;
        self.accepted += other.accepted;
    }
}

/// The running observatory thread: stop flag plus join handle.
pub(crate) struct ObservatoryHandle {
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) join: Option<JoinHandle<()>>,
}

impl ObservatoryHandle {
    /// Signals the thread to run its final drain — waking it from its
    /// poll wait — and joins it. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.thread().unpark();
            let _ = join.join();
        }
    }
}

/// Spawns the observatory thread. `group_sizes[s]` is the machine
/// count of shard `s`'s group (its per-shard bounds are computed for
/// that group); `m` is the cluster machine count the aggregate bound
/// uses.
pub(crate) fn spawn_observatory(
    cfg: ObservatoryConfig,
    m: usize,
    group_sizes: Vec<usize>,
    flight: Arc<FlightState>,
    registry: Arc<MetricsRegistry>,
) -> ObservatoryHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let join = std::thread::Builder::new()
        .name("cslack-observatory".to_string())
        .spawn({
            let stop = Arc::clone(&stop);
            move || observe(cfg, m, group_sizes, flight, registry, stop)
        })
        .expect("failed to spawn observatory thread");
    ObservatoryHandle {
        stop,
        join: Some(join),
    }
}

/// One shard's windowing state.
#[derive(Default)]
struct ShardTracker {
    /// The open window, `closed_below`, once a decision landed in it.
    open: Option<Bucket>,
    /// Every window `< closed_below` is closed for this shard.
    closed_below: u64,
    /// The ring ordinal the next record carries when nothing was lost.
    next_ordinal: u64,
    /// The newest window the shard closed since the last publish.
    newest: Option<ClosedSlice>,
    /// Inclusive window ranges that may miss records lost at a gap in
    /// the ordinals, kept until their aggregates are published.
    partial: Vec<(u64, u64)>,
}

/// A closed shard window: where its jobs sit in the pending aggregate
/// (stragglers only ever append after them) and what it admitted.
struct ClosedSlice {
    index: u64,
    jobs: Range<usize>,
    admitted: f64,
}

/// An aggregate window waiting for every shard to move past it.
struct Pending {
    bucket: Bucket,
    /// Whether the bucket is exactly one shard's slice and that shard
    /// spans all `m` machines (a one-shard engine): then the shard's
    /// bound is the aggregate's too. Any second slice or straggler
    /// clears it.
    solo: bool,
}

/// Whether window `idx` lies in one of `ranges`, so may miss records.
fn in_ranges(ranges: &[(u64, u64)], idx: u64) -> bool {
    ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&idx))
}

/// The observatory's windowing state, fed one decision at a time: open
/// per-shard windows, pending aggregates, and the scoring of both.
struct Windows {
    cfg: ObservatoryConfig,
    registry: Arc<MetricsRegistry>,
    m: usize,
    group_sizes: Vec<usize>,
    trackers: Vec<ShardTracker>,
    agg: BTreeMap<u64, Pending>,
    /// The flow solver every window is scored in, buffers reused.
    net: Dinic,
    /// Window bounds computed so far (shard slices and aggregates).
    solves: u64,
}

impl Windows {
    /// `group_sizes[s]` is the machine count of shard `s`'s group (its
    /// per-shard bounds are computed for that group); `m` is the
    /// cluster machine count the aggregate bound uses.
    fn new(
        cfg: ObservatoryConfig,
        registry: Arc<MetricsRegistry>,
        m: usize,
        group_sizes: Vec<usize>,
    ) -> Windows {
        Windows {
            trackers: group_sizes
                .iter()
                .map(|_| ShardTracker::default())
                .collect(),
            cfg,
            registry,
            m,
            group_sizes,
            agg: BTreeMap::new(),
            net: Dinic::new(0),
            solves: 0,
        }
    }

    fn score(&mut self, triples: &[(f64, f64, f64)], m: usize) -> f64 {
        self.solves += 1;
        score_window(&mut self.net, triples, m, self.cfg.max_window_jobs)
    }

    /// Consumes the decision `shard`'s ring holds at `ordinal`, closing
    /// the windows its stream has moved past.
    fn observe(&mut self, shard: usize, ordinal: u64, d: DecidedJob) {
        let idx = window_index(d.release, self.cfg.window);
        let tracker = &mut self.trackers[shard];
        if ordinal != tracker.next_ordinal {
            // Records were lost between the window open at the gap and
            // this record's window.
            let open = tracker.closed_below;
            tracker.partial.push((open.min(idx), open.max(idx)));
        }
        tracker.next_ordinal = ordinal + 1;
        if idx < tracker.closed_below {
            // A straggler released before the shard's stream moved on:
            // fold it into the aggregate if that window is still
            // pending, otherwise the published number stands.
            if let Some(pending) = self.agg.get_mut(&idx) {
                pending.bucket.push(d);
                pending.solo = false;
            }
            return;
        }
        if idx > tracker.closed_below {
            // Releases arrive in non-decreasing order per shard, so the
            // open window, older than this decision's, is complete.
            let open = std::mem::replace(&mut tracker.closed_below, idx);
            if let Some(bucket) = tracker.open.take() {
                self.close_shard_window(shard, open, bucket);
            }
        }
        self.trackers[shard]
            .open
            .get_or_insert_with(Bucket::default)
            .push(d);
    }

    /// Folds one shard's closed window into the pending aggregate and
    /// makes it the shard's newest closed window.
    fn close_shard_window(&mut self, shard: usize, idx: u64, bucket: Bucket) {
        let admitted = bucket.admitted;
        let jobs = match self.agg.entry(idx) {
            Entry::Vacant(slot) => {
                let jobs = 0..bucket.triples.len();
                slot.insert(Pending {
                    bucket,
                    solo: self.group_sizes[shard] == self.m,
                });
                jobs
            }
            Entry::Occupied(mut slot) => {
                let pending = slot.get_mut();
                let from = pending.bucket.triples.len();
                pending.bucket.absorb(bucket);
                pending.solo = false;
                from..pending.bucket.triples.len()
            }
        };
        self.trackers[shard].newest = Some(ClosedSlice {
            index: idx,
            jobs,
            admitted,
        });
    }

    /// The end of a poll: scores what every shard has moved past.
    fn publish_ready(&mut self) {
        let ready_below = self
            .trackers
            .iter()
            .map(|t| t.closed_below)
            .min()
            .unwrap_or(0);
        self.publish(ready_below.checked_sub(1));
    }

    /// Scores and publishes each shard's newest closed window, then the
    /// newest aggregate at or below `ready_through`; every older ready
    /// aggregate, and any window not read in full, is counted closed
    /// and skipped instead. At most `shards + 1` flow solves.
    fn publish(&mut self, ready_through: Option<u64>) {
        let mut solo_bound = None;
        for shard in 0..self.trackers.len() {
            let Some(slice) = self.trackers[shard].newest.take() else {
                continue;
            };
            if in_ranges(&self.trackers[shard].partial, slice.index) {
                continue;
            }
            let pending = self
                .agg
                .get(&slice.index)
                .expect("a window closed this poll is pending until the poll publishes");
            self.solves += 1;
            let bound = score_window(
                &mut self.net,
                &pending.bucket.triples[slice.jobs],
                self.group_sizes[shard],
                self.cfg.max_window_jobs,
            );
            if pending.solo {
                solo_bound = Some((slice.index, bound));
            }
            self.registry
                .quality
                .publish_shard(shard, slice.index, slice.admitted, bound);
        }
        let Some(ready_through) = ready_through else {
            return;
        };
        let Some(newest) = self
            .agg
            .range(..=ready_through)
            .next_back()
            .map(|(&i, _)| i)
        else {
            return;
        };
        let mut waiting = self.agg.split_off(&newest);
        let pending = waiting.remove(&newest).expect("the newest ready key");
        for _ in std::mem::replace(&mut self.agg, waiting) {
            self.registry.quality.skip_aggregate();
        }
        if self.trackers.iter().any(|t| in_ranges(&t.partial, newest)) {
            self.registry.quality.skip_aggregate();
        } else {
            let bound = match solo_bound {
                Some((idx, bound)) if idx == newest => bound,
                _ => self.score(&pending.bucket.triples, self.m),
            };
            self.registry
                .quality
                .publish_aggregate(newest, pending.bucket.admitted, bound);
        }
        for tracker in &mut self.trackers {
            tracker.partial.retain(|&(_, hi)| hi > ready_through);
        }
    }

    /// Closes everything still open and publishes it by the poll rule.
    /// The engine stops the observatory only after the workers have
    /// joined, so every open window is complete.
    fn finish(&mut self) {
        for shard in 0..self.trackers.len() {
            if let Some(bucket) = self.trackers[shard].open.take() {
                self.close_shard_window(shard, self.trackers[shard].closed_below, bucket);
            }
        }
        self.publish(Some(u64::MAX));
    }
}

/// Ring reads per poll. Reading costs the same per record however
/// often it runs, while a poll's scoring costs up to `shards + 1`
/// solves; reading more often than scoring keeps a fast shard from
/// lapping the cursor between polls (an engine starting into a
/// backlog can push a 65 536-record ring past full in one 25 ms poll).
const READS_PER_POLL: u32 = 4;

/// The observatory loop: poll, close, score, publish; final drain on
/// stop.
fn observe(
    cfg: ObservatoryConfig,
    m: usize,
    group_sizes: Vec<usize>,
    flight: Arc<FlightState>,
    registry: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
) {
    let read_every = cfg.poll / READS_PER_POLL;
    let mut reads_this_poll = 0u32;
    let mut cursors: Vec<FlightCursor> = group_sizes.iter().map(|_| FlightCursor::new()).collect();
    let mut windows = Windows::new(cfg, registry, m, group_sizes);
    loop {
        // Read the flag *before* reading the rings: a read that started
        // after the stop request is guaranteed to see every decision the
        // joined workers wrote, so breaking afterwards loses nothing.
        let stopping = stop.load(Ordering::Acquire);
        for (shard, cursor) in cursors.iter_mut().enumerate() {
            flight.rings[shard].read_decided_since(cursor, |ordinal, d| {
                windows.observe(shard, ordinal, d);
            });
        }
        if stopping {
            break;
        }
        reads_this_poll = (reads_this_poll + 1) % READS_PER_POLL;
        if reads_this_poll == 0 {
            windows.publish_ready();
        }
        // A stop request unparks this wait, so the final drain starts
        // at once rather than a read interval later.
        std::thread::park_timeout(read_every);
    }
    windows.finish();
}

#[cfg(test)]
mod obs_tests {
    use super::*;

    fn decision(seq: u64, release: f64, p: f64, d: f64, accepted: bool) -> DecisionEvent {
        DecisionEvent {
            seq,
            job: seq as u32,
            shard: 0,
            release,
            proc_time: p,
            deadline: d,
            candidates: 0,
            threshold: None,
            min_load: None,
            accepted,
            machine: accepted.then_some(0),
            start: accepted.then_some(release),
            reject_reason: None,
        }
    }

    #[test]
    fn windows_partition_by_release() {
        let decisions = vec![
            decision(0, 0.5, 1.0, 3.0, true),
            decision(1, 1.5, 2.0, 6.0, false),
            decision(2, 2.5, 1.0, 5.0, true),
        ];
        let windows = window_quality(&decisions, 2.0, 2, 1024);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].index, 0);
        assert_eq!(windows[0].jobs, 2);
        assert_eq!(windows[0].accepted, 1);
        assert!((windows[0].admitted_load - 1.0).abs() < 1e-12);
        assert_eq!(windows[1].index, 1);
        assert_eq!(windows[1].jobs, 1);
        // Both windows' bounds must cover their admitted load.
        for w in &windows {
            assert!(w.opt_bound + 1e-9 >= w.admitted_load);
            assert!(w.ratio <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn empty_stream_and_degenerate_params_yield_nothing() {
        assert!(window_quality(&[], 2.0, 2, 1024).is_empty());
        let d = [decision(0, 1.0, 1.0, 3.0, true)];
        assert!(window_quality(&d, 0.0, 2, 1024).is_empty());
        assert!(window_quality(&d, -1.0, 2, 1024).is_empty());
        assert!(window_quality(&d, 2.0, 0, 1024).is_empty());
    }

    #[test]
    fn capacity_fallback_still_upper_bounds_admitted_load() {
        // 8 unit jobs, all admitted, in one window; cap the flow
        // scoring at 4 jobs so the fallback path runs.
        let decisions: Vec<DecisionEvent> = (0..8)
            .map(|i| decision(i, 0.1 * i as f64, 1.0, 10.0, true))
            .collect();
        let windows = window_quality(&decisions, 10.0, 2, 4);
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert!((w.admitted_load - 8.0).abs() < 1e-12);
        assert!(w.opt_bound + 1e-9 >= w.admitted_load);
        // The capacity bound is min(total, m * span) = min(8, 2 * 9.3).
        assert!((w.opt_bound - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fallback_and_flow_agree_on_containment() {
        // Same stream scored both ways: the flow bound is tighter (or
        // equal), never larger than the capacity bound.
        let decisions: Vec<DecisionEvent> = (0..6)
            .map(|i| decision(i, i as f64, 1.5, i as f64 + 4.0, i % 2 == 0))
            .collect();
        let flow = window_quality(&decisions, 100.0, 2, 1024);
        let cap = window_quality(&decisions, 100.0, 2, 1);
        assert_eq!(flow.len(), 1);
        assert_eq!(cap.len(), 1);
        assert!(flow[0].opt_bound <= cap[0].opt_bound + 1e-9);
        assert!(flow[0].opt_bound + 1e-9 >= flow[0].admitted_load);
    }

    fn quality_registry(shards: usize, window: f64) -> Arc<MetricsRegistry> {
        let registry = MetricsRegistry::enabled();
        registry.quality.register(shards, window, 0.0);
        Arc::new(registry)
    }

    /// The latest aggregate gauge as a window result, for comparing
    /// with [`window_quality`].
    fn published(registry: &MetricsRegistry) -> (u64, f64, f64) {
        let (index, admitted, bound, _) = registry.quality.aggregate().expect("published");
        (index, admitted, bound)
    }

    fn offline(w: &WindowQuality) -> (u64, f64, f64) {
        (w.index, w.admitted_load, w.opt_bound)
    }

    /// Feeds `d` to `windows` as the next record of its shard's ring.
    fn feed(windows: &mut Windows, d: &DecisionEvent) {
        let ordinal = windows.trackers[d.shard].next_ordinal;
        windows.observe(d.shard, ordinal, d.into());
    }

    #[test]
    fn one_shard_solves_each_window_once_until_a_straggler_arrives() {
        let registry = quality_registry(1, 2.0);
        let mut windows = Windows::new(
            ObservatoryConfig::new(2.0),
            Arc::clone(&registry),
            2,
            vec![2],
        );
        let stream = [
            decision(0, 0.5, 1.0, 3.0, true),
            decision(1, 1.5, 2.0, 6.0, false),
            decision(2, 2.5, 1.0, 5.0, true),
            decision(3, 4.5, 1.0, 9.0, true),
            // Released in window 1 after the shard moved on to window 2.
            decision(4, 3.0, 0.5, 4.0, true),
        ];
        let expected = window_quality(&stream, 2.0, 2, 1024);
        assert_eq!(expected.len(), 3);

        // Window 0 closes when window 1's first decision arrives: its
        // shard bound is the aggregate's, so one solve publishes both.
        for d in &stream[..3] {
            feed(&mut windows, d);
        }
        windows.publish_ready();
        assert_eq!(windows.solves, 1);
        assert_eq!(published(&registry), offline(&expected[0]));

        // Window 1 closes on the shard (one solve), then a straggler
        // folds into its pending aggregate: the aggregate is solved
        // afresh and still equals the offline recomputation.
        feed(&mut windows, &stream[3]);
        feed(&mut windows, &stream[4]);
        windows.publish_ready();
        assert_eq!(windows.solves, 3);
        assert_eq!(published(&registry), offline(&expected[1]));

        // The final drain closes window 2 on one solve again.
        windows.finish();
        assert_eq!(windows.solves, 4);
        assert_eq!(published(&registry), offline(&expected[2]));
        assert_eq!(registry.quality.windows_closed.get(), 3);
    }

    #[test]
    fn two_shards_never_reuse_a_shard_bound() {
        let registry = quality_registry(2, 2.0);
        let mut windows = Windows::new(
            ObservatoryConfig::new(2.0),
            Arc::clone(&registry),
            4,
            vec![2, 2],
        );
        let mut stream = Vec::new();
        for w in 0..3u64 {
            for shard in 0..2 {
                let seq = stream.len() as u64;
                let release = 2.0 * w as f64 + 0.25 + 0.5 * shard as f64;
                let mut d = decision(
                    seq,
                    release,
                    1.0 + shard as f64,
                    release + 4.0,
                    !seq.is_multiple_of(3),
                );
                d.shard = shard;
                stream.push(d);
            }
        }
        for d in &stream {
            feed(&mut windows, d);
            windows.publish_ready();
        }
        windows.finish();
        // Three windows on each shard plus three aggregates, each
        // solved on its own.
        assert_eq!(windows.solves, 9);
        assert_eq!(registry.quality.windows_closed.get(), 3);
        let expected = window_quality(&stream, 2.0, 4, 1024);
        let (index, admitted, bound) = published(&registry);
        let last = offline(expected.last().unwrap());
        assert_eq!(index, last.0);
        assert!((admitted - last.1).abs() < 1e-9 && (bound - last.2).abs() < 1e-9);
    }

    /// Two shards of two machines each, every decision accepted except
    /// every third, with `per_window` decisions per shard in each of
    /// windows `0..windows` (width 2) and the shards interleaved.
    fn two_shard_stream(windows: u64, per_window: u64) -> Vec<DecisionEvent> {
        let mut stream = Vec::new();
        for w in 0..windows {
            for k in 0..per_window {
                for shard in 0..2 {
                    let seq = stream.len() as u64;
                    let release =
                        2.0 * w as f64 + (k as f64 + 0.5 * shard as f64) / per_window as f64;
                    let mut d = decision(
                        seq,
                        release,
                        0.5 + 0.25 * k as f64,
                        release + 3.0,
                        !seq.is_multiple_of(3),
                    );
                    d.shard = shard;
                    stream.push(d);
                }
            }
        }
        stream
    }

    #[test]
    fn one_poll_scores_only_the_newest_window() {
        let registry = quality_registry(2, 2.0);
        let mut windows = Windows::new(
            ObservatoryConfig::new(2.0),
            Arc::clone(&registry),
            4,
            vec![2, 2],
        );
        // Windows 0..6 in one poll: 0..5 close on both shards, 5 stays
        // open.
        let stream = two_shard_stream(6, 3);
        for d in &stream {
            feed(&mut windows, d);
        }
        windows.publish_ready();
        // One solve per shard for its newest closed window, one for the
        // newest aggregate.
        assert_eq!(windows.solves, 3);
        let expected = window_quality(&stream, 2.0, 4, 1024);
        assert_eq!(expected.len(), 6);
        let (index, admitted, bound) = published(&registry);
        assert_eq!(index, 4);
        assert!((admitted - expected[4].admitted_load).abs() < 1e-9);
        assert!((bound - expected[4].opt_bound).abs() < 1e-9);
        assert_eq!(registry.quality.windows_closed.get(), 5);
        assert_eq!(registry.quality.windows_skipped.get(), 4);

        // The final drain scores the last window the same way.
        windows.finish();
        assert_eq!(windows.solves, 6);
        let (index, admitted, bound) = published(&registry);
        assert_eq!(index, 5);
        assert!((admitted - expected[5].admitted_load).abs() < 1e-9);
        assert!((bound - expected[5].opt_bound).abs() < 1e-9);
        assert_eq!(registry.quality.windows_closed.get(), 6);
        assert_eq!(registry.quality.windows_skipped.get(), 4);
    }

    #[test]
    fn windows_not_read_in_full_are_skipped() {
        let registry = quality_registry(1, 2.0);
        let mut windows = Windows::new(
            ObservatoryConfig::new(2.0),
            Arc::clone(&registry),
            2,
            vec![2],
        );
        // Two decisions in each of windows 0..5 at ordinals 0..10; the
        // ring overwrote ordinals 4..6 (window 2) before the cursor got
        // there, so the read hands over ordinal 3 (window 1) and then 6
        // (window 3).
        let stream: Vec<DecisionEvent> = (0..10u64)
            .map(|k| decision(k, k as f64 + 0.5, 1.0, k as f64 + 3.0, k % 3 != 1))
            .collect();
        let read: Vec<&DecisionEvent> =
            stream.iter().filter(|d| !(4..6).contains(&d.seq)).collect();
        let mut seen = Vec::new();
        for d in read {
            windows.observe(0, d.seq, d.into());
            windows.publish_ready();
            seen.extend(registry.quality.aggregate().map(|(index, ..)| index));
        }
        windows.finish();
        seen.extend(registry.quality.aggregate().map(|(index, ..)| index));
        seen.dedup();
        // Windows 1 (open at the gap) and 3 (first record after it) are
        // closed but never published; window 2 was never read at all.
        assert_eq!(seen, vec![0, 4]);
        assert_eq!(registry.quality.windows_closed.get(), 4);
        assert_eq!(registry.quality.windows_skipped.get(), 2);
        let expected = window_quality(&stream, 2.0, 2, 1024);
        assert_eq!(published(&registry), offline(&expected[4]));
    }

    #[test]
    fn nonpositive_releases_clamp_to_window_zero() {
        let decisions = vec![
            decision(0, -5.0, 1.0, 3.0, true),
            decision(1, f64::NAN, 1.0, 3.0, false),
            decision(2, 0.5, 1.0, 3.0, true),
        ];
        let windows = window_quality(&decisions, 2.0, 1, 1024);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].index, 0);
        assert_eq!(windows[0].jobs, 3);
    }
}
