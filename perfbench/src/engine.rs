//! `engine_burst_m8`: an in-process `Engine` wired the way the server
//! wires a tenant (1 shard, `EngineConfig::new(1)` defaults, an enabled
//! `MetricsRegistry`, a `1 << 16`-record flight recorder, a 16-unit
//! observatory), fed `workloads::bursty_heavy_tail` (m=8, eps=0.25) by
//! one producer through blocking `submit_batch_into` in 64-job batches:
//! a closed loop that keeps the ingest ring full.
//!
//! The ingest ring, worker loop, flight record, registry flush and
//! observatory do most of the work; at m=8 decide is a small share.
//! Each burst puts 16 jobs at one instant, so the allocator's rank
//! cache hits — the opposite regime to `sim_iaas_m64`.
//!
//! One engine lifetime is long enough that the observatory's polls
//! (every 25 ms) and its window scoring run inside the timed window and
//! compete with the worker and the producer for the two cores.

use crate::digest::Outcome;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, Samples};
use crate::timed::{offer_sink, OfferSink, TimedScheduler};
use crate::{peak_rss_mb, Opts, EPS, RSS_ERR, SAMPLE_CAP};
use cslack_engine::{
    window_quality, Engine, EngineConfig, FlightConfig, ObsConfig, ObservatoryConfig,
};
use cslack_kernel::Instance;
use cslack_obs::{DecisionEvent, MetricsRegistry, Stage};
use cslack_sim::simulate;
use cslack_sim::sweep::AlgoKind;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Machines.
pub const M: usize = 8;
/// Jobs per cycle (one engine lifetime; the wire workload sends the
/// same instance). At 1M decisions/s the timed window of a lifetime
/// is about 0.25 s, ten observatory polls long.
pub const JOBS: usize = 1 << 18;
/// Jobs per `submit_batch_into` call / `SubmitBatch` frame.
pub const BATCH: usize = 64;
/// Leading jobs of every cycle submitted before the timed window opens.
pub const WARMUP: usize = 8_192;
/// The server's flight ring capacity and observatory window, copied so
/// the engine here is built like a tenant's.
const FLIGHT_CAPACITY: usize = 1 << 16;
const OBS_WINDOW: f64 = 16.0;
/// `ObservatoryConfig`'s default flow-scoring cap.
const MAX_WINDOW_JOBS: usize = 1024;

/// The engine and wire workloads' instance for `seed`.
pub fn instance(seed: u64) -> Instance {
    cslack_workloads::scenarios::bursty_heavy_tail(M, EPS, JOBS, seed)
}

/// The untimed reference digest: `sim::simulate` of the same instance
/// with the same scheduler.
pub fn reference_digest(inst: &Instance, seed: u64) -> Result<u64, String> {
    let report = simulate(inst, &mut *AlgoKind::Threshold.build(M, EPS, seed))
        .map_err(|e| format!("reference simulation failed: {e}"))?;
    Ok(Outcome::from_sim(&report, inst.len()).digest())
}

/// Starts the engine; with `sink`, every shard scheduler is wrapped in
/// a [`TimedScheduler`] reporting there.
pub fn start(
    seed: u64,
    registry: Arc<MetricsRegistry>,
    sink: Option<OfferSink>,
) -> Result<Engine, String> {
    let obs = ObsConfig {
        registry: Some(registry),
        flight: Some(FlightConfig::new(
            FLIGHT_CAPACITY,
            AlgoKind::Threshold.as_str(),
            EPS,
            seed,
        )),
        observatory: Some(ObservatoryConfig::new(OBS_WINDOW)),
        ..ObsConfig::default()
    };
    Engine::start_observed(M, EngineConfig::new(1), obs, move |shard, group| {
        let inner = AlgoKind::Threshold.build(group, EPS, seed.wrapping_add(shard as u64));
        match &sink {
            Some(sink) => Box::new(TimedScheduler::new(inner, SAMPLE_CAP, sink.clone())),
            None => inner,
        }
    })
    .map_err(|e| format!("engine start: {e}"))
}

/// Cold-process set-up: registry + scheduler build (the `c(eps, m)`
/// solve) + `Engine::start_observed`. With `solve_only`, times just
/// the scheduler constructor (`ratio.solve_ms`).
pub fn setup(seed: u64, solve_only: bool) -> Result<Report, String> {
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    if solve_only {
        let t0 = Instant::now();
        black_box(AlgoKind::Threshold.build(M, EPS, seed));
        r.put("ratio.solve_ms", t0.elapsed().as_secs_f64() * 1e3, "ms");
        return Ok(r);
    }
    let t0 = Instant::now();
    let engine = start(seed, Arc::new(MetricsRegistry::enabled()), None)?;
    r.put("setup_s", t0.elapsed().as_secs_f64(), "s");
    engine.finish().map_err(|e| format!("engine finish: {e}"))?;
    Ok(r)
}

/// Run-wide accumulators.
#[derive(Default)]
struct Acc {
    cycles: usize,
    window_ns: u64,
    decided_in_window: u64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    load_frac: f64,
    /// `Enqueue` -> `Decide` of every post-warm-up decision the final
    /// flight snapshots hold, over all cycles.
    latency_ns: Samples,
    start_ms: Vec<f64>,
    finish_s: Vec<f64>,
    // Traced only.
    submit_ns: Samples,
    queue_wait_ns: Samples,
    decide_ns: Samples,
    stalls: u64,
    batches: u64,
    decided: u64,
    flight_dropped: u64,
    flight_submitted: u64,
    snapshot_ms: Vec<f64>,
    render_ms: Vec<f64>,
    score_ns: u64,
    windows_scored: u64,
}

/// Runs engine lifetimes back to back for `opts.seconds`.
pub fn measure(opts: &Opts) -> Result<Report, String> {
    let inst = instance(opts.seed);
    let jobs = inst.jobs();
    let n = jobs.len();
    let want = reference_digest(&inst, opts.seed)?;
    let total_load = inst.total_load();

    let sink = opts.traced.then(|| offer_sink(SAMPLE_CAP));
    let mut spans = opts.traced.then(|| Spans::new(1 << 20));
    let mut acc = Acc {
        latency_ns: Samples::with_cap(SAMPLE_CAP),
        submit_ns: Samples::with_cap(SAMPLE_CAP),
        queue_wait_ns: Samples::with_cap(SAMPLE_CAP),
        decide_ns: Samples::with_cap(SAMPLE_CAP),
        ..Acc::default()
    };
    let mut failures = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    loop {
        let cycle = spans.as_mut().map_or(0, Spans::reserve);
        let cycle_t0 = Instant::now();
        let registry = Arc::new(MetricsRegistry::enabled());
        let t0 = Instant::now();
        let engine = start(opts.seed, Arc::clone(&registry), sink.clone())?;
        let t1 = Instant::now();
        acc.start_ms.push((t1 - t0).as_secs_f64() * 1e3);
        if let Some(s) = spans.as_mut() {
            s.record("engine.start_observed", cycle, t0, t1);
        }

        let mut enqueued = 0usize;
        for chunk in jobs[..WARMUP].chunks(BATCH) {
            enqueued += engine.submit_batch_into(chunk, &mut failures);
        }
        let window_start = engine.clock().now_ns();
        let decided_before = registry.submitted.get();
        for chunk in jobs[WARMUP..].chunks(BATCH) {
            match spans.as_mut() {
                None => enqueued += engine.submit_batch_into(chunk, &mut failures),
                Some(s) => {
                    let t0 = Instant::now();
                    enqueued += engine.submit_batch_into(chunk, &mut failures);
                    let t1 = Instant::now();
                    acc.submit_ns.push((t1 - t0).as_nanos() as u64);
                    s.record("engine.submit_batch_into", cycle, t0, t1);
                }
            }
        }
        if let Some(s) = spans.as_mut() {
            acc.stalls += engine.backpressure_stalls();
            let t0 = Instant::now();
            let snap = engine.flight_snapshot();
            let t1 = Instant::now();
            let page = registry.render_prometheus();
            let t2 = Instant::now();
            black_box((snap, page));
            acc.snapshot_ms.push((t1 - t0).as_secs_f64() * 1e3);
            acc.render_ms.push((t2 - t1).as_secs_f64() * 1e3);
            s.record("engine.flight_snapshot", cycle, t0, t1);
            s.record("obs.render_prometheus", cycle, t1, t2);
        }
        let t0 = Instant::now();
        let report = engine.finish().map_err(|e| format!("engine finish: {e}"))?;
        let t1 = Instant::now();
        acc.finish_s.push((t1 - t0).as_secs_f64());
        if let Some(s) = spans.as_mut() {
            s.record("engine.finish", cycle, t0, t1);
        }

        // Everything below is outside the timed window.
        let flight = report
            .flight
            .as_ref()
            .ok_or("engine kept no flight record")?;
        let stamped = flight.stamped_decisions();
        let window_end = stamped
            .iter()
            .map(|d| d.stamps.get(Stage::Decide))
            .max()
            .unwrap_or(0);
        if window_end <= window_start {
            return Err("no decision after the window opened".into());
        }
        acc.window_ns += window_end - window_start;
        acc.decided_in_window += n as u64 - decided_before;
        // The flight ring keeps the lifetime's last `FLIGHT_CAPACITY`
        // decisions, which is where the latency samples come from.
        for d in &stamped {
            if (d.job as usize) < WARMUP {
                continue;
            }
            if let Some(ns) = d.stamps.span(Stage::Enqueue, Stage::Decide) {
                acc.latency_ns.push(ns);
            }
            if opts.traced {
                if let Some(ns) = d.stamps.span(Stage::Enqueue, Stage::Dequeue) {
                    acc.queue_wait_ns.push(ns);
                }
                if let Some(ns) = d.stamps.span(Stage::Dequeue, Stage::Decide) {
                    acc.decide_ns.push(ns);
                }
            }
        }
        if let Some(s) = spans.as_mut() {
            acc.batches += report
                .metrics
                .per_shard
                .iter()
                .map(|p| p.batches)
                .sum::<u64>();
            acc.decided += report.metrics.submitted;
            acc.flight_dropped += flight.total_dropped();
            acc.flight_submitted += flight.header.submitted;
            let decisions: Vec<DecisionEvent> = flight.decisions().into_iter().cloned().collect();
            let t0 = Instant::now();
            let windows = window_quality(&decisions, OBS_WINDOW, M, MAX_WINDOW_JOBS);
            let t1 = Instant::now();
            acc.score_ns += (t1 - t0).as_nanos() as u64;
            acc.windows_scored += windows.len() as u64;
            s.record("opt.window_quality", cycle, t0, t1);
        }
        let decided = report.metrics.submitted as usize;
        let outcome = Outcome::from_schedule(&report.schedule, n, decided.min(n));
        acc.attempted += n as u64;
        acc.failed += (n - enqueued) as u64 + outcome.missing();
        if outcome.digest() != want || !report.degraded.is_empty() {
            acc.mismatches += 1;
        }
        acc.load_frac = report.schedule.accepted_load() / total_load;
        acc.cycles += 1;
        if let Some(s) = spans.as_mut() {
            s.record_as(cycle, "engine.cycle", 0, cycle_t0, Instant::now());
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut r = Report {
        attempted: acc.attempted,
        failed: acc.failed,
        correct: acc.mismatches == 0,
        ..Report::default()
    };
    r.note("jobs_per_cycle", n);
    r.note("cycles", acc.cycles);
    // Every cycle's window counts: decisions in all windows over the
    // time of all windows.
    let rate = acc.decided_in_window as f64 / (acc.window_ns as f64 / 1e9);
    let decided_in_window = acc.decided_in_window as usize;
    if let Some(sink) = &sink {
        r.put_n("trace.decisions_per_s", rate, "1/s", decided_in_window);
        let mut stats = std::mem::take(&mut *sink.lock().map_err(|_| "poisoned sink")?);
        let q = stats.offer_ns.quantiles(&[0.5, 0.99], 1.0);
        r.put_q("algorithms.offer_ns.p50", q[0], "ns");
        r.put_q("algorithms.offer_ns.p99", q[1], "ns");
        r.put_n(
            "algorithms.accept_frac",
            stats.accepted as f64 / stats.offer_ns.seen().max(1) as f64,
            "ratio",
            stats.offer_ns.seen() as usize,
        );
        r.put_n(
            "engine.start_ms",
            median(&acc.start_ms).unwrap_or(0.0),
            "ms",
            acc.cycles,
        );
        let finish_ms: Vec<f64> = acc.finish_s.iter().map(|s| s * 1e3).collect();
        r.put_n(
            "engine.finish_ms",
            median(&finish_ms).unwrap_or(0.0),
            "ms",
            acc.cycles,
        );
        let q = acc.submit_ns.quantiles(&[0.5, 0.99], 1e3);
        r.put_q("engine.submit_batch_us.p50", q[0], "us");
        r.put_q("engine.submit_batch_us.p99", q[1], "us");
        let kjobs = acc.attempted as f64 / 1e3;
        r.put_n(
            "engine.stalls_per_kjob",
            acc.stalls as f64 / kjobs,
            "count",
            acc.cycles,
        );
        r.put_n(
            "engine.jobs_per_wakeup",
            acc.decided as f64 / acc.batches.max(1) as f64,
            "count",
            acc.batches as usize,
        );
        let q = acc.queue_wait_ns.quantiles(&[0.5, 0.99], 1e3);
        r.put_q("engine.queue_wait_us.p50", q[0], "us");
        r.put_q("engine.queue_wait_us.p99", q[1], "us");
        let q = acc.decide_ns.quantiles(&[0.99], 1e3);
        r.put_q("engine.decide_us.p99", q[0], "us");
        r.put_n(
            "obs.flight_dropped_frac",
            acc.flight_dropped as f64 / acc.flight_submitted.max(1) as f64,
            "ratio",
            acc.cycles,
        );
        r.put_n(
            "obs.snapshot_ms",
            median(&acc.snapshot_ms).unwrap_or(0.0),
            "ms",
            acc.cycles,
        );
        r.put_n(
            "obs.render_ms",
            median(&acc.render_ms).unwrap_or(0.0),
            "ms",
            acc.cycles,
        );
        r.put_n(
            "opt.window_score_ms",
            acc.score_ns as f64 / 1e6 / acc.windows_scored.max(1) as f64,
            "ms",
            acc.windows_scored as usize,
        );
        if let (Some(s), Some(path)) = (&spans, &opts.spans_out) {
            s.write_jsonl(path)
                .map_err(|e| format!("write spans: {e}"))?;
        }
    } else {
        r.put_n("decisions_per_s", rate, "1/s", decided_in_window);
        let q = acc.latency_ns.quantiles(&[0.5, 0.9, 0.99], 1e3);
        r.put_q("latency_p50_us", q[0], "us");
        r.put_q("latency_p90_us", q[1], "us");
        r.put("accepted_load_frac", acc.load_frac, "ratio");
        r.put_n(
            "drain_s",
            median(&acc.finish_s).unwrap_or(0.0),
            "s",
            acc.cycles,
        );
        r.put("peak_rss_mb", peak_rss_mb().ok_or(RSS_ERR)?, "MiB");
        r.put_q("latency_p99_us", q[2], "us");
    }
    Ok(r)
}
