//! End-to-end throughput of the sharded admission engine: one engine
//! lifecycle (start, submit every job, drain, merge) per iteration,
//! swept over shard counts so single-shard vs multi-shard scaling is
//! visible in one report.
//!
//! A second pass measures the observability tax: the same workload is
//! run dark, with a live [`MetricsRegistry`] alone, and with the
//! registry plus a flight recorder with and without the quality
//! observatory; the comparison (throughput, p50/p99/p999 decision
//! latency from the log-bucketed histograms) is written to
//! `BENCH_obs.json` at the workspace root. The registry-only overhead
//! is the budgeted one (< 5%).
//!
//! A third pass measures the flight-recorder tax the same way (dark vs
//! a recorder ring sized to the whole run), replays and audits the
//! recording it just made, and writes `BENCH_flight.json`. The
//! recorder-on overhead shares the < 5% budget.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cslack_algorithms::threshold::{RankingMode, ThresholdEngine, ThresholdPolicy};
use cslack_algorithms::{OnlineScheduler, Threshold};
use cslack_engine::{
    Engine, EngineConfig, EngineReport, FlightConfig, ObsConfig, ObservatoryConfig,
};
use cslack_kernel::Instance;
use cslack_obs::MetricsRegistry;
use cslack_workloads::WorkloadSpec;
use serde::Serialize;
use std::sync::Arc;

const M: usize = 8;
const EPS: f64 = 0.25;
const N: usize = 20_000;

fn bench_workload() -> Instance {
    WorkloadSpec::default_spec(M, EPS, N, 42)
        .generate()
        .expect("bench workload")
}

/// `CSLACK_BENCH_QUICK=1` shrinks the refactor artifact to a CI-smoke
/// size and skips the criterion sweep and the obs artifact entirely.
fn quick_mode() -> bool {
    std::env::var("CSLACK_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// `CSLACK_BENCH_REFACTOR_ONLY=1` runs the full-size refactor artifact
/// (baseline generation) without the criterion sweep / obs artifact.
fn refactor_only() -> bool {
    std::env::var("CSLACK_BENCH_REFACTOR_ONLY").is_ok_and(|v| v == "1")
}

/// `CSLACK_BENCH_FLIGHT_ONLY=1` runs the full-size flight artifact
/// (baseline generation) without the criterion sweep.
fn flight_only() -> bool {
    std::env::var("CSLACK_BENCH_FLIGHT_ONLY").is_ok_and(|v| v == "1")
}

/// `CSLACK_BENCH_OBS_ONLY=1` runs the full-size observability artifact
/// (baseline generation) without the criterion sweep.
fn obs_only() -> bool {
    std::env::var("CSLACK_BENCH_OBS_ONLY").is_ok_and(|v| v == "1")
}

fn run_engine(instance: &Instance, shards: usize, obs: ObsConfig) -> EngineReport {
    let builder =
        |_shard: usize, g: usize| -> Box<dyn OnlineScheduler> { Box::new(Threshold::new(g, EPS)) };
    let engine =
        Engine::start_observed(M, EngineConfig::new(shards), obs, builder).expect("engine start");
    for job in instance.jobs() {
        engine.submit(*job).expect("submit");
    }
    engine.finish().expect("drain")
}

fn engine_throughput(c: &mut Criterion) {
    if quick_mode() {
        write_refactor_artifact();
        write_flight_artifact();
        write_obs_artifact();
        return;
    }
    if refactor_only() {
        write_refactor_artifact();
        return;
    }
    if flight_only() {
        write_flight_artifact();
        return;
    }
    if obs_only() {
        write_obs_artifact();
        return;
    }
    let instance = bench_workload();
    let mut group = c.benchmark_group("engine_20k_jobs");
    group.throughput(Throughput::Elements(N as u64));
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{shards}-shard")),
            &shards,
            |b, &shards| {
                b.iter(|| black_box(run_engine(&instance, shards, ObsConfig::default())));
            },
        );
    }
    // The same engine with the full observability stack live: a shared
    // registry recording every decision plus a flight ring sized to the
    // whole run. Comparing this series against the dark ones above
    // exposes the per-decision recording cost.
    for shards in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{shards}-shard-observed")),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let obs = ObsConfig {
                        registry: Some(Arc::new(MetricsRegistry::enabled())),
                        flight: Some(FlightConfig::new(N.div_ceil(shards), "threshold", EPS, 42)),
                        ..ObsConfig::default()
                    };
                    black_box(run_engine(&instance, shards, obs))
                });
            },
        );
    }
    group.finish();

    write_obs_artifact();
    write_refactor_artifact();
    write_flight_artifact();
}

/// One side of the dark-vs-observed comparison in `BENCH_obs.json`.
#[derive(Serialize)]
struct ObsSide {
    decisions_per_sec: f64,
    latency_p50_ns: u64,
    latency_p99_ns: u64,
    latency_p999_ns: u64,
    queue_wait_p99_ns: u64,
}

impl ObsSide {
    fn from_report(report: &EngineReport) -> ObsSide {
        ObsSide {
            decisions_per_sec: report.metrics.decisions_per_sec,
            latency_p50_ns: report.metrics.latency.p50_ns,
            latency_p99_ns: report.metrics.latency.p99_ns,
            latency_p999_ns: report.metrics.latency.p999_ns,
            queue_wait_p99_ns: report.metrics.queue_wait.p99_ns,
        }
    }
}

#[derive(Serialize)]
struct ObsArtifact {
    m: usize,
    eps: f64,
    n: usize,
    shards: usize,
    rounds: usize,
    /// Baseline: no registry, no flight recorder.
    dark: ObsSide,
    /// Live enabled `MetricsRegistry` (cumulative counters plus the
    /// windowed bucket-ring panel it now registers), no flight
    /// recorder — the steady-state monitoring configuration. Budget:
    /// < 5% below `dark`.
    registry: ObsSide,
    /// Registry + flight ring + the quality observatory thread scoring
    /// release windows with the flow relaxation while the run is live —
    /// the full quality-tracking configuration.
    observatory: ObsSide,
    /// Relative throughput cost of `registry` vs `dark`, percent
    /// (positive = slower). Best round on each side.
    registry_overhead_pct: f64,
    /// Incremental cost of the quality layer: observatory + window
    /// scoring on vs off, atop the identical registry + flight
    /// configuration it rides on. Median of per-pair ratios over
    /// back-to-back (off, on) pairs — same denoising as the flight
    /// artifact. Budget: < 2% (the observatory runs off the hot path;
    /// workers only pay the flight stores both sides already pay).
    observatory_overhead_pct: f64,
    /// Aggregate release windows the observatory scored during the
    /// measured run (must be > 0 for the comparison to mean anything).
    observatory_windows_closed: u64,
}

/// Measures the observability tax outside criterion and writes
/// `BENCH_obs.json` (override with `CSLACK_BENCH_OBS_OUT`). The
/// cumulative sides are best-of-`rounds`; the observatory increment is
/// a median of back-to-back pair ratios. `CSLACK_BENCH_QUICK=1`
/// shrinks the workload for the CI smoke/gate.
fn write_obs_artifact() {
    let (n, rounds) = if quick_mode() { (2_000, 5) } else { (N, 31) };
    let shards = 4;
    let instance = WorkloadSpec::default_spec(M, EPS, n, 42)
        .generate()
        .expect("obs workload");
    // ~16 release-time units per window: a Poisson(m) arrival stream
    // closes a window every ~128 jobs, so even the quick run scores
    // double-digit windows.
    let observatory_obs = || {
        let registry = Arc::new(MetricsRegistry::enabled());
        let obs = ObsConfig {
            registry: Some(Arc::clone(&registry)),
            flight: Some(FlightConfig::new(n.div_ceil(shards), "threshold", EPS, 42)),
            observatory: Some(ObservatoryConfig::new(16.0)),
            ..ObsConfig::default()
        };
        (registry, obs)
    };
    let observatory_base = || ObsConfig {
        registry: Some(Arc::new(MetricsRegistry::enabled())),
        flight: Some(FlightConfig::new(n.div_ceil(shards), "threshold", EPS, 42)),
        ..ObsConfig::default()
    };
    let best = |mk_obs: &dyn Fn() -> ObsConfig| -> EngineReport {
        (0..rounds)
            .map(|_| run_engine(&instance, shards, mk_obs()))
            .max_by(|a, b| {
                a.metrics
                    .decisions_per_sec
                    .total_cmp(&b.metrics.decisions_per_sec)
            })
            .expect("at least one round")
    };
    let dark = best(&ObsConfig::default);
    let registry = best(&|| ObsConfig {
        registry: Some(Arc::new(MetricsRegistry::enabled())),
        ..ObsConfig::default()
    });
    // Warm both observatory sides, then run them back to back so
    // machine-load drift cancels within each pair.
    run_engine(&instance, shards, observatory_base());
    run_engine(&instance, shards, observatory_obs().1);
    let mut pair_taxes = Vec::with_capacity(rounds);
    let mut observatory_runs = Vec::with_capacity(rounds);
    let mut windows_closed = 0u64;
    for _ in 0..rounds {
        let base = run_engine(&instance, shards, observatory_base());
        let (obs_registry, obs_cfg) = observatory_obs();
        let on = run_engine(&instance, shards, obs_cfg);
        windows_closed = windows_closed.max(obs_registry.quality.windows_closed.get());
        pair_taxes.push(
            1.0 - on.metrics.decisions_per_sec
                / base.metrics.decisions_per_sec.max(f64::MIN_POSITIVE),
        );
        observatory_runs.push(on);
    }
    pair_taxes.sort_by(|a, b| a.total_cmp(b));
    let observatory_tax = pair_taxes[pair_taxes.len() / 2];
    observatory_runs.sort_by(|a, b| {
        a.metrics
            .decisions_per_sec
            .total_cmp(&b.metrics.decisions_per_sec)
    });
    let observatory = observatory_runs.remove(observatory_runs.len() / 2);
    let overhead = |side: &EngineReport| -> f64 {
        100.0 * (dark.metrics.decisions_per_sec - side.metrics.decisions_per_sec)
            / dark.metrics.decisions_per_sec.max(f64::MIN_POSITIVE)
    };
    let artifact = ObsArtifact {
        m: M,
        eps: EPS,
        n,
        shards,
        rounds,
        registry_overhead_pct: overhead(&registry),
        observatory_overhead_pct: 100.0 * observatory_tax,
        observatory_windows_closed: windows_closed,
        dark: ObsSide::from_report(&dark),
        registry: ObsSide::from_report(&registry),
        observatory: ObsSide::from_report(&observatory),
    };
    let path = std::env::var("CSLACK_BENCH_OBS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json").to_string()
    });
    let json = serde_json::to_string_pretty(&artifact).expect("serialize artifact");
    std::fs::write(&path, json + "\n").expect("write BENCH_obs.json");
    println!(
        "observability tax vs dark {:.0}/s: registry {:+.2}%; observatory increment {:+.2}% ({} windows); p99 {} ns -> {} ns [{}]",
        artifact.dark.decisions_per_sec,
        artifact.registry_overhead_pct,
        artifact.observatory_overhead_pct,
        artifact.observatory_windows_closed,
        artifact.dark.latency_p99_ns,
        artifact.registry.latency_p99_ns,
        path,
    );
}

/// The dark-vs-recorder comparison in `BENCH_flight.json`.
#[derive(Serialize)]
struct FlightArtifact {
    m: usize,
    eps: f64,
    n: usize,
    shards: usize,
    rounds: usize,
    /// Baseline: no recorder.
    dark: ObsSide,
    /// Flight recorder on, ring sized to hold the whole run (one
    /// compact record per decision, timeline stamps included). The
    /// observability budget asks for < 5% below `dark` even on the
    /// single-core CI container — producer and all shard workers
    /// time-slicing one CPU, so every recorded byte is paid serially
    /// against the decision path. The per-shard single-writer rings
    /// (`SharedFlightRing`: direct-encode, relaxed stores, no locks)
    /// keep the measured value under that; see `flight_overhead_pct`.
    flight: ObsSide,
    /// Relative throughput cost of `flight` vs `dark`, percent
    /// (positive = slower). Median of per-pair ratios over `rounds`
    /// back-to-back (dark, flight) pairs: single-digit-millisecond runs
    /// on a shared core see ±30% load noise, so each flight run is
    /// compared against the dark run adjacent to it in time (cancelling
    /// drift) and the median tames what remains — a best-of comparison
    /// would launder that noise into either side's favor.
    flight_overhead_pct: f64,
    /// Records dropped by the rings during the measured run (must be 0
    /// at this capacity).
    flight_dropped: u64,
    /// The recording the measured run produced replays bit-identically.
    replay_identical: bool,
    /// The same recording passes the trace-driven invariant auditor.
    audit_clean: bool,
}

/// Measures the flight-recorder tax (median of per-pair dark-vs-flight
/// throughput ratios over back-to-back pairs), then replays and audits
/// the recording the measured run produced, and writes
/// `BENCH_flight.json`.
///
/// Knobs: `CSLACK_BENCH_QUICK=1` shrinks the workload for the CI smoke
/// check; `CSLACK_BENCH_FLIGHT_OUT` overrides the output path.
fn write_flight_artifact() {
    // Odd round counts give a true median pair; 61 pairs (~2 s of
    // engine lifecycles) is what it takes for the median ratio to
    // stabilize on a time-sliced single-core container.
    let (n, rounds) = if quick_mode() { (2_000, 5) } else { (N, 61) };
    let shards = 4;
    let instance = WorkloadSpec::default_spec(M, EPS, n, 42)
        .generate()
        .expect("flight workload");
    // One compact record per decision, jobs split evenly across shards.
    let flight_obs = || ObsConfig {
        flight: Some(FlightConfig::new(n.div_ceil(shards), "threshold", EPS, 42)),
        ..ObsConfig::default()
    };
    // Warm the code paths before measuring: the first engine lifecycles
    // after process start page in the binary and fault in fresh ring
    // memory on cold caches, and that cost lands entirely on one side
    // of the first pair if it isn't burned off here.
    for _ in 0..2 {
        run_engine(&instance, shards, ObsConfig::default());
        run_engine(&instance, shards, flight_obs());
    }
    // Run the two sides back to back so machine-load drift hits both
    // halves of each pair equally, and score each pair by its own
    // ratio rather than pooling throughputs across the whole session.
    let mut dark_runs = Vec::with_capacity(rounds);
    let mut flight_runs = Vec::with_capacity(rounds);
    let mut pair_taxes = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let dark = run_engine(&instance, shards, ObsConfig::default());
        let flight = run_engine(&instance, shards, flight_obs());
        pair_taxes.push(
            1.0 - flight.metrics.decisions_per_sec
                / dark.metrics.decisions_per_sec.max(f64::MIN_POSITIVE),
        );
        dark_runs.push(dark);
        flight_runs.push(flight);
    }
    pair_taxes.sort_by(|a, b| a.total_cmp(b));
    let tax = pair_taxes[pair_taxes.len() / 2];
    let median = |runs: &mut Vec<EngineReport>| -> EngineReport {
        runs.sort_by(|a, b| {
            a.metrics
                .decisions_per_sec
                .total_cmp(&b.metrics.decisions_per_sec)
        });
        runs.remove(runs.len() / 2)
    };
    let dark = median(&mut dark_runs);
    let flight = median(&mut flight_runs);
    let snap = flight.flight.as_ref().expect("flight recording");
    let replay = cslack_sim::audit::replay_snapshot(snap, |_shard, g| {
        Box::new(Threshold::new(g, EPS)) as Box<dyn OnlineScheduler>
    })
    .expect("replayable recording");
    let audit = cslack_sim::audit::audit_snapshot(snap);
    let artifact = FlightArtifact {
        m: M,
        eps: EPS,
        n,
        shards,
        rounds,
        flight_overhead_pct: 100.0 * tax,
        flight_dropped: snap.total_dropped(),
        replay_identical: replay.is_identical(),
        audit_clean: audit.is_clean(),
        dark: ObsSide::from_report(&dark),
        flight: ObsSide::from_report(&flight),
    };
    let path = std::env::var("CSLACK_BENCH_FLIGHT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flight.json").to_string()
    });
    let json = serde_json::to_string_pretty(&artifact).expect("serialize flight artifact");
    std::fs::write(&path, json + "\n").expect("write BENCH_flight.json");
    println!(
        "flight-recorder tax vs dark {:.0}/s: {:+.2}%; replay identical: {}, audit clean: {} [{}]",
        artifact.dark.decisions_per_sec,
        artifact.flight_overhead_pct,
        artifact.replay_identical,
        artifact.audit_clean,
        path,
    );
}

/// One machine count of the sorted-vs-incremental ranking comparison
/// in `BENCH_refactor.json`.
#[derive(Serialize)]
struct RefactorRow {
    m: usize,
    n: usize,
    /// Decisions/sec of the raw Threshold offer loop with the
    /// pre-refactor full sort per offer.
    sorted_dps: f64,
    /// Decisions/sec with the incrementally maintained ranking ladder.
    incremental_dps: f64,
    /// `incremental_dps / sorted_dps`.
    speedup: f64,
    /// Decisions/sec of the single-shard engine end to end (queueing,
    /// commitment, trace plumbing) on top of the incremental ranking.
    engine_dps: f64,
    /// Whether the two ranking modes produced bit-identical decision
    /// streams (decision + threshold + candidate counts) on this
    /// workload. Must always be `true`.
    decision_streams_identical: bool,
}

/// The before/after record of the decision-path refactor.
#[derive(Serialize)]
struct RefactorArtifact {
    eps: f64,
    rounds: usize,
    rows: Vec<RefactorRow>,
}

/// A Threshold engine pinned to one ranking mode.
fn mode_engine(m: usize, mode: RankingMode) -> ThresholdEngine {
    ThresholdEngine::with_policy(
        "bench-mode",
        m,
        EPS,
        ThresholdPolicy {
            ranking: mode,
            ..ThresholdPolicy::default()
        },
    )
}

/// Best-of-`rounds` decisions/sec of the raw offer loop (no engine,
/// no channels: the decision path alone).
fn offer_loop_dps(m: usize, instance: &Instance, mode: RankingMode, rounds: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..rounds {
        let mut eng = mode_engine(m, mode);
        let t0 = std::time::Instant::now();
        for job in instance.jobs() {
            black_box(eng.offer(job));
        }
        let dt = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        best = best.max(instance.jobs().len() as f64 / dt);
    }
    best
}

/// Replays the workload through both ranking modes in lockstep and
/// checks full decision-stream equality (decision, threshold, candidate
/// count, reject reason).
fn streams_identical(m: usize, instance: &Instance) -> bool {
    let mut inc = mode_engine(m, RankingMode::Incremental);
    let mut srt = mode_engine(m, RankingMode::FullSort);
    instance
        .jobs()
        .iter()
        .all(|job| inc.offer_explained(job) == srt.offer_explained(job))
}

/// Measures the decision-path refactor (incremental ranking ladder vs
/// the old sort-per-offer) and writes `BENCH_refactor.json`.
///
/// Knobs: `CSLACK_BENCH_QUICK=1` shrinks the workload for the CI smoke
/// check; `CSLACK_BENCH_OUT` overrides the output path.
fn write_refactor_artifact() {
    let (n, rounds) = if quick_mode() { (2_000, 2) } else { (N, 5) };
    let mut rows = Vec::new();
    for m in [8usize, 64] {
        let instance = WorkloadSpec::default_spec(m, EPS, n, 42)
            .generate()
            .expect("refactor workload");
        let sorted_dps = offer_loop_dps(m, &instance, RankingMode::FullSort, rounds);
        let incremental_dps = offer_loop_dps(m, &instance, RankingMode::Incremental, rounds);
        let engine_dps = (0..rounds)
            .map(|_| {
                let builder = |_shard: usize, g: usize| -> Box<dyn OnlineScheduler> {
                    Box::new(Threshold::new(g, EPS))
                };
                let engine =
                    Engine::start_observed(m, EngineConfig::new(1), ObsConfig::default(), builder)
                        .expect("engine start");
                for job in instance.jobs() {
                    engine.submit(*job).expect("submit");
                }
                engine.finish().expect("drain").metrics.decisions_per_sec
            })
            .fold(0.0f64, f64::max);
        rows.push(RefactorRow {
            m,
            n,
            sorted_dps,
            incremental_dps,
            speedup: incremental_dps / sorted_dps.max(f64::MIN_POSITIVE),
            engine_dps,
            decision_streams_identical: streams_identical(m, &instance),
        });
    }
    let artifact = RefactorArtifact {
        eps: EPS,
        rounds,
        rows,
    };
    let path = std::env::var("CSLACK_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_refactor.json").to_string()
    });
    let json = serde_json::to_string_pretty(&artifact).expect("serialize refactor artifact");
    std::fs::write(&path, json + "\n").expect("write BENCH_refactor.json");
    for row in &artifact.rows {
        println!(
            "decision path m={}: sorted {:.0}/s -> incremental {:.0}/s ({:.2}x), engine {:.0}/s, streams identical: {} [{}]",
            row.m,
            row.sorted_dps,
            row.incremental_dps,
            row.speedup,
            row.engine_dps,
            row.decision_streams_identical,
            path,
        );
    }
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
