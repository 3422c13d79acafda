//! Ingestion-plane throughput on the per-shard ring: one blocking
//! `submit` per job against batched `submit_batch_into`.
//!
//! Two configurations of the same engine, workload, and algorithm:
//!
//! * **per-job** — one blocking `submit` per job: one producer lock
//!   acquisition and one release store per job;
//! * **batched** — routed batches published through the compact
//!   `submit_batch_into` API with one lock acquisition and one release
//!   store per shard-group, preallocated slots, no per-submission
//!   allocation.
//!
//! Knobs: `CSLACK_BENCH_QUICK=1` shrinks the workload for the CI smoke
//! check; `CSLACK_BENCH_INGEST_OUT` overrides the output path
//! (`BENCH_ingest.json` at the workspace root by default).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cslack_algorithms::{OnlineScheduler, Threshold};
use cslack_engine::{Engine, EngineConfig, EngineReport};
use cslack_kernel::Instance;
use cslack_workloads::WorkloadSpec;
use serde::Serialize;

const M: usize = 8;
const EPS: f64 = 0.25;
const N: usize = 20_000;
const SHARDS: usize = 4;

fn quick_mode() -> bool {
    std::env::var("CSLACK_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn start() -> Engine {
    Engine::start(M, EngineConfig::new(SHARDS), |_, g| {
        Box::new(Threshold::new(g, EPS)) as Box<dyn OnlineScheduler>
    })
    .expect("engine start")
}

/// One blocking `submit` per job.
fn run_perjob(instance: &Instance) -> EngineReport {
    let engine = start();
    for job in instance.jobs() {
        engine.submit(*job).expect("submit");
    }
    engine.finish().expect("drain")
}

/// The batched path: compact `submit_batch_into`, one routed publish
/// per chunk per shard, failures (none expected here) via out-buffer.
fn run_batched(instance: &Instance) -> EngineReport {
    let engine = start();
    let mut failures = Vec::new();
    for chunk in instance.jobs().chunks(256) {
        assert_eq!(
            engine.submit_batch_into(chunk, &mut failures),
            chunk.len(),
            "healthy engine enqueues everything"
        );
    }
    engine.finish().expect("drain")
}

fn best_dps(rounds: usize, mut run: impl FnMut() -> EngineReport) -> f64 {
    (0..rounds)
        .map(|_| run().metrics.decisions_per_sec)
        .fold(0.0f64, f64::max)
}

/// The per-job vs batched ingestion record in `BENCH_ingest.json`.
#[derive(Serialize)]
struct IngestArtifact {
    m: usize,
    eps: f64,
    n: usize,
    shards: usize,
    rounds: usize,
    /// Per-job blocking `submit` into the rings.
    perjob_dps: f64,
    /// Batched `submit_batch_into` into the rings.
    ring_dps: f64,
    /// `ring_dps / perjob_dps` — what batching buys.
    speedup_vs_perjob: f64,
}

fn write_ingest_artifact() {
    let (n, rounds) = if quick_mode() { (2_000, 2) } else { (N, 5) };
    let instance = WorkloadSpec::default_spec(M, EPS, n, 42)
        .generate()
        .expect("ingest workload");
    // Warm code paths and page in ring memory before measuring.
    run_batched(&instance);
    let perjob_dps = best_dps(rounds, || run_perjob(&instance));
    let ring_dps = best_dps(rounds, || run_batched(&instance));
    let artifact = IngestArtifact {
        m: M,
        eps: EPS,
        n,
        shards: SHARDS,
        rounds,
        perjob_dps,
        ring_dps,
        speedup_vs_perjob: ring_dps / perjob_dps.max(f64::MIN_POSITIVE),
    };
    let path = std::env::var("CSLACK_BENCH_INGEST_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json").to_string()
    });
    let json = serde_json::to_string_pretty(&artifact).expect("serialize ingest artifact");
    std::fs::write(&path, json + "\n").expect("write BENCH_ingest.json");
    println!(
        "ingestion m={M} shards={SHARDS}: per-job {:.0}/s -> batched {:.0}/s ({:.2}x) [{}]",
        artifact.perjob_dps, artifact.ring_dps, artifact.speedup_vs_perjob, path,
    );
}

fn ingestion_throughput(c: &mut Criterion) {
    if quick_mode() {
        write_ingest_artifact();
        return;
    }
    let instance = WorkloadSpec::default_spec(M, EPS, N, 42)
        .generate()
        .expect("bench workload");
    let mut group = c.benchmark_group("ingestion_20k_jobs");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::from_parameter("ring-perjob"), |b| {
        b.iter(|| black_box(run_perjob(&instance)));
    });
    group.bench_function(BenchmarkId::from_parameter("ring-batched"), |b| {
        b.iter(|| black_box(run_batched(&instance)));
    });
    group.finish();
    write_ingest_artifact();
}

criterion_group!(benches, ingestion_throughput);
criterion_main!(benches);
