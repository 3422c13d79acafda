//! Observability demo: run the sharded engine with the full
//! observability stack live — a shared metrics registry and the flight
//! recorder, whose decisions carry typed reject reasons — then show the
//! surfaces (decision counts, metrics snapshot, Prometheus text
//! exposition) and close the loop by replaying and auditing the flight
//! recording.
//!
//! ```text
//! cargo run --example observability
//! ```

use cslack::engine::{Engine, EngineConfig, FlightConfig, ObsConfig};
use cslack::obs::{self, DecisionEvent};
use cslack::prelude::*;
use cslack::workloads::WorkloadSpec;
use std::sync::Arc;

fn main() {
    let (m, eps, n, shards) = (4, 0.25, 2_000, 2);
    let inst = WorkloadSpec::default_spec(m, eps, n, 11)
        .generate()
        .expect("workload");

    let registry = Arc::new(MetricsRegistry::enabled());
    let wiring = ObsConfig {
        registry: Some(Arc::clone(&registry)),
        // One compact flight record per decision; the capacity covers
        // the whole run so the recording is complete and replayable.
        flight: Some(FlightConfig::new(n, "threshold", eps, 11)),
        ..ObsConfig::default()
    };

    let engine = Engine::start_observed(
        m,
        EngineConfig::new(shards),
        wiring,
        move |_shard, group| Box::new(Threshold::new(group, eps)) as Box<dyn OnlineScheduler>,
    )
    .expect("engine start");
    for job in inst.jobs() {
        engine.submit(*job).expect("submit");
    }
    let report = engine.finish().expect("drain");

    // 1. The flight recording's decisions: every submission, with a
    //    typed reason on every rejection. `summarize` reproduces the
    //    engine counters.
    let flight = report.flight.as_ref().expect("flight recording");
    let decisions: Vec<DecisionEvent> = flight.decisions().into_iter().cloned().collect();
    let summary = obs::summarize(&decisions);
    println!(
        "decisions: {} ({} accepted), {} flight record(s) dropped",
        summary.decisions,
        summary.accepted,
        flight.total_dropped()
    );
    for reason in RejectReason::ALL {
        let count = summary.rejected.get(reason);
        if count > 0 {
            println!("  rejected[{}] = {count}", reason.as_str());
        }
    }
    assert_eq!(summary.accepted, report.metrics.accepted);
    assert_eq!(summary.rejected.total(), report.metrics.rejected);
    if let Some(e) = decisions.iter().find(|e| !e.accepted) {
        println!(
            "  sample rejection: J{} on shard {} (r {:.3}, p {:.3}, d {:.3}, threshold {:?}): {:?}",
            e.job, e.shard, e.release, e.proc_time, e.deadline, e.threshold, e.reject_reason
        );
    }

    // 2. Histogram metrics: percentiles from log-bucketed histograms.
    let metrics = &report.metrics;
    println!(
        "latency: p50 {} ns, p90 {} ns, p99 {} ns, max {} ns",
        metrics.latency.p50_ns,
        metrics.latency.p90_ns,
        metrics.latency.p99_ns,
        metrics.latency.max_ns
    );
    println!(
        "queue wait: p50 {} ns, p99 {} ns (backpressure stalls: {})",
        metrics.queue_wait.p50_ns, metrics.queue_wait.p99_ns, metrics.backpressure_stalls
    );

    // 3. The registry's export surfaces.
    let snapshot = registry.snapshot();
    println!(
        "registry: submitted {}, accepted {}, rejected {:?}",
        snapshot.submitted, snapshot.accepted, snapshot.rejected
    );
    let exposition = registry.render_prometheus();
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("cslack_") && !l.contains("_bucket"))
        .take(12)
    {
        println!("  {line}");
    }

    // 4. The flight recorder: the run's complete causal record. Replay
    //    re-runs the recorded algorithm on the recorded submissions and
    //    compares decision streams bit for bit; the auditor rechecks
    //    every schedule invariant from the recording alone.
    let replay = cslack::sim::audit::replay_snapshot(flight, |_shard, group| {
        Box::new(Threshold::new(group, eps)) as Box<dyn OnlineScheduler>
    })
    .expect("replay");
    let audit = cslack::sim::audit::audit_snapshot(flight);
    println!(
        "flight: {} event(s), {} dropped; replay identical: {}, audit clean: {}",
        flight.len(),
        flight.total_dropped(),
        replay.is_identical(),
        audit.is_clean()
    );
    assert!(replay.is_identical() && audit.is_clean());
}
