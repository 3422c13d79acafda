//! The quality observatory cross-checked against offline recomputation.
//!
//! The acceptance bar for the observatory is that its live gauges are
//! *recomputable*: slicing the same flight-recorded decision stream
//! with the pure [`window_quality`] function — or bounding the same
//! release window of the original instance with `cslack_opt`'s flow
//! relaxation directly — must land on the same numbers the background
//! thread published while the engine ran.

use cslack_algorithms::{OnlineScheduler, Threshold};
use cslack_engine::{
    window_quality, Engine, EngineConfig, FlightConfig, ObsConfig, ObservatoryConfig,
};
use cslack_kernel::Instance;
use cslack_obs::flight::FlightEvent;
use cslack_obs::{DecisionEvent, MetricsRegistry};
use cslack_workloads::WorkloadSpec;
use std::sync::Arc;
use std::time::Duration;

const M: usize = 8;
const EPS: f64 = 0.4;
const WINDOW: f64 = 32.0;

fn workload(n: usize, seed: u64) -> Instance {
    WorkloadSpec::default_spec(M, EPS, n, seed)
        .generate()
        .expect("workload generation")
}

fn threshold_builder(shard: usize, group: usize) -> Box<dyn OnlineScheduler> {
    let _ = shard;
    Box::new(Threshold::new(group, EPS))
}

/// Runs an observed engine over `inst` and returns the registry plus
/// the full decision stream the flight recorder captured.
fn observed_run(inst: &Instance, shards: usize) -> (Arc<MetricsRegistry>, Vec<DecisionEvent>) {
    let registry = Arc::new(MetricsRegistry::enabled());
    let mut observatory = ObservatoryConfig::new(WINDOW);
    observatory.poll = Duration::from_millis(2);
    let obs = ObsConfig {
        registry: Some(Arc::clone(&registry)),
        // Large enough that no record is ever overwritten: the offline
        // recomputation must see exactly what the observatory saw.
        flight: Some(FlightConfig::new(1 << 14, "threshold", EPS, 0)),
        observatory: Some(observatory),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(M, EngineConfig::new(shards), obs, threshold_builder)
        .expect("engine start");
    for job in inst.jobs() {
        engine.submit(*job).expect("submit");
    }
    let report = engine.finish().expect("drain");
    let snapshot = report.flight.expect("flight snapshot recorded");
    let mut decisions = Vec::new();
    for shard in &snapshot.shards {
        assert_eq!(shard.dropped, 0, "ring sized to drop nothing");
        for event in &shard.events {
            if let FlightEvent::Decision(d) = event {
                decisions.push(d.event.clone());
            }
        }
    }
    (registry, decisions)
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// The live aggregate gauge after finish must equal the offline
/// [`window_quality`] recomputation of the same stream's last window,
/// and every window must have been closed and counted.
#[test]
fn observatory_matches_offline_window_quality() {
    let inst = workload(2_000, 31);
    let (registry, decisions) = observed_run(&inst, 4);
    assert_eq!(decisions.len(), inst.len(), "every job decided once");

    let offline = window_quality(&decisions, WINDOW, M, 1024);
    assert!(offline.len() >= 4, "workload spans several windows");
    let last = offline.last().expect("non-empty");

    let (index, admitted, bound, ratio) = registry
        .quality
        .aggregate()
        .expect("observatory published an aggregate window");
    assert_eq!(index, last.index, "final drain publishes the last window");
    assert!(
        rel_close(admitted, last.admitted_load, 1e-9),
        "live admitted {admitted} vs offline {}",
        last.admitted_load
    );
    assert!(
        rel_close(bound, last.opt_bound, 1e-6),
        "live bound {bound} vs offline {}",
        last.opt_bound
    );
    assert!(
        rel_close(ratio, last.ratio, 1e-6),
        "live ratio {ratio} vs offline {}",
        last.ratio
    );
    assert_eq!(
        registry.quality.windows_closed.get(),
        offline.len() as u64,
        "every release window closed exactly once"
    );
}

/// The observatory's per-window flow bound must agree with running
/// `cslack_opt`'s window slicer over the original instance — the gauges
/// are exactly an online view of the offline OPT relaxation.
#[test]
fn window_bounds_match_direct_opt_flow_runs() {
    let inst = workload(1_500, 47);
    let (_registry, decisions) = observed_run(&inst, 2);
    let offline = window_quality(&decisions, WINDOW, M, 1024);
    assert!(offline.len() >= 3);
    for w in &offline {
        let direct = cslack_opt::flow::window_load_bound(&inst, w.start, w.end);
        assert!(
            rel_close(w.opt_bound, direct, 1e-6),
            "window {} bound {} vs direct flow {}",
            w.index,
            w.opt_bound,
            direct
        );
        assert!(
            w.opt_bound + 1e-9 >= w.admitted_load,
            "window {}: bound below admitted load",
            w.index
        );
        assert!(w.ratio <= 1.0 + 1e-9);
    }
}

/// The windowed and quality gauges render into the Prometheus page an
/// observed engine serves.
#[test]
fn exposition_carries_windowed_and_quality_gauges() {
    let inst = workload(1_000, 7);
    let (registry, _) = observed_run(&inst, 2);
    let page = registry.render_prometheus();
    for family in [
        "cslack_window_decisions{",
        "cslack_window_decisions_per_sec{",
        "cslack_window_accept_rate{",
        "cslack_window_rejected{",
        "cslack_window_stage_p99_ns{window=\"10s\",stage=\"queue\"}",
        "cslack_window_stage_p99_ns{window=\"10s\",stage=\"decide\"}",
        "cslack_window_queue_depth_max{",
        "cslack_window_admitted_load{",
        "cslack_window_opt_upper_bound{",
        "cslack_empirical_ratio{",
        "cslack_ratio_floor ",
        "cslack_quality_windows_total ",
        "cslack_ratio_alerts_total ",
        "cslack_scrapes_total ",
    ] {
        assert!(page.contains(family), "missing {family} in exposition");
    }
    // The stage families are the one histogram per span.
    for gone in [
        "cslack_decision_latency_ns",
        "cslack_queue_wait_ns",
        "cslack_window_decision_latency_p99_ns",
        "cslack_window_queue_wait_p99_ns",
    ] {
        assert!(!page.contains(gone), "{gone} still rendered");
    }
    // The ratio floor derives from the paper's guarantee: positive and
    // at most 1 for the threshold algorithm.
    let floor = registry.quality.ratio_floor();
    assert!(floor > 0.0 && floor <= 1.0, "floor {floor} out of range");
}

/// A one-shard engine — how every `TenantSpec::new` tenant runs —
/// publishes each aggregate window from its shard's flow solve instead
/// of solving the same window twice. The gauges must still equal the
/// offline recomputation exactly.
#[test]
fn single_shard_aggregate_equals_offline_window_quality_exactly() {
    let inst = workload(2_000, 53);
    let (registry, decisions) = observed_run(&inst, 1);
    let offline = window_quality(&decisions, WINDOW, M, 1024);
    assert!(offline.len() >= 4, "workload spans several windows");
    let last = offline.last().expect("non-empty");
    let (index, admitted, bound, ratio) = registry
        .quality
        .aggregate()
        .expect("observatory published an aggregate window");
    assert_eq!(
        (index, admitted, bound, ratio),
        (last.index, last.admitted_load, last.opt_bound, last.ratio)
    );
    assert_eq!(
        registry.quality.windows_closed.get(),
        offline.len() as u64,
        "every release window closed exactly once"
    );
}
