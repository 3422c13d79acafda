use crate::{
    machine_groups, shard_of, DecisionSink, Engine, EngineConfig, EngineError, FailureKind,
    FlightConfig, LatencyStats, ObsConfig, SubmitError,
};
use cslack_algorithms::{Decision, Greedy, OnlineScheduler, Threshold};
use cslack_kernel::{InstanceBuilder, Job, JobId, MachineId, Time};
use cslack_obs::flight::{FlightEvent, FlightSnapshot, StampedDecision};
use cslack_obs::timeline::Stage;
use cslack_obs::{DecisionEvent, MetricsRegistry, RejectReason};
use std::sync::{Arc, Mutex};

fn greedy_builder(_shard: usize, g: usize) -> Box<dyn OnlineScheduler> {
    Box::new(Greedy::new(g))
}

#[test]
fn machine_groups_partition_the_cluster() {
    for m in 1..=16 {
        for s in 1..=m {
            let groups = machine_groups(m, s).unwrap();
            assert_eq!(groups.len(), s);
            let flat: Vec<u32> = groups.iter().flatten().map(|id| id.0).collect();
            assert_eq!(flat, (0..m as u32).collect::<Vec<u32>>());
            let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
            let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "uneven split for m={m} s={s}: {sizes:?}");
        }
    }
}

#[test]
fn machine_groups_rejects_bad_shard_counts() {
    // The boundary cases that used to panic (shards > m) or slice
    // nonsense (shards == 0) now error like `Engine::start` does.
    assert!(matches!(
        machine_groups(2, 3),
        Err(EngineError::BadShardCount { shards: 3, m: 2 })
    ));
    assert!(matches!(
        machine_groups(4, 0),
        Err(EngineError::BadShardCount { shards: 0, m: 4 })
    ));
    assert!(matches!(
        machine_groups(0, 1),
        Err(EngineError::BadShardCount { .. })
    ));
    // The m == shards boundary itself is fine: one machine each.
    let groups = machine_groups(3, 3).unwrap();
    assert!(groups.iter().all(|g| g.len() == 1));
}

#[test]
fn shard_routing_is_total_and_deterministic() {
    for shards in 1..=5 {
        for id in 0..100u32 {
            let s = shard_of(JobId(id), shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(JobId(id), shards));
        }
    }
}

#[test]
fn single_shard_engine_matches_sequential_simulation() {
    let inst = InstanceBuilder::new(2, 0.5)
        .tight_job(Time::ZERO, 1.0)
        .tight_job(Time::ZERO, 1.0)
        .tight_job(Time::ZERO, 1.0)
        .job(Time::new(0.5), 2.0, Time::new(10.0))
        .build()
        .unwrap();
    let engine = Engine::start(2, EngineConfig::new(1), greedy_builder).unwrap();
    for job in inst.jobs() {
        engine.submit(*job).unwrap();
    }
    let report = engine.finish().unwrap();
    let sequential = cslack_sim::simulate(&inst, &mut Greedy::new(2)).unwrap();
    assert_eq!(report.schedule.accepted_load(), sequential.accepted_load());
    assert_eq!(report.schedule.len(), sequential.accepted_count());
    assert_eq!(report.metrics.submitted, inst.len() as u64);
    assert!(cslack_kernel::validate_schedule(&inst, &report.schedule).is_valid());
}

#[test]
fn backpressure_surfaces_as_full() {
    // A deliberately slow scheduler so the tiny queue fills faster
    // than the worker drains it.
    struct Slow(Greedy);
    impl OnlineScheduler for Slow {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn machines(&self) -> usize {
            self.0.machines()
        }
        fn offer(&mut self, job: &Job) -> Decision {
            std::thread::sleep(std::time::Duration::from_millis(20));
            self.0.offer(job)
        }
        fn reset(&mut self) {
            self.0.reset()
        }
    }
    let engine = Engine::start(
        1,
        EngineConfig {
            shards: 1,
            queue_capacity: 1,
            batch_size: 1,
        },
        |_, g| Box::new(Slow(Greedy::new(g))),
    )
    .unwrap();
    let mut saw_full = false;
    for id in 0..10_000u32 {
        let job = Job::new(JobId(id), Time::ZERO, 1.0, Time::new(1e9));
        match engine.try_submit(job) {
            Ok(()) => {}
            Err(SubmitError::Full(j)) => {
                assert_eq!(j.id, JobId(id));
                saw_full = true;
                break;
            }
            Err(other) => panic!("engine closed early: {other}"),
        }
    }
    assert!(saw_full, "bounded queue never exerted backpressure");
    engine.finish().unwrap();
}

#[test]
fn blocking_submit_counts_stalls_and_loses_nothing() {
    // Slow scheduler + capacity-1 queue: blocking submissions must
    // stall (and be counted) but every job still gets decided.
    struct Slow(Greedy);
    impl OnlineScheduler for Slow {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn machines(&self) -> usize {
            self.0.machines()
        }
        fn offer(&mut self, job: &Job) -> Decision {
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.0.offer(job)
        }
        fn reset(&mut self) {
            self.0.reset()
        }
    }
    let registry = Arc::new(MetricsRegistry::enabled());
    let obs = ObsConfig {
        registry: Some(Arc::clone(&registry)),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(
        1,
        EngineConfig {
            shards: 1,
            queue_capacity: 1,
            batch_size: 1,
        },
        obs,
        |_, g| Box::new(Slow(Greedy::new(g))),
    )
    .unwrap();
    let n = 50u32;
    for id in 0..n {
        let job = Job::new(JobId(id), Time::ZERO, 1.0, Time::new(1e9));
        engine.submit(job).unwrap();
    }
    assert!(
        engine.backpressure_stalls() > 0,
        "capacity-1 queue with a slow worker must stall blocking submits"
    );
    let report = engine.finish().unwrap();
    assert_eq!(report.metrics.submitted, n as u64, "no submission lost");
    assert_eq!(
        report.metrics.accepted + report.metrics.rejected,
        n as u64,
        "every submission decided"
    );
    assert!(report.metrics.backpressure_stalls > 0);
    assert_eq!(
        report.metrics.backpressure_stalls,
        registry.backpressure_stalls.get(),
        "registry and report must agree on stalls"
    );
}

#[test]
fn zero_submissions_yield_all_zero_latency_stats() {
    let engine = Engine::start(2, EngineConfig::new(2), greedy_builder).unwrap();
    let report = engine.finish().unwrap();
    assert_eq!(report.metrics.submitted, 0);
    assert_eq!(report.metrics.latency, LatencyStats::default());
    assert_eq!(report.metrics.queue_wait, LatencyStats::default());
    assert_eq!(report.metrics.latency.min_ns, 0, "no garbage minima");
    assert!(report.flight.is_none(), "a dark engine records nothing");
}

#[test]
fn queue_capacity_above_the_ceiling_is_a_typed_error() {
    // `next_power_of_two` of this wraps to 0: a ring with no slots,
    // and every blocking push would wait forever.
    let mut config = EngineConfig::new(1);
    config.queue_capacity = usize::MAX;
    assert!(matches!(
        Engine::start(1, config, greedy_builder),
        Err(EngineError::TooLarge {
            field: "queue_capacity",
            value: usize::MAX,
        })
    ));
}

#[test]
fn batch_size_above_the_ceiling_is_a_typed_error() {
    // The worker's batch buffer would overflow `Vec::with_capacity`
    // outside the worker's fault containment.
    let mut config = EngineConfig::new(1);
    config.batch_size = usize::MAX;
    let err = Engine::start(1, config, greedy_builder)
        .err()
        .expect("refused");
    assert!(matches!(
        err,
        EngineError::TooLarge {
            field: "batch_size",
            value: usize::MAX,
        }
    ));
    assert!(err.to_string().contains("batch_size"), "{err}");
}

#[test]
fn machine_count_above_the_ceiling_is_a_typed_error() {
    // A `.cfr` reader refuses such a header, so the engine must not
    // run (and record) one.
    let m = cslack_obs::flight::MAX_MACHINES + 1;
    let err = Engine::start(m, EngineConfig::new(1), greedy_builder)
        .err()
        .expect("refused");
    assert!(matches!(err, EngineError::TooLarge { field: "m", value } if value == m));
    assert!(err.to_string().contains("65536 machines"), "{err}");
}

#[test]
fn trace_reproduces_counters_and_types_every_rejection() {
    // Tight unit jobs on a small threshold cluster: a healthy mix
    // of accepts and threshold rejections.
    let n = 400u32;
    let registry = Arc::new(MetricsRegistry::enabled());
    let obs = ObsConfig {
        registry: Some(Arc::clone(&registry)),
        flight: Some(FlightConfig::new(n as usize, "threshold", 0.5, 0)),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(4, EngineConfig::new(2), obs, |_, g| {
        Box::new(Threshold::new(g, 0.5))
    })
    .unwrap();
    for id in 0..n {
        let job = Job::tight(JobId(id), Time::new((id / 8) as f64 * 0.1), 1.0, 0.5);
        engine.submit(job).unwrap();
    }
    let report = engine.finish().unwrap();
    // The flight snapshot's decisions are the trace.
    let snap = report.flight.as_ref().expect("flight recording requested");
    assert_eq!(snap.total_dropped(), 0);
    let trace: Vec<DecisionEvent> = snap.decisions().into_iter().cloned().collect();
    assert_eq!(trace.len(), n as usize);
    // Trace is ordered by (shard, seq).
    for pair in trace.windows(2) {
        assert!(
            (pair[0].shard, pair[0].seq) < (pair[1].shard, pair[1].seq),
            "trace must be sorted by (shard, seq)"
        );
    }
    let summary = cslack_obs::summarize(&trace);
    assert_eq!(summary.decisions, report.metrics.submitted);
    assert_eq!(summary.accepted, report.metrics.accepted);
    assert_eq!(summary.rejected, report.metrics.rejected_by_reason);
    assert_eq!(summary.rejected.total(), report.metrics.rejected);
    assert!(report.metrics.rejected > 0, "instance should reject some");
    for event in &trace {
        if event.accepted {
            assert!(event.reject_reason.is_none());
            assert!(event.machine.is_some() && event.start.is_some());
            assert!(
                event.machine.unwrap() < 4,
                "machine ids in the trace are global"
            );
        } else {
            assert!(
                event.reject_reason.is_some(),
                "every rejection must carry a typed reason"
            );
            assert_eq!(
                event.reject_reason,
                Some(RejectReason::ThresholdExceeded),
                "threshold is the only reject cause for paper params"
            );
            assert!(event.threshold.is_some(), "threshold value recorded");
        }
    }
    // The live registry saw the same totals.
    assert_eq!(registry.submitted.get(), report.metrics.submitted);
    assert_eq!(registry.accepted.get(), report.metrics.accepted);
    assert_eq!(registry.reject_counts(), report.metrics.rejected_by_reason);
    // The decide-stage histogram holds one sample per decision.
    assert_eq!(
        registry.stage_durations[3].snapshot().count(),
        report.metrics.submitted
    );
}

#[test]
fn disabled_registry_records_nothing() {
    let registry = Arc::new(MetricsRegistry::new()); // not enabled
    let obs = ObsConfig {
        registry: Some(Arc::clone(&registry)),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(1, EngineConfig::new(1), obs, greedy_builder).unwrap();
    engine
        .submit(Job::new(JobId(0), Time::ZERO, 1.0, Time::new(9.0)))
        .unwrap();
    let report = engine.finish().unwrap();
    assert_eq!(report.metrics.submitted, 1);
    assert_eq!(registry.submitted.get(), 0, "disabled registry stays dark");
    assert_eq!(registry.stage_durations[3].snapshot().count(), 0);
}

#[test]
fn bad_shard_count_is_rejected() {
    assert!(matches!(
        Engine::start(2, EngineConfig::new(0), greedy_builder),
        Err(EngineError::BadShardCount { .. })
    ));
    assert!(matches!(
        Engine::start(2, EngineConfig::new(3), greedy_builder),
        Err(EngineError::BadShardCount { .. })
    ));
}

#[test]
fn contract_violation_is_reported_not_merged() {
    struct Liar;
    impl OnlineScheduler for Liar {
        fn name(&self) -> &'static str {
            "liar"
        }
        fn machines(&self) -> usize {
            1
        }
        fn offer(&mut self, _job: &Job) -> Decision {
            Decision::Accept {
                machine: MachineId(0),
                start: Time::ZERO,
            }
        }
        fn reset(&mut self) {}
    }
    let engine = Engine::start(1, EngineConfig::new(1), |_, _| Box::new(Liar)).unwrap();
    // Two overlapping accepts at t = 0 on the same machine.
    engine
        .submit(Job::new(JobId(0), Time::ZERO, 1.0, Time::new(9.0)))
        .unwrap();
    engine
        .submit(Job::new(JobId(1), Time::ZERO, 1.0, Time::new(9.0)))
        .unwrap();
    // Single shard, so the contained contract fault is terminal.
    match engine.finish() {
        Err(EngineError::AllShardsFailed { failures }) => {
            assert_eq!(failures.len(), 1);
            let f = &failures[0];
            assert_eq!(f.shard, 0);
            assert_eq!(f.kind, FailureKind::Contract);
            assert_eq!(f.failing_job, Some(1));
            assert_eq!(f.seq, 1, "one decision completed before the fault");
            assert!(
                f.payload.contains("J1"),
                "unexpected payload: {}",
                f.payload
            );
        }
        other => panic!("expected contract violation, got {other:?}"),
    }
}

#[test]
fn metrics_serialize_to_json() {
    let engine = Engine::start(2, EngineConfig::new(2), greedy_builder).unwrap();
    engine
        .submit(Job::new(JobId(0), Time::ZERO, 1.0, Time::new(9.0)))
        .unwrap();
    engine
        .submit(Job::new(JobId(1), Time::ZERO, 1.0, Time::new(9.0)))
        .unwrap();
    let report = engine.finish().unwrap();
    let json = serde_json::to_string(&report.metrics).unwrap();
    assert!(json.contains("\"decisions_per_sec\""));
    assert!(json.contains("\"per_shard\""));
    assert!(json.contains("\"latency\""));
    assert!(json.contains("\"p99_ns\""));
    assert!(json.contains("\"queue_wait\""));
    assert!(json.contains("\"rejected_by_reason\""));
    assert!(json.contains("\"backpressure_stalls\""));
    assert_eq!(report.metrics.accepted, 2);
    assert_eq!(report.metrics.per_shard.len(), 2);
}

#[test]
fn shard_group_bounds_match_engine_machine_groups() {
    // The auditor reconstructs the engine's machine layout from
    // (m, shards) alone — the two formulas must stay identical.
    for m in 1..=16 {
        for s in 1..=m {
            let groups = machine_groups(m, s).unwrap();
            for (shard, group) in groups.iter().enumerate() {
                let (lo, hi) = cslack_sim::audit::shard_group_bounds(m, s, shard);
                assert_eq!(lo, group.first().map(|id| id.0 as usize).unwrap_or(lo));
                assert_eq!(hi - lo, group.len(), "m={m} s={s} shard={shard}");
            }
        }
    }
}

fn flight_workload(n: u32) -> Vec<Job> {
    (0..n)
        .map(|id| Job::tight(JobId(id), Time::new((id / 8) as f64 * 0.1), 1.0, 0.5))
        .collect()
}

#[test]
fn flight_recording_replays_bit_identically_and_audits_clean() {
    for shards in [1usize, 2, 4] {
        let eps = 0.5;
        let obs = ObsConfig {
            flight: Some(FlightConfig::new(4096, "threshold", eps, 0)),
            ..ObsConfig::default()
        };
        let engine = Engine::start_observed(4, EngineConfig::new(shards), obs, move |_, g| {
            Box::new(Threshold::new(g, eps))
        })
        .unwrap();
        for job in flight_workload(200) {
            engine.submit(job).unwrap();
        }
        let report = engine.finish().unwrap();
        let snap = report.flight.expect("flight recording present");
        assert_eq!(snap.header.submitted, report.metrics.submitted);
        assert_eq!(snap.header.accepted, report.metrics.accepted);
        assert_eq!(snap.total_dropped(), 0);
        let replay =
            cslack_sim::audit::replay_snapshot(&snap, |_, g| Box::new(Threshold::new(g, eps)))
                .unwrap();
        assert!(
            replay.is_identical(),
            "shards={shards} diverged: {:?}",
            replay.divergence
        );
        assert_eq!(replay.decisions_replayed, report.metrics.submitted);
        let audit = cslack_sim::audit::audit_snapshot(&snap);
        assert!(audit.is_clean(), "shards={shards}: {:?}", audit.violations);
        assert!(audit.counters_checked);
    }
}

#[test]
fn finish_snapshot_audits_clean() {
    let eps = 0.5;
    let obs = ObsConfig {
        flight: Some(FlightConfig::new(4096, "threshold", eps, 0)),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(4, EngineConfig::new(2), obs, move |_, g| {
        Box::new(Threshold::new(g, eps))
    })
    .unwrap();
    for job in flight_workload(100) {
        engine.submit(job).unwrap();
    }
    let report = engine.finish().unwrap();
    let audit = cslack_sim::audit::audit_snapshot(report.flight.as_ref().expect("flight on"));
    assert!(audit.is_clean(), "{:?}", audit.violations);
    assert_eq!(audit.decisions_checked, report.metrics.submitted);
    assert_eq!(audit.commitments_checked, report.metrics.accepted);
}

#[test]
fn flight_ring_bounds_memory_and_counts_drops() {
    let obs = ObsConfig {
        flight: Some(FlightConfig::new(8, "greedy", 0.5, 0)),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(1, EngineConfig::new(1), obs, greedy_builder).unwrap();
    for id in 0..32u32 {
        engine
            .submit(Job::new(JobId(id), Time::ZERO, 1.0, Time::new(1e9)))
            .unwrap();
    }
    let report = engine.finish().unwrap();
    let snap = report.flight.unwrap();
    // The ring kept the last 8 decision records, and the snapshot holds
    // exactly those.
    assert_eq!(snap.len(), 8, "ring caps the recording");
    // 32 accepted jobs produce 32 decision records; the ring kept 8.
    assert_eq!(snap.total_dropped(), 24);
    // The header still carries the engine's true totals.
    assert_eq!(snap.header.submitted, 32);
    assert_eq!(snap.header.accepted, 32);
}

/// The semantic content of a decision stream: everything except the
/// wall-clock timings, which legitimately differ between runs.
fn decision_keys(snap: &FlightSnapshot) -> Vec<(u64, u32, usize, bool, Option<u32>)> {
    snap.decisions()
        .iter()
        .map(|d| (d.seq, d.job, d.shard, d.accepted, d.machine))
        .collect()
}

#[test]
fn submit_batch_matches_job_by_job_submission() {
    let eps = 0.5;
    let jobs = flight_workload(200);
    let run = |batched: bool| {
        let obs = ObsConfig {
            flight: Some(FlightConfig::new(4096, "threshold", eps, 0)),
            ..ObsConfig::default()
        };
        let engine = Engine::start_observed(4, EngineConfig::new(2), obs, move |_, g| {
            Box::new(Threshold::new(g, eps))
        })
        .unwrap();
        if batched {
            // Chunk size is coprime with the shard count, so
            // batches straddle shards in every alignment.
            let mut failures = Vec::new();
            for chunk in jobs.chunks(17) {
                assert_eq!(engine.submit_batch_into(chunk, &mut failures), chunk.len());
            }
        } else {
            for job in &jobs {
                engine.submit(*job).unwrap();
            }
        }
        engine.finish().unwrap()
    };
    let (one, many) = (run(false), run(true));
    assert_eq!(one.metrics.submitted, many.metrics.submitted);
    assert_eq!(one.metrics.accepted, many.metrics.accepted);
    let (a, b) = (one.flight.unwrap(), many.flight.unwrap());
    assert_eq!(
        decision_keys(&a),
        decision_keys(&b),
        "batched submission changed the decision stream"
    );
}

#[test]
fn submit_batch_into_reports_failures_without_allocation_on_success() {
    let jobs = flight_workload(100);
    let engine = Engine::start(4, EngineConfig::new(2), greedy_builder).unwrap();
    let mut failures = Vec::new();
    let enqueued = engine.submit_batch_into(&jobs, &mut failures);
    assert_eq!(enqueued, jobs.len());
    assert!(failures.is_empty());
    assert_eq!(
        failures.capacity(),
        0,
        "all-accepted path must not allocate"
    );
    let report = engine.finish().unwrap();
    assert_eq!(report.metrics.submitted, jobs.len() as u64);
}

/// A sink that collects every decision it is handed, plus the shared
/// buffer it appends to.
fn collecting_sink() -> (DecisionSink, Arc<Mutex<Vec<StampedDecision>>>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = DecisionSink::new({
        let seen = Arc::clone(&seen);
        move |chunk: &[StampedDecision]| seen.lock().unwrap().extend_from_slice(chunk)
    });
    (sink, seen)
}

#[test]
fn decision_sink_streams_every_decision_and_is_released_on_finish() {
    let (sink, seen) = collecting_sink();
    let obs = ObsConfig {
        decisions: Some(sink),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(4, EngineConfig::new(2), obs, greedy_builder).unwrap();
    let jobs = flight_workload(100);
    let mut failures = Vec::new();
    assert_eq!(engine.submit_batch_into(&jobs, &mut failures), jobs.len());
    let report = engine.finish().unwrap();
    // Once `finish` returns, every sink call has returned and the
    // engine holds no reference to the sink: ours is the last one on
    // the buffer, which is the subscriber's drain signal.
    let events = Arc::try_unwrap(seen)
        .expect("the engine released the sink")
        .into_inner()
        .unwrap();
    assert_eq!(events.len() as u64, report.metrics.submitted);
    // Every streamed decision carries a monotone server timeline
    // with the pipeline stages stamped.
    for event in &events {
        assert!(event.stamps.server_monotone(), "stamps out of order");
        for stage in [
            Stage::Enqueue,
            Stage::Dequeue,
            Stage::Decide,
            Stage::Delivery,
        ] {
            assert_ne!(event.stamps.get(stage), 0, "{stage:?} unstamped");
        }
    }
    // Per-shard substreams arrive in (seq) order even though the
    // interleaving across shards is arbitrary.
    let mut last_seq = [None::<u64>; 2];
    for event in &events {
        if let Some(prev) = last_seq[event.shard] {
            assert!(prev < event.seq, "shard {} reordered", event.shard);
        }
        last_seq[event.shard] = Some(event.seq);
    }
    // Every submitted job id appears exactly once.
    let mut ids: Vec<u32> = events.iter().map(|e| e.job).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..100).collect::<Vec<u32>>());
}

#[test]
fn a_panicking_sink_is_not_a_shard_fault() {
    let calls = Arc::new(Mutex::new(Vec::<usize>::new()));
    let sink = DecisionSink::new({
        let calls = Arc::clone(&calls);
        move |chunk: &[StampedDecision]| {
            let mut calls = calls.lock().unwrap();
            calls.push(chunk.len());
            if calls.len() == 2 {
                drop(calls);
                panic!("subscriber gave up");
            }
        }
    });
    let obs = ObsConfig {
        decisions: Some(sink),
        ..ObsConfig::default()
    };
    let config = EngineConfig {
        batch_size: 4,
        ..EngineConfig::new(1)
    };
    let engine = Engine::start_observed(2, config, obs, greedy_builder).unwrap();
    let n = 100;
    for job in flight_workload(n) {
        engine.submit(job).unwrap();
    }
    let report = engine.finish().unwrap();
    assert!(report.degraded.is_empty(), "{:?}", report.degraded);
    assert_eq!(report.metrics.submitted, n as u64);
    // At most four decisions per batch, so 100 jobs take many batches;
    // the sink saw two of them and nothing after its panic.
    let calls = calls.lock().unwrap();
    assert_eq!(calls.len(), 2, "sink called after it panicked: {calls:?}");
    assert!(calls.iter().all(|&len| (1..=4).contains(&len)), "{calls:?}");
}

#[test]
fn contract_violation_writes_error_snapshot() {
    struct Liar;
    impl OnlineScheduler for Liar {
        fn name(&self) -> &'static str {
            "liar"
        }
        fn machines(&self) -> usize {
            1
        }
        fn offer(&mut self, _job: &Job) -> Decision {
            Decision::Accept {
                machine: MachineId(0),
                start: Time::ZERO,
            }
        }
        fn reset(&mut self) {}
    }
    let path = std::env::temp_dir().join(format!("cslack-flight-error-{}.cfr", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut flight = FlightConfig::new(1024, "liar", 0.5, 0);
    flight.snapshot_on_error = Some(path.clone());
    let obs = ObsConfig {
        flight: Some(flight),
        ..ObsConfig::default()
    };
    let engine =
        Engine::start_observed(1, EngineConfig::new(1), obs, |_, _| Box::new(Liar)).unwrap();
    engine
        .submit(Job::new(JobId(0), Time::ZERO, 1.0, Time::new(9.0)))
        .unwrap();
    engine
        .submit(Job::new(JobId(1), Time::ZERO, 1.0, Time::new(9.0)))
        .unwrap();
    assert!(matches!(
        engine.finish(),
        Err(EngineError::AllShardsFailed { .. })
    ));
    let mut file = std::fs::File::open(&path).expect("error snapshot written");
    let snap = FlightSnapshot::read_cfr(&mut file).unwrap();
    // The overlapping job that broke the contract left its
    // submission in the dump even though its batch never completed.
    assert!(snap
        .shards
        .iter()
        .flat_map(|s| &s.events)
        .any(|e| matches!(e, FlightEvent::Submission { job: 1, .. })));
    let _ = std::fs::remove_file(&path);
}
