//! Chaos tests: fault containment and degraded-mode recovery.
//!
//! Each test injects a fault into one shard (via `cslack-sim`'s
//! [`FaultyScheduler`]) and proves the containment contract: healthy
//! shards keep serving and their merged schedule validates, the crash
//! snapshot is written at failure time and replays bit-identically,
//! the degraded report's counters agree with the flight audit, and an
//! abandoned engine tears down cleanly.

use cslack_algorithms::{Greedy, OnlineScheduler, Threshold};
use cslack_engine::{
    Engine, EngineConfig, EngineError, FailureKind, FlightConfig, ObsConfig, ObservatoryConfig,
    ShardState, SubmitError,
};
use cslack_kernel::{validate_schedule, InstanceBuilder, Job, JobId, Time};
use cslack_obs::{FlightSnapshot, MetricsRegistry};
use cslack_sim::fault::{FaultSpec, FaultyScheduler};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A builder that wraps `fault_shard`'s scheduler with the given fault
/// and leaves every other shard clean.
fn faulty_greedy(
    fault_shard: usize,
    spec: &str,
) -> impl Fn(usize, usize) -> Box<dyn OnlineScheduler> {
    let spec: FaultSpec = spec.parse().expect("valid fault spec");
    move |shard, g| {
        let inner: Box<dyn OnlineScheduler> = Box::new(Greedy::new(g));
        if shard == fault_shard {
            Box::new(FaultyScheduler::new(inner, spec))
        } else {
            inner
        }
    }
}

fn loose_job(id: u32) -> Job {
    Job::new(JobId(id), Time::ZERO, 1.0, Time::new(1e9))
}

/// Submits `n` jobs, tolerating the target shard dying mid-stream.
/// Returns how many bounced with `ShardFailed`.
fn submit_tolerating_failure(engine: &Engine, n: u32) -> u64 {
    let mut bounced = 0;
    for id in 0..n {
        match engine.submit(loose_job(id)) {
            Ok(()) => {}
            Err(SubmitError::ShardFailed(j)) => {
                assert_eq!(j.id, JobId(id), "the job comes back with the error");
                bounced += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    bounced
}

#[test]
fn panic_is_contained_and_healthy_shards_merge() {
    let engine = Engine::start(4, EngineConfig::new(2), faulty_greedy(0, "panic@5")).unwrap();
    let bounced = submit_tolerating_failure(&engine, 100);
    let report = engine
        .finish()
        .expect("single-shard fault must not sink the run");

    assert!(report.is_degraded());
    assert_eq!(report.degraded.len(), 1);
    let f = &report.degraded[0];
    assert_eq!(f.shard, 0);
    assert_eq!(f.kind, FailureKind::Panic);
    assert!(
        f.payload.contains("injected fault"),
        "payload: {}",
        f.payload
    );
    assert_eq!(f.seq, 5, "five decisions completed before the fault");
    // Shard 0 sees even job ids in submission order, so its sixth
    // offer (index 5) is job 10.
    assert_eq!(f.failing_job, Some(10));
    // Conservation: shard 0's 50 jobs are decided (5), the failing one
    // (1), lost in queue/batch, or bounced at submit.
    assert!(
        f.queued_lost + bounced + 6 <= 50,
        "lost accounting exceeds the shard's share: queued_lost={} bounced={bounced}",
        f.queued_lost
    );

    // The healthy shard (odd ids, machines 2..4) survives in full and
    // its merged schedule validates against the instance.
    assert_eq!(report.metrics.per_shard.len(), 2);
    assert!(report.metrics.per_shard[0].failed);
    assert!(!report.metrics.per_shard[1].failed);
    assert_eq!(report.metrics.per_shard[1].submitted, 50);
    assert_eq!(report.metrics.per_shard[0].submitted, 5);
    assert_eq!(report.metrics.submitted, 55);
    let mut builder = InstanceBuilder::new(4, 0.5);
    for id in 0..100u32 {
        let j = loose_job(id);
        builder = builder.job(j.release, j.proc_time, j.deadline);
    }
    let inst = builder.build().unwrap();
    let validation = validate_schedule(&inst, &report.schedule);
    assert!(validation.is_valid(), "{:?}", validation.violations);
    // Greedy accepts everything this loose, so the healthy shard's
    // accepted load is intact: 50 unit jobs.
    assert!(report.schedule.accepted_load() >= 50.0 - 1e-9);
}

#[test]
fn degraded_report_counters_agree_with_flight_audit() {
    let obs = ObsConfig {
        flight: Some(FlightConfig::new(4096, "greedy", 0.5, 0)),
        ..ObsConfig::default()
    };
    let engine =
        Engine::start_observed(4, EngineConfig::new(2), obs, faulty_greedy(0, "contract@5"))
            .unwrap();
    submit_tolerating_failure(&engine, 100);
    let report = engine.finish().expect("degraded finish");
    assert!(report.is_degraded());
    assert_eq!(report.degraded[0].kind, FailureKind::Contract);

    let snap = report.flight.expect("flight recording present");
    assert_eq!(snap.total_dropped(), 0);
    assert_eq!(snap.header.submitted, report.metrics.submitted);
    assert_eq!(snap.header.accepted, report.metrics.accepted);
    let audit = cslack_sim::audit::audit_snapshot(&snap);
    assert!(audit.is_clean(), "{:?}", audit.violations);
    assert!(audit.counters_checked, "complete recording checks counters");
    assert_eq!(audit.decisions_checked, report.metrics.submitted);

    // The pre-fault decisions replay bit-identically against the clean
    // algorithm: the injected bad decision was never recorded (the
    // contract check rejected it before the counters moved).
    let replay =
        cslack_sim::audit::replay_snapshot(&snap, |_, g| Box::new(Greedy::new(g))).unwrap();
    assert!(replay.is_identical(), "diverged: {:?}", replay.divergence);
    assert_eq!(replay.decisions_replayed, report.metrics.submitted);
}

#[test]
fn crash_snapshot_is_written_at_failure_time_not_finish() {
    let path = std::env::temp_dir().join(format!("cslack-chaos-crash-{}.cfr", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut flight = FlightConfig::new(4096, "greedy", 0.5, 0);
    flight.snapshot_on_error = Some(path.clone());
    let obs = ObsConfig {
        flight: Some(flight),
        ..ObsConfig::default()
    };
    let engine =
        Engine::start_observed(4, EngineConfig::new(2), obs, faulty_greedy(0, "panic@3")).unwrap();
    submit_tolerating_failure(&engine, 40);

    // The failing worker writes the dump the moment the fault hits —
    // well before finish. Poll briefly for the worker to get there.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !path.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        path.exists(),
        "crash snapshot must be written at failure time"
    );
    let mut file = std::fs::File::open(&path).unwrap();
    let snap = FlightSnapshot::read_cfr(&mut file).unwrap();
    let replay =
        cslack_sim::audit::replay_snapshot(&snap, |_, g| Box::new(Greedy::new(g))).unwrap();
    assert!(
        replay.is_identical(),
        "crash snapshot replays bit-identically: {:?}",
        replay.divergence
    );

    // finish still returns the healthy merge and must not overwrite
    // the at-failure-time dump with a later window (first fault wins).
    let before = std::fs::read(&path).unwrap();
    let report = engine.finish().expect("degraded finish");
    assert!(report.is_degraded());
    let after = std::fs::read(&path).unwrap();
    assert_eq!(before, after, "finish must not clobber the crash dump");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_shard_bounces_submissions_and_health_degrades() {
    let obs = ObsConfig {
        serve_metrics: Some("127.0.0.1:0".parse().unwrap()),
        ..ObsConfig::default()
    };
    let engine =
        Engine::start_observed(2, EngineConfig::new(2), obs, faulty_greedy(0, "panic@0")).unwrap();
    let addr = engine.metrics_addr().unwrap();
    // Job 0 routes to shard 0 and trips the fault on arrival.
    let _ = engine.submit(loose_job(0));
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.health()[0].state != ShardState::Failed && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let health = engine.health();
    assert_eq!(health[0].state, ShardState::Failed);
    assert_eq!(health[1].state, ShardState::Alive);

    // A dead shard is now distinguishable from graceful shutdown.
    match engine.try_submit(loose_job(2)) {
        Err(SubmitError::ShardFailed(j)) => assert_eq!(j.id, JobId(2)),
        other => panic!("expected ShardFailed, got {other:?}"),
    }
    // The healthy shard keeps accepting.
    engine.submit(loose_job(1)).unwrap();

    // /healthz reports the degradation with a 503.
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("degraded"), "{raw}");
    assert!(raw.contains("shard 0 failed"), "{raw}");
    assert!(raw.contains("shard 1 alive"), "{raw}");

    let report = engine.finish().expect("degraded finish");
    assert!(report.is_degraded());
    assert_eq!(
        report.schedule.len(),
        1,
        "the healthy shard's accept survives"
    );
}

#[test]
fn all_shards_failed_is_terminal() {
    let engine = Engine::start(2, EngineConfig::new(1), faulty_greedy(0, "panic@0")).unwrap();
    let _ = engine.submit(loose_job(0));
    match engine.finish() {
        Err(EngineError::AllShardsFailed { failures }) => {
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].kind, FailureKind::Panic);
            assert_eq!(failures[0].failing_job, Some(0));
        }
        other => panic!("expected AllShardsFailed, got {other:?}"),
    }
}

#[test]
fn submit_with_deadline_backs_off_and_expires() {
    // A scheduler slow enough that a capacity-1 queue stays full for
    // the whole (short) submission deadline.
    struct Slow(Greedy);
    impl OnlineScheduler for Slow {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn machines(&self) -> usize {
            self.0.machines()
        }
        fn offer(&mut self, job: &Job) -> cslack_algorithms::Decision {
            std::thread::sleep(Duration::from_millis(100));
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
    // First job occupies the worker (100 ms decision), second fills
    // the queue; the third faces persistent backpressure.
    engine.submit(loose_job(0)).unwrap();
    engine.submit(loose_job(1)).unwrap();
    let t0 = Instant::now();
    match engine.submit_with_deadline(loose_job(2), Duration::from_millis(30)) {
        Err(SubmitError::Full(j)) => {
            assert_eq!(j.id, JobId(2), "the expired job is returned");
            let waited = t0.elapsed();
            assert!(
                waited >= Duration::from_millis(30),
                "gave up early: {waited:?}"
            );
            assert!(
                waited < Duration::from_secs(5),
                "deadline ignored: {waited:?}"
            );
        }
        other => panic!("expected Full after the deadline, got {other:?}"),
    }
    assert!(engine.backpressure_stalls() > 0, "the stall was counted");
    // With a generous deadline the backoff loop eventually gets in.
    engine
        .submit_with_deadline(loose_job(3), Duration::from_secs(30))
        .expect("queue drains within the deadline");
    let report = engine.finish().unwrap();
    assert_eq!(report.metrics.submitted, 3, "jobs 0, 1, 3 decided");
}

#[test]
fn drop_without_finish_joins_workers_and_releases_port() {
    /// Greedy plus a drop marker, so the test can observe that every
    /// worker thread actually exited (the scheduler is owned by the
    /// worker and dropped when it returns).
    struct DropMarker(Greedy, Arc<AtomicU64>);
    impl OnlineScheduler for DropMarker {
        fn name(&self) -> &'static str {
            "drop-marker"
        }
        fn machines(&self) -> usize {
            self.0.machines()
        }
        fn offer(&mut self, job: &Job) -> cslack_algorithms::Decision {
            self.0.offer(job)
        }
        fn reset(&mut self) {
            self.0.reset()
        }
    }
    impl Drop for DropMarker {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }
    let dropped = Arc::new(AtomicU64::new(0));
    let obs = ObsConfig {
        serve_metrics: Some("127.0.0.1:0".parse().unwrap()),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(2, EngineConfig::new(2), obs, {
        let dropped = Arc::clone(&dropped);
        move |_, g| Box::new(DropMarker(Greedy::new(g), Arc::clone(&dropped)))
    })
    .unwrap();
    for id in 0..50u32 {
        engine.submit(loose_job(id)).unwrap();
    }
    let addr = engine.metrics_addr().unwrap();
    // Abandon the engine: drop must drain and join the workers and the
    // telemetry thread without deadlocking...
    drop(engine);
    assert_eq!(
        dropped.load(Ordering::SeqCst),
        2,
        "both shard workers joined on drop"
    );
    // ...and the port must be free again immediately.
    std::net::TcpListener::bind(addr).expect("telemetry port released on drop");
}

#[test]
fn drop_after_shard_fault_does_not_deadlock() {
    let engine = Engine::start(2, EngineConfig::new(2), faulty_greedy(0, "panic@0")).unwrap();
    let _ = engine.submit(loose_job(0));
    let _ = engine.submit(loose_job(1));
    // Dropping with one dead shard and one healthy shard must still
    // join both workers promptly.
    drop(engine);
}

// ---------------------------------------------------------------------
// Shard resurrection: replay-driven restart after a contained fault.
// ---------------------------------------------------------------------

/// Like [`faulty_greedy`] but one-shot: the fault arms only the *first*
/// build of shard 0, so the replacement scheduler constructed by
/// [`Engine::restart_shard`] runs clean instead of re-tripping.
fn one_shot_faulty(
    spec: &str,
    build: fn(usize) -> Box<dyn OnlineScheduler>,
) -> impl Fn(usize, usize) -> Box<dyn OnlineScheduler> {
    let spec: FaultSpec = spec.parse().expect("valid fault spec");
    let armed = Arc::new(AtomicBool::new(true));
    move |shard, g| {
        let inner = build(g);
        if shard == 0 && armed.swap(false, Ordering::SeqCst) {
            Box::new(FaultyScheduler::new(inner, spec))
        } else {
            inner
        }
    }
}

fn build_greedy(g: usize) -> Box<dyn OnlineScheduler> {
    Box::new(Greedy::new(g))
}

fn build_threshold(g: usize) -> Box<dyn OnlineScheduler> {
    Box::new(Threshold::new(g, 0.5))
}

/// A feasible job with releases spread over time so the observatory
/// closes several ratio windows across the restart.
fn spread_job(id: u32) -> Job {
    Job::new(JobId(id), Time::new((id / 10) as f64), 1.0, Time::new(1e9))
}

fn wait_for_failed(engine: &Engine, shard: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.health()[shard].state != ShardState::Failed && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(engine.health()[shard].state, ShardState::Failed);
}

/// The full resurrection contract, exercised per algorithm family:
/// (a) the committed schedule is rebuilt bit-identically by replaying
/// the flight ring (restart refuses on any divergence, and the final
/// recording still replays clean end to end), (b) every job the dead
/// shard held is conserved into exactly one ledger bucket, (c) the
/// observatory's ratio windows stay finite across the restart, and
/// (d) the crash snapshot written at failure time audits clean.
fn restart_after_panic_roundtrip(algo: &str, build: fn(usize) -> Box<dyn OnlineScheduler>) {
    let crash =
        std::env::temp_dir().join(format!("cslack-restart-{algo}-{}.cfr", std::process::id()));
    let _ = std::fs::remove_file(&crash);
    let registry = Arc::new(MetricsRegistry::enabled());
    let mut flight = FlightConfig::new(4096, algo, 0.5, 0);
    flight.snapshot_on_error = Some(crash.clone());
    let obs = ObsConfig {
        registry: Some(Arc::clone(&registry)),
        flight: Some(flight),
        observatory: Some(ObservatoryConfig::new(8.0)),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(
        4,
        EngineConfig::new(2),
        obs,
        one_shot_faulty("panic@5", build),
    )
    .unwrap();

    // Shard 0 sees even ids: 50 of the first 100 jobs. Five decide
    // before the fault; the rest bounce at submit or drain undecided.
    let mut bounced = 0u64;
    for id in 0..100u32 {
        match engine.submit(spread_job(id)) {
            Ok(()) => {}
            Err(SubmitError::ShardFailed(_)) => bounced += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    wait_for_failed(&engine, 0);
    let readmitted = engine
        .restart_shard(0)
        .expect("replay-driven restart succeeds");

    // (b) conservation at the submit boundary: the shard's 50-job share
    // splits exactly into decided-before-crash, re-offered, and bounced.
    assert_eq!(
        readmitted + 5 + bounced,
        50,
        "share = decided + re-offers + bounced (bounced={bounced})"
    );

    // The resurrected shard keeps serving fresh load.
    for id in 100..140u32 {
        engine.submit(spread_job(id)).unwrap();
    }
    let report = engine.finish().expect("resurrected run finishes healthy");
    assert!(
        !report.is_degraded(),
        "a successfully restarted shard must not report degraded: {:?}",
        report.degraded
    );
    assert!(!report.metrics.per_shard[0].failed);
    assert_eq!(
        report.metrics.per_shard[0].submitted,
        5 + readmitted + 20,
        "every incarnation's decisions land on the same shard counter"
    );

    // (b) the ledger's four buckets conserve the dead shard's jobs.
    let stats = report.recovery;
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.lost, 0, "nothing may vanish on a clean restart");
    assert_eq!(
        stats.re_admitted + stats.re_rejected,
        readmitted,
        "every re-offer is decided exactly once"
    );
    assert!(
        stats.recovered_committed <= 5,
        "recovered commitments cannot exceed pre-crash decisions"
    );

    // The merged schedule stays valid against the full instance.
    let mut builder = InstanceBuilder::new(4, 0.5);
    for id in 0..140u32 {
        let j = spread_job(id);
        builder = builder.job(j.release, j.proc_time, j.deadline);
    }
    let inst = builder.build().unwrap();
    let validation = validate_schedule(&inst, &report.schedule);
    assert!(validation.is_valid(), "{:?}", validation.violations);

    // (a) the full recording — pre-crash prefix plus post-restart
    // continuation — replays bit-identically against a clean scheduler:
    // the resurrected shard continued the exact decision stream.
    let snap = report.flight.expect("flight recording present");
    assert_eq!(snap.total_dropped(), 0);
    let audit = cslack_sim::audit::audit_snapshot(&snap);
    assert!(audit.is_clean(), "{:?}", audit.violations);
    let replay = cslack_sim::audit::replay_snapshot(&snap, move |_, g| build(g)).unwrap();
    assert!(replay.is_identical(), "diverged: {:?}", replay.divergence);

    // (c) the observatory survived the restart: ratio windows closed,
    // every published value is finite, and the restart counters are up.
    let page = registry.render_prometheus();
    assert!(!page.contains("NaN"), "non-finite value published:\n{page}");
    assert!(
        page.contains("cslack_empirical_ratio"),
        "ratio windows must keep closing across a restart:\n{page}"
    );
    assert!(page.contains("cslack_shard_restarts_total 1"), "{page}");
    let recovered: u64 = stats.recovered_committed + stats.re_admitted;
    assert!(
        page.contains(&format!("cslack_recovered_jobs_total {recovered}")),
        "expected {recovered} recovered jobs in:\n{page}"
    );

    // (d) the crash snapshot written at failure time audits clean and
    // replays bit-identically — it is the artifact recovery rebuilt
    // the committed schedule from.
    let mut file = std::fs::File::open(&crash).unwrap();
    let crash_snap = FlightSnapshot::read_cfr(&mut file).unwrap();
    let crash_audit = cslack_sim::audit::audit_snapshot(&crash_snap);
    assert!(crash_audit.is_clean(), "{:?}", crash_audit.violations);
    let crash_replay =
        cslack_sim::audit::replay_snapshot(&crash_snap, move |_, g| build(g)).unwrap();
    assert!(
        crash_replay.is_identical(),
        "crash snapshot diverged: {:?}",
        crash_replay.divergence
    );
    let _ = std::fs::remove_file(&crash);
}

#[test]
fn restart_after_panic_greedy_family() {
    restart_after_panic_roundtrip("greedy", build_greedy);
}

#[test]
fn restart_after_panic_threshold_family() {
    restart_after_panic_roundtrip("threshold", build_threshold);
}

#[test]
fn restart_is_refused_without_flight_and_on_healthy_shards() {
    let engine = Engine::start(
        2,
        EngineConfig::new(2),
        one_shot_faulty("panic@0", build_greedy),
    )
    .unwrap();
    // A healthy shard cannot be "restarted".
    match engine.restart_shard(1) {
        Err(EngineError::Recovery { shard: 1, .. }) => {}
        other => panic!("expected Recovery refusal, got {other:?}"),
    }
    let _ = engine.submit(loose_job(0));
    wait_for_failed(&engine, 0);
    // Without a flight recorder there is nothing to replay from; the
    // refusal is typed and the shard stays reported as failed.
    match engine.restart_shard(0) {
        Err(EngineError::Recovery { shard: 0, reason }) => {
            assert!(reason.contains("flight"), "reason: {reason}");
        }
        other => panic!("expected Recovery refusal, got {other:?}"),
    }
    let report = engine.finish().expect("degraded finish");
    assert!(report.is_degraded());
    assert_eq!(report.recovery.restarts, 0);
}

#[test]
fn healthz_and_metrics_are_never_stale_across_fail_and_recover() {
    use std::io::{Read as _, Write as _};
    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    }
    let obs = ObsConfig {
        flight: Some(FlightConfig::new(4096, "greedy", 0.5, 0)),
        serve_metrics: Some("127.0.0.1:0".parse().unwrap()),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(
        2,
        EngineConfig::new(2),
        obs,
        one_shot_faulty("panic@0", build_greedy),
    )
    .unwrap();
    let addr = engine.metrics_addr().unwrap();

    // Healthy: 200, and prime the /metrics scrape cache.
    assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
    let before = get(addr, "/metrics");
    assert!(before.contains("cslack_shard_restarts_total 0"), "{before}");

    // Fail shard 0; the very next scrapes must see it — no 250 ms TTL
    // may serve the cached healthy page across the transition.
    let _ = engine.submit(loose_job(0));
    wait_for_failed(&engine, 0);
    let raw = get(addr, "/healthz");
    assert!(raw.starts_with("HTTP/1.1 503"), "stale healthz: {raw}");
    assert!(raw.contains("shard 0 failed"), "{raw}");

    // Recover; again the next scrapes must flip immediately.
    engine.restart_shard(0).expect("restart succeeds");
    let raw = get(addr, "/healthz");
    assert!(raw.starts_with("HTTP/1.1 200"), "stale healthz: {raw}");
    let after = get(addr, "/metrics");
    assert!(
        after.contains("cslack_shard_restarts_total 1"),
        "metrics page not rekeyed on health generation: {after}"
    );
    engine.finish().expect("healthy finish");
}

// ---------------------------------------------------------------------
// The queued_lost conservation identity, property-tested across
// failure positions, with one producer and with two racing the fault.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn queued_lost_conserves_jobs_across_failure_positions(pos in 0u64..45) {
        let engine = Engine::start(
            4,
            EngineConfig::new(2),
            faulty_greedy(0, &format!("panic@{pos}")),
        )
        .unwrap();
        let bounced = submit_tolerating_failure(&engine, 100);
        let report = engine.finish().expect("degraded finish");
        prop_assert!(report.is_degraded());
        let f = &report.degraded[0];
        prop_assert_eq!(f.seq, pos);
        // The identity: everything shard 0 received is decided (seq),
        // the failing job (1), or drained into queued_lost — and what
        // never got in bounced. The failing job must be counted once,
        // whatever its batch position.
        prop_assert_eq!(
            f.seq + 1 + f.queued_lost + bounced,
            50,
            "decided={} queued_lost={} bounced={bounced}",
            f.seq,
            f.queued_lost
        );
    }

    /// Two producers submit disjoint id ranges in batches while shard 0
    /// dies, so submissions race the fault-path drain. The small ring
    /// makes producers block on a full ring and be cut off mid-batch.
    /// A batch that returned `Ok` before the ring was poisoned must be
    /// drained into `queued_lost`; one that lost the race must bounce —
    /// never both, never neither.
    #[test]
    fn queued_lost_conserves_jobs_with_two_producers_racing_the_fault(pos in 0u64..190) {
        const PER_PRODUCER: u32 = 200;
        let mut config = EngineConfig::new(2);
        config.queue_capacity = 16;
        let engine =
            Engine::start(4, config, faulty_greedy(0, &format!("panic@{pos}"))).unwrap();
        let bounced = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for p in 0..2u32 {
                let (engine, bounced) = (&engine, &bounced);
                scope.spawn(move || {
                    let jobs: Vec<Job> = (p * PER_PRODUCER..(p + 1) * PER_PRODUCER)
                        .map(loose_job)
                        .collect();
                    let mut failures = Vec::new();
                    for chunk in jobs.chunks(7) {
                        engine.submit_batch_into(chunk, &mut failures);
                        for err in failures.drain(..) {
                            match err {
                                SubmitError::ShardFailed(j) => {
                                    assert_eq!(j.id.0 % 2, 0, "only shard 0 failed");
                                    bounced.fetch_add(1, Ordering::Relaxed);
                                }
                                other => panic!("unexpected submit error: {other}"),
                            }
                        }
                    }
                });
            }
        });
        let bounced = bounced.into_inner();
        let report = engine.finish().expect("degraded finish");
        prop_assert!(report.is_degraded());
        let f = &report.degraded[0];
        prop_assert_eq!(f.seq, pos);
        // Shard 0 owns the even ids: half of each producer's range.
        prop_assert_eq!(
            f.seq + 1 + f.queued_lost + bounced,
            u64::from(PER_PRODUCER),
            "decided={} queued_lost={} bounced={bounced}",
            f.seq,
            f.queued_lost
        );
    }
}
