//! The engine under sustained backpressure: one producer feeding a
//! one-shard engine whose queue holds two batches waits for room on
//! nearly every push, and still every job is enqueued, decided exactly
//! as the single-threaded simulator decides it, and recorded so that
//! the flight recording replays bit-identically and audits clean.

use cslack_engine::{Engine, EngineConfig, FlightConfig, ObsConfig};
use cslack_sim::audit::{audit_snapshot, replay_snapshot};
use cslack_sim::simulate;
use cslack_sim::sweep::AlgoKind;
use cslack_workloads::scenarios::bursty_heavy_tail;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Jobs per `submit_batch_into` call, and per worker wakeup.
const BATCH: usize = 64;

#[test]
fn a_backpressured_producer_gets_the_simulators_decisions() {
    let (m, eps, n) = (8, 0.25, 1 << 14);
    // A lost wakeup leaves the producer or the worker asleep for good:
    // the scenario runs on its own thread so that fails the test instead
    // of hanging it.
    let (done, result) = mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let inst = bursty_heavy_tail(m, eps, n, 11);
        let config = EngineConfig {
            queue_capacity: 2 * BATCH,
            batch_size: BATCH,
            ..EngineConfig::new(1)
        };
        let obs = ObsConfig {
            flight: Some(FlightConfig::new(n, "threshold", eps, 0)),
            ..ObsConfig::default()
        };
        let engine = Engine::start_observed(m, config, obs, move |_, group| {
            AlgoKind::Threshold.build(group, eps, 0)
        })
        .expect("engine start");
        let mut failures = Vec::new();
        let mut enqueued = 0;
        for chunk in inst.jobs().chunks(BATCH) {
            enqueued += engine.submit_batch_into(chunk, &mut failures);
            assert!(failures.is_empty(), "{failures:?}");
        }
        let stalls = engine.backpressure_stalls();
        let report = engine.finish().expect("finish");
        done.send((inst, enqueued, stalls, report)).unwrap();
    });
    let (inst, enqueued, stalls, report) = match result.recv_timeout(Duration::from_secs(10)) {
        Ok(outcome) => {
            scenario.join().expect("the scenario thread returns");
            outcome
        }
        Err(RecvTimeoutError::Disconnected) => match scenario.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the scenario sends its outcome before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("the scenario did not finish within 10 s"),
    };

    assert_eq!(enqueued, n);
    assert!(stalls > 0, "the producer never waited for room");

    let reference = simulate(&inst, &mut *AlgoKind::Threshold.build(m, eps, 0)).unwrap();
    assert_eq!(report.schedule.len(), reference.schedule.len());
    for machine in 0..m {
        let machine = cslack_kernel::MachineId(machine as u32);
        assert_eq!(
            report.schedule.lane(machine),
            reference.schedule.lane(machine),
            "lane {machine}"
        );
    }

    let snap = report.flight.expect("flight recording");
    assert_eq!(snap.total_dropped(), 0);
    let replay = replay_snapshot(&snap, |_, group| AlgoKind::Threshold.build(group, eps, 0))
        .expect("replay runs");
    assert!(replay.is_identical(), "diverged: {:?}", replay.divergence);
    assert_eq!(replay.decisions_replayed, n as u64);
    let audit = audit_snapshot(&snap);
    assert!(audit.is_clean(), "{:?}", audit.violations);
}
