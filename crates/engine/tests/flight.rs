//! Flight snapshots count decisions the way the worker counts them.
//!
//! A live snapshot (and a crash dump) has no engine totals to copy, so
//! it recounts its header from the decision records. That recount must
//! agree with the worker, the trace summary and the audit, including
//! for a reject whose scheduler gave no reason.

use cslack_algorithms::{Decision, DecisionInfo, OnlineScheduler};
use cslack_engine::{Engine, EngineConfig, FlightConfig, ObsConfig};
use cslack_kernel::{Job, JobId, Time};
use cslack_obs::{FlightSnapshot, RejectCounts};
use cslack_sim::audit::audit_snapshot;
use std::time::{Duration, Instant};

/// Rejects every job and says nothing about why.
struct Mute;

impl OnlineScheduler for Mute {
    fn name(&self) -> &'static str {
        "mute"
    }
    fn machines(&self) -> usize {
        1
    }
    fn offer(&mut self, _job: &Job) -> Decision {
        Decision::Reject
    }
    fn offer_explained(&mut self, _job: &Job) -> (Decision, DecisionInfo) {
        (Decision::Reject, DecisionInfo::default())
    }
    fn reset(&mut self) {}
}

/// Asserts `snap` holds `n` reasonless rejects, counts them as
/// unattributed, and audits clean.
fn assert_unattributed(snap: &FlightSnapshot, n: u64, which: &str) {
    let expected = RejectCounts {
        unattributed: n,
        ..RejectCounts::default()
    };
    assert_eq!(snap.header.submitted, n, "{which}");
    assert_eq!(snap.header.accepted, 0, "{which}");
    assert_eq!(snap.header.rejected, expected, "{which}");
    let audit = audit_snapshot(snap);
    assert!(audit.counters_checked, "{which}");
    assert!(audit.is_clean(), "{which}: {:?}", audit.violations);
}

#[test]
fn reasonless_rejects_count_as_unattributed_in_every_snapshot() {
    let obs = ObsConfig {
        flight: Some(FlightConfig::new(64, "mute", 0.5, 0)),
        ..ObsConfig::default()
    };
    let engine =
        Engine::start_observed(1, EngineConfig::new(1), obs, |_, _| Box::new(Mute)).unwrap();
    for id in 0..5 {
        engine
            .submit(Job::new(JobId(id), Time::ZERO, 1.0, Time::new(9.0)))
            .unwrap();
    }
    // The live snapshot of a still-running engine, once all five are
    // decided.
    let deadline = Instant::now() + Duration::from_secs(10);
    let live = loop {
        let snap = engine.flight_snapshot().expect("flight recording on");
        if snap.decisions().len() == 5 {
            break snap;
        }
        assert!(Instant::now() < deadline, "five decisions never landed");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(live.decisions().iter().all(|d| d.reject_reason.is_none()));
    assert_unattributed(&live, 5, "live snapshot");

    let report = engine.finish().unwrap();
    assert_eq!(report.metrics.rejected_by_reason.unattributed, 5);
    assert_unattributed(
        &report.flight.expect("flight recording on"),
        5,
        "finish snapshot",
    );
}
