//! # cslack-sim
//!
//! The event-driven simulation driver for `cslack`: it replays an
//! [`Instance`] through an [`OnlineScheduler`], treats every returned
//! [`Decision`] as an *irrevocable commitment* (committing it to the
//! authoritative [`Schedule`] and failing the run on any violation), and
//! produces a [`SimReport`] with the objective value and diagnostics.
//!
//! The driver is deliberately paranoid: algorithms are untrusted. A
//! commitment that starts before the release date, misses the deadline,
//! overlaps another commitment, or reuses a job id aborts the simulation
//! with [`SimError`] — the test suite injects misbehaving schedulers to
//! verify each path.
//!
//! [`sweep`] runs (algorithm × parameter grid × seed) experiments in
//! parallel with rayon.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod audit;
pub mod fault;
pub mod sweep;

use cslack_algorithms::{Decision, OnlineScheduler};
use cslack_kernel::{
    validate_schedule, Instance, Job, JobId, KernelError, Schedule, ValidationReport,
};
use serde::Serialize;
use std::fmt;

/// A failed simulation: the algorithm violated the commitment contract.
#[derive(Debug)]
pub enum SimError {
    /// The algorithm schedules a different machine count than the
    /// instance provides.
    MachineMismatch {
        /// Machines the algorithm claims to use.
        algorithm: usize,
        /// Machines in the instance.
        instance: usize,
    },
    /// A commitment was rejected by the authoritative schedule.
    BadCommitment {
        /// The job whose commitment failed.
        job: JobId,
        /// The underlying kernel error.
        source: KernelError,
    },
    /// The final schedule failed independent validation.
    InvalidSchedule(ValidationReport),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MachineMismatch {
                algorithm,
                instance,
            } => write!(
                f,
                "algorithm schedules {algorithm} machines, instance has {instance}"
            ),
            SimError::BadCommitment { job, source } => {
                write!(f, "invalid commitment for {job}: {source}")
            }
            SimError::InvalidSchedule(report) => {
                write!(f, "final schedule invalid: {:?}", report.violations)
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of one simulated run.
#[derive(Clone, Debug, Serialize)]
pub struct SimReport {
    /// Name of the algorithm that produced the run.
    pub algorithm: String,
    /// The final committed schedule.
    pub schedule: Schedule,
    /// Per-job decisions in submission order (`None` start = rejected).
    pub decisions: Vec<JobDecision>,
    /// Total offered processing volume (`sum p_j` over all jobs).
    pub offered_load: f64,
}

/// One recorded decision.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct JobDecision {
    /// The job the decision concerns.
    pub job: JobId,
    /// `true` iff accepted.
    pub accepted: bool,
}

impl SimReport {
    /// The objective value `sum p_j (1 - U_j)`.
    pub fn accepted_load(&self) -> f64 {
        self.schedule.accepted_load()
    }

    /// Number of accepted jobs.
    pub fn accepted_count(&self) -> usize {
        self.schedule.len()
    }

    /// Number of rejected jobs.
    pub fn rejected_count(&self) -> usize {
        self.decisions.len() - self.schedule.len()
    }

    /// Fraction of jobs accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.decisions.is_empty() {
            1.0
        } else {
            self.accepted_count() as f64 / self.decisions.len() as f64
        }
    }

    /// Fraction of the offered volume that was accepted.
    pub fn load_fraction(&self) -> f64 {
        if self.offered_load <= 0.0 {
            1.0
        } else {
            self.accepted_load() / self.offered_load
        }
    }

    /// The measured competitive ratio against a given optimum (or bound).
    pub fn ratio_against(&self, opt: f64) -> f64 {
        if self.accepted_load() <= 0.0 {
            if opt <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            opt / self.accepted_load()
        }
    }
}

/// Applies one irrevocable [`Decision`] to the authoritative schedule,
/// enforcing the commitment contract.
///
/// Returns `Ok(true)` if the job was accepted and committed, `Ok(false)`
/// if it was rejected, and [`SimError::BadCommitment`] if the decision
/// violates any schedule invariant (release, deadline, overlap,
/// duplicate id). This is the single contract-check shared by the
/// sequential [`simulate`] driver and the sharded service engine: both
/// treat algorithms as untrusted.
pub fn apply_decision(
    schedule: &mut Schedule,
    job: &Job,
    decision: Decision,
) -> Result<bool, SimError> {
    match decision {
        Decision::Accept { machine, start } => {
            schedule
                .commit(*job, machine, start)
                .map_err(|source| SimError::BadCommitment {
                    job: job.id,
                    source,
                })?;
            Ok(true)
        }
        Decision::Reject => Ok(false),
    }
}

/// Replays `instance` through `algorithm`, enforcing commitments.
pub fn simulate(
    instance: &Instance,
    algorithm: &mut dyn OnlineScheduler,
) -> Result<SimReport, SimError> {
    if algorithm.machines() != instance.machines() {
        return Err(SimError::MachineMismatch {
            algorithm: algorithm.machines(),
            instance: instance.machines(),
        });
    }
    let mut schedule = Schedule::new(instance.machines());
    let mut decisions = Vec::with_capacity(instance.len());
    for job in instance.jobs() {
        let decision = algorithm.offer(job);
        let accepted = apply_decision(&mut schedule, job, decision)?;
        decisions.push(JobDecision {
            job: job.id,
            accepted,
        });
    }
    let validation = validate_schedule(instance, &schedule);
    if !validation.is_valid() {
        return Err(SimError::InvalidSchedule(validation));
    }
    Ok(SimReport {
        algorithm: algorithm.name().to_string(),
        schedule,
        decisions,
        offered_load: instance.total_load(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_algorithms::{Greedy, Threshold};
    use cslack_kernel::{InstanceBuilder, Job, MachineId, Time};

    fn smoke_instance() -> Instance {
        InstanceBuilder::new(2, 0.5)
            .tight_job(Time::ZERO, 1.0)
            .tight_job(Time::ZERO, 1.0)
            .tight_job(Time::ZERO, 1.0)
            .job(Time::new(0.5), 2.0, Time::new(10.0))
            .build()
            .unwrap()
    }

    #[test]
    fn greedy_run_produces_valid_report() {
        let inst = smoke_instance();
        let mut alg = Greedy::new(2);
        let report = simulate(&inst, &mut alg).unwrap();
        assert_eq!(report.algorithm, "greedy");
        assert_eq!(report.decisions.len(), 4);
        assert!(report.accepted_load() > 0.0);
        assert!(report.acceptance_rate() > 0.0 && report.acceptance_rate() <= 1.0);
        assert!(report.load_fraction() <= 1.0 + 1e-12);
        assert_eq!(
            report.accepted_count() + report.rejected_count(),
            inst.len()
        );
    }

    #[test]
    fn threshold_run_is_reproducible() {
        let inst = smoke_instance();
        let r1 = simulate(&inst, &mut Threshold::for_instance(&inst)).unwrap();
        let r2 = simulate(&inst, &mut Threshold::for_instance(&inst)).unwrap();
        assert_eq!(r1.decisions, r2.decisions);
        assert_eq!(r1.accepted_load(), r2.accepted_load());
    }

    #[test]
    fn machine_mismatch_is_rejected() {
        let inst = smoke_instance(); // m = 2
        let mut alg = Greedy::new(3);
        assert!(matches!(
            simulate(&inst, &mut alg),
            Err(SimError::MachineMismatch { .. })
        ));
    }

    #[test]
    fn ratio_against_handles_zero_load() {
        let inst = smoke_instance();
        let report = simulate(&inst, &mut Greedy::new(2)).unwrap();
        assert!(report.ratio_against(report.accepted_load()) - 1.0 < 1e-12);
        let empty = SimReport {
            algorithm: "x".into(),
            schedule: Schedule::new(1),
            decisions: vec![],
            offered_load: 0.0,
        };
        assert_eq!(empty.ratio_against(5.0), f64::INFINITY);
        assert_eq!(empty.ratio_against(0.0), 1.0);
    }

    // ---- failure injection: misbehaving schedulers -------------------

    /// A scheduler that commits the job before its release date.
    struct StartsEarly;
    impl OnlineScheduler for StartsEarly {
        fn name(&self) -> &'static str {
            "starts-early"
        }
        fn machines(&self) -> usize {
            2
        }
        fn offer(&mut self, job: &Job) -> Decision {
            Decision::Accept {
                machine: MachineId(0),
                start: job.release - 1.0,
            }
        }
        fn reset(&mut self) {}
    }

    /// A scheduler that overlaps everything on machine 0 at time 0.
    struct Overlapper;
    impl OnlineScheduler for Overlapper {
        fn name(&self) -> &'static str {
            "overlapper"
        }
        fn machines(&self) -> usize {
            2
        }
        fn offer(&mut self, _job: &Job) -> Decision {
            Decision::Accept {
                machine: MachineId(0),
                start: Time::ZERO,
            }
        }
        fn reset(&mut self) {}
    }

    /// A scheduler that misses deadlines deliberately.
    struct MissesDeadline;
    impl OnlineScheduler for MissesDeadline {
        fn name(&self) -> &'static str {
            "misses-deadline"
        }
        fn machines(&self) -> usize {
            2
        }
        fn offer(&mut self, job: &Job) -> Decision {
            Decision::Accept {
                machine: MachineId(1),
                start: job.deadline, // completes p after the deadline
            }
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn early_start_is_caught() {
        // Release at 1.0 so `release - 1.0` is a valid Time (>= 0).
        let inst = InstanceBuilder::new(2, 0.5)
            .tight_job(Time::new(1.0), 1.0)
            .build()
            .unwrap();
        match simulate(&inst, &mut StartsEarly) {
            Err(SimError::BadCommitment { job, source }) => {
                assert_eq!(job, JobId(0));
                assert!(matches!(source, KernelError::StartBeforeRelease { .. }));
            }
            other => panic!("expected BadCommitment, got {other:?}"),
        }
    }

    #[test]
    fn overlap_is_caught() {
        let inst = InstanceBuilder::new(2, 0.5)
            .job(Time::ZERO, 1.0, Time::new(9.0))
            .job(Time::ZERO, 1.0, Time::new(9.0))
            .build()
            .unwrap();
        match simulate(&inst, &mut Overlapper) {
            Err(SimError::BadCommitment { source, .. }) => {
                assert!(matches!(source, KernelError::Overlap { .. }));
            }
            other => panic!("expected overlap error, got {other:?}"),
        }
    }

    #[test]
    fn deadline_miss_is_caught() {
        let inst = smoke_instance();
        match simulate(&inst, &mut MissesDeadline) {
            Err(SimError::BadCommitment { source, .. }) => {
                assert!(matches!(source, KernelError::DeadlineMiss { .. }));
            }
            other => panic!("expected deadline miss, got {other:?}"),
        }
    }

    #[test]
    fn sim_error_display_is_informative() {
        let e = SimError::MachineMismatch {
            algorithm: 3,
            instance: 2,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('2'));
    }
}
