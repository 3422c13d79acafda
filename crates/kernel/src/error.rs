//! Error types shared across the workspace.

use crate::job::JobId;
use crate::schedule::MachineId;
use std::fmt;

/// Errors produced while building instances or mutating schedules.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelError {
    /// A job violates the slack condition (3) for the instance slack.
    SlackViolation {
        /// Offending job.
        job: JobId,
        /// Required minimum deadline `(1+eps)p + r`.
        required: f64,
        /// Actual deadline.
        actual: f64,
    },
    /// A job has a non-positive processing time.
    NonPositiveProcessing {
        /// Offending job.
        job: JobId,
        /// The processing time supplied.
        proc_time: f64,
    },
    /// A job's release date is negative.
    NegativeRelease {
        /// Offending job.
        job: JobId,
    },
    /// The instance slack parameter is not a positive finite number.
    /// The paper's theory targets `(0, 1]`, but any positive finite
    /// slack is accepted.
    InvalidSlack {
        /// The slack supplied.
        eps: f64,
    },
    /// Zero machines requested.
    NoMachines,
    /// A machine index out of range for the schedule.
    BadMachine {
        /// The machine supplied.
        machine: MachineId,
        /// Number of machines in the schedule.
        m: usize,
    },
    /// A commitment would start a job before its release date.
    StartBeforeRelease {
        /// Offending job.
        job: JobId,
    },
    /// A commitment would complete a job after its deadline.
    DeadlineMiss {
        /// Offending job.
        job: JobId,
        /// The would-be completion time.
        completion: f64,
        /// The job deadline.
        deadline: f64,
    },
    /// A commitment would overlap an existing commitment on the machine.
    Overlap {
        /// Offending job.
        job: JobId,
        /// The already-committed job it collides with.
        existing: JobId,
        /// Machine where the collision occurs.
        machine: MachineId,
    },
    /// The same job was committed twice (commitments are irrevocable and
    /// unique).
    DuplicateCommitment {
        /// Offending job.
        job: JobId,
    },
    /// Reconstructing an instance from recorded parts found a missing or
    /// duplicated job id — ids must be dense `0..n` in submission order.
    NonDenseJobIds {
        /// The id expected at this position.
        expected: JobId,
        /// The id actually found.
        actual: JobId,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::SlackViolation {
                job,
                required,
                actual,
            } => write!(
                f,
                "{job} violates slack condition: deadline {actual} < required {required}"
            ),
            KernelError::NonPositiveProcessing { job, proc_time } => {
                write!(f, "{job} has non-positive processing time {proc_time}")
            }
            KernelError::NegativeRelease { job } => {
                write!(f, "{job} has a negative release date")
            }
            KernelError::InvalidSlack { eps } => {
                write!(
                    f,
                    "slack parameter eps={eps} must be a positive finite number"
                )
            }
            KernelError::NoMachines => write!(f, "m = 0: an instance needs at least one machine"),
            KernelError::BadMachine { machine, m } => {
                write!(f, "machine {machine} out of range (m={m})")
            }
            KernelError::StartBeforeRelease { job } => {
                write!(f, "{job} committed to start before its release date")
            }
            KernelError::DeadlineMiss {
                job,
                completion,
                deadline,
            } => write!(
                f,
                "{job} would complete at {completion}, after its deadline {deadline}"
            ),
            KernelError::Overlap {
                job,
                existing,
                machine,
            } => write!(f, "{job} overlaps {existing} on machine {machine}"),
            KernelError::DuplicateCommitment { job } => {
                write!(f, "{job} committed more than once")
            }
            KernelError::NonDenseJobIds { expected, actual } => {
                write!(
                    f,
                    "job ids are not dense: expected {expected}, found {actual}"
                )
            }
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = KernelError::DeadlineMiss {
            job: JobId(4),
            completion: 5.0,
            deadline: 4.5,
        };
        let s = e.to_string();
        assert!(s.contains("J4"));
        assert!(s.contains("5"));
        assert!(s.contains("4.5"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(KernelError::NoMachines, KernelError::NoMachines);
        assert_ne!(
            KernelError::NoMachines,
            KernelError::InvalidSlack { eps: 0.0 }
        );
    }
}
