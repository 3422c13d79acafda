//! Problem instances: a job sequence with a system slack and machine count.
//!
//! An [`Instance`] is the offline description of one run of the problem
//! `Pm | online, eps, immediate | sum p_j (1 - U_j)`. Jobs are stored in
//! submission order (which the simulator replays); ties in release dates are
//! broken by submission order, exactly as an online algorithm would see
//! them arrive.

use crate::error::KernelError;
use crate::job::{Job, JobId};
use crate::time::Time;
use crate::tol;
use serde::{Deserialize, Serialize};

/// An immutable problem instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Number of identical machines `m >= 1`.
    m: usize,
    /// System slack `eps > 0`. The paper's results target `eps` in `(0,1]`.
    eps: f64,
    /// Jobs in submission order, with non-decreasing release dates.
    jobs: Vec<Job>,
}

impl Instance {
    /// Reassembles an instance from recorded parts — the reconstruction
    /// path for flight-recorder replay and audit, where the jobs come
    /// from a trace rather than a generator.
    ///
    /// Jobs are sorted by id, which must come out dense (`0..n`, each
    /// exactly once): the engine assigns ids in submission order, so a
    /// gap means the recording is incomplete and no faithful replay is
    /// possible. Structural checks only (machine count, slack parameter,
    /// positive processing times, non-negative releases) — deliberately
    /// *not* the per-job slack condition, because a trace that violates
    /// it is exactly what an auditor needs to load and report on.
    pub fn from_parts(m: usize, eps: f64, mut jobs: Vec<Job>) -> Result<Instance, KernelError> {
        Instance::check_params(m, eps)?;
        jobs.sort_by_key(|j| j.id);
        for (idx, j) in jobs.iter().enumerate() {
            let expected = JobId(idx as u32);
            if j.id != expected {
                return Err(KernelError::NonDenseJobIds {
                    expected,
                    actual: j.id,
                });
            }
            if j.proc_time <= 0.0 || j.proc_time.is_nan() {
                return Err(KernelError::NonPositiveProcessing {
                    job: j.id,
                    proc_time: j.proc_time,
                });
            }
            if j.release.raw() < 0.0 {
                return Err(KernelError::NegativeRelease { job: j.id });
            }
        }
        Ok(Instance { m, eps, jobs })
    }

    /// Checks the parameters every instance needs: at least one machine
    /// and a positive finite slack. Callers that sample or size
    /// per-machine state from `(m, eps)` run it first, so a bad value
    /// comes back as this error rather than a panic further down.
    pub fn check_params(m: usize, eps: f64) -> Result<(), KernelError> {
        if m == 0 {
            return Err(KernelError::NoMachines);
        }
        if !(eps.is_finite() && eps > 0.0) {
            return Err(KernelError::InvalidSlack { eps });
        }
        Ok(())
    }

    /// Number of machines.
    #[inline]
    pub fn machines(&self) -> usize {
        self.m
    }

    /// System slack.
    #[inline]
    pub fn slack(&self) -> f64 {
        self.eps
    }

    /// The jobs in submission order.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the instance has no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Looks a job up by id.
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Total processing volume `sum p_j` of all jobs — the revenue an
    /// omniscient scheduler with infinite machines would collect, and a
    /// trivial upper bound on any schedule's load.
    pub fn total_load(&self) -> f64 {
        self.jobs.iter().map(|j| j.proc_time).sum()
    }

    /// Largest deadline in the instance (time horizon), or `ZERO` when
    /// empty. Infinite sentinel deadlines are skipped.
    pub fn horizon(&self) -> Time {
        self.jobs
            .iter()
            .map(|j| j.deadline)
            .filter(|d| d.raw().is_finite())
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Ratio of the largest to the smallest processing time (`Delta` in the
    /// related-work discussion). Returns 1.0 for empty instances.
    pub fn processing_time_spread(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for j in &self.jobs {
            lo = lo.min(j.proc_time);
            hi = hi.max(j.proc_time);
        }
        if self.jobs.is_empty() {
            1.0
        } else {
            hi / lo
        }
    }
}

/// Builder that validates jobs as they are added.
///
/// ```
/// use cslack_kernel::{InstanceBuilder, Time};
///
/// let inst = InstanceBuilder::new(2, 0.5)
///     .job(Time::ZERO, 1.0, Time::new(2.0))
///     .tight_job(Time::new(0.5), 2.0)
///     .build()
///     .unwrap();
/// assert_eq!(inst.len(), 2);
/// assert_eq!(inst.machines(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct InstanceBuilder {
    m: usize,
    eps: f64,
    jobs: Vec<Job>,
    errors: Vec<KernelError>,
}

impl InstanceBuilder {
    /// Starts an instance with `m` machines and system slack `eps`.
    pub fn new(m: usize, eps: f64) -> InstanceBuilder {
        InstanceBuilder {
            m,
            eps,
            jobs: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Pre-allocates capacity for `n` jobs.
    pub fn with_capacity(m: usize, eps: f64, n: usize) -> InstanceBuilder {
        InstanceBuilder {
            m,
            eps,
            jobs: Vec::with_capacity(n),
            errors: Vec::new(),
        }
    }

    /// Number of jobs added so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs have been added yet.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Adds a job `(release, proc_time, deadline)`; the id is assigned in
    /// submission order.
    pub fn job(mut self, release: Time, proc_time: f64, deadline: Time) -> Self {
        self.push(release, proc_time, deadline);
        self
    }

    /// Adds a job with tight slack `d = r + (1+eps) p`.
    pub fn tight_job(self, release: Time, proc_time: f64) -> Self {
        let eps = self.eps;
        let d = release + (1.0 + eps) * proc_time;
        self.job(release, proc_time, d)
    }

    /// Non-consuming variant of [`InstanceBuilder::job`] for loops.
    pub fn push(&mut self, release: Time, proc_time: f64, deadline: Time) -> JobId {
        let id = JobId(self.jobs.len() as u32);
        let j = Job::new(id, release, proc_time, deadline);
        if j.proc_time <= 0.0 || j.proc_time.is_nan() {
            self.errors.push(KernelError::NonPositiveProcessing {
                job: id,
                proc_time: j.proc_time,
            });
        }
        if j.release.raw() < 0.0 {
            self.errors.push(KernelError::NegativeRelease { job: id });
        }
        if !j.satisfies_slack(self.eps) {
            self.errors.push(KernelError::SlackViolation {
                job: id,
                required: (1.0 + self.eps) * j.proc_time + j.release.raw(),
                actual: j.deadline.raw(),
            });
        }
        self.jobs.push(j);
        id
    }

    /// Non-consuming variant of [`InstanceBuilder::tight_job`].
    pub fn push_tight(&mut self, release: Time, proc_time: f64) -> JobId {
        let d = release + (1.0 + self.eps) * proc_time;
        self.push(release, proc_time, d)
    }

    /// Finishes the instance, reporting the first accumulated validation
    /// error if any.
    pub fn build(self) -> Result<Instance, KernelError> {
        Instance::check_params(self.m, self.eps)?;
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        // Online arrival requires non-decreasing release dates in
        // submission order; tolerate tiny rounding inversions by nudging.
        let mut jobs = self.jobs;
        for i in 1..jobs.len() {
            let prev = jobs[i - 1].release;
            if jobs[i].release < prev {
                if tol::approx_eq(jobs[i].release.raw(), prev.raw()) {
                    jobs[i].release = prev;
                } else {
                    // Genuine inversion: stable sort by release, keeping
                    // submission order among ties, then re-id.
                    jobs.sort_by_key(|a| a.release);
                    for (idx, j) in jobs.iter_mut().enumerate() {
                        j.id = JobId(idx as u32);
                    }
                    break;
                }
            }
        }
        Ok(Instance {
            m: self.m,
            eps: self.eps,
            jobs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let inst = InstanceBuilder::new(1, 1.0)
            .job(Time::ZERO, 1.0, Time::new(10.0))
            .job(Time::new(1.0), 2.0, Time::new(10.0))
            .build()
            .unwrap();
        assert_eq!(inst.jobs()[0].id, JobId(0));
        assert_eq!(inst.jobs()[1].id, JobId(1));
        assert_eq!(inst.job(JobId(1)).proc_time, 2.0);
    }

    #[test]
    fn slack_violation_is_caught() {
        let err = InstanceBuilder::new(1, 1.0)
            .job(Time::ZERO, 1.0, Time::new(1.5)) // needs d >= 2
            .build()
            .unwrap_err();
        assert!(matches!(err, KernelError::SlackViolation { .. }));
    }

    #[test]
    fn zero_machines_and_bad_slack_are_rejected() {
        assert!(matches!(
            InstanceBuilder::new(0, 0.5).build(),
            Err(KernelError::NoMachines)
        ));
        assert!(matches!(
            InstanceBuilder::new(1, 0.0).build(),
            Err(KernelError::InvalidSlack { .. })
        ));
        for eps in [-0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                InstanceBuilder::new(1, eps).build(),
                Err(KernelError::InvalidSlack { .. })
            ));
        }
    }

    #[test]
    fn non_positive_processing_is_rejected() {
        let err = InstanceBuilder::new(1, 0.5)
            .job(Time::ZERO, 0.0, Time::new(1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, KernelError::NonPositiveProcessing { .. }));
    }

    #[test]
    fn out_of_order_releases_are_sorted_stably() {
        let inst = InstanceBuilder::new(1, 0.5)
            .job(Time::new(2.0), 1.0, Time::new(10.0))
            .job(Time::ZERO, 1.0, Time::new(10.0))
            .build()
            .unwrap();
        assert_eq!(inst.jobs()[0].release, Time::ZERO);
        assert_eq!(inst.jobs()[0].id, JobId(0)); // re-identified
        assert_eq!(inst.jobs()[1].release, Time::new(2.0));
    }

    #[test]
    fn total_load_and_horizon() {
        let inst = InstanceBuilder::new(2, 0.5)
            .job(Time::ZERO, 1.0, Time::new(4.0))
            .job(Time::ZERO, 3.0, Time::new(8.0))
            .build()
            .unwrap();
        assert_eq!(inst.total_load(), 4.0);
        assert_eq!(inst.horizon(), Time::new(8.0));
        assert_eq!(inst.processing_time_spread(), 3.0);
    }

    #[test]
    fn infinite_deadline_does_not_poison_horizon() {
        let inst = InstanceBuilder::new(1, 0.5)
            .job(Time::ZERO, 1.0, Time::new(f64::INFINITY))
            .job(Time::ZERO, 1.0, Time::new(5.0))
            .build()
            .unwrap();
        assert_eq!(inst.horizon(), Time::new(5.0));
    }

    #[test]
    fn tight_job_helper_uses_instance_slack() {
        let inst = InstanceBuilder::new(1, 0.25)
            .tight_job(Time::new(1.0), 4.0)
            .build()
            .unwrap();
        assert!(inst.jobs()[0].has_tight_slack(0.25));
        assert_eq!(inst.jobs()[0].deadline.raw(), 1.0 + 1.25 * 4.0);
    }

    #[test]
    fn from_parts_rebuilds_and_sorts_by_id() {
        let jobs = vec![
            Job::new(JobId(1), Time::new(2.0), 1.0, Time::new(10.0)),
            Job::new(JobId(0), Time::ZERO, 1.0, Time::new(10.0)),
        ];
        let inst = Instance::from_parts(2, 0.5, jobs).unwrap();
        assert_eq!(inst.machines(), 2);
        assert_eq!(inst.jobs()[0].id, JobId(0));
        assert_eq!(inst.jobs()[1].id, JobId(1));
    }

    #[test]
    fn from_parts_accepts_slack_violations_but_not_structural_junk() {
        // A slack-violating job loads fine — auditing it is the point.
        let tight = vec![Job::new(JobId(0), Time::ZERO, 1.0, Time::new(1.2))];
        assert!(Instance::from_parts(1, 1.0, tight).is_ok());

        let gap = vec![Job::new(JobId(1), Time::ZERO, 1.0, Time::new(9.0))];
        assert!(matches!(
            Instance::from_parts(1, 0.5, gap),
            Err(KernelError::NonDenseJobIds { .. })
        ));
        let dup = vec![
            Job::new(JobId(0), Time::ZERO, 1.0, Time::new(9.0)),
            Job::new(JobId(0), Time::ZERO, 1.0, Time::new(9.0)),
        ];
        assert!(matches!(
            Instance::from_parts(1, 0.5, dup),
            Err(KernelError::NonDenseJobIds { .. })
        ));
        assert!(matches!(
            Instance::from_parts(0, 0.5, vec![]),
            Err(KernelError::NoMachines)
        ));
        assert!(matches!(
            Instance::from_parts(1, 0.0, vec![]),
            Err(KernelError::InvalidSlack { .. })
        ));
        let bad_p = vec![Job::new(JobId(0), Time::ZERO, 0.0, Time::new(9.0))];
        assert!(matches!(
            Instance::from_parts(1, 0.5, bad_p),
            Err(KernelError::NonPositiveProcessing { .. })
        ));
    }

    #[test]
    fn serde_round_trip() {
        let inst = InstanceBuilder::new(2, 0.5)
            .job(Time::ZERO, 1.0, Time::new(4.0))
            .build()
            .unwrap();
        let s = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&s).unwrap();
        assert_eq!(back, inst);
    }
}
