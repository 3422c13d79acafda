//! The shared allocator core behind every append-style algorithm.
//!
//! Threshold, Greedy, the ablation variants, Lee's classifier and the
//! delayed-commitment comparator all used to carry their own copy of the
//! same decision machinery: rank the machines, scan the ranked view for
//! candidates that can still complete the job by its deadline, pick one
//! by an allocation policy, pick a start time by a start policy, commit.
//! [`AllocCore`] centralizes that machinery over one [`MachinePark`],
//! parameterized by [`AllocPolicy`] / [`StartPolicy`] / [`RankingMode`],
//! so all algorithms share the (now incremental) ranking path and a
//! reusable rank buffer instead of a fresh allocation per offer.
//!
//! The ranked view produced for one instant is cached: an algorithm that
//! first reads the ranking (threshold evaluation) and then places the job
//! at the same instant pays for it once. Any commit invalidates the
//! cache.

use crate::park::{MachinePark, RankedMachine};
use cslack_kernel::{Job, MachineId, Time};

/// Which machine among the feasible candidates receives an accepted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Paper's choice: the most loaded candidate ("best fit").
    BestFit,
    /// Ablation: the least loaded candidate ("worst fit").
    WorstFit,
}

/// When an accepted job is started on its machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartPolicy {
    /// Paper's choice: immediately after the machine's outstanding load.
    Earliest,
    /// Ablation: as late as the deadline allows (`d_j - p_j`).
    Latest,
}

/// How the ranked machine view is produced.
///
/// Both modes yield bit-identical sequences (property-tested, and
/// checked on the default workloads at m = 8 and 64); the sort-based
/// mode exists as the reference for the incremental ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RankingMode {
    /// Incrementally maintained frontier ladder (default; `O(log m)`
    /// repair per accept instead of a sort per offer).
    #[default]
    Incremental,
    /// Full stable sort per offer — the pre-refactor reference path.
    FullSort,
}

/// Outcome of [`AllocCore::place`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Placement {
    /// The job was committed.
    Committed {
        /// The machine the job is bound to.
        machine: MachineId,
        /// The committed start time.
        start: Time,
        /// Ranked machines the candidate scan evaluated.
        evaluated: u32,
    },
    /// No machine can complete the job by its deadline.
    Infeasible {
        /// Ranked machines the candidate scan evaluated.
        evaluated: u32,
    },
}

/// One [`MachinePark`] plus the shared candidate-scan/placement logic
/// and a reusable, instant-cached rank buffer.
#[derive(Clone, Debug)]
pub struct AllocCore {
    park: MachinePark,
    mode: RankingMode,
    rank_buf: Vec<RankedMachine>,
    /// `Some(now)` while `rank_buf` holds the ranking for instant `now`
    /// (exact-bit comparison; any commit clears it).
    valid_for: Option<Time>,
}

impl AllocCore {
    /// An idle core over `m` machines with the default (incremental)
    /// ranking mode.
    pub fn new(m: usize) -> AllocCore {
        AllocCore::with_mode(m, RankingMode::default())
    }

    /// An idle core over `m` machines with an explicit ranking mode.
    pub fn with_mode(m: usize, mode: RankingMode) -> AllocCore {
        AllocCore {
            park: MachinePark::new(m),
            mode,
            rank_buf: Vec::with_capacity(m),
            valid_for: None,
        }
    }

    /// Number of machines.
    #[inline]
    pub fn machines(&self) -> usize {
        self.park.machines()
    }

    /// The ranking mode in use.
    #[inline]
    pub fn mode(&self) -> RankingMode {
        self.mode
    }

    /// Read access to the underlying park (frontiers, outstanding loads).
    #[inline]
    pub fn park(&self) -> &MachinePark {
        &self.park
    }

    /// Earliest feasible start of a new job on `machine` at `now`.
    #[inline]
    pub fn earliest_start(&self, machine: MachineId, now: Time) -> Time {
        self.park.earliest_start(machine, now)
    }

    /// Whether `machine` can complete `job` by its deadline when started
    /// right after its outstanding load.
    #[inline]
    fn feasible(park: &MachinePark, machine: MachineId, job: &Job, now: Time) -> bool {
        (park.earliest_start(machine, now) + job.proc_time).approx_le(job.deadline)
    }

    /// Ensures `rank_buf` holds the ranking for `now`.
    fn ensure_ranked(&mut self, now: Time) {
        if self.valid_for == Some(now) {
            return;
        }
        match self.mode {
            RankingMode::Incremental => self.park.ranked_into(now, &mut self.rank_buf),
            RankingMode::FullSort => {
                self.rank_buf.clear();
                self.rank_buf.extend(self.park.ranked(now));
            }
        }
        self.valid_for = Some(now);
    }

    /// The machines ranked by decreasing outstanding load at `now`
    /// (paper's dynamic index: element `h - 1` is machine `m_h`).
    pub fn rank(&mut self, now: Time) -> &[RankedMachine] {
        self.ensure_ranked(now);
        &self.rank_buf
    }

    /// Outstanding load of the least loaded machine at `now`.
    pub fn min_load(&mut self, now: Time) -> f64 {
        self.ensure_ranked(now);
        self.rank_buf.last().expect("m >= 1").load
    }

    /// Scans the ranked view for the policy's candidate: the most loaded
    /// feasible machine for [`AllocPolicy::BestFit`], the least loaded
    /// for [`AllocPolicy::WorstFit`]. Returns the number of machines the
    /// scan evaluated (including the chosen one) and the choice.
    pub fn select(&mut self, job: &Job, now: Time, alloc: AllocPolicy) -> (u32, Option<MachineId>) {
        self.ensure_ranked(now);
        let park = &self.park;
        let mut evaluated = 0u32;
        let chosen = match alloc {
            // The view is sorted by decreasing load, so the first
            // feasible entry is the most loaded candidate, the last the
            // least.
            AllocPolicy::BestFit => self.rank_buf.iter().find(|rm| {
                evaluated += 1;
                Self::feasible(park, rm.machine, job, now)
            }),
            AllocPolicy::WorstFit => self.rank_buf.iter().rev().find(|rm| {
                evaluated += 1;
                Self::feasible(park, rm.machine, job, now)
            }),
        };
        (evaluated, chosen.map(|rm| rm.machine))
    }

    /// All machines that can complete `job` by its deadline, most loaded
    /// first (best-fit order).
    pub fn candidates(&mut self, job: &Job, now: Time) -> Vec<MachineId> {
        self.ensure_ranked(now);
        let park = &self.park;
        self.rank_buf
            .iter()
            .filter(|rm| Self::feasible(park, rm.machine, job, now))
            .map(|rm| rm.machine)
            .collect()
    }

    /// Full placement: select a candidate under `alloc`, derive the start
    /// time under `start`, and commit. Does nothing on
    /// [`Placement::Infeasible`].
    pub fn place(
        &mut self,
        job: &Job,
        now: Time,
        alloc: AllocPolicy,
        start: StartPolicy,
    ) -> Placement {
        let (evaluated, chosen) = self.select(job, now, alloc);
        let Some(machine) = chosen else {
            return Placement::Infeasible { evaluated };
        };
        let earliest = self.park.earliest_start(machine, now);
        let start = match start {
            StartPolicy::Earliest => earliest,
            StartPolicy::Latest => (job.deadline - job.proc_time).max(earliest),
        };
        self.commit(machine, start, job.proc_time);
        Placement::Committed {
            machine,
            start,
            evaluated,
        }
    }

    /// Placement onto one *fixed* machine (Lee's class reservation):
    /// commits at the earliest start iff the deadline is met, returning
    /// the start time on success.
    pub fn place_on(&mut self, machine: MachineId, job: &Job, now: Time) -> Option<Time> {
        let start = self.park.earliest_start(machine, now);
        if !(start + job.proc_time).approx_le(job.deadline) {
            return None;
        }
        self.commit(machine, start, job.proc_time);
        Some(start)
    }

    /// Records a commitment and invalidates the cached ranking.
    pub fn commit(&mut self, machine: MachineId, start: Time, proc_time: f64) {
        self.park.commit(machine, start, proc_time);
        self.valid_for = None;
    }

    /// Forgets everything (all machines idle again).
    pub fn reset(&mut self) {
        self.park.reset();
        self.rank_buf.clear();
        self.valid_for = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_kernel::{JobId, Time};

    fn job(id: u32, r: f64, p: f64, d: f64) -> Job {
        Job::new(JobId(id), Time::new(r), p, Time::new(d))
    }

    #[test]
    fn best_fit_and_worst_fit_pick_opposite_ends() {
        let mut core = AllocCore::new(3);
        core.commit(MachineId(0), Time::ZERO, 5.0);
        core.commit(MachineId(1), Time::ZERO, 2.0);
        let j = job(0, 0.0, 1.0, 100.0);
        let (_, best) = core.select(&j, Time::ZERO, AllocPolicy::BestFit);
        let (_, worst) = core.select(&j, Time::ZERO, AllocPolicy::WorstFit);
        assert_eq!(best, Some(MachineId(0)));
        assert_eq!(worst, Some(MachineId(2)));
    }

    #[test]
    fn select_skips_infeasible_prefix_and_counts_evaluations() {
        let mut core = AllocCore::new(2);
        core.commit(MachineId(0), Time::ZERO, 4.0);
        // Deadline 3 can't wait for load 4: falls through to idle M1.
        let j = job(0, 0.0, 1.0, 3.0);
        let (evaluated, chosen) = core.select(&j, Time::ZERO, AllocPolicy::BestFit);
        assert_eq!(chosen, Some(MachineId(1)));
        assert_eq!(evaluated, 2);
    }

    #[test]
    fn place_latest_defers_to_deadline() {
        let mut core = AllocCore::new(1);
        match core.place(
            &job(0, 0.0, 1.0, 10.0),
            Time::ZERO,
            AllocPolicy::BestFit,
            StartPolicy::Latest,
        ) {
            Placement::Committed { start, .. } => assert_eq!(start, Time::new(9.0)),
            p => panic!("unexpected {p:?}"),
        }
    }

    #[test]
    fn place_reports_infeasible_without_committing() {
        let mut core = AllocCore::new(1);
        core.commit(MachineId(0), Time::ZERO, 5.0);
        let before = core.park().frontier(MachineId(0));
        match core.place(
            &job(0, 0.0, 2.0, 3.0),
            Time::ZERO,
            AllocPolicy::BestFit,
            StartPolicy::Earliest,
        ) {
            Placement::Infeasible { evaluated } => assert_eq!(evaluated, 1),
            p => panic!("unexpected {p:?}"),
        }
        assert_eq!(core.park().frontier(MachineId(0)), before);
    }

    #[test]
    fn rank_cache_survives_reads_and_dies_on_commit() {
        let mut core = AllocCore::new(2);
        core.commit(MachineId(1), Time::ZERO, 2.0);
        let first = core.rank(Time::ZERO).to_vec();
        // Second read at the same instant: served from the cache.
        assert_eq!(core.rank(Time::ZERO), &first[..]);
        core.commit(MachineId(0), Time::ZERO, 7.0);
        let after = core.rank(Time::ZERO).to_vec();
        assert_eq!(after[0].machine, MachineId(0));
        assert_eq!(after[0].load, 7.0);
    }

    #[test]
    fn candidates_preserve_best_fit_order() {
        let mut core = AllocCore::new(3);
        core.commit(MachineId(2), Time::ZERO, 3.0);
        core.commit(MachineId(0), Time::ZERO, 1.0);
        let j = job(0, 0.0, 1.0, 100.0);
        assert_eq!(
            core.candidates(&j, Time::ZERO),
            vec![MachineId(2), MachineId(0), MachineId(1)]
        );
        // A tight deadline filters the loaded machines out.
        let tight = job(1, 0.0, 1.0, 1.5);
        assert_eq!(core.candidates(&tight, Time::ZERO), vec![MachineId(1)]);
    }

    #[test]
    fn place_on_respects_the_fixed_machine() {
        let mut core = AllocCore::new(2);
        core.commit(MachineId(0), Time::ZERO, 2.0);
        let j = job(0, 0.0, 1.0, 1.5);
        // M0 is clogged; the fixed-machine placement must NOT fall over
        // to M1.
        assert_eq!(core.place_on(MachineId(0), &j, Time::ZERO), None);
        assert_eq!(
            core.place_on(MachineId(1), &j, Time::ZERO),
            Some(Time::ZERO)
        );
    }

    #[test]
    fn both_modes_agree_on_decisions() {
        let mut inc = AllocCore::with_mode(3, RankingMode::Incremental);
        let mut srt = AllocCore::with_mode(3, RankingMode::FullSort);
        let jobs = [
            job(0, 0.0, 2.0, 9.0),
            job(1, 0.0, 2.0, 9.0),
            job(2, 0.5, 1.0, 2.0),
            job(3, 2.0, 3.0, 20.0),
            job(4, 2.0, 0.5, 2.6),
        ];
        for j in &jobs {
            let a = inc.place(j, j.release, AllocPolicy::BestFit, StartPolicy::Earliest);
            let b = srt.place(j, j.release, AllocPolicy::BestFit, StartPolicy::Earliest);
            assert_eq!(a, b, "modes diverged on {:?}", j.id);
        }
    }
}
