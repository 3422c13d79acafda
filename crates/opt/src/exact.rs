//! Exact offline maximum-load solver (small instances).
//!
//! Depth-first branch-and-bound over left-shifted schedules. A node is a
//! partial schedule: the machine *frontiers* (completion time of the
//! last job on each machine) and the path of `(job, machine, start)`
//! appends that built it. A child appends one remaining job `j` to a
//! machine at `start = max(r_j, frontier)`, and only when `(start, j)`
//! comes strictly after the last append's `(start, job)`. Every feasible
//! schedule can be left-shifted (each job starts at its release or at
//! its machine predecessor's completion), and listed in increasing
//! `(start, job index)` order it is one of the search's paths, so the
//! search is exact.
//!
//! Two rules drop children that cannot do better than a sibling.
//! Machines with equal frontiers are interchangeable, so they are tried
//! once. A job that can start at its release goes only on the busiest
//! machine already idle by then: swapping two idle machines' later jobs
//! turns a schedule that uses a less busy one into one that starts no
//! job later.
//!
//! A node is cut when its load plus what the remaining jobs can still
//! add cannot beat the best load found: the volume of those that can
//! start at or after both its last start and its earliest frontier and
//! meet their deadlines, capped by the machine time left before the
//! latest of those deadlines. The best path, committed in order, is the
//! witness [`cslack_kernel::Schedule`].
//!
//! The search is exponential in the worst case; [`crate::estimate`]
//! runs it up to [`crate::EXACT_DEFAULT_LIMIT`] jobs and falls back to
//! the flow bound beyond.

use cslack_kernel::{Instance, Job, MachineId, Schedule, Time};

/// Hard cap on the job count the solver accepts (the search is
/// exponential in the job count).
pub const MAX_JOBS: usize = 24;

/// Result of the exact solver.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// The optimal load.
    pub load: f64,
    /// Bitmask of the accepted jobs (bit `i` = job index `i`).
    pub mask: u32,
    /// A witness schedule achieving `load`.
    pub schedule: Schedule,
}

/// One append on a search path: job index, machine, start time.
type Step = (usize, usize, f64);

/// Whether `job` can start at or after `start` and meet its deadline.
fn fits(job: &Job, start: f64) -> bool {
    start.max(job.release.raw()) + job.proc_time <= job.deadline.raw() + 1e-12
}

struct Search<'a> {
    jobs: &'a [Job],
    frontiers: Vec<f64>,
    path: Vec<Step>,
    /// The heaviest load found and the path that reaches it.
    best: (f64, Vec<Step>),
}

impl Search<'_> {
    /// Explores every canonical extension of the current path, whose
    /// jobs are the bits of `placed` and whose volume is `load`.
    fn branch(&mut self, placed: u32, load: f64) {
        if load > self.best.0 {
            self.best = (load, self.path.clone());
        }
        let (last_start, last_job) =
            (self.path.last()).map_or((f64::NEG_INFINITY, 0), |&(j, _, start)| (start, j));
        // Every later append starts at or after the last start and some
        // frontier, and ends by the deadline of a job that still fits.
        let min_frontier = self.frontiers.iter().copied().fold(f64::INFINITY, f64::min);
        let earliest = last_start.max(min_frontier);
        let (mut volume, mut horizon) = (0.0, 0.0_f64);
        for (j, job) in self.jobs.iter().enumerate() {
            if placed & (1 << j) == 0 && fits(job, earliest) {
                volume += job.proc_time;
                horizon = horizon.max(job.deadline.raw());
            }
        }
        let capacity: f64 = (self.frontiers.iter())
            .map(|&f| (horizon + 1e-12 - f.max(last_start)).max(0.0))
            .sum();
        if load + volume.min(capacity) <= self.best.0 {
            return;
        }
        for (j, job) in self.jobs.iter().enumerate() {
            if placed & (1 << j) != 0 {
                continue;
            }
            let release = job.release.raw();
            let idle = (self.frontiers.iter().copied())
                .filter(|&f| f <= release)
                .fold(f64::NEG_INFINITY, f64::max);
            for i in 0..self.frontiers.len() {
                let frontier = self.frontiers[i];
                let start = frontier.max(release);
                if (frontier <= release && frontier != idle)
                    || self.frontiers[..i].contains(&frontier)
                    || (start, j) <= (last_start, last_job)
                    || !fits(job, start)
                {
                    continue;
                }
                self.frontiers[i] = start + job.proc_time;
                self.path.push((j, i, start));
                self.branch(placed | 1 << j, load + job.proc_time);
                self.path.pop();
                self.frontiers[i] = frontier;
            }
        }
    }
}

/// Solves the instance exactly.
///
/// # Panics
/// Panics if the instance has more than [`MAX_JOBS`] jobs.
pub fn max_load(instance: &Instance) -> ExactResult {
    let n = instance.len();
    assert!(
        n <= MAX_JOBS,
        "exact solver capped at {MAX_JOBS} jobs (got {n}); use the flow bound"
    );
    let (m, jobs) = (instance.machines(), instance.jobs());
    let mut search = Search {
        jobs,
        frontiers: vec![0.0; m],
        path: Vec::with_capacity(n),
        best: (0.0, Vec::new()),
    };
    search.branch(0, 0.0);

    let mut schedule = Schedule::new(m);
    let mut mask = 0u32;
    for &(j, machine, start) in &search.best.1 {
        schedule
            .commit(jobs[j], MachineId(machine as u32), Time::new(start))
            .expect("a search path is a feasible schedule");
        mask |= 1 << j;
    }
    // Summed in job order, so the load depends only on the accepted set.
    let load = (0..n)
        .filter(|j| mask & (1 << j) != 0)
        .map(|j| jobs[j].proc_time)
        .sum();
    ExactResult {
        load,
        mask,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::preemptive_load_bound;
    use cslack_kernel::{validate, InstanceBuilder};

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(2, 0.5).build().unwrap();
        let r = max_load(&inst);
        assert_eq!(r.load, 0.0);
        assert_eq!(r.mask, 0);
    }

    #[test]
    fn conflicting_jobs_pick_the_heavier() {
        // One machine, both jobs need [0, ~1]: only one fits; OPT takes
        // the big one.
        let inst = InstanceBuilder::new(1, 0.5)
            .tight_job(Time::ZERO, 1.0)
            .tight_job(Time::ZERO, 1.4)
            .build()
            .unwrap();
        let r = max_load(&inst);
        assert!((r.load - 1.4).abs() < 1e-12);
        assert_eq!(r.mask, 0b10);
        validate::assert_valid(&inst, &r.schedule);
    }

    #[test]
    fn optimal_requires_out_of_release_order_dispatch() {
        // j0 released first but must *wait* so the tight j1 can go first.
        let inst = InstanceBuilder::new(1, 0.5)
            .job(Time::ZERO, 3.0, Time::new(10.0))
            .job(Time::new(1.0), 1.0, Time::new(2.5))
            .build()
            .unwrap();
        let r = max_load(&inst);
        assert!((r.load - 4.0).abs() < 1e-12, "load={}", r.load);
        validate::assert_valid(&inst, &r.schedule);
        // Greedy (release order, best fit) only gets j0.
        assert!(crate::bounds::greedy_lower_bound(&inst) < 4.0);
    }

    #[test]
    fn two_machines_run_conflicts_in_parallel() {
        let inst = InstanceBuilder::new(2, 0.5)
            .tight_job(Time::ZERO, 1.0)
            .tight_job(Time::ZERO, 1.0)
            .tight_job(Time::ZERO, 1.0)
            .build()
            .unwrap();
        let r = max_load(&inst);
        assert!((r.load - 2.0).abs() < 1e-12);
        validate::assert_valid(&inst, &r.schedule);
    }

    #[test]
    fn stacking_within_deadlines_is_found() {
        // Two jobs both fit sequentially on one machine (d = 2 each...
        // second must wait): deadlines 2 and 2.5.
        let inst = InstanceBuilder::new(1, 0.5)
            .job(Time::ZERO, 1.0, Time::new(2.0))
            .job(Time::ZERO, 1.0, Time::new(2.5))
            .build()
            .unwrap();
        let r = max_load(&inst);
        assert!((r.load - 2.0).abs() < 1e-12);
    }

    /// Independent brute-force: try every subset, test feasibility by
    /// recursive dispatch search (any next job on any machine).
    fn brute_force(inst: &Instance) -> f64 {
        fn feasible(jobs: &[cslack_kernel::Job], remaining: u32, frontiers: &mut Vec<f64>) -> bool {
            if remaining == 0 {
                return true;
            }
            let n = jobs.len();
            for j in 0..n {
                if remaining & (1 << j) == 0 {
                    continue;
                }
                for i in 0..frontiers.len() {
                    let start = frontiers[i].max(jobs[j].release.raw());
                    if start + jobs[j].proc_time <= jobs[j].deadline.raw() + 1e-12 {
                        let saved = frontiers[i];
                        frontiers[i] = start + jobs[j].proc_time;
                        if feasible(jobs, remaining & !(1 << j), frontiers) {
                            frontiers[i] = saved;
                            return true;
                        }
                        frontiers[i] = saved;
                    }
                }
            }
            false
        }
        let n = inst.len();
        let mut best = 0.0_f64;
        for mask in 0..(1u32 << n) {
            let load: f64 = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| inst.jobs()[i].proc_time)
                .sum();
            if load > best {
                let mut fr = vec![0.0; inst.machines()];
                if feasible(inst.jobs(), mask, &mut fr) {
                    best = load;
                }
            }
        }
        best
    }

    #[test]
    fn matches_independent_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..25 {
            let m = rng.gen_range(1..=3);
            let n = rng.gen_range(1..=7);
            let eps = [0.1, 0.3, 0.7][rng.gen_range(0..3usize)];
            let mut b = InstanceBuilder::new(m, eps);
            for _ in 0..n {
                let r = rng.gen_range(0.0..3.0);
                let p = rng.gen_range(0.2..2.0);
                let slack: f64 = rng.gen_range(eps..1.5);
                b.push(Time::new(r), p, Time::new(r + (1.0 + slack) * p));
            }
            let inst = b.build().unwrap();
            let dp = max_load(&inst);
            let bf = brute_force(&inst);
            assert!(
                (dp.load - bf).abs() < 1e-9,
                "trial {trial}: dp={} bf={}",
                dp.load,
                bf
            );
            validate::assert_valid(&inst, &dp.schedule);
        }
    }

    #[test]
    fn exact_is_bounded_by_flow_relaxation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..15 {
            let m = rng.gen_range(1..=3);
            let n = rng.gen_range(2..=9);
            let mut b = InstanceBuilder::new(m, 0.25);
            for _ in 0..n {
                let r = rng.gen_range(0.0..2.0);
                let p = rng.gen_range(0.2..1.5);
                b.push_tight(Time::new(r), p);
            }
            let inst = b.build().unwrap();
            let exact = max_load(&inst).load;
            let flow = preemptive_load_bound(&inst);
            assert!(exact <= flow + 1e-9, "exact {exact} > flow {flow}");
        }
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn job_cap_is_enforced() {
        let mut b = InstanceBuilder::new(1, 0.5);
        for i in 0..(MAX_JOBS + 1) {
            b.push_tight(Time::new(i as f64 * 10.0), 1.0);
        }
        let inst = b.build().unwrap();
        let _ = max_load(&inst);
    }
}
