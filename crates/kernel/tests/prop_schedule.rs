//! Property tests for the kernel: schedule invariants under random
//! commitment streams, agreement between `commit`-time enforcement and
//! the independent validator, and `commit` against a linear-scan model.

use cslack_kernel::{
    tol, validate_schedule, Commitment, InstanceBuilder, Job, JobId, KernelError, MachineId,
    Schedule, Time,
};
use proptest::prelude::*;

/// A random "commitment request": job shape plus a target machine and a
/// start offset within the feasible window.
#[derive(Clone, Debug)]
struct Req {
    release: f64,
    proc_time: f64,
    slack_factor: f64,
    machine: usize,
    start_frac: f64,
}

fn arb_req() -> impl Strategy<Value = Req> {
    (
        0.0f64..10.0,
        0.1f64..3.0,
        0.1f64..2.0,
        0usize..4,
        0.0f64..1.5, // > 1 intentionally produces infeasible starts
    )
        .prop_map(
            |(release, proc_time, slack_factor, machine, start_frac)| Req {
                release,
                proc_time,
                slack_factor,
                machine,
                start_frac,
            },
        )
}

/// One commitment request, aimed at the reference's lanes as they stand
/// when it is made (see [`request`]).
#[derive(Clone, Debug)]
struct Op {
    /// What the request does; see [`request`].
    kind: u8,
    /// Below 7 picks lane `machine % m`; 7 names machine `m`, which does
    /// not exist.
    machine: usize,
    /// Which commitment or gap of the lane the request aims at.
    pick: usize,
    frac: f64,
    proc_time: f64,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..9, 0usize..8, 0usize..64, 0.0f64..1.0, 0.1f64..3.0).prop_map(
        |(kind, machine, pick, frac, proc_time)| Op {
            kind,
            machine,
            pick,
            frac,
            proc_time,
        },
    )
}

/// What `Schedule::commit` must do, written the slow and obvious way:
/// the position is found by a linear scan with the same `<=` rule.
struct Reference {
    lanes: Vec<Vec<Commitment>>,
    ids: Vec<JobId>,
    loads: Vec<f64>,
    frontiers: Vec<Time>,
    accepted: f64,
}

impl Reference {
    fn new(m: usize) -> Reference {
        Reference {
            lanes: vec![Vec::new(); m],
            ids: Vec::new(),
            loads: vec![0.0; m],
            frontiers: vec![Time::ZERO; m],
            accepted: 0.0,
        }
    }

    fn commit(&mut self, job: Job, machine: MachineId, start: Time) -> Result<(), KernelError> {
        let m = self.lanes.len();
        if machine.index() >= m {
            return Err(KernelError::BadMachine { machine, m });
        }
        if self.ids.contains(&job.id) {
            return Err(KernelError::DuplicateCommitment { job: job.id });
        }
        if !start.approx_ge(job.release) {
            return Err(KernelError::StartBeforeRelease { job: job.id });
        }
        let completion = start + job.proc_time;
        if !completion.approx_le(job.deadline) {
            return Err(KernelError::DeadlineMiss {
                job: job.id,
                completion: completion.raw(),
                deadline: job.deadline.raw(),
            });
        }
        let lane = &mut self.lanes[machine.index()];
        let pos = lane.iter().take_while(|c| c.start <= start).count();
        let overlap = |existing: &Commitment| KernelError::Overlap {
            job: job.id,
            existing: existing.job.id,
            machine,
        };
        if pos > 0 && tol::definitely_gt(lane[pos - 1].completion().raw(), start.raw()) {
            return Err(overlap(&lane[pos - 1]));
        }
        if pos < lane.len() && tol::definitely_gt(completion.raw(), lane[pos].start.raw()) {
            return Err(overlap(&lane[pos]));
        }
        lane.insert(
            pos,
            Commitment {
                job,
                machine,
                start,
            },
        );
        self.ids.push(job.id);
        self.loads[machine.index()] += job.proc_time;
        self.frontiers[machine.index()] = self.frontiers[machine.index()].max(completion);
        self.accepted += job.proc_time;
        Ok(())
    }
}

/// The job, machine and start `op` asks for, given the lanes so far.
/// Kinds: 0–1 append at the lane's frontier (abutting, a hair before it
/// within tolerance, or after a gap); 2 start at the lane's last start or
/// just before it; 3 an out-of-order job that fits a gap; 4 a start inside a
/// commitment (overlapping its predecessor); 5 a start that runs into a
/// commitment (overlapping its successor); 6 an append reusing a
/// committed id; 7 an append before the job's release; 8 an append that
/// completes after the job's deadline.
fn request(op: &Op, fresh: JobId, reference: &Reference) -> (Job, MachineId, Time) {
    let m = reference.lanes.len();
    let machine = if op.machine < 7 { op.machine % m } else { m };
    let lane: &[Commitment] = reference.lanes.get(machine).map_or(&[], Vec::as_slice);
    let mut p = op.proc_time;
    let frontier = lane
        .iter()
        .map(|c| c.completion().raw())
        .fold(0.0, f64::max);
    let append = if op.frac < 0.2 {
        frontier
    } else if op.frac < 0.3 {
        // Inside the tolerance, so it still abuts.
        frontier - frontier * 1e-10
    } else {
        frontier + 2.0 * op.frac
    };
    let aimed = (!lane.is_empty()).then(|| &lane[op.pick % lane.len()]);
    let start = match op.kind {
        2 => lane.last().map_or(0.0, |last| {
            last.start.raw() - if op.frac < 0.5 { 0.0 } else { 0.5 * op.frac }
        }),
        3 => {
            // The gaps before each commitment, the first from 0.
            let mut lo = 0.0;
            let mut gaps = Vec::new();
            for c in lane {
                if c.start.raw() > lo {
                    gaps.push((lo, c.start.raw()));
                }
                lo = lo.max(c.completion().raw());
            }
            match gaps.get(op.pick % gaps.len().max(1)) {
                Some(&(lo, hi)) => {
                    // A job that fits the gap, shrunk if need be.
                    p = p.min(0.5 * (hi - lo));
                    lo + op.frac * (hi - lo - p)
                }
                None => append,
            }
        }
        4 => aimed.map_or(append, |c| c.start.raw() + op.frac * c.job.proc_time),
        5 => aimed.map_or(append, |c| {
            (c.start.raw() - p * (0.95 - 0.9 * op.frac)).max(0.0)
        }),
        _ => append,
    };
    let id = match op.kind {
        6 if !reference.ids.is_empty() => reference.ids[op.pick % reference.ids.len()],
        _ => fresh,
    };
    let release = match op.kind {
        7 => start + 1.0 + op.frac,
        _ => (start - op.frac).max(0.0),
    };
    let deadline = match op.kind {
        8 => start + p * op.frac * 0.9,
        _ => start + p + 1.0 + op.frac,
    };
    (
        Job::new(id, Time::new(release), p, Time::new(deadline)),
        MachineId(machine as u32),
        Time::new(start),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `commit` takes the lane's end without searching when the start
    /// does not precede the lane's last start, and searches otherwise.
    /// Under every kind of request — appends, equal starts, out-of-order
    /// starts into gaps, overlaps on either side, reused ids, bad
    /// machines, early starts and late completions — each commit gives
    /// the reference's `Result`, and the lanes and their aggregates end
    /// up the reference's, bit for bit.
    #[test]
    fn commits_agree_with_a_linear_scan_reference(
        m in 1usize..=4,
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut schedule = Schedule::new(m);
        let mut reference = Reference::new(m);
        for (i, op) in ops.iter().enumerate() {
            let (job, machine, start) = request(op, JobId(i as u32), &reference);
            let want = reference.commit(job, machine, start);
            let got = schedule.commit(job, machine, start);
            prop_assert_eq!(got, want, "request {} ({:?})", i, op);
        }
        for lane in 0..m {
            let machine = MachineId(lane as u32);
            prop_assert_eq!(schedule.lane(machine), reference.lanes[lane].as_slice());
            prop_assert_eq!(schedule.lane_load(machine), reference.loads[lane]);
            prop_assert_eq!(schedule.frontier(machine), reference.frontiers[lane]);
        }
        prop_assert_eq!(schedule.accepted_load(), reference.accepted);
        prop_assert_eq!(schedule.len(), reference.ids.len());
    }

    /// Whatever mix of feasible and infeasible commitment requests is
    /// thrown at a schedule, the accepted subset always passes the
    /// independent validator, and the recorded load matches.
    #[test]
    fn random_commit_streams_stay_valid(reqs in prop::collection::vec(arb_req(), 1..40)) {
        let m = 4;
        let eps = 0.1;
        let mut builder = InstanceBuilder::new(m, eps);
        let mut jobs = Vec::new();
        for r in &reqs {
            let p = r.proc_time;
            let rel = Time::new(r.release);
            let d = rel + (1.0 + eps.max(r.slack_factor)) * p;
            let id = builder.push(rel, p, d);
            jobs.push(Job::new(id, rel, p, d));
        }
        let inst = builder.build().unwrap();
        // The builder may have re-sorted by release; use its jobs.
        let mut schedule = Schedule::new(m);
        let mut accepted = 0.0;
        for (job, r) in inst.jobs().iter().zip(&reqs) {
            let window = job.laxity();
            let start = job.release + window * r.start_frac;
            if schedule.commit(*job, MachineId(r.machine as u32), start).is_ok() {
                accepted += job.proc_time;
            }
        }
        prop_assert!((schedule.accepted_load() - accepted).abs() < 1e-9);
        let report = validate_schedule(&inst, &schedule);
        prop_assert!(report.is_valid(), "{:?}", report.violations);
    }

    /// `outstanding` is non-negative, non-increasing in `now`, and zero
    /// after the makespan.
    #[test]
    fn outstanding_is_monotone(
        starts in prop::collection::vec((0.0f64..20.0, 0.1f64..2.0), 1..10),
        probe in 0.0f64..30.0,
    ) {
        let mut schedule = Schedule::new(1);
        let mut frontier = 0.0;
        for (i, (gap, p)) in starts.iter().enumerate() {
            let start = frontier + gap;
            let job = Job::new(
                JobId(i as u32),
                Time::new(start),
                *p,
                Time::new(start + 10.0 * p),
            );
            schedule.commit(job, MachineId(0), Time::new(start)).unwrap();
            frontier = start + p;
        }
        let m0 = MachineId(0);
        let a = schedule.outstanding(m0, Time::new(probe));
        let b = schedule.outstanding(m0, Time::new(probe + 1.0));
        prop_assert!(a >= 0.0 && b >= 0.0);
        prop_assert!(b <= a + 1e-9, "outstanding increased over time");
        prop_assert!(schedule.outstanding(m0, schedule.makespan()) < 1e-9);
    }

    /// Busy-machine counts are bounded by m and consistent with lanes.
    #[test]
    fn busy_counts_are_bounded(
        jobs in prop::collection::vec((0.0f64..5.0, 0.1f64..2.0, 0usize..3), 1..20),
        probe in 0.0f64..10.0,
    ) {
        let m = 3;
        let mut schedule = Schedule::new(m);
        let mut frontiers = vec![0.0f64; m];
        for (i, (rel, p, mach)) in jobs.iter().enumerate() {
            let start = frontiers[*mach].max(*rel);
            let job = Job::new(
                JobId(i as u32),
                Time::new(*rel),
                *p,
                Time::new(start + p + 1.0),
            );
            schedule.commit(job, MachineId(*mach as u32), Time::new(start)).unwrap();
            frontiers[*mach] = start + p;
        }
        let busy = schedule.busy_machines_at(Time::new(probe));
        prop_assert!(busy <= m);
        let manual = (0..m)
            .filter(|&i| {
                schedule
                    .lane(MachineId(i as u32))
                    .iter()
                    .any(|c| c.executing_at(Time::new(probe)))
            })
            .count();
        prop_assert_eq!(busy, manual);
    }

    /// The cached per-lane aggregates (frontier, lane load, accepted
    /// load) always equal values recomputed from scratch out of the lane
    /// contents, under arbitrary (including out-of-order) commit streams.
    #[test]
    fn lane_aggregates_match_recomputation(
        commits in prop::collection::vec((0.0f64..15.0, 0.1f64..2.0, 0usize..4), 1..30),
    ) {
        let m = 4;
        let mut schedule = Schedule::new(m);
        for (i, (start, p, mach)) in commits.iter().enumerate() {
            // Deadline generous enough for commit to always succeed;
            // overlap-rejected requests are part of the workload.
            let job = Job::new(
                JobId(i as u32),
                Time::new(*start),
                *p,
                Time::new(start + p + 1.0),
            );
            let _ = schedule.commit(job, MachineId(*mach as u32), Time::new(*start));
            let mut total = 0.0;
            for lane_id in 0..m {
                let machine = MachineId(lane_id as u32);
                let lane = schedule.lane(machine);
                let frontier = lane
                    .iter()
                    .map(|c| c.completion())
                    .max()
                    .unwrap_or(Time::ZERO);
                let load: f64 = lane.iter().map(|c| c.job.proc_time).sum();
                total += load;
                prop_assert_eq!(schedule.frontier(machine), frontier);
                prop_assert!((schedule.lane_load(machine) - load).abs() < 1e-9);
            }
            prop_assert!((schedule.accepted_load() - total).abs() < 1e-9);
        }
    }

    /// `commitment_of` (position-indexed binary search) agrees with a
    /// linear scan over all lanes, for every committed job, after
    /// arbitrary out-of-order commit sequences.
    #[test]
    fn commitment_lookup_agrees_with_linear_scan(
        commits in prop::collection::vec((0.0f64..12.0, 0.1f64..1.5, 0usize..3), 1..25),
    ) {
        let m = 3;
        let mut schedule = Schedule::new(m);
        let mut committed = Vec::new();
        for (i, (start, p, mach)) in commits.iter().enumerate() {
            let id = JobId(i as u32);
            let job = Job::new(id, Time::new(*start), *p, Time::new(start + p + 1.0));
            if schedule.commit(job, MachineId(*mach as u32), Time::new(*start)).is_ok() {
                committed.push(id);
            }
        }
        for id in committed {
            let fast = schedule.commitment_of(id).expect("committed job must resolve");
            let slow = (0..m)
                .flat_map(|lane| schedule.lane(MachineId(lane as u32)).iter())
                .find(|c| c.job.id == id)
                .expect("committed job must be in some lane");
            prop_assert_eq!(fast.job.id, slow.job.id);
            prop_assert_eq!(fast.machine, slow.machine);
            prop_assert_eq!(fast.start, slow.start);
        }
        // Never-committed ids resolve to nothing.
        prop_assert!(schedule.commitment_of(JobId(10_000)).is_none());
    }

    /// Tight jobs constructed by the builder always satisfy the slack
    /// condition with equality, never more.
    #[test]
    fn tight_jobs_are_exactly_tight(release in 0.0f64..100.0, p in 0.01f64..50.0, eps in 0.01f64..1.0) {
        let job = Job::tight(JobId(0), Time::new(release), p, eps);
        prop_assert!(job.has_tight_slack(eps));
        prop_assert!(job.satisfies_slack(eps));
        // A visibly larger requirement must fail.
        prop_assert!(!job.satisfies_slack(eps * 1.5 + 0.01));
    }
}
