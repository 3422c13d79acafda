//! Committed schedules on `m` identical non-preemptive machines.
//!
//! A [`Schedule`] is an *append-only* record of irrevocable commitments:
//! once a job is committed to `(machine, start)`, the pair can never change
//! — this is exactly the paper's *immediate commitment* model. All
//! feasibility invariants (release, deadline, non-overlap) are enforced at
//! commit time; [`crate::validate`] re-checks them independently after the
//! fact.

use crate::error::KernelError;
use crate::job::{Job, JobId};
use crate::time::Time;
use crate::tol;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Index of a physical machine, `0..m`.
///
/// The paper's machine indices `m_1..m_m` are *dynamic* (sorted by
/// outstanding load); `MachineId` is the *physical* identity that a
/// commitment names.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct MachineId(pub u32);

impl MachineId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// An irrevocable allocation of a job to a machine and start time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Commitment {
    /// The committed job (full copy: commitments are self-contained).
    pub job: Job,
    /// The executing machine.
    pub machine: MachineId,
    /// The fixed start time.
    pub start: Time,
}

impl Commitment {
    /// Completion time `start + p_j`.
    #[inline]
    pub fn completion(&self) -> Time {
        self.start + self.job.proc_time
    }

    /// Whether the job is executing at time `t` (half-open `[start, end)`).
    #[inline]
    pub fn executing_at(&self, t: Time) -> bool {
        self.start <= t && t < self.completion()
    }
}

/// An append-only committed schedule.
///
/// Alongside the authoritative per-machine lanes, the schedule keeps
/// per-lane aggregates — the frontier (largest completion time) and the
/// committed load of every lane — incrementally up to date on each
/// commit, so the hot read paths ([`Schedule::frontier`],
/// [`Schedule::lane_load`], [`Schedule::makespan`]) are `O(1)` and a
/// committed job resolves to its lane position by binary search
/// ([`Schedule::commitment_of`]). The aggregates are *caches*: the lanes
/// remain the source of truth, and [`crate::validate`] re-derives every
/// invariant from them independently.
///
/// A commitment that starts at or after its lane's last start — every
/// one Algorithm 1 makes, since it starts each job at its machine's
/// outstanding load — is an `O(1)` append apart from the id index;
/// only an out-of-order start binary-searches its lane
/// ([`Schedule::commit`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Schedule {
    m: usize,
    /// Commitments per machine, kept sorted by start time.
    lanes: Vec<Vec<Commitment>>,
    /// Committed job id -> (machine, start): enough to find the lane and
    /// binary-search the position without scanning.
    index: HashMap<JobId, (MachineId, Time)>,
    /// Running total of committed processing time.
    accepted_load: f64,
    /// Cached per-lane frontier: the largest completion time on the lane
    /// (`ZERO` while empty).
    frontiers: Vec<Time>,
    /// Cached per-lane committed processing time.
    lane_loads: Vec<f64>,
}

impl Schedule {
    /// An empty schedule on `m` machines.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Schedule {
        assert!(m > 0, "schedule needs at least one machine");
        Schedule {
            m,
            lanes: vec![Vec::new(); m],
            index: HashMap::new(),
            accepted_load: 0.0,
            frontiers: vec![Time::ZERO; m],
            lane_loads: vec![0.0; m],
        }
    }

    /// Number of machines.
    #[inline]
    pub fn machines(&self) -> usize {
        self.m
    }

    /// Number of committed jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing has been committed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total committed processing time `sum p_j (1 - U_j)` — the objective
    /// value of the paper.
    #[inline]
    pub fn accepted_load(&self) -> f64 {
        self.accepted_load
    }

    /// Whether `job` has been committed.
    #[inline]
    pub fn contains(&self, job: JobId) -> bool {
        self.index.contains_key(&job)
    }

    /// The machine a committed job runs on, if committed.
    #[inline]
    pub fn machine_of(&self, job: JobId) -> Option<MachineId> {
        self.index.get(&job).map(|&(machine, _)| machine)
    }

    /// The commitment of a job, if committed.
    ///
    /// `O(log lane)`: the index records the committed start time, and the
    /// lane is sorted by start, so the position is a binary search away.
    pub fn commitment_of(&self, job: JobId) -> Option<&Commitment> {
        let &(machine, start) = self.index.get(&job)?;
        let lane = &self.lanes[machine.index()];
        let mut pos = lane.partition_point(|c| c.start < start);
        // Distinct commitments normally have distinct starts; walk the
        // (tolerance-rare) run of equal starts to the matching id.
        while let Some(c) = lane.get(pos) {
            if c.start != start {
                break;
            }
            if c.job.id == job {
                return Some(c);
            }
            pos += 1;
        }
        debug_assert!(false, "indexed commitment must exist in its lane");
        None
    }

    /// The commitments on one machine, sorted by start time.
    pub fn lane(&self, machine: MachineId) -> &[Commitment] {
        &self.lanes[machine.index()]
    }

    /// Iterates over all commitments (machine order, then start order).
    pub fn iter(&self) -> impl Iterator<Item = &Commitment> {
        self.lanes.iter().flatten()
    }

    /// Largest completion time on `machine`, or `ZERO` while the lane is
    /// empty. `O(1)` from the cached aggregate.
    #[inline]
    pub fn frontier(&self, machine: MachineId) -> Time {
        self.frontiers[machine.index()]
    }

    /// Total committed processing time on `machine`. `O(1)` from the
    /// cached aggregate.
    #[inline]
    pub fn lane_load(&self, machine: MachineId) -> f64 {
        self.lane_loads[machine.index()]
    }

    /// The *outstanding load* `l(m_i)` of the paper at time `now`:
    /// committed work still to be executed on `machine` at or after `now`.
    ///
    /// For gap-free lanes (which the Threshold algorithm produces by
    /// starting each job right after the previous load completes) this
    /// equals `max(0, frontier - now)`; for general lanes the gaps after
    /// `now` are excluded.
    pub fn outstanding(&self, machine: MachineId, now: Time) -> f64 {
        // Fast path off the cached frontier: nothing completes after it.
        if self.frontiers[machine.index()] <= now {
            return 0.0;
        }
        let mut total = 0.0;
        for c in self.lanes[machine.index()].iter().rev() {
            let end = c.completion();
            if end <= now {
                break;
            }
            let start = c.start.max(now);
            total += end - start;
        }
        tol::clamp_nonneg(total)
    }

    /// Number of machines executing a job at time `t`.
    pub fn busy_machines_at(&self, t: Time) -> usize {
        self.lanes
            .iter()
            .filter(|lane| lane.iter().any(|c| c.executing_at(t)))
            .count()
    }

    /// Largest completion time over all machines (`ZERO` when empty).
    /// `O(m)` over the cached frontiers.
    pub fn makespan(&self) -> Time {
        self.frontiers.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// Commits `job` to `machine` starting at `start`.
    ///
    /// Enforces, up to the workspace tolerance:
    /// * `machine < m`,
    /// * the job was not committed before (irrevocability),
    /// * `start >= r_j`,
    /// * `start + p_j <= d_j`,
    /// * no overlap with existing commitments on the machine.
    ///
    /// The commitment goes after every one on the lane that starts at or
    /// before `start`. When the lane is empty or its last commitment
    /// starts at or before `start`, that is the lane's end and no search
    /// runs; an out-of-order start binary-searches the lane. Either way
    /// the position, the overlap checks and the errors are the same.
    pub fn commit(&mut self, job: Job, machine: MachineId, start: Time) -> Result<(), KernelError> {
        if machine.index() >= self.m {
            return Err(KernelError::BadMachine { machine, m: self.m });
        }
        if self.index.contains_key(&job.id) {
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
        // Algorithm 1 and `absorb` append, so the search runs only for an
        // out-of-order start; otherwise the lane's end is what it returns.
        let pos = if lane.last().is_none_or(|last| last.start <= start) {
            lane.len()
        } else {
            lane.partition_point(|c| c.start <= start)
        };
        // Overlap with predecessor: pred.completion must be <= start.
        if pos > 0 {
            let pred = &lane[pos - 1];
            if tol::definitely_gt(pred.completion().raw(), start.raw()) {
                return Err(KernelError::Overlap {
                    job: job.id,
                    existing: pred.job.id,
                    machine,
                });
            }
        }
        // Overlap with successor: completion must be <= succ.start.
        if pos < lane.len() {
            let succ = &lane[pos];
            if tol::definitely_gt(completion.raw(), succ.start.raw()) {
                return Err(KernelError::Overlap {
                    job: job.id,
                    existing: succ.job.id,
                    machine,
                });
            }
        }
        lane.insert(
            pos,
            Commitment {
                job,
                machine,
                start,
            },
        );
        self.index.insert(job.id, (machine, start));
        self.accepted_load += job.proc_time;
        self.lane_loads[machine.index()] += job.proc_time;
        // Out-of-order inserts may not extend the frontier, so max, not
        // assign.
        let frontier = &mut self.frontiers[machine.index()];
        *frontier = (*frontier).max(completion);
        Ok(())
    }

    /// Re-commits every commitment of `part` into `self`, remapping
    /// `part`'s machine `i` to the global machine `lane_map[i]`.
    ///
    /// Every re-commitment goes through [`Schedule::commit`], so all
    /// invariants (release, deadline, overlap, duplicate ids) are
    /// enforced across the merge: two parts that committed the same job
    /// or produced overlapping work on a shared target lane are caught
    /// here, not silently combined.
    ///
    /// # Panics
    /// Panics if `lane_map.len() != part.machines()`.
    pub fn absorb(&mut self, part: &Schedule, lane_map: &[MachineId]) -> Result<(), KernelError> {
        assert_eq!(
            lane_map.len(),
            part.machines(),
            "lane map must name a global machine for every lane of the part"
        );
        for (local, lane) in part.lanes.iter().enumerate() {
            let global = lane_map[local];
            for c in lane {
                self.commit(c.job, global, c.start)?;
            }
        }
        Ok(())
    }

    /// Renders a fixed-width ASCII Gantt chart (for the Fig. 3 style
    /// schedule snapshots). `width` is the number of character cells the
    /// time axis is divided into.
    pub fn gantt_ascii(&self, width: usize) -> String {
        let horizon = self.makespan().raw().max(1e-9);
        let mut out = String::new();
        for (mi, lane) in self.lanes.iter().enumerate() {
            let mut row = vec!['.'; width];
            for c in lane {
                let s = ((c.start.raw() / horizon) * width as f64).floor() as usize;
                let e = ((c.completion().raw() / horizon) * width as f64).ceil() as usize;
                let label = glyph_for(c.job.id);
                for cell in row.iter_mut().take(e.min(width)).skip(s.min(width)) {
                    *cell = label;
                }
            }
            out.push_str(&format!("M{mi} |"));
            out.extend(row);
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "     0{:>w$}\n",
            format!("{:.3}", horizon),
            w = width - 1
        ));
        out
    }
}

/// Merges shard-local schedules into one cluster-wide schedule on `m`
/// machines.
///
/// Each part comes with a lane map naming the global machine of each of
/// its local lanes; the maps of distinct parts are expected to cover
/// disjoint machine groups, but that is not assumed — every commitment
/// is re-validated by [`Schedule::commit`], so colliding parts produce a
/// [`KernelError`] instead of a corrupt schedule.
pub fn merge_schedules<'a>(
    m: usize,
    parts: impl IntoIterator<Item = (&'a Schedule, &'a [MachineId])>,
) -> Result<Schedule, KernelError> {
    let mut merged = Schedule::new(m);
    for (part, lane_map) in parts {
        merged.absorb(part, lane_map)?;
    }
    Ok(merged)
}

fn glyph_for(id: JobId) -> char {
    const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    GLYPHS[id.index() % GLYPHS.len()] as char
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, r: f64, p: f64, d: f64) -> Job {
        Job::new(JobId(id), Time::new(r), p, Time::new(d))
    }

    #[test]
    fn commit_accumulates_load_and_frontier() {
        let mut s = Schedule::new(2);
        s.commit(job(0, 0.0, 1.0, 5.0), MachineId(0), Time::ZERO)
            .unwrap();
        s.commit(job(1, 0.0, 2.0, 5.0), MachineId(0), Time::new(1.0))
            .unwrap();
        assert_eq!(s.accepted_load(), 3.0);
        assert_eq!(s.frontier(MachineId(0)), Time::new(3.0));
        assert_eq!(s.frontier(MachineId(1)), Time::ZERO);
        assert_eq!(s.len(), 2);
        assert_eq!(s.machine_of(JobId(1)), Some(MachineId(0)));
    }

    #[test]
    fn duplicate_commitment_is_refused() {
        let mut s = Schedule::new(1);
        let j = job(0, 0.0, 1.0, 5.0);
        s.commit(j, MachineId(0), Time::ZERO).unwrap();
        let err = s.commit(j, MachineId(0), Time::new(2.0)).unwrap_err();
        assert!(matches!(err, KernelError::DuplicateCommitment { .. }));
        assert_eq!(s.accepted_load(), 1.0); // unchanged
    }

    #[test]
    fn overlap_is_refused_in_both_directions() {
        let mut s = Schedule::new(1);
        s.commit(job(0, 0.0, 2.0, 9.0), MachineId(0), Time::new(2.0))
            .unwrap();
        // Successor overlap: starts inside [2,4).
        let err = s
            .commit(job(1, 0.0, 1.0, 9.0), MachineId(0), Time::new(3.0))
            .unwrap_err();
        assert!(matches!(err, KernelError::Overlap { .. }));
        // Predecessor overlap: would run [1,3) over [2,4).
        let err = s
            .commit(job(2, 0.0, 2.0, 9.0), MachineId(0), Time::new(1.0))
            .unwrap_err();
        assert!(matches!(err, KernelError::Overlap { .. }));
        // Exactly abutting is fine.
        s.commit(job(3, 0.0, 2.0, 9.0), MachineId(0), Time::ZERO)
            .unwrap();
        s.commit(job(4, 0.0, 1.0, 9.0), MachineId(0), Time::new(4.0))
            .unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn release_and_deadline_are_enforced() {
        let mut s = Schedule::new(1);
        assert!(matches!(
            s.commit(job(0, 1.0, 1.0, 5.0), MachineId(0), Time::ZERO),
            Err(KernelError::StartBeforeRelease { .. })
        ));
        assert!(matches!(
            s.commit(job(1, 0.0, 2.0, 3.0), MachineId(0), Time::new(1.5)),
            Err(KernelError::DeadlineMiss { .. })
        ));
        assert!(matches!(
            s.commit(job(2, 0.0, 1.0, 5.0), MachineId(7), Time::ZERO),
            Err(KernelError::BadMachine { .. })
        ));
    }

    #[test]
    fn completion_exactly_at_deadline_is_accepted() {
        let mut s = Schedule::new(1);
        s.commit(job(0, 0.0, 3.0, 3.0), MachineId(0), Time::ZERO)
            .unwrap();
    }

    #[test]
    fn outstanding_load_excludes_past_and_counts_partial() {
        let mut s = Schedule::new(1);
        s.commit(job(0, 0.0, 2.0, 9.0), MachineId(0), Time::ZERO)
            .unwrap();
        s.commit(job(1, 0.0, 3.0, 9.0), MachineId(0), Time::new(2.0))
            .unwrap();
        assert_eq!(s.outstanding(MachineId(0), Time::ZERO), 5.0);
        assert_eq!(s.outstanding(MachineId(0), Time::new(1.0)), 4.0);
        assert_eq!(s.outstanding(MachineId(0), Time::new(5.0)), 0.0);
        assert_eq!(s.outstanding(MachineId(0), Time::new(99.0)), 0.0);
    }

    #[test]
    fn outstanding_load_skips_future_gaps() {
        let mut s = Schedule::new(1);
        // Job at [5, 6): at time 0 the outstanding *work* is 1, not 6.
        s.commit(job(0, 0.0, 1.0, 9.0), MachineId(0), Time::new(5.0))
            .unwrap();
        assert_eq!(s.outstanding(MachineId(0), Time::ZERO), 1.0);
    }

    #[test]
    fn busy_machines_counting() {
        let mut s = Schedule::new(3);
        s.commit(job(0, 0.0, 2.0, 9.0), MachineId(0), Time::ZERO)
            .unwrap();
        s.commit(job(1, 0.0, 1.0, 9.0), MachineId(1), Time::new(1.0))
            .unwrap();
        assert_eq!(s.busy_machines_at(Time::new(0.5)), 1);
        assert_eq!(s.busy_machines_at(Time::new(1.5)), 2);
        assert_eq!(s.busy_machines_at(Time::new(2.0)), 0); // half-open
    }

    #[test]
    fn out_of_order_insertion_keeps_lane_sorted() {
        let mut s = Schedule::new(1);
        s.commit(job(0, 0.0, 1.0, 9.0), MachineId(0), Time::new(3.0))
            .unwrap();
        s.commit(job(1, 0.0, 1.0, 9.0), MachineId(0), Time::ZERO)
            .unwrap();
        let starts: Vec<f64> = s.lane(MachineId(0)).iter().map(|c| c.start.raw()).collect();
        assert_eq!(starts, vec![0.0, 3.0]);
    }

    #[test]
    fn makespan_and_gantt_render() {
        let mut s = Schedule::new(2);
        s.commit(job(0, 0.0, 4.0, 9.0), MachineId(0), Time::ZERO)
            .unwrap();
        s.commit(job(1, 0.0, 2.0, 9.0), MachineId(1), Time::new(2.0))
            .unwrap();
        assert_eq!(s.makespan(), Time::new(4.0));
        let g = s.gantt_ascii(40);
        assert!(g.contains("M0 |"));
        assert!(g.contains("M1 |"));
        assert!(g.contains('0')); // glyph of J0
        assert!(g.contains('1')); // glyph of J1
    }

    #[test]
    fn absorb_remaps_lanes_into_disjoint_groups() {
        // Two shard-local schedules on 1 and 2 machines, merged into a
        // 3-machine cluster: lanes keep their contents under new ids.
        let mut a = Schedule::new(1);
        a.commit(job(0, 0.0, 2.0, 9.0), MachineId(0), Time::ZERO)
            .unwrap();
        let mut b = Schedule::new(2);
        b.commit(job(1, 0.0, 1.0, 9.0), MachineId(0), Time::ZERO)
            .unwrap();
        b.commit(job(2, 0.0, 3.0, 9.0), MachineId(1), Time::new(1.0))
            .unwrap();
        let merged = merge_schedules(
            3,
            [
                (&a, &[MachineId(0)][..]),
                (&b, &[MachineId(1), MachineId(2)][..]),
            ],
        )
        .unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.accepted_load(), 6.0);
        assert_eq!(merged.machine_of(JobId(0)), Some(MachineId(0)));
        assert_eq!(merged.machine_of(JobId(1)), Some(MachineId(1)));
        assert_eq!(merged.machine_of(JobId(2)), Some(MachineId(2)));
        assert_eq!(merged.frontier(MachineId(2)), Time::new(4.0));
    }

    #[test]
    fn merge_catches_double_commit_and_lane_collisions() {
        let mut a = Schedule::new(1);
        a.commit(job(0, 0.0, 2.0, 9.0), MachineId(0), Time::ZERO)
            .unwrap();
        let mut dup = Schedule::new(1);
        dup.commit(job(0, 0.0, 2.0, 9.0), MachineId(0), Time::new(3.0))
            .unwrap();
        let err = merge_schedules(2, [(&a, &[MachineId(0)][..]), (&dup, &[MachineId(1)][..])])
            .unwrap_err();
        assert!(matches!(err, KernelError::DuplicateCommitment { .. }));

        // Distinct jobs, but both parts mapped onto the same global lane
        // with overlapping intervals.
        let mut c = Schedule::new(1);
        c.commit(job(7, 0.0, 2.0, 9.0), MachineId(0), Time::new(1.0))
            .unwrap();
        let err =
            merge_schedules(2, [(&a, &[MachineId(0)][..]), (&c, &[MachineId(0)][..])]).unwrap_err();
        assert!(matches!(err, KernelError::Overlap { .. }));
    }

    #[test]
    #[should_panic(expected = "lane map")]
    fn absorb_rejects_short_lane_map() {
        let part = Schedule::new(2);
        let mut s = Schedule::new(2);
        let _ = s.absorb(&part, &[MachineId(0)]);
    }

    #[test]
    fn commitment_lookup_agrees_with_lane_after_out_of_order_commits() {
        // Regression for the linear-scan -> binary-search change: commit
        // in shuffled start order onto two lanes, then every id must
        // resolve to exactly the lane entry holding it.
        let mut s = Schedule::new(2);
        let reqs = [
            (0u32, 0usize, 6.0),
            (1, 0, 0.0),
            (2, 1, 3.0),
            (3, 0, 3.0),
            (4, 1, 0.0),
            (5, 0, 9.0),
            (6, 1, 6.0),
        ];
        for &(id, mach, start) in &reqs {
            s.commit(
                job(id, 0.0, 2.0, 99.0),
                MachineId(mach as u32),
                Time::new(start),
            )
            .unwrap();
        }
        for &(id, mach, _) in &reqs {
            let c = s.commitment_of(JobId(id)).expect("committed job resolves");
            let by_scan = s
                .lane(MachineId(mach as u32))
                .iter()
                .find(|c| c.job.id == JobId(id))
                .expect("job is in its lane");
            assert_eq!(c, by_scan, "J{id}: lookup disagrees with lane scan");
        }
        assert!(s.commitment_of(JobId(99)).is_none());
    }

    #[test]
    fn lane_aggregates_track_out_of_order_commits() {
        let mut s = Schedule::new(2);
        assert_eq!(s.lane_load(MachineId(0)), 0.0);
        // Later-starting job first: frontier must stay at the max
        // completion, not the last insert's.
        s.commit(job(0, 0.0, 1.0, 99.0), MachineId(0), Time::new(5.0))
            .unwrap();
        s.commit(job(1, 0.0, 2.0, 99.0), MachineId(0), Time::ZERO)
            .unwrap();
        assert_eq!(s.frontier(MachineId(0)), Time::new(6.0));
        assert_eq!(s.lane_load(MachineId(0)), 3.0);
        assert_eq!(s.lane_load(MachineId(1)), 0.0);
        assert_eq!(s.makespan(), Time::new(6.0));
    }

    #[test]
    fn commitment_lookup() {
        let mut s = Schedule::new(2);
        let j = job(5, 1.0, 2.0, 9.0);
        s.commit(j, MachineId(1), Time::new(1.5)).unwrap();
        let c = s.commitment_of(JobId(5)).unwrap();
        assert_eq!(c.start, Time::new(1.5));
        assert_eq!(c.completion(), Time::new(3.5));
        assert!(c.executing_at(Time::new(2.0)));
        assert!(!c.executing_at(Time::new(3.5)));
        assert!(s.commitment_of(JobId(99)).is_none());
    }
}
