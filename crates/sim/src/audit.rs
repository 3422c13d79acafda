//! Trace-driven **replay** and **invariant auditing** of flight
//! recordings.
//!
//! A [`FlightSnapshot`] (the `.cfr` payload produced by the engine's
//! flight recorder) carries everything this module needs:
//!
//! * [`replay_snapshot`] re-runs a freshly built scheduler per shard
//!   over the recorded per-shard submission order and verifies the
//!   regenerated decision stream is **bit-identical** to the recorded
//!   one (f64 fields compared via `to_bits`), reporting the first
//!   diverging index otherwise — any engine bug becomes a one-file
//!   repro;
//! * [`rebuild_shard_state`] runs the same per-shard replay to rebuild
//!   a failed shard's committed schedule for recovery;
//! * [`audit_snapshot`] re-checks, from the trace alone, every
//!   invariant the paper's immediate-commitment model relies on: no
//!   lane overlap, `r_j <= s_j <= d_j - p_j` per commitment, the slack
//!   condition at admission, threshold accepts/rejects consistent with
//!   the recorded load and the `c(eps, m)` factor table, and reported
//!   counters equal to recomputed ones.
//!
//! The shard layout is mirrored from the engine (contiguous machine
//! groups, `shard_of = id mod shards`); [`shard_group_bounds`] is the
//! single place the formula is duplicated, and the engine's test suite
//! pins the two against each other.

use crate::SimError;
use cslack_algorithms::{Decision, OnlineScheduler};
use cslack_kernel::{tol, Job, JobId, MachineId, Schedule, Time};
use cslack_obs::flight::{FlightEvent, FlightSnapshot};
use cslack_obs::{DecisionEvent, RejectCounts, RejectReason};
use serde::Serialize;
use std::collections::BTreeMap;

/// The machine-id range `[lo, hi)` owned by `shard` — the same
/// contiguous split as the engine's `machine_groups` (leading
/// `m mod shards` groups get the extra machine).
pub fn shard_group_bounds(m: usize, shards: usize, shard: usize) -> (usize, usize) {
    let lo = shard * m / shards.max(1);
    let hi = (shard + 1) * m / shards.max(1);
    (lo, hi)
}

// ---------------------------------------------------------------------
// Deterministic replay
// ---------------------------------------------------------------------

/// Where and how a replay diverged from the recording.
#[derive(Clone, Debug, Serialize)]
pub struct ReplayDivergence {
    /// The shard whose stream diverged.
    pub shard: u32,
    /// The per-shard decision index (seq) of the first mismatch.
    pub seq: u64,
    /// The job being decided at the divergence.
    pub job: u32,
    /// The decision field that differs.
    pub field: &'static str,
    /// The recorded value, rendered.
    pub recorded: String,
    /// The regenerated value, rendered.
    pub regenerated: String,
}

impl std::fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at shard {} seq {} (J{}): {} recorded as {} but regenerated as {}",
            self.shard, self.seq, self.job, self.field, self.recorded, self.regenerated
        )
    }
}

/// The outcome of a deterministic replay.
#[derive(Clone, Debug, Serialize)]
pub struct ReplayReport {
    /// Decisions re-derived and compared across all shards.
    pub decisions_replayed: u64,
    /// The first divergence found, if any (`None` = bit-identical).
    pub divergence: Option<ReplayDivergence>,
}

impl ReplayReport {
    /// Whether the regenerated stream matched the recording exactly.
    pub fn is_identical(&self) -> bool {
        self.divergence.is_none()
    }
}

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn render<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

/// Bit-exact comparison of one recorded decision against a freshly
/// regenerated one (f64 fields via `to_bits`). `machine`/`start` are
/// the regenerated placement already remapped to global machine ids.
/// Returns the first differing field, `None` when identical.
fn compare_decision(
    shard: u32,
    rec: &DecisionEvent,
    accepted: bool,
    machine: Option<u32>,
    start: Option<f64>,
    info: &cslack_algorithms::DecisionInfo,
) -> Option<ReplayDivergence> {
    let diverge = |field: &'static str, recorded: String, regenerated: String| ReplayDivergence {
        shard,
        seq: rec.seq,
        job: rec.job,
        field,
        recorded,
        regenerated,
    };
    if rec.accepted != accepted {
        Some(diverge(
            "accepted",
            render(&rec.accepted),
            render(&accepted),
        ))
    } else if rec.machine != machine {
        Some(diverge("machine", render(&rec.machine), render(&machine)))
    } else if opt_bits(rec.start) != opt_bits(start) {
        Some(diverge("start", render(&rec.start), render(&start)))
    } else if opt_bits(rec.threshold) != opt_bits(info.threshold) {
        Some(diverge(
            "threshold",
            render(&rec.threshold),
            render(&info.threshold),
        ))
    } else if opt_bits(rec.min_load) != opt_bits(info.min_load) {
        Some(diverge(
            "min_load",
            render(&rec.min_load),
            render(&info.min_load),
        ))
    } else if rec.candidates != info.candidates {
        Some(diverge(
            "candidates",
            render(&rec.candidates),
            render(&info.candidates),
        ))
    } else if rec.reject_reason != info.reject_reason {
        Some(diverge(
            "reject_reason",
            render(&rec.reject_reason),
            render(&info.reject_reason),
        ))
    } else {
        None
    }
}

/// The one per-shard replay loop behind [`replay_snapshot`] and
/// [`rebuild_shard_state`]: re-offers the shard's recorded decisions to
/// `scheduler` in seq order, compares each regenerated decision with
/// the recorded one, and hands every matching one to `commit`. Stops
/// at the first divergence and returns it with the number of decisions
/// offered (the diverging one included); a gap in the seq stream is an
/// error. `group_lo` is the shard's first global machine id (recorded
/// placements are global, the scheduler's are shard-local).
fn replay_shard(
    events: &[FlightEvent],
    shard: u32,
    group_lo: usize,
    scheduler: &mut dyn OnlineScheduler,
    mut commit: impl FnMut(&Job, Decision) -> Result<(), String>,
) -> Result<(u64, Option<ReplayDivergence>), String> {
    let mut decisions: Vec<&DecisionEvent> = events
        .iter()
        .filter_map(|e| match e {
            FlightEvent::Decision(d) => Some(&d.event),
            _ => None,
        })
        .collect();
    decisions.sort_by_key(|d| d.seq);
    for (i, rec) in decisions.iter().enumerate() {
        if rec.seq != i as u64 {
            return Err(format!(
                "shard {shard} decision stream has a gap at seq {i} (found {}); \
                 replay requires a complete recording",
                rec.seq
            ));
        }
        let job = Job::new(
            JobId(rec.job),
            Time::new(rec.release),
            rec.proc_time,
            Time::new(rec.deadline),
        );
        let (decision, info) = scheduler.offer_explained(&job);
        let (accepted, machine, start) = match decision {
            Decision::Accept { machine, start } => {
                (true, Some(group_lo as u32 + machine.0), Some(start.raw()))
            }
            Decision::Reject => (false, None, None),
        };
        if let Some(d) = compare_decision(shard, rec, accepted, machine, start, &info) {
            return Ok((i as u64 + 1, Some(d)));
        }
        commit(&job, decision)?;
    }
    Ok((decisions.len() as u64, None))
}

/// Replays one shard's recorded event stream through a fresh scheduler
/// and rebuilds the shard-local committed schedule — the state-handoff
/// primitive behind shard recovery: a replacement worker calls this
/// with the dead shard's flight ring contents and a scheduler built by
/// the same builder the original run used.
///
/// Verifies the regenerated decision stream is **bit-identical** to
/// the recording (the same replay [`replay_snapshot`] runs); any
/// divergence — or a gap in the seq stream — is an error, because a
/// schedule rebuilt from a diverging replay would not match the
/// commitments the dead worker actually made. On success the returned
/// schedule holds exactly the pre-crash accepts (machine ids
/// shard-local, as the worker keeps them) and the scheduler's internal
/// load state matches the dead worker's at the instant of the crash,
/// so it can keep deciding from decision `seq = decisions` onward.
///
/// `group_lo` is the shard's first global machine id (recorded
/// placements are global; the rebuild maps them back).
pub fn rebuild_shard_state(
    events: &[FlightEvent],
    shard: u32,
    group_lo: usize,
    group_len: usize,
    scheduler: &mut dyn OnlineScheduler,
) -> Result<(Schedule, u64), String> {
    let mut schedule = Schedule::new(group_len.max(1));
    let (replayed, divergence) =
        replay_shard(events, shard, group_lo, scheduler, |job, decision| {
            crate::apply_decision(&mut schedule, job, decision)
                .map(drop)
                .map_err(|e| format!("replayed decision failed to re-commit: {e}"))
        })?;
    match divergence {
        None => Ok((schedule, replayed)),
        Some(d) => Err(d.to_string()),
    }
}

/// Re-runs the recorded run and compares decision streams bit for bit.
///
/// `builder(shard, group_size)` must construct the scheduler exactly as
/// the original run did (same algorithm, parameters, and per-shard seed
/// derivation) — the CLI passes the same closure here and to
/// `Engine::start`. Replay requires a complete recording: a shard with
/// dropped events cannot be replayed faithfully and is an error.
pub fn replay_snapshot<F>(snap: &FlightSnapshot, builder: F) -> Result<ReplayReport, String>
where
    F: Fn(usize, usize) -> Box<dyn OnlineScheduler>,
{
    let m = snap.header.m as usize;
    let shards = snap.header.shards as usize;
    if m == 0 || shards == 0 || shards > m {
        return Err(format!(
            "recording has an invalid layout: m={m}, shards={shards}"
        ));
    }
    let mut replayed = 0u64;
    for block in &snap.shards {
        if block.dropped > 0 {
            return Err(format!(
                "shard {} dropped {} events; replay requires a complete recording \
                 (raise --flight-cap)",
                block.shard, block.dropped
            ));
        }
        let shard = block.shard as usize;
        let (lo, hi) = shard_group_bounds(m, shards, shard);
        let mut scheduler = builder(shard, hi - lo);
        let (offered, divergence) = replay_shard(
            &block.events,
            block.shard,
            lo,
            scheduler.as_mut(),
            |_, _| Ok(()),
        )?;
        replayed += offered;
        if divergence.is_some() {
            return Ok(ReplayReport {
                decisions_replayed: replayed,
                divergence,
            });
        }
    }
    Ok(ReplayReport {
        decisions_replayed: replayed,
        divergence: None,
    })
}

// ---------------------------------------------------------------------
// Invariant audit
// ---------------------------------------------------------------------

/// One invariant violation found by [`audit_snapshot`].
#[derive(Clone, Debug, Serialize)]
pub struct AuditViolation {
    /// Which check failed (`commitment`, `slack`, `threshold`,
    /// `ctable`, `consistency`, `counters`, `stamps`).
    pub check: &'static str,
    /// The shard the offending event came from (`None` for run-level
    /// checks such as counters).
    pub shard: Option<u32>,
    /// The job involved, when one is.
    pub job: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

/// The outcome of a trace-driven invariant audit.
#[derive(Clone, Debug, Serialize)]
pub struct AuditReport {
    /// Decisions examined.
    pub decisions_checked: u64,
    /// Commitments re-committed into a fresh schedule.
    pub commitments_checked: u64,
    /// Whether the header counters could be recomputed and compared
    /// (`false` when the rings dropped events, making totals
    /// unrecoverable).
    pub counters_checked: bool,
    /// Events the bounded rings dropped (a nonzero value weakens the
    /// audit: only the surviving window is checked).
    pub dropped: u64,
    /// Everything that failed.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether every checked invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The factor `f_m` (largest graded factor) the Threshold engine uses
/// for a group of `g` machines under slack `eps` — shared through the
/// memoized ratio table, exactly as the engine derives it.
fn threshold_last_factor(g: usize, eps: f64) -> f64 {
    let eps_params = eps.min(1.0);
    let k = cslack_ratio::RatioFn::new(g).phase(eps_params);
    let f = cslack_ratio::table::solve(g, k, eps_params).f;
    *f.last().expect("factor table is never empty")
}

/// Audits a flight recording against the immediate-commitment model.
///
/// All checks run from the trace alone — no live engine state. The
/// `c(eps, m)` consistency check is gated to `algorithm == "threshold"`
/// (ablated variants deliberately alter the factor table).
pub fn audit_snapshot(snap: &FlightSnapshot) -> AuditReport {
    let m = snap.header.m as usize;
    let shards = snap.header.shards as usize;
    let eps = snap.header.eps;
    let mut report = AuditReport {
        decisions_checked: 0,
        commitments_checked: 0,
        counters_checked: false,
        dropped: snap.total_dropped(),
        violations: Vec::new(),
    };
    if m == 0 || shards == 0 || shards > m {
        report.violations.push(AuditViolation {
            check: "consistency",
            shard: None,
            job: None,
            message: format!("invalid layout: m={m}, shards={shards}"),
        });
        return report;
    }

    // Job parameters by id, for re-committing commitments that lost
    // their decision event to ring pressure.
    let mut params: BTreeMap<u32, Job> = BTreeMap::new();
    for shard in &snap.shards {
        for event in &shard.events {
            let job = match event {
                FlightEvent::Submission {
                    job,
                    release,
                    proc_time,
                    deadline,
                    ..
                } => Job::new(
                    JobId(*job),
                    Time::new(*release),
                    *proc_time,
                    Time::new(*deadline),
                ),
                FlightEvent::Decision(d) => Job::new(
                    JobId(d.job),
                    Time::new(d.release),
                    d.proc_time,
                    Time::new(d.deadline),
                ),
                FlightEvent::Commitment { .. } => continue,
            };
            if let Some(prev) = params.get(&job.id.0) {
                if prev != &job {
                    report.violations.push(AuditViolation {
                        check: "consistency",
                        shard: Some(event.shard()),
                        job: Some(job.id.0),
                        message: format!("{} recorded with conflicting parameters", job.id),
                    });
                }
            } else {
                params.insert(job.id.0, job);
            }
        }
    }

    // Re-commit every commitment into a fresh authoritative schedule:
    // Schedule::commit enforces the machine range, the window
    // r_j <= s_j <= d_j - p_j, lane overlap, and commitment uniqueness.
    let mut schedule = Schedule::new(m);
    let mut accepted_recomputed = 0u64;
    let mut rejected_recomputed = RejectCounts::default();
    for block in &snap.shards {
        let shard = block.shard as usize;
        let (lo, hi) = shard_group_bounds(m, shards, shard);
        let threshold_algo = snap.header.algorithm == "threshold";
        let f_last = if threshold_algo {
            Some(threshold_last_factor(hi - lo, eps))
        } else {
            None
        };
        for event in &block.events {
            match event {
                FlightEvent::Submission { job, .. } => {
                    if *job as usize % shards != shard {
                        report.violations.push(AuditViolation {
                            check: "consistency",
                            shard: Some(block.shard),
                            job: Some(*job),
                            message: format!(
                                "J{job} was routed to shard {shard}, expected {}",
                                *job as usize % shards
                            ),
                        });
                    }
                }
                FlightEvent::Decision(d) => {
                    report.decisions_checked += 1;
                    if d.accepted {
                        accepted_recomputed += 1;
                    } else {
                        rejected_recomputed
                            .bump(d.reject_reason.unwrap_or(RejectReason::Unattributed));
                    }
                    audit_decision(d, block.shard, lo, eps, f_last, &mut report);
                    // Stage stamps must respect pipeline order on the
                    // server's clock; hops never stamped are skipped.
                    if !d.stamps.server_monotone() {
                        report.violations.push(AuditViolation {
                            check: "stamps",
                            shard: Some(block.shard),
                            job: Some(d.job),
                            message: format!(
                                "J{} timeline stamps are not monotone: {:?}",
                                d.job, d.stamps.0
                            ),
                        });
                    }
                }
                FlightEvent::Commitment {
                    job,
                    machine,
                    start,
                    ..
                } => {
                    report.commitments_checked += 1;
                    if (*machine as usize) < lo || (*machine as usize) >= hi {
                        report.violations.push(AuditViolation {
                            check: "commitment",
                            shard: Some(block.shard),
                            job: Some(*job),
                            message: format!(
                                "J{job} committed to machine {machine}, outside the \
                                 shard's group [{lo}, {hi})"
                            ),
                        });
                    }
                    match params.get(job) {
                        Some(j) => {
                            if let Err(e) =
                                schedule.commit(*j, MachineId(*machine), Time::new(*start))
                            {
                                report.violations.push(AuditViolation {
                                    check: "commitment",
                                    shard: Some(block.shard),
                                    job: Some(*job),
                                    message: e.to_string(),
                                });
                            }
                        }
                        None => {
                            // Without the job's parameters the window
                            // checks are impossible; only a complete
                            // recording makes this a hard violation.
                            if report.dropped == 0 {
                                report.violations.push(AuditViolation {
                                    check: "consistency",
                                    shard: Some(block.shard),
                                    job: Some(*job),
                                    message: format!(
                                        "commitment for J{job} has no matching \
                                         submission or decision"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // Counter cross-check: only meaningful when nothing was dropped.
    if report.dropped == 0 {
        report.counters_checked = true;
        let h = &snap.header;
        if h.submitted != report.decisions_checked {
            report.violations.push(AuditViolation {
                check: "counters",
                shard: None,
                job: None,
                message: format!(
                    "engine reported {} submissions, trace holds {} decisions",
                    h.submitted, report.decisions_checked
                ),
            });
        }
        if h.accepted != accepted_recomputed {
            report.violations.push(AuditViolation {
                check: "counters",
                shard: None,
                job: None,
                message: format!(
                    "engine reported {} accepts, trace recomputes {}",
                    h.accepted, accepted_recomputed
                ),
            });
        }
        if h.rejected != rejected_recomputed {
            report.violations.push(AuditViolation {
                check: "counters",
                shard: None,
                job: None,
                message: format!(
                    "engine reported rejects {:?}, trace recomputes {:?}",
                    h.rejected, rejected_recomputed
                ),
            });
        }
    }
    report
}

/// Per-decision checks: slack at admission, commitment window,
/// threshold-rule consistency, and the `c(eps, m)` lower bound on the
/// recorded threshold.
fn audit_decision(
    d: &DecisionEvent,
    shard: u32,
    group_lo: usize,
    eps: f64,
    f_last: Option<f64>,
    report: &mut AuditReport,
) {
    let mut flag = |check: &'static str, message: String| {
        report.violations.push(AuditViolation {
            check,
            shard: Some(shard),
            job: Some(d.job),
            message,
        });
    };
    let job = Job::new(
        JobId(d.job),
        Time::new(d.release),
        d.proc_time,
        Time::new(d.deadline),
    );
    if d.accepted {
        // Admission is only legal for jobs satisfying the slack
        // condition d_j >= r_j + (1 + eps) p_j.
        if !job.satisfies_slack(eps) {
            flag(
                "slack",
                format!(
                    "J{} accepted but violates the slack condition: d={} < r + (1+eps)p = {}",
                    d.job,
                    d.deadline,
                    d.release + (1.0 + eps) * d.proc_time
                ),
            );
        }
        match (d.machine, d.start) {
            (Some(machine), Some(start)) => {
                if (machine as usize) < group_lo {
                    flag(
                        "commitment",
                        format!(
                            "J{} accepted on machine {machine} below its shard group",
                            d.job
                        ),
                    );
                }
                // r_j <= s_j <= d_j - p_j, with the kernel tolerance.
                if !job.feasible_start(Time::new(start)) {
                    flag(
                        "commitment",
                        format!(
                            "J{} start {start} outside the feasible window [{}, {}]",
                            d.job,
                            d.release,
                            job.latest_start()
                        ),
                    );
                }
            }
            _ => flag(
                "consistency",
                format!("J{} accepted without a recorded placement", d.job),
            ),
        }
    }
    if let Some(threshold) = d.threshold {
        // The threshold rule (paper line 5): accept iff d_j >= d_lim.
        if d.accepted && !tol::approx_ge(d.deadline, threshold) {
            flag(
                "threshold",
                format!(
                    "J{} accepted with d={} below the recorded threshold {threshold}",
                    d.job, d.deadline
                ),
            );
        }
        if d.reject_reason == Some(RejectReason::ThresholdExceeded)
            && tol::approx_ge(d.deadline, threshold)
        {
            flag(
                "threshold",
                format!(
                    "J{} rejected as ThresholdExceeded although d={} meets the \
                     recorded threshold {threshold}",
                    d.job, d.deadline
                ),
            );
        }
        // d_lim = max_h (r_j + l(m_h) f_h) can never undercut r_j ...
        if !tol::approx_ge(threshold, d.release) {
            flag(
                "ctable",
                format!(
                    "J{} threshold {threshold} below the release date {}",
                    d.job, d.release
                ),
            );
        }
        // ... nor r_j + l(m_m) f_m, the least-loaded machine's term
        // (f_k < ... < f_m, and min_load is l(m_m)).
        if let (Some(f_last), Some(min_load)) = (f_last, d.min_load) {
            let bound = d.release + min_load * f_last;
            if !tol::approx_ge(threshold, bound) {
                flag(
                    "ctable",
                    format!(
                        "J{} threshold {threshold} below the c(eps,m) lower bound \
                         {bound} = r + min_load * f_m",
                        d.job
                    ),
                );
            }
        }
    }
}

/// Convenience: audits and converts a dirty report into a [`SimError`]
/// — the shape the engine's background audit mode wants.
pub fn audit_as_sim_error(snap: &FlightSnapshot) -> Result<AuditReport, Box<SimError>> {
    let report = audit_snapshot(snap);
    if report.is_clean() {
        Ok(report)
    } else {
        Err(Box::new(SimError::AuditFailed {
            violations: report.violations.len(),
            first: report.violations[0].message.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_algorithms::Threshold;
    use cslack_obs::flight::{FlightHeader, ShardFlight, StampedDecision};
    use cslack_obs::timeline::TimelineStamps;

    fn record_run(m: usize, shards: usize, eps: f64, jobs: &[(f64, f64, f64)]) -> FlightSnapshot {
        // A miniature in-process engine: per-shard Threshold schedulers
        // over contiguous machine groups, exactly the engine layout.
        let mut blocks: Vec<ShardFlight> = (0..shards)
            .map(|s| ShardFlight {
                shard: s as u32,
                dropped: 0,
                events: Vec::new(),
            })
            .collect();
        let mut schedulers: Vec<Threshold> = (0..shards)
            .map(|s| {
                let (lo, hi) = shard_group_bounds(m, shards, s);
                Threshold::new(hi - lo, eps)
            })
            .collect();
        let mut seqs = vec![0u64; shards];
        let mut accepted = 0u64;
        let mut rejected = RejectCounts::default();
        for (id, &(r, p, d)) in jobs.iter().enumerate() {
            let shard = id % shards;
            let (lo, _) = shard_group_bounds(m, shards, shard);
            let seq = seqs[shard];
            seqs[shard] += 1;
            let job = Job::new(JobId(id as u32), Time::new(r), p, Time::new(d));
            blocks[shard].events.push(FlightEvent::Submission {
                seq,
                shard: shard as u32,
                job: id as u32,
                release: r,
                proc_time: p,
                deadline: d,
            });
            let (decision, info) = schedulers[shard].offer_explained(&job);
            let (acc, machine, start) = match decision {
                Decision::Accept { machine, start } => {
                    (true, Some(lo as u32 + machine.0), Some(start.raw()))
                }
                Decision::Reject => (false, None, None),
            };
            if acc {
                accepted += 1;
            } else {
                rejected.bump(info.reject_reason.unwrap_or(RejectReason::Unattributed));
            }
            blocks[shard]
                .events
                .push(FlightEvent::Decision(StampedDecision::new(
                    DecisionEvent {
                        seq,
                        job: id as u32,
                        shard,
                        release: r,
                        proc_time: p,
                        deadline: d,
                        candidates: info.candidates,
                        threshold: info.threshold,
                        min_load: info.min_load,
                        accepted: acc,
                        machine,
                        start,
                        reject_reason: info.reject_reason,
                        latency_ns: 5,
                        queue_wait_ns: 1,
                    },
                    TimelineStamps::empty(),
                )));
            if let (Some(machine), Some(start)) = (machine, start) {
                blocks[shard].events.push(FlightEvent::Commitment {
                    seq,
                    shard: shard as u32,
                    job: id as u32,
                    machine,
                    start,
                });
            }
        }
        FlightSnapshot {
            header: FlightHeader {
                m: m as u32,
                shards: shards as u32,
                eps,
                seed: 0,
                algorithm: "threshold".to_string(),
                submitted: jobs.len() as u64,
                accepted,
                rejected,
            },
            shards: blocks,
        }
    }

    fn workload() -> Vec<(f64, f64, f64)> {
        (0..40)
            .map(|i| {
                let r = (i / 4) as f64 * 0.5;
                let p = 0.5 + (i % 5) as f64 * 0.4;
                let d = r + 1.6 * p + (i % 3) as f64;
                (r, p, d)
            })
            .collect()
    }

    #[test]
    fn clean_run_replays_bit_identically_and_audits_clean() {
        for shards in [1usize, 2, 4] {
            let snap = record_run(4, shards, 0.5, &workload());
            let report = replay_snapshot(&snap, |_s, g| Box::new(Threshold::new(g, 0.5)))
                .expect("replay should run");
            assert!(
                report.is_identical(),
                "shards={shards}: diverged at {:?}",
                report.divergence
            );
            assert_eq!(report.decisions_replayed, 40);
            let audit = audit_snapshot(&snap);
            assert!(audit.is_clean(), "shards={shards}: {:?}", audit.violations);
            assert!(audit.counters_checked);
            assert_eq!(audit.decisions_checked, 40);
        }
    }

    #[test]
    fn rebuild_shard_state_recommits_exactly_the_recorded_accepts() {
        let snap = record_run(4, 2, 0.5, &workload());
        for block in &snap.shards {
            let shard = block.shard as usize;
            let (lo, hi) = shard_group_bounds(4, 2, shard);
            let mut scheduler = Threshold::new(hi - lo, 0.5);
            let (schedule, replayed) =
                rebuild_shard_state(&block.events, block.shard, lo, hi - lo, &mut scheduler)
                    .expect("clean recording rebuilds");
            assert_eq!(replayed, 20);
            let accepts = block
                .events
                .iter()
                .filter(|e| matches!(e, FlightEvent::Decision(d) if d.accepted))
                .count();
            assert_eq!(schedule.len(), accepts);
        }
    }

    #[test]
    fn rebuild_shard_state_rejects_divergence_and_gaps() {
        let mut snap = record_run(4, 1, 0.5, &workload());
        // Tampered accept: the rebuild must refuse to fabricate state.
        if let Some(d) = snap.shards[0].events.iter_mut().find_map(|e| match e {
            FlightEvent::Decision(d) if d.accepted => Some(d),
            _ => None,
        }) {
            d.accepted = false;
            d.machine = None;
            d.start = None;
        }
        let mut scheduler = Threshold::new(4, 0.5);
        let err = rebuild_shard_state(&snap.shards[0].events, 0, 0, 4, &mut scheduler)
            .expect_err("tampering must be detected");
        assert!(err.contains("diverged"), "unexpected error: {err}");

        // A seq gap is equally fatal.
        let snap = record_run(4, 1, 0.5, &workload());
        let gappy: Vec<FlightEvent> = snap.shards[0]
            .events
            .iter()
            .filter(|e| match e {
                FlightEvent::Decision(d) => d.seq != 3,
                _ => true,
            })
            .cloned()
            .collect();
        let mut scheduler = Threshold::new(4, 0.5);
        let err = rebuild_shard_state(&gappy, 0, 0, 4, &mut scheduler)
            .expect_err("gaps must be detected");
        assert!(err.contains("gap"), "unexpected error: {err}");
    }

    #[test]
    fn replay_detects_a_tampered_decision() {
        let mut snap = record_run(4, 2, 0.5, &workload());
        // Flip the first recorded accept on shard 0 into a reject.
        let tampered = snap.shards[0]
            .events
            .iter_mut()
            .find_map(|e| match e {
                FlightEvent::Decision(d) if d.accepted => Some(d),
                _ => None,
            })
            .expect("run accepts something");
        tampered.accepted = false;
        tampered.machine = None;
        tampered.start = None;
        let report = replay_snapshot(&snap, |_s, g| Box::new(Threshold::new(g, 0.5))).unwrap();
        let div = report.divergence.expect("tampering must be detected");
        assert_eq!(div.field, "accepted");
        assert_eq!(div.shard, 0);
    }

    #[test]
    fn replay_refuses_incomplete_recordings() {
        let mut snap = record_run(4, 2, 0.5, &workload());
        snap.shards[1].dropped = 3;
        let err = replay_snapshot(&snap, |_s, g| Box::new(Threshold::new(g, 0.5))).unwrap_err();
        assert!(err.contains("dropped"), "unexpected error: {err}");
    }

    #[test]
    fn audit_catches_overlap_window_slack_and_threshold_violations() {
        let mut snap = record_run(4, 1, 0.5, &workload());
        // Clone the first commitment onto the same machine and start:
        // lane overlap (or duplicate id — both are commitment checks).
        let first = snap.shards[0]
            .events
            .iter()
            .find(|e| matches!(e, FlightEvent::Commitment { .. }))
            .cloned()
            .expect("run commits something");
        snap.shards[0].events.push(first);
        let report = audit_snapshot(&snap);
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| v.check == "commitment"));

        // A fabricated accept below its recorded threshold.
        let mut snap = record_run(4, 1, 0.5, &workload());
        for e in snap.shards[0].events.iter_mut() {
            if let FlightEvent::Decision(d) = e {
                if !d.accepted && d.reject_reason == Some(RejectReason::ThresholdExceeded) {
                    d.accepted = true;
                    d.machine = Some(0);
                    d.start = Some(d.release);
                    d.reject_reason = None;
                    break;
                }
            }
        }
        let report = audit_snapshot(&snap);
        assert!(report.violations.iter().any(|v| v.check == "threshold"));
    }

    #[test]
    fn audit_catches_counter_mismatch() {
        let mut snap = record_run(4, 2, 0.5, &workload());
        snap.header.accepted += 1;
        let report = audit_snapshot(&snap);
        assert!(report.counters_checked);
        assert!(report.violations.iter().any(|v| v.check == "counters"));
    }

    #[test]
    fn audit_catches_a_threshold_undercutting_the_ctable_bound() {
        // One machine: after the first accept the (only) machine is the
        // least loaded, so the second decision records min_load > 0 and
        // a threshold r + min_load * f_1.
        let mut snap = record_run(1, 1, 0.5, &[(0.0, 1.0, 100.0), (0.0, 1.0, 100.0)]);
        let mut tampered = false;
        for e in snap.shards[0].events.iter_mut() {
            if let FlightEvent::Decision(d) = e {
                if let (Some(t), Some(l)) = (d.threshold, d.min_load) {
                    if l > 0.0 && t > d.release {
                        // Shrink the recorded threshold below the
                        // provable lower bound r + min_load * f_m.
                        d.threshold = Some(d.release + (t - d.release) * 1e-6);
                        tampered = true;
                        break;
                    }
                }
            }
        }
        assert!(tampered, "workload never produced min_load > 0");
        let report = audit_snapshot(&snap);
        assert!(
            report.violations.iter().any(|v| v.check == "ctable"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn audit_as_sim_error_wraps_dirty_reports() {
        let snap = record_run(4, 2, 0.5, &workload());
        assert!(audit_as_sim_error(&snap).is_ok());
        let mut bad = snap.clone();
        bad.header.submitted += 7;
        let err = audit_as_sim_error(&bad).unwrap_err();
        assert!(matches!(*err, SimError::AuditFailed { .. }));
    }
}
