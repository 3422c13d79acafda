//! `sim_iaas_m64`: single-threaded `sim::simulate` of Threshold (m=64,
//! eps=0.25) over `workloads::iaas_mix`.
//!
//! Only the `algorithms` and `kernel` layers do work here. Poisson
//! arrivals put almost every offer at a new instant, so the allocator's
//! per-instant rank cache mostly misses; at m=64 the ranking ladder and
//! candidate scan dominate.
//!
//! A run replays [`INSTANCES`] instances of [`JOBS`] jobs each, derived
//! from the seed, in passes; one pass (every instance once) is one
//! cycle. `simulate` hands back every answer when it returns, so each
//! job's answer latency is its replay's duration. Every replay counts:
//! the rate is all jobs over all replay time, and the latency quantiles
//! are taken over every replay.

use crate::digest::Outcome;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, quantiles, Samples};
use crate::timed::{offer_sink, TimedScheduler};
use crate::{peak_rss_mb, Opts, EPS, RSS_ERR, SAMPLE_CAP};
use cslack_algorithms::OnlineScheduler;
use cslack_kernel::{validate_schedule, Instance, Schedule};
use cslack_sim::sweep::AlgoKind;
use cslack_sim::{apply_decision, simulate, JobDecision, SimReport};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Machines.
pub const M: usize = 64;
/// Jobs per instance.
pub const JOBS: usize = 6_250;
/// Instances per pass; instance `i` of seed `s` is generated from
/// seed `s * 256 + i`. Instances differ in cost, so many of them keep
/// the replay-time quantiles from jumping between a few clusters.
pub const INSTANCES: u64 = 32;

/// The workload's instances for `seed`.
pub fn instances(seed: u64) -> Vec<Instance> {
    (0..INSTANCES)
        .map(|i| {
            let s = seed.wrapping_mul(256).wrapping_add(i);
            cslack_workloads::scenarios::iaas_mix(M, EPS, JOBS, s)
        })
        .collect()
}

fn scheduler(seed: u64) -> Box<dyn OnlineScheduler> {
    AlgoKind::Threshold.build(M, EPS, seed)
}

/// Cold-process set-up: the scheduler build, which solves `c(eps, m)`.
pub fn setup(seed: u64) -> Report {
    let t0 = Instant::now();
    black_box(scheduler(seed));
    let solve = t0.elapsed().as_secs_f64();
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    r.put("setup_s", solve, "s");
    r.put("ratio.solve_ms", solve * 1e3, "ms");
    r
}

/// Replays the instances in passes for `opts.seconds`, checking every
/// replay's decisions against an untimed reference run.
pub fn measure(opts: &Opts) -> Result<Report, String> {
    let insts = instances(opts.seed);
    let mut want = Vec::with_capacity(insts.len());
    let (mut offered, mut accepted) = (0.0, 0.0);
    for inst in &insts {
        let reference = simulate(inst, &mut *scheduler(opts.seed))
            .map_err(|e| format!("reference simulation failed: {e}"))?;
        want.push(Outcome::from_sim(&reference, inst.len()).digest());
        offered += inst.total_load();
        accepted += reference.accepted_load();
    }

    let mut spans = opts.traced.then(|| Spans::new(1 << 20));
    let sink = offer_sink(SAMPLE_CAP);
    let mut commit_ns = Samples::with_cap(SAMPLE_CAP);
    let mut validate_ms = Vec::new();
    // Per replay: its duration. Per pass: the teardown (dropping each
    // replay's report and scheduler) summed over the pass; one drop
    // takes microseconds, too little to time steadily on its own.
    let mut replay_ns = Vec::new();
    let mut teardown_s = Vec::new();
    let mut mismatches = 0u64;
    let mut passes = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    loop {
        let mut teardown = Duration::ZERO;
        for (inst, &want) in insts.iter().zip(&want) {
            let (report, took, scheduler) = if opts.traced {
                let mut timed = TimedScheduler::new(scheduler(opts.seed), SAMPLE_CAP, sink.clone());
                let (report, took, validate) =
                    traced_replay(inst, &mut timed, &mut commit_ns, spans.as_mut())?;
                validate_ms.push(validate.as_secs_f64() * 1e3);
                (report, took, Box::new(timed) as Box<dyn OnlineScheduler>)
            } else {
                let mut s = scheduler(opts.seed);
                let t0 = Instant::now();
                let report =
                    simulate(inst, &mut *s).map_err(|e| format!("simulation failed: {e}"))?;
                (report, t0.elapsed(), s)
            };
            replay_ns.push(took.as_nanos() as u64);
            if Outcome::from_sim(&report, inst.len()).digest() != want {
                mismatches += 1;
            }
            let t0 = Instant::now();
            drop(report);
            drop(scheduler);
            teardown += t0.elapsed();
        }
        teardown_s.push(teardown.as_secs_f64());
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
    }

    let jobs = passes as u64 * JOBS as u64 * INSTANCES;
    let busy_s = replay_ns.iter().sum::<u64>() as f64 / 1e9;
    let rate = jobs as f64 / busy_s;
    let mut r = Report {
        attempted: jobs,
        failed: 0,
        correct: mismatches == 0,
        ..Report::default()
    };
    r.note("jobs_per_cycle", JOBS as u64 * INSTANCES);
    r.note("cycles", passes);
    if opts.traced {
        r.put_n("trace.decisions_per_s", rate, "1/s", jobs as usize);
        let mut stats = std::mem::take(&mut *sink.lock().map_err(|_| "poisoned sink")?);
        let q = stats.offer_ns.quantiles(&[0.5, 0.99], 1.0);
        r.put_q("algorithms.offer_ns.p50", q[0], "ns");
        r.put_q("algorithms.offer_ns.p99", q[1], "ns");
        r.put_n(
            "algorithms.accept_frac",
            stats.accepted as f64 / stats.offer_ns.seen().max(1) as f64,
            "ratio",
            stats.offer_ns.seen() as usize,
        );
        let q = commit_ns.quantiles(&[0.5, 0.99], 1.0);
        r.put_q("kernel.commit_ns.p50", q[0], "ns");
        r.put_q("kernel.commit_ns.p99", q[1], "ns");
        r.put_n(
            "sim.validate_ms",
            median(&validate_ms).unwrap_or(0.0),
            "ms",
            validate_ms.len(),
        );
        if let (Some(s), Some(path)) = (&spans, &opts.spans_out) {
            s.write_jsonl(path)
                .map_err(|e| format!("write spans: {e}"))?;
        }
    } else {
        r.put_n("decisions_per_s", rate, "1/s", jobs as usize);
        // Each replay answers all its jobs when it returns, and every
        // instance has the same job count, so the job-weighted latency
        // quantiles are the quantiles of the replay durations.
        let q = quantiles(&mut replay_ns, &[0.5, 0.9]);
        r.put_q("latency_p50_us", q[0].scaled(1e3), "us");
        r.put_q("latency_p90_us", q[1].scaled(1e3), "us");
        r.put("accepted_load_frac", accepted / offered, "ratio");
        r.put_n(
            "drain_s",
            median(&teardown_s).unwrap_or(0.0),
            "s",
            teardown_s.len(),
        );
        r.put("peak_rss_mb", peak_rss_mb().ok_or(RSS_ERR)?, "MiB");
    }
    Ok(r)
}

/// `simulate`, rebuilt step for step from its public parts so each
/// commit and the final validation can be timed: offer every job in
/// order, apply each decision with `sim::apply_decision`, record it,
/// validate the schedule, build the report. Returns the report, the
/// whole replay's time and the validation's time.
fn traced_replay(
    inst: &Instance,
    scheduler: &mut TimedScheduler,
    commit_ns: &mut Samples,
    spans: Option<&mut Spans>,
) -> Result<(SimReport, Duration, Duration), String> {
    let t0 = Instant::now();
    let mut schedule = Schedule::new(inst.machines());
    let mut decisions = Vec::with_capacity(inst.len());
    for job in inst.jobs() {
        let decision = scheduler.offer(job);
        let accepted = if decision.is_accept() {
            let c0 = Instant::now();
            let accepted = apply_decision(&mut schedule, job, decision);
            commit_ns.push(c0.elapsed().as_nanos() as u64);
            accepted
        } else {
            apply_decision(&mut schedule, job, decision)
        }
        .map_err(|e| format!("bad commitment: {e}"))?;
        decisions.push(JobDecision {
            job: job.id,
            accepted,
        });
    }
    let v0 = Instant::now();
    let valid = validate_schedule(inst, &schedule).is_valid();
    let v1 = Instant::now();
    if !valid {
        return Err("final schedule failed validation".into());
    }
    let report = SimReport {
        algorithm: scheduler.name().to_string(),
        schedule,
        decisions,
        offered_load: inst.total_load(),
    };
    let t1 = Instant::now();
    if let Some(s) = spans {
        s.record("sim.replay", 0, t0, t1);
        s.record("sim.validate_schedule", 0, v0, v1);
    }
    Ok((report, t1 - t0, v1 - v0))
}
