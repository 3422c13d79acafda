//! The wire workload's closed-loop client: one `client::Connection`
//! keeping up to `window` `SubmitBatch` frames outstanding, sending the
//! next frame only once every job of an earlier one has been answered.

use crate::digest::Outcome;
use crate::stats::Samples;
use crate::SAMPLE_CAP;
use cslack_kernel::Job;
use cslack_obs::flight::StampedDecision;
use cslack_obs::Stage;
use cslack_server::client::Connection;
use cslack_server::proto::{Frame, WireJob};
use std::time::Instant;

/// Closed-loop shape.
#[derive(Clone, Copy, Debug)]
pub struct LoopConfig {
    /// Jobs per `SubmitBatch` frame.
    pub batch: usize,
    /// Most frames with unanswered jobs at any time.
    pub window: usize,
    /// Leading jobs sent before the timed window opens.
    pub warmup_jobs: usize,
    /// Keep the server's echoed stage stamps and a sample of decision
    /// frames (traced runs only).
    pub traced: bool,
}

/// What the client saw.
pub struct LoopResult {
    /// Every job's answer, by id.
    pub outcome: Outcome,
    /// Write of a job's `SubmitBatch` to read of its `Decision`, for
    /// jobs after the warm-up.
    pub latency_ns: Samples,
    /// From the first post-warm-up write to the last `Decision` read.
    pub window_ns: u64,
    /// `Decision` frames read inside the window.
    pub decided_in_window: u64,
    /// Jobs answered with something other than a `Decision`.
    pub refused: u64,
    /// Most frames outstanding at once.
    pub max_outstanding: usize,
    /// FrameDecode -> Delivery, from the echoed stamps (traced).
    pub span_ns: Samples,
    /// FrameDecode -> Enqueue (traced).
    pub dispatch_ns: Samples,
    /// Decide -> Delivery (traced).
    pub delivery_ns: Samples,
    /// Client round trip minus the server span (traced).
    pub network_ns: Samples,
    /// Enqueue -> Dequeue (traced).
    pub queue_wait_ns: Samples,
    /// Dequeue -> Decide (traced).
    pub decide_ns: Samples,
    /// The first decisions received, for the codec timings (traced).
    pub decisions: Vec<StampedDecision>,
}

/// The `SubmitBatch` frames for `jobs`, built before any timing so
/// workload generation stays outside the measured window.
pub fn frames(jobs: &[Job], batch: usize) -> Vec<Frame> {
    jobs.chunks(batch)
        .map(|chunk| Frame::SubmitBatch {
            jobs: chunk
                .iter()
                .map(|j| WireJob {
                    id: j.id.0,
                    release: j.release.raw(),
                    proc_time: j.proc_time,
                    deadline: j.deadline.raw(),
                })
                .collect(),
            client_send_ns: 0,
        })
        .collect()
}

/// Sends `frames` (jobs with ids `0..n`, `cfg.batch` per frame, in id
/// order) over `conn` in a closed loop and collects every answer,
/// calling `window_open` when the first frame after the warm-up goes
/// out. Any `Backpressure` or connection-level `Reject` is an error: the
/// window is meant to stay below the tenant's in-flight quota.
pub fn run(
    conn: &mut Connection,
    mut frames: Vec<Frame>,
    n: usize,
    cfg: &LoopConfig,
    window_open: &mut dyn FnMut(),
) -> Result<LoopResult, String> {
    let batches = frames.len();
    let mut remaining: Vec<usize> = frames
        .iter()
        .map(|f| match f {
            Frame::SubmitBatch { jobs, .. } => jobs.len(),
            _ => 0,
        })
        .collect();
    let mut sent_at: Vec<Option<Instant>> = vec![None; batches];
    let first_timed = cfg.warmup_jobs.div_ceil(cfg.batch);
    let mut res = LoopResult {
        outcome: Outcome::new(n),
        latency_ns: Samples::with_cap(SAMPLE_CAP),
        window_ns: 0,
        decided_in_window: 0,
        refused: 0,
        max_outstanding: 0,
        span_ns: Samples::with_cap(SAMPLE_CAP),
        dispatch_ns: Samples::with_cap(SAMPLE_CAP),
        delivery_ns: Samples::with_cap(SAMPLE_CAP),
        network_ns: Samples::with_cap(SAMPLE_CAP),
        queue_wait_ns: Samples::with_cap(SAMPLE_CAP),
        decide_ns: Samples::with_cap(SAMPLE_CAP),
        decisions: Vec::new(),
    };
    // The client's own stamp clock: `client_send_ns` is echoed back
    // verbatim and never compared with server stamps.
    let base = Instant::now();
    let (mut next, mut outstanding, mut done) = (0usize, 0usize, 0usize);
    let mut window_start: Option<Instant> = None;
    let mut last_read = base;
    while done < batches {
        while outstanding < cfg.window && next < batches {
            let now = Instant::now();
            if let Frame::SubmitBatch { client_send_ns, .. } = &mut frames[next] {
                *client_send_ns = (now - base).as_nanos().max(1) as u64;
            }
            conn.send(&frames[next])
                .map_err(|e| format!("send batch {next}: {e}"))?;
            sent_at[next] = Some(now);
            if next == first_timed {
                window_start = Some(now);
                window_open();
            }
            next += 1;
            outstanding += 1;
            res.max_outstanding = res.max_outstanding.max(outstanding);
        }
        let frame = conn.recv().map_err(|e| format!("recv: {e}"))?;
        let now = Instant::now();
        let job = match &frame {
            Frame::Decision(d) => d.job,
            Frame::Reject { job: Some(job), .. } | Frame::Retry { job } => {
                res.refused += 1;
                *job
            }
            other => return Err(format!("unexpected frame mid-run: {other:?}")),
        };
        let b = job as usize / cfg.batch;
        let Some(t_sent) = sent_at.get(b).copied().flatten() else {
            return Err(format!("answer for job {job} of an unsent batch"));
        };
        if let Frame::Decision(d) = &frame {
            res.outcome.record(d);
            last_read = now;
            let rtt = (now - t_sent).as_nanos() as u64;
            if window_start.is_some() {
                res.decided_in_window += 1;
            }
            if job as usize >= cfg.warmup_jobs {
                res.latency_ns.push(rtt);
                if cfg.traced {
                    note_stamps(&mut res, d, rtt);
                }
            }
        }
        if remaining[b] == 0 {
            return Err(format!("second answer for job {job}"));
        }
        remaining[b] -= 1;
        if remaining[b] == 0 {
            outstanding -= 1;
            done += 1;
        }
    }
    if let Some(start) = window_start {
        res.window_ns = (last_read - start).as_nanos() as u64;
    }
    Ok(res)
}

fn note_stamps(res: &mut LoopResult, d: &StampedDecision, rtt: u64) {
    let s = &d.stamps;
    if let Some(span) = s.span(Stage::FrameDecode, Stage::Delivery) {
        res.span_ns.push(span);
        res.network_ns.push(rtt.saturating_sub(span));
    }
    if let Some(ns) = s.span(Stage::FrameDecode, Stage::Enqueue) {
        res.dispatch_ns.push(ns);
    }
    if let Some(ns) = s.span(Stage::Decide, Stage::Delivery) {
        res.delivery_ns.push(ns);
    }
    if let Some(ns) = s.span(Stage::Enqueue, Stage::Dequeue) {
        res.queue_wait_ns.push(ns);
    }
    if let Some(ns) = s.span(Stage::Dequeue, Stage::Decide) {
        res.decide_ns.push(ns);
    }
    if res.decisions.len() < 1 << 16 {
        res.decisions.push(d.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_server::{Server, ServerConfig, TenantSpec};
    use cslack_sim::simulate;
    use cslack_sim::sweep::AlgoKind;

    #[test]
    fn answers_every_job_once_within_the_window() {
        let (batch, window) = (16, 3);
        let inst = cslack_workloads::scenarios::bursty_heavy_tail(8, 0.25, 3000, 5);
        let n = inst.len();
        let mut spec = TenantSpec::new("t", 8, 0.25);
        // A quota of exactly one full window: any frame past the window
        // would be refused with `Backpressure`, which `run` turns into
        // an error.
        spec.inflight_limit = batch * window;
        let server = Server::start(ServerConfig {
            listen: "127.0.0.1:0".parse().unwrap(),
            telemetry: None,
            tenants: vec![spec],
        })
        .unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        conn.hello("t").unwrap();
        let cfg = LoopConfig {
            batch,
            window,
            warmup_jobs: 512,
            traced: true,
        };
        let mut opened = 0;
        let res = run(&mut conn, frames(inst.jobs(), batch), n, &cfg, &mut || {
            opened += 1
        })
        .unwrap();
        assert_eq!(opened, 1);
        assert_eq!(res.outcome.missing(), 0);
        assert_eq!(res.outcome.duplicates(), 0);
        assert_eq!(res.refused, 0);
        assert_eq!(res.max_outstanding, window);
        assert_eq!(res.latency_ns.seen(), (n - 512) as u64);
        assert!(res.decided_in_window >= (n - 512) as u64);
        let reference = simulate(&inst, &mut *AlgoKind::Threshold.build(8, 0.25, 0)).unwrap();
        assert_eq!(
            res.outcome.digest(),
            Outcome::from_sim(&reference, n).digest()
        );
        let summary = conn.drain().unwrap();
        assert_eq!(summary.submitted, n as u64);
        drop(conn);
        server.shutdown();
    }
}
