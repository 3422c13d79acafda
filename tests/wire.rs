//! The admission service end to end over loopback TCP: every job of a
//! bursty instance, submitted through `client::Connection` in
//! `SubmitBatch` frames, gets exactly one `Decision`, and the decisions
//! are the single-threaded simulator's.

use cslack_server::client::Connection;
use cslack_server::proto::{Frame, WireJob};
use cslack_server::{Server, ServerConfig, TenantSpec};
use cslack_sim::simulate;
use cslack_sim::sweep::AlgoKind;
use cslack_workloads::scenarios::bursty_heavy_tail;
use std::time::Duration;

/// Jobs per `SubmitBatch` frame.
const BATCH: usize = 64;
/// Most frames with unanswered jobs at any time.
const WINDOW: usize = 8;

/// A job's answer: accepted, machine, start.
type Answer = (bool, Option<u32>, Option<f64>);

#[test]
fn every_job_gets_the_simulators_decision_over_the_wire() {
    let (m, eps, n) = (8, 0.25, 4096);
    let inst = bursty_heavy_tail(m, eps, n, 7);
    assert!(inst
        .jobs()
        .iter()
        .enumerate()
        .all(|(i, j)| j.id.0 as usize == i));
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".parse().unwrap(),
        telemetry: None,
        tenants: vec![TenantSpec::new("t", m, eps)],
    })
    .expect("server start");
    let mut conn = Connection::connect(server.addr()).expect("connect");
    // A lost answer fails the test instead of hanging it.
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.hello("t").expect("hello");

    let frames: Vec<Frame> = inst
        .jobs()
        .chunks(BATCH)
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
        .collect();
    let mut unanswered: Vec<usize> = inst.jobs().chunks(BATCH).map(<[_]>::len).collect();
    let mut answers: Vec<Option<Answer>> = vec![None; n];
    let (mut sent, mut done) = (0, 0);
    while done < frames.len() {
        while sent < frames.len() && sent - done < WINDOW {
            conn.send(&frames[sent]).expect("send batch");
            sent += 1;
        }
        let d = match conn.recv() {
            Ok(Frame::Decision(d)) => d,
            other => panic!("expected a decision, got {other:?}"),
        };
        let job = d.job as usize;
        assert!(job < sent * BATCH, "decision for unsent job {job}");
        let slot = &mut answers[job];
        assert!(slot.is_none(), "second decision for job {job}");
        *slot = Some((d.accepted, d.machine, d.start));
        unanswered[job / BATCH] -= 1;
        if unanswered[job / BATCH] == 0 {
            done += 1;
        }
    }

    let reference = simulate(&inst, &mut *AlgoKind::Threshold.build(m, eps, 0)).unwrap();
    let mut expected: Vec<Answer> = vec![(false, None, None); n];
    for c in reference.schedule.iter() {
        expected[c.job.id.0 as usize] = (true, Some(c.machine.0), Some(c.start.raw()));
    }
    for (job, (got, want)) in answers.iter().zip(&expected).enumerate() {
        assert_eq!(got.as_ref(), Some(want), "job {job}");
    }

    let summary = conn.drain().expect("drain");
    assert_eq!(summary.submitted, n as u64);
    let accepted_load = reference.accepted_load();
    assert!(
        (summary.accepted_load - accepted_load).abs() <= 1e-9,
        "wire {} vs simulator {accepted_load}",
        summary.accepted_load
    );
    drop(conn);
    server.shutdown();
}
