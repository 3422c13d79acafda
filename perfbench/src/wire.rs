//! `wire_burst_m8`: an in-process `Server` on a loopback ephemeral port
//! with one `TenantSpec::new("bench", 8, 0.25)` tenant (shipped
//! defaults) and a telemetry listener, loaded by two client threads:
//!
//! * a closed loop on one `client::Connection` keeping up to 8
//!   `SubmitBatch` frames of 64 jobs outstanding (512 jobs, below the
//!   4096 in-flight quota, so backpressure never fires);
//! * a scraper on a second connection that GETs `/metrics` when the
//!   timed window opens and every 300 ms after, longer than the 250 ms
//!   scrape cache, so every poll renders.
//!
//! The traffic is the `engine_burst_m8` instance and the decisions are
//! identical, so the difference between the two workloads isolates the
//! `server` layer: frame decode, dispatch, dispatcher routing, the
//! writer thread and TCP.

use crate::closed_loop::{self, LoopConfig};
use crate::engine::{instance, reference_digest, BATCH, M, WARMUP};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, Samples};
use crate::{peak_rss_mb, Opts, EPS, RSS_ERR, SAMPLE_CAP};
use cslack_obs::flight::StampedDecision;
use cslack_server::client::Connection;
use cslack_server::proto::{self, Frame};
use cslack_server::{Server, ServerConfig, TenantSpec};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The tenant's name.
pub const TENANT: &str = "bench";
/// Frames the closed loop keeps outstanding.
pub const WINDOW: usize = 8;
/// The scraper's polling interval.
pub const SCRAPE_EVERY: Duration = Duration::from_millis(300);

fn start_server() -> Result<Server, String> {
    let loopback = |port: u16| SocketAddr::from(([127, 0, 0, 1], port));
    Server::start(ServerConfig {
        listen: loopback(0),
        telemetry: Some(loopback(0)),
        tenants: vec![TenantSpec::new(TENANT, M, EPS)],
    })
}

/// Cold-process set-up: `Server::start` plus the Hello/HelloAck round
/// trip.
pub fn setup() -> Result<Report, String> {
    let t0 = Instant::now();
    let server = start_server()?;
    let mut conn = Connection::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    conn.hello(TENANT)?;
    let took = t0.elapsed();
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    r.put("setup_s", took.as_secs_f64(), "s");
    conn.drain()?;
    drop(conn);
    server.shutdown();
    Ok(r)
}

/// One GET of `/metrics`: connect to the response's end of stream.
fn scrape(addr: SocketAddr) -> Result<Duration, String> {
    let t0 = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("scrape write: {e}"))?;
    let mut body = Vec::new();
    s.read_to_end(&mut body)
        .map_err(|e| format!("scrape read: {e}"))?;
    let took = t0.elapsed();
    if !body.starts_with(b"HTTP/1.1 200") {
        return Err("scrape did not answer 200".into());
    }
    Ok(took)
}

/// The scraper thread: its first GET when the closed loop opens the
/// timed window (the first message on `ticks`), then one every
/// [`SCRAPE_EVERY`] until the sender is dropped.
fn scraper(addr: SocketAddr, ticks: mpsc::Receiver<()>) -> Result<Vec<Duration>, String> {
    let mut took = Vec::new();
    if ticks.recv().is_err() {
        return Ok(took);
    }
    loop {
        took.push(scrape(addr)?);
        if let Err(mpsc::RecvTimeoutError::Disconnected) = ticks.recv_timeout(SCRAPE_EVERY) {
            return Ok(took);
        }
    }
}

/// Runs server lifetimes back to back for `opts.seconds`.
pub fn measure(opts: &Opts) -> Result<Report, String> {
    let inst = instance(opts.seed);
    let n = inst.len();
    let want = reference_digest(&inst, opts.seed)?;
    let total_load = inst.total_load();
    let cfg = LoopConfig {
        batch: BATCH,
        window: WINDOW,
        warmup_jobs: WARMUP,
        traced: opts.traced,
    };

    let mut spans = opts.traced.then(|| Spans::new(1 << 16));
    let mut latency_ns = Samples::with_cap(SAMPLE_CAP);
    let mut span_ns = Samples::with_cap(SAMPLE_CAP);
    let mut dispatch_ns = Samples::with_cap(SAMPLE_CAP);
    let mut delivery_ns = Samples::with_cap(SAMPLE_CAP);
    let mut network_ns = Samples::with_cap(SAMPLE_CAP);
    let mut queue_wait_ns = Samples::with_cap(SAMPLE_CAP);
    let mut decide_ns = Samples::with_cap(SAMPLE_CAP);
    let mut scrape_ns = Samples::with_cap(SAMPLE_CAP);
    let mut decisions: Vec<StampedDecision> = Vec::new();
    let (mut window_ns, mut decided_in_window) = (0u64, 0u64);
    let (mut attempted, mut failed, mut mismatches, mut cycles) = (0u64, 0u64, 0u64, 0usize);
    let mut drain_s = Vec::new();
    let mut load_frac;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    loop {
        let frames = closed_loop::frames(inst.jobs(), BATCH);
        let cycle = spans.as_mut().map_or(0, Spans::reserve);
        let cycle_t0 = Instant::now();
        let server = start_server()?;
        let telemetry = server.telemetry_addr().ok_or("no telemetry listener")?;
        let mut conn = Connection::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        conn.hello(TENANT)?;
        let (tick_tx, tick_rx) = mpsc::channel();
        let scraper = std::thread::Builder::new()
            .name("perfbench-scraper".into())
            .spawn(move || scraper(telemetry, tick_rx))
            .map_err(|e| format!("spawn scraper: {e}"))?;

        let t0 = Instant::now();
        let run = closed_loop::run(&mut conn, frames, n, &cfg, &mut || {
            let _ = tick_tx.send(());
        });
        let t1 = Instant::now();
        let summary = run.as_ref().ok().map(|_| conn.drain());
        let t2 = Instant::now();
        drop(tick_tx);
        let scrapes = scraper.join().map_err(|_| "scraper panicked")?;
        drop(conn);
        server.shutdown();

        let mut res = run?;
        let summary = summary.ok_or("no summary")??;
        for d in scrapes? {
            scrape_ns.push(d.as_nanos() as u64);
        }
        if let Some(s) = spans.as_mut() {
            s.record("wire.closed_loop", cycle, t0, t1);
            s.record("wire.drain", cycle, t1, t2);
            s.record_as(cycle, "wire.cycle", 0, cycle_t0, Instant::now());
        }
        drain_s.push((t2 - t1).as_secs_f64());
        window_ns += res.window_ns;
        decided_in_window += res.decided_in_window;
        latency_ns.absorb(std::mem::take(&mut res.latency_ns));
        if opts.traced {
            span_ns.absorb(std::mem::take(&mut res.span_ns));
            dispatch_ns.absorb(std::mem::take(&mut res.dispatch_ns));
            delivery_ns.absorb(std::mem::take(&mut res.delivery_ns));
            network_ns.absorb(std::mem::take(&mut res.network_ns));
            queue_wait_ns.absorb(std::mem::take(&mut res.queue_wait_ns));
            decide_ns.absorb(std::mem::take(&mut res.decide_ns));
            if decisions.is_empty() {
                decisions = std::mem::take(&mut res.decisions);
            }
        }
        attempted += n as u64;
        failed += res.outcome.missing();
        if res.outcome.digest() != want || summary.submitted != n as u64 {
            mismatches += 1;
        }
        load_frac = summary.accepted_load / total_load;
        cycles += 1;
        if Instant::now() >= deadline {
            break;
        }
    }

    let mut r = Report {
        attempted,
        failed,
        correct: mismatches == 0,
        ..Report::default()
    };
    r.note("jobs_per_cycle", n);
    r.note("cycles", cycles);
    // Every cycle's window counts: decisions in all windows over the
    // time of all windows.
    let rate = decided_in_window as f64 / (window_ns as f64 / 1e9);
    if opts.traced {
        r.put_n(
            "trace.decisions_per_s",
            rate,
            "1/s",
            decided_in_window as usize,
        );
        codec_timings(&mut r, &inst, &decisions);
        let q = span_ns.quantiles(&[0.5, 0.99], 1e3);
        r.put_q("server.span_us.p50", q[0], "us");
        r.put_q("server.span_us.p99", q[1], "us");
        let q = queue_wait_ns.quantiles(&[0.5, 0.99], 1e3);
        r.put_q("engine.queue_wait_us.p50", q[0], "us");
        r.put_q("engine.queue_wait_us.p99", q[1], "us");
        let q = decide_ns.quantiles(&[0.99], 1e3);
        r.put_q("engine.decide_us.p99", q[0], "us");
        let q = dispatch_ns.quantiles(&[0.99], 1e3);
        r.put_q("server.dispatch_us.p99", q[0], "us");
        let q = delivery_ns.quantiles(&[0.99], 1e3);
        r.put_q("server.delivery_us.p99", q[0], "us");
        let q = network_ns.quantiles(&[0.5, 0.99], 1e3);
        r.put_q("server.network_us.p50", q[0], "us");
        r.put_q("server.network_us.p99", q[1], "us");
        let q = scrape_ns.quantiles(&[0.5, 0.99], 1e6);
        r.put_q("server.scrape_ms.p50", q[0], "ms");
        r.put_q("server.scrape_ms.p99", q[1], "ms");
        if let (Some(s), Some(path)) = (&spans, &opts.spans_out) {
            s.write_jsonl(path)
                .map_err(|e| format!("write spans: {e}"))?;
        }
    } else {
        r.put_n("decisions_per_s", rate, "1/s", decided_in_window as usize);
        let q = latency_ns.quantiles(&[0.5, 0.9, 0.99], 1e3);
        r.put_q("latency_p50_us", q[0], "us");
        r.put_q("latency_p90_us", q[1], "us");
        r.put("accepted_load_frac", load_frac, "ratio");
        r.put_n("drain_s", median(&drain_s).unwrap_or(0.0), "s", cycles);
        r.put("peak_rss_mb", peak_rss_mb().ok_or(RSS_ERR)?, "MiB");
        r.put_q("latency_p99_us", q[2], "us");
    }
    Ok(r)
}

/// `server.encode_submit_us` and `server.decode_decision_ns`: the
/// protocol codec timed on this workload's own frames, outside any
/// server run.
fn codec_timings(r: &mut Report, inst: &cslack_kernel::Instance, decisions: &[StampedDecision]) {
    let frames = closed_loop::frames(inst.jobs(), BATCH);
    let t0 = Instant::now();
    for f in &frames {
        black_box(proto::encode_frame(black_box(f)));
    }
    let per = t0.elapsed().as_secs_f64() * 1e6 / frames.len() as f64;
    r.put_n("server.encode_submit_us", per, "us", frames.len());
    let encoded: Vec<Vec<u8>> = decisions
        .iter()
        .map(|d| proto::encode_frame(&Frame::Decision(d.clone())))
        .collect();
    let t0 = Instant::now();
    for bytes in &encoded {
        let _ = black_box(proto::read_frame(&mut black_box(bytes.as_slice())));
    }
    let per = t0.elapsed().as_nanos() as f64 / encoded.len().max(1) as f64;
    r.put_n("server.decode_decision_ns", per, "ns", encoded.len());
}
