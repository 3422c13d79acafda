//! Open-loop load generator for the admission server.
//!
//! Each connection submits batches on a fixed arrival schedule — batch
//! `i` is sent at `start + i * batch / rate` regardless of how fast the
//! server answers — so the measured latencies reflect the *offered*
//! rate, not a closed feedback loop that politely waits for the server.
//! A reader thread per connection matches `Decision`/`Reject` frames
//! back to submit timestamps and records end-to-end latency into a
//! log-bucketed histogram.

use crate::client::Connection;
use crate::proto::{Frame, ProtoError, TenantSummary, WireJob};
use cslack_obs::timeline::{ClockBase, Stage};
use cslack_obs::Histogram;
use cslack_workloads::WorkloadSpec;
use serde::Serialize;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a connection waits, after its last submit, for the server
/// to answer everything still in flight before declaring the remainder
/// undecided.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Load generator parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address.
    pub connect: SocketAddr,
    /// Tenants to exercise; each gets `conns` dedicated connections.
    pub tenants: Vec<String>,
    /// Connections per tenant.
    pub conns: usize,
    /// Offered rate in jobs per second *per connection*.
    pub rate: f64,
    /// Jobs per connection.
    pub jobs: usize,
    /// Jobs per `SubmitBatch` frame.
    pub batch: usize,
    /// Base workload seed; connection `c` of a tenant uses `seed + c`.
    pub seed: u64,
    /// Whether to drain each tenant afterwards and collect summaries.
    pub drain: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            connect: "127.0.0.1:7437".parse().unwrap(),
            tenants: vec!["default".into()],
            conns: 1,
            rate: 10_000.0,
            jobs: 10_000,
            batch: 64,
            seed: 1,
            drain: true,
        }
    }
}

/// Latency percentiles in microseconds.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LatencyUs {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum observed.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: u64,
}

impl LatencyUs {
    fn from_ns_histogram(h: &Histogram) -> LatencyUs {
        let us = |ns: u64| ns / 1_000;
        LatencyUs {
            p50: us(h.quantile(0.50)),
            p90: us(h.quantile(0.90)),
            p99: us(h.quantile(0.99)),
            p999: us(h.quantile(0.999)),
            max: us(h.max()),
            mean: us(h.mean()),
        }
    }
}

/// Where each decided job's end-to-end time went, split using the
/// server stage stamps echoed on `Decision` frames. Client and
/// server clocks are never compared directly: the server span is
/// measured on the server's clock, subtracted from the client-measured
/// end-to-end to estimate the network share.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LatencyBreakdown {
    /// End-to-end minus the server span: wire transit both ways plus
    /// buffering outside the engine.
    pub network_us: LatencyUs,
    /// Frame decode to decision delivery on the server.
    pub server_us: LatencyUs,
    /// Shard queue wait (enqueue to dequeue).
    pub queue_us: LatencyUs,
    /// Scheduler decision time (dequeue to decide).
    pub decide_us: LatencyUs,
}

/// Per-tenant slice of the report.
#[derive(Clone, Debug, Serialize)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Jobs submitted across the tenant's connections.
    pub submitted: u64,
    /// Decisions received (accepted + rejected by the algorithm).
    pub decided: u64,
    /// Accepted decisions.
    pub accepted: u64,
    /// Rejected decisions.
    pub rejected: u64,
    /// Jobs refused by quota backpressure.
    pub backpressured: u64,
    /// Typed per-job `Reject` frames (malformed, duplicate, shard
    /// failure, ...).
    pub errored: u64,
    /// Transient `Retry` frames (the job's shard was being resurrected
    /// at submit time) — not failures; the job may be resubmitted.
    pub retried: u64,
    /// Jobs never answered within the settle timeout.
    pub undecided: u64,
    /// Decision latency percentiles for this tenant.
    pub latency_us: LatencyUs,
    /// Final schedule summary, when the run drained the tenant.
    pub summary: Option<TenantSummary>,
}

/// The full load-generator report, serialized to `BENCH_serve.json`.
#[derive(Clone, Debug, Serialize)]
pub struct LoadgenReport {
    /// Tenants exercised.
    pub tenants: usize,
    /// Connections per tenant.
    pub conns_per_tenant: usize,
    /// Jobs per connection.
    pub jobs_per_conn: usize,
    /// Jobs per submit frame.
    pub batch: usize,
    /// Offered aggregate rate (jobs/sec across all connections).
    pub offered_rate: f64,
    /// Achieved decision throughput (decisions/sec of wall time).
    pub achieved_rate: f64,
    /// Wall-clock seconds from first submit to last outcome.
    pub wall_secs: f64,
    /// Total jobs submitted.
    pub submitted: u64,
    /// Total decisions received.
    pub decided: u64,
    /// Total accepted.
    pub accepted: u64,
    /// Total rejected by the algorithm.
    pub rejected: u64,
    /// Total refused by backpressure.
    pub backpressured: u64,
    /// Total typed per-job rejects.
    pub errored: u64,
    /// Total transient `Retry` frames.
    pub retried: u64,
    /// Total never answered.
    pub undecided: u64,
    /// Aggregate decision latency percentiles.
    pub latency_us: LatencyUs,
    /// Aggregate split of where the end-to-end time went (network vs
    /// server vs queue vs decide), from the stage stamps.
    pub latency_breakdown: LatencyBreakdown,
    /// Per-tenant breakdown.
    pub per_tenant: Vec<TenantReport>,
}

/// Stage-span histograms one reader accumulates from decision frames.
#[derive(Default)]
struct SpanHists {
    network: Histogram,
    server: Histogram,
    queue: Histogram,
    decide: Histogram,
}

impl SpanHists {
    fn merge(&mut self, other: &SpanHists) {
        self.network.merge(&other.network);
        self.server.merge(&other.server);
        self.queue.merge(&other.queue);
        self.decide.merge(&other.decide);
    }

    fn breakdown(&self) -> LatencyBreakdown {
        LatencyBreakdown {
            network_us: LatencyUs::from_ns_histogram(&self.network),
            server_us: LatencyUs::from_ns_histogram(&self.server),
            queue_us: LatencyUs::from_ns_histogram(&self.queue),
            decide_us: LatencyUs::from_ns_histogram(&self.decide),
        }
    }
}

/// What one connection's worker pair observed.
struct ConnOutcome {
    submitted: u64,
    decided: u64,
    accepted: u64,
    rejected: u64,
    backpressured: u64,
    errored: u64,
    retried: u64,
    undecided: u64,
    latency: Histogram,
    spans: SpanHists,
    /// Seconds from the global start to this connection's last outcome.
    last_outcome_secs: f64,
}

/// Counters shared between a connection's writer and reader threads.
struct ConnShared {
    /// Submit timestamps keyed by job id; removed as outcomes arrive.
    inflight: Mutex<HashMap<u32, Instant>>,
    /// Signed so a late Backpressure racing a Decision cannot wedge the
    /// settle loop at a small positive residue.
    outstanding: AtomicI64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    backpressured: AtomicU64,
    errored: AtomicU64,
    retried: AtomicU64,
    /// Set by the writer once it gives up waiting; tells the reader to
    /// exit its idle poll.
    stop: AtomicBool,
}

impl ConnShared {
    fn new() -> ConnShared {
        ConnShared {
            inflight: Mutex::new(HashMap::new()),
            outstanding: AtomicI64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            backpressured: AtomicU64::new(0),
            errored: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }
}

/// Runs the configured load and returns the report, or a description of
/// what went wrong before any load could be offered.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if config.tenants.is_empty() {
        return Err("loadgen needs at least one tenant".into());
    }
    if config.conns == 0 || config.jobs == 0 {
        return Err("loadgen needs at least one connection and one job".into());
    }
    if !(config.rate.is_finite() && config.rate > 0.0) {
        return Err("offered rate must be a positive number".into());
    }
    let batch = config.batch.max(1);
    let start = Instant::now();

    // One worker pair per (tenant, connection).
    let mut handles = Vec::new();
    for tenant in &config.tenants {
        for conn_idx in 0..config.conns {
            let cfg = config.clone();
            let tenant = tenant.clone();
            handles.push((
                tenant.clone(),
                std::thread::Builder::new()
                    .name(format!("loadgen-{tenant}-{conn_idx}"))
                    .spawn(move || run_connection(&cfg, &tenant, conn_idx, batch, start))
                    .map_err(|e| format!("spawn loadgen worker: {e}"))?,
            ));
        }
    }

    // Collect per-connection outcomes, grouped by tenant.
    let mut by_tenant: HashMap<String, Vec<ConnOutcome>> = HashMap::new();
    let mut errors = Vec::new();
    for (tenant, handle) in handles {
        match handle.join() {
            Ok(Ok(outcome)) => by_tenant.entry(tenant).or_default().push(outcome),
            Ok(Err(e)) => errors.push(format!("{tenant}: {e}")),
            Err(_) => errors.push(format!("{tenant}: worker panicked")),
        }
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }

    // Optionally drain each tenant on a fresh connection.
    let mut summaries: HashMap<String, TenantSummary> = HashMap::new();
    if config.drain {
        for tenant in &config.tenants {
            if summaries.contains_key(tenant) {
                continue;
            }
            let mut conn = Connection::connect(config.connect)
                .map_err(|e| format!("{tenant}: drain connect: {e}"))?;
            conn.hello(tenant)?;
            let summary = conn.drain().map_err(|e| format!("{tenant}: {e}"))?;
            summaries.insert(tenant.clone(), summary);
        }
    }

    // Fold into the report.
    let mut per_tenant = Vec::new();
    let mut total = ConnOutcome {
        submitted: 0,
        decided: 0,
        accepted: 0,
        rejected: 0,
        backpressured: 0,
        errored: 0,
        retried: 0,
        undecided: 0,
        latency: Histogram::new(),
        spans: SpanHists::default(),
        last_outcome_secs: 0.0,
    };
    for tenant in &config.tenants {
        let conns = by_tenant.remove(tenant).unwrap_or_default();
        let mut t = TenantReport {
            tenant: tenant.clone(),
            submitted: 0,
            decided: 0,
            accepted: 0,
            rejected: 0,
            backpressured: 0,
            errored: 0,
            retried: 0,
            undecided: 0,
            latency_us: LatencyUs::default(),
            summary: summaries.remove(tenant),
        };
        let mut latency = Histogram::new();
        for c in conns {
            t.submitted += c.submitted;
            t.decided += c.decided;
            t.accepted += c.accepted;
            t.rejected += c.rejected;
            t.backpressured += c.backpressured;
            t.errored += c.errored;
            t.retried += c.retried;
            t.undecided += c.undecided;
            latency.merge(&c.latency);
            total.spans.merge(&c.spans);
            total.last_outcome_secs = total.last_outcome_secs.max(c.last_outcome_secs);
        }
        t.latency_us = LatencyUs::from_ns_histogram(&latency);
        total.submitted += t.submitted;
        total.decided += t.decided;
        total.accepted += t.accepted;
        total.rejected += t.rejected;
        total.backpressured += t.backpressured;
        total.errored += t.errored;
        total.retried += t.retried;
        total.undecided += t.undecided;
        total.latency.merge(&latency);
        per_tenant.push(t);
    }

    let wall_secs = total.last_outcome_secs.max(f64::EPSILON);
    Ok(LoadgenReport {
        tenants: config.tenants.len(),
        conns_per_tenant: config.conns,
        jobs_per_conn: config.jobs,
        batch,
        offered_rate: config.rate * (config.tenants.len() * config.conns) as f64,
        achieved_rate: total.decided as f64 / wall_secs,
        wall_secs,
        submitted: total.submitted,
        decided: total.decided,
        accepted: total.accepted,
        rejected: total.rejected,
        backpressured: total.backpressured,
        errored: total.errored,
        retried: total.retried,
        undecided: total.undecided,
        latency_us: LatencyUs::from_ns_histogram(&total.latency),
        latency_breakdown: total.spans.breakdown(),
        per_tenant,
    })
}

/// One connection: handshake, paced submit loop, and a reader thread
/// that matches outcomes back to submit timestamps.
fn run_connection(
    config: &LoadgenConfig,
    tenant: &str,
    conn_idx: usize,
    batch: usize,
    global_start: Instant,
) -> Result<ConnOutcome, String> {
    let mut conn = Connection::connect(config.connect).map_err(|e| format!("connect: {e}"))?;
    let info = conn.hello(tenant)?;

    // Regenerate the tenant's workload from the parameters the server
    // advertised, so the offered jobs match the engine's geometry. Each
    // connection gets a distinct seed; connection 0 keeps the raw job
    // ids so a single-connection run is bit-comparable to an
    // in-process run of the same spec.
    let instance = WorkloadSpec::default_spec(
        info.m,
        info.eps,
        config.jobs,
        config.seed.wrapping_add(conn_idx as u64),
    )
    .generate()
    .map_err(|e| format!("generate workload: {e:?}"))?;
    let id_base = (conn_idx * config.jobs) as u32;
    let jobs: Vec<WireJob> = instance
        .jobs()
        .iter()
        .map(|j| WireJob {
            id: j.id.0 + id_base,
            release: j.release.raw(),
            proc_time: j.proc_time,
            deadline: j.deadline.raw(),
        })
        .collect();

    let shared = Arc::new(ConnShared::new());
    let reader_conn = conn.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    reader_conn
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let reader_shared = Arc::clone(&shared);
    let reader = std::thread::Builder::new()
        .name(format!("loadgen-rx-{tenant}-{conn_idx}"))
        .spawn(move || reader_loop(reader_conn, reader_shared, global_start))
        .map_err(|e| format!("spawn reader: {e}"))?;

    // Open-loop pacing: batch i is due at start + i*batch/rate, no
    // matter how far behind the server is.
    let mut submitted = 0u64;
    // The client's own stamp clock: `client_send_ns` values travel the
    // wire so server-side recordings carry the client domain too.
    let clock = ClockBase::new();
    let pace_start = Instant::now();
    for (i, chunk) in jobs.chunks(batch).enumerate() {
        let due = pace_start + Duration::from_secs_f64((i * batch) as f64 / config.rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let stamp = Instant::now();
        {
            let mut inflight = shared.inflight.lock().unwrap();
            for job in chunk {
                inflight.insert(job.id, stamp);
            }
        }
        shared
            .outstanding
            .fetch_add(chunk.len() as i64, Ordering::SeqCst);
        conn.send(&Frame::SubmitBatch {
            jobs: chunk.to_vec(),
            client_send_ns: clock.now_ns(),
        })
        .map_err(|e| format!("submit: {e}"))?;
        submitted += chunk.len() as u64;
    }

    // Let the tail settle, then cut the reader loose.
    let settle_deadline = Instant::now() + SETTLE_TIMEOUT;
    while shared.outstanding.load(Ordering::SeqCst) > 0 && Instant::now() < settle_deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    shared.stop.store(true, Ordering::SeqCst);
    let (latency, spans, last_outcome_secs) = reader
        .join()
        .map_err(|_| "reader panicked".to_string())?
        .map_err(|e| format!("reader: {e}"))?;

    // Backpressured jobs leave stale stamps in the inflight map (the
    // refused frame carries a count, not ids), so the counter — not the
    // map — is the authority on how many jobs were never answered.
    let undecided = shared.outstanding.load(Ordering::SeqCst).max(0) as u64;
    Ok(ConnOutcome {
        submitted,
        decided: latency.count(),
        accepted: shared.accepted.load(Ordering::SeqCst),
        rejected: shared.rejected.load(Ordering::SeqCst),
        backpressured: shared.backpressured.load(Ordering::SeqCst),
        errored: shared.errored.load(Ordering::SeqCst),
        retried: shared.retried.load(Ordering::SeqCst),
        undecided,
        latency,
        spans,
        last_outcome_secs,
    })
}

/// Consumes server frames until told to stop, recording end-to-end
/// latencies (client clock) and stage spans (server stamps).
fn reader_loop(
    mut conn: Connection,
    shared: Arc<ConnShared>,
    global_start: Instant,
) -> Result<(Histogram, SpanHists, f64), String> {
    let mut latency = Histogram::new();
    let mut spans = SpanHists::default();
    let mut last_outcome_secs = 0.0_f64;
    loop {
        match conn.poll_ready() {
            Ok(true) => {}
            Ok(false) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok((latency, spans, last_outcome_secs));
                }
                continue;
            }
            Err(e) => return Err(format!("poll: {e}")),
        }
        let frame = match conn.recv() {
            Ok(frame) => frame,
            Err(ProtoError::Eof) => return Ok((latency, spans, last_outcome_secs)),
            Err(e) => return Err(format!("recv: {e}")),
        };
        let now = Instant::now();
        match frame {
            Frame::Decision(event) => {
                let sent = shared.inflight.lock().unwrap().remove(&event.job);
                if let Some(sent) = sent {
                    let e2e_ns = now.duration_since(sent).as_nanos() as u64;
                    latency.record(e2e_ns);
                    // Server spans from the echoed stamps; the network
                    // share is what the server span cannot explain.
                    if let Some(server_ns) = event.stamps.span(Stage::FrameDecode, Stage::Delivery)
                    {
                        spans.server.record(server_ns);
                        spans.network.record(e2e_ns.saturating_sub(server_ns));
                    }
                    if let Some(ns) = event.stamps.span(Stage::Enqueue, Stage::Dequeue) {
                        spans.queue.record(ns);
                    }
                    if let Some(ns) = event.stamps.span(Stage::Dequeue, Stage::Decide) {
                        spans.decide.record(ns);
                    }
                    shared.outstanding.fetch_sub(1, Ordering::SeqCst);
                    last_outcome_secs = now.duration_since(global_start).as_secs_f64();
                    if event.accepted {
                        shared.accepted.fetch_add(1, Ordering::SeqCst);
                    } else {
                        shared.rejected.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            Frame::Reject { job: Some(id), .. }
                if shared.inflight.lock().unwrap().remove(&id).is_some() =>
            {
                shared.outstanding.fetch_sub(1, Ordering::SeqCst);
                shared.errored.fetch_add(1, Ordering::SeqCst);
                last_outcome_secs = now.duration_since(global_start).as_secs_f64();
            }
            // Transient: the job's shard was mid-resurrection. The job
            // is answered (not undecided) but neither decided nor
            // errored — a real client would resubmit it.
            Frame::Retry { job } if shared.inflight.lock().unwrap().remove(&job).is_some() => {
                shared.outstanding.fetch_sub(1, Ordering::SeqCst);
                shared.retried.fetch_add(1, Ordering::SeqCst);
                last_outcome_secs = now.duration_since(global_start).as_secs_f64();
            }
            Frame::Backpressure { refused, .. } => {
                // A quota refusal carries a count, not job ids; the
                // outstanding counter absorbs it and the refused jobs'
                // stale stamps are simply never matched.
                shared
                    .outstanding
                    .fetch_sub(refused as i64, Ordering::SeqCst);
                shared
                    .backpressured
                    .fetch_add(refused as u64, Ordering::SeqCst);
            }
            // Stats, summaries, or connection-level rejects are not
            // per-job outcomes; ignore them here.
            _ => {}
        }
    }
}
