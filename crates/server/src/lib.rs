//! `cslack-server`: the network-facing admission service.
//!
//! The paper's model is inherently a service: jobs arrive over the wire
//! from untrusted clients and must receive an irrevocable admit/reject
//! answer at submission. This crate puts a framed-TCP front end
//! ([`proto`]) on the sharded [`Engine`], with:
//!
//! * **per-tenant namespaces** — each tenant gets its own engine (own
//!   `m`, `eps`, shard count, algorithm, seed), its own
//!   [`MetricsRegistry`], flight recorder, and in-flight quota, so one
//!   tenant's overload or shard failure never touches another's
//!   decision stream;
//! * **streaming decisions** — submissions and decisions flow on the
//!   same connection as independent streams: a client may keep
//!   submitting while earlier decisions are still in flight, and each
//!   [`proto::Frame::Decision`] carries `(shard, seq)` so the
//!   deterministic per-shard order is reconstructible;
//! * **typed pushback** — a full quota is a
//!   [`proto::Frame::Backpressure`] frame, a dead shard a typed
//!   [`proto::Frame::Reject`], never a dropped connection;
//! * **graceful drain** — [`proto::Frame::Drain`] finishes the
//!   tenant's engine, converts still-queued jobs to typed `Undecided`
//!   rejections, and streams the final schedule summary;
//! * **telemetry** — one HTTP listener for the whole process
//!   ([`telemetry`]) serves `/metrics` (all tenants, `tenant`-labeled),
//!   `/healthz`, and `/flight/snapshot?tenant=...` (live while running,
//!   the final snapshot after drain — still replayable with
//!   `cslack replay`). The same listener fronts a single unlabelled
//!   engine for `cslack serve-bench --serve-metrics`.

pub mod client;
pub mod loadgen;
pub mod proto;
pub mod telemetry;

use cslack_engine::{
    DecisionSink, Engine, EngineConfig, FlightConfig, FlightRecording, ObsConfig,
    ObservatoryConfig, ShardHealth, ShardState, SubmitError,
};
use cslack_kernel::{Instance, Job, JobId, Time};
use cslack_obs::flight::StampedDecision;
use cslack_obs::timeline::{ClockBase, Stage, TimelineStamps};
use cslack_obs::{Histogram, MetricsRegistry};
use cslack_sim::fault::{FaultSpec, FaultyScheduler};
use cslack_sim::sweep::AlgoKind;
use proto::{Frame, ProtoError, RejectCode, TenantStats, TenantSummary};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// One tenant's namespace configuration.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant name (the `Hello` key).
    pub name: String,
    /// Machines in the tenant's cluster.
    pub m: usize,
    /// System slack `eps` the tenant's schedulers are built with.
    pub eps: f64,
    /// Engine shard count.
    pub shards: usize,
    /// Admission algorithm.
    pub algo: AlgoKind,
    /// Base RNG seed (shard `s` derives `seed + s`).
    pub seed: u64,
    /// Maximum undecided jobs in flight; a batch that would exceed it
    /// is refused whole with a `Backpressure` frame.
    pub inflight_limit: usize,
    /// Per-shard flight-recorder ring capacity (records).
    pub flight_capacity: usize,
    /// Engine shard-ring capacity in jobs
    /// ([`EngineConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Engine per-wakeup batch size.
    pub batch_size: usize,
    /// Chaos hook: wrap shard 0's scheduler in a
    /// [`FaultyScheduler`] with this spec.
    pub fault: Option<FaultSpec>,
    /// Shard resurrection: run a watcher that replays and restarts any
    /// failed shard ([`Engine::restart_shard`]), and answer submissions
    /// that hit a failed shard with a transient [`Frame::Retry`]
    /// instead of a terminal `ShardFailed` reject. When set, an
    /// injected `fault` fires only on the shard's *first* scheduler
    /// build, so the replay and the replacement run clean.
    pub recover: bool,
    /// Quality-observatory knobs; every tenant runs one by default
    /// (their engines always record flight), so `/metrics` carries
    /// tenant-labeled `cslack_empirical_ratio` gauges. `None` disables.
    pub observatory: Option<ObservatoryConfig>,
}

impl TenantSpec {
    /// A tenant with default engine sizing: single shard, threshold
    /// algorithm, seed 0, in-flight quota 4096.
    pub fn new(name: impl Into<String>, m: usize, eps: f64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            m,
            eps,
            shards: 1,
            algo: AlgoKind::Threshold,
            seed: 0,
            inflight_limit: 4096,
            flight_capacity: 1 << 16,
            queue_capacity: 1024,
            batch_size: 64,
            fault: None,
            recover: false,
            // 16 release-time units per window: tens of jobs per
            // window at the default Poisson(m) arrival rate — enough
            // signal per window, many windows per run.
            observatory: Some(ObservatoryConfig::new(16.0)),
        }
    }

    /// Parses the CLI tenant syntax
    /// `name:m:eps[:algo[:shards[:seed]]]`, e.g. `alpha:4:0.5` or
    /// `beta:8:0.25:greedy:2:7`.
    pub fn parse(s: &str) -> Result<TenantSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 3 || parts.len() > 6 {
            return Err(format!(
                "tenant spec `{s}` is not of the form name:m:eps[:algo[:shards[:seed]]]"
            ));
        }
        if parts[0].is_empty() {
            return Err(format!("tenant spec `{s}` has an empty name"));
        }
        let m: usize = parts[1]
            .parse()
            .map_err(|e| format!("tenant `{}`: bad m `{}`: {e}", parts[0], parts[1]))?;
        let eps: f64 = parts[2]
            .parse()
            .map_err(|e| format!("tenant `{}`: bad eps `{}`: {e}", parts[0], parts[2]))?;
        Instance::check_params(m, eps).map_err(|e| format!("tenant `{}`: {e}", parts[0]))?;
        let mut spec = TenantSpec::new(parts[0], m, eps);
        if let Some(name) = parts.get(3) {
            spec.algo = AlgoKind::parse(name)
                .ok_or_else(|| format!("tenant `{}`: unknown algorithm `{name}`", parts[0]))?;
        }
        if let Some(raw) = parts.get(4) {
            spec.shards = raw
                .parse()
                .map_err(|e| format!("tenant `{}`: bad shards `{raw}`: {e}", parts[0]))?;
        }
        if let Some(raw) = parts.get(5) {
            spec.seed = raw
                .parse()
                .map_err(|e| format!("tenant `{}`: bad seed `{raw}`: {e}", parts[0]))?;
        }
        Ok(spec)
    }
}

/// Server wiring: where to listen and which tenants to host.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Admission protocol listen address (port 0 for ephemeral).
    pub listen: SocketAddr,
    /// Telemetry HTTP listen address; `None` disables the listener.
    pub telemetry: Option<SocketAddr>,
    /// The hosted tenants. Names must be unique.
    pub tenants: Vec<TenantSpec>,
}

/// What a completed drain leaves behind: the summary frame content and
/// the final flight recording (still served over `/flight/snapshot`,
/// decoded and encoded only when asked for).
#[derive(Clone)]
struct DrainOutcome {
    summary: TenantSummary,
    flight: Option<Arc<FlightRecording>>,
}

/// A connection's number, assigned by the accept loop; it keys the
/// connection's route in its tenant's [`Pending`] table.
type ConnId = usize;

/// The [`STAGE_SPANS`](cslack_obs::timeline::STAGE_SPANS) entry the
/// delivery hop (decide → delivery) feeds.
const DELIVERY_SPAN: usize = 4;

/// One connection's outgoing bytes. Whoever answers the connection —
/// its tenant's shard workers for decisions, its reader for replies —
/// encodes frames straight into the buffer, and the connection's writer
/// thread swaps the buffer out and writes it whole. Unbounded: a peer
/// that keeps submitting but never reads its decisions grows it.
#[derive(Default)]
struct Outbox {
    state: Mutex<OutboxState>,
    ready: Condvar,
}

#[derive(Default)]
struct OutboxState {
    bytes: Vec<u8>,
    /// Nothing more will be written: the connection's reader is gone and
    /// it is owed no answer, or its socket failed.
    closed: bool,
}

impl Outbox {
    fn lock(&self) -> MutexGuard<'_, OutboxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends whatever `encode` writes under one lock, then wakes the
    /// writer if it may be waiting — it waits only on an empty buffer.
    /// A closed outbox drops the bytes.
    fn append(&self, encode: impl FnOnce(&mut Vec<u8>)) {
        let mut state = self.lock();
        if state.closed {
            return;
        }
        let was_empty = state.bytes.is_empty();
        encode(&mut state.bytes);
        drop(state);
        if was_empty {
            self.ready.notify_one();
        }
    }

    fn send(&self, frame: &Frame) {
        self.append(|bytes| proto::encode_frame_into(frame, bytes));
    }

    /// No more frames: the writer writes what is buffered and exits.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_one();
    }

    /// No socket to write to: drops what is buffered and every later
    /// frame.
    fn abandon(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.bytes = Vec::new();
    }

    /// Blocks until there are bytes to write and swaps them into `out`
    /// (emptied first), or returns `false` once the outbox is closed
    /// and drained.
    fn take(&self, out: &mut Vec<u8>) -> bool {
        out.clear();
        let mut state = self.lock();
        loop {
            if !state.bytes.is_empty() {
                std::mem::swap(&mut state.bytes, out);
                return true;
            }
            if state.closed {
                return false;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A tenant's undecided jobs and the connections owed their answers,
/// under one lock.
#[derive(Default)]
struct Pending {
    /// Undecided job → the connection that submitted it. Its size is the
    /// tenant's in-flight count, which the quota bounds.
    jobs: HashMap<u32, ConnId>,
    /// Every bound connection that is still reading or still owed an
    /// answer.
    routes: HashMap<ConnId, Route>,
}

/// Where one connection's answers go.
struct Route {
    outbox: Arc<Outbox>,
    /// Entries of [`Pending::jobs`] that name this connection.
    owed: usize,
    /// Whether the connection's reader is still running.
    reading: bool,
}

impl Pending {
    /// Counts `answered` of `conn`'s owed jobs as answered, and closes
    /// its outbox once its reader is gone and nothing more is owed.
    fn settle(&mut self, conn: ConnId, answered: usize) {
        let Some(route) = self.routes.get_mut(&conn) else {
            return;
        };
        route.owed -= answered;
        if route.owed == 0 && !route.reading {
            if let Some(route) = self.routes.remove(&conn) {
                route.outbox.close();
            }
        }
    }

    /// Takes `job` off the books without answering it (its submitter's
    /// reader answers in place). `false` if it was not pending.
    fn forget(&mut self, job: u32) -> bool {
        match self.jobs.remove(&job) {
            Some(conn) => {
                self.settle(conn, 1);
                true
            }
            None => false,
        }
    }

    /// Answers a run of decisions owed to `conn`, already taken off
    /// [`Pending::jobs`]: encodes them into its outbox under one lock,
    /// with their `Delivery` stamp set to `delivered`, and settles them.
    fn answer_run(&mut self, conn: ConnId, run: &[StampedDecision], delivered: u64) {
        if let Some(route) = self.routes.get(&conn) {
            route.outbox.append(|bytes| {
                for d in run {
                    let stamps = delivered_at(d, delivered);
                    let frame = Frame::Decision(StampedDecision::new(d.event.clone(), stamps));
                    proto::encode_frame_into(&frame, bytes);
                }
            });
        }
        self.settle(conn, run.len());
    }

    /// Answers every pending job with `reply(job)` on the connection
    /// that submitted it, and takes it off the books.
    fn answer_all(&mut self, reply: impl Fn(u32) -> Frame) {
        for (job, conn) in std::mem::take(&mut self.jobs) {
            if let Some(route) = self.routes.get(&conn) {
                route.outbox.send(&reply(job));
            }
            self.settle(conn, 1);
        }
    }
}

/// A tenant engine's decision sink, run on the shard worker once per
/// committed chunk: one `Delivery` stamp off `clock`, one `pending` lock
/// and one delivery-span merge into `registry` per chunk. Each decision
/// is encoded straight into the outbox of the connection that submitted
/// it, a run of decisions for one connection under one outbox lock. A
/// decision whose connection is gone stands (commitment is
/// irrevocable); only its notification is dropped.
fn deliver(
    pending: &Mutex<Pending>,
    registry: &MetricsRegistry,
    clock: &ClockBase,
    chunk: &[StampedDecision],
) {
    let delivered = clock.now_ns();
    let mut spans = Histogram::new();
    for d in chunk {
        if let Some(ns) = delivered_at(d, delivered).span(Stage::Decide, Stage::Delivery) {
            spans.record(ns);
        }
    }
    let mut pending = pending.lock().unwrap_or_else(PoisonError::into_inner);
    // The connection owed the current run of decisions, and where the
    // run starts in `chunk`.
    let mut run: Option<(ConnId, usize)> = None;
    for (i, d) in chunk.iter().enumerate() {
        let conn = pending.jobs.remove(&d.job);
        if run.map(|(owed, _)| owed) != conn {
            if let Some((owed, start)) = run {
                pending.answer_run(owed, &chunk[start..i], delivered);
            }
            run = conn.map(|owed| (owed, i));
        }
    }
    if let Some((owed, start)) = run {
        pending.answer_run(owed, &chunk[start..], delivered);
    }
    drop(pending);
    registry.stage_durations[DELIVERY_SPAN].merge_histogram(&spans);
    registry.windows.record_stage_batch(DELIVERY_SPAN, &spans);
}

/// `d`'s stamps with the delivery hop stamped at `delivered`.
fn delivered_at(d: &StampedDecision, delivered: u64) -> TimelineStamps {
    let mut stamps = d.stamps;
    stamps.set(Stage::Delivery, delivered);
    stamps
}

/// One hosted tenant: its engine, the connections owed its decisions,
/// and metrics.
struct Tenant {
    spec: TenantSpec,
    registry: Arc<MetricsRegistry>,
    /// `None` once drained. Submissions take the read lock; drain takes
    /// the write lock and consumes the engine.
    engine: RwLock<Option<Engine>>,
    /// Undecided jobs and the connections owed their answers, shared
    /// with the engine's decision sink (which holds this, never the
    /// tenant that owns the engine).
    pending: Arc<Mutex<Pending>>,
    done: OnceLock<DrainOutcome>,
    /// The shard-resurrection watcher (`spec.recover`), stopped and
    /// joined before drain so it never races the engine take-down.
    watcher: Mutex<Option<JoinHandle<()>>>,
    watcher_stop: Arc<AtomicBool>,
}

impl Tenant {
    fn start(spec: TenantSpec, clock: Arc<ClockBase>) -> Result<Arc<Tenant>, String> {
        let registry = Arc::new(MetricsRegistry::enabled());
        let pending = Arc::new(Mutex::new(Pending::default()));
        let obs = ObsConfig {
            registry: Some(Arc::clone(&registry)),
            flight: Some(FlightConfig::new(
                spec.flight_capacity,
                spec.algo.as_str(),
                spec.eps,
                spec.seed,
            )),
            decisions: Some(DecisionSink::new({
                let (pending, registry) = (Arc::clone(&pending), Arc::clone(&registry));
                let clock = Arc::clone(&clock);
                move |chunk| deliver(&pending, &registry, &clock, chunk)
            })),
            observatory: spec.observatory.clone(),
            // Every tenant stamps on the process-wide clock so
            // cross-tenant timelines share one axis.
            clock: Some(clock),
        };
        let mut config = EngineConfig::new(spec.shards);
        config.queue_capacity = spec.queue_capacity;
        config.batch_size = spec.batch_size;
        let (algo, eps, seed, fault) = (spec.algo, spec.eps, spec.seed, spec.fault);
        // With recovery on, the injected fault is one-shot: the *first*
        // build of shard 0 gets the faulty wrapper, and the rebuilds
        // recovery performs (the replay scheduler, which becomes the
        // replacement) come out clean — otherwise the replay would
        // re-fire the fault at the same offer index.
        let armed = Arc::new(AtomicBool::new(true));
        let recover = spec.recover;
        let engine = Engine::start_observed(spec.m, config, obs, move |shard, group| {
            let inner = algo.build(group, eps, seed.wrapping_add(shard as u64));
            // Chaos targets shard 0 only, so a degraded tenant still has
            // healthy shards to demonstrate isolation with.
            match fault {
                Some(spec) if shard == 0 && (!recover || armed.swap(false, Ordering::SeqCst)) => {
                    Box::new(FaultyScheduler::new(inner, spec))
                }
                _ => inner,
            }
        })
        .map_err(|e| format!("tenant `{}`: {e}", spec.name))?;
        let tenant = Arc::new(Tenant {
            spec,
            registry,
            engine: RwLock::new(Some(engine)),
            pending,
            done: OnceLock::new(),
            watcher: Mutex::new(None),
            watcher_stop: Arc::new(AtomicBool::new(false)),
        });
        if tenant.spec.recover {
            let weak = Arc::downgrade(&tenant);
            let stop = Arc::clone(&tenant.watcher_stop);
            let join = std::thread::Builder::new()
                .name(format!("cslack-recover-{}", tenant.spec.name))
                .spawn(move || recovery_watcher(weak, stop))
                .map_err(|e| format!("spawn recovery watcher: {e}"))?;
            *tenant
                .watcher
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(join);
        }
        Ok(tenant)
    }

    /// The undecided jobs and the routes owed their answers.
    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The engine, `None` once drained.
    fn engine(&self) -> RwLockReadGuard<'_, Option<Engine>> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the engine out, for drain or teardown.
    fn take_engine(&self) -> Option<Engine> {
        let mut engine = self.engine.write().unwrap_or_else(PoisonError::into_inner);
        engine.take()
    }

    /// Binds connection `conn` to this tenant: its answers go to the
    /// returned outbox until [`Tenant::detach`] and the last answer it
    /// is owed.
    fn attach(&self, conn: ConnId) -> Arc<Outbox> {
        let outbox = Arc::new(Outbox::default());
        self.pending().routes.insert(
            conn,
            Route {
                outbox: Arc::clone(&outbox),
                owed: 0,
                reading: true,
            },
        );
        outbox
    }

    /// Connection `conn`'s reader has exited: its outbox closes as soon
    /// as nothing more is owed to it, right away if nothing is.
    fn detach(&self, conn: ConnId) {
        let mut pending = self.pending();
        if let Some(route) = pending.routes.get_mut(&conn) {
            route.reading = false;
        }
        pending.settle(conn, 0);
    }

    /// Closes every connection's outbox, dropping the answers still owed
    /// to it (say, by a failed shard of a tenant that was never drained),
    /// so each writer writes what it holds and exits.
    fn close_routes(&self) {
        for route in self.pending().routes.values() {
            route.outbox.close();
        }
    }

    /// Stops and joins the resurrection watcher (idempotent). Must run
    /// before the engine is taken for drain so the watcher cannot race
    /// the take-down with a restart.
    fn stop_watcher(&self) {
        self.watcher_stop.store(true, Ordering::Relaxed);
        let watcher = self
            .watcher
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(join) = watcher {
            let _ = join.join();
        }
    }

    /// Admits (or refuses) one `SubmitBatch` from connection `conn`.
    /// Returns the frames to answer with *now* — per-job `Reject`s and
    /// batch-level `Backpressure`; decisions arrive later through the
    /// decision sink. `stamps` carries the client-send and frame-decode
    /// stamps the connection reader took; the dispatch stamp is added
    /// here, right before the engine hand-off.
    fn handle_batch(
        &self,
        conn: ConnId,
        jobs: &[proto::WireJob],
        mut stamps: TimelineStamps,
    ) -> Vec<Frame> {
        let mut replies = Vec::new();
        if jobs.is_empty() {
            replies.push(Frame::Reject {
                job: None,
                code: RejectCode::Malformed,
                detail: "empty batch".into(),
            });
            return replies;
        }
        let mut valid: Vec<Job> = Vec::with_capacity(jobs.len());
        {
            let mut pending = self.pending();
            if pending.jobs.len() + jobs.len() > self.spec.inflight_limit {
                replies.push(Frame::Backpressure {
                    inflight: pending.jobs.len() as u32,
                    limit: self.spec.inflight_limit as u32,
                    refused: jobs.len() as u32,
                });
                return replies;
            }
            for job in jobs {
                if let Some(why) = validate_job(job) {
                    replies.push(Frame::Reject {
                        job: Some(job.id),
                        code: RejectCode::Malformed,
                        detail: why.into(),
                    });
                } else if let std::collections::hash_map::Entry::Vacant(slot) =
                    pending.jobs.entry(job.id)
                {
                    slot.insert(conn);
                    valid.push(Job::new(
                        JobId(job.id),
                        Time::new(job.release),
                        job.proc_time,
                        Time::new(job.deadline),
                    ));
                } else {
                    replies.push(Frame::Reject {
                        job: Some(job.id),
                        code: RejectCode::DuplicateJob,
                        detail: "job id already in flight".into(),
                    });
                }
            }
            if let Some(route) = pending.routes.get_mut(&conn) {
                route.owed += valid.len();
            }
        }
        if valid.is_empty() {
            return replies;
        }
        let guard = self.engine();
        match guard.as_ref() {
            Some(engine) => {
                stamps.set(Stage::Dispatch, engine.clock().now_ns());
                // The compact path: the all-enqueued case (every batch
                // in steady state) returns a count and never allocates;
                // only actual failures materialize as errors, each
                // carrying its job back to us.
                let mut failures = Vec::new();
                engine.submit_batch_stamped_into(&valid, stamps, &mut failures);
                if !failures.is_empty() {
                    let mut pending = self.pending();
                    for err in failures {
                        // The job never reached a queue; the decision
                        // stream will not answer for it.
                        let reply = match err {
                            // While resurrection is in flight the
                            // failure is transient: the client should
                            // resubmit, not write the job off.
                            SubmitError::ShardFailed(job) if self.spec.recover => {
                                pending.forget(job.id.0);
                                Frame::Retry { job: job.id.0 }
                            }
                            SubmitError::ShardFailed(job) => {
                                pending.forget(job.id.0);
                                Frame::Reject {
                                    job: Some(job.id.0),
                                    code: RejectCode::ShardFailed,
                                    detail: "not enqueued".into(),
                                }
                            }
                            SubmitError::Full(job) | SubmitError::Closed(job) => {
                                pending.forget(job.id.0);
                                Frame::Reject {
                                    job: Some(job.id.0),
                                    code: RejectCode::Closed,
                                    detail: "not enqueued".into(),
                                }
                            }
                        };
                        replies.push(reply);
                    }
                }
            }
            None => {
                // Drained between quota check and submit. The drain
                // sweep may have answered some of these already with
                // `Undecided`; only reject the ones still ours.
                let mut pending = self.pending();
                for job in &valid {
                    if pending.forget(job.id.0) {
                        replies.push(Frame::Reject {
                            job: Some(job.id.0),
                            code: RejectCode::Closed,
                            detail: "tenant drained".into(),
                        });
                    }
                }
            }
        }
        replies
    }

    /// Live counters for a `Stats` frame.
    fn stats(&self) -> TenantStats {
        TenantStats {
            tenant: self.spec.name.clone(),
            submitted: self.registry.submitted.get(),
            accepted: self.registry.accepted.get(),
            rejected: self.registry.reject_counts().total(),
            backpressure_stalls: self.registry.backpressure_stalls.get(),
            inflight: self.pending().jobs.len() as u32,
            drained: self.engine().is_none(),
        }
    }

    fn is_drained(&self) -> bool {
        self.done.get().is_some()
    }

    /// Finishes the tenant's engine and returns the final summary. The
    /// first caller performs the drain; concurrent callers wait for its
    /// outcome. Queued-but-undecided jobs are answered with typed
    /// `Undecided` rejections through their submitting connections.
    fn drain(&self) -> DrainOutcome {
        // The watcher must be gone before the engine is: a restart
        // racing the drain would resurrect a shard the drain is about
        // to join.
        self.stop_watcher();
        let Some(engine) = self.take_engine() else {
            // Another connection is draining (or already drained):
            // wait for its outcome rather than inventing a second one.
            return self.done.wait().clone();
        };
        // `finish` joins every worker, and each delivers its last chunk
        // before it exits — after this, `pending` holds exactly the
        // never-decided jobs.
        let report = engine.finish();
        self.pending().answer_all(|job| Frame::Reject {
            job: Some(job),
            code: RejectCode::Undecided,
            detail: "tenant drained before this job was decided".into(),
        });
        let outcome = match report {
            Ok(report) => DrainOutcome {
                summary: TenantSummary {
                    tenant: self.spec.name.clone(),
                    submitted: report.metrics.submitted,
                    accepted: report.metrics.accepted,
                    rejected: report.metrics.rejected,
                    accepted_load: report.metrics.accepted_load,
                    makespan: report.schedule.makespan().raw(),
                    machines: self.spec.m as u32,
                    failed_shards: report.degraded.len() as u32,
                },
                flight: report.flight.map(Arc::new),
            },
            // Every shard died: an all-zero summary that still admits
            // the truth through `failed_shards`.
            Err(_) => DrainOutcome {
                summary: TenantSummary {
                    tenant: self.spec.name.clone(),
                    submitted: self.registry.submitted.get(),
                    accepted: self.registry.accepted.get(),
                    rejected: self.registry.reject_counts().total(),
                    accepted_load: 0.0,
                    makespan: 0.0,
                    machines: self.spec.m as u32,
                    failed_shards: self.spec.shards as u32,
                },
                flight: None,
            },
        };
        self.done.get_or_init(|| outcome).clone()
    }
}

impl telemetry::Source for Tenant {
    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn health(&self) -> Option<Vec<ShardHealth>> {
        self.engine().as_ref().map(Engine::health)
    }

    fn health_generation(&self) -> Option<u64> {
        self.engine().as_ref().map(Engine::health_generation)
    }

    /// Live from the engine while running, the final recording after
    /// drain (decoded on its first request).
    fn flight_cfr(&self) -> Option<Vec<u8>> {
        match self.engine().as_ref() {
            Some(engine) => engine.flight_snapshot().as_ref().map(telemetry::cfr_bytes),
            None => {
                let flight = self.done.get().and_then(|d| d.flight.clone());
                flight.map(|recording| telemetry::cfr_bytes(&recording))
            }
        }
    }
}

impl Drop for Tenant {
    fn drop(&mut self) {
        // Tear down in dependency order: the watcher first (it reads
        // the engine), then the engine, whose workers deliver their
        // last chunks before it is gone.
        self.stop_watcher();
        drop(self.take_engine());
    }
}

/// The shard-resurrection loop of a `recover`-enabled tenant: polls
/// the engine's health table and replays/restarts any failed shard.
/// Holds only a `Weak` on the tenant so it never keeps a dropped
/// tenant alive; exits when the tenant is gone, drained, or stopped.
fn recovery_watcher(tenant: std::sync::Weak<Tenant>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(POLL);
        let Some(tenant) = tenant.upgrade() else {
            return;
        };
        let guard = tenant.engine();
        let Some(engine) = guard.as_ref() else {
            return;
        };
        for h in engine.health() {
            if h.state == ShardState::Failed {
                // A refused restart (lossy recording, replay
                // divergence) parks the shard for good; the next poll
                // sees it still failed and the retry is a cheap
                // typed error, not a spin.
                let _ = engine.restart_shard(h.shard);
            }
        }
    }
}

/// Server-side sanity check on a wire job. `Time::new` would panic on
/// NaN and the schedulers assume positive processing times, so an
/// untrusted submitter must not get these values past the boundary.
fn validate_job(job: &proto::WireJob) -> Option<&'static str> {
    if !job.release.is_finite() || !job.proc_time.is_finite() || !job.deadline.is_finite() {
        Some("non-finite job field")
    } else if job.proc_time <= 0.0 {
        Some("processing time must be positive")
    } else if job.deadline < job.release {
        Some("deadline precedes release")
    } else {
        None
    }
}

struct ServerInner {
    tenants: BTreeMap<String, Arc<Tenant>>,
    /// The process-wide monotonic stamp clock every tenant engine and
    /// connection reader shares.
    clock: Arc<ClockBase>,
}

/// The running admission service. Dropping the handle stops the accept
/// and telemetry loops and joins every connection thread; tenant
/// engines still running are torn down by their `Drop`.
pub struct Server {
    inner: Arc<ServerInner>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    telemetry_addr: Option<SocketAddr>,
    accept_join: Option<JoinHandle<()>>,
    telemetry_join: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listeners, starts every tenant's engine, and begins
    /// accepting connections. A start that fails (say, on a taken port)
    /// leaves no thread running and no port bound.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        cslack_obs::metrics::mark_process_start();
        let clock = Arc::new(ClockBase::new());
        let mut tenants = BTreeMap::new();
        for spec in &config.tenants {
            if tenants.contains_key(&spec.name) {
                return Err(format!("duplicate tenant name `{}`", spec.name));
            }
            tenants.insert(
                spec.name.clone(),
                Tenant::start(spec.clone(), Arc::clone(&clock))?,
            );
        }
        if tenants.is_empty() {
            return Err("a server needs at least one tenant".into());
        }
        let inner = Arc::new(ServerInner { tenants, clock });
        let stop = Arc::new(AtomicBool::new(false));
        // Both listeners bind before either thread starts, so a taken
        // port fails the start with nothing left running.
        let listener =
            TcpListener::bind(config.listen).map_err(|e| format!("bind {}: {e}", config.listen))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let telemetry = match config.telemetry {
            Some(bind) => {
                let listener =
                    telemetry::bind(bind).map_err(|e| format!("bind telemetry {bind}: {e}"))?;
                let local = listener.local_addr().map_err(|e| e.to_string())?;
                Some((listener, local))
            }
            None => None,
        };
        let accept_join = std::thread::Builder::new()
            .name("cslack-accept".into())
            .spawn({
                let inner = Arc::clone(&inner);
                let stop = Arc::clone(&stop);
                move || accept_loop(listener, inner, stop)
            })
            .map_err(|e| e.to_string())?;
        // From here on an early return drops `server`, whose `Drop` stops
        // the accept thread.
        let mut server = Server {
            inner,
            stop,
            addr,
            telemetry_addr: None,
            accept_join: Some(accept_join),
            telemetry_join: None,
        };
        if let Some((listener, local)) = telemetry {
            let join = std::thread::Builder::new()
                .name("cslack-server-telemetry".into())
                .spawn({
                    let inner = Arc::clone(&server.inner);
                    let stop = Arc::clone(&server.stop);
                    move || {
                        let sources: Vec<telemetry::Labelled<'_>> = inner
                            .tenants
                            .iter()
                            .map(|(name, t)| (Some(name.as_str()), &**t as &dyn telemetry::Source))
                            .collect();
                        telemetry::serve(listener, &sources, &stop)
                    }
                })
                .map_err(|e| e.to_string())?;
            server.telemetry_addr = Some(local);
            server.telemetry_join = Some(join);
        }
        Ok(server)
    }

    /// The bound admission protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound telemetry HTTP address, if configured.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry_addr
    }

    /// Whether every hosted tenant has been drained.
    pub fn all_drained(&self) -> bool {
        self.inner.tenants.values().all(|t| t.is_drained())
    }

    /// Drains every tenant that is still running (process shutdown
    /// path; protocol clients drain their own tenant with a `Drain`
    /// frame).
    pub fn drain_all(&self) {
        for tenant in self.inner.tenants.values() {
            tenant.drain();
        }
    }

    /// Stops the accept and telemetry loops and joins them (each joins
    /// its own worker threads first). Engines still running are left to
    /// tenant teardown on drop. Answers still owed to connections are
    /// dropped, not awaited: call [`Server::drain_all`] first (as
    /// `cslack serve` does) to have every queued job answered.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // A connection thread joins its writer, which would otherwise wait
        // for every answer its connection is owed.
        for tenant in self.inner.tenants.values() {
            tenant.close_routes();
        }
        if let Some(join) = self.accept_join.take() {
            telemetry::wake(self.addr);
            let _ = join.join();
        }
        if let (Some(join), Some(addr)) = (self.telemetry_join.take(), self.telemetry_addr) {
            telemetry::wake(addr);
            let _ = join.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

const POLL: Duration = Duration::from_millis(10);

/// Hands each accepted connection a thread, blocked in `accept` in
/// between. [`Server`]'s stop sets the flag and then wakes the loop by
/// connecting to it ([`telemetry::wake`]); whatever is accepted once
/// the flag is set ends the loop.
fn accept_loop(listener: TcpListener, inner: Arc<ServerInner>, stop: Arc<AtomicBool>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0usize;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok(_) if stop.load(Ordering::Relaxed) => break,
            Ok((stream, _)) => {
                let inner = Arc::clone(&inner);
                let stop = Arc::clone(&stop);
                let id = next_id;
                let join = std::thread::Builder::new()
                    .name(format!("cslack-conn-{id}"))
                    .spawn(move || handle_connection(id, stream, inner, stop));
                next_id += 1;
                if let Ok(join) = join {
                    connections.push(join);
                }
                // Opportunistically reap finished connections so a
                // long-lived server does not accumulate handles.
                connections.retain(|j| !j.is_finished());
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for join in connections {
        let _ = join.join();
    }
}

/// Reader half of one client connection. The writer half is a
/// dedicated thread writing out the connection's [`Outbox`], into which
/// the tenant's shard workers encode decisions and this thread encodes
/// replies and summaries — one stream writer for all of them.
fn handle_connection(
    id: ConnId,
    stream: TcpStream,
    inner: Arc<ServerInner>,
    stop: Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut bound: Option<(Arc<Tenant>, Arc<Outbox>)> = None;
    let mut writer_join: Option<JoinHandle<()>> = None;
    // Answers before the outbox exists (pre-`Hello` errors) are
    // written straight to the stream; afterwards everything goes
    // through the outbox to keep a single writer.
    let mut direct = stream.try_clone().ok();
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Idle-poll for the first byte so the stop flag is honoured on
        // quiet connections; once a frame has started, `read_frame`
        // reads it through.
        let mut probe = [0u8; 1];
        match reader.peek(&mut probe) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
        let frame = match proto::read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(ProtoError::Eof) => break,
            Err(e) => {
                let reject = Frame::Reject {
                    job: None,
                    code: RejectCode::Protocol,
                    detail: e.to_string(),
                };
                match (&bound, &mut direct) {
                    (Some((_, outbox)), _) => outbox.send(&reject),
                    (None, Some(w)) => {
                        let _ = proto::write_frame(w, &reject);
                    }
                    _ => {}
                }
                if e.is_fatal() {
                    break;
                }
                continue;
            }
        };
        // Stage stamp: the frame is fully decoded at this instant. One
        // clock read per frame, used only by SubmitBatch.
        let frame_decode_ns = inner.clock.now_ns();
        match frame {
            Frame::Hello { tenant: name } => {
                if let Some((_, outbox)) = &bound {
                    outbox.send(&Frame::Reject {
                        job: None,
                        code: RejectCode::BadState,
                        detail: "connection already bound to a tenant".into(),
                    });
                    continue;
                }
                let Some(found) = inner.tenants.get(&name) else {
                    if let Some(w) = &mut direct {
                        let _ = proto::write_frame(
                            w,
                            &Frame::Reject {
                                job: None,
                                code: RejectCode::UnknownTenant,
                                detail: format!("no tenant `{name}` on this server"),
                            },
                        );
                    }
                    break;
                };
                let Some(write_stream) = direct.take() else {
                    break;
                };
                let outbox = found.attach(id);
                writer_join = std::thread::Builder::new()
                    .name("cslack-conn-writer".into())
                    .spawn({
                        let outbox = Arc::clone(&outbox);
                        move || writer_loop(write_stream, &outbox)
                    })
                    .ok();
                if writer_join.is_none() {
                    // Nothing will ever write this outbox: drop what
                    // reaches it instead of buffering it forever.
                    outbox.abandon();
                }
                let spec = &found.spec;
                outbox.send(&Frame::HelloAck {
                    tenant: spec.name.clone(),
                    m: spec.m as u32,
                    eps: spec.eps,
                    shards: spec.shards as u32,
                    seed: spec.seed,
                    algorithm: spec.algo.as_str().into(),
                    inflight_limit: spec.inflight_limit as u32,
                });
                bound = Some((Arc::clone(found), outbox));
            }
            Frame::SubmitBatch {
                jobs,
                client_send_ns,
            } => match &bound {
                Some((tenant, outbox)) => {
                    let mut stamps = TimelineStamps::empty();
                    // The client stamp stays in the client's clock
                    // domain; it is carried verbatim, never compared
                    // to server stamps.
                    stamps.set(Stage::ClientSend, client_send_ns);
                    stamps.set(Stage::FrameDecode, frame_decode_ns);
                    let replies = tenant.handle_batch(id, &jobs, stamps);
                    if !replies.is_empty() {
                        outbox.append(|bytes| {
                            for reply in &replies {
                                proto::encode_frame_into(reply, bytes);
                            }
                        });
                    }
                }
                None => break, // submit before Hello: unrecoverable misuse
            },
            Frame::StatsRequest => match &bound {
                Some((tenant, outbox)) => outbox.send(&Frame::Stats(tenant.stats())),
                None => break,
            },
            Frame::Drain => match &bound {
                Some((tenant, outbox)) => {
                    let outcome = tenant.drain();
                    outbox.send(&Frame::Summary(outcome.summary));
                }
                None => break,
            },
            // Server-to-client frames arriving at the server are a
            // protocol misuse, answered in place (recoverable: framing
            // is still in sync).
            Frame::HelloAck { .. }
            | Frame::Decision(_)
            | Frame::Backpressure { .. }
            | Frame::Reject { .. }
            | Frame::Stats(_)
            | Frame::Summary(_)
            | Frame::Retry { .. } => {
                if let Some((_, outbox)) = &bound {
                    outbox.send(&Frame::Reject {
                        job: None,
                        code: RejectCode::BadState,
                        detail: "server-to-client frame sent to server".into(),
                    });
                }
            }
        }
    }
    // The writer keeps writing until this connection is owed no more
    // decisions (the tenant's workers still answer jobs in flight), then
    // exits once its outbox is empty — or at once at server shutdown,
    // which closes every outbox.
    if let Some((tenant, _)) = bound {
        tenant.detach(id);
    }
    if let Some(join) = writer_join {
        let _ = join.join();
    }
}

/// Writer half of one connection: swaps out everything the outbox holds
/// and writes it with one `write_all`, until the outbox closes empty.
fn writer_loop(mut stream: TcpStream, outbox: &Outbox) {
    let mut bytes = Vec::new();
    while outbox.take(&mut bytes) {
        if stream.write_all(&bytes).is_err() {
            // The peer is gone: what is still owed to it has nowhere
            // to go, so stop buffering it.
            outbox.abandon();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_delivery_span_is_decide_to_delivery() {
        let (name, from, to) = cslack_obs::timeline::STAGE_SPANS[DELIVERY_SPAN];
        assert_eq!(
            (name, from, to),
            ("delivery", Stage::Decide, Stage::Delivery)
        );
    }

    #[test]
    fn tenant_spec_parse_round_trips_the_syntax() {
        let spec = TenantSpec::parse("alpha:4:0.5").unwrap();
        assert_eq!(spec.name, "alpha");
        assert_eq!(spec.m, 4);
        assert_eq!(spec.eps, 0.5);
        assert_eq!(spec.algo, AlgoKind::Threshold);
        assert_eq!(spec.shards, 1);
        let spec = TenantSpec::parse("beta:8:0.25:greedy:2:7").unwrap();
        assert_eq!(spec.algo, AlgoKind::Greedy);
        assert_eq!(spec.shards, 2);
        assert_eq!(spec.seed, 7);
        assert!(TenantSpec::parse("alpha").is_err());
        assert!(TenantSpec::parse(":4:0.5").is_err());
        assert!(TenantSpec::parse("x:4:0.5:nope").is_err());
    }

    #[test]
    fn validate_job_guards_the_boundary() {
        let ok = proto::WireJob {
            id: 0,
            release: 0.0,
            proc_time: 1.0,
            deadline: 2.0,
        };
        assert!(validate_job(&ok).is_none());
        for bad in [
            proto::WireJob {
                proc_time: 0.0,
                ..ok
            },
            proto::WireJob {
                proc_time: -1.0,
                ..ok
            },
            proto::WireJob {
                release: f64::NAN,
                ..ok
            },
            proto::WireJob {
                deadline: f64::INFINITY,
                ..ok
            },
            proto::WireJob {
                deadline: -1.0,
                ..ok
            },
        ] {
            assert!(validate_job(&bad).is_some(), "{bad:?}");
        }
    }
}
