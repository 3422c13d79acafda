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

use crossbeam::channel::{unbounded, Receiver, Sender};
use cslack_engine::{
    Engine, EngineConfig, FlightConfig, ObsConfig, ObservatoryConfig, ShardHealth, ShardState,
    SubmitError,
};
use cslack_kernel::{Instance, Job, JobId, Time};
use cslack_obs::flight::{FlightSnapshot, StampedDecision};
use cslack_obs::timeline::{ClockBase, Stage, TimelineStamps};
use cslack_obs::MetricsRegistry;
use cslack_sim::fault::{FaultSpec, FaultyScheduler};
use cslack_sim::sweep::AlgoKind;
use parking_lot::{Mutex, RwLock};
use proto::{Frame, ProtoError, RejectCode, TenantStats, TenantSummary};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
/// the final flight snapshot (still served over `/flight/snapshot`,
/// encoded only when asked for).
#[derive(Clone)]
struct DrainOutcome {
    summary: TenantSummary,
    flight: Option<Arc<FlightSnapshot>>,
}

/// One hosted tenant: its engine, decision dispatcher, pending map,
/// and metrics.
struct Tenant {
    spec: TenantSpec,
    registry: Arc<MetricsRegistry>,
    /// `None` once drained. Submissions take the read lock; drain takes
    /// the write lock and consumes the engine.
    engine: RwLock<Option<Engine>>,
    /// Undecided jobs → the outbox of the connection that submitted
    /// them. Doubles as the in-flight quota gauge.
    pending: Arc<Mutex<HashMap<u32, Sender<Frame>>>>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    done: Mutex<Option<DrainOutcome>>,
    /// The shard-resurrection watcher (`spec.recover`), stopped and
    /// joined before drain so it never races the engine take-down.
    watcher: Mutex<Option<JoinHandle<()>>>,
    watcher_stop: Arc<AtomicBool>,
}

impl Tenant {
    fn start(spec: TenantSpec, clock: Arc<ClockBase>) -> Result<Arc<Tenant>, String> {
        let registry = Arc::new(MetricsRegistry::enabled());
        let (decision_tx, decision_rx) = unbounded::<StampedDecision>();
        let obs = ObsConfig {
            registry: Some(Arc::clone(&registry)),
            flight: Some(FlightConfig::new(
                spec.flight_capacity,
                spec.algo.as_str(),
                spec.eps,
                spec.seed,
            )),
            decisions: Some(decision_tx),
            observatory: spec.observatory.clone(),
            // Every tenant stamps on the process-wide clock so
            // cross-tenant timelines share one axis.
            clock: Some(Arc::clone(&clock)),
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
        let pending: Arc<Mutex<HashMap<u32, Sender<Frame>>>> = Arc::new(Mutex::new(HashMap::new()));
        let dispatcher = {
            let pending = Arc::clone(&pending);
            let clock = Arc::clone(&clock);
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name(format!("cslack-dispatch-{}", spec.name))
                .spawn(move || {
                    // Runs until the engine drops its sender (finish or
                    // teardown). Events arrive in per-shard (shard,
                    // seq) order; routing preserves it per connection.
                    for mut event in decision_rx.iter() {
                        // The engine stamped delivery at decide time
                        // (its best in-process estimate); route time is
                        // the real delivery hop, so overwrite it here
                        // and feed the span histogram — the worker
                        // deliberately leaves that slot to us.
                        event.stamps.set(Stage::Delivery, clock.now_ns());
                        if let Some(ns) = event.stamps.span(Stage::Decide, Stage::Delivery) {
                            // STAGE_SPANS[4] is decide -> delivery.
                            registry.stage_durations[4].record(ns);
                            registry.windows.record_stage(4, ns);
                        }
                        let outbox = pending.lock().remove(&event.job);
                        if let Some(tx) = outbox {
                            // A closed outbox means the submitting
                            // connection is gone; the decision stands
                            // (commitment is irrevocable), only the
                            // notification is dropped.
                            let _ = tx.send(Frame::Decision(event));
                        }
                    }
                })
                .map_err(|e| format!("tenant `{}`: spawn dispatcher: {e}", spec.name))?
        };
        let tenant = Arc::new(Tenant {
            spec,
            registry,
            engine: RwLock::new(Some(engine)),
            pending,
            dispatcher: Mutex::new(Some(dispatcher)),
            done: Mutex::new(None),
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
            *tenant.watcher.lock() = Some(join);
        }
        Ok(tenant)
    }

    /// Stops and joins the resurrection watcher (idempotent). Must run
    /// before the engine is taken for drain so the watcher cannot race
    /// the take-down with a restart.
    fn stop_watcher(&self) {
        self.watcher_stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.watcher.lock().take() {
            let _ = join.join();
        }
    }

    /// Admits (or refuses) one `SubmitBatch`. Returns the frames to
    /// queue on the submitting connection's outbox *now* — per-job
    /// `Reject`s and batch-level `Backpressure`; decisions arrive
    /// later via the dispatcher. `stamps` carries the client-send and
    /// frame-decode stamps the connection reader took; the dispatch
    /// stamp is added here, right before the engine hand-off.
    fn handle_batch(
        &self,
        outbox: &Sender<Frame>,
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
            let mut pending = self.pending.lock();
            if pending.len() + jobs.len() > self.spec.inflight_limit {
                replies.push(Frame::Backpressure {
                    inflight: pending.len() as u32,
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
                    pending.entry(job.id)
                {
                    slot.insert(outbox.clone());
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
        }
        if valid.is_empty() {
            return replies;
        }
        let guard = self.engine.read();
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
                    let mut pending = self.pending.lock();
                    for err in failures {
                        // The job never reached a queue; the decision
                        // stream will not answer for it.
                        let reply = match err {
                            // While resurrection is in flight the
                            // failure is transient: the client should
                            // resubmit, not write the job off.
                            SubmitError::ShardFailed(job) if self.spec.recover => {
                                pending.remove(&job.id.0);
                                Frame::Retry { job: job.id.0 }
                            }
                            SubmitError::ShardFailed(job) => {
                                pending.remove(&job.id.0);
                                Frame::Reject {
                                    job: Some(job.id.0),
                                    code: RejectCode::ShardFailed,
                                    detail: "not enqueued".into(),
                                }
                            }
                            SubmitError::Full(job) | SubmitError::Closed(job) => {
                                pending.remove(&job.id.0);
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
                let mut pending = self.pending.lock();
                for job in &valid {
                    if pending.remove(&job.id.0).is_some() {
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
            inflight: self.pending.lock().len() as u32,
            drained: self.engine.read().is_none(),
        }
    }

    fn is_drained(&self) -> bool {
        self.done.lock().is_some()
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
        let engine = self.engine.write().take();
        let Some(engine) = engine else {
            // Another connection is draining (or already drained):
            // wait for its outcome rather than inventing a second one.
            loop {
                if let Some(outcome) = self.done.lock().clone() {
                    return outcome;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let report = engine.finish();
        // `finish` dropped the decision sender, so the dispatcher is
        // past its last event once joined — after this, `pending`
        // holds exactly the never-decided jobs.
        if let Some(join) = self.dispatcher.lock().take() {
            let _ = join.join();
        }
        let leftovers: Vec<(u32, Sender<Frame>)> = self.pending.lock().drain().collect();
        for (id, tx) in leftovers {
            let _ = tx.send(Frame::Reject {
                job: Some(id),
                code: RejectCode::Undecided,
                detail: "tenant drained before this job was decided".into(),
            });
        }
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
        *self.done.lock() = Some(outcome.clone());
        outcome
    }
}

impl telemetry::Source for Tenant {
    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn health(&self) -> Option<Vec<ShardHealth>> {
        self.engine.read().as_ref().map(Engine::health)
    }

    fn health_generation(&self) -> Option<u64> {
        self.engine.read().as_ref().map(Engine::health_generation)
    }

    /// Live from the engine while running, the cached final snapshot
    /// after drain.
    fn flight_cfr(&self) -> Option<Vec<u8>> {
        match self.engine.read().as_ref() {
            Some(engine) => engine.flight_snapshot().as_ref().map(telemetry::cfr_bytes),
            None => {
                let flight = self.done.lock().as_ref().and_then(|d| d.flight.clone());
                flight.as_deref().map(telemetry::cfr_bytes)
            }
        }
    }
}

impl Drop for Tenant {
    fn drop(&mut self) {
        // Tear down in dependency order: the watcher first (it reads
        // the engine), then the engine — dropping it closes the
        // decision channel, which lets the dispatcher exit for the
        // join. Without the join the dispatcher could outlive the
        // process's other state.
        self.stop_watcher();
        drop(self.engine.write().take());
        if let Some(join) = self.dispatcher.lock().take() {
            let _ = join.join();
        }
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
        let guard = tenant.engine.read();
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
    /// accepting connections.
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
        let listener =
            TcpListener::bind(config.listen).map_err(|e| format!("bind {}: {e}", config.listen))?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let accept_join = std::thread::Builder::new()
            .name("cslack-accept".into())
            .spawn({
                let inner = Arc::clone(&inner);
                let stop = Arc::clone(&stop);
                move || accept_loop(listener, inner, stop)
            })
            .map_err(|e| e.to_string())?;
        let (telemetry_addr, telemetry_join) = match config.telemetry {
            Some(bind) => {
                let listener =
                    telemetry::bind(bind).map_err(|e| format!("bind telemetry {bind}: {e}"))?;
                let local = listener.local_addr().map_err(|e| e.to_string())?;
                let join = std::thread::Builder::new()
                    .name("cslack-server-telemetry".into())
                    .spawn({
                        let inner = Arc::clone(&inner);
                        let stop = Arc::clone(&stop);
                        move || {
                            let sources: Vec<telemetry::Labelled<'_>> = inner
                                .tenants
                                .iter()
                                .map(|(name, t)| {
                                    (Some(name.as_str()), &**t as &dyn telemetry::Source)
                                })
                                .collect();
                            telemetry::serve(listener, &sources, &stop)
                        }
                    })
                    .map_err(|e| e.to_string())?;
                (Some(local), Some(join))
            }
            None => (None, None),
        };
        Ok(Server {
            inner,
            stop,
            addr,
            telemetry_addr,
            accept_join: Some(accept_join),
            telemetry_join: Some(telemetry_join).flatten(),
        })
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
    /// tenant teardown on drop.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
        if let Some(join) = self.telemetry_join.take() {
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

fn accept_loop(listener: TcpListener, inner: Arc<ServerInner>, stop: Arc<AtomicBool>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0usize;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = Arc::clone(&inner);
                let stop = Arc::clone(&stop);
                let join = std::thread::Builder::new()
                    .name(format!("cslack-conn-{next_id}"))
                    .spawn(move || handle_connection(stream, inner, stop));
                next_id += 1;
                if let Ok(join) = join {
                    connections.push(join);
                }
                // Opportunistically reap finished connections so a
                // long-lived server does not accumulate handles.
                connections.retain(|j| !j.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for join in connections {
        let _ = join.join();
    }
}

/// Reader half of one client connection. The writer half is a
/// dedicated thread draining the connection's outbox channel, so
/// decision routing (dispatcher), submit replies (this thread), and
/// summaries all serialize through one stream writer.
fn handle_connection(stream: TcpStream, inner: Arc<ServerInner>, stop: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut tenant: Option<Arc<Tenant>> = None;
    let mut outbox: Option<Sender<Frame>> = None;
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
                match (&outbox, &mut direct) {
                    (Some(tx), _) => {
                        let _ = tx.send(reject);
                    }
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
                if tenant.is_some() {
                    if let Some(tx) = &outbox {
                        let _ = tx.send(Frame::Reject {
                            job: None,
                            code: RejectCode::BadState,
                            detail: "connection already bound to a tenant".into(),
                        });
                    }
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
                let (tx, rx) = unbounded::<Frame>();
                let Some(write_stream) = direct.take() else {
                    break;
                };
                writer_join = std::thread::Builder::new()
                    .name("cslack-conn-writer".into())
                    .spawn(move || writer_loop(write_stream, rx))
                    .ok();
                let spec = &found.spec;
                let _ = tx.send(Frame::HelloAck {
                    tenant: spec.name.clone(),
                    m: spec.m as u32,
                    eps: spec.eps,
                    shards: spec.shards as u32,
                    seed: spec.seed,
                    algorithm: spec.algo.as_str().into(),
                    inflight_limit: spec.inflight_limit as u32,
                });
                tenant = Some(Arc::clone(found));
                outbox = Some(tx);
            }
            Frame::SubmitBatch {
                jobs,
                client_send_ns,
            } => match (&tenant, &outbox) {
                (Some(tenant), Some(tx)) => {
                    let mut stamps = TimelineStamps::empty();
                    // The client stamp stays in the client's clock
                    // domain; it is carried verbatim, never compared
                    // to server stamps.
                    stamps.set(Stage::ClientSend, client_send_ns);
                    stamps.set(Stage::FrameDecode, frame_decode_ns);
                    for reply in tenant.handle_batch(tx, &jobs, stamps) {
                        let _ = tx.send(reply);
                    }
                }
                _ => break, // submit before Hello: unrecoverable misuse
            },
            Frame::StatsRequest => match (&tenant, &outbox) {
                (Some(tenant), Some(tx)) => {
                    let _ = tx.send(Frame::Stats(tenant.stats()));
                }
                _ => break,
            },
            Frame::Drain => match (&tenant, &outbox) {
                (Some(tenant), Some(tx)) => {
                    let outcome = tenant.drain();
                    let _ = tx.send(Frame::Summary(outcome.summary));
                }
                _ => break,
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
                if let Some(tx) = &outbox {
                    let _ = tx.send(Frame::Reject {
                        job: None,
                        code: RejectCode::BadState,
                        detail: "server-to-client frame sent to server".into(),
                    });
                }
            }
        }
    }
    // Drop our sender; the writer drains whatever is queued (including
    // decisions for still-inflight jobs routed by the dispatcher, which
    // holds outbox clones in the pending map) and exits when the last
    // sender is gone.
    drop(outbox);
    drop(tenant);
    if let Some(join) = writer_join {
        let _ = join.join();
    }
}

/// Writer half of one connection: drains the outbox, batches writes,
/// flushes when the queue momentarily empties.
fn writer_loop(stream: TcpStream, rx: Receiver<Frame>) {
    let mut w = BufWriter::new(stream);
    'outer: while let Ok(frame) = rx.recv() {
        if proto::write_frame(&mut w, &frame).is_err() {
            break;
        }
        while let Ok(more) = rx.try_recv() {
            if proto::write_frame(&mut w, &more).is_err() {
                break 'outer;
            }
        }
        if w.flush().is_err() {
            break;
        }
    }
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

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
