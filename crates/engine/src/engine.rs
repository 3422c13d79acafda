//! The engine itself: startup (shard spawning), accessors, and the
//! drain/merge shutdown path.

use crate::config::{EngineConfig, ObsConfig};
use crate::error::{EngineError, FailureKind, ShardFailure};
use crate::flight_state::{FlightRecording, FlightState};
use crate::health::{HealthState, ShardHealth};
use crate::machine_groups;
use crate::observatory::{spawn_observatory, ObservatoryHandle};
use crate::queue::{IngestRing, RingConsumer};
use crate::recovery::RecoveryLedger;
use crate::report::{EngineMetrics, EngineReport, ShardMetrics, ShardOutcome};
use crate::worker::{panic_payload_string, shard_worker, ShardCtx};
use cslack_algorithms::OnlineScheduler;
use cslack_kernel::{merge_schedules, MachineId};
use cslack_obs::flight::{FlightSnapshot, MAX_MACHINES};
use cslack_obs::timeline::ClockBase;
use cslack_obs::{Histogram, RejectCounts};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// The scheduler factory the engine keeps for the lifetime of the run:
/// startup builds one scheduler per shard through it, and shard
/// recovery builds the replacement replay scheduler through the *same*
/// closure — which is what makes the replayed stream bit-identical by
/// construction.
pub(crate) type SchedulerBuilder =
    Box<dyn Fn(usize, usize) -> Box<dyn OnlineScheduler> + Send + Sync>;

/// The swappable half of a shard's handles: the producer side of the
/// ingestion ring and the worker's join handle. Behind a `RwLock` so a
/// failed shard can be resurrected (`Engine::restart_shard`
/// write-locks, swaps in a fresh ring and worker) while concurrent
/// producers read-lock on the submit paths.
pub(crate) struct ShardSlot {
    pub(crate) queue: Option<Arc<IngestRing>>,
    pub(crate) join: Option<JoinHandle<ShardOutcome>>,
    /// A dead worker's outcome, parked here when a restart attempt
    /// joined the worker but then refused to proceed (lossy recording,
    /// replay divergence) — `finish` reports it like any other failed
    /// shard's outcome.
    pub(crate) parked: Option<ShardOutcome>,
}

/// One shard's producer-side handles: the swappable queue/join slot
/// and the (immutable) global machine group it owns.
pub(crate) struct ShardHandle {
    pub(crate) slot: RwLock<ShardSlot>,
    pub(crate) machines: Vec<MachineId>,
}

impl ShardHandle {
    /// Read access for the submit paths. Lock poisoning is ignored:
    /// the slot's contents are always valid (a panicking restart left
    /// at worst a dead shard, which the submit paths already handle).
    pub(crate) fn read_slot(&self) -> std::sync::RwLockReadGuard<'_, ShardSlot> {
        self.slot.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running sharded admission-control service.
///
/// Submissions are routed to shard queues; worker threads decide and
/// commit. `&Engine` is `Sync`, so many producer threads can submit
/// concurrently. Shut down with [`Engine::finish`], which drains every
/// queue, joins the workers, and merges the shard schedules.
pub struct Engine {
    pub(crate) m: usize,
    pub(crate) config: EngineConfig,
    pub(crate) obs: ObsConfig,
    pub(crate) shards: Vec<ShardHandle>,
    pub(crate) stalls: AtomicU64,
    pub(crate) started: Instant,
    /// Nanoseconds since `started` at the first successful enqueue
    /// (`u64::MAX` until one happens) — the left edge of the busy
    /// window for [`EngineMetrics::busy_secs`].
    pub(crate) first_enqueue_ns: AtomicU64,
    pub(crate) health: Arc<HealthState>,
    pub(crate) flight: Option<Arc<FlightState>>,
    pub(crate) observatory: Option<ObservatoryHandle>,
    /// Shared monotonic base for every timeline stamp (submit paths
    /// stamp `Enqueue` here; workers stamp `Dequeue`/`Decide`).
    pub(crate) clock: Arc<ClockBase>,
    /// The scheduler factory, retained so [`Engine::restart_shard`] can
    /// rebuild a dead shard's scheduler for replay.
    pub(crate) builder: SchedulerBuilder,
    /// The shared recovery ledger: restart count and the four-way job
    /// conservation counters, written by [`Engine::restart_shard`] and
    /// by replacement workers deciding re-offered jobs.
    pub(crate) ledger: Arc<RecoveryLedger>,
}

impl Engine {
    /// Starts the service with observability dark (no registry, no
    /// flight recorder): spawns one worker thread per shard, each
    /// owning a scheduler built by `builder` for its machine group.
    ///
    /// `builder` receives `(shard index, machines in the shard's
    /// group)` and returns the scheduler instance that shard runs; the
    /// scheduler's machine ids are shard-local (`0..group size`) and
    /// are remapped to the global group on merge.
    pub fn start<F>(m: usize, config: EngineConfig, builder: F) -> Result<Engine, EngineError>
    where
        F: Fn(usize, usize) -> Box<dyn OnlineScheduler> + Send + Sync + 'static,
    {
        Engine::start_observed(m, config, ObsConfig::default(), builder)
    }

    /// Starts the service with explicit observability wiring: a shared
    /// [`MetricsRegistry`](cslack_obs::MetricsRegistry) to stream
    /// into, a flight recorder, and so on (see [`ObsConfig`]).
    ///
    /// Fails with [`EngineError::BadShardCount`] for zero shards or
    /// more shards than machines, and with [`EngineError::TooLarge`]
    /// when `m` exceeds [`MAX_MACHINES`] (a `.cfr` file with more
    /// machines is refused on read) or `queue_capacity` or `batch_size`
    /// exceeds [`EngineConfig::MAX_JOBS`].
    ///
    /// `builder` runs sequentially on the calling thread, one shard at
    /// a time: threshold-style schedulers that solve for their ratio
    /// parameters hit the process-wide `cslack_ratio::table` cache, so
    /// the first shard pays for the solve and the rest reuse it.
    pub fn start_observed<F>(
        m: usize,
        config: EngineConfig,
        obs: ObsConfig,
        builder: F,
    ) -> Result<Engine, EngineError>
    where
        F: Fn(usize, usize) -> Box<dyn OnlineScheduler> + Send + Sync + 'static,
    {
        let builder: SchedulerBuilder = Box::new(builder);
        for (field, value, ceiling) in [
            ("m", m, MAX_MACHINES),
            (
                "queue_capacity",
                config.queue_capacity,
                EngineConfig::MAX_JOBS,
            ),
            ("batch_size", config.batch_size, EngineConfig::MAX_JOBS),
        ] {
            if value > ceiling {
                return Err(EngineError::TooLarge { field, value });
            }
        }
        let groups = machine_groups(m, config.shards)?;
        let health = Arc::new(HealthState::new(config.shards));
        if let Some(reg) = &obs.registry {
            // Size the per-shard queue-depth gauge before any worker or
            // producer touches it.
            reg.queue_depth.register(config.shards);
        }
        let flight = obs
            .flight
            .as_ref()
            .filter(|f| f.capacity > 0)
            .map(|cfg| Arc::new(FlightState::new(cfg.clone(), m, config.shards)));
        // One monotonic clock base for every stamp this engine (and an
        // embedding server sharing it) takes: cross-thread stage deltas
        // are only meaningful on a single axis.
        let clock = obs
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(ClockBase::new()));
        if let Some(reg) = &obs.registry {
            // Arm the rolling-window panel on the same clock the
            // timeline stamps use, so window buckets and stage spans
            // share one time axis.
            reg.windows.register(Arc::clone(&clock));
        }
        // The quality observatory needs decisions to read (the flight
        // rings) and somewhere to publish (the registry); with either
        // missing the knob is inert.
        let observatory = match (&obs.observatory, &flight, &obs.registry) {
            (Some(ocfg), Some(fl), Some(reg)) if ocfg.window > 0.0 => {
                // The alert floor comes from the paper's guarantee: an
                // algorithm meeting c(eps, m) keeps every window's
                // ratio above floor_fraction / c at fraction 1.0.
                let eps = fl.cfg.eps;
                let c = if eps > 0.0 {
                    cslack_ratio::RatioFn::new(m).eval(eps).c
                } else {
                    1.0
                };
                reg.quality
                    .register(config.shards, ocfg.window, ocfg.floor_fraction / c);
                let group_sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
                Some(spawn_observatory(
                    ocfg.clone(),
                    m,
                    group_sizes,
                    Arc::clone(fl),
                    Arc::clone(reg),
                ))
            }
            _ => None,
        };
        // The workers compute heartbeat / busy-window timestamps as
        // nanoseconds since this instant, so fix it before spawning.
        let started = Instant::now();
        let mut shards = Vec::with_capacity(config.shards);
        for (index, group) in groups.into_iter().enumerate() {
            let scheduler = builder(index, group.len());
            let ring = Arc::new(IngestRing::new(config.queue_capacity));
            let ctx = ShardCtx {
                shard: index,
                group: group.clone(),
                batch_size: config.batch_size.max(1),
                registry: obs.registry.clone(),
                flight: flight.clone(),
                decisions: obs.decisions.clone(),
                health: Arc::clone(&health),
                started,
                clock: Arc::clone(&clock),
            };
            let join = std::thread::Builder::new()
                .name(format!("cslack-shard-{index}"))
                .spawn({
                    let ring = Arc::clone(&ring);
                    // The consumer registers on the worker thread, so
                    // producers unpark the right thread.
                    move || shard_worker(RingConsumer::new(ring), scheduler, ctx, None)
                })
                .expect("failed to spawn shard worker");
            shards.push(ShardHandle {
                slot: RwLock::new(ShardSlot {
                    queue: Some(ring),
                    join: Some(join),
                    parked: None,
                }),
                machines: group,
            });
        }
        Ok(Engine {
            m,
            config,
            obs,
            shards,
            stalls: AtomicU64::new(0),
            started,
            first_enqueue_ns: AtomicU64::new(u64::MAX),
            health,
            flight,
            observatory,
            clock,
            builder,
            ledger: Arc::new(RecoveryLedger::default()),
        })
    }

    /// The monotonic clock base this engine stamps timelines against —
    /// share it ([`ObsConfig::clock`]) with every component that stamps
    /// hops for the same jobs.
    pub fn clock(&self) -> &Arc<ClockBase> {
        &self.clock
    }

    /// Cluster machine count.
    pub fn machines(&self) -> usize {
        self.m
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global machine group owned by `shard`.
    pub fn shard_machines(&self, shard: usize) -> &[MachineId] {
        &self.shards[shard].machines
    }

    /// Blocking submissions that found their queue full so far.
    pub fn backpressure_stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// A live snapshot of the flight recording — what `/flight/snapshot`
    /// serves — with header counters recomputed from the buffered
    /// window. `None` unless a recorder is active.
    pub fn flight_snapshot(&self) -> Option<FlightSnapshot> {
        self.flight.as_ref().map(|s| s.snapshot(None))
    }

    /// Per-shard liveness, one row per shard in shard order.
    ///
    /// Lock-free reads of the same table the workers beat once per
    /// batch and the `/healthz` endpoint renders — an `Alive` entry
    /// with a stale heartbeat is an idle (or wedged) worker, a
    /// `Failed` one died to a contained fault and its jobs now bounce
    /// with [`SubmitError::ShardFailed`](crate::SubmitError::ShardFailed).
    pub fn health(&self) -> Vec<ShardHealth> {
        self.health.snapshot()
    }

    /// Live snapshot of the recovery ledger: restarts so far and the
    /// four-way job conservation counters (all zero until a failed
    /// shard is resurrected via [`Engine::restart_shard`]).
    pub fn recovery_stats(&self) -> crate::report::RecoveryStats {
        self.ledger.snapshot()
    }

    /// Monotone count of shard state *transitions* (fail, recover,
    /// drain) — never bumped by mere heartbeats. Telemetry caches in
    /// front of this engine key on it so a page rendered before a
    /// transition is never served after it.
    pub fn health_generation(&self) -> u64 {
        self.health.generation()
    }

    /// Closes every shard's ring so the workers drain and exit: the
    /// ring flips its closed flag and wakes both sides.
    fn close_queues(&mut self) {
        for shard in &mut self.shards {
            let slot = shard.slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            if let Some(ring) = slot.queue.take() {
                ring.close();
            }
        }
    }

    /// Graceful shutdown: closes every shard queue, waits for **all**
    /// workers to drain and exit (even after a fault), merges the
    /// healthy shards' schedules into one cluster schedule, and
    /// returns it with the metrics snapshot and the final flight
    /// recording.
    ///
    /// A shard that died to a contained fault does not sink the run:
    /// its failure is reported in [`EngineReport::degraded`], its
    /// pre-fault counters still feed the metrics, and only its
    /// schedule is excluded from the merge — the commitments the
    /// healthy shards made are preserved. `finish` itself fails only
    /// when *every* shard died ([`EngineError::AllShardsFailed`]) or
    /// the healthy merge breaks a kernel invariant.
    pub fn finish(mut self) -> Result<EngineReport, EngineError> {
        // Closing the queues makes the workers drain what is left and
        // return their outcomes. `take` (rather than moving out of
        // `self`) keeps `self` whole for the error-snapshot writer and
        // the `Drop` impl.
        self.close_queues();
        self.health.mark_draining_all();
        let handles = std::mem::take(&mut self.shards);
        let mut outcomes = Vec::with_capacity(handles.len());
        let mut groups = Vec::with_capacity(handles.len());
        for (index, shard) in handles.into_iter().enumerate() {
            let slot = shard
                .slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            let group_len = shard.machines.len();
            // An outcome that accounts for a worker that died outside
            // the contained decide/commit loop (the containment net has
            // a hole): empty, with a synthesized failure.
            let escaped = |payload: String| ShardOutcome {
                failure: Some(ShardFailure {
                    shard: index,
                    kind: FailureKind::Panic,
                    payload,
                    failing_job: None,
                    seq: 0,
                    queued_lost: 0,
                }),
                ..ShardOutcome::new(group_len)
            };
            let outcome = match (slot.join, slot.parked) {
                (Some(join), _) => match join.join() {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        self.health.mark_failed(index);
                        escaped(panic_payload_string(payload.as_ref()))
                    }
                },
                // A refused restart already joined the dead worker and
                // parked its outcome for us.
                (None, Some(parked)) => parked,
                (None, None) => {
                    self.health.mark_failed(index);
                    escaped("shard worker vanished without an outcome".to_string())
                }
            };
            outcomes.push(outcome);
            groups.push(shard.machines);
        }
        // Every worker has exited, so the flight rings are final: stop
        // the observatory, whose last poll + drain scores and publishes
        // every window still open before the gauges are read below or
        // by a post-finish scrape of a shared registry.
        self.stop_observatory();
        let degraded: Vec<ShardFailure> =
            outcomes.iter().filter_map(|o| o.failure.clone()).collect();
        if degraded.len() == outcomes.len() {
            // No healthy schedule survives; the workers already wrote
            // the crash snapshot at failure time (first fault wins).
            self.write_error_snapshot();
            return Err(EngineError::AllShardsFailed { failures: degraded });
        }
        let merged = match merge_schedules(
            self.m,
            outcomes
                .iter()
                .zip(&groups)
                .filter(|(o, _)| o.failure.is_none())
                .map(|(o, g)| (&o.schedule, g.as_slice())),
        ) {
            Ok(merged) => merged,
            Err(e) => {
                self.write_error_snapshot();
                return Err(EngineError::Merge(e));
            }
        };
        let elapsed = self.started.elapsed().as_secs_f64();

        // The busy window runs from the first successful enqueue to
        // the newest completed decision batch across shards; idle time
        // (pre-traffic, or a post-run `--hold` keeping telemetry up)
        // is excluded so the throughput number is honest.
        let first_ns = self.first_enqueue_ns.load(Ordering::Relaxed);
        let last_ns = outcomes
            .iter()
            .map(|o| o.last_decision_ns)
            .max()
            .unwrap_or(0);
        let mut latency = Histogram::new();
        let mut queue_wait = Histogram::new();
        let mut rejected_by_reason = RejectCounts::default();
        let (mut submitted, mut accepted) = (0u64, 0u64);
        let mut per_shard = Vec::with_capacity(outcomes.len());
        // Consuming the outcomes frees each shard's schedule once its
        // metrics are taken.
        for (index, o) in outcomes.into_iter().enumerate() {
            latency.merge(&o.latency);
            queue_wait.merge(&o.queue_wait);
            rejected_by_reason.merge(&o.rejected);
            submitted += o.submitted;
            accepted += o.accepted;
            let g = groups[index].len();
            let makespan = o.schedule.makespan().raw();
            let utilization = if makespan > 0.0 {
                o.schedule.accepted_load() / (g as f64 * makespan)
            } else {
                0.0
            };
            per_shard.push(ShardMetrics {
                shard: index,
                machines: g,
                submitted: o.submitted,
                accepted: o.accepted,
                rejected: o.rejected.total(),
                rejected_by_reason: o.rejected,
                accepted_load: o.schedule.accepted_load(),
                utilization,
                batches: o.batches,
                failed: o.failure.is_some(),
            });
        }
        let busy_secs = if first_ns == u64::MAX || last_ns <= first_ns {
            0.0
        } else {
            (last_ns - first_ns) as f64 / 1e9
        };
        let metrics = EngineMetrics {
            m: self.m,
            shards: self.config.shards,
            submitted,
            accepted,
            rejected: rejected_by_reason.total(),
            rejected_by_reason,
            backpressure_stalls: self.stalls.load(Ordering::Relaxed),
            accepted_load: merged.accepted_load(),
            elapsed_secs: elapsed,
            busy_secs,
            decisions_per_sec: if busy_secs > 0.0 {
                submitted as f64 / busy_secs
            } else {
                0.0
            },
            latency: latency.summary(),
            queue_wait: queue_wait.summary(),
            per_shard,
        };
        // The final recording carries the engine's own counters (not the
        // window-recomputed ones), so the auditor can cross-check them
        // against what the trace implies. It keeps the rings and decodes
        // on first read, so a caller that never reads it never pays.
        let flight = self.flight.take().map(|state| {
            FlightRecording::new(
                state,
                (
                    metrics.submitted,
                    metrics.accepted,
                    metrics.rejected_by_reason,
                ),
            )
        });
        Ok(EngineReport {
            schedule: merged,
            metrics,
            flight,
            degraded,
            recovery: self.ledger.snapshot(),
        })
    }

    /// Stops the quality observatory and joins its thread; its final
    /// drain closes and publishes every window still open. Idempotent;
    /// called once the workers are joined (so the flight rings are
    /// final) in both [`Engine::finish`] and `Drop`.
    fn stop_observatory(&mut self) {
        if let Some(mut o) = self.observatory.take() {
            o.stop();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Close the queues so workers drain even on an abandoned engine
        // (their outcomes are discarded), *join* them so no detached
        // thread outlives the handle, then stop the observatory.
        // `finish` consumes `self`, so this also runs at the end of
        // every finish path (where the shard list is already empty).
        self.close_queues();
        self.health.mark_draining_all();
        for shard in &mut self.shards {
            let slot = shard.slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            if let Some(join) = slot.join.take() {
                let _ = join.join();
            }
        }
        self.stop_observatory();
    }
}
