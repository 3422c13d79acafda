//! Engine tuning and observability configuration types.

use crate::observatory::ObservatoryConfig;
use crossbeam::channel::Sender;
use cslack_obs::flight::StampedDecision;
use cslack_obs::timeline::ClockBase;
use cslack_obs::MetricsRegistry;
use std::path::PathBuf;
use std::sync::Arc;

/// Tuning knobs for [`Engine::start`](crate::Engine::start).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of shards (worker threads / scheduler instances).
    pub shards: usize,
    /// Job slots in each shard's ingestion ring (rounded up to a power
    /// of two): the bound on queued *jobs*. A full ring makes
    /// [`Engine::try_submit`](crate::Engine::try_submit) fail and
    /// [`Engine::submit`](crate::Engine::submit) block. At most
    /// [`EngineConfig::MAX_JOBS`].
    pub queue_capacity: usize,
    /// Maximum jobs a shard drains from its ring per wakeup. At most
    /// [`EngineConfig::MAX_JOBS`].
    pub batch_size: usize,
}

impl EngineConfig {
    /// The ceiling on `queue_capacity` and `batch_size`: 2^20 jobs, or
    /// about 92 MB of preallocated ring slots per shard. Larger values
    /// make [`Engine::start`](crate::Engine::start) fail with
    /// [`EngineError::TooLarge`](crate::EngineError::TooLarge) instead
    /// of wrapping the power-of-two rounding or exhausting memory.
    pub const MAX_JOBS: usize = 1 << 20;

    /// A config with `shards` shards and default queue/batch sizing.
    pub fn new(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            queue_capacity: 1024,
            batch_size: 64,
        }
    }
}

/// Observability wiring for
/// [`Engine::start_observed`](crate::Engine::start_observed).
///
/// The default is fully dark: no registry, no flight recorder, and the
/// built-in histograms still populate
/// [`EngineMetrics`](crate::EngineMetrics) (they are shard-local,
/// contention-free, and cheap).
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// Shared metrics registry the workers stream counters and
    /// histogram samples into while running (only when the registry is
    /// [enabled](MetricsRegistry::is_enabled)). Workers accumulate
    /// shard-locally and flush once per drained batch, so a live
    /// registry adds no per-decision contention; scraped values trail
    /// the truth by at most one batch. `None` skips registry writes
    /// entirely.
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Flight-recorder wiring; `None` records nothing. See
    /// [`FlightConfig`].
    pub flight: Option<FlightConfig>,
    /// Live decision subscription: every completed decision is sent to
    /// this channel as a [`StampedDecision`] (a
    /// [`DecisionEvent`](cslack_obs::DecisionEvent) with global machine
    /// ids plus its timeline stamps), in per-shard `(shard, seq)`
    /// order. Shards send concurrently, so the receiver observes an
    /// interleaving of the per-shard streams; within one shard the
    /// order is exactly arrival order. The channel closes when the
    /// engine is finished (all senders dropped), which is the
    /// receiver's drain signal. A full bounded channel blocks the
    /// deciding worker — subscribers that cannot keep up stall the
    /// engine rather than silently losing decisions, so use an
    /// unbounded channel unless that backpressure is wanted.
    pub decisions: Option<Sender<StampedDecision>>,
    /// Quality-observatory wiring: a background thread slicing the
    /// flight-recorded decision stream into release-time windows and
    /// scoring each against the max-flow OPT bound — the
    /// `cslack_empirical_ratio` gauges. Needs both a flight recorder
    /// ([`ObsConfig::flight`]) to read decisions from and a registry to
    /// publish into ([`ObsConfig::registry`]); with either missing the
    /// knob is ignored. `None` (the default) runs no observatory.
    pub observatory: Option<ObservatoryConfig>,
    /// The monotonic clock base timeline stamps are measured against.
    /// An embedding process that stamps hops *outside* the engine (the
    /// cslack server stamps frame decode and dispatch, and every tenant
    /// engine must agree on the axis) passes its own shared clock;
    /// `None` gives the engine a private one.
    pub clock: Option<Arc<ClockBase>>,
}

/// Flight-recorder wiring for
/// [`Engine::start_observed`](crate::Engine::start_observed).
///
/// The recorder captures the complete causal record of the run —
/// submissions (arrival order + shard routing), full decisions, and
/// irrevocable commitments — in bounded per-shard binary rings
/// ([`SharedFlightRing`](cslack_obs::flight::SharedFlightRing)). Each
/// shard's worker is its ring's single writer: a decision is encoded
/// straight into its slot with relaxed atomic word stores and one
/// release publish, so the per-decision path takes no locks at all
/// while live readers (`/flight/snapshot`, error snapshots) take
/// seqlock-validated copies at any time without ever stalling a
/// worker. Records carry the decision's
/// [`TimelineStamps`](cslack_obs::timeline::TimelineStamps), so
/// snapshots double as the stage-latency evidence `cslack latency`
/// aggregates.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Per-shard ring capacity in records; `0` disables recording.
    /// Each decision costs exactly one record — the submission and
    /// commitment events in a snapshot are synthesized from it.
    pub capacity: usize,
    /// Algorithm label written into the `.cfr` header, in the CLI
    /// vocabulary (`threshold`, `greedy`, ...) — replay rebuilds the
    /// schedulers from it, and the auditor gates the `c(eps, m)` check
    /// on it.
    pub algorithm: String,
    /// System slack the schedulers were configured with.
    pub eps: f64,
    /// Base RNG seed (shard `s` derives `seed + s` by convention).
    pub seed: u64,
    /// Write a `.cfr` snapshot here when
    /// [`Engine::finish`](crate::Engine::finish) fails with a contract
    /// violation, a shard panic, or a merge error — the crash-dump
    /// path.
    pub snapshot_on_error: Option<PathBuf>,
    /// Run the trace-driven invariant auditor over the final snapshot
    /// inside [`Engine::finish`](crate::Engine::finish); the result
    /// lands in [`EngineReport::audit`](crate::EngineReport::audit).
    pub audit_on_finish: bool,
}

impl FlightConfig {
    /// A recorder of `capacity` records per shard describing a run of
    /// `algorithm` under `eps`/`seed`, with no error snapshot and no
    /// finish-time audit.
    pub fn new(capacity: usize, algorithm: impl Into<String>, eps: f64, seed: u64) -> FlightConfig {
        FlightConfig {
            capacity,
            algorithm: algorithm.into(),
            eps,
            seed,
            snapshot_on_error: None,
            audit_on_finish: false,
        }
    }
}
