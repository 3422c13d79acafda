//! Shared flight-recorder state: the per-shard rings plus snapshot and
//! crash-dump assembly.

use crate::config::FlightConfig;
use cslack_obs::flight::{
    FlightEvent, FlightHeader, FlightSnapshot, ShardFlight, SharedFlightRing,
};
use cslack_obs::{RejectCounts, RejectReason};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Shared flight-recorder state: one bounded binary ring per shard plus
/// the run metadata the `.cfr` header needs. Each ring is a lock-free
/// [`SharedFlightRing`]: the shard worker is its single writer (a
/// wait-free encoded append per decision — no mutex, no batch
/// staging). Every reader — snapshots at finish, the telemetry
/// endpoint, crash dumps, recovery and the quality observatory — uses
/// the ring's one cursor read, which copies in bounded chunks checked
/// against the wrap seqlock and never retries or stalls the writer.
pub(crate) struct FlightState {
    pub(crate) rings: Vec<SharedFlightRing>,
    pub(crate) cfg: FlightConfig,
    pub(crate) m: usize,
    pub(crate) shard_count: usize,
    /// First-wins claim on the crash `.cfr`: the failing worker writes
    /// the snapshot *at failure time*, and later writers (a second
    /// failing shard, the finish/merge error path) must not overwrite
    /// that evidence with a staler or larger window.
    pub(crate) error_snapshot_written: AtomicBool,
}

impl FlightState {
    /// Preallocates one ring per shard; `SharedFlightRing::new` touches
    /// every word of the backing buffer on this (the caller's) thread,
    /// so a shard's first pass over its ring never page-faults inside
    /// the decision loop.
    pub(crate) fn new(cfg: FlightConfig, m: usize, shard_count: usize) -> FlightState {
        FlightState {
            rings: (0..shard_count)
                .map(|_| SharedFlightRing::new(cfg.capacity))
                .collect(),
            cfg,
            m,
            shard_count,
            error_snapshot_written: AtomicBool::new(false),
        }
    }

    /// Assembles a [`FlightSnapshot`] of exactly the records the rings
    /// hold: one decision per decision, plus a crash dump's failing-job
    /// submission.
    ///
    /// `counters` carries the engine's own totals when they are known
    /// (the finish path); live and error snapshots pass `None` and the
    /// header counters are recomputed from the buffered decisions, so
    /// they stay consistent with the (possibly partial) event window —
    /// counted as the worker counts them, a reject without a reason as
    /// [`RejectReason::Unattributed`].
    pub(crate) fn snapshot(&self, counters: Option<(u64, u64, RejectCounts)>) -> FlightSnapshot {
        let mut shards = Vec::with_capacity(self.rings.len());
        for (index, ring) in self.rings.iter().enumerate() {
            let (events, dropped) = ring.snapshot_events();
            shards.push(ShardFlight {
                shard: index as u32,
                dropped,
                events,
            });
        }
        let (submitted, accepted, rejected) = counters.unwrap_or_else(|| {
            let mut submitted = 0u64;
            let mut accepted = 0u64;
            let mut rejected = RejectCounts::default();
            for shard in &shards {
                for event in &shard.events {
                    if let FlightEvent::Decision(d) = event {
                        submitted += 1;
                        if d.accepted {
                            accepted += 1;
                        } else {
                            rejected.bump(d.reject_reason.unwrap_or(RejectReason::Unattributed));
                        }
                    }
                }
            }
            (submitted, accepted, rejected)
        });
        FlightSnapshot {
            header: FlightHeader {
                m: self.m as u32,
                shards: self.shard_count as u32,
                eps: self.cfg.eps,
                seed: self.cfg.seed,
                algorithm: self.cfg.algorithm.clone(),
                submitted,
                accepted,
                rejected,
            },
            shards,
        }
    }

    /// Writes the crash-dump `.cfr` if the config asked for one and no
    /// earlier fault already claimed it. Returns `true` if this call
    /// wrote the file — the failing worker calls this *at failure
    /// time*, so the evidence survives even if the engine is then
    /// abandoned or held open for hours.
    pub(crate) fn write_error_snapshot(&self) -> bool {
        let Some(path) = &self.cfg.snapshot_on_error else {
            return false;
        };
        if self.error_snapshot_written.swap(true, Ordering::AcqRel) {
            return false;
        }
        // Written under a temporary name and renamed into place, so a
        // reader polling `path` finds no file or the whole dump, never
        // a truncated one.
        let mut partial = path.clone().into_os_string();
        partial.push(".partial");
        let written = std::fs::File::create(&partial)
            .and_then(|mut file| self.snapshot(None).write_cfr(&mut file))
            .and_then(|()| std::fs::rename(&partial, path));
        if written.is_err() {
            let _ = std::fs::remove_file(&partial);
        }
        written.is_ok()
    }
}

/// The flight recording of a finished engine
/// ([`EngineReport::flight`](crate::EngineReport::flight)): the shard
/// rings as the workers left them plus the engine's own counters,
/// decoded into a [`FlightSnapshot`] on first read. It derefs to that
/// snapshot, so `report.flight` reads like one; a caller that never
/// looks at it never pays for the decode, and one that does holds only
/// the snapshot afterwards — the rings go with the decode.
pub struct FlightRecording {
    /// The finished rings, until the decode takes them.
    state: Mutex<Option<Arc<FlightState>>>,
    counters: (u64, u64, RejectCounts),
    decoded: OnceLock<FlightSnapshot>,
}

impl FlightRecording {
    /// Holds the finished rings; `counters` are the engine's submitted,
    /// accepted and rejected totals for the header.
    pub(crate) fn new(state: Arc<FlightState>, counters: (u64, u64, RejectCounts)) -> Self {
        FlightRecording {
            state: Mutex::new(Some(state)),
            counters,
            decoded: OnceLock::new(),
        }
    }
}

impl Deref for FlightRecording {
    type Target = FlightSnapshot;

    fn deref(&self) -> &FlightSnapshot {
        // Every writer has exited, so the rings are final and the
        // decode is the same whenever it runs; `get_or_init` runs it
        // once, so the rings are there to take.
        self.decoded.get_or_init(|| {
            self.state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("the rings stay until the one decode takes them")
                .snapshot(Some(self.counters))
        })
    }
}

impl fmt::Debug for FlightRecording {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecording")
            .field("decoded", &self.decoded.get().is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recording_decodes_on_first_read_and_then_lets_the_rings_go() {
        let state = Arc::new(FlightState::new(
            FlightConfig::new(8, "greedy", 0.5, 0),
            2,
            1,
        ));
        let recording = FlightRecording::new(Arc::clone(&state), (0, 0, RejectCounts::default()));
        assert!(recording.decoded.get().is_none(), "decoded before any read");
        assert_eq!(Arc::strong_count(&state), 2);
        assert_eq!(recording.header.m, 2);
        assert!(recording.decoded.get().is_some());
        assert_eq!(Arc::strong_count(&state), 1, "the decode kept the rings");
        assert_eq!(recording.header.algorithm, "greedy");
    }
}
