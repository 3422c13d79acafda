//! A timing [`OnlineScheduler`] wrapper for the traced runs: it times
//! `offer` / `offer_explained` on the wrapped scheduler and forwards
//! everything else unchanged.

use crate::stats::Samples;
use cslack_algorithms::{Decision, DecisionInfo, OnlineScheduler};
use cslack_kernel::Job;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a [`TimedScheduler`] measured: one duration per offer, plus
/// the offers it saw and accepted.
#[derive(Clone, Debug, Default)]
pub struct OfferStats {
    /// Nanoseconds per `offer`/`offer_explained` call.
    pub offer_ns: Samples,
    /// Offers that returned `Accept`.
    pub accepted: u64,
}

/// Where a [`TimedScheduler`] leaves its samples when it is dropped —
/// schedulers moved onto engine worker threads are dropped there when
/// the worker exits, before `Engine::finish` returns.
pub type OfferSink = Arc<Mutex<OfferStats>>;

/// An empty sink keeping at most `cap` offer durations in total.
pub fn offer_sink(cap: usize) -> OfferSink {
    Arc::new(Mutex::new(OfferStats {
        offer_ns: Samples::with_cap(cap),
        accepted: 0,
    }))
}

/// Times every offer made to `inner`.
pub struct TimedScheduler {
    inner: Box<dyn OnlineScheduler>,
    stats: OfferStats,
    sink: OfferSink,
}

impl TimedScheduler {
    /// Wraps `inner`, keeping at most `cap` offer durations; they are
    /// moved into `sink` on drop.
    pub fn new(inner: Box<dyn OnlineScheduler>, cap: usize, sink: OfferSink) -> TimedScheduler {
        TimedScheduler {
            inner,
            stats: OfferStats {
                offer_ns: Samples::with_cap(cap),
                accepted: 0,
            },
            sink,
        }
    }

    fn note(&mut self, t0: Instant, decision: &Decision) {
        self.stats.offer_ns.push(t0.elapsed().as_nanos() as u64);
        if decision.is_accept() {
            self.stats.accepted += 1;
        }
    }
}

impl OnlineScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn machines(&self) -> usize {
        self.inner.machines()
    }

    fn offer(&mut self, job: &Job) -> Decision {
        let t0 = Instant::now();
        let decision = self.inner.offer(job);
        self.note(t0, &decision);
        decision
    }

    fn offer_explained(&mut self, job: &Job) -> (Decision, DecisionInfo) {
        let t0 = Instant::now();
        let out = self.inner.offer_explained(job);
        self.note(t0, &out.0);
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        // A poisoned sink only loses samples; never panic in drop.
        if let Ok(mut sink) = self.sink.lock() {
            let stats = std::mem::take(&mut self.stats);
            sink.offer_ns.absorb(stats.offer_ns);
            sink.accepted += stats.accepted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_sim::sweep::AlgoKind;
    use cslack_workloads::scenarios::{bursty_heavy_tail, iaas_mix};

    #[test]
    fn wrapper_decides_exactly_like_the_bare_scheduler() {
        for inst in [
            iaas_mix(16, 0.25, 3000, 11),
            bursty_heavy_tail(8, 0.25, 3000, 11),
        ] {
            let (m, eps) = (inst.machines(), inst.slack());
            let mut bare = AlgoKind::Threshold.build(m, eps, 0);
            let sink = offer_sink(1000);
            let mut timed =
                TimedScheduler::new(AlgoKind::Threshold.build(m, eps, 0), 1000, sink.clone());
            let mut accepted = 0;
            for (i, job) in inst.jobs().iter().enumerate() {
                // Alternate the two entry points on the wrapped side.
                let want = bare.offer_explained(job);
                let got = if i % 2 == 0 {
                    timed.offer_explained(job)
                } else {
                    let d = timed.offer(job);
                    (d, want.1)
                };
                assert_eq!(want.0, got.0, "job {i}");
                assert_eq!(want.1, got.1, "job {i}");
                accepted += u64::from(want.0.is_accept());
            }
            assert_eq!(timed.name(), bare.name());
            assert_eq!(timed.machines(), bare.machines());
            drop(timed);
            let stats = sink.lock().unwrap();
            assert_eq!(stats.offer_ns.seen(), inst.len() as u64);
            assert_eq!(stats.offer_ns.kept().len(), 1000);
            assert_eq!(stats.accepted, accepted);
        }
    }
}
