//! The ingestion plane: how submissions travel from producer threads to
//! a shard worker.
//!
//! Each shard owns one [`IngestQueue`]: a bounded FIFO of
//! [`Submission`]s behind one mutex, with one condvar the shard worker
//! waits on for data and one that producers blocked on a full queue
//! wait on for space. Its storage is allocated once, for exactly
//! `capacity` jobs, and [`Submission`] is `Copy`, so the hot path
//! performs no per-job allocation. Each operation is one lock
//! acquisition that also reads the depth the queue-depth gauge
//! publishes: a producer's publish of a whole routed batch, the
//! worker's take of up to a batch of jobs, and the fault-path drain.
//!
//! The queue is also what keeps job accounting exact across a shard
//! fault: [`QueueConsumer::drain_into`] marks the consumer gone and
//! empties the queue under that one lock, so a producer either
//! published before the drain — and its jobs are collected there — or
//! fails with [`PushError::Gone`]; none sees `Ok` for jobs nobody will
//! decide or count.
//!
//! Producers notify the worker only when it waits for data, and the
//! worker notifies producers only when some wait for space. Both flags
//! are read and written under the lock, so no wakeup is lost and no
//! wait needs a timeout; the only timed wait is a push's own deadline.
//! The worker reads the waiter count under the lock but notifies after
//! releasing it, so a woken producer does not preempt the worker only
//! to block on a lock the worker still holds.

use cslack_kernel::Job;
use cslack_obs::timeline::TimelineStamps;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Queue payload: the job plus the timeline stamps accumulated up to —
/// and including — its enqueue. The worker reads queue wait straight
/// off the enqueue stamp and keeps stamping the later hops into the
/// same array.
pub(crate) type Submission = (Job, TimelineStamps);

/// Why a push did not (fully) enqueue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue stayed full until the push's deadline — the
    /// backpressure signal.
    Full,
    /// The engine closed the queue (graceful shutdown).
    Closed,
    /// The consumer (shard worker) is gone — the shard failed.
    Gone,
}

/// What one [`IngestQueue::push`] did.
#[derive(Debug)]
pub(crate) struct Pushed {
    /// How many leading submissions were enqueued: all of them unless
    /// `err` is set.
    pub(crate) count: usize,
    /// Whether the push found the queue full (one backpressure stall).
    pub(crate) stalled: bool,
    /// Jobs queued when the push released the lock.
    pub(crate) depth: u64,
    /// Why the push stopped short.
    pub(crate) err: Option<PushError>,
}

/// Everything the queue's lock guards.
struct State {
    jobs: VecDeque<Submission>,
    /// Graceful shutdown: no further pushes; the consumer takes what is
    /// queued and exits.
    closed: bool,
    /// The consumer is gone (worker exit or shard fault): pushes fail.
    gone: bool,
    /// The consumer waits on `data`.
    consumer_waiting: bool,
    /// Producers waiting on `space`.
    space_waiters: usize,
}

/// One shard's bounded submission queue, described in the module docs.
pub(crate) struct IngestQueue {
    capacity: usize,
    state: Mutex<State>,
    /// The consumer waits here for a submission.
    data: Condvar,
    /// Producers wait here for free room.
    space: Condvar,
}

impl IngestQueue {
    /// A queue holding at most `capacity` jobs (minimum 1), its storage
    /// allocated here rather than on the hot path.
    pub(crate) fn new(capacity: usize) -> IngestQueue {
        let capacity = capacity.max(1);
        IngestQueue {
            capacity,
            state: Mutex::new(State {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
                gone: false,
                consumer_waiting: false,
                space_waiters: 0,
            }),
            data: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Poisoning is ignored: nothing panics with the lock held, so the
    /// state is always whole.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `subs` in order, waiting while the queue is full: until
    /// `deadline` when one is given (a passed deadline never waits),
    /// for as long as it takes otherwise. A batch larger than the free
    /// room is published in chunks as the worker takes jobs, so no job
    /// is ever enqueued twice, and on an error exactly the first
    /// [`Pushed::count`] submissions were enqueued.
    pub(crate) fn push(&self, subs: &[Submission], deadline: Option<Instant>) -> Pushed {
        let mut state = self.lock();
        let mut count = 0;
        let mut stalled = false;
        let err = loop {
            if state.gone {
                break Some(PushError::Gone);
            }
            if state.closed {
                break Some(PushError::Closed);
            }
            let chunk = (self.capacity - state.jobs.len()).min(subs.len() - count);
            if chunk > 0 {
                state.jobs.extend(&subs[count..count + chunk]);
                count += chunk;
                if state.consumer_waiting {
                    self.data.notify_one();
                }
            }
            if count == subs.len() {
                break None;
            }
            stalled = true;
            let left = match deadline {
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break Some(PushError::Full);
                    }
                    Some(left)
                }
                None => None,
            };
            state.space_waiters += 1;
            state = match left {
                Some(left) => {
                    self.space
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .space
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            state.space_waiters -= 1;
        };
        Pushed {
            count,
            stalled,
            depth: state.jobs.len() as u64,
            err,
        }
    }

    /// Graceful shutdown (engine finish/drop): no further pushes; the
    /// consumer takes what is queued and exits. Wakes both sides.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.data.notify_one();
        self.space.notify_all();
    }
}

/// The consumer half of a queue, owned by the shard worker. Dropping it
/// (normal exit, fault, or an unwind that escaped containment) marks
/// the consumer gone, so producers blocked on a full queue fail with
/// [`PushError::Gone`] instead of hanging.
pub(crate) struct QueueConsumer {
    queue: Arc<IngestQueue>,
}

impl QueueConsumer {
    pub(crate) fn new(queue: Arc<IngestQueue>) -> QueueConsumer {
        QueueConsumer { queue }
    }

    /// Waits until a submission is queued, moves up to `max` of them
    /// into `batch` in arrival order, and returns how many are still
    /// queued. `None` once the queue is closed and empty — the worker's
    /// exit signal.
    pub(crate) fn fill_batch(&self, batch: &mut Vec<Submission>, max: usize) -> Option<u64> {
        let queue = &*self.queue;
        let mut state = queue.lock();
        while state.jobs.is_empty() {
            if state.closed {
                return None;
            }
            state.consumer_waiting = true;
            state = queue
                .data
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.consumer_waiting = false;
        }
        let n = state.jobs.len().min(max);
        batch.extend(state.jobs.drain(..n));
        let depth = state.jobs.len() as u64;
        let wake = state.space_waiters > 0;
        drop(state);
        // No wakeup is lost by notifying after the unlock: a producer
        // counted in `space_waiters` already sleeps on `space`, having
        // released the lock inside `wait`.
        if wake {
            queue.space.notify_all();
        }
        Some(depth)
    }

    /// Fault-path drain: marks the consumer gone and moves every queued
    /// submission into `out`, in arrival order, under one lock — a
    /// producer either published before the drain, and its jobs are
    /// collected here, or fails with [`PushError::Gone`]. Returns how
    /// many were drained. Collecting (rather than counting) is what
    /// makes recovery possible: the drained submissions are exactly the
    /// jobs a replacement worker can re-offer.
    pub(crate) fn drain_into(&self, out: &mut Vec<Submission>) -> u64 {
        let mut state = self.queue.lock();
        state.gone = true;
        self.queue.space.notify_all();
        let n = state.jobs.len();
        out.extend(state.jobs.drain(..));
        n as u64
    }
}

impl Drop for QueueConsumer {
    fn drop(&mut self) {
        // Nothing takes from a queue whose consumer is gone, so whatever
        // is left goes now; what matters is the poison.
        self.drain_into(&mut Vec::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_kernel::{JobId, Time};

    fn sub(id: u32) -> Submission {
        (
            Job::new(JobId(id), Time::ZERO, 1.0, Time::new(1e9)),
            TimelineStamps::empty(),
        )
    }

    fn ids(batch: &[Submission]) -> Vec<u32> {
        batch.iter().map(|(j, _)| j.id.0).collect()
    }

    /// A queue with its consumer, the way the engine builds one.
    fn queue(capacity: usize) -> (Arc<IngestQueue>, QueueConsumer) {
        let queue = Arc::new(IngestQueue::new(capacity));
        (Arc::clone(&queue), QueueConsumer::new(queue))
    }

    /// A push that never waits — what `try_submit` does.
    fn push_now(queue: &IngestQueue, sub: Submission) -> Result<u64, PushError> {
        let pushed = queue.push(&[sub], Some(Instant::now()));
        pushed.err.map_or(Ok(pushed.depth), Err)
    }

    /// Spins until a producer waits for room.
    fn await_space_waiter(queue: &IngestQueue) {
        while queue.lock().space_waiters == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn capacity_is_exact_and_bounds_jobs() {
        let (queue, _consumer) = queue(3);
        for id in 0..3 {
            assert_eq!(push_now(&queue, sub(id)), Ok(id as u64 + 1));
        }
        assert_eq!(push_now(&queue, sub(3)), Err(PushError::Full));
        assert_eq!(queue.lock().jobs.len(), 3);
    }

    #[test]
    fn fifo_order_survives_wraparound() {
        let (queue, consumer) = queue(4);
        let mut out = Vec::new();
        let mut next = 0u32;
        for round in 0..10 {
            let k = 1 + (round % 4) as u32;
            for _ in 0..k {
                push_now(&queue, sub(next)).unwrap();
                next += 1;
            }
            assert_eq!(consumer.fill_batch(&mut out, usize::MAX), Some(0));
        }
        assert_eq!(ids(&out), (0..next).collect::<Vec<u32>>());
    }

    #[test]
    fn fill_batch_takes_at_most_max_and_reports_the_rest() {
        let (queue, consumer) = queue(8);
        let subs: Vec<Submission> = (0..5).map(sub).collect();
        assert_eq!(queue.push(&subs, None).depth, 5);
        let mut out = Vec::new();
        assert_eq!(consumer.fill_batch(&mut out, 2), Some(3));
        assert_eq!(consumer.fill_batch(&mut out, 2), Some(1));
        assert_eq!(ids(&out), vec![0, 1, 2, 3]);
    }

    #[test]
    fn batch_larger_than_capacity_publishes_in_chunks() {
        let (queue, consumer) = queue(4);
        let subs: Vec<Submission> = (0..10).map(sub).collect();
        let producer = std::thread::spawn(move || queue.push(&subs, None));
        let mut out = Vec::new();
        while out.len() < 10 {
            consumer.fill_batch(&mut out, usize::MAX);
        }
        let pushed = producer.join().unwrap();
        assert_eq!((pushed.count, pushed.err), (10, None));
        assert!(pushed.stalled, "an oversized batch must report the stall");
        assert_eq!(ids(&out), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn close_mid_wait_reports_partial_publish_exactly() {
        let (queue, consumer) = queue(2);
        let subs: Vec<Submission> = (0..8).map(sub).collect();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(&subs, None))
        };
        // Let the producer fill the queue and block, then close without
        // ever consuming.
        await_space_waiter(&queue);
        queue.close();
        let pushed = producer.join().unwrap();
        assert_eq!(pushed.err, Some(PushError::Closed));
        assert_eq!(pushed.count, 2, "exactly the published prefix is reported");
        let mut out = Vec::new();
        assert_eq!(consumer.fill_batch(&mut out, usize::MAX), Some(0));
        assert_eq!(ids(&out), vec![0, 1]);
        assert_eq!(consumer.fill_batch(&mut out, usize::MAX), None);
    }

    #[test]
    fn consumer_exit_unblocks_producers_with_gone() {
        let (queue, consumer) = queue(1);
        push_now(&queue, sub(0)).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(&[sub(1)], None))
        };
        await_space_waiter(&queue);
        drop(consumer);
        let pushed = producer.join().unwrap();
        assert_eq!((pushed.count, pushed.err), (0, Some(PushError::Gone)));
        assert_eq!(push_now(&queue, sub(2)), Err(PushError::Gone));
    }

    #[test]
    fn drain_poisons_then_collects_everything_queued() {
        let (queue, consumer) = queue(4);
        let subs: Vec<Submission> = (0..3).map(sub).collect();
        queue.push(&subs, None);
        let mut out = vec![sub(99)];
        assert_eq!(consumer.drain_into(&mut out), 3);
        assert_eq!(ids(&out), vec![99, 0, 1, 2]);
        assert_eq!(push_now(&queue, sub(3)), Err(PushError::Gone));
    }

    #[test]
    fn concurrent_producers_never_lose_or_duplicate() {
        const PRODUCERS: u32 = 4;
        const PER: u32 = 2_000;
        let (queue, consumer) = queue(64);
        let mut out = Vec::new();
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let queue = &queue;
                scope.spawn(move || {
                    let subs: Vec<Submission> = (0..PER).map(|i| sub(p * PER + i)).collect();
                    for chunk in subs.chunks(7) {
                        assert_eq!(queue.push(chunk, None).err, None);
                    }
                });
            }
            while out.len() < (PRODUCERS * PER) as usize {
                consumer.fill_batch(&mut out, usize::MAX);
            }
        });
        // Every id exactly once, and each producer's stream in order.
        let mut seen = vec![false; (PRODUCERS * PER) as usize];
        let mut last = vec![None::<u32>; PRODUCERS as usize];
        for (job, _) in &out {
            let id = job.id.0;
            assert!(!seen[id as usize], "duplicate id {id}");
            seen[id as usize] = true;
            let p = (id / PER) as usize;
            if let Some(prev) = last[p] {
                assert!(prev < id, "producer {p} reordered: {prev} then {id}");
            }
            last[p] = Some(id);
        }
        assert!(seen.iter().all(|&s| s));
    }
}
