//! Output checking: a digest of every job's `(id, accepted, machine,
//! start)`, comparable across the simulator, the engine's merged
//! schedule and the wire's `Decision` frames.

use cslack_kernel::Schedule;
use cslack_obs::DecisionEvent;
use cslack_sim::SimReport;

/// One job's answer as the benchmark saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Answer {
    /// No decision arrived for the job.
    Missing,
    /// Rejected.
    Reject,
    /// Accepted on `machine` starting at `start`.
    Accept {
        /// Global machine id.
        machine: u32,
        /// Committed start time.
        start: f64,
    },
}

/// Per-job answers indexed by job id (`0..n`).
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    answers: Vec<Answer>,
    duplicates: u64,
}

impl Outcome {
    /// `n` jobs, none answered yet.
    pub fn new(n: usize) -> Outcome {
        Outcome {
            answers: vec![Answer::Missing; n],
            duplicates: 0,
        }
    }

    /// The simulator's answers: its decision list plus the committed
    /// placements of its schedule.
    pub fn from_sim(report: &SimReport, n: usize) -> Outcome {
        let mut out = Outcome::from_schedule(&report.schedule, n, 0);
        for d in &report.decisions {
            if !d.accepted {
                out.set(d.job.0, Answer::Reject);
            }
        }
        out
    }

    /// A merged schedule's answers: every committed job is accepted,
    /// and the `decided` jobs not in it (ids `0..decided`) rejected.
    pub fn from_schedule(schedule: &Schedule, n: usize, decided: usize) -> Outcome {
        let mut out = Outcome::new(n);
        for a in out.answers.iter_mut().take(decided) {
            *a = Answer::Reject;
        }
        for c in schedule.iter() {
            let i = c.job.id.0 as usize;
            if i < n {
                out.answers[i] = Answer::Accept {
                    machine: c.machine.0,
                    start: c.start.raw(),
                };
            }
        }
        out
    }

    /// Records one answer; a second answer for the same job counts as
    /// a duplicate and keeps the first.
    pub fn set(&mut self, job: u32, answer: Answer) {
        match self.answers.get_mut(job as usize) {
            Some(slot @ Answer::Missing) => *slot = answer,
            Some(_) => self.duplicates += 1,
            None => self.duplicates += 1,
        }
    }

    /// Records a streamed decision.
    pub fn record(&mut self, d: &DecisionEvent) {
        let answer = match (d.accepted, d.machine, d.start) {
            (true, Some(machine), Some(start)) => Answer::Accept { machine, start },
            (true, _, _) => Answer::Missing,
            (false, _, _) => Answer::Reject,
        };
        self.set(d.job, answer);
    }

    /// Jobs without an answer.
    pub fn missing(&self) -> u64 {
        self.answers
            .iter()
            .filter(|a| matches!(a, Answer::Missing))
            .count() as u64
    }

    /// Answers that arrived for an already answered (or unknown) job.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// FNV-1a over `(id, tag, machine, start bits)` for every job in id
    /// order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (id, a) in self.answers.iter().enumerate() {
            h.u64(id as u64);
            match *a {
                Answer::Missing => h.u64(0),
                Answer::Reject => h.u64(1),
                Answer::Accept { machine, start } => {
                    h.u64(2);
                    h.u64(u64::from(machine));
                    h.u64(start.to_bits());
                }
            }
        }
        h.finish()
    }
}

/// 64-bit FNV-1a: stable across runs and builds, unlike `std`'s
/// randomly keyed hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_field() {
        let mut a = Outcome::new(3);
        a.set(0, Answer::Reject);
        a.set(
            1,
            Answer::Accept {
                machine: 2,
                start: 1.5,
            },
        );
        a.set(2, Answer::Reject);
        let base = a.digest();
        let mut b = a.clone();
        b.answers[1] = Answer::Accept {
            machine: 3,
            start: 1.5,
        };
        assert_ne!(base, b.digest());
        b.answers[1] = Answer::Accept {
            machine: 2,
            start: 1.5000001,
        };
        assert_ne!(base, b.digest());
        b.answers[1] = Answer::Missing;
        assert_ne!(base, b.digest());
        assert_eq!(b.missing(), 1);
    }

    #[test]
    fn duplicates_keep_the_first_answer() {
        let mut a = Outcome::new(1);
        a.set(0, Answer::Reject);
        a.set(
            0,
            Answer::Accept {
                machine: 0,
                start: 0.0,
            },
        );
        a.set(5, Answer::Reject);
        assert_eq!(a.duplicates(), 2);
        assert_eq!(a.answers[0], Answer::Reject);
    }
}
