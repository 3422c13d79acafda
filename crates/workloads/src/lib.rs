//! # cslack-workloads
//!
//! Seeded synthetic workload generation for the `cslack` experiments.
//!
//! The paper is motivated by Infrastructure-as-a-Service admission
//! control: streams of jobs with heterogeneous sizes, arrival bursts and
//! per-job urgency (slack). This crate provides reproducible generators
//! for those streams:
//!
//! * [`ArrivalLaw`] — Poisson, bursty, or simultaneous arrivals;
//! * [`SizeLaw`] — uniform, bounded-Pareto (heavy tail), bimodal, or
//!   constant processing times;
//! * [`SlackLaw`] — tight (`d = r + (1+eps) p`), uniform-in-range, or
//!   generous deadlines (every job still satisfies the system slack);
//! * [`WorkloadSpec`] — a serializable bundle of the above plus `m`,
//!   `eps`, job count and seed, turned into an
//!   `Instance` by [`WorkloadSpec::generate`];
//! * [`scenarios`] — named presets used across the experiment binaries
//!   (IaaS service-level mix, small-job floods, smoke tests);
//! * [`trace`] — JSON persistence for instances.
//!
//! Determinism: the same spec (including seed) always generates the same
//! instance, via `rand_chacha::ChaCha12Rng`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod scenarios;
pub mod swf;
pub mod trace;

use cslack_kernel::{Instance, InstanceBuilder, KernelError, Time};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// How job release dates are spaced.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ArrivalLaw {
    /// All jobs released at time zero.
    Simultaneous,
    /// Exponential inter-arrival times with the given rate (jobs per
    /// unit time).
    Poisson {
        /// Mean number of arrivals per unit time.
        rate: f64,
    },
    /// Batches of `burst` simultaneous jobs, with exponential gaps of
    /// the given rate between batches.
    Bursty {
        /// Jobs per burst.
        burst: usize,
        /// Mean number of bursts per unit time.
        rate: f64,
    },
}

/// How processing times are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SizeLaw {
    /// Every job has the same size.
    Constant(f64),
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Smallest size.
        lo: f64,
        /// Largest size.
        hi: f64,
    },
    /// Bounded Pareto with shape `alpha` on `[lo, hi]` (heavy tail).
    BoundedPareto {
        /// Tail exponent (smaller = heavier tail).
        alpha: f64,
        /// Smallest size.
        lo: f64,
        /// Largest size.
        hi: f64,
    },
    /// With probability `p_small` a small job, otherwise a large one.
    Bimodal {
        /// Probability of drawing `small`.
        p_small: f64,
        /// Small size.
        small: f64,
        /// Large size.
        large: f64,
    },
}

/// How deadlines are assigned (all laws respect the system slack `eps`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SlackLaw {
    /// Tight slack: `d = r + (1 + eps) p` exactly.
    Tight,
    /// Per-job slack uniform in `[eps, max]` (requires `max >= eps`).
    UniformIn {
        /// Upper end of the per-job slack range.
        max: f64,
    },
    /// Fixed generous slack `factor >= eps`: `d = r + (1 + factor) p`.
    Generous {
        /// The per-job slack factor.
        factor: f64,
    },
}

/// A complete, serializable workload description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Machine count of the generated instance.
    pub m: usize,
    /// System slack `eps`.
    pub eps: f64,
    /// Number of jobs.
    pub n: usize,
    /// Arrival process.
    pub arrivals: ArrivalLaw,
    /// Size distribution.
    pub sizes: SizeLaw,
    /// Deadline law.
    pub slack: SlackLaw,
    /// RNG seed (same seed => same instance).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A small sane default: Poisson arrivals of uniform jobs with tight
    /// deadlines.
    pub fn default_spec(m: usize, eps: f64, n: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            m,
            eps,
            n,
            arrivals: ArrivalLaw::Poisson { rate: m as f64 },
            sizes: SizeLaw::Uniform { lo: 0.5, hi: 2.0 },
            slack: SlackLaw::Tight,
            seed,
        }
    }

    /// Generates the instance described by the spec.
    ///
    /// ```
    /// use cslack_workloads::WorkloadSpec;
    ///
    /// let spec = WorkloadSpec::default_spec(2, 0.25, 50, 7);
    /// let inst = spec.generate().unwrap();
    /// assert_eq!(inst.len(), 50);
    /// assert!(inst.jobs().iter().all(|j| j.satisfies_slack(0.25)));
    /// // Same seed, same instance.
    /// assert_eq!(inst, spec.generate().unwrap());
    /// ```
    pub fn generate(&self) -> Result<Instance, KernelError> {
        // Checked before sampling: the arrival rate and the deadlines
        // are computed from `m` and `eps`.
        Instance::check_params(self.m, self.eps)?;
        let mut rng = ChaCha12Rng::seed_from_u64(self.seed);
        let mut builder = InstanceBuilder::with_capacity(self.m, self.eps, self.n);
        let mut t = 0.0_f64;
        let mut in_burst = 0usize;
        for _ in 0..self.n {
            // Arrival.
            match self.arrivals {
                ArrivalLaw::Simultaneous => {}
                ArrivalLaw::Poisson { rate } => {
                    t += exponential(&mut rng, rate);
                }
                ArrivalLaw::Bursty { burst, rate } => {
                    if in_burst == 0 {
                        t += exponential(&mut rng, rate);
                        in_burst = burst.max(1);
                    }
                    in_burst -= 1;
                }
            }
            // Size.
            let p = match self.sizes {
                SizeLaw::Constant(p) => p,
                SizeLaw::Uniform { lo, hi } => rng.gen_range(lo..=hi),
                SizeLaw::BoundedPareto { alpha, lo, hi } => bounded_pareto(&mut rng, alpha, lo, hi),
                SizeLaw::Bimodal {
                    p_small,
                    small,
                    large,
                } => {
                    if rng.gen_bool(p_small.clamp(0.0, 1.0)) {
                        small
                    } else {
                        large
                    }
                }
            };
            // Deadline.
            let slack_factor = match self.slack {
                SlackLaw::Tight => self.eps,
                SlackLaw::UniformIn { max } => rng.gen_range(self.eps..=max.max(self.eps)),
                SlackLaw::Generous { factor } => factor.max(self.eps),
            };
            let release = Time::new(t);
            let deadline = release + (1.0 + slack_factor) * p;
            builder.push(release, p, deadline);
        }
        builder.build()
    }
}

/// Exponentially distributed sample with the given rate.
fn exponential<R: Rng>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0);
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Bounded-Pareto sample on `[lo, hi]` with shape `alpha` (inverse
/// transform of the truncated Pareto CDF).
fn bounded_pareto<R: Rng>(rng: &mut R, alpha: f64, lo: f64, hi: f64) -> f64 {
    assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
    let u: f64 = rng.gen_range(0.0..1.0);
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_instance() {
        let spec = WorkloadSpec::default_spec(2, 0.5, 64, 42);
        assert_eq!(spec.generate().unwrap(), spec.generate().unwrap());
    }

    #[test]
    fn different_seed_different_instance() {
        let a = WorkloadSpec::default_spec(2, 0.5, 64, 1)
            .generate()
            .unwrap();
        let b = WorkloadSpec::default_spec(2, 0.5, 64, 2)
            .generate()
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn every_generated_job_satisfies_the_slack_condition() {
        for slack in [
            SlackLaw::Tight,
            SlackLaw::UniformIn { max: 2.0 },
            SlackLaw::Generous { factor: 1.5 },
        ] {
            let spec = WorkloadSpec {
                slack,
                ..WorkloadSpec::default_spec(3, 0.25, 200, 7)
            };
            let inst = spec.generate().unwrap();
            assert_eq!(inst.len(), 200);
            for j in inst.jobs() {
                assert!(j.satisfies_slack(0.25), "{:?}", j);
            }
        }
    }

    #[test]
    fn tight_law_is_actually_tight() {
        let spec = WorkloadSpec::default_spec(1, 0.5, 50, 3);
        let inst = spec.generate().unwrap();
        for j in inst.jobs() {
            assert!(j.has_tight_slack(0.5));
        }
    }

    #[test]
    fn simultaneous_arrivals_all_at_zero() {
        let spec = WorkloadSpec {
            arrivals: ArrivalLaw::Simultaneous,
            ..WorkloadSpec::default_spec(2, 0.5, 20, 9)
        };
        let inst = spec.generate().unwrap();
        assert!(inst.jobs().iter().all(|j| j.release == Time::ZERO));
    }

    #[test]
    fn poisson_arrivals_are_nondecreasing_and_spread() {
        let spec = WorkloadSpec {
            arrivals: ArrivalLaw::Poisson { rate: 1.0 },
            ..WorkloadSpec::default_spec(2, 0.5, 200, 11)
        };
        let inst = spec.generate().unwrap();
        let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release.raw()).collect();
        assert!(releases.windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival should be near 1 (rate 1), very loosely.
        let span = releases.last().unwrap() - releases[0];
        assert!(span > 100.0 && span < 400.0, "span={span}");
    }

    #[test]
    fn bursts_share_release_dates() {
        let spec = WorkloadSpec {
            arrivals: ArrivalLaw::Bursty {
                burst: 5,
                rate: 1.0,
            },
            ..WorkloadSpec::default_spec(2, 0.5, 25, 13)
        };
        let inst = spec.generate().unwrap();
        let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release.raw()).collect();
        let distinct: std::collections::BTreeSet<u64> =
            releases.iter().map(|r| r.to_bits()).collect();
        assert_eq!(distinct.len(), 5, "25 jobs in bursts of 5");
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_skew() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut below_mid = 0;
        const N: usize = 4000;
        for _ in 0..N {
            let x = bounded_pareto(&mut rng, 1.1, 1.0, 100.0);
            assert!((1.0..=100.0).contains(&x), "x={x}");
            if x < 50.5 {
                below_mid += 1;
            }
        }
        // Heavy skew toward small values.
        assert!(below_mid > (N * 9) / 10, "below_mid={below_mid}");
    }

    #[test]
    fn uniform_sizes_respect_bounds() {
        let spec = WorkloadSpec {
            sizes: SizeLaw::Uniform { lo: 0.5, hi: 2.0 },
            ..WorkloadSpec::default_spec(1, 0.5, 300, 17)
        };
        let inst = spec.generate().unwrap();
        for j in inst.jobs() {
            assert!((0.5..=2.0).contains(&j.proc_time));
        }
    }

    #[test]
    fn bimodal_produces_both_modes() {
        let spec = WorkloadSpec {
            sizes: SizeLaw::Bimodal {
                p_small: 0.7,
                small: 1.0,
                large: 10.0,
            },
            ..WorkloadSpec::default_spec(1, 0.5, 200, 19)
        };
        let inst = spec.generate().unwrap();
        let small = inst.jobs().iter().filter(|j| j.proc_time == 1.0).count();
        let large = inst.jobs().iter().filter(|j| j.proc_time == 10.0).count();
        assert_eq!(small + large, 200);
        assert!(small > large);
        assert!(large > 0);
    }

    #[test]
    fn spec_serde_round_trip() {
        let spec = WorkloadSpec::default_spec(4, 0.125, 10, 23);
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.generate().unwrap(), spec.generate().unwrap());
    }
}
