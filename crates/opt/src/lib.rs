//! # cslack-opt
//!
//! Offline optimal solvers and upper bounds for
//! `Pm | r_j, d_j | max sum p_j (1 - U_j)` — the denominator of every
//! measured competitive ratio in the experiments.
//!
//! Offline non-preemptive load maximization is NP-hard, so the crate
//! provides a ladder of estimates:
//!
//! * [`exact`] — an exact depth-first branch-and-bound over left-shifted
//!   schedules, run up to [`EXACT_DEFAULT_LIMIT`] jobs by default.
//! * [`flow`] — the preemptive-with-migration relaxation as a max-flow
//!   problem (Horn's theorem), solved with Dinic: its value is a valid
//!   upper bound on the non-preemptive optimum and scales to thousands
//!   of jobs.
//! * [`bounds`] — cheap capacity bounds (total volume, machine-time
//!   capacity) and an internal greedy lower bound.
//! * [`OptEstimate`] / [`estimate`] — the combined report.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod exact;
pub mod flow;

use cslack_kernel::Instance;

/// Combined offline estimate for one instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OptEstimate {
    /// A certified lower bound on OPT (load of a concrete feasible
    /// schedule found offline).
    pub lower: f64,
    /// A certified upper bound on OPT (minimum over the relaxations).
    pub upper: f64,
    /// The exact optimum, when the instance was small enough to solve.
    pub exact: Option<f64>,
}

impl OptEstimate {
    /// The best available value to use as the ratio denominator: the
    /// exact optimum if known, otherwise the upper bound (which makes
    /// measured ratios conservative, i.e. never understated... never
    /// overstated for the *algorithm*: `OPT/ALG <= upper/ALG`).
    pub fn denominator(&self) -> f64 {
        self.exact.unwrap_or(self.upper)
    }

    /// Pessimistic ratio of an online load against this estimate
    /// (uses the upper bound, so the true competitive ratio is at most
    /// this).
    pub fn ratio_upper(&self, online_load: f64) -> f64 {
        if online_load <= 0.0 {
            f64::INFINITY
        } else {
            self.upper / online_load
        }
    }

    /// Optimistic ratio (uses the certified lower bound; the true
    /// competitive ratio is at least this).
    pub fn ratio_lower(&self, online_load: f64) -> f64 {
        if online_load <= 0.0 {
            f64::INFINITY
        } else {
            self.lower / online_load
        }
    }
}

/// Default job-count threshold below which [`estimate`] runs the exact
/// solver.
pub const EXACT_DEFAULT_LIMIT: usize = 16;

/// Produces the combined offline estimate, running the exact solver when
/// `instance.len() <= exact_limit`.
///
/// ```
/// use cslack_kernel::{InstanceBuilder, Time};
///
/// // Three conflicting tight unit jobs on two machines: OPT = 2.
/// let inst = InstanceBuilder::new(2, 0.5)
///     .tight_job(Time::ZERO, 1.0)
///     .tight_job(Time::ZERO, 1.0)
///     .tight_job(Time::ZERO, 1.0)
///     .build()
///     .unwrap();
/// let est = cslack_opt::estimate(&inst, 16);
/// assert_eq!(est.exact, Some(2.0));
/// ```
pub fn estimate(instance: &Instance, exact_limit: usize) -> OptEstimate {
    let greedy = bounds::greedy_lower_bound(instance);
    let cap = bounds::capacity_upper_bound(instance);
    let flow_ub = flow::preemptive_load_bound(instance);
    let upper = cap.min(flow_ub).min(instance.total_load());
    if instance.len() <= exact_limit {
        let exact = exact::max_load(instance);
        debug_assert!(
            exact.load <= upper + 1e-6 * upper.max(1.0),
            "exact optimum {} exceeds relaxation bound {}",
            exact.load,
            upper
        );
        OptEstimate {
            lower: exact.load,
            upper: exact.load,
            exact: Some(exact.load),
        }
    } else {
        OptEstimate {
            lower: greedy,
            upper,
            exact: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_kernel::{InstanceBuilder, Time};

    #[test]
    fn estimate_orders_lower_exact_upper() {
        let inst = InstanceBuilder::new(2, 0.5)
            .tight_job(Time::ZERO, 1.0)
            .tight_job(Time::ZERO, 1.0)
            .tight_job(Time::ZERO, 1.0)
            .job(Time::ZERO, 2.0, Time::new(10.0))
            .build()
            .unwrap();
        let est = estimate(&inst, 16);
        let exact = est.exact.unwrap();
        assert!(est.lower <= exact + 1e-9);
        assert!(exact <= est.upper + 1e-9);
        assert!(est.denominator() == exact);
    }

    #[test]
    fn large_instances_skip_exact() {
        let mut b = InstanceBuilder::new(2, 0.5);
        for i in 0..30 {
            b.push_tight(Time::new(i as f64), 1.0);
        }
        let inst = b.build().unwrap();
        let est = estimate(&inst, 16);
        assert!(est.exact.is_none());
        assert!(est.lower <= est.upper + 1e-9);
        assert!(est.lower > 0.0);
    }

    #[test]
    fn ratio_helpers() {
        let est = OptEstimate {
            lower: 8.0,
            upper: 10.0,
            exact: None,
        };
        assert_eq!(est.ratio_upper(5.0), 2.0);
        assert_eq!(est.ratio_lower(4.0), 2.0);
        assert_eq!(est.ratio_upper(0.0), f64::INFINITY);
        assert_eq!(est.denominator(), 10.0);
    }
}
