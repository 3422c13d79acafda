//! Algorithm 1 of the paper: the **Threshold** admission policy.
//!
//! On the submission of job `J_j` at time `r_j`:
//!
//! 1. rank the machines by decreasing outstanding load,
//!    `l(m_1) >= ... >= l(m_m)`;
//! 2. compute the machine-dependent deadline thresholds
//!    `d_{lim,h} = r_j + l(m_h) * f_h` for `h in {k, ..., m}` (Eq. 9) and
//!    the system threshold `d_lim = max_h d_{lim,h}` (Eq. 10);
//! 3. reject iff `d_j < d_lim`;
//! 4. otherwise allocate `J_j` to the **most loaded candidate machine**
//!    (best fit: the most loaded machine that can still complete the job
//!    by its deadline), starting immediately after that machine's
//!    outstanding load.
//!
//! The `k` most loaded machines do not contribute to the threshold —
//! intuitively they are the "workhorses" whose load is allowed to grow
//! freely; only the `m - k + 1` least loaded machines gate admission.
//! The phase index `k` and the factors `f_k < ... < f_m` come from
//! [`cslack_ratio`].
//!
//! The same engine, parameterized by [`ThresholdPolicy`], also powers the
//! ablation variants of [`crate::ablation`].

use crate::alloc::{AllocCore, Placement};
use crate::{Decision, DecisionInfo, OnlineScheduler};
use cslack_kernel::{Instance, Job, Time};
use cslack_obs::RejectReason;
use cslack_ratio::RatioFn;
use std::sync::Arc;

// The policy vocabulary lives in the shared allocator core; re-exported
// here because Threshold is where callers historically found it.
pub use crate::alloc::{AllocPolicy, RankingMode, StartPolicy};

/// Tunable engine behind [`Threshold`] and the ablation variants.
#[derive(Clone, Debug)]
pub struct ThresholdPolicy {
    /// Phase index override (`None` = paper's `k` from the corner values).
    pub forced_k: Option<usize>,
    /// Replace all graded factors by the constant anchor `(1+eps)/eps`.
    pub constant_f: bool,
    /// Allocation rule among candidates.
    pub alloc: AllocPolicy,
    /// Start-time rule for accepted jobs.
    pub start: StartPolicy,
    /// How the machine ranking is produced (decision-identical either
    /// way; [`RankingMode::FullSort`] is the reference/bench baseline).
    pub ranking: RankingMode,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy {
            forced_k: None,
            constant_f: false,
            alloc: AllocPolicy::BestFit,
            start: StartPolicy::Earliest,
            ranking: RankingMode::Incremental,
        }
    }
}

/// The Threshold engine: Algorithm 1 with optional policy overrides.
#[derive(Clone, Debug)]
pub struct ThresholdEngine {
    name: &'static str,
    m: usize,
    eps: f64,
    /// Phase index `k` (1-based, paper notation).
    k: usize,
    /// `f[h - k] = f_h` for `h in k ..= m` — shared through the memoized
    /// [`cslack_ratio::table`], so engines with equal parameters point at
    /// one vector.
    f: Arc<Vec<f64>>,
    policy: ThresholdPolicy,
    core: AllocCore,
}

impl ThresholdEngine {
    /// Builds the engine for `m` machines and slack `eps` under `policy`.
    ///
    /// Parameter derivation (corner values, the `f_q` recursion) is
    /// served from the process-wide [`cslack_ratio::table`]: only the
    /// first engine for a given `(m, k, eps)` pays the bisection; engine
    /// shards, adversary games and sweeps constructed after it share the
    /// cached vectors.
    pub fn with_policy(
        name: &'static str,
        m: usize,
        eps: f64,
        policy: ThresholdPolicy,
    ) -> ThresholdEngine {
        assert!(m >= 1, "need at least one machine");
        assert!(eps > 0.0, "slack must be positive");
        // The theory restricts eps to (0, 1]; for larger slack the phase-m
        // parameters still define a sensible (constant-competitive)
        // policy, so clamp the slack used for parameter derivation.
        let eps_params = eps.min(1.0);
        let ratio = RatioFn::new(m);
        let k = policy.forced_k.unwrap_or_else(|| ratio.phase(eps_params));
        assert!(k >= 1 && k <= m, "phase index must lie in 1..=m");
        let f = if policy.constant_f {
            Arc::new(vec![(1.0 + eps_params) / eps_params; m - k + 1])
        } else {
            cslack_ratio::table::solve(m, k, eps_params).f
        };
        ThresholdEngine {
            name,
            m,
            eps,
            k,
            f,
            core: AllocCore::with_mode(m, policy.ranking),
            policy,
        }
    }

    /// The slack the engine was configured with.
    #[inline]
    pub fn slack(&self) -> f64 {
        self.eps
    }

    /// The phase index `k` in use.
    #[inline]
    pub fn phase_k(&self) -> usize {
        self.k
    }

    /// The factor `f_h` for paper index `h in k ..= m`.
    #[inline]
    pub fn factor(&self, h: usize) -> f64 {
        self.f[h - self.k]
    }

    /// The current system threshold `d_lim` a job released at `now` would
    /// be tested against (Eq. 9 and 10). Exposed for tests and traces.
    ///
    /// This is a `&self` introspection path, so it ranks through the
    /// sort-based reference implementation; the decision path proper
    /// uses the incremental ranking, which produces the identical view.
    pub fn current_dlim(&self, now: Time) -> Time {
        let ranked = self.core.park().ranked(now);
        let mut dlim = now;
        for h in self.k..=self.m {
            let l = ranked[h - 1].load;
            dlim = dlim.max(now + l * self.factor(h));
        }
        dlim
    }

    /// The full Algorithm-1 decision with its trace explanation: the
    /// threshold the job was tested against, the least loaded machine's
    /// outstanding load, how many candidates the allocator evaluated,
    /// and — for rejections — the typed [`RejectReason`].
    fn decide(&mut self, job: &Job) -> (Decision, DecisionInfo) {
        let now = job.release;

        // Decision phase: d_lim = max_{h in k..m} (now + l(m_h) f_h).
        // The ranking computed here stays cached in the core, so the
        // allocation phase below does not rank again.
        let (dlim, min_load) = {
            let ranked = self.core.rank(now);
            let mut dlim = now;
            for h in self.k..=self.m {
                let l = ranked[h - 1].load;
                dlim = dlim.max(now + l * self.f[h - self.k]);
            }
            (dlim, ranked[self.m - 1].load)
        };
        let mut info = DecisionInfo {
            candidates: 0,
            threshold: Some(dlim.raw()),
            min_load: Some(min_load),
            reject_reason: None,
        };
        // Accept iff d_j >= d_lim (paper line 5: reject if d_j < d_lim).
        if !job.deadline.approx_ge(dlim) {
            info.reject_reason = Some(RejectReason::ThresholdExceeded);
            return (Decision::Reject, info);
        }

        // Allocation phase, via the shared core: candidate machines can
        // complete the job on time when started right after their
        // outstanding load.
        match self
            .core
            .place(job, now, self.policy.alloc, self.policy.start)
        {
            Placement::Committed {
                machine,
                start,
                evaluated,
            } => {
                info.candidates = evaluated;
                (Decision::Accept { machine, start }, info)
            }
            Placement::Infeasible { evaluated } => {
                // Claim 1 guarantees the least loaded machine is always a
                // candidate for the paper's parameters; ablated parameter
                // sets can break that guarantee, in which case the job
                // must be rejected to preserve commitment feasibility.
                info.candidates = evaluated;
                info.reject_reason = Some(RejectReason::NoFeasibleMachine);
                (Decision::Reject, info)
            }
        }
    }
}

impl OnlineScheduler for ThresholdEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn machines(&self) -> usize {
        self.m
    }

    fn offer(&mut self, job: &Job) -> Decision {
        self.decide(job).0
    }

    fn offer_explained(&mut self, job: &Job) -> (Decision, DecisionInfo) {
        self.decide(job)
    }

    fn reset(&mut self) {
        self.core.reset();
    }
}

/// **Algorithm 1 (Threshold)** — the paper's deterministic online
/// algorithm with immediate commitment; Theorem 2 bounds its competitive
/// ratio by `c(eps, m)` for `k <= 3` and `c(eps, m) + 0.164` otherwise.
///
/// ```
/// use cslack_algorithms::{OnlineScheduler, Threshold};
/// use cslack_kernel::{Job, JobId, Time};
///
/// let mut alg = Threshold::new(1, 0.5); // one machine, slack 1/2
/// // Idle system: a slack-feasible job is accepted.
/// let j0 = Job::tight(JobId(0), Time::ZERO, 1.0, 0.5);
/// assert!(alg.offer(&j0).is_accept());
/// // Outstanding load 1 => threshold d_lim = f_1 * 1 = 3: a deadline
/// // below 3 is rejected even though the machine could fit the job.
/// let j1 = Job::new(JobId(1), Time::ZERO, 1.0, Time::new(2.9));
/// assert!(!alg.offer(&j1).is_accept());
/// ```
#[derive(Clone, Debug)]
pub struct Threshold {
    engine: ThresholdEngine,
}

impl Threshold {
    /// Builds Threshold for `m` machines and slack `eps`.
    pub fn new(m: usize, eps: f64) -> Threshold {
        Threshold {
            engine: ThresholdEngine::with_policy("threshold", m, eps, ThresholdPolicy::default()),
        }
    }

    /// Builds Threshold matching an instance's `m` and `eps`.
    pub fn for_instance(instance: &Instance) -> Threshold {
        Threshold::new(instance.machines(), instance.slack())
    }

    /// The phase index `k` in use.
    pub fn phase_k(&self) -> usize {
        self.engine.phase_k()
    }

    /// The factor `f_h` for `h in k ..= m` (paper indexing).
    pub fn factor(&self, h: usize) -> f64 {
        self.engine.factor(h)
    }

    /// The threshold a job released at `now` would face.
    pub fn current_dlim(&self, now: Time) -> Time {
        self.engine.current_dlim(now)
    }
}

impl OnlineScheduler for Threshold {
    fn name(&self) -> &'static str {
        self.engine.name()
    }
    fn machines(&self) -> usize {
        self.engine.machines()
    }
    fn offer(&mut self, job: &Job) -> Decision {
        self.engine.offer(job)
    }
    fn offer_explained(&mut self, job: &Job) -> (Decision, DecisionInfo) {
        self.engine.offer_explained(job)
    }
    fn reset(&mut self) {
        self.engine.reset();
    }
}

/// Goldwasser–Kerbikov's optimal `2 + 1/eps` single-machine algorithm
/// with immediate commitment.
///
/// On one machine the paper's Threshold degenerates exactly to it: `k = 1`,
/// a single factor `f_1 = (1 + eps)/eps`, i.e. accept `J_j` iff
/// `d_j >= r_j + l * (1 + eps)/eps` and append. This type is that
/// specialization under its historical name.
#[derive(Clone, Debug)]
pub struct GoldwasserKerbikov {
    engine: ThresholdEngine,
}

impl GoldwasserKerbikov {
    /// Builds the single-machine algorithm for slack `eps`.
    pub fn new(eps: f64) -> GoldwasserKerbikov {
        GoldwasserKerbikov {
            engine: ThresholdEngine::with_policy(
                "goldwasser-kerbikov",
                1,
                eps,
                ThresholdPolicy::default(),
            ),
        }
    }
}

impl OnlineScheduler for GoldwasserKerbikov {
    fn name(&self) -> &'static str {
        self.engine.name()
    }
    fn machines(&self) -> usize {
        1
    }
    fn offer(&mut self, job: &Job) -> Decision {
        self.engine.offer(job)
    }
    fn offer_explained(&mut self, job: &Job) -> (Decision, DecisionInfo) {
        self.engine.offer_explained(job)
    }
    fn reset(&mut self) {
        self.engine.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_kernel::{InstanceBuilder, JobId, MachineId};

    fn job(id: u32, r: f64, p: f64, d: f64) -> Job {
        Job::new(JobId(id), Time::new(r), p, Time::new(d))
    }

    #[test]
    fn empty_system_accepts_anything() {
        let mut t = Threshold::new(3, 0.5);
        let d = t.offer(&job(0, 0.0, 1.0, 1.5));
        match d {
            Decision::Accept { start, .. } => assert_eq!(start, Time::ZERO),
            Decision::Reject => panic!("idle system must accept"),
        }
    }

    #[test]
    fn single_machine_threshold_is_gk_rule() {
        // eps = 0.5 => f_1 = 3. After accepting a length-1 job at t=0,
        // a job released at 0 is accepted iff its deadline >= 3.
        let mut t = Threshold::new(1, 0.5);
        assert_eq!(t.phase_k(), 1);
        assert!((t.factor(1) - 3.0).abs() < 1e-9);
        t.offer(&job(0, 0.0, 1.0, 100.0));
        assert!(t.current_dlim(Time::ZERO).approx_eq(Time::new(3.0)));
        // d = 2.9 < 3 => reject, even though it would fit (1 + 1.5 <= 2.9).
        assert_eq!(t.offer(&job(1, 0.0, 1.5, 2.9)), Decision::Reject);
        // d = 3.0 >= 3 => accept, appended after the load.
        match t.offer(&job(2, 0.0, 2.0, 3.0)) {
            Decision::Accept { start, .. } => assert_eq!(start, Time::new(1.0)),
            Decision::Reject => panic!("threshold met, must accept"),
        }
    }

    #[test]
    fn gk_wrapper_matches_threshold_m1() {
        let jobs = [
            job(0, 0.0, 1.0, 100.0),
            job(1, 0.0, 1.5, 2.9),
            job(2, 0.0, 2.0, 3.0),
            job(3, 0.5, 0.4, 9.5),
        ];
        let mut a = Threshold::new(1, 0.5);
        let mut b = GoldwasserKerbikov::new(0.5);
        for j in &jobs {
            assert_eq!(a.offer(j), b.offer(j));
        }
    }

    #[test]
    fn threshold_ignores_k_most_loaded_machines() {
        // m = 2, eps = 0.5 (phase 2 since eps > 2/7): only the least
        // loaded machine gates admission; f_2 = 3.
        let mut t = Threshold::new(2, 0.5);
        assert_eq!(t.phase_k(), 2);
        t.offer(&job(0, 0.0, 10.0, 100.0)); // load M? <- 10
                                            // Second machine idle => dlim = 0: everything is accepted.
        assert_eq!(t.current_dlim(Time::ZERO), Time::ZERO);
        assert!(t.offer(&job(1, 0.0, 1.0, 1.5)).is_accept());
        // Now both loaded: dlim = 1 * 3 = 3 from the less loaded machine.
        assert!(t.current_dlim(Time::ZERO).approx_eq(Time::new(3.0)));
        assert_eq!(t.offer(&job(2, 0.0, 1.0, 2.0)), Decision::Reject);
    }

    #[test]
    fn best_fit_picks_most_loaded_feasible_machine() {
        let mut t = Threshold::new(2, 1.0);
        t.offer(&job(0, 0.0, 4.0, 100.0)); // M0 load 4
        t.offer(&job(1, 0.0, 1.0, 100.0)); // best fit would pick the
                                           // loaded machine if feasible
                                           // Job 1: deadline 100, start after load 4 => completes at 5: fits
                                           // on the most loaded machine.
        let c = t.engine.core.park().frontier(MachineId(0));
        assert_eq!(c, Time::new(5.0), "both jobs should stack on M0");
    }

    #[test]
    fn best_fit_falls_through_to_less_loaded_machine() {
        let mut t = Threshold::new(2, 1.0);
        t.offer(&job(0, 0.0, 4.0, 100.0)); // M0 load 4
                                           // Deadline 3 can't wait for load 4 — must go to idle M1. The
                                           // threshold is 0 (idle machine present), so it is accepted.
        match t.offer(&job(1, 0.0, 1.0, 3.0)) {
            Decision::Accept { machine, start } => {
                assert_eq!(machine, MachineId(1));
                assert_eq!(start, Time::ZERO);
            }
            Decision::Reject => panic!("must accept on the idle machine"),
        }
    }

    #[test]
    fn accepted_jobs_always_meet_their_deadline() {
        // Claim 1 smoke test on a deterministic stream.
        let eps = 0.25;
        let inst = {
            let mut b = InstanceBuilder::new(3, eps);
            let mut r = 0.0;
            for i in 0..50 {
                let p = 0.5 + ((i * 37) % 10) as f64 * 0.3;
                b.push_tight(Time::new(r), p);
                r += ((i * 13) % 7) as f64 * 0.1;
            }
            b.build().unwrap()
        };
        let mut t = Threshold::for_instance(&inst);
        for j in inst.jobs() {
            if let Decision::Accept { start, .. } = t.offer(j) {
                assert!(start.approx_ge(j.release));
                assert!((start + j.proc_time).approx_le(j.deadline));
            }
        }
    }

    #[test]
    fn tight_jobs_accepted_while_fewer_than_k_machines_busy() {
        // dlim = 0 exactly while fewer than k machines carry load (the
        // ranked machine m_k is idle) — so the first k tight unit jobs
        // are always admitted and the (k+1)-st is gated by f_k >= 2.
        // eps = 0.1 on m = 4 sits in phase k = 2.
        let mut t = Threshold::new(4, 0.1);
        assert_eq!(t.phase_k(), 2);
        for i in 0..2 {
            let j = Job::tight(JobId(i), Time::ZERO, 1.0, 0.1);
            assert!(t.offer(&j).is_accept(), "job {i}: m_k still idle");
        }
        // Third tight job: l(m_2) = 1 => dlim >= f_2 >= 2 > d = 1.1.
        let j = Job::tight(JobId(2), Time::ZERO, 1.0, 0.1);
        assert_eq!(t.offer(&j), Decision::Reject);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut t = Threshold::new(2, 0.5);
        t.offer(&job(0, 0.0, 5.0, 100.0));
        t.offer(&job(1, 0.0, 5.0, 100.0));
        t.reset();
        assert_eq!(t.current_dlim(Time::ZERO), Time::ZERO);
        assert!(t.offer(&job(2, 0.0, 1.0, 1.5)).is_accept());
    }

    #[test]
    fn slack_above_one_is_clamped_for_parameters() {
        // eps = 3 > 1: parameters derive from eps = 1, algorithm still
        // works and accepts a feasible job.
        let mut t = Threshold::new(2, 3.0);
        assert_eq!(t.phase_k(), 2);
        assert!((t.factor(2) - 2.0).abs() < 1e-9); // (1+1)/1
        assert!(t.offer(&job(0, 0.0, 1.0, 4.0)).is_accept());
    }

    #[test]
    fn ranking_modes_are_decision_identical() {
        // The incremental ladder and the full sort must produce the same
        // decision stream — spot check here, property-tested at scale in
        // tests/prop_algorithms.rs.
        let mk = |ranking| {
            ThresholdEngine::with_policy(
                "mode-test",
                4,
                0.3,
                ThresholdPolicy {
                    ranking,
                    ..ThresholdPolicy::default()
                },
            )
        };
        let mut inc = mk(RankingMode::Incremental);
        let mut srt = mk(RankingMode::FullSort);
        let jobs = [
            job(0, 0.0, 2.0, 9.0),
            job(1, 0.0, 2.0, 2.7),
            job(2, 0.4, 1.0, 3.0),
            job(3, 0.4, 3.0, 30.0),
            job(4, 2.5, 0.5, 3.4),
            job(5, 2.5, 2.0, 5.0),
        ];
        for j in &jobs {
            assert_eq!(
                inc.offer_explained(j),
                srt.offer_explained(j),
                "modes diverged on {:?}",
                j.id
            );
        }
    }

    #[test]
    fn deterministic_tie_break_prefers_lower_machine_id() {
        let mut t = Threshold::new(3, 1.0);
        match t.offer(&job(0, 0.0, 1.0, 2.0)) {
            Decision::Accept { machine, .. } => assert_eq!(machine, MachineId(0)),
            _ => panic!(),
        }
    }
}
