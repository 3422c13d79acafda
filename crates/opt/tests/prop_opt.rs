//! Property tests for the offline solvers: the exact branch-and-bound
//! against an independent brute force, and the bound ladder on random
//! instances.

use cslack_kernel::{validate, Instance, InstanceBuilder, Time};
use cslack_opt::{bounds, estimate, exact, flow};
use proptest::prelude::*;

/// Random small instance strategy.
fn arb_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    (
        1usize..=3,
        0.05f64..=1.0,
        prop::collection::vec((0.0f64..4.0, 0.1f64..2.5, 0.0f64..1.5), 1..max_n),
    )
        .prop_map(|(m, eps, raw)| {
            let mut b = InstanceBuilder::new(m, eps);
            for (r, p, extra) in raw {
                let d = r + (1.0 + eps + extra) * p;
                b.push(Time::new(r), p, Time::new(d));
            }
            b.build().unwrap()
        })
}

/// Random small instance whose jobs all share one release time, on up
/// to four machines: every start time ties at first, so the search's
/// job-index tie-break decides which schedules it lists.
fn arb_equal_releases(max_n: usize) -> impl Strategy<Value = Instance> {
    (
        1usize..=4,
        0.05f64..=1.0,
        0.0f64..4.0,
        prop::collection::vec((0.1f64..2.5, 0.0f64..1.5), 1..max_n),
    )
        .prop_map(|(m, eps, r, raw)| {
            let mut b = InstanceBuilder::new(m, eps);
            for (p, extra) in raw {
                b.push(Time::new(r), p, Time::new(r + (1.0 + eps + extra) * p));
            }
            b.build().unwrap()
        })
}

/// Independent feasibility brute force: recursive dispatch search.
fn feasible(jobs: &[cslack_kernel::Job], remaining: u32, frontiers: &mut Vec<f64>) -> bool {
    if remaining == 0 {
        return true;
    }
    for j in 0..jobs.len() {
        if remaining & (1 << j) == 0 {
            continue;
        }
        for i in 0..frontiers.len() {
            let start = frontiers[i].max(jobs[j].release.raw());
            if start + jobs[j].proc_time <= jobs[j].deadline.raw() + 1e-12 {
                let saved = frontiers[i];
                frontiers[i] = start + jobs[j].proc_time;
                let ok = feasible(jobs, remaining & !(1 << j), frontiers);
                frontiers[i] = saved;
                if ok {
                    return true;
                }
            }
        }
    }
    false
}

fn brute_force(inst: &Instance) -> f64 {
    let n = inst.len();
    let mut best = 0.0_f64;
    for mask in 0u32..(1 << n) {
        let load: f64 = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| inst.jobs()[i].proc_time)
            .sum();
        if load > best {
            let mut fr = vec![0.0; inst.machines()];
            if feasible(inst.jobs(), mask, &mut fr) {
                best = load;
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact solver equals the independent brute force.
    #[test]
    fn exact_matches_brute_force(inst in arb_instance(8)) {
        let ex = exact::max_load(&inst);
        let bf = brute_force(&inst);
        prop_assert!((ex.load - bf).abs() < 1e-9 * bf.max(1.0),
            "exact {} vs brute force {bf}", ex.load);
    }

    /// ... and so it does when every release is equal, on up to four
    /// machines and eight jobs.
    #[test]
    fn exact_matches_brute_force_with_equal_releases(inst in arb_equal_releases(9)) {
        let ex = exact::max_load(&inst);
        let bf = brute_force(&inst);
        prop_assert!((ex.load - bf).abs() < 1e-9 * bf.max(1.0),
            "exact {} vs brute force {bf}", ex.load);
    }

    /// The witness schedule the exact solver returns is valid and has
    /// the claimed load.
    #[test]
    fn exact_witness_is_certified(inst in arb_instance(9)) {
        let ex = exact::max_load(&inst);
        let report = cslack_kernel::validate_schedule(&inst, &ex.schedule);
        prop_assert!(report.is_valid(), "{:?}", report.violations);
        prop_assert!((ex.schedule.accepted_load() - ex.load).abs() < 1e-9);
    }

    /// Bound ladder: greedy <= exact <= flow <= total.
    #[test]
    fn bound_ladder(inst in arb_instance(9)) {
        let greedy = bounds::greedy_lower_bound(&inst);
        let ex = exact::max_load(&inst).load;
        let fl = flow::preemptive_load_bound(&inst);
        let total = inst.total_load();
        prop_assert!(greedy <= ex + 1e-9);
        prop_assert!(ex <= fl + 1e-6 * fl.max(1.0));
        prop_assert!(fl <= total + 1e-6 * total.max(1.0));
    }

    /// `estimate` is internally consistent in both regimes.
    #[test]
    fn estimate_consistency(inst in arb_instance(9)) {
        let small = estimate(&inst, 16);
        prop_assert!(small.exact.is_some());
        prop_assert!(small.lower <= small.upper + 1e-9);
        let large = estimate(&inst, 0); // force the bound path
        prop_assert!(large.exact.is_none());
        prop_assert!(large.lower <= large.upper + 1e-6 * large.upper.max(1.0));
        // The bound path must bracket the true optimum.
        let ex = small.exact.unwrap();
        prop_assert!(large.lower <= ex + 1e-9);
        prop_assert!(ex <= large.upper + 1e-6 * large.upper.max(1.0));
    }

    /// Local search is sandwiched: greedy <= LS <= exact, and its
    /// witness schedule validates.
    #[test]
    fn local_search_is_sandwiched(inst in arb_instance(9)) {
        let g = bounds::greedy_lower_bound(&inst);
        let s = bounds::local_search_schedule(&inst, 3);
        validate::assert_valid(&inst, &s);
        let ls = s.accepted_load();
        let ex = exact::max_load(&inst).load;
        prop_assert!(ls >= g - 1e-9, "LS {ls} < greedy {g}");
        prop_assert!(ls <= ex + 1e-9, "LS {ls} > OPT {ex}");
    }

    /// The greedy lower-bound schedule is itself valid.
    #[test]
    fn greedy_schedule_is_valid(inst in arb_instance(20)) {
        let s = bounds::greedy_schedule(&inst);
        validate::assert_valid(&inst, &s);
    }

    /// Adding a job never decreases the exact optimum (monotonicity of
    /// OPT in the job set).
    #[test]
    fn opt_is_monotone_in_jobs(inst in arb_instance(7), p in 0.1f64..2.0, r in 0.0f64..4.0) {
        let base = exact::max_load(&inst).load;
        let mut b = InstanceBuilder::new(inst.machines(), inst.slack());
        for j in inst.jobs() {
            b.push(j.release, j.proc_time, j.deadline);
        }
        b.push(Time::new(r), p, Time::new(r + (1.0 + inst.slack()) * p + 5.0));
        let bigger = exact::max_load(&b.build().unwrap()).load;
        prop_assert!(bigger >= base - 1e-9, "adding a job reduced OPT");
    }

    /// Flow bound is monotone under deadline extension.
    #[test]
    fn flow_monotone_in_deadlines(inst in arb_instance(8), stretch in 1.0f64..3.0) {
        let base = flow::preemptive_load_bound(&inst);
        let mut b = InstanceBuilder::new(inst.machines(), inst.slack());
        for j in inst.jobs() {
            let laxer = j.release + (j.deadline - j.release) * stretch;
            b.push(j.release, j.proc_time, laxer);
        }
        let laxer = flow::preemptive_load_bound(&b.build().unwrap());
        prop_assert!(laxer >= base - 1e-6 * base.max(1.0),
            "extending deadlines reduced the flow bound: {base} -> {laxer}");
    }
}
