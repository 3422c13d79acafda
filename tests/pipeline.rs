//! End-to-end pipeline integration: workload generation -> simulation ->
//! independent validation -> offline bounds -> theory cross-checks.

use cslack::prelude::*;
use cslack::ratio::RatioFn;
use cslack::sim::sweep::AlgoKind;
use cslack::workloads::{scenarios, WorkloadSpec};

/// Every algorithm family produces a valid schedule on every scenario.
#[test]
fn all_algorithms_validate_on_all_scenarios() {
    let m = 3;
    let eps = 0.25;
    let instances = vec![
        scenarios::smoke(m, eps),
        scenarios::iaas_mix(m, eps, 60, 5),
        scenarios::small_job_flood(m, eps, 5),
        scenarios::bursty_heavy_tail(m, eps, 60, 5),
    ];
    for inst in &instances {
        for &algo in AlgoKind::ablations().iter().chain(AlgoKind::baselines()) {
            let mut alg = algo.build(m, eps, 9);
            if alg.machines() != inst.machines() {
                continue; // the randomized single-machine wrapper
            }
            let report = cslack::sim::simulate(inst, alg.as_mut())
                .unwrap_or_else(|e| panic!("{algo:?} failed: {e}"));
            cslack::kernel::validate::assert_valid(inst, &report.schedule);
            assert!(report.accepted_load() <= inst.total_load() + 1e-9);
        }
    }
}

/// On small instances with exact OPT, the measured Threshold ratio never
/// exceeds the Theorem 2 guarantee.
#[test]
fn threshold_respects_theorem2_on_exact_instances() {
    for m in 1..=3 {
        let rfn = RatioFn::new(m);
        for &eps in &[0.1, 0.35, 0.8] {
            let bound = rfn.threshold_upper_bound(eps);
            for seed in 0..6 {
                let inst = WorkloadSpec::default_spec(m, eps, 10, seed)
                    .generate()
                    .unwrap();
                let mut alg = Threshold::for_instance(&inst);
                let report = simulate(&inst, &mut alg).unwrap();
                let opt = cslack::opt::estimate(&inst, 12);
                let exact = opt.exact.expect("10 jobs is solvable");
                let ratio = report.ratio_against(exact);
                assert!(
                    ratio <= bound + 1e-6,
                    "m={m} eps={eps} seed={seed}: ratio {ratio} > bound {bound}"
                );
            }
        }
    }
}

/// The online load never exceeds the exact offline optimum, and the
/// optimum never exceeds the flow relaxation.
#[test]
fn bound_ladder_is_ordered() {
    for seed in 0..8 {
        let inst = WorkloadSpec::default_spec(2, 0.3, 11, seed)
            .generate()
            .unwrap();
        let exact = cslack::opt::exact::max_load(&inst).load;
        let flow = cslack::opt::flow::preemptive_load_bound(&inst);
        let greedy_lb = cslack::opt::bounds::greedy_lower_bound(&inst);
        let mut alg = Threshold::for_instance(&inst);
        let online = simulate(&inst, &mut alg).unwrap().accepted_load();
        assert!(online <= exact + 1e-9, "seed {seed}: online > exact");
        assert!(greedy_lb <= exact + 1e-9, "seed {seed}: greedy lb > exact");
        assert!(exact <= flow + 1e-9, "seed {seed}: exact > flow");
        assert!(flow <= inst.total_load() + 1e-9, "seed {seed}");
    }
}

/// Single-machine Threshold and the Goldwasser–Kerbikov wrapper make
/// identical decisions on every stream.
#[test]
fn gk_equals_threshold_on_one_machine() {
    use cslack::algorithms::GoldwasserKerbikov;
    for seed in 0..5 {
        let inst = WorkloadSpec::default_spec(1, 0.4, 40, seed)
            .generate()
            .unwrap();
        let a = simulate(&inst, &mut Threshold::new(1, 0.4)).unwrap();
        let b = simulate(&inst, &mut GoldwasserKerbikov::new(0.4)).unwrap();
        assert_eq!(a.decisions.len(), b.decisions.len());
        for (x, y) in a.decisions.iter().zip(&b.decisions) {
            assert_eq!(x.accepted, y.accepted, "seed {seed}: decision diverged");
        }
        assert_eq!(a.accepted_load(), b.accepted_load());
    }
}

/// The incremental ranking ladder and the reference full sort give the
/// same decisions, thresholds, candidate counts and reject reasons on
/// the default workload at a small and a large machine count.
#[test]
fn ranking_modes_agree_on_default_workloads() {
    use cslack::algorithms::threshold::{RankingMode, ThresholdEngine, ThresholdPolicy};
    let eps = 0.25;
    for m in [8, 64] {
        let inst = WorkloadSpec::default_spec(m, eps, 2000, 42)
            .generate()
            .unwrap();
        let mk = |ranking| {
            ThresholdEngine::with_policy(
                "ranking-modes",
                m,
                eps,
                ThresholdPolicy {
                    ranking,
                    ..ThresholdPolicy::default()
                },
            )
        };
        let mut inc = mk(RankingMode::Incremental);
        let mut srt = mk(RankingMode::FullSort);
        for job in inst.jobs() {
            assert_eq!(
                inc.offer_explained(job),
                srt.offer_explained(job),
                "m = {m}: {job:?}"
            );
        }
    }
}

/// The facade prelude exposes a working surface (doc example parity).
#[test]
fn facade_prelude_surface() {
    let inst = InstanceBuilder::new(2, 0.5)
        .tight_job(Time::ZERO, 1.0)
        .tight_job(Time::ZERO, 1.0)
        .tight_job(Time::new(0.1), 4.0)
        .build()
        .unwrap();
    let mut alg = Threshold::for_instance(&inst);
    let report = simulate(&inst, &mut alg).unwrap();
    assert!(report.accepted_load() > 0.0);
    let _: Decision = Decision::Reject;
    let _ = Greedy::new(2);
    let _ = RatioFn::new(2);
    let _: SimReport = report;
    let _ = (JobId(0), MachineId(0), Schedule::new(1));
    let _: Job = inst.jobs()[0];
    let _: &Instance = &inst;
}

/// Sweep rows are mutually consistent: ratio * online == denominator.
#[test]
fn sweep_row_accounting_is_consistent() {
    use cslack::sim::sweep::{grid, run};
    let cells = grid(
        &WorkloadSpec::default_spec(2, 0.5, 10, 0),
        AlgoKind::baselines(),
        &[0.2, 0.7],
        &[1, 2],
    );
    for row in run(&cells, 12) {
        if row.online_load > 0.0 {
            assert!(
                (row.ratio * row.online_load - row.opt_denominator).abs()
                    < 1e-6 * row.opt_denominator.max(1.0),
                "inconsistent row: {row:?}"
            );
        }
        assert!(row.acceptance_rate >= 0.0 && row.acceptance_rate <= 1.0);
        assert!(row.opt_is_exact, "10-job instances must be exact");
    }
}
