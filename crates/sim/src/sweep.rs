//! Parallel experiment sweeps: (algorithm × parameter grid × seed).
//!
//! The experiment binaries sample many `(m, eps, seed)` cells and
//! several algorithms per cell; the cells are independent, so the sweep
//! fans them out with rayon. [`run`] collects the rows in cell order;
//! [`run_streaming`] instead forwards rows through a channel as they
//! complete, for progress reporting in long sweeps.

use crate::{simulate, SimError};
use cslack_algorithms::{
    ablation, Greedy, LeeClassify, OnlineScheduler, RandomizedClassifySelect, Threshold,
};
use cslack_kernel::Instance;
use cslack_opt as opt;
use cslack_workloads::WorkloadSpec;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Algorithm selector for sweeps (a factory: one fresh algorithm per
/// cell, so cells never share mutable state).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AlgoKind {
    /// The paper's Algorithm 1.
    Threshold,
    /// Accept-everything best fit.
    Greedy,
    /// Lee-style class reservation.
    LeeClassify,
    /// Corollary-1 randomized single-machine algorithm (ignores `m`,
    /// always one real machine).
    RandomizedClassifySelect,
    /// Ablation: Threshold with forced `k = 1`.
    ThresholdK1,
    /// Ablation: Threshold with forced `k = m`.
    ThresholdKm,
    /// Ablation: flat factors.
    ThresholdConstantF,
    /// Ablation: worst-fit allocation.
    ThresholdWorstFit,
    /// Ablation: latest-start allocation.
    ThresholdLatestStart,
}

impl AlgoKind {
    /// Instantiates the algorithm for a cell.
    pub fn build(self, m: usize, eps: f64, seed: u64) -> Box<dyn OnlineScheduler + Send> {
        match self {
            AlgoKind::Threshold => Box::new(Threshold::new(m, eps)),
            AlgoKind::Greedy => Box::new(Greedy::new(m)),
            AlgoKind::LeeClassify => Box::new(LeeClassify::new(m, eps)),
            AlgoKind::RandomizedClassifySelect => {
                Box::new(RandomizedClassifySelect::new(eps, seed))
            }
            AlgoKind::ThresholdK1 => Box::new(ablation::forced_k(m, eps, 1)),
            AlgoKind::ThresholdKm => Box::new(ablation::forced_k(m, eps, m)),
            AlgoKind::ThresholdConstantF => Box::new(ablation::constant_factors(m, eps)),
            AlgoKind::ThresholdWorstFit => Box::new(ablation::worst_fit(m, eps)),
            AlgoKind::ThresholdLatestStart => Box::new(ablation::latest_start(m, eps)),
        }
    }

    /// The CLI-vocabulary name of the algorithm — the same strings
    /// `cslack` commands accept and the flight-recorder header records.
    pub fn as_str(self) -> &'static str {
        match self {
            AlgoKind::Threshold => "threshold",
            AlgoKind::Greedy => "greedy",
            AlgoKind::LeeClassify => "lee",
            AlgoKind::RandomizedClassifySelect => "randomized",
            AlgoKind::ThresholdK1 => "threshold-k1",
            AlgoKind::ThresholdKm => "threshold-km",
            AlgoKind::ThresholdConstantF => "threshold-constant-f",
            AlgoKind::ThresholdWorstFit => "threshold-worst-fit",
            AlgoKind::ThresholdLatestStart => "threshold-latest-start",
        }
    }

    /// Parses a CLI-vocabulary algorithm name (the inverse of
    /// [`AlgoKind::as_str`]).
    pub fn parse(name: &str) -> Option<AlgoKind> {
        let all = [
            AlgoKind::Threshold,
            AlgoKind::Greedy,
            AlgoKind::LeeClassify,
            AlgoKind::RandomizedClassifySelect,
            AlgoKind::ThresholdK1,
            AlgoKind::ThresholdKm,
            AlgoKind::ThresholdConstantF,
            AlgoKind::ThresholdWorstFit,
            AlgoKind::ThresholdLatestStart,
        ];
        all.into_iter().find(|k| k.as_str() == name)
    }

    /// All deterministic multi-machine algorithms.
    pub fn baselines() -> &'static [AlgoKind] {
        &[AlgoKind::Threshold, AlgoKind::Greedy, AlgoKind::LeeClassify]
    }

    /// The Threshold ablation family (paper's algorithm first).
    pub fn ablations() -> &'static [AlgoKind] {
        &[
            AlgoKind::Threshold,
            AlgoKind::ThresholdK1,
            AlgoKind::ThresholdKm,
            AlgoKind::ThresholdConstantF,
            AlgoKind::ThresholdWorstFit,
            AlgoKind::ThresholdLatestStart,
        ]
    }
}

/// One sweep cell: which algorithm on which generated instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cell {
    /// The algorithm to run.
    pub algo: AlgoKind,
    /// The workload to generate.
    pub spec: WorkloadSpec,
}

/// The measured outcome of one cell.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Algorithm name (from the instantiated scheduler).
    pub algorithm: String,
    /// Machine count.
    pub m: usize,
    /// System slack.
    pub eps: f64,
    /// Workload seed.
    pub seed: u64,
    /// Jobs in the instance.
    pub n: usize,
    /// Online objective value.
    pub online_load: f64,
    /// Offline estimate used as denominator (exact when available,
    /// else the flow upper bound).
    pub opt_denominator: f64,
    /// Whether the denominator is exact.
    pub opt_is_exact: bool,
    /// Measured ratio `opt_denominator / online_load`.
    pub ratio: f64,
    /// Acceptance rate.
    pub acceptance_rate: f64,
}

/// Runs one cell (generation + simulation + offline estimate).
pub fn run_cell(cell: &Cell, exact_limit: usize) -> Result<Row, SimError> {
    let instance = cell
        .spec
        .generate()
        .expect("workload specs in sweeps must be valid");
    // The randomized algorithm runs on a single real machine regardless
    // of the spec's m; everything else matches the instance.
    let mut algo = cell
        .algo
        .build(instance.machines(), instance.slack(), cell.spec.seed);
    let (report, instance) = if algo.machines() != instance.machines() {
        let single = remachine(&instance, algo.machines());
        (simulate(&single, algo.as_mut())?, single)
    } else {
        (simulate(&instance, algo.as_mut())?, instance)
    };
    let est = opt::estimate(&instance, exact_limit);
    let denom = est.denominator();
    Ok(Row {
        algorithm: report.algorithm.clone(),
        m: instance.machines(),
        eps: instance.slack(),
        seed: cell.spec.seed,
        n: instance.len(),
        online_load: report.accepted_load(),
        opt_denominator: denom,
        opt_is_exact: est.exact.is_some(),
        ratio: report.ratio_against(denom),
        acceptance_rate: report.acceptance_rate(),
    })
}

/// Rebuilds an instance with a different machine count (same jobs).
fn remachine(instance: &Instance, m: usize) -> Instance {
    let mut b = cslack_kernel::InstanceBuilder::with_capacity(m, instance.slack(), instance.len());
    for j in instance.jobs() {
        b.push(j.release, j.proc_time, j.deadline);
    }
    b.build().expect("remachined instance stays valid")
}

/// Runs all cells in parallel, preserving input order in the output.
pub fn run(cells: &[Cell], exact_limit: usize) -> Vec<Row> {
    cells
        .par_iter()
        .map(|cell| run_cell(cell, exact_limit).expect("sweep cell must simulate cleanly"))
        .collect()
}

/// Runs all cells in parallel, streaming rows to `on_row` as they finish
/// (unordered). A scoped thread drives the rayon pool and sends each row
/// over a channel to the caller's thread.
pub fn run_streaming<F: FnMut(Row)>(cells: &[Cell], exact_limit: usize, mut on_row: F) {
    let (tx, rx) = std::sync::mpsc::channel::<Row>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            cells.par_iter().for_each_with(tx, |tx, cell| {
                let row = run_cell(cell, exact_limit).expect("sweep cell must simulate cleanly");
                let _ = tx.send(row);
            });
        });
        for row in rx.iter() {
            on_row(row);
        }
    });
}

/// Builds the full cross product of algorithms × slacks × seeds over a
/// base spec.
pub fn grid(base: &WorkloadSpec, algos: &[AlgoKind], epss: &[f64], seeds: &[u64]) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(algos.len() * epss.len() * seeds.len());
    for &algo in algos {
        for &eps in epss {
            for &seed in seeds {
                let mut spec = base.clone();
                spec.eps = eps;
                spec.seed = seed;
                cells.push(Cell { algo, spec });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> WorkloadSpec {
        WorkloadSpec::default_spec(2, 0.5, 10, 1)
    }

    #[test]
    fn run_cell_produces_sane_row() {
        let cell = Cell {
            algo: AlgoKind::Threshold,
            spec: base_spec(),
        };
        let row = run_cell(&cell, 16).unwrap();
        assert_eq!(row.algorithm, "threshold");
        assert_eq!(row.n, 10);
        assert!(row.opt_is_exact);
        assert!(row.ratio >= 1.0 - 1e-9, "ratio {} < 1", row.ratio);
        assert!(row.online_load <= row.opt_denominator + 1e-9);
    }

    #[test]
    fn parallel_run_preserves_order_and_determinism() {
        let cells = grid(
            &base_spec(),
            AlgoKind::baselines(),
            &[0.25, 0.5],
            &[1, 2, 3],
        );
        assert_eq!(cells.len(), 3 * 2 * 3);
        let a = run(&cells, 12);
        let b = run(&cells, 12);
        assert_eq!(a.len(), cells.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.algorithm, y.algorithm);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.online_load, y.online_load);
            assert_eq!(x.ratio, y.ratio);
        }
    }

    #[test]
    fn streaming_run_delivers_every_row() {
        let cells = grid(&base_spec(), &[AlgoKind::Greedy], &[0.5], &[1, 2, 3, 4]);
        let mut n = 0;
        run_streaming(&cells, 12, |_row| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn randomized_algorithm_runs_on_one_machine() {
        let cell = Cell {
            algo: AlgoKind::RandomizedClassifySelect,
            spec: base_spec(), // spec says m = 2; algorithm forces m = 1
        };
        let row = run_cell(&cell, 12).unwrap();
        assert_eq!(row.m, 1);
        assert!(row.ratio >= 1.0 - 1e-9);
    }

    #[test]
    fn threshold_never_loses_to_its_theorem2_bound_on_small_grids() {
        let cells = grid(
            &WorkloadSpec::default_spec(2, 0.5, 12, 0),
            &[AlgoKind::Threshold],
            &[0.2, 0.5, 1.0],
            &[10, 20, 30],
        );
        for row in run(&cells, 14) {
            // Per-row RatioFn construction is cheap: the corner values
            // and parameter solves come from cslack_ratio::table's
            // process-wide cache, not a fresh recursion per row.
            let bound = cslack_ratio::RatioFn::new(row.m).threshold_upper_bound(row.eps);
            assert!(
                row.ratio <= bound + 1e-6,
                "eps={} seed={}: measured {} > bound {}",
                row.eps,
                row.seed,
                row.ratio,
                bound
            );
        }
    }

    #[test]
    fn ablation_list_contains_paper_algorithm_first() {
        assert_eq!(AlgoKind::ablations()[0], AlgoKind::Threshold);
        assert!(AlgoKind::ablations().len() >= 5);
    }
}
