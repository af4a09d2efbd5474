//! The search driver: wires the evaluator, the strategies and the report.

use crate::cache::{EvalCache, Score};
use crate::report::{
    pareto_frontier, FineTunedSummary, HomogeneousRow, ParetoPoint, SearchReport, StrategyRun,
};
use crate::space::SearchSpace;
use crate::strategy::{better, Candidate, CandidateEval, EvoSearch, GreedySearch, SearchStrategy};
use approxkd::resiliency::analyze_resiliency;
use approxkd::{ExperimentEnv, Method, StageConfig};
use axnn_axmul::catalog::Catalog;
use axnn_nn::gemm_mac_profile;
use axnn_nn::train::{calibrate, evaluate_with};
use axnn_proxsim::{LayerAssignment, SignedLut};
use std::sync::Arc;

/// How the accuracy floor is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FloorSpec {
    /// Absolute test-accuracy floor.
    Absolute(f32),
    /// Floor = all-exact baseline accuracy minus this drop.
    Drop(f32),
}

/// Which strategies to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyChoice {
    /// Greedy sensitivity-ordered descent only.
    Greedy,
    /// Evolutionary search only.
    Evo,
    /// Both, sharing one evaluation cache.
    Both,
}

/// Configuration of one search run.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Accuracy floor candidates must clear.
    pub floor: FloorSpec,
    /// Strategy selection.
    pub strategy: StrategyChoice,
    /// Evolutionary generations.
    pub generations: usize,
    /// Evolutionary population size.
    pub population: usize,
    /// Master seed (drives the evolutionary RNG).
    pub seed: u64,
    /// Evaluation batch size.
    pub batch: usize,
    /// Optional pool restriction (catalogue ids; exact is always present).
    pub pool: Option<Vec<String>>,
    /// When set, the winner is fine-tuned with this method and schedule.
    pub fine_tune: Option<(Method, StageConfig)>,
}

/// The real [`CandidateEval`]: scores an assignment by rebuilding the
/// quantized model with the assigned per-layer executors, calibrating, and
/// measuring validation accuracy through the compiled graph plus
/// MAC-weighted modeled energy. All scores go through a shared
/// [`EvalCache`].
pub struct Evaluator<'a> {
    env: &'a mut ExperimentEnv,
    space: &'a SearchSpace,
    cache: &'a mut EvalCache,
    luts: Vec<Option<Arc<SignedLut>>>,
    batch: usize,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `env`'s quantized model and data splits.
    pub fn new(
        env: &'a mut ExperimentEnv,
        space: &'a SearchSpace,
        cache: &'a mut EvalCache,
        batch: usize,
    ) -> Self {
        let luts = vec![None; space.pool().len()];
        Self {
            env,
            space,
            cache,
            luts,
            batch,
        }
    }

    fn compute(
        env: &mut ExperimentEnv,
        space: &SearchSpace,
        luts: &mut [Option<Arc<SignedLut>>],
        batch: usize,
        assignment: &[usize],
    ) -> Score {
        let _span = axnn_obs::span("search:eval");
        let energy = space.energy(assignment);
        let mut net = env.quantized_copy();
        let per_layer: Vec<LayerAssignment> = assignment
            .iter()
            .map(|&p| {
                space.pool()[p].spec.map(|spec| {
                    let lut = luts[p]
                        .get_or_insert_with(|| Arc::new(SignedLut::build(spec.build().as_ref())));
                    (Arc::clone(lut), None)
                })
            })
            .collect();
        axnn_proxsim::approximate_network_assigned(&mut net, &per_layer);
        calibrate(&mut net, env.train_data(), batch, 2);
        let mut exec = axnn_nn::GraphExecutor::compile(&mut net)
            .expect("quantized and approximate executors always compile");
        let accuracy = evaluate_with(|x| exec.forward(x), env.test_data(), batch);
        Score { accuracy, energy }
    }
}

impl CandidateEval for Evaluator<'_> {
    fn space(&self) -> &SearchSpace {
        self.space
    }

    fn score(&mut self, assignment: &[usize]) -> Score {
        let Self {
            env,
            space,
            cache,
            luts,
            batch,
        } = self;
        cache.get_or_insert_with(assignment, || {
            Self::compute(env, space, luts, *batch, assignment)
        })
    }
}

/// Runs the heterogeneous search end to end against a prepared environment
/// (quantization stage done, via training or
/// [`ExperimentEnv::adopt_quantized`]) and returns the full report.
///
/// # Errors
///
/// Returns an error for an invalid pool or an empty training split.
pub fn run_search(env: &mut ExperimentEnv, cfg: &SearchConfig) -> Result<SearchReport, String> {
    let _span = axnn_obs::span("search:run");
    let (x, _) = env
        .train_data()
        .batches(1)
        .next()
        .ok_or("empty training split")?;
    let mut probe_net = env.quantized_copy();
    let macs = gemm_mac_profile(&mut probe_net, &x);
    drop(probe_net);
    let space = SearchSpace::new(&Catalog::paper(), cfg.pool.as_deref(), macs)?;

    // The greedy visiting order comes from a resiliency sweep with the
    // pool's harshest multiplier: ordering by damage under the worst case
    // separates layers most clearly.
    let order = match cfg.strategy {
        StrategyChoice::Evo => None,
        StrategyChoice::Greedy | StrategyChoice::Both => {
            Some(analyze_resiliency(env, space.harshest(), cfg.batch).resilient_order())
        }
    };

    let mut cache = EvalCache::new();
    let (baseline, floor, strategies, homogeneous) = {
        let mut eval = Evaluator::new(env, &space, &mut cache, cfg.batch);
        let baseline = eval.score(&vec![0; space.layers()]);
        let floor = match cfg.floor {
            FloorSpec::Absolute(a) => a,
            FloorSpec::Drop(d) => baseline.accuracy - d,
        };
        let mut runs: Vec<Box<dyn SearchStrategy>> = Vec::new();
        if let Some(order) = order {
            runs.push(Box::new(GreedySearch::new(order)));
        }
        if matches!(cfg.strategy, StrategyChoice::Evo | StrategyChoice::Both) {
            runs.push(Box::new(EvoSearch::new(
                cfg.generations,
                cfg.population,
                cfg.seed,
            )));
        }
        let strategies: Vec<StrategyRun> = runs
            .iter_mut()
            .map(|s| StrategyRun {
                name: s.label(),
                best: s.run(&mut eval, floor),
            })
            .collect();
        let homogeneous: Vec<HomogeneousRow> = (0..space.pool().len())
            .map(|p| {
                let score = eval.score(&vec![p; space.layers()]);
                HomogeneousRow {
                    id: space.pool()[p].id.to_string(),
                    accuracy: score.accuracy,
                    energy: score.energy,
                    feasible: score.accuracy >= floor,
                }
            })
            .collect();
        (baseline, floor, strategies, homogeneous)
    };

    // The winner is the best feasible assignment anywhere in the cache —
    // strategies, homogeneous probes and intermediate candidates alike.
    let mut winner: Option<Candidate> = None;
    for (assignment, score) in cache.iter() {
        if score.accuracy < floor {
            continue;
        }
        let cand = (assignment.clone(), *score);
        match &winner {
            Some(w) if !better(&cand, w) => {}
            _ => winner = Some(cand),
        }
    }

    let pareto: Vec<ParetoPoint> = pareto_frontier(&cache)
        .into_iter()
        .map(|(assignment, score)| ParetoPoint {
            assignment: space
                .assignment_ids(&assignment)
                .iter()
                .map(|s| s.to_string())
                .collect(),
            accuracy: score.accuracy,
            energy: score.energy,
        })
        .collect();
    let best_homogeneous = homogeneous
        .iter()
        .filter(|r| r.feasible)
        .min_by(|a, b| a.energy.total_cmp(&b.energy).then(a.id.cmp(&b.id)))
        .cloned();

    let fine_tuned = match (&winner, &cfg.fine_tune) {
        (Some((assignment, _)), Some((method, stage))) => {
            let specs = space.assignment_specs(assignment);
            let r = env.approximation_stage_assigned(&specs, *method, stage);
            Some(FineTunedSummary {
                method: r.method,
                initial_acc: r.initial_acc,
                final_acc: r.final_acc,
            })
        }
        _ => None,
    };

    Ok(SearchReport {
        model: env.kind().label().to_string(),
        seed: cfg.seed,
        floor,
        baseline,
        layers: space.layer_macs().to_vec(),
        pool: space
            .pool()
            .iter()
            .map(|e| (e.id.to_string(), e.cost))
            .collect(),
        strategies,
        evals: cache.evals(),
        cache_hits: cache.hits(),
        scored: cache.len(),
        homogeneous,
        best_homogeneous,
        pareto,
        winner: winner.map(|(assignment, score)| ParetoPoint {
            assignment: space
                .assignment_ids(&assignment)
                .iter()
                .map(|s| s.to_string())
                .collect(),
            accuracy: score.accuracy,
            energy: score.energy,
        }),
        fine_tuned,
    })
}
