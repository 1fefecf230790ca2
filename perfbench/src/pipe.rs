//! The pipeline phase: cold `Pipeline::run` executions, and the traced
//! replay of the same run as the public calls it is made of.

use std::time::{Duration, Instant};

use snorkel_bench::{best_f1_threshold, predict_at};
use snorkel_core::label_model::LabelModel;
use snorkel_core::model::{GenerativeModel, LabelScheme};
use snorkel_core::optimizer::{select_model, ModelingStrategy, OptimizerConfig};
use snorkel_core::pipeline::{DiscTrainer, DiscTrainerConfig, Pipeline, PipelineConfig};
use snorkel_datasets::RelationTask;
use snorkel_disc::metrics::f1_score;
use snorkel_disc::DistilledModel;
use snorkel_lf::Vote;
use snorkel_linalg::SparseVec;

use crate::stats::process_cpu;

/// Which pipeline a workload runs.
#[derive(Clone, Copy, Debug)]
pub struct PipeSpec {
    /// Candidates in the corpus.
    pub candidates: usize,
    /// Run Algorithm 1's structure search (the paper's default).
    pub structure_search: bool,
    /// Force the moment backend, as the served session does.
    pub moment: bool,
}

impl PipeSpec {
    /// The pipeline configuration this spec names. Distillation is on
    /// everywhere.
    pub fn config(&self) -> PipelineConfig {
        PipelineConfig {
            optimizer: OptimizerConfig {
                skip_structure_search: !self.structure_search,
                ..OptimizerConfig::default()
            },
            force_strategy: self.moment.then_some(ModelingStrategy::MomentMatching),
            distill: Some(DiscTrainerConfig::default()),
            ..PipelineConfig::default()
        }
    }
}

/// Dev/test inputs for scoring a run, prepared once outside the timing.
pub struct Eval {
    dev: Vec<usize>,
    test: Vec<usize>,
    gold_dev: Vec<Vote>,
    gold_test: Vec<Vote>,
    x_dev: Vec<SparseVec>,
    x_test: Vec<SparseVec>,
}

impl Eval {
    /// Split rows, gold labels and features of `task`'s dev and test
    /// splits.
    pub fn new(task: &RelationTask, cfg: &PipelineConfig) -> Eval {
        let trainer = DiscTrainer::new(cfg.distill.clone().expect("distillation is on"));
        let ids = |rows: &[usize]| -> Vec<_> { rows.iter().map(|&r| task.candidates[r]).collect() };
        Eval {
            dev: task.dev.clone(),
            test: task.test.clone(),
            gold_dev: task.gold_of(&task.dev),
            gold_test: task.gold_of(&task.test),
            x_dev: trainer.featurize(&task.corpus, &ids(&task.dev)),
            x_test: trainer.featurize(&task.corpus, &ids(&task.test)),
        }
    }

    /// F1 on the test split at the threshold that maximizes F1 on dev.
    fn f1(&self, dev_scores: &[f64], test_scores: &[f64]) -> f64 {
        let thr = best_f1_threshold(dev_scores, &self.gold_dev);
        f1_score(&predict_at(test_scores, thr), &self.gold_test)
    }

    /// Label-model F1 from the marginals of every candidate.
    pub fn label_f1(&self, marginals: &[Vec<f64>]) -> f64 {
        let score =
            |rows: &[usize]| -> Vec<f64> { rows.iter().map(|&r| marginals[r][0]).collect() };
        self.f1(&score(&self.dev), &score(&self.test))
    }

    /// Distilled-model F1 from its posteriors on the held-out features.
    pub fn disc_f1(&self, disc: &DistilledModel) -> f64 {
        let score = |xs: &[SparseVec]| -> Vec<f64> {
            xs.iter().map(|x| disc.predict_proba(x)[0]).collect()
        };
        self.f1(&score(&self.x_dev), &score(&self.x_test))
    }
}

/// FNV-1a over the bit patterns of every marginal.
pub fn marginals_hash(marginals: &[Vec<f64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in marginals.iter().flatten() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one pipeline execution produced, for the cross-run checks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Product {
    /// [`marginals_hash`] of the marginals.
    pub hash: u64,
    /// Label-model test F1.
    pub label_f1: f64,
    /// Distilled-model test F1.
    pub disc_f1: f64,
}

/// Wall-clock and CPU time of one pipeline execution.
#[derive(Clone, Copy, Debug)]
pub struct Took {
    /// Wall clock.
    pub wall: Duration,
    /// CPU time of the process, all threads together.
    pub cpu: Duration,
}

/// One cold `Pipeline::run`, timed end to end.
pub fn run_cold(task: &RelationTask, pipeline: &Pipeline, eval: &Eval) -> (Took, Product) {
    let (t, cpu) = (Instant::now(), process_cpu());
    let (labels, report) = pipeline.run(&task.lfs, &task.corpus, &task.candidates);
    let took = Took {
        wall: t.elapsed(),
        cpu: process_cpu() - cpu,
    };
    let disc = report.disc.as_ref().expect("distillation is on");
    let product = Product {
        hash: marginals_hash(&labels),
        label_f1: eval.label_f1(&labels),
        disc_f1: eval.disc_f1(disc),
    };
    (took, product)
}

/// Stage names of the traced replay, in call order.
pub const STAGES: [&str; 8] = [
    "lf_apply",
    "select",
    "build",
    "plan",
    "fit",
    "marginals",
    "featurize",
    "train",
];

/// One traced replay: per-stage times plus what each call returned.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Time of each [`STAGES`] entry.
    pub stages: [Duration; 8],
    /// LF invocations (`candidates × LFs`).
    pub invocations: usize,
    /// Unique vote patterns in the plan (0 on the row-wise path).
    pub unique_patterns: usize,
    /// Rows of Λ.
    pub rows: usize,
    /// Correlated LF pairs the selected structure models.
    pub correlations: usize,
    /// Epochs the fit ran.
    pub fit_epochs: usize,
    /// Rows the distilled model trained on.
    pub rows_trained: usize,
    /// What the replay produced.
    pub product: Product,
}

impl Traced {
    /// Sum of the stage times.
    pub fn total(&self) -> Duration {
        self.stages.iter().sum()
    }
}

/// Replay `Pipeline::run` as its public calls, timing each one from
/// here: `LfExecutor::apply` → `select_model` → `ModelRegistry::build` →
/// `GenerativeModel::plan_for` → `LabelModel::fit` → `marginals` →
/// `DiscTrainer::featurize` → `DiscTrainer::train`. The calls are
/// sequential, so each stage's self time is its whole duration.
pub fn run_traced(task: &RelationTask, cfg: &PipelineConfig, eval: &Eval) -> Traced {
    let mut stages = [Duration::ZERO; 8];
    let mut clock = Instant::now();
    let mut lap = |i: usize| {
        let now = Instant::now();
        stages[i] = now - clock;
        clock = now;
    };

    let lambda = cfg
        .executor
        .apply(&task.lfs, &task.corpus, &task.candidates);
    lap(0);
    let strategy = match &cfg.force_strategy {
        Some(s) => s.clone(),
        None if lambda.is_binary() => select_model(&lambda, &cfg.optimizer, &cfg.registry).strategy,
        None => ModelingStrategy::GenerativeModel {
            epsilon: 0.0,
            correlations: Vec::new(),
            strengths: Vec::new(),
        },
    };
    lap(1);
    let mut model: Box<dyn LabelModel> = cfg
        .registry
        .build(&strategy, lambda.num_lfs(), lambda.cardinality())
        .expect("the standard registry builds every strategy");
    lap(2);
    let plan = if model.benefits_from_plan() {
        GenerativeModel::plan_for(&lambda, &cfg.train)
    } else {
        None
    };
    lap(3);
    let fit = model.fit(&lambda, plan.as_ref(), &cfg.train);
    lap(4);
    let labels = model.marginals(&lambda, plan.as_ref());
    lap(5);
    let trainer = DiscTrainer::new(cfg.distill.clone().expect("distillation is on"));
    let xs = trainer.featurize(&task.corpus, &task.candidates);
    lap(6);
    let num_classes = LabelScheme::from_cardinality(lambda.cardinality()).num_classes();
    let (disc, disc_report) = trainer.train(&xs, &labels, num_classes, plan.as_ref());
    lap(7);

    let correlations = match &strategy {
        ModelingStrategy::GenerativeModel { correlations, .. } => correlations.len(),
        _ => 0,
    };
    Traced {
        stages,
        invocations: task.candidates.len() * task.lfs.len(),
        unique_patterns: plan.as_ref().map_or(0, |p| p.num_patterns()),
        rows: lambda.num_points(),
        correlations,
        fit_epochs: fit.epochs,
        rows_trained: disc_report.rows_trained,
        product: Product {
            hash: marginals_hash(&labels),
            label_f1: eval.label_f1(&labels),
            disc_f1: eval.disc_f1(&disc),
        },
    }
}
