//! Criterion microbenchmarks for the hot paths of every subsystem:
//! generative-model training (exact and Gibbs/CD), structure learning,
//! LF application (serial vs parallel), label-matrix diagnostics, the
//! pattern engine, and one discriminative training epoch.
//!
//! Run with `cargo bench --workspace`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snorkel_core::label_model::LabelModel;

use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_core::structure::{learn_structure, structure_sweep, StructureConfig};
use snorkel_core::vote::majority_vote;
use snorkel_datasets::synthetic::{correlated_matrix, independent_matrix, Cluster};
use snorkel_datasets::{cdr, TaskConfig};
use snorkel_disc::{LogRegConfig, LogisticRegression, TextFeaturizer};
use snorkel_lf::LfExecutor;
use snorkel_matrix::stats::matrix_stats;
use snorkel_pattern::Regex;

fn bench_generative_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("generative_model");
    group.sample_size(10);
    for &(m, n) in &[(1000usize, 10usize), (5000, 20)] {
        let (lambda, _) = independent_matrix(m, n, 0.75, 0.3, 1);
        let cfg = TrainConfig {
            epochs: 100,
            ..TrainConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("exact_fit_100_epochs", format!("{m}x{n}")),
            &lambda,
            |b, lambda| {
                b.iter(|| {
                    let mut gm = GenerativeModel::new(n, LabelScheme::Binary);
                    gm.fit(lambda, None, &cfg)
                })
            },
        );
    }

    // Gibbs/CD path with a planted correlated cluster.
    let clusters = [Cluster {
        size: 4,
        accuracy: 0.6,
        deviation: 0.05,
    }];
    let (lambda, _, pairs) = correlated_matrix(2000, 8, 0.75, &clusters, 0.4, 2);
    let cfg = TrainConfig {
        cd_epochs: 10,
        ..TrainConfig::default()
    };
    group.bench_function("gibbs_cd_fit_10_epochs_2000x12", |b| {
        b.iter(|| {
            let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary)
                .with_correlations(&pairs);
            gm.fit(&lambda, None, &cfg)
        })
    });
    group.finish();
}

fn bench_structure_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("structure_learning");
    group.sample_size(10);
    let clusters = [
        Cluster {
            size: 4,
            accuracy: 0.6,
            deviation: 0.05,
        },
        Cluster {
            size: 4,
            accuracy: 0.65,
            deviation: 0.05,
        },
    ];
    for &(m, indep) in &[(1000usize, 8usize), (2000, 16)] {
        let (lambda, _, _) = correlated_matrix(m, indep, 0.75, &clusters, 0.4, 3);
        group.bench_with_input(
            BenchmarkId::new("single_pass", format!("{m}x{}", indep + 8)),
            &lambda,
            |b, lambda| b.iter(|| learn_structure(lambda, &StructureConfig::default())),
        );
        group.bench_with_input(
            BenchmarkId::new("sweep_12_epsilons", format!("{m}x{}", indep + 8)),
            &lambda,
            |b, lambda| {
                let eps: Vec<f64> = (1..=12).rev().map(|i| i as f64 * 0.04).collect();
                b.iter(|| structure_sweep(lambda, &eps, &StructureConfig::default()))
            },
        );
    }
    group.finish();
}

fn bench_lf_application(c: &mut Criterion) {
    let mut group = c.benchmark_group("lf_application");
    group.sample_size(10);
    let task = cdr::build(TaskConfig {
        num_candidates: 2000,
        seed: 1,
    });
    let ids: Vec<_> = task.candidates.clone();
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("cdr_33lfs_2000cands", format!("{threads}_threads")),
            &threads,
            |b, &threads| {
                let exec = LfExecutor::new().with_parallelism(threads);
                b.iter(|| exec.apply(&task.lfs, &task.corpus, &ids))
            },
        );
    }
    group.finish();
}

fn bench_matrix_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_matrix");
    let (lambda, _) = independent_matrix(20000, 50, 0.75, 0.2, 4);
    group.bench_function("stats_20000x50", |b| b.iter(|| matrix_stats(&lambda)));
    group.bench_function("majority_vote_20000x50", |b| {
        b.iter(|| majority_vote(&lambda))
    });
    group.finish();
}

fn bench_pattern_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("pattern_engine");
    let re = Regex::new(r"\b(caus|induc)(es|ed|ing)?\b").expect("compiles");
    let hay = "administration of magnesium sulfate induced transient weakness in the cohort \
               while the control arm received placebo without any causally linked events"
        .repeat(4);
    group.bench_function("alternation_search_600B", |b| b.iter(|| re.is_match(&hay)));
    let lit = Regex::new("placebo").expect("compiles");
    group.bench_function("literal_search_600B", |b| b.iter(|| lit.find(&hay)));
    group.finish();
}

fn bench_discriminative(c: &mut Criterion) {
    let mut group = c.benchmark_group("discriminative");
    group.sample_size(10);
    let task = cdr::build(TaskConfig {
        num_candidates: 1000,
        seed: 5,
    });
    let featurizer = TextFeaturizer::with_buckets(1 << 16);
    let xs = featurizer.featurize_all(&task.corpus, &task.candidates);
    let soft: Vec<f64> = task
        .gold
        .iter()
        .map(|&g| if g == 1 { 0.9 } else { 0.1 })
        .collect();
    let cfg = LogRegConfig {
        dim: 1 << 16,
        epochs: 1,
        ..LogRegConfig::default()
    };
    group.bench_function("logreg_epoch_1000_examples", |b| {
        b.iter(|| {
            let mut lr = LogisticRegression::new(1 << 16);
            lr.fit(&xs, &soft, &cfg)
        })
    });
    group.bench_function("featurize_1000_candidates", |b| {
        b.iter(|| featurizer.featurize_all(&task.corpus, &task.candidates))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generative_training,
    bench_structure_learning,
    bench_lf_application,
    bench_matrix_ops,
    bench_pattern_engine,
    bench_discriminative
);
criterion_main!(benches);
