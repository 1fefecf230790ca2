//! Cross-crate integration tests: the full Snorkel flow from raw text to
//! trained discriminative model, on every task type.

use snorkel::core::label_model::LabelModel;
use snorkel::core::model::{ClassBalance, GenerativeModel, LabelScheme, TrainConfig};
use snorkel::core::optimizer::{choose_strategy, ModelingStrategy, OptimizerConfig};
use snorkel::core::pipeline::{Pipeline, PipelineConfig};
use snorkel::datasets::{cdr, chem, crowd, radiology, spouses, TaskConfig};
use snorkel::disc::metrics::{accuracy, f1_score, roc_auc};
use snorkel::disc::{LogRegConfig, LogisticRegression, Mlp, MlpConfig, TextFeaturizer};

fn uniform_cfg() -> TrainConfig {
    TrainConfig {
        class_balance: ClassBalance::Uniform,
        // The paper's prior assumes LFs beat random guessing (footnote 8:
        // accuracies in 62%–82%); without the clamp a handful of weak CDR
        // LFs pick up negative weights and flip votes, dragging the GM
        // below the unweighted majority vote on some corpus realizations.
        clamp_nonadversarial: true,
        ..TrainConfig::default()
    }
}

#[test]
fn cdr_end_to_end_beats_majority_vote_and_chance() {
    let task = cdr::build(TaskConfig {
        num_candidates: 1200,
        seed: 42,
    });
    let lambda_train = task.train_matrix();
    let lambda_test = task.label_matrix(&task.test);
    let gold_test = task.gold_of(&task.test);

    let mut gm = GenerativeModel::new(lambda_train.num_lfs(), LabelScheme::Binary);
    gm.fit(&lambda_train, None, &uniform_cfg());

    // Generative predictions must beat the unweighted majority vote.
    let mv = snorkel::core::vote::majority_vote(&lambda_test);
    let gm_pred = gm.predicted_labels(&lambda_test);
    let f1_mv = f1_score(&mv, &gold_test);
    let f1_gm = f1_score(&gm_pred, &gold_test);
    assert!(
        f1_gm >= f1_mv - 0.02,
        "GM F1 {f1_gm:.3} must not trail MV F1 {f1_mv:.3}"
    );
    assert!(f1_gm > 0.4, "GM F1 {f1_gm:.3} must be far above chance");

    // Discriminative model trained on probabilistic labels generalizes.
    let featurizer = TextFeaturizer::with_buckets(1 << 14);
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let test_ids: Vec<_> = task.test.iter().map(|&r| task.candidates[r]).collect();
    let x_train = featurizer.featurize_all(&task.corpus, &train_ids);
    let x_test = featurizer.featurize_all(&task.corpus, &test_ids);
    let mut disc = LogisticRegression::new(1 << 14);
    disc.fit(
        &x_train,
        &gm.prob_positive(&lambda_train),
        &LogRegConfig {
            dim: 1 << 14,
            epochs: 8,
            ..LogRegConfig::default()
        },
    );
    let auc = roc_auc(&disc.predict_proba_all(&x_test), &gold_test);
    assert!(auc > 0.7, "disc AUC {auc:.3}");
}

#[test]
fn disc_model_extends_recall_beyond_lfs() {
    // The §4.1.1 generalization claim: the discriminative model improves
    // over the generative model "primarily by increasing recall" — the
    // generative model can only act on candidates some LF voted on,
    // while the end model scores every candidate from its features.
    let task = spouses::build(TaskConfig {
        num_candidates: 2000,
        seed: 7,
    });
    let lambda_train = task.train_matrix();
    let lambda_test = task.label_matrix(&task.test);
    let gold_test = task.gold_of(&task.test);

    let mut gm = GenerativeModel::new(lambda_train.num_lfs(), LabelScheme::Binary);
    gm.fit(&lambda_train, None, &uniform_cfg());

    // Generative recall under the appendix A.5 convention: rows with no
    // votes get label 0, counted as negative.
    let gen_pred = gm.predicted_labels(&lambda_test);
    let gen = snorkel::disc::metrics::precision_recall_f1(&gen_pred, &gold_test);

    let featurizer = TextFeaturizer::with_buckets(1 << 14);
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let test_ids: Vec<_> = task.test.iter().map(|&r| task.candidates[r]).collect();
    let x_train = featurizer.featurize_all(&task.corpus, &train_ids);
    let x_test = featurizer.featurize_all(&task.corpus, &test_ids);
    let mut disc = LogisticRegression::new(1 << 14);
    disc.fit(
        &x_train,
        &gm.prob_positive(&lambda_train),
        &LogRegConfig {
            dim: 1 << 14,
            epochs: 12,
            learning_rate: 0.05,
            ..LogRegConfig::default()
        },
    );
    let disc_pred = disc.predict_all(&x_test);
    let disc_prf = snorkel::disc::metrics::precision_recall_f1(&disc_pred, &gold_test);

    assert!(
        disc_prf.recall >= gen.recall - 0.02,
        "disc recall {:.3} must extend the generative model's {:.3}",
        disc_prf.recall,
        gen.recall
    );
    // And the disc scores every candidate, LF-covered or not: its
    // probabilities on LF-invisible rows must be finite and varied
    // (the generative model can only output the prior there).
    let uncovered: Vec<usize> = (0..lambda_test.num_points())
        .filter(|&i| lambda_test.row(i).0.is_empty())
        .collect();
    if uncovered.len() >= 2 {
        let scores: Vec<f64> = uncovered
            .iter()
            .map(|&i| disc.predict_proba(&x_test[i]))
            .collect();
        assert!(scores.iter().all(|s| s.is_finite()));
        let min = scores.iter().cloned().fold(1.0, f64::min);
        let max = scores.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min > 1e-6,
            "disc must discriminate among LF-invisible rows ({min:.4}..{max:.4})"
        );
    }
}

#[test]
fn optimizer_strategies_match_table1_pattern() {
    // Chem → MV; CDR → GM (the Table 1 headline contrast).
    let chem_task = chem::build(TaskConfig {
        num_candidates: 1200,
        seed: 3,
    });
    let cdr_task = cdr::build(TaskConfig {
        num_candidates: 1200,
        seed: 3,
    });
    let cfg = OptimizerConfig {
        skip_structure_search: true,
        ..OptimizerConfig::default()
    };
    let chem_decision = choose_strategy(&chem_task.train_matrix(), &cfg);
    let cdr_decision = choose_strategy(&cdr_task.train_matrix(), &cfg);
    assert_eq!(
        chem_decision.strategy,
        ModelingStrategy::MajorityVote,
        "Chem must select MV (A~* = {:.4})",
        chem_decision.predicted_advantage
    );
    assert!(
        matches!(
            cdr_decision.strategy,
            ModelingStrategy::GenerativeModel { .. }
        ),
        "CDR must select GM (A~* = {:.4})",
        cdr_decision.predicted_advantage
    );
}

#[test]
fn crowd_five_class_flow() {
    let task = crowd::build(TaskConfig {
        num_candidates: 632,
        seed: 11,
    });
    let lambda = task.label_matrix(&task.train);
    assert_eq!(lambda.cardinality(), 5);

    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::MultiClass(5));
    gm.fit(&lambda, None, &uniform_cfg());

    // The generative model must beat the raw majority vote of workers.
    let gold_train = task.gold_of(&task.train);
    let mv = snorkel::core::vote::majority_vote(&lambda);
    let gm_pred = gm.predicted_labels(&lambda);
    let acc_mv = accuracy(&mv, &gold_train);
    let acc_gm = accuracy(&gm_pred, &gold_train);
    assert!(
        acc_gm >= acc_mv - 0.02,
        "GM accuracy {acc_gm:.3} vs MV {acc_mv:.3}"
    );
    assert!(acc_gm > 0.6, "GM label accuracy {acc_gm:.3}");

    // Learned worker reliability must correlate with the truth.
    let r = snorkel::linalg::stats::pearson(&gm.implied_accuracies(), &task.worker_accuracies);
    assert!(r > 0.5, "worker-accuracy correlation {r:.2}");
}

#[test]
fn radiology_cross_modal_flow() {
    let task = radiology::build(TaskConfig {
        num_candidates: 900,
        seed: 13,
    });
    let lambda = task.label_matrix(&task.train);
    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary);
    gm.fit(&lambda, None, &uniform_cfg());
    let soft = gm.prob_positive(&lambda);

    let cfg = MlpConfig {
        input_dim: task.image_dim,
        hidden_dim: 16,
        epochs: 30,
        ..MlpConfig::default()
    };
    let mut mlp = Mlp::new(&cfg);
    mlp.fit(&task.images_of(&task.train), &soft, &cfg);
    let auc = roc_auc(
        &mlp.predict_proba_all(&task.images_of(&task.test)),
        &task.gold_of(&task.test),
    );
    assert!(auc > 0.75, "cross-modal AUC {auc:.3}");
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let task = spouses::build(TaskConfig {
        num_candidates: 800,
        seed: 21,
    });
    let lambda = task.train_matrix();
    let run = || {
        let (labels, report) = Pipeline::new(PipelineConfig {
            train: uniform_cfg(),
            ..PipelineConfig::default()
        })
        .run_from_matrix(&lambda);
        (labels, format!("{:?}", report.strategy))
    };
    let (a_labels, a_strategy) = run();
    let (b_labels, b_strategy) = run();
    assert_eq!(a_strategy, b_strategy);
    assert_eq!(
        a_labels, b_labels,
        "pipeline must be bit-for-bit deterministic"
    );
}

#[test]
fn task_generation_is_deterministic_across_builds() {
    let a = cdr::build(TaskConfig {
        num_candidates: 400,
        seed: 5,
    });
    let b = cdr::build(TaskConfig {
        num_candidates: 400,
        seed: 5,
    });
    assert_eq!(a.gold, b.gold);
    assert_eq!(a.train, b.train);
    assert_eq!(
        a.train_matrix(),
        b.train_matrix(),
        "label matrices must be identical across builds"
    );
}
