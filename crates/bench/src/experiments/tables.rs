//! Tables 1–7 of the paper.

use snorkel_core::label_model::LabelModel;
use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};

use snorkel_core::optimizer::{advantage_upper_bound, choose_strategy, OptimizerConfig};
use snorkel_core::vote::modeling_advantage;
use snorkel_datasets::{cdr, chem, crowd, ehr, radiology, spouses, LfType, RelationTask};
use snorkel_disc::metrics::{accuracy, precision_recall_f1, roc_auc};
use snorkel_disc::{
    LogisticRegression, Mlp, MlpConfig, SoftmaxConfig, SoftmaxRegression, TextFeaturizer,
};

use crate::experiments::Scale;
use crate::{
    eval_text_task, fmt_prf, logreg_config, markdown_table, pct, unweighted_soft_labels,
    TEXT_BUCKETS,
};

fn binary_tasks(scale: Scale) -> Vec<RelationTask> {
    vec![
        cdr::build(scale.task()),
        chem::build(scale.task()),
        ehr::build(scale.task()),
        spouses::build(scale.task()),
    ]
}

/// Table 1: modeling advantage `A_w`, optimizer bound `A~*`, selected
/// strategy, and label density per binary task.
pub fn table1(scale: Scale) -> String {
    let mut rows = Vec::new();

    // Radiology first (separate task type), then the relation tasks —
    // matching the paper's row order where possible.
    let rad = radiology::build(scale.task());
    let rad_lambda = rad.label_matrix(&rad.train);
    let rad_test = rad.label_matrix(&rad.test);
    rows.push(advantage_row(
        "Radiology",
        &rad_lambda,
        &rad_test,
        &rad.gold_of(&rad.test),
    ));

    for task in binary_tasks(scale) {
        let lambda = task.train_matrix();
        let lambda_test = task.label_matrix(&task.test);
        rows.push(advantage_row(
            &task.name,
            &lambda,
            &lambda_test,
            &task.gold_of(&task.test),
        ));
    }

    let mut out = String::from("## Table 1 — modeling advantage and strategy selection\n\n");
    out.push_str(
        "Paper values for reference: Radiology Aw=7.0 A~*=12.4 GM d=2.3; CDR 4.9/7.9 GM 1.8; \
         Spouses 4.4/4.6 GM 1.4; Chem 0.1/0.3 MV 1.2; EHR 2.8/4.8 GM 1.2.\n\n",
    );
    out.push_str(&markdown_table(
        &["Dataset", "Aw (%)", "A~* (%)", "Modeling Strategy", "d_Λ"],
        &rows,
    ));
    out
}

fn advantage_row(
    name: &str,
    lambda_train: &snorkel_matrix::LabelMatrix,
    lambda_test: &snorkel_matrix::LabelMatrix,
    gold_test: &[snorkel_lf::Vote],
) -> Vec<String> {
    let cfg = OptimizerConfig {
        skip_structure_search: true,
        ..OptimizerConfig::default()
    };
    let bound = advantage_upper_bound(lambda_train, &cfg);
    let decision = choose_strategy(lambda_train, &cfg);
    let strategy = match decision.strategy {
        snorkel_core::optimizer::ModelingStrategy::MajorityVote => "MV",
        snorkel_core::optimizer::ModelingStrategy::MomentMatching => "MoM",
        snorkel_core::optimizer::ModelingStrategy::GenerativeModel { .. } => "GM",
    };
    let mut gm = GenerativeModel::new(lambda_train.num_lfs(), LabelScheme::Binary);
    gm.fit(lambda_train, None, &TrainConfig::default());
    let aw = modeling_advantage(lambda_test, gm.accuracy_weights(), gold_test);
    vec![
        name.to_string(),
        pct(aw),
        pct(bound),
        strategy.to_string(),
        format!("{:.1}", lambda_train.label_density()),
    ]
}

/// Table 2 (task summary statistics) and Table 7 (split sizes).
pub fn table2_and_7(scale: Scale) -> String {
    let mut rows2 = Vec::new();
    let mut rows7 = Vec::new();

    for task in binary_tasks(scale) {
        rows2.push(vec![
            task.name.clone(),
            task.lfs.len().to_string(),
            pct(task.pct_positive()),
            task.num_docs().to_string(),
            task.candidates.len().to_string(),
        ]);
        rows7.push(vec![
            task.name.clone(),
            task.train.len().to_string(),
            task.dev.len().to_string(),
            task.test.len().to_string(),
        ]);
    }
    let rad = radiology::build(scale.task());
    rows2.push(vec![
        "Radiology".into(),
        rad.lfs.len().to_string(),
        pct(rad.gold.iter().filter(|&&g| g == 1).count() as f64 / rad.gold.len() as f64),
        rad.corpus.num_documents().to_string(),
        rad.candidates.len().to_string(),
    ]);
    rows7.push(vec![
        "Radiology".into(),
        rad.train.len().to_string(),
        rad.dev.len().to_string(),
        rad.test.len().to_string(),
    ]);
    let crowd_task = crowd::build(snorkel_datasets::TaskConfig {
        num_candidates: 632,
        seed: scale.seed,
    });
    rows2.push(vec![
        "Crowd".into(),
        crowd_task.lfs.len().to_string(),
        "-".into(),
        crowd_task.corpus.num_documents().to_string(),
        crowd_task.candidates.len().to_string(),
    ]);
    rows7.push(vec![
        "Crowd".into(),
        crowd_task.train.len().to_string(),
        crowd_task.dev.len().to_string(),
        crowd_task.test.len().to_string(),
    ]);

    let mut out = String::from("## Table 2 — task summary statistics\n\n");
    out.push_str(
        "Paper: Chem 16 LFs 4.1% 1753 docs 65398 cands; EHR 24/36.8/47827/225607; \
         CDR 33/24.6/900/8272; Spouses 11/8.3/2073/22195; Radiology 18/36.0/3851/3851; \
         Crowd 102/-/505/505.\n\n",
    );
    out.push_str(&markdown_table(
        &["Task", "# LFs", "% Pos.", "# Docs", "# Candidates"],
        &rows2,
    ));
    out.push_str("\n## Table 7 — split sizes\n\n");
    out.push_str(
        "Paper: Chem 65398/1292/1232; EHR 225607/913/604; CDR 8272/888/4620; \
         Spouses 22195/2796/2697; Radiology 3851/385/385; Crowd 505/63/64.\n\n",
    );
    out.push_str(&markdown_table(
        &["Task", "# Train.", "# Dev.", "# Test"],
        &rows7,
    ));
    out
}

/// Table 3: the four-arm relation-extraction evaluation.
pub fn table3(scale: Scale) -> String {
    let mut rows = Vec::new();
    for task in binary_tasks(scale) {
        let e = eval_text_task(&task);
        let lift_gen = 100.0 * (e.generative.f1 - e.distant_supervision.f1);
        let lift_disc = 100.0 * (e.discriminative.f1 - e.distant_supervision.f1);
        rows.push(vec![
            e.name.clone(),
            fmt_prf(&e.distant_supervision),
            fmt_prf(&e.generative),
            format!("{lift_gen:+.1}"),
            fmt_prf(&e.discriminative),
            format!("{lift_disc:+.1}"),
            fmt_prf(&e.hand_supervision),
        ]);
    }
    let mut out = String::from("## Table 3 — relation extraction from text (P / R / F1)\n\n");
    out.push_str(
        "Paper F1 (DS → Gen → Disc → Hand): Chem 17.6 → 33.8 → 54.1 → n/a; \
         EHR 72.2 → 74.9 → 81.4 → n/a; CDR 29.4 → 38.5 → 45.3 → 47.3; \
         Spouses 15.4 → 57.4 → 54.2 → 54.2.\n\n",
    );
    out.push_str(&markdown_table(
        &[
            "Task",
            "Distant Supervision",
            "Snorkel (Gen.)",
            "Lift",
            "Snorkel (Disc.)",
            "Lift",
            "Hand Supervision",
        ],
        &rows,
    ));
    out
}

/// Table 4: cross-modal tasks (Radiology AUC, Crowd accuracy).
pub fn table4(scale: Scale) -> String {
    let mut rows = Vec::new();

    // Radiology: text LFs → generative labels → MLP on image features.
    let rad = radiology::build(scale.task());
    let lambda = rad.label_matrix(&rad.train);
    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary);
    let rad_cfg = TrainConfig {
        class_balance: snorkel_core::model::ClassBalance::Uniform,
        ..TrainConfig::default()
    };
    gm.fit(&lambda, None, &rad_cfg);
    let soft = gm.prob_positive(&lambda);
    let mlp_cfg = MlpConfig {
        input_dim: rad.image_dim,
        hidden_dim: 24,
        epochs: 40,
        ..MlpConfig::default()
    };
    let x_train = rad.images_of(&rad.train);
    let x_test = rad.images_of(&rad.test);
    let gold_test = rad.gold_of(&rad.test);
    let mut img_model = Mlp::new(&mlp_cfg);
    img_model.fit(&x_train, &soft, &mlp_cfg);
    let snorkel_auc = roc_auc(&img_model.predict_proba_all(&x_test), &gold_test);
    let mut hand_model = Mlp::new(&mlp_cfg);
    hand_model.fit_hard(&x_train, &rad.gold_of(&rad.train), &mlp_cfg);
    let hand_auc = roc_auc(&hand_model.predict_proba_all(&x_test), &gold_test);
    rows.push(vec![
        "Radiology (AUC)".into(),
        pct(snorkel_auc),
        pct(hand_auc),
    ]);

    // Crowd: worker LFs → generative labels → text model on tweets.
    let crowd_task = crowd::build(snorkel_datasets::TaskConfig {
        num_candidates: 632,
        seed: scale.seed,
    });
    let lambda = crowd_task.label_matrix(&crowd_task.train);
    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::MultiClass(5));
    let crowd_cfg = TrainConfig {
        class_balance: snorkel_core::model::ClassBalance::Uniform,
        ..TrainConfig::default()
    };
    gm.fit(&lambda, None, &crowd_cfg);
    let targets = gm.marginals(&lambda, None);
    let featurizer = TextFeaturizer::with_buckets(TEXT_BUCKETS);
    let train_ids: Vec<_> = crowd_task
        .train
        .iter()
        .map(|&r| crowd_task.candidates[r])
        .collect();
    let test_ids: Vec<_> = crowd_task
        .test
        .iter()
        .map(|&r| crowd_task.candidates[r])
        .collect();
    let x_train = featurizer.featurize_all(&crowd_task.corpus, &train_ids);
    let x_test = featurizer.featurize_all(&crowd_task.corpus, &test_ids);
    let gold_test = crowd_task.gold_of(&crowd_task.test);
    let sm_cfg = SoftmaxConfig {
        dim: TEXT_BUCKETS,
        classes: 5,
        epochs: 15,
        ..SoftmaxConfig::default()
    };
    let mut text_model = SoftmaxRegression::new(TEXT_BUCKETS, 5);
    text_model.fit(&x_train, &targets, &sm_cfg);
    let snorkel_acc = accuracy(&text_model.predict_votes(&x_test), &gold_test);
    let mut hand_model = SoftmaxRegression::new(TEXT_BUCKETS, 5);
    hand_model.fit_hard(&x_train, &crowd_task.gold_of(&crowd_task.train), &sm_cfg);
    let hand_acc = accuracy(&hand_model.predict_votes(&x_test), &gold_test);
    rows.push(vec!["Crowd (Acc)".into(), pct(snorkel_acc), pct(hand_acc)]);

    let mut out = String::from("## Table 4 — cross-modal tasks\n\n");
    out.push_str("Paper: Radiology AUC 72.0 (Snorkel) vs 76.2 (hand); Crowd Acc 65.6 vs 68.8.\n\n");
    out.push_str(&markdown_table(
        &["Task", "Snorkel (Disc.)", "Hand Supervision"],
        &rows,
    ));
    out
}

/// Table 5: disc model on generative labels vs on the unweighted LF
/// average, for all six tasks.
pub fn table5(scale: Scale) -> String {
    let mut rows = Vec::new();
    for task in binary_tasks(scale) {
        let e = eval_text_task(&task);
        rows.push(vec![
            e.name.clone(),
            pct(e.unweighted_disc.f1),
            pct(e.discriminative.f1),
            format!(
                "{:+.1}",
                100.0 * (e.discriminative.f1 - e.unweighted_disc.f1)
            ),
        ]);
    }

    // Radiology (AUC).
    let rad = radiology::build(scale.task());
    let lambda = rad.label_matrix(&rad.train);
    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary);
    let rad_cfg = TrainConfig {
        class_balance: snorkel_core::model::ClassBalance::Uniform,
        ..TrainConfig::default()
    };
    gm.fit(&lambda, None, &rad_cfg);
    let soft = gm.prob_positive(&lambda);
    let unweighted = unweighted_soft_labels(&lambda);
    let mlp_cfg = MlpConfig {
        input_dim: rad.image_dim,
        hidden_dim: 24,
        epochs: 40,
        ..MlpConfig::default()
    };
    let x_train = rad.images_of(&rad.train);
    let x_test = rad.images_of(&rad.test);
    let gold_test = rad.gold_of(&rad.test);
    let mut weighted_model = Mlp::new(&mlp_cfg);
    weighted_model.fit(&x_train, &soft, &mlp_cfg);
    let mut unweighted_model = Mlp::new(&mlp_cfg);
    unweighted_model.fit(&x_train, &unweighted, &mlp_cfg);
    let auc_w = roc_auc(&weighted_model.predict_proba_all(&x_test), &gold_test);
    let auc_u = roc_auc(&unweighted_model.predict_proba_all(&x_test), &gold_test);
    rows.push(vec![
        "Radiology (AUC)".into(),
        pct(auc_u),
        pct(auc_w),
        format!("{:+.1}", 100.0 * (auc_w - auc_u)),
    ]);

    // Crowd (Acc): unweighted average of one-hot worker votes.
    let crowd_task = crowd::build(snorkel_datasets::TaskConfig {
        num_candidates: 632,
        seed: scale.seed,
    });
    let lambda = crowd_task.label_matrix(&crowd_task.train);
    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::MultiClass(5));
    let crowd_cfg = TrainConfig {
        class_balance: snorkel_core::model::ClassBalance::Uniform,
        ..TrainConfig::default()
    };
    gm.fit(&lambda, None, &crowd_cfg);
    let targets_gm = gm.marginals(&lambda, None);
    let mut targets_unw = Vec::with_capacity(lambda.num_points());
    for i in 0..lambda.num_points() {
        let (_, votes) = lambda.row(i);
        let mut t = vec![0.0f64; 5];
        if votes.is_empty() {
            t.fill(0.2);
        } else {
            for &v in votes {
                t[(v as usize) - 1] += 1.0 / votes.len() as f64;
            }
        }
        targets_unw.push(t);
    }
    let featurizer = TextFeaturizer::with_buckets(TEXT_BUCKETS);
    let train_ids: Vec<_> = crowd_task
        .train
        .iter()
        .map(|&r| crowd_task.candidates[r])
        .collect();
    let test_ids: Vec<_> = crowd_task
        .test
        .iter()
        .map(|&r| crowd_task.candidates[r])
        .collect();
    let x_train = featurizer.featurize_all(&crowd_task.corpus, &train_ids);
    let x_test = featurizer.featurize_all(&crowd_task.corpus, &test_ids);
    let gold_test = crowd_task.gold_of(&crowd_task.test);
    let sm_cfg = SoftmaxConfig {
        dim: TEXT_BUCKETS,
        classes: 5,
        epochs: 15,
        ..SoftmaxConfig::default()
    };
    let mut m_gm = SoftmaxRegression::new(TEXT_BUCKETS, 5);
    m_gm.fit(&x_train, &targets_gm, &sm_cfg);
    let mut m_unw = SoftmaxRegression::new(TEXT_BUCKETS, 5);
    m_unw.fit(&x_train, &targets_unw, &sm_cfg);
    let acc_gm = accuracy(&m_gm.predict_votes(&x_test), &gold_test);
    let acc_unw = accuracy(&m_unw.predict_votes(&x_test), &gold_test);
    rows.push(vec![
        "Crowd (Acc)".into(),
        pct(acc_unw),
        pct(acc_gm),
        format!("{:+.1}", 100.0 * (acc_gm - acc_unw)),
    ]);

    let mut out = String::from("## Table 5 — generative labels vs unweighted LF average\n\n");
    out.push_str(
        "Paper (unweighted → disc → lift): Chem 48.6 → 54.1 +5.5; EHR 80.9 → 81.4 +0.5; \
         CDR 42.0 → 45.3 +3.3; Spouses 52.8 → 54.2 +1.4; Crowd 62.5 → 65.6 +3.1; \
         Rad 67.0 → 72.0 +5.0.\n\n",
    );
    out.push_str(&markdown_table(
        &["Task", "Disc. on Unweighted LFs", "Disc. Model", "Lift"],
        &rows,
    ));
    out
}

/// Table 6: labeling-function type ablation on CDR.
pub fn table6(scale: Scale) -> String {
    let task = cdr::build(scale.task());
    let featurizer = TextFeaturizer::with_buckets(TEXT_BUCKETS);
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let test_ids: Vec<_> = task.test.iter().map(|&r| task.candidates[r]).collect();
    let x_train = featurizer.featurize_all(&task.corpus, &train_ids);
    let x_test = featurizer.featurize_all(&task.corpus, &test_ids);
    let gold_test = task.gold_of(&task.test);

    let stages: [(&str, Vec<LfType>); 4] = [
        ("Text Patterns", vec![LfType::Pattern]),
        (
            "+ Distant Supervision",
            vec![LfType::Pattern, LfType::DistantSupervision],
        ),
        (
            "+ Structure-based",
            vec![
                LfType::Pattern,
                LfType::DistantSupervision,
                LfType::StructureBased,
            ],
        ),
        (
            "+ Weak Classifiers",
            vec![
                LfType::Pattern,
                LfType::DistantSupervision,
                LfType::StructureBased,
                LfType::WeakClassifier,
            ],
        ),
    ];

    let mut rows = Vec::new();
    let mut prev_f1: Option<f64> = None;
    for (name, types) in stages {
        let idx = task.lf_indices_of(&types);
        let lambda = task.label_matrix_with_lfs(&task.train, &idx);
        let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary);
        let cfg6 = TrainConfig {
            class_balance: snorkel_core::model::ClassBalance::Uniform,
            ..TrainConfig::default()
        };
        gm.fit(&lambda, None, &cfg6);
        let soft = gm.prob_positive(&lambda);
        let mut disc = LogisticRegression::new(TEXT_BUCKETS);
        disc.fit(&x_train, &soft, &logreg_config());
        let prf = precision_recall_f1(&disc.predict_all(&x_test), &gold_test);
        let lift = prev_f1.map_or(String::new(), |p| format!("{:+.1}", 100.0 * (prf.f1 - p)));
        prev_f1 = Some(prf.f1);
        rows.push(vec![
            name.to_string(),
            pct(prf.precision),
            pct(prf.recall),
            pct(prf.f1),
            lift,
        ]);
    }

    let mut out = String::from("## Table 6 — LF type ablation on CDR\n\n");
    out.push_str(
        "Paper: Text Patterns 42.3/42.4/42.3; +DS 37.5/54.1/44.3 (+2.0); \
         +Structure 38.8/54.3/45.3 (+1.0). (We additionally report the \
         weak-classifier stage our suite includes.)\n\n",
    );
    out.push_str(&markdown_table(&["LF Type", "P", "R", "F1", "Lift"], &rows));
    out
}
