//! The §4.2 user study (Figures 7–8, Table 8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_core::label_model::LabelModel;

use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_datasets::user_study::{participant_lfs, sample_participants, Education, SkillLevel};
use snorkel_datasets::{spouses, RelationTask};
use snorkel_disc::metrics::f1_score;
use snorkel_disc::{LogisticRegression, TextFeaturizer};
use snorkel_lf::{LfExecutor, Vote};
use snorkel_linalg::Summary;

use crate::experiments::Scale;
use crate::{best_f1_threshold, logreg_config, markdown_table, predict_at, TEXT_BUCKETS};

/// Outcome for one simulated participant.
#[derive(Clone, Debug)]
pub struct ParticipantOutcome {
    /// Participant id.
    pub id: usize,
    /// Derived skill score.
    pub skill: f64,
    /// Number of LFs the participant wrote.
    pub num_lfs: usize,
    /// End-model F1 on the Spouses test split.
    pub f1: f64,
    /// Education bucket.
    pub education: Education,
    /// Python skill.
    pub python: SkillLevel,
    /// ML experience.
    pub machine_learning: SkillLevel,
    /// Text-mining experience.
    pub text_mining: SkillLevel,
}

/// Train one participant's Snorkel pipeline end to end.
fn run_participant(
    task: &RelationTask,
    x_train: &[snorkel_linalg::SparseVec],
    x_dev: &[snorkel_linalg::SparseVec],
    x_test: &[snorkel_linalg::SparseVec],
    gold_dev: &[Vote],
    gold_test: &[Vote],
    p: &snorkel_datasets::user_study::Participant,
    seed: u64,
) -> ParticipantOutcome {
    let lfs = participant_lfs(p, seed);
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let lambda = LfExecutor::new().apply(&lfs, &task.corpus, &train_ids);
    let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary);
    let cfg = TrainConfig {
        class_balance: snorkel_core::model::ClassBalance::Uniform,
        ..TrainConfig::default()
    };
    gm.fit(&lambda, None, &cfg);
    let soft = gm.prob_positive(&lambda);
    let mut disc = LogisticRegression::new(TEXT_BUCKETS);
    disc.fit(x_train, &soft, &logreg_config());
    let thr = best_f1_threshold(&disc.predict_proba_all(x_dev), gold_dev);
    let f1 = f1_score(&predict_at(&disc.predict_proba_all(x_test), thr), gold_test);
    ParticipantOutcome {
        id: p.id,
        skill: p.skill,
        num_lfs: lfs.len(),
        f1,
        education: p.education,
        python: p.python,
        machine_learning: p.machine_learning,
        text_mining: p.text_mining,
    }
}

/// Hand-label baseline: a disc model trained on `n_labels` crowdsourced
/// labels (gold with 10% flip noise — the paper's AMT labels were
/// majority-of-three crowd votes, not perfect).
fn run_hand_baseline(
    task: &RelationTask,
    x_train: &[snorkel_linalg::SparseVec],
    x_dev: &[snorkel_linalg::SparseVec],
    x_test: &[snorkel_linalg::SparseVec],
    gold_dev: &[Vote],
    gold_test: &[Vote],
    label_fraction: f64,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<usize> = (0..task.train.len()).collect();
    for i in (1..rows.len()).rev() {
        let j = rng.gen_range(0..=i);
        rows.swap(i, j);
    }
    let take = ((task.train.len() as f64 * label_fraction).round() as usize).max(1);
    let mut labels: Vec<Vote> = vec![0; task.train.len()];
    for &r in &rows[..take] {
        let g = task.gold[task.train[r]];
        labels[r] = if rng.gen::<f64>() < 0.1 { -g } else { g };
    }
    let mut disc = LogisticRegression::new(TEXT_BUCKETS);
    disc.fit_hard(x_train, &labels, &logreg_config());
    let thr = best_f1_threshold(&disc.predict_proba_all(x_dev), gold_dev);
    f1_score(&predict_at(&disc.predict_proba_all(x_test), thr), gold_test)
}

/// Run the full user-study simulation and render Figures 7–8 + Table 8.
pub fn user_study_report(scale: Scale) -> String {
    let task = spouses::build(scale.task());
    let featurizer = TextFeaturizer::with_buckets(TEXT_BUCKETS);
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let dev_ids: Vec<_> = task.dev.iter().map(|&r| task.candidates[r]).collect();
    let test_ids: Vec<_> = task.test.iter().map(|&r| task.candidates[r]).collect();
    let x_train = featurizer.featurize_all(&task.corpus, &train_ids);
    let x_dev = featurizer.featurize_all(&task.corpus, &dev_ids);
    let x_test = featurizer.featurize_all(&task.corpus, &test_ids);
    let gold_dev = task.gold_of(&task.dev);
    let gold_test = task.gold_of(&task.test);

    let participants = sample_participants(scale.seed.wrapping_add(77));
    let outcomes: Vec<ParticipantOutcome> = participants
        .iter()
        .map(|p| {
            run_participant(
                &task,
                &x_train,
                &x_dev,
                &x_test,
                &gold_dev,
                &gold_test,
                p,
                scale.seed.wrapping_add(78),
            )
        })
        .collect();

    // 14 hand-label baselines, one per participant. The paper's "7 hours
    // of labeling" bought 2,500 of 22,195 training candidates (≈11%) —
    // scale the same fraction to our corpus size.
    let hand: Vec<f64> = (0..outcomes.len())
        .map(|i| {
            run_hand_baseline(
                &task,
                &x_train,
                &x_dev,
                &x_test,
                &gold_dev,
                &gold_test,
                2500.0 / 22195.0,
                scale.seed.wrapping_add(100 + i as u64),
            )
        })
        .collect();

    let snorkel_scores: Vec<f64> = outcomes.iter().map(|o| o.f1).collect();
    let s_summary = Summary::of(&snorkel_scores);
    let h_summary = Summary::of(&hand);
    let beat = outcomes
        .iter()
        .zip(&hand)
        .filter(|(o, &h)| o.f1 >= h)
        .count();

    let mut out = String::from("## User study (Figures 7–8, Table 8)\n\n");
    out.push_str(&format!(
        "Paper: mean Snorkel user 30.4 F1 vs mean hand-supervision 20.9 F1; 8 of 14 \
         participants matched or beat their hand-label baseline; best user 48.7 F1.\n\n\
         Simulated: mean Snorkel {:.1} F1 (min {:.1}, max {:.1}) vs mean hand baseline \
         {:.1} F1; {} of {} participants matched or beat their baseline.\n\n",
        100.0 * s_summary.mean(),
        100.0 * s_summary.min(),
        100.0 * s_summary.max(),
        100.0 * h_summary.mean(),
        beat,
        outcomes.len(),
    ));

    // Figure 7: per-participant scores.
    let mut rows: Vec<Vec<String>> = outcomes
        .iter()
        .zip(&hand)
        .map(|(o, &h)| {
            vec![
                format!("P{:02}", o.id),
                format!("{:.2}", o.skill),
                o.num_lfs.to_string(),
                format!("{:.1}", 100.0 * o.f1),
                format!("{:.1}", 100.0 * h),
                if o.f1 >= h {
                    "✓".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    rows.sort_by(|a, b| {
        b[3].parse::<f64>()
            .unwrap()
            .total_cmp(&a[3].parse::<f64>().unwrap())
    });
    out.push_str("### Figure 7 — participant scores vs hand-label baselines\n\n");
    out.push_str(&markdown_table(
        &[
            "Participant",
            "Skill",
            "# LFs",
            "Snorkel F1",
            "Hand F1",
            "≥ baseline",
        ],
        &rows,
    ));

    // Figure 8: F1 by background factor.
    out.push_str("\n### Figure 8 — F1 by participant background\n\n");
    for (factor, extract) in [
        ("Education", 0usize),
        ("Python", 1),
        ("Machine Learning", 2),
        ("Text Mining", 3),
    ] {
        let mut groups: std::collections::BTreeMap<String, Vec<f64>> =
            std::collections::BTreeMap::new();
        for o in &outcomes {
            let key = match extract {
                0 => format!("{:?}", o.education),
                1 => format!("{:?}", o.python),
                2 => format!("{:?}", o.machine_learning),
                _ => format!("{:?}", o.text_mining),
            };
            groups.entry(key).or_default().push(o.f1);
        }
        let rows: Vec<Vec<String>> = groups
            .into_iter()
            .map(|(k, v)| {
                let s = Summary::of(&v);
                vec![
                    k,
                    v.len().to_string(),
                    format!("{:.1}", 100.0 * s.mean()),
                    format!("{:.1}", 100.0 * s.median()),
                ]
            })
            .collect();
        out.push_str(&format!("**{factor}**\n\n"));
        out.push_str(&markdown_table(
            &["Level", "n", "Mean F1", "Median F1"],
            &rows,
        ));
        out.push('\n');
    }

    // Table 8: profile marginals.
    out.push_str("### Table 8 — self-reported skill levels\n\n");
    let mut rows8 = Vec::new();
    for (name, extract) in [
        ("Python", 1usize),
        ("Machine Learning", 2),
        ("Text Mining", 3),
    ] {
        let count = |lvl: SkillLevel| {
            outcomes
                .iter()
                .filter(|o| match extract {
                    1 => o.python == lvl,
                    2 => o.machine_learning == lvl,
                    _ => o.text_mining == lvl,
                })
                .count()
                .to_string()
        };
        rows8.push(vec![
            name.to_string(),
            count(SkillLevel::New),
            count(SkillLevel::Beginner),
            count(SkillLevel::Intermediate),
            count(SkillLevel::Advanced),
        ]);
    }
    out.push_str(&markdown_table(
        &["Subject", "New", "Beg.", "Int.", "Adv."],
        &rows8,
    ));
    out
}
