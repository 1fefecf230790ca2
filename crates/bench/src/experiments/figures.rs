//! Figures 4, 5, and 6 of the paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_core::label_model::LabelModel;

use snorkel_core::bounds::{high_density_bound, low_density_bound};
use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_core::optimizer::{advantage_upper_bound, elbow_point, OptimizerConfig};
use snorkel_core::structure::{structure_sweep, StructureConfig};
use snorkel_core::vote::modeling_advantage;
use snorkel_datasets::synthetic::{correlated_matrix, heterogeneous_matrix, Cluster};
use snorkel_datasets::{cdr, spouses, user_study};
use snorkel_disc::metrics::f1_score;
use snorkel_lf::LfExecutor;
use snorkel_matrix::LabelMatrix;

use crate::experiments::Scale;
use crate::markdown_table;

/// Figure 4: modeling advantage vs number of labeling functions on the
/// synthetic dataset (m = 1000, mean accuracy 75%, propensity 10%).
///
/// Series: empirical advantage of the learned generative model (`Aw`),
/// the optimal-weights advantage (`A*`, weights from true accuracies),
/// the optimizer's upper bound (`A~*`), and the closed-form low/high
/// density bounds.
pub fn fig4(scale: Scale) -> String {
    let m = 1000;
    let propensity = 0.1;
    let ns = [
        1usize, 2, 3, 5, 8, 12, 18, 27, 40, 60, 90, 135, 200, 300, 450,
    ];
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(scale.seed.wrapping_add(44));

    for &n in &ns {
        // Accuracies vary around the 75% mean (uniform 0.6–0.9): with
        // identical accuracies the optimal weighted vote degenerates to
        // majority vote and every advantage is zero.
        let accs: Vec<f64> = (0..n).map(|_| 0.6 + 0.3 * rng.gen::<f64>()).collect();
        let (lambda, gold) = heterogeneous_matrix(m, &accs, propensity, scale.seed + n as u64);

        let mut gm = GenerativeModel::new(n, LabelScheme::Binary);
        gm.fit(&lambda, None, &TrainConfig::default());
        let aw = modeling_advantage(&lambda, gm.accuracy_weights(), &gold);

        let w_star: Vec<f64> = accs.iter().map(|&a| 0.5 * (a / (1.0 - a)).ln()).collect();
        let a_star = modeling_advantage(&lambda, &w_star, &gold);

        let bound = advantage_upper_bound(&lambda, &OptimizerConfig::default());
        let mean_acc = accs.iter().sum::<f64>() / n as f64;
        let low = low_density_bound(n, propensity, mean_acc);
        let high = high_density_bound(n, propensity, mean_acc);

        rows.push(vec![
            n.to_string(),
            format!("{:.2}", lambda.label_density()),
            format!("{:.4}", aw),
            format!("{:.4}", a_star),
            format!("{:.4}", bound),
            format!("{:.4}", low.min(1.0)),
            format!("{:.4}", high),
        ]);
    }

    let mut out = String::from(
        "## Figure 4 — modeling advantage vs #LFs (synthetic: m=1000, ᾱ=75%, p_l=10%)\n\n",
    );
    out.push_str(
        "Expected shape: advantage near zero at low density, peaks in the mid-density \
         regime, and decays at high density where majority vote converges to optimal; \
         A~* upper-bounds A*, and the low-density bound caps the left flank.\n\n",
    );
    out.push_str(&markdown_table(
        &[
            "n",
            "d_Λ",
            "Aw (GM)",
            "A* (optimal)",
            "A~* (optimizer)",
            "low-density bound",
            "high-density bound",
        ],
        &rows,
    ));
    out
}

/// One panel of Figure 5: sweep ε, report correlations selected and the
/// resulting generative-model F1.
fn fig5_panel(
    title: &str,
    paper_note: &str,
    lambda_train: &LabelMatrix,
    lambda_eval: &LabelMatrix,
    gold_eval: &[snorkel_lf::Vote],
) -> String {
    let epsilons: Vec<f64> = (1..=12).rev().map(|i| i as f64 * 0.04).collect();
    let sweep = structure_sweep(lambda_train, &epsilons, &StructureConfig::default());
    let counts: Vec<(f64, usize)> = sweep.iter().map(|(e, c, _)| (*e, *c)).collect();
    let elbow = elbow_point(&counts);

    let mut rows = Vec::new();
    // Baseline: the independent model (ε = ∞, no correlations).
    {
        let mut gm = GenerativeModel::new(lambda_train.num_lfs(), LabelScheme::Binary);
        gm.fit(lambda_train, None, &TrainConfig::default());
        let f1 = f1_score(&gm.predicted_labels(lambda_eval), gold_eval);
        rows.push(vec![
            "∞ (independent)".into(),
            "0".into(),
            format!("{:.1}", 100.0 * f1),
            String::new(),
        ]);
    }
    for (i, (eps, count, report)) in sweep.iter().enumerate() {
        let mut gm = GenerativeModel::new(lambda_train.num_lfs(), LabelScheme::Binary)
            .with_weighted_correlations(&report.pairs, &report.weights);
        gm.fit(lambda_train, None, &TrainConfig::default());
        let pred = gm.predicted_labels(lambda_eval);
        let f1 = f1_score(&pred, gold_eval);
        rows.push(vec![
            format!("{eps:.2}"),
            count.to_string(),
            format!("{:.1}", 100.0 * f1),
            if i == elbow {
                "← elbow".into()
            } else {
                String::new()
            },
        ]);
    }

    let mut out = format!("### Figure 5 ({title})\n\n{paper_note}\n\n");
    out.push_str(&markdown_table(
        &["ε", "# correlations", "GM F1", ""],
        &rows,
    ));
    out
}

/// Figure 5: predictive performance and number of learned correlations
/// versus the correlation threshold ε, on (left) a simulation with more
/// than half the LFs correlated, (middle) CDR, and (right) the pooled
/// user-study LFs on Spouses.
pub fn fig5(scale: Scale) -> String {
    let mut out = String::from("## Figure 5 — structure learning tradeoff\n\n");

    // Left panel: simulated correlated LFs.
    // Example 3.1's regime: half the suite is three blocks of noisy
    // near-copies; the independent model badly over-counts them.
    let clusters = [
        Cluster {
            size: 4,
            accuracy: 0.5,
            deviation: 0.02,
        },
        Cluster {
            size: 4,
            accuracy: 0.5,
            deviation: 0.02,
        },
        Cluster {
            size: 4,
            accuracy: 0.55,
            deviation: 0.05,
        },
    ];
    let (lambda, gold, _) =
        correlated_matrix(1000, 8, 0.8, &clusters, 0.5, scale.seed.wrapping_add(55));
    out.push_str(&fig5_panel(
        "left: simulated labeling functions",
        "Paper shape: F1 jumps once the key correlations are modeled, then plateaus; \
         the correlation count explodes as ε → 0.",
        &lambda,
        &lambda,
        &gold,
    ));

    // Middle panel: CDR.
    let task = cdr::build(scale.task());
    let lambda_train = task.train_matrix();
    let lambda_test = task.label_matrix(&task.test);
    let gold_test = task.gold_of(&task.test);
    out.push('\n');
    out.push_str(&fig5_panel(
        "middle: CDR labeling functions",
        "Paper shape: performance improves as ε decreases until the model overfits; \
         the elbow avoids the overfit region at a fraction of the cost.",
        &lambda_train,
        &lambda_test,
        &gold_test,
    ));

    // Right panel: pooled user-study LFs on Spouses.
    let sp = spouses::build(scale.task());
    let participants = user_study::sample_participants(scale.seed.wrapping_add(77));
    let pool = user_study::pooled_lfs(&participants, scale.seed.wrapping_add(78));
    let train_ids: Vec<_> = sp.train.iter().map(|&r| sp.candidates[r]).collect();
    let test_ids: Vec<_> = sp.test.iter().map(|&r| sp.candidates[r]).collect();
    let lambda_train = LfExecutor::new().apply(&pool, &sp.corpus, &train_ids);
    let lambda_test = LfExecutor::new().apply(&pool, &sp.corpus, &test_ids);
    let gold_test = sp.gold_of(&sp.test);
    out.push('\n');
    out.push_str(&fig5_panel(
        &format!("right: all {} user-study LFs on Spouses", pool.len()),
        "Paper shape: with many redundant user-written LFs, structure learning \
         surpasses the best individual generative model.",
        &lambda_train,
        &lambda_test,
        &gold_test,
    ));
    out
}

/// Figure 6: modeling advantage vs number of CDR LFs (random subsets),
/// with the optimizer's bound and its MV/GM decision.
pub fn fig6(scale: Scale) -> String {
    let task = cdr::build(scale.task());
    let lambda_full = task.train_matrix();
    let lambda_test_full = task.label_matrix(&task.test);
    let gold_test = task.gold_of(&task.test);
    let n = lambda_full.num_lfs();
    let mut rng = StdRng::seed_from_u64(scale.seed.wrapping_add(66));
    let cfg = OptimizerConfig::default();

    let mut rows = Vec::new();
    for &k in &[3usize, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33] {
        // Average over a few random LF subsets of size k.
        let reps = if k == n { 1 } else { 3 };
        let mut aw_sum = 0.0;
        let mut bound_sum = 0.0;
        for _ in 0..reps {
            let mut cols: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                cols.swap(i, j);
            }
            let subset: Vec<usize> = cols[..k].to_vec();
            let sub_train = lambda_full
                .select_columns(&subset)
                .expect("subset in range");
            let sub_test = lambda_test_full
                .select_columns(&subset)
                .expect("subset in range");
            let mut gm = GenerativeModel::new(k, LabelScheme::Binary);
            gm.fit(&sub_train, None, &TrainConfig::default());
            aw_sum += modeling_advantage(&sub_test, gm.accuracy_weights(), &gold_test);
            bound_sum += advantage_upper_bound(&sub_train, &cfg);
        }
        let aw = aw_sum / reps as f64;
        let bound = bound_sum / reps as f64;
        let choice = if bound < cfg.gamma { "MV" } else { "GM" };
        rows.push(vec![
            k.to_string(),
            format!("{:.4}", aw),
            format!("{:.4}", bound),
            choice.to_string(),
        ]);
    }

    let mut out = String::from("## Figure 6 — advantage vs #LFs on CDR subsets\n\n");
    out.push_str(
        "Paper shape: the advantage grows with the number of LFs; the optimizer \
         chooses MV during early development (few LFs) and GM later.\n\n",
    );
    out.push_str(&markdown_table(
        &["# LFs", "Aw (GM)", "A~* (optimizer)", "Choice"],
        &rows,
    ));
    out
}
