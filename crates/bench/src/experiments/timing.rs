//! The §3 wall-clock claims: the optimizer's 1.8× pipeline speedup
//! (skipping generative training on Chem) and the elbow point's
//! training-time savings on the ε sweep.

use snorkel_core::label_model::LabelModel;
use std::time::Instant;

use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_core::optimizer::{elbow_point, ModelingStrategy, OptimizerConfig};
use snorkel_core::pipeline::{Pipeline, PipelineConfig};
use snorkel_core::structure::{structure_sweep, StructureConfig};
use snorkel_datasets::{chem, spouses, user_study};
use snorkel_lf::LfExecutor;

use crate::experiments::Scale;
use crate::markdown_table;

/// Speedup report: optimizer-gated pipeline vs always-train-GM on Chem,
/// and elbow-ε vs smallest-ε generative training cost on CDR.
pub fn speedup(scale: Scale) -> String {
    let mut out = String::from("## §3 timing claims\n\n");

    // Chem: MV (optimizer) vs forced GM, measured as full pipeline
    // executions — LF application included, as in the paper's
    // "per pipeline execution" framing.
    let task = chem::build(scale.task());
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let optimized = Pipeline::new(PipelineConfig {
        optimizer: OptimizerConfig {
            skip_structure_search: true,
            ..OptimizerConfig::default()
        },
        ..PipelineConfig::default()
    });
    let forced = Pipeline::new(PipelineConfig {
        force_strategy: Some(ModelingStrategy::GenerativeModel {
            epsilon: 0.0,
            correlations: Vec::new(),
            strengths: Vec::new(),
        }),
        ..PipelineConfig::default()
    });
    let t0 = Instant::now();
    let (_, report_opt) = optimized.run(&task.lfs, &task.corpus, &train_ids);
    let opt_time = t0.elapsed();
    let t1 = Instant::now();
    let (_, report_gm) = forced.run(&task.lfs, &task.corpus, &train_ids);
    let gm_time = t1.elapsed();
    let ratio = gm_time.as_secs_f64() / opt_time.as_secs_f64().max(1e-9);
    out.push_str(&format!(
        "### Chem pipeline speedup (paper: 1.8×)\n\n\
         Optimizer chose {:?}. Full pipeline (LF application + modeling): \
         optimizer-gated {:.1} ms vs always-GM {:.1} ms → **{:.1}× speedup** \
         (modeling stage alone: {:.1} ms vs {:.1} ms).\n\n",
        match report_opt.strategy {
            ModelingStrategy::MajorityVote => "MV",
            ModelingStrategy::MomentMatching => "MoM",
            ModelingStrategy::GenerativeModel { .. } => "GM",
        },
        1e3 * opt_time.as_secs_f64(),
        1e3 * gm_time.as_secs_f64(),
        ratio,
        1e3 * (report_opt.timings.strategy_selection + report_opt.timings.training).as_secs_f64(),
        1e3 * (report_gm.timings.strategy_selection + report_gm.timings.training).as_secs_f64(),
    ));

    // Spouses user-study pool (the paper's 125-LF redundant suite, where
    // fitting at ε = 0.02 took 57 minutes vs 4 at ε = 0.5): training
    // cost at the elbow ε vs at the smallest ε.
    let task = spouses::build(scale.task());
    let participants = user_study::sample_participants(scale.seed.wrapping_add(77));
    let pool = user_study::pooled_lfs(&participants, scale.seed.wrapping_add(78));
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let lambda = LfExecutor::new().apply(&pool, &task.corpus, &train_ids);
    let epsilons: Vec<f64> = (1..=25).rev().map(|i| i as f64 * 0.02).collect();
    let t2 = Instant::now();
    let sweep = structure_sweep(&lambda, &epsilons, &StructureConfig::default());
    let sweep_time = t2.elapsed();
    let counts: Vec<(f64, usize)> = sweep.iter().map(|(e, c, _)| (*e, *c)).collect();
    let elbow = elbow_point(&counts);
    let elbow_pairs = &sweep[elbow].2.pairs;
    let full_pairs = &sweep.last().expect("non-empty sweep").2.pairs;

    let time_fit = |pairs: &[(usize, usize)]| {
        let t = Instant::now();
        let mut gm =
            GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary).with_correlations(pairs);
        gm.fit(&lambda, None, &TrainConfig::default());
        t.elapsed()
    };
    let elbow_time = time_fit(elbow_pairs);
    let full_time = time_fit(full_pairs);
    let saving = 100.0 * (1.0 - elbow_time.as_secs_f64() / full_time.as_secs_f64().max(1e-9));

    out.push_str(&format!(
        "### User-study-pool structure tradeoff, {} LFs (paper: elbow saves up to 61% of training time)\n\n",
        lambda.num_lfs(),
    ));
    out.push_str(&markdown_table(
        &["Quantity", "Value"],
        &[
            vec![
                "ε sweep (25 values)".into(),
                format!("{:.1} ms", 1e3 * sweep_time.as_secs_f64()),
            ],
            vec![
                format!(
                    "GM fit at elbow ε={:.2} ({} correlations)",
                    sweep[elbow].0,
                    elbow_pairs.len()
                ),
                format!("{:.1} ms", 1e3 * elbow_time.as_secs_f64()),
            ],
            vec![
                format!(
                    "GM fit at ε={:.2} ({} correlations)",
                    sweep.last().unwrap().0,
                    full_pairs.len()
                ),
                format!("{:.1} ms", 1e3 * full_time.as_secs_f64()),
            ],
            vec![
                "Training-time saving at elbow".into(),
                format!("{saving:.0}%"),
            ],
        ],
    ));
    out
}
