//! Failure-injection tests: the pipeline must stay sane under degenerate
//! and adversarial inputs — empty matrices, all-abstain suites,
//! adversarial LFs, single-class corpora, and duplicate-heavy suites.

#[path = "../crates/core/tests/support/identity_plan.rs"]
mod identity_plan;

use identity_plan::identity_plan;
use snorkel::core::label_model::LabelModel;
use snorkel::core::model::{ClassBalance, GenerativeModel, LabelScheme, TrainConfig};
use snorkel::core::pipeline::{run_pipeline, Pipeline, PipelineConfig};
use snorkel::core::structure::{learn_structure, StructureConfig};
use snorkel::core::vote::majority_vote;
use snorkel::datasets::synthetic::{heterogeneous_matrix, independent_matrix};
use snorkel::matrix::{LabelMatrix, LabelMatrixBuilder, ShardedMatrix};

#[test]
fn empty_matrix_flows_through() {
    let lambda = LabelMatrixBuilder::new(0, 4).build();
    let (labels, report) = run_pipeline(&lambda);
    assert!(labels.is_empty());
    assert_eq!(report.label_density, 0.0);
    let report = learn_structure(&lambda, &StructureConfig::default());
    assert!(report.pairs.is_empty());
}

#[test]
fn all_abstain_matrix_yields_uniform_labels() {
    let lambda = LabelMatrixBuilder::new(50, 3).build(); // no votes at all
    let (labels, _) = run_pipeline(&lambda);
    assert_eq!(labels.len(), 50);
    for row in labels {
        assert!(
            (row[0] - 0.5).abs() < 0.35,
            "no-evidence rows stay near uniform"
        );
    }
}

#[test]
fn adversarial_lf_is_downweighted() {
    // Three good LFs + one consistently wrong one: the fitted weight of
    // the adversary must be the smallest.
    let (lambda, _) = heterogeneous_matrix(3000, &[0.85, 0.85, 0.8, 0.15], 0.6, 99);
    let mut gm = GenerativeModel::new(4, LabelScheme::Binary);
    gm.fit(&lambda, None, &TrainConfig::default());
    let w = gm.accuracy_weights();
    assert!(
        w[3] < w[0] && w[3] < w[1] && w[3] < w[2],
        "adversarial LF must get the lowest weight: {w:?}"
    );
    assert!(
        w[3] < 0.0,
        "adversarial LF weight should be negative: {}",
        w[3]
    );
}

#[test]
fn single_class_votes_do_not_panic() {
    // Every LF only ever votes +1.
    let mut b = LabelMatrixBuilder::new(100, 3);
    for i in 0..100 {
        for j in 0..3 {
            if (i + j) % 3 == 0 {
                b.set(i, j, 1);
            }
        }
    }
    let lambda = b.build();
    let (labels, _) = run_pipeline(&lambda);
    assert_eq!(labels.len(), 100);
    assert!(labels.iter().all(|r| r[0].is_finite()));
    let mv = majority_vote(&lambda);
    assert!(mv.iter().all(|&v| v == 1 || v == 0));
}

#[test]
fn duplicate_heavy_suite_stays_stable() {
    // 10 exact copies of one LF plus 2 independents: the correlated fit
    // must produce finite weights and calibrated-ish labels.
    let (base, _) = independent_matrix(1000, 3, 0.8, 0.6, 5);
    let mut b = LabelMatrixBuilder::new(1000, 12);
    for i in 0..1000 {
        let (cols, votes) = base.row(i);
        for (&c, &v) in cols.iter().zip(votes) {
            if c == 0 {
                for copy in 0..10 {
                    b.set(i, copy, v);
                }
            } else {
                b.set(i, 9 + c as usize, v);
            }
        }
    }
    let lambda = b.build();
    let pairs: Vec<(usize, usize)> = (0..10)
        .flat_map(|a| ((a + 1)..10).map(move |b2| (a, b2)))
        .collect();
    let mut gm = GenerativeModel::new(12, LabelScheme::Binary).with_correlations(&pairs);
    gm.fit(&lambda, None, &TrainConfig::default());
    assert!(gm.accuracy_weights().iter().all(|w| w.is_finite()));
    assert!(gm.correlation_weights().iter().all(|w| w.is_finite()));
    let probs = gm.prob_positive(&lambda);
    assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
}

#[test]
fn forced_mv_matches_direct_majority_vote() {
    let (lambda, _) = independent_matrix(500, 5, 0.75, 0.4, 8);
    let cfg = PipelineConfig {
        force_strategy: Some(snorkel::core::ModelingStrategy::MajorityVote),
        ..PipelineConfig::default()
    };
    let (labels, _) = Pipeline::new(cfg).run_from_matrix(&lambda);
    let mv = majority_vote(&lambda);
    for (row, &v) in labels.iter().zip(&mv) {
        match v {
            1 => assert_eq!(row[0], 1.0),
            -1 => assert_eq!(row[0], 0.0),
            _ => assert_eq!(row[0], 0.5),
        }
    }
}

#[test]
fn class_balance_variants_all_train() {
    let (lambda, _) = independent_matrix(800, 4, 0.8, 0.5, 3);
    for balance in [
        ClassBalance::Uniform,
        ClassBalance::FromMajorityVote,
        ClassBalance::Fixed(vec![0.2, 0.8]),
    ] {
        let mut gm = GenerativeModel::new(4, LabelScheme::Binary);
        let cfg = TrainConfig {
            class_balance: balance,
            ..TrainConfig::default()
        };
        gm.fit(&lambda, None, &cfg);
        assert!(gm.accuracy_weights().iter().all(|w| w.is_finite()));
        let prior = gm.implied_class_prior();
        assert!((prior.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// Adversarial pattern shapes: the sharded scale-out path must degrade
// *identically* to the dense (row-wise) path — same marginals bit for
// bit under fixed weights, same optimum (≤1e-9) after fitting.
// ---------------------------------------------------------------------

/// Fit the same model through the identity plan (the row-wise walk) and
/// the sharded plan and assert both degrade identically: fitted
/// marginals within `1e-9`, and the sharded *inference* of the
/// identity-plan model bit-identical.
fn assert_sharded_degrades_identically(lambda: &LabelMatrix, shards: usize) {
    let scheme = LabelScheme::from_cardinality(lambda.cardinality());
    // The convergence test's gradient threshold scales with the row
    // count; on adversarial shapes with near-zero-coverage LFs the
    // default tol leaves those LFs' weights loosely pinned, so drive
    // both paths to the arithmetic noise floor before comparing.
    let cfg = TrainConfig {
        tol: 1e-15,
        ..TrainConfig::default()
    };
    let identity = identity_plan(lambda);
    let plan = ShardedMatrix::build(lambda, shards);
    let mut dense = GenerativeModel::new(lambda.num_lfs(), scheme);
    dense.fit(lambda, Some(&identity), &cfg);
    let mut sharded = GenerativeModel::new(lambda.num_lfs(), scheme);
    sharded.fit(lambda, Some(&plan), &cfg);

    // Inference path: bit-identical under the same weights.
    let reference = dense.marginals(lambda, Some(&identity));
    assert_eq!(
        dense.marginals(lambda, Some(&plan)),
        reference,
        "sharded marginals must be bit-identical to the dense path"
    );

    // Training path: same optimum, and everything stays finite.
    let fitted = sharded.marginals(lambda, Some(&identity));
    for (r, (a, b)) in reference.iter().zip(&fitted).enumerate() {
        for (pa, pb) in a.iter().zip(b) {
            assert!(pa.is_finite() && pb.is_finite(), "row {r} not finite");
            assert!(
                (pa - pb).abs() < 1e-9,
                "row {r}: dense {pa} vs sharded {pb}"
            );
        }
    }
}

#[test]
fn sharded_all_abstain_corpus_matches_dense() {
    // 10k rows, not a single vote: exactly one (empty) pattern.
    let lambda = LabelMatrixBuilder::new(10_000, 5).build();
    let plan = ShardedMatrix::build(&lambda, 3);
    assert_eq!(plan.num_patterns(), 3); // the empty pattern, once per shard
    assert!(plan.dedup_ratio() > 3000.0);
    assert_sharded_degrades_identically(&lambda, 3);
}

#[test]
fn sharded_dominant_pattern_matches_dense() {
    // One signature covers 99.9% of rows; the rest is a scattered tail.
    // (Every LF keeps full coverage — the adversarial dimension here is
    // the extreme multiplicity skew, not weak identification, which
    // would leave the optimum genuinely under-determined on *both*
    // paths.)
    let m = 10_000;
    let mut b = LabelMatrixBuilder::new(m, 4);
    for i in 0..m {
        if i % 1000 == 999 {
            // 0.1% tail: two rare fully-conflicting signatures.
            let flip: i8 = if i % 2000 == 999 { 1 } else { -1 };
            b.set(i, 0, -flip);
            b.set(i, 1, -1);
            b.set(i, 2, flip);
            b.set(i, 3, -1);
        } else {
            b.set(i, 0, 1);
            b.set(i, 1, 1);
            b.set(i, 2, -1);
            b.set(i, 3, 1);
        }
    }
    let lambda = b.build();
    let plan = ShardedMatrix::build(&lambda, 4);
    assert!(
        plan.dedup_ratio() > 500.0,
        "dominant pattern must dedup massively, got {:.1}",
        plan.dedup_ratio()
    );
    assert_sharded_degrades_identically(&lambda, 4);
}

#[test]
fn sharded_duplicate_lf_columns_match_dense() {
    // 6 exact copies of one column + 2 independents: the degenerate
    // suite must not behave differently under dedup.
    let (base, _) = independent_matrix(2000, 3, 0.8, 0.5, 11);
    let mut b = LabelMatrixBuilder::new(2000, 8);
    for i in 0..2000 {
        let (cols, votes) = base.row(i);
        for (&c, &v) in cols.iter().zip(votes) {
            if c == 0 {
                for copy in 0..6 {
                    b.set(i, copy, v);
                }
            } else {
                b.set(i, 5 + c as usize, v);
            }
        }
    }
    let lambda = b.build();
    assert_sharded_degrades_identically(&lambda, 2);
    // Shard count 1 and 0 (= all cores) degrade identically too.
    assert_sharded_degrades_identically(&lambda, 1);
    assert_sharded_degrades_identically(&lambda, 0);
}

#[test]
#[should_panic(expected = "one entry per class")]
fn wrong_arity_class_balance_panics() {
    let (lambda, _) = independent_matrix(50, 2, 0.8, 0.5, 3);
    let mut gm = GenerativeModel::new(2, LabelScheme::Binary);
    let cfg = TrainConfig {
        class_balance: ClassBalance::Fixed(vec![0.2, 0.3, 0.5]),
        ..TrainConfig::default()
    };
    gm.fit(&lambda, None, &cfg);
}
