//! Property-test harness locking down the scale-out contract: for
//! arbitrary matrices, cardinalities, and shard counts (including 1 and
//! 0 = all cores),
//!
//! * pattern-deduplicated **marginals** are *bit-identical* to the
//!   identity plan's (one pattern per row, the row-wise walk) — a
//!   pattern's posterior is computed by the exact float-op sequence its
//!   rows' posteriors would have used;
//! * pattern-deduplicated **fits** land on the same optimum as the
//!   identity-plan fit (≤ 1e-12 on every posterior), for every shard
//!   count — the per-pattern sufficient statistics differ from the
//!   per-row sums only in floating-point summation order, and the
//!   tol-driven fixed-point iteration erases that;
//! * the plan structures themselves satisfy their invariants
//!   ([`ShardedMatrix::validate`]).

#[path = "support/identity_plan.rs"]
mod identity_plan;

use identity_plan::identity_plan;
use proptest::prelude::*;
use snorkel_core::label_model::LabelModel;
use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_matrix::{LabelMatrix, LabelMatrixBuilder, PatternIndex, ShardedMatrix, Vote};

/// Arbitrary (matrix, cardinality) with duplicate-heavy rows: each row
/// is drawn from a small pool of row templates plus free noise, so real
/// dedup structure appears at every size.
fn matrix_strategy() -> impl Strategy<Value = LabelMatrix> {
    (1usize..40, 1usize..8, 2u8..5, 1usize..6).prop_flat_map(|(m, n, k, pool)| {
        let template = prop::collection::vec(0i8..=(k as i8), n);
        (
            prop::collection::vec(template, pool),
            prop::collection::vec(0usize..pool, m),
            prop::collection::vec((0usize..m.max(1), 0usize..n.max(1), 0i8..=(k as i8)), 0..8),
        )
            .prop_map(move |(templates, assignment, noise)| {
                let mut grid: Vec<Vec<Vote>> =
                    assignment.iter().map(|&t| templates[t].clone()).collect();
                for (i, j, v) in noise {
                    grid[i][j] = v;
                }
                let mut b = LabelMatrixBuilder::with_cardinality(m, n, k);
                for (i, row) in grid.iter().enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        // Map template values onto the scheme: 0 =
                        // abstain; binary uses ±1, multi-class 1..=k.
                        let vote = if k == 2 {
                            match v {
                                0 => 0,
                                1 => 1,
                                _ => -1,
                            }
                        } else {
                            v.min(k as i8)
                        };
                        b.set(i, j, vote);
                    }
                }
                b.build()
            })
    })
}

fn max_marginal_gap(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    let mut gap = 0.0f64;
    for (ra, rb) in a.iter().zip(b) {
        for (pa, pb) in ra.iter().zip(rb) {
            gap = gap.max((pa - pb).abs());
        }
    }
    gap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plans of every shard count are structurally valid and count
    /// patterns consistently with an unsharded index.
    #[test]
    fn plans_are_valid_for_any_shard_count(
        lambda in matrix_strategy(),
        shards in 0usize..6,
    ) {
        let plan = ShardedMatrix::build(&lambda, shards);
        plan.validate(&lambda).unwrap();
        prop_assert_eq!(plan.num_rows(), lambda.num_points());
        // Sharding can only split patterns at shard boundaries, never
        // lose or invent signatures.
        let whole = PatternIndex::build(&lambda);
        prop_assert!(plan.num_patterns() >= whole.num_patterns());
        prop_assert!(plan.num_patterns() <= whole.num_patterns() * plan.num_shards());
    }

    /// Deduplicated marginals are bit-identical to identity-plan
    /// marginals, for shard counts 0 (= all cores), 1, and arbitrary.
    #[test]
    fn marginals_bit_identical_across_paths(
        lambda in matrix_strategy(),
        shards in 0usize..6,
    ) {
        let scheme = LabelScheme::from_cardinality(lambda.cardinality());
        let identity = identity_plan(&lambda);
        let mut gm = GenerativeModel::new(lambda.num_lfs(), scheme);
        // Fit through the identity plan so every path sees identical
        // weights.
        gm.fit(&lambda, Some(&identity), &TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        });
        let reference = gm.marginals(&lambda, Some(&identity));
        for s in [shards, 0, 1] {
            let plan = ShardedMatrix::build(&lambda, s);
            let dedup = gm.marginals(&lambda, Some(&plan));
            prop_assert_eq!(
                &dedup, &reference,
                "marginals must be bit-identical at shard count {}", s
            );
        }
        // The self-built plan agrees too.
        prop_assert_eq!(&gm.marginals(&lambda, None), &reference);
    }

    /// Identity-plan and sharded fits land on the same optimum: every
    /// posterior agrees to ≤ 1e-12, for any shard count including 1 and
    /// 0 (= all cores).
    #[test]
    fn fit_matches_rowwise_for_any_shard_count(
        lambda in matrix_strategy(),
        shards in 0usize..6,
    ) {
        let scheme = LabelScheme::from_cardinality(lambda.cardinality());
        let cfg = TrainConfig::default();
        let identity = identity_plan(&lambda);
        let mut rowwise = GenerativeModel::new(lambda.num_lfs(), scheme);
        rowwise.fit(&lambda, Some(&identity), &cfg);
        let reference = rowwise.marginals(&lambda, Some(&identity));
        for s in [shards, 1, 0] {
            let plan = ShardedMatrix::build(&lambda, s);
            let mut sharded = GenerativeModel::new(lambda.num_lfs(), scheme);
            sharded.fit(&lambda, Some(&plan), &cfg);
            let gap = max_marginal_gap(&sharded.marginals(&lambda, Some(&identity)), &reference);
            prop_assert!(
                gap <= 1e-12,
                "shard count {}: fit diverged from row-wise by {:e}", s, gap
            );
        }
    }

    /// Warm restarts through the sharded path match identity-plan warm
    /// restarts after a column edit.
    #[test]
    fn warm_fit_matches_across_paths(
        lambda in matrix_strategy(),
        shards in 1usize..5,
        col_seed in 0usize..64,
    ) {
        let scheme = LabelScheme::from_cardinality(lambda.cardinality());
        let rw = TrainConfig::default();
        let mut base = GenerativeModel::new(lambda.num_lfs(), scheme);
        base.fit(&lambda, Some(&identity_plan(&lambda)), &rw);

        // Edit one column: drop every second of its entries.
        let mut edited = lambda.clone();
        let j = col_seed % lambda.num_lfs();
        let entries: Vec<(u32, Vote)> = edited
            .column(j)
            .into_iter()
            .enumerate()
            .filter(|(e, _)| e % 2 == 0)
            .map(|(_, ent)| ent)
            .collect();
        edited.replace_column(j, &entries);

        let identity = identity_plan(&edited);
        let mut warm_rw = GenerativeModel::new(lambda.num_lfs(), scheme);
        warm_rw.fit_warm(&edited, Some(&identity), &rw, &base, &[j]);
        let reference = warm_rw.marginals(&edited, Some(&identity));

        let plan = ShardedMatrix::build(&edited, shards);
        let mut warm_sh = GenerativeModel::new(lambda.num_lfs(), scheme);
        warm_sh.fit_warm(&edited, Some(&plan), &rw, &base, &[j]);
        // Warm restarts inherit the crate-wide warm/cold guarantee
        // (≤1e-9): starting next to the optimum, the stall backstop can
        // stop each path a few ulps apart along near-degenerate ridges,
        // so the cold-fit 1e-12 bound does not transfer verbatim.
        let gap = max_marginal_gap(&warm_sh.marginals(&edited, Some(&identity)), &reference);
        prop_assert!(gap <= 1e-9, "warm sharded fit diverged by {:e}", gap);
    }
}
