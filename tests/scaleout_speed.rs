//! Scale-out acceptance: on a 100k×25 pattern-sparse corpus the
//! deduplicated plan must run `marginals` + `fit` at least 2× faster
//! than the identity plan (one pattern per row: the row-wise walk)
//! through the same fitter, while producing identical outputs
//! (bit-identical marginals under fixed weights; same optimum after
//! fitting). The full-scale 1M×25 measurement lives in
//! `crates/bench/benches/scaleout.rs`.

#[path = "../crates/core/tests/support/identity_plan.rs"]
mod identity_plan;

use std::time::Instant;

use identity_plan::identity_plan;
use snorkel::core::label_model::LabelModel;
use snorkel::core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel::datasets::synthetic::pattern_sparse_matrix;
use snorkel::matrix::ShardedMatrix;

#[test]
fn dedup_beats_rowwise_2x_at_100k() {
    let m = 100_000;
    let (lambda, _) = pattern_sparse_matrix(m, 25, 300, 0.12, 0.75, 0.005, 7);
    let plan = ShardedMatrix::build(&lambda, 0);
    assert!(
        plan.dedup_ratio() > 20.0,
        "corpus must be pattern-sparse, got ratio {:.1}",
        plan.dedup_ratio()
    );

    let identity = identity_plan(&lambda);
    let cfg = TrainConfig {
        tol: 1e-15,
        ..TrainConfig::default()
    };

    // --- fit ---
    let scheme = LabelScheme::Binary;
    let t0 = Instant::now();
    let mut dense = GenerativeModel::new(25, scheme);
    dense.fit(&lambda, Some(&identity), &cfg);
    let fit_identity = t0.elapsed();

    // The dedup fit builds its own plan inside the timed window (at
    // 100k rows that is one shard per core, the same as `plan` above).
    let t1 = Instant::now();
    let mut sharded = GenerativeModel::new(25, scheme);
    sharded.fit(&lambda, None, &cfg);
    let fit_sharded = t1.elapsed();

    // --- marginals ---
    let t2 = Instant::now();
    let reference = dense.marginals(&lambda, Some(&identity));
    let marg_identity = t2.elapsed();

    let t3 = Instant::now();
    let dedup = dense.marginals(&lambda, Some(&plan));
    let marg_sharded = t3.elapsed();

    // Identical outputs: inference is bit-identical under the same
    // weights; the two fits land on the same optimum. At this scale the
    // likelihood is flat to ~1e-11 around the optimum (both NLLs agree
    // to that), and two independently converged runs can sit ~1e-7
    // apart in posteriors along the flattest directions — the bound
    // here is the honest noise floor of run-to-convergence comparison,
    // not of the dedup arithmetic (which proptest pins to ≤1e-12).
    assert_eq!(dedup, reference, "dedup marginals must be bit-identical");
    let fitted = sharded.marginals(&lambda, Some(&identity));
    let mut gap = 0.0f64;
    for (a, b) in reference.iter().zip(&fitted) {
        for (pa, pb) in a.iter().zip(b) {
            gap = gap.max((pa - pb).abs());
        }
    }
    assert!(gap < 1e-6, "fit outputs diverged by {gap:e}");

    // ≥2× on the combined workload (the margin in practice is far
    // larger; 2× keeps the assert robust on noisy shared hardware).
    let rowwise = fit_identity + marg_identity;
    let scaleout = fit_sharded + marg_sharded;
    let speedup = rowwise.as_secs_f64() / scaleout.as_secs_f64().max(1e-9);
    eprintln!(
        "scaleout 100k×25: fit {:?} → {:?}, marginals {:?} → {:?}, combined speedup {speedup:.1}×, \
         {} patterns (dedup ratio {:.1})",
        fit_identity,
        fit_sharded,
        marg_identity,
        marg_sharded,
        plan.num_patterns(),
        plan.dedup_ratio()
    );
    assert!(
        speedup >= 2.0,
        "scale-out path must be ≥2× faster (fit {fit_identity:?}+marg {marg_identity:?} vs \
         fit {fit_sharded:?}+marg {marg_sharded:?}, speedup {speedup:.2}×)"
    );
}
