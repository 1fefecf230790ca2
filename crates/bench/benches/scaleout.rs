//! Million-candidate scale-out benchmark: pattern-deduplicated sharded
//! inference/training vs the identity plan (one pattern per row: the
//! row-wise walk) through the same fitter, on a DryBell-shaped synthetic
//! corpus (huge row count, few distinct vote signatures).
//!
//! Run with `cargo bench -p snorkel-bench --bench scaleout`. Sizes are
//! env-tunable so CI can smoke-test the same binary at small scale:
//!
//! * `SNORKEL_SCALEOUT_ROWS`     — corpus rows (default 1_000_000)
//! * `SNORKEL_SCALEOUT_LFS`      — LF columns (default 25)
//! * `SNORKEL_SCALEOUT_PATTERNS` — base signatures (default 2_000)
//! * `SNORKEL_SCALEOUT_SHARDS`   — shard count (default 0 = all cores)
//!
//! Custom harness (no criterion): each stage is timed over a few
//! iterations and the median is reported, plus the identity / dedup
//! speedup for `marginals`, `fit`, and the combined workload — the
//! acceptance target is ≥4× combined at 1M×25.

#[path = "../../core/tests/support/identity_plan.rs"]
mod identity_plan;

use std::time::{Duration, Instant};

use identity_plan::identity_plan;
use snorkel_core::label_model::LabelModel;
use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_datasets::synthetic::pattern_sparse_matrix;
use snorkel_matrix::ShardedMatrix;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn median_time<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

fn fmt(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2} s", d.as_secs_f64())
    } else {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    }
}

fn main() {
    let rows = env_usize("SNORKEL_SCALEOUT_ROWS", 1_000_000);
    let lfs = env_usize("SNORKEL_SCALEOUT_LFS", 25);
    let patterns = env_usize("SNORKEL_SCALEOUT_PATTERNS", 2_000);
    let shards = env_usize("SNORKEL_SCALEOUT_SHARDS", 0);
    // Fewer fit repetitions at full scale — the identity-plan baseline
    // runs for seconds per fit there.
    let fit_iters = if rows > 200_000 { 1 } else { 3 };

    println!("building {rows}×{lfs} pattern-sparse corpus ({patterns} base signatures)…");
    let t = Instant::now();
    let (lambda, _) = pattern_sparse_matrix(rows, lfs, patterns, 0.12, 0.75, 0.01, 7);
    println!(
        "  corpus built in {} ({} non-abstain votes, density {:.2})",
        fmt(t.elapsed()),
        lambda.nnz(),
        lambda.label_density()
    );

    let t = Instant::now();
    let plan = ShardedMatrix::build(&lambda, shards);
    println!(
        "  sharded plan: {} shards, {} unique patterns, dedup ratio {:.1} (built in {})",
        plan.num_shards(),
        plan.num_patterns(),
        plan.dedup_ratio(),
        fmt(t.elapsed()),
    );

    let identity = identity_plan(&lambda);
    let cfg = TrainConfig::default();

    // ---------------- fit ----------------
    let fit_identity = median_time(fit_iters, || {
        let mut gm = GenerativeModel::new(lfs, LabelScheme::Binary);
        gm.fit(&lambda, Some(&identity), &cfg);
        gm
    });
    let fit_sharded = median_time(fit_iters, || {
        let mut gm = GenerativeModel::new(lfs, LabelScheme::Binary);
        gm.fit(&lambda, Some(&plan), &cfg);
        gm
    });
    println!("fit/identity_plan    {}", fmt(fit_identity));
    println!("fit/dedup_sharded    {}", fmt(fit_sharded));

    // ---------------- marginals ----------------
    let mut gm = GenerativeModel::new(lfs, LabelScheme::Binary);
    gm.fit(&lambda, Some(&plan), &cfg);
    let marg_identity = median_time(3, || gm.marginals(&lambda, Some(&identity)));
    let marg_sharded = median_time(3, || gm.marginals(&lambda, Some(&plan)));
    println!("marginals/identity   {}", fmt(marg_identity));
    println!("marginals/dedup      {}", fmt(marg_sharded));

    // Output equivalence (the property the speedup is allowed to rely
    // on): inference bit-identical under fixed weights.
    let a = gm.marginals(&lambda, Some(&identity));
    let b = gm.marginals(&lambda, Some(&plan));
    assert_eq!(
        a, b,
        "dedup marginals must be bit-identical to the identity plan's"
    );
    println!("  (dedup marginals verified bit-identical to the identity plan's)");

    let s_fit = fit_identity.as_secs_f64() / fit_sharded.as_secs_f64().max(1e-12);
    let s_marg = marg_identity.as_secs_f64() / marg_sharded.as_secs_f64().max(1e-12);
    let combined = (fit_identity + marg_identity).as_secs_f64()
        / (fit_sharded + marg_sharded).as_secs_f64().max(1e-12);
    println!("scaleout speedup: fit {s_fit:.1}×, marginals {s_marg:.1}×, combined {combined:.1}×");

    snorkel_bench::report::emit(
        "scaleout",
        &[
            ("rows", rows as f64),
            ("lfs", lfs as f64),
            ("unique_patterns", plan.num_patterns() as f64),
            ("dedup_ratio", plan.dedup_ratio()),
            ("fit_identity_secs", fit_identity.as_secs_f64()),
            ("fit_sharded_secs", fit_sharded.as_secs_f64()),
            ("marginals_identity_secs", marg_identity.as_secs_f64()),
            ("marginals_sharded_secs", marg_sharded.as_secs_f64()),
            ("fit_speedup", s_fit),
            ("marginals_speedup", s_marg),
            ("combined_speedup", combined),
        ],
    );
    snorkel_bench::report::enforce_floor(
        "SNORKEL_SCALEOUT_MIN_SPEEDUP",
        "dedup-vs-identity-plan combined",
        combined,
    );
}
